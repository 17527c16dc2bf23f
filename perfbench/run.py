"""The repository's end-to-end, layer-by-layer benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload extract-large --seed 1 --seconds 32 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``extract-large`` -- cold ``vxunzip extract --vxa`` of a mixed archive
  with a few tens of KiB per member (VM reuse within one domain).
* ``extract-small-fresh`` -- cold extract of 48 tiny members under the
  default ``ALWAYS_FRESH`` policy.
* ``archive-write`` -- cold ``vxa.create`` of a ~400 KB mixed corpus.
* ``serve-mixed`` -- a closed-loop client alternating single-member
  ``check`` and two-member ``extract`` requests against
  ``vxserve --socket --jobs 2``.

With ``--trace 0`` the last stdout line carries every end-to-end metric,
its timings normalised for the host's CPU speed (see ``hostspeed.py``);
with ``--trace 1`` it carries the per-layer metrics from traced operations
(spans recorded around each layer's entry points, see ``tracer.py``),
including the tracing overhead against untraced operations of the same run.
Every operation's output is checked, and the run's deterministic work
fingerprint must repeat across operations and across runs of one seed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
STATE = ROOT / ".perfbench"
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
from tracer import layer_self_times  # noqa: E402

#: Longest one operation may take before the run fails (seconds).
OP_TIMEOUT = 150
#: How long a fresh vxserve gets to create its socket (seconds).
SOCKET_TIMEOUT = 30
#: Per-request client timeout against vxserve (seconds).
REQUEST_TIMEOUT = 60
#: vxserve sessions per run, so setup is measured several times.
SERVE_SESSIONS = 2
#: vxserve requests between two host-speed probes of the client.
PROBE_EVERY = 8
#: Most passes over the timed extract requests while warming vxserve.
WARM_ROUNDS = 8


def _declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {metric["name"]: metric["unit"] for metric in declared}


#: Span name -> per-layer metric holding that span's self time.
SELF_TIME_LAYERS = {
    "zipformat.open": "zipformat.open_s",
    "zipformat.read": "zipformat.read_s",
    "zipformat.crc": "zipformat.crc_s",
    "zipformat.write": "zipformat.write_s",
    "core.fsync": "core.fsync_s",
    "codecs.encode": "codecs.encode_s",
    "codecs.native_decode": "codecs.native_decode_s",
    "vxc.compile": "vxc.compile_s",
    "analysis.verify": "analysis.verify_s",
    "vm.load": "vm.load_s",
    "vm.translate": "vm.translate_s",
    "vm.decode": "vm.guest_s",
}

#: vxserve spans whose self time is the service layer's own work.
SERVE_SPANS = ("serve.handle", "serve.admit", "serve.check_shard",
               "serve.extract_shard")


class BenchmarkError(Exception):
    """The benchmark itself cannot run (not a failed operation)."""


def _quartiles(values: list[float]) -> dict:
    low, _, high = (statistics.quantiles(values, n=4, method="inclusive")
                    if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": low, "q3": high,
            "samples": len(values)}


def _percentile(values: list[float], fraction: float) -> float:
    if len(values) == 1:
        return values[0]
    cut = statistics.quantiles(values, n=100, method="inclusive")
    return cut[round(fraction * 100) - 1]


class Run:
    """State of one benchmark invocation: work dir, outcome tally, samples."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = STATE / f"run-{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.fingerprints: dict[str, dict] = {}
        self.traced: list[dict] = []
        self.untraced_walls: list[float] = []
        self._ops = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def outcome(self, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(why)
        return ok

    def fingerprint(self, kind: str, values: dict) -> None:
        """Work counts of one operation; every operation of a kind must agree."""
        seen = self.fingerprints.setdefault(kind, values)
        if seen != values:
            self.outcome(False, f"{kind} fingerprint changed within the run: "
                                f"{seen} != {values}")

    # -- one operation in a fresh interpreter ---------------------------------

    def op(self, operation: str, *argv: str, trace: bool = False) -> dict | None:
        self._ops += 1
        result_path = self.work / f"op{self._ops}.json"
        command = [sys.executable, str(BENCH / "op.py"), operation,
                   "--result", str(result_path), *argv]
        if trace:
            command.append("--trace")
        spawned = time.perf_counter()
        try:
            process = subprocess.run(command, env=self.env, cwd=self.work,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE,
                                     timeout=OP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.outcome(False, f"{operation} timed out")
            return None
        finished = time.perf_counter()
        if process.returncode != 0 or not result_path.exists():
            self.outcome(False, f"{operation} exited {process.returncode}: "
                                f"{process.stderr.decode(errors='replace')[-500:]}")
            return None
        result = json.loads(result_path.read_text())
        # The user's wall time with the host-speed probes left out, raw and
        # normalised; set-up is normalised by the probe that follows it.
        points = result["probes"]
        result["raw_wall"], result["wall"] = hostspeed.normalise(
            points, spawned, finished)
        result["setup"] = (result["ready"] - spawned) / hostspeed.slowdown(points[0][2])
        inside = [point for point in points
                  if result["start"] < point[0] < result["end"]]
        result["op_seconds"] = (result["end"] - result["start"]
                                - sum(point[1] - point[0] for point in inside))
        if result["exit_code"] != 0:
            self.outcome(False, f"{operation} returned {result['exit_code']}")
            return None
        if trace:
            result["trace"] = json.loads(pathlib.Path(result["spans"]).read_text())
        return result


# -- output checks -------------------------------------------------------------

def _matches(meta: dict, data: bytes) -> bool:
    """Lossless members by SHA-256, lossy ones by the CRC the archive records."""
    if meta["sha256"] is not None:
        return hashlib.sha256(data).hexdigest() == meta["sha256"]
    return len(data) > 0 and zlib.crc32(data) == meta["crc32"]


def _check_tree(run: Run, directory: pathlib.Path, archive: dict) -> int:
    """Compare an extracted tree with the archive's references; bytes out."""
    produced = {str(path.relative_to(directory)): path
                for path in directory.rglob("*") if path.is_file()}
    total = 0
    ok = set(produced) == set(archive["members"])
    for name, meta in archive["members"].items():
        if name in produced:
            data = produced[name].read_bytes()
            total += len(data)
            ok = ok and _matches(meta, data)
    run.outcome(ok, f"extracted tree differs from the references in {directory}")
    shutil.rmtree(directory, ignore_errors=True)
    return total


def _check_ratio(run: Run, result: dict, archive: dict) -> None:
    ok = True
    for name in archive["ratio_members"]:
        meta = archive["members"][name]
        for outputs in [*result["vxa_outputs"], result["native_outputs"]]:
            digest = outputs.get(name)
            if digest is None:
                ok = False
            elif meta["sha256"] is not None:
                ok = ok and digest["sha256"] == meta["sha256"]
            else:
                ok = ok and digest["crc32"] == meta["crc32"]
    run.outcome(ok, "ratio op outputs differ from the references")


def _decode_counts(counters: dict) -> dict:
    keys = ("guest_instructions", "fragments_translated", "guards_elided",
            "vm_initialisations", "vm_reuses", "fsync_calls")
    return {key: counters.get(key, 0) for key in keys}


# -- workloads -----------------------------------------------------------------

def _schedule(run: Run, first: list[str], repeat: list[str], do) -> None:
    """Run each of ``first`` once, then ``repeat`` round-robin.

    A repeated operation starts only if its kind's last duration still fits
    in the time budget, so runs end close to ``--seconds`` instead of
    overshooting by one long operation.
    """
    deadline = time.perf_counter() + run.seconds
    last: dict[str, float] = {}

    def timed(kind: str) -> None:
        start = time.perf_counter()
        do(kind)
        last[kind] = time.perf_counter() - start

    for kind in first:
        timed(kind)
    for index in itertools.count():
        kind = repeat[index % len(repeat)]
        if time.perf_counter() + last.get(kind, 0.0) > deadline:
            break
        timed(kind)


def _ratio_op(run: Run, archive: dict, trace: bool, setup: bool = True) -> None:
    result = run.op("ratio", "--archive", archive["archive"], "--reuse",
                    archive["reuse"], "--members", *archive["ratio_members"],
                    trace=trace)
    if result is None:
        return
    _check_ratio(run, result, archive)
    if setup:
        run.sample("setup_s", result["setup"])
    run.sample("ratio_wall", result["wall"])
    for vxa_seconds, native_seconds in zip(result["vxa_seconds"],
                                           result["native_seconds"]):
        run.sample("vm_native_ratio", vxa_seconds / native_seconds)
    run.fingerprint("ratio", _decode_counts(result["counters"]))
    if trace:
        spans = result["trace"]["spans"]
        native = sum(span["end"] - span["start"] for span in spans
                     if span["name"] == "codecs.native_decode")
        # Per pass over the members: the ratio's denominator.
        run.sample("native_decode_s", native / result["native_decodes"]
                   * len(result["native_outputs"]))


def extract_workload(run: Run, archive: dict) -> dict:
    def extract(kind: str) -> None:
        if kind.startswith("ratio"):
            _ratio_op(run, archive, trace=kind == "ratio-traced")
            return
        traced = kind == "traced"
        out = run.work / f"out{run._ops + 1}"
        result = run.op("extract", "--archive", archive["archive"], "--out",
                        str(out), "--reuse", archive["reuse"], trace=traced)
        if result is None:
            return
        extracted = _check_tree(run, out, archive)
        run.fingerprint("extract", {**_decode_counts(result["counters"]),
                                    "archive_bytes": archive["archive_bytes"],
                                    "decoder_bytes": archive["decoder_bytes"]})
        run.sample("setup_s", result["setup"])
        if traced:
            run.traced.append(result)
            return
        run.untraced_walls.append(result["op_seconds"])
        run.sample("op_wall", result["wall"])
        run.sample("op_wall_raw", result["raw_wall"])
        run.sample("slowdown", result["raw_wall"] / result["wall"])
        run.sample("op_bytes", extracted)
        run.sample("peak_rss_mib", result["peak_rss_kib"] / 1024)

    # One ratio operation per run; every other slot measures the workload.
    if run.trace:
        _schedule(run, ["extract", "traced", "ratio-traced"],
                  ["traced", "extract"], extract)
    else:
        _schedule(run, ["extract", "ratio"], ["extract"], extract)
    return archive


def write_workload(run: Run, corpus: dict) -> dict:
    verified: dict[str, dict] = {}
    written: dict = {}

    def create(kind: str) -> None:
        if kind.startswith("ratio"):
            if written:
                _ratio_op(run, written, trace=kind == "ratio-traced")
            return
        traced = kind == "traced"
        out = run.work / f"written{run._ops + 1}.zip"
        result = run.op("create", "--recipe", corpus["recipe"], "--out", str(out),
                        trace=traced)
        if result is None:
            return
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if digest not in verified:
            verified[digest] = _verify_written(out, corpus)
            if not written and verified[digest] is not None:
                # The ratio operation decodes the first good archive written.
                keep = run.work / "written.zip"
                shutil.copyfile(out, keep)
                written.update(verified[digest], archive=str(keep),
                               reuse="always-fresh")
        description = verified[digest]
        run.outcome(description is not None, f"written archive {out} failed checks")
        out.unlink()
        run.fingerprint("create", {"fsync_calls": result["counters"].get("fsync_calls", 0),
                                   "archive_bytes": result["archive_bytes"],
                                   "decoder_bytes": result["decoder_bytes"],
                                   "archive_sha256": digest})
        run.sample("setup_s", result["setup"])
        if traced:
            run.traced.append(result)
            return
        run.untraced_walls.append(result["op_seconds"])
        run.sample("op_wall", result["wall"])
        run.sample("op_wall_raw", result["raw_wall"])
        run.sample("slowdown", result["raw_wall"] / result["wall"])
        run.sample("op_bytes", corpus["input_bytes"])
        run.sample("peak_rss_mib", result["peak_rss_kib"] / 1024)

    if run.trace:
        _schedule(run, ["create", "traced", "ratio-traced"],
                  ["traced", "create"], create)
    else:
        _schedule(run, ["create", "ratio"], ["create"], create)
    return written or {"archive_bytes": 0, "input_bytes": corpus["input_bytes"],
                       "decoder_bytes": 0}


def _verify_written(path: pathlib.Path, corpus: dict) -> dict | None:
    """Native read-back must be byte-equal and ``check --deep`` clean."""
    import inputs
    import repro.api as vxa
    from repro.repair import deep_check

    description = inputs.describe_archive(path, corpus["inputs"])
    with vxa.open(path, vxa.ReadOptions(mode="native")) as archive:
        extracted = archive.extract_all()
    ok = set(extracted) == set(description["members"]) and all(
        _matches(description["members"][name], item.data)
        for name, item in extracted.items())
    assessment = deep_check(str(path))
    ok = ok and assessment.classification() == "clean"
    return description if ok else None


class ServeSession:
    """One ``vxserve --socket --jobs 2`` process: fresh socket, always reaped."""

    def __init__(self, run: Run, index: int, trace: bool):
        self.run = run
        self.socket = run.work / f"serve{index}.sock"
        self.spans = run.work / f"serve{index}.spans.json"
        self.trace = trace
        if trace:
            command = [sys.executable, str(BENCH / "serve_traced.py"),
                       "--spans", str(self.spans)]
        else:
            command = [sys.executable, "-m", "repro.parallel.service"]
        command += ["--socket", str(self.socket), "--jobs", "2"]
        self.log = open(run.work / f"serve{index}.log", "wb")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(command, env=run.env, cwd=run.work,
                                        stdin=subprocess.DEVNULL,
                                        stdout=self.log, stderr=self.log,
                                        start_new_session=True)

    def wait_for_socket(self) -> None:
        deadline = time.perf_counter() + SOCKET_TIMEOUT
        while not self.socket.exists():
            if self.process.poll() is not None:
                raise BenchmarkError(f"vxserve exited {self.process.returncode} "
                                     "before creating its socket")
            if time.perf_counter() > deadline:
                raise BenchmarkError("vxserve socket never appeared")
            time.sleep(0.01)

    def peak_rss_mib(self) -> float:
        """Summed peak RSS of the service and every process under it."""
        pids = [self.process.pid]
        total_kib = 0
        while pids:
            pid = pids.pop()
            try:
                status = pathlib.Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
            for task in pathlib.Path(f"/proc/{pid}/task").glob("*/children"):
                try:
                    pids += [int(child) for child in task.read_text().split()]
                except OSError:
                    continue  # the thread exited meanwhile
        return total_kib / 1024

    def close(self) -> None:
        """Drain, ask for shutdown, then make sure the whole group is gone."""
        from repro.client import VxServeClient, VxServeError

        try:
            if self.process.poll() is None and self.socket.exists():
                with VxServeClient(str(self.socket), retries=0,
                                   timeout=REQUEST_TIMEOUT) as client:
                    client.drain()
                    client.shutdown()
                self.process.wait(timeout=30)
        except (OSError, VxServeError, subprocess.TimeoutExpired):
            pass
        finally:
            for sig in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(self.process.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    self.process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    continue
            self.process.wait()
            self.log.close()


def _serve_requests(archive: dict, seed: int) -> list[tuple[str, list[str]]]:
    """The client's request cycle: a single-member ``check`` (one shard, the
    service's serial path, a fresh decoder session each time) alternating
    with a two-member ``extract`` of two decoders (two shards, so the worker
    pool runs them, each on a worker's cached archive and session)."""
    names = sorted(archive["members"])
    order = [names[(seed + step) % len(names)] for step in range(len(names))]
    cycle = []
    for index, name in enumerate(order):
        cycle.append(("check", [name]))
        cycle.append(("extract", [name, order[(index + 1) % len(order)]]))
    return cycle


def _serve_loop(run: Run, session: ServeSession, archive: dict,
                deadline: float, first_probe: float) -> list[dict]:
    """One closed-loop client running the request cycle until the deadline.

    The client probes the host's speed on every CPU (the service works on
    all of them) every ``PROBE_EVERY`` requests; a request's latency is
    normalised by the mean of the probes either side of its block.
    """
    from repro.client import VxServeClient, VxServeError

    cycle = _serve_requests(archive, run.seed)
    requests = []
    probes = [first_probe]
    with VxServeClient(str(session.socket), client_id="c0",
                       retries=0, timeout=REQUEST_TIMEOUT) as client:
        for step in itertools.count(1):
            if time.perf_counter() >= deadline:
                break
            op, names = cycle[(step - 1) % len(cycle)]
            dest = run.work / f"dest-{id(session)}-{step}"
            start = time.perf_counter()
            try:
                if op == "check":
                    result = client.check(archive["archive"], members=names)
                else:
                    result = client.extract(archive["archive"], str(dest),
                                            members=names, mode="vxa")
            except VxServeError as error:
                # A closed-loop caller stops at its first failed request.
                run.outcome(False, f"{op} {names}: {error}")
                break
            latency = time.perf_counter() - start
            requests.append({"op": op, "names": names, "latency": latency,
                             "group": f"c0:{step}", "result": result,
                             "dest": dest, "block": len(probes) - 1})
            if step % PROBE_EVERY == 0:
                probes.append(hostspeed.probe_cpus())
    probes.append(hostspeed.probe_cpus())
    for request in requests:
        block = request["block"]
        request["slowdown"] = hostspeed.slowdown(probes[block], probes[block + 1])
    return requests


def _check_request(run: Run, request: dict, archive: dict) -> int:
    """Verify one response; returns the user bytes it delivered."""
    result = request["result"]
    names = request["names"]
    size = sum(archive["members"][name]["size"] for name in names)
    if request["op"] == "check":
        ok = (result.get("ok")
              and result.get("checked") == result.get("passed") == len(names))
        run.outcome(bool(ok), f"check {names} failed: {result}")
        run.fingerprint(f"check:{','.join(names)}", {
            key: result.get(key) for key in ("fragments_translated", "guards_elided",
                                             "vm_initialisations", "vm_reuses")})
        return size if ok else 0
    # Extract counts are not fingerprinted: which pool worker (and so which
    # warm code cache) runs a shard is up to the executor.
    records = {record["name"]: record for record in result.get("records", [])}
    ok = (set(records) == set(names) and not result.get("failures")
          and all(_matches(archive["members"][name],
                           pathlib.Path(records[name]["path"]).read_bytes())
                  for name in names))
    shutil.rmtree(request["dest"], ignore_errors=True)
    run.outcome(bool(ok), f"extract {names} failed: {result}")
    return size if ok else 0


def serve_workload(run: Run, archive: dict) -> dict:
    from repro.client import VxServeClient

    deadline = time.perf_counter() + run.seconds
    # setup_s here is the service's start and warm-up, not the ratio op's.
    _ratio_op(run, archive, trace=run.trace, setup=False)
    sessions = [False, True] if run.trace else [False] * SERVE_SESSIONS
    setup_estimate = 3.0
    for index, trace in enumerate(sessions):
        before = hostspeed.probe_cpus()
        session = ServeSession(run, index, trace)
        try:
            session.wait_for_socket()
            with VxServeClient(str(session.socket), client_id="warm", retries=0,
                               timeout=REQUEST_TIMEOUT) as client:
                # Every decoder once on the serial path the timed checks
                # take (jobs=1), then the timed extracts until a whole round
                # of them translates nothing: the pool's workers have started
                # and each has every decoder in its cached session.
                client.ping()
                client.check(archive["archive"],
                             members=sorted(archive["members"]), jobs=1)
                dest = run.work / f"warm-{index}"
                extracts = [names for op, names in _serve_requests(archive, run.seed)
                            if op == "extract"]
                for _ in range(WARM_ROUNDS):
                    translated = 0
                    for names in extracts:
                        result = client.extract(archive["archive"], str(dest),
                                                members=names, mode="vxa")
                        translated += result["stats"]["fragments_translated"]
                        shutil.rmtree(dest, ignore_errors=True)
                    if translated == 0:
                        break
            setup_estimate = time.perf_counter() - session.spawned
            after = hostspeed.probe_cpus()
            run.sample("setup_s",
                       setup_estimate / hostspeed.slowdown(before, after))
            started = time.perf_counter()
            # Split what is left evenly over the sessions still to run.
            left = len(sessions) - index
            session_end = started + max(
                2.0, (deadline - started - (left - 1) * setup_estimate) / left)
            requests = _serve_loop(run, session, archive, session_end, after)
            with VxServeClient(str(session.socket), retries=0,
                               timeout=REQUEST_TIMEOUT) as client:
                counters = client.stats()["counters"]
            rss = session.peak_rss_mib()
        finally:
            session.close()
        for request in requests:
            request["bytes"] = _check_request(run, request, archive)
        if trace:
            run.traced.append({"requests": requests, "counters": counters,
                               "trace": json.loads(session.spans.read_text())})
            continue
        for request in requests:
            run.sample("slowdown", request["slowdown"])
            run.sample("serve_latency_raw", request["latency"])
            run.sample("serve_latency", request["latency"] / request["slowdown"])
            run.untraced_walls.append(request["latency"])
        run.sample("serve_bytes", sum(request["bytes"] for request in requests))
        run.sample("peak_rss_mib", rss)
    return archive


# -- metrics ---------------------------------------------------------------------

def _with_units(values: dict, section: str) -> dict:
    units = _declared(section)
    if set(values) != set(units):
        raise BenchmarkError(f"computed {sorted(values)} but BENCHMARK.json "
                             f"declares {sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def end_to_end(run: Run, archive: dict) -> dict:
    samples = run.samples
    if "serve_latency" in samples:
        # One closed-loop client: its time is the sum of its latencies.
        latencies = samples["serve_latency"]
        seconds = sum(latencies)
        rps = len(latencies) / seconds
        throughput = sum(samples["serve_bytes"]) / 1024 / seconds
    else:
        # One cold operation per sample; medians resist a single slow one.
        latencies = samples["op_wall"]
        rps = 1 / statistics.median(latencies)
        throughput = statistics.median(
            size / wall for size, wall in zip(samples["op_bytes"], latencies)) / 1024
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "throughput_kib_s": throughput,
        "vm_native_ratio": statistics.median(samples["vm_native_ratio"]),
        "archive_ratio": archive["archive_bytes"] / archive["input_bytes"],
        "serve_rps": rps,
        "serve_p50_ms": statistics.median(latencies) * 1000,
        "serve_p90_ms": _percentile(latencies, 0.90) * 1000,
        "peak_rss_mib": statistics.median(samples["peak_rss_mib"]),
    }
    return _with_units(values, "end_to_end")


def _request_layers(traced: dict) -> list[dict]:
    """Per-request layer figures for a traced vxserve session."""
    spans = traced["trace"]["spans"]
    by_group: dict = {}
    for span in spans:
        by_group.setdefault(span["group"], []).append(span)
    rows = []
    for request in traced["requests"]:
        group = by_group.get(request["group"], [])
        handle = [span for span in group if span["name"] == "serve.handle"]
        if not handle:
            continue
        handle_s = sum(span["end"] - span["start"] for span in handle)
        duration = {}
        for span in group:
            duration[span["name"]] = (duration.get(span["name"], 0.0)
                                      + span["end"] - span["start"])
        shard = duration.get(f"serve.{request['op']}_shard", 0.0)
        admit = duration.get("serve.admit", 0.0)
        self_times = layer_self_times(group)
        row = {metric: self_times.get(name, 0.0)
               for name, metric in SELF_TIME_LAYERS.items()}
        row.update({
            "serve_self": sum(self_times.get(name, 0.0) for name in SERVE_SPANS),
            "wall": request["latency"],
            "serve.admission_wait_s": admit,
            "serve.dispatch_s": handle_s - admit - shard,
            f"serve.{request['op']}_shard_s": shard,
            "serve.wire_s": request["latency"] - handle_s,
        })
        row.update(traced["trace"]["group_counters"].get(request["group"], {}))
        # From the response: pool shards decode in workers the spans miss.
        result = request["result"]
        row[f"fragments_{request['op']}"] = result.get(
            "stats", result).get("fragments_translated", 0)
        rows.append(row)
    return rows


def per_layer(run: Run, archive: dict) -> dict:
    # Layers a workload does not exercise report 0.
    values: dict[str, float] = {name: 0.0 for name in _declared("per_layer")}
    counters: dict[str, float] = {}
    rows = []
    for traced in run.traced:
        if "requests" in traced:
            rows += _request_layers(traced)
            for key in ("queued_total", "shed_overloaded_total"):
                counters[key] = counters.get(key, 0) + traced["counters"].get(key, 0)
            continue
        self_times = layer_self_times(traced["trace"]["spans"])
        row = {metric: self_times.get(name, 0.0)
               for name, metric in SELF_TIME_LAYERS.items()}
        row["wall"] = traced["end"] - traced["start"]
        for key, value in traced["counters"].items():
            row[key] = value
        rows.append(row)
    if rows:
        def mean(key):
            return sum(row.get(key, 0.0) for row in rows) / len(rows)

        for metric in SELF_TIME_LAYERS.values():
            values[metric] = mean(metric)
        for metric in ("serve.admission_wait_s", "serve.dispatch_s",
                       "serve.wire_s"):
            values[metric] = mean(metric)
        for op in ("check", "extract"):
            chosen = [row for row in rows if f"serve.{op}_shard_s" in row]
            if chosen:
                values[f"serve.{op}_shard_s"] = statistics.fmean(
                    row[f"serve.{op}_shard_s"] for row in chosen)
                values[f"serve.fragments_per_{op}"] = statistics.fmean(
                    row[f"fragments_{op}"] for row in chosen)
        values["trace.wall_s"] = mean("wall")
        attributed = sum(values[metric] for metric in SELF_TIME_LAYERS.values())
        attributed += values["serve.wire_s"] + mean("serve_self")
        values["trace.unattributed_s"] = values["trace.wall_s"] - attributed
        counts = {
            "core.fsync_calls": "fsync_calls",
            "analysis.images_verified": "images_verified",
            "vm.initialisations": "vm_initialisations",
            "vm.reuses": "vm_reuses",
            "vm.fragments_translated": "fragments_translated",
            "vm.retranslations": "retranslations",
            "vm.guest_instructions": "guest_instructions",
            "vm.guards_elided": "guards_elided",
            "vm.chained_branches": "chained_branches",
        }
        for metric, key in counts.items():
            values[metric] = mean(key)
        hits, misses = mean("cache_hits"), mean("cache_misses")
        values["vm.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        if values["vm.fragments_translated"]:
            values["vm.translate_us_per_fragment"] = (
                values["vm.translate_s"] / values["vm.fragments_translated"] * 1e6)
        if values["vm.guest_s"]:
            values["vm.guest_mips"] = (values["vm.guest_instructions"]
                                       / values["vm.guest_s"] / 1e6)
        if run.untraced_walls:
            values["trace.overhead_s"] = (
                values["trace.wall_s"] - statistics.fmean(run.untraced_walls))
    if "native_decode_s" in run.samples:
        values["codecs.native_decode_s"] = statistics.fmean(
            run.samples["native_decode_s"])
    values["serve.queued"] = counters.get("queued_total", 0)
    values["serve.shed"] = counters.get("shed_overloaded_total", 0)
    values["core.decoder_bytes"] = archive.get("decoder_bytes", 0)
    if archive.get("archive_bytes"):
        values["core.decoder_share"] = archive["decoder_bytes"] / archive["archive_bytes"]
    values["failed_fraction"] = run.failed / max(1, run.attempted)
    return _with_units(values, "per_layer")


# -- run record ------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git repository."""
    try:
        process = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = process.stdout.split()
    if process.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if pathlib.Path(lines[0]).resolve() == ROOT else None


def _code_digest() -> str:
    """Digest of the program and benchmark sources the counts depend on."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_fingerprints(run: Run) -> bool:
    """The work fingerprint must equal every earlier run of this seed on
    this code (a change to the program may legitimately change the work)."""
    path = (STATE / "fingerprints"
            / f"{run.workload}-seed{run.seed}-{_code_digest()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    current = json.loads(json.dumps(run.fingerprints, sort_keys=True))
    if path.exists():
        stored = json.loads(path.read_text())
        # Only operation kinds both runs performed are comparable (a short
        # serve run may not reach every member).
        shared = set(stored) & set(current)
        if any(stored[kind] != current[kind] for kind in shared):
            run.outcome(False, f"work fingerprint differs from {path}")
            return False
        stored.update(current)
        current = stored
    path.write_text(json.dumps(current, sort_keys=True, indent=1))
    return True


WORKLOADS = {
    "extract-large": ("extract_large", extract_workload),
    "extract-small-fresh": ("extract_small_fresh", extract_workload),
    "archive-write": ("archive_write", write_workload),
    "serve-mixed": ("serve_mixed", serve_workload),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    generator_name, workload = WORKLOADS[args.workload]
    if run.work.exists():
        shutil.rmtree(run.work)
    run.work.mkdir(parents=True)
    try:
        generated = getattr(inputs, generator_name)(run.work, args.seed)
        archive = workload(run, generated)
        fingerprint_ok = _check_fingerprints(run)
        metrics = (per_layer(run, archive) if run.trace
                   else end_to_end(run, archive))
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "samples": {name: _quartiles(values)
                    for name, values in sorted(run.samples.items())},
        "fingerprint": run.fingerprints,
        "fingerprint_repeats": fingerprint_ok,
        "failures": run.failures[:20],
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
