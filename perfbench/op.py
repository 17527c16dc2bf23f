"""One benchmark operation in a fresh interpreter.

``run.py`` starts this script once per operation, because a fresh process
is what every ``vxunzip``/``vxzip`` user pays for.  Operations:

* ``extract ARCHIVE OUT --reuse POLICY`` -- ``vxunzip extract --vxa`` with
  durable output, through the CLI entry point.
* ``create RECIPE OUT`` -- a ``vxa.create`` of the recipe's corpus with a
  durable finalize and a commit record.
* ``ratio ARCHIVE --reuse POLICY --members ...`` -- ``RATIO_PASSES`` passes
  of the named members decoded in memory in VXA mode, each bracketed by at
  least ``NATIVE_REPEATS`` (and at least ``NATIVE_FLOOR_S`` of) native
  decodes of the same member before and after it.

The operation is bracketed by host-speed probes (``hostspeed.py``), and an
untraced extract or create also probes at member boundaries.  The
result (timestamps, probe times, work counters, output digests and, with
``--trace``, the spans) is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import pathlib
import resource
import statistics
import sys
import time
import zlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

#: Fewest native decodes on each side of a member's VXA decode.
NATIVE_REPEATS = 3
#: Least native decode time on each side of it (seconds).
NATIVE_FLOOR_S = 0.02
#: Passes over the members in the ratio operation, one VXA session each.
RATIO_PASSES = 2
#: Least time between two host-speed probes inside an untraced operation.
PROBE_INTERVAL_S = 0.5


def _digests(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "crc32": zlib.crc32(data), "size": len(data)}


def _extract(args, timeline) -> dict:
    from repro.api.session import DecoderSession
    from repro.cli import unzip_main

    decode = DecoderSession.decode

    @functools.wraps(decode)
    def probed_decode(self, *call_args, **call_kwargs):
        timeline.checkpoint()
        return decode(self, *call_args, **call_kwargs)

    DecoderSession.decode = probed_decode
    code = unzip_main(["extract", args.archive, "-o", args.out, "--vxa",
                       "--reuse", args.reuse])
    return {"exit_code": code}


def _create(args, timeline) -> dict:
    import repro.api as vxa

    recipe = json.loads(pathlib.Path(args.recipe).read_text())
    options = vxa.WriteOptions(durable=True, commit_record=True)
    with vxa.create(args.out, options) as builder:
        for item in recipe:
            builder.add_path(item["path"], item["name"],
                             codec=item.get("codec"),
                             allow_lossy=item.get("allow_lossy"),
                             store_raw=item.get("store_raw", False))
            timeline.checkpoint()
        manifest = builder.finish()
    return {"exit_code": 0, "archive_bytes": manifest.archive_size,
            "decoder_bytes": manifest.decoder_overhead_bytes}


def _ratio(args, timeline) -> dict:
    """VXA-mode over native decode time, member by member, in memory.

    Each member's VXA decode (one session for the whole archive, in archive
    order, as an extraction would run them) is bracketed by native decodes
    of the same member before and after it, so drift in the host's speed
    hits both sides of the ratio alike, and the host-speed probes stay out
    of it (no checkpoints).  ``RATIO_PASSES`` passes, each on a fresh
    session, give one ratio each.
    """
    import repro.api as vxa
    from repro.core.policy import VmReusePolicy

    reuse = VmReusePolicy(args.reuse)
    native = vxa.open(args.archive, vxa.ReadOptions(mode="native"))

    def timed(archive, name):
        start = time.perf_counter()
        data = archive.extract(name).data
        return time.perf_counter() - start, data

    def native_runs(name):
        """Native decodes until there are enough, and enough time, to median."""
        runs = []
        while (len(runs) < NATIVE_REPEATS
               or sum(run[0] for run in runs) < NATIVE_FLOOR_S):
            runs.append(timed(native, name))
        return runs

    vxa_seconds, native_seconds = [], []
    native_decodes = 0
    vxa_outputs, native_outputs = [], {}
    with native:
        for _ in range(RATIO_PASSES):
            vxa_seconds.append(0.0)
            native_seconds.append(0.0)
            vxa_outputs.append({})
            with vxa.open(args.archive, vxa.ReadOptions(mode="vxa", reuse=reuse)) as guest:
                for name in args.members:
                    before = native_runs(name)
                    elapsed, data = timed(guest, name)
                    after = native_runs(name)
                    vxa_seconds[-1] += elapsed
                    native_seconds[-1] += statistics.median(
                        run[0] for run in before + after)
                    native_decodes += len(before) + len(after)
                    vxa_outputs[-1][name] = _digests(data)
                    native_outputs[name] = before[0][1]
    return {
        "exit_code": 0,
        "vxa_seconds": vxa_seconds,
        "native_seconds": native_seconds,
        "native_decodes": native_decodes,
        "vxa_outputs": vxa_outputs,
        "native_outputs": {name: _digests(data)
                           for name, data in native_outputs.items()},
    }


OPERATIONS = {"extract": _extract, "create": _create, "ratio": _ratio}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("operation", choices=sorted(OPERATIONS))
    parser.add_argument("--result", required=True)
    parser.add_argument("--archive")
    parser.add_argument("--recipe")
    parser.add_argument("--out")
    parser.add_argument("--reuse")
    parser.add_argument("--members", nargs="*", default=[])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro.api  # noqa: F401  (the imports every operation pays)
    import repro.cli  # noqa: F401
    import hostspeed
    from tracer import Tracer, install

    tracer = Tracer(timing=args.trace)
    install(tracer)
    # Traced operations probe only before and after: their spans stay clean.
    timeline = hostspeed.Timeline(math.inf if args.trace else PROBE_INTERVAL_S)
    ready = time.perf_counter()
    timeline.mark()
    operation = tracer.wrap("op", OPERATIONS[args.operation])
    start = time.perf_counter()
    result = operation(args, timeline)
    end = time.perf_counter()
    timeline.mark()
    result.update({
        "ready": ready,
        "start": start,
        "end": end,
        "probes": timeline.points,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": dict(tracer.counters),
    })
    if args.trace:
        spans_path = pathlib.Path(args.result).with_suffix(".spans.json")
        tracer.dump(spans_path)
        result["spans"] = str(spans_path)
    pathlib.Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
