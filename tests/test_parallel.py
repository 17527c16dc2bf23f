"""Tests for :mod:`repro.parallel`: scheduler, worker pool, and facade plumbing.

The headline property is *determinism*: ``extract_into``/``check`` at
``jobs=1,2,4`` must produce byte-identical files and equal integrity
verdicts versus the serial path, across both execution engines.  The rest
covers the scheduler's cache-affine sharding, the ``CodeCache`` LRU cap and
its thread-safety, stats aggregation, and the partial-output-file
regression fix.
"""

from __future__ import annotations

import pathlib
import threading

import pytest

import repro.api as vxa
from repro.api.archive import MemberPlan
from repro.cli import unzip_main
from repro.core.policy import SecurityAttributes, VmReusePolicy
from repro.errors import VxaError
from repro.parallel.pool import WorkerPool, resolve_executor
from repro.parallel.scheduler import Scheduler
from repro.vm.code_cache import CodeCache
from repro.vm.machine import VirtualMachine
from repro.workloads import synthetic_log_bytes
from repro.zipformat.reader import ZipReader

JOB_COUNTS = (1, 2, 4)


# -- fixtures ------------------------------------------------------------------


def _member_contents() -> dict[str, tuple[bytes, str | None, SecurityAttributes]]:
    """Name -> (data, forced codec, attributes) for the shared test archive.

    Mixed decoders (vxz + vxbwt), alternating protection domains (so reuse
    policies have decisions to make) and raw members (the VM-free path).
    """
    members: dict[str, tuple[bytes, str | None, SecurityAttributes]] = {}
    for index in range(6):
        attributes = SecurityAttributes(owner=index % 2, group=0, mode=0o644)
        members[f"text{index}.txt"] = (
            synthetic_log_bytes(900 + 70 * index, seed=index), "vxz", attributes)
    for index in range(3):
        members[f"bwt{index}.txt"] = (
            synthetic_log_bytes(700 + 50 * index, seed=20 + index), "vxbwt",
            SecurityAttributes(owner=index, group=5, mode=0o600))
    members["raw0.bin"] = (bytes(range(256)) * 3, None, SecurityAttributes())
    members["raw1.bin"] = (b"plain bytes " * 40, None, SecurityAttributes())
    return members


@pytest.fixture(scope="module")
def archive_members() -> dict:
    return _member_contents()


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory, archive_members) -> pathlib.Path:
    path = tmp_path_factory.mktemp("parallel") / "mixed.zip"
    with vxa.create(path) as builder:
        for name, (data, codec, attributes) in archive_members.items():
            if codec is None:
                builder.add(name, data, store_raw=True, attributes=attributes)
            else:
                builder.add(name, data, codec=codec, attributes=attributes)
    return path


def _options(**changes) -> vxa.ReadOptions:
    base = dict(mode=vxa.MODE_VXA, reuse=VmReusePolicy.REUSE_SAME_ATTRIBUTES,
                executor=vxa.EXECUTOR_THREAD)
    base.update(changes)
    return vxa.ReadOptions(**base)


def _plan(index, name, decoder, cost, domain=(0, 0, True)) -> MemberPlan:
    return MemberPlan(index=index, name=name, decoder_offset=decoder,
                      cost=cost, domain=domain)


# -- scheduler unit tests ------------------------------------------------------


class TestScheduler:
    def test_decoder_groups_stay_on_one_worker(self):
        # Three groups of cost 400 against a fair share of 400 (jobs=3):
        # each fits a worker, so cache affinity is total.
        items = [_plan(i, f"m{i}", decoder=i % 3, cost=100) for i in range(12)]
        shards = Scheduler(3).plan(items)
        owner: dict[int, int] = {}
        for shard in shards:
            for item in shard.items:
                assert owner.setdefault(item.decoder_offset, shard.worker) \
                    == shard.worker, "decoder image split across workers"

    def test_oversized_group_splits_across_workers(self):
        # A single-decoder archive must still fan out: the group is split
        # into fair-share chunks, one decoder translation per worker.
        items = [_plan(i, f"m{i}", decoder=7, cost=100) for i in range(8)]
        shards = Scheduler(4).plan(items)
        assert len(shards) == 4
        assert sorted(shard.cost for shard in shards) == [200, 200, 200, 200]
        assert sorted(item.name for shard in shards for item in shard.items) \
            == sorted(item.name for item in items)

    def test_lpt_balances_costs(self):
        items = [_plan(i, f"m{i}", decoder=i, cost=cost)
                 for i, cost in enumerate([800, 700, 300, 300, 200, 100])]
        shards = Scheduler(2).plan(items)
        costs = sorted(shard.cost for shard in shards)
        assert costs == [1200, 1200]

    def test_vm_free_members_fill_gaps(self):
        items = [_plan(0, "big", decoder=7, cost=1000)] + [
            _plan(i, f"raw{i}", decoder=None, cost=200) for i in range(1, 5)]
        shards = Scheduler(2).plan(items)
        light = min(shards, key=lambda shard: shard.cost)
        assert all(item.decoder_offset is None for item in light.items)
        assert light.cost == 800  # raw members pool opposite the big decoder

    def test_domain_ordering_within_worker(self):
        items = [
            _plan(0, "a", decoder=1, cost=10, domain=(0, 0, True)),
            _plan(1, "b", decoder=1, cost=10, domain=(1, 0, True)),
            _plan(2, "c", decoder=1, cost=10, domain=(0, 0, True)),
            _plan(3, "d", decoder=1, cost=10, domain=(1, 0, True)),
        ]
        [shard] = Scheduler(1).plan(items)
        assert shard.names == ["a", "b", "c", "d"]  # jobs=1 keeps archive order
        shards = Scheduler(2).plan(items)
        # The oversized group splits along domain boundaries: each chunk is
        # a single protection domain, so no worker pays an attribute flip.
        assert sorted(shard.names for shard in shards) == [["a", "c"], ["b", "d"]]

    def test_plan_is_deterministic_and_trims_empty_shards(self):
        items = [_plan(i, f"m{i}", decoder=i % 2, cost=50) for i in range(3)]
        first = Scheduler(8).plan(items)
        second = Scheduler(8).plan(items)
        assert [shard.names for shard in first] == [shard.names for shard in second]
        assert len(first) <= len(items)  # never more shards than members

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            Scheduler(0)


# -- executor resolution -------------------------------------------------------


def test_resolve_executor_auto(monkeypatch):
    assert resolve_executor("thread", 8) == "thread"
    assert resolve_executor("process", 8) == "process"
    assert resolve_executor("auto", 1) == "thread"
    monkeypatch.setattr("repro.parallel.pool.os.cpu_count", lambda: 1)
    assert resolve_executor("auto", 4, total_cost=1 << 30) == "thread"
    monkeypatch.setattr("repro.parallel.pool.os.cpu_count", lambda: 8)
    assert resolve_executor("auto", 4, total_cost=1 << 30) == "process"
    assert resolve_executor("auto", 4, total_cost=1024) == "thread"
    assert resolve_executor("auto", 4, total_cost=1 << 30,
                            payload=lambda: None) == "thread"  # unpicklable


def test_worker_pool_outcomes_follow_payload_order():
    def boom(payload):
        if payload % 2:
            raise ValueError(f"payload {payload}")
        return payload

    with WorkerPool(2, vxa.EXECUTOR_THREAD) as pool:
        outcomes = pool.run_all(boom, [0, 1, 2, 3])
        assert [outcome.payload for outcome in outcomes] == [0, 1, 2, 3]
        assert [outcome.result for outcome in outcomes] == [0, None, 2, None]
        assert [str(outcome.error) if outcome.error else None
                for outcome in outcomes] == [None, "payload 1", None, "payload 3"]
        assert not any(outcome.crashed for outcome in outcomes)
        # An ordinary error does not break the pool.
        assert [outcome.result for outcome in pool.run_all(boom, [0, 2, 4])] == [0, 2, 4]
        assert pool.respawns == 0


# -- determinism: parallel == serial ------------------------------------------


#: The interpreter is an order of magnitude slower, so its determinism runs
#: cover a representative member subset (both decoders, both domains, raw).
INTERPRETER_SUBSET = ["text0.txt", "text1.txt", "bwt0.txt", "raw0.bin"]


@pytest.mark.parametrize("jobs,engine", [
    (1, "translator"), (2, "translator"), (4, "translator"),
    (1, "interpreter"), (2, "interpreter"), (4, "interpreter"),
])
def test_extract_into_matches_serial_bytes(tmp_path, archive_path,
                                           archive_members, jobs, engine):
    options = _options(jobs=jobs, engine=engine)
    wanted = (list(archive_members) if engine == "translator"
              else INTERPRETER_SUBSET)
    out = tmp_path / f"out-{engine}-{jobs}"
    with vxa.open(archive_path, options) as archive:
        records = archive.extract_into(out, wanted)
        stats = archive.session.stats
    assert [record.name for record in records] == wanted
    for name in wanted:
        data = archive_members[name][0]
        assert (out / name).read_bytes() == data, f"{name} diverged at jobs={jobs}"
    decoded = sum(1 for name in wanted if archive_members[name][1])
    assert stats.decodes == decoded  # every VXA member decoded exactly once


@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_check_matches_serial_verdicts(archive_path, jobs):
    with vxa.open(archive_path, _options()) as archive:
        serial = archive.check()
    with vxa.open(archive_path, _options(jobs=jobs)) as archive:
        parallel = archive.check()
    assert (parallel.checked, parallel.passed) == (serial.checked, serial.passed)
    assert parallel.failures == serial.failures == []
    assert parallel.fragments_translated > 0


@pytest.mark.parametrize("jobs", (1, 2))
def test_check_unknown_name_raises_in_both_paths(archive_path, jobs):
    with vxa.open(archive_path, _options(jobs=jobs)) as archive:
        with pytest.raises(VxaError):
            archive.check(names=["text0.txt", "missing.txt"])


def test_process_executor_matches_serial(tmp_path, archive_path, archive_members):
    options = _options(jobs=2, executor=vxa.EXECUTOR_PROCESS)
    out = tmp_path / "proc"
    with vxa.open(archive_path, options) as archive:
        archive.extract_into(out)
        assert archive.session.stats.decodes == sum(
            1 for _, codec, _ in archive_members.values() if codec)
    for name, (data, _, _) in archive_members.items():
        assert (out / name).read_bytes() == data


def _corrupt_member(archive_path, tmp_path, name) -> pathlib.Path:
    """Copy the archive and flip one byte inside ``name``'s stored payload."""
    corrupt = tmp_path / "corrupt.zip"
    data = bytearray(archive_path.read_bytes())
    with open(archive_path, "rb") as file:
        reader = ZipReader(file)
        entry = reader.find(name)
        offset, size = reader._stored_extent(entry)
    data[offset + size // 2] ^= 0xFF
    corrupt.write_bytes(bytes(data))
    return corrupt


@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_check_failure_verdicts_match_serial(tmp_path, archive_path, jobs):
    corrupt = _corrupt_member(archive_path, tmp_path, "text3.txt")
    with vxa.open(corrupt, _options()) as archive:
        serial = archive.check()
    with vxa.open(corrupt, _options(jobs=jobs)) as archive:
        parallel = archive.check()
    assert not serial.ok
    assert (parallel.checked, parallel.passed) == (serial.checked, serial.passed)
    assert parallel.failures == serial.failures
    assert any(failure.startswith("text3.txt:") for failure in parallel.failures)


# -- partial-output regression (satellite fix) ---------------------------------


@pytest.mark.parametrize("jobs", (1, 2))
def test_failed_extraction_leaves_no_partial_files(tmp_path, archive_path, jobs):
    corrupt = _corrupt_member(archive_path, tmp_path, "bwt1.txt")
    out = tmp_path / f"partial-{jobs}"
    with vxa.open(corrupt, _options(jobs=jobs)) as archive:
        with pytest.raises(VxaError):
            archive.extract_into(out)
    assert not (out / "bwt1.txt").exists(), "failed member left behind"
    leftovers = list(out.rglob("*.vxa-partial"))
    assert leftovers == [], f"temporary files not cleaned up: {leftovers}"
    # Members that completed before the failure are whole, not truncated.
    for path in out.iterdir():
        name = path.name
        original = _member_contents()[name][0]
        assert path.read_bytes() == original


# -- CodeCache: LRU cap, eviction counters, thread safety ----------------------


class TestCodeCacheLimit:
    def test_store_evicts_least_recently_used(self):
        cache = CodeCache(limit=2)
        cache.store(0x10, "a")
        cache.store(0x20, "b")
        cache.touch(0x10)          # refresh: 0x20 becomes the LRU victim
        cache.store(0x30, "c")
        assert set(cache.fragments) == {0x10, 0x30}
        assert cache.evictions == 1

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            CodeCache(limit=0)

    def test_unlimited_cache_never_evicts(self):
        cache = CodeCache()
        for index in range(100):
            cache.store(index, index)
        assert len(cache) == 100 and cache.evictions == 0

    def test_evictions_surface_in_session_stats(self, archive_path):
        subset = ["text0.txt", "text2.txt", "text4.txt"]
        options = _options(code_cache_limit=16)
        with vxa.open(archive_path, options) as archive:
            report = archive.check(names=subset)
            assert report.evictions > 0
            assert report.retranslations > 0  # evicted entries re-translate
        unlimited = _options()
        with vxa.open(archive_path, unlimited) as archive:
            assert archive.check(names=subset).evictions == 0

    def test_options_validate_limit(self):
        with pytest.raises(ValueError):
            vxa.ReadOptions(code_cache_limit=0)
        with pytest.raises(ValueError):
            vxa.ReadOptions(jobs=0)
        with pytest.raises(ValueError):
            vxa.ReadOptions(executor="carrier-pigeon")


def test_code_cache_concurrent_mutation_is_safe():
    cache = CodeCache(limit=64)
    errors: list[BaseException] = []

    def hammer(seed: int) -> None:
        try:
            for index in range(400):
                key = (seed * 400 + index) % 96
                cache.store(key, index)
                cache.touch((key * 7) % 96)
                if index % 50 == 0:
                    cache.record_run(hits=1, misses=1)
                    cache.snapshot()
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(cache.fragments) <= 64
    assert cache.hits == cache.misses  # no lost counter updates


def test_concurrent_translation_shares_memo_safely(echo_decoder_image):
    """Concurrent VMs over one image: the compiled-source memo stays sane."""
    payload = bytes(range(256)) * 8
    outputs: list[bytes] = []
    errors: list[BaseException] = []

    def decode() -> None:
        try:
            vm = VirtualMachine(echo_decoder_image)
            result = vm.decode(payload)
            outputs.append(result.output)
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=decode) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert outputs == [payload] * 6


# -- facade/CLI integration ----------------------------------------------------


def test_worker_source_detects_replaced_file(tmp_path, archive_path):
    """After an atomic-rename replacement, workers must not reopen the path."""
    copy = tmp_path / "copy.zip"
    copy.write_bytes(archive_path.read_bytes())
    with vxa.open(copy, _options()) as archive:
        assert archive.worker_source() == {"path": str(copy)}
        replacement = tmp_path / "other.zip"
        replacement.write_bytes(b"PK\x05\x06" + bytes(18))  # empty zip
        replacement.replace(copy)
        source = archive.worker_source()
        assert "data" in source, "stale path handed to workers"
        assert source["data"] == archive_path.read_bytes()  # the open handle


def test_single_decoder_archive_parallelises(tmp_path, archive_path,
                                             archive_members):
    """All-one-decoder shards split across workers, not serial fallback."""
    vxz_members = [name for name, (_, codec, _) in archive_members.items()
                   if codec == "vxz"]
    out = tmp_path / "single-decoder"
    with vxa.open(archive_path, _options(jobs=3)) as archive:
        records = archive.extract_into(out, vxz_members)
        stats = archive.session.stats
    assert [record.name for record in records] == vxz_members
    for name in vxz_members:
        assert (out / name).read_bytes() == archive_members[name][0]
    # More than one worker initialised a VM for the shared decoder image.
    assert stats.vm_initialisations > 1


def test_single_shard_runs_inline(tmp_path, archive_path, archive_members,
                                  monkeypatch):
    """jobs=1 runs on the caller's archive: no pool, no spooled copy."""
    import repro.parallel.engine as engine

    def refuse(*args, **kwargs):
        raise AssertionError("the inline shard must not reach the pool")

    monkeypatch.setattr(engine, "WorkerPool", refuse)
    monkeypatch.setattr(engine.tempfile, "mkstemp", refuse)
    # A bytes-backed archive would have to be spooled to reach a worker.
    with vxa.open(archive_path.read_bytes(), _options()) as archive:
        records = archive.extract_into(tmp_path / "inline", jobs=1)
        report = archive.check(jobs=1)
        one_member = archive.check(jobs=4, names=["text0.txt"])
    assert [record.name for record in records] == list(archive_members)
    for name, (data, _, _) in archive_members.items():
        assert (tmp_path / "inline" / name).read_bytes() == data
    assert report.ok and report.checked == 9
    assert one_member.ok and one_member.checked == 1


def test_read_options_jobs_defaults_flow_through(tmp_path, archive_path,
                                                 archive_members):
    """ReadOptions.jobs alone (no per-call argument) engages the engine."""
    out = tmp_path / "via-options"
    with vxa.open(archive_path, _options(jobs=3)) as archive:
        records = archive.extract_into(out)
    assert len(records) == len(archive_members)
    assert (out / "raw0.bin").read_bytes() == archive_members["raw0.bin"][0]


def test_cli_extract_jobs_and_stats(tmp_path, archive_path, archive_members,
                                    capsys):
    out = tmp_path / "cli"
    status = unzip_main([
        "extract", str(archive_path), "-o", str(out), "--vxa",
        "--jobs", "2", "--stats", "--reuse", "reuse-same-attributes",
    ])
    assert status == 0
    printed = capsys.readouterr().out
    assert "eviction(s)" in printed
    assert "fragment(s) translated" in printed
    for name, (data, _, _) in archive_members.items():
        assert (out / name).read_bytes() == data


def test_cli_check_jobs(archive_path, capsys):
    status = unzip_main(["check", str(archive_path), "--jobs", "2",
                         "--reuse", "reuse-same-attributes"])
    assert status == 0
    assert "members passed" in capsys.readouterr().out
