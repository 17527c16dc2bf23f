"""The read engine: the one place a member list becomes a report.

:meth:`Archive.extract_into`, :meth:`Archive.check` and ``vxserve`` call in
here.  The flow is always the same four steps:

1. ask the archive for its :class:`~repro.api.archive.MemberPlan`s,
2. shard them with the cache-affine :class:`~repro.parallel.scheduler.Scheduler`,
3. run the shards.  A single shard -- ``jobs == 1``, or any plan the
   scheduler returns as one shard -- runs inline on the caller's own
   archive and session, in the caller's member order, with no pool, no
   temp-file spool and no reopen.  More shards run on a
   :class:`~repro.parallel.pool.WorkerPool` (an ephemeral one for facade
   calls; ``vxserve`` passes its own long-lived pool so worker caches stay
   hot across requests),
4. merge results deterministically: extraction records return in the
   caller's requested order, check failures in archive order, and every
   worker session's counters are summed.

Output equality between the two is structural, not incidental: the inline
shard and every worker run the same member loop (:func:`_extract_members`,
:func:`_check_members`), and every decode is verified against the member's
recorded CRC before anything is surfaced.  Shard results cross the pool as
the report objects themselves.

This module also owns worker crash recovery (:func:`_run_shards`).  A shard
whose worker died (``BrokenProcessPool`` in process mode, a simulated
:class:`~repro.errors.WorkerCrashed` in thread mode) loses its results
wholesale; under a salvage policy its members are rescheduled one at a
time against a respawned pool -- extraction is idempotent (each member
streams through a temp-and-rename), so re-running members the crashed
shard had already finished is safe.  Each reschedule counts against the
member's ``ReadOptions.retries`` budget and runs with a pristine VM and
session (``fresh`` payload flag); a member that keeps killing workers is
quarantined instead of retried forever.  Re-running culprit and
collateral members individually is also how the culprit is *identified*:
only it crashes again.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import tempfile
from dataclasses import replace

from repro.api.archive import (
    ExtractionReport,
    IntegrityReport,
    MemberFailure,
    safe_extract_path,
)
from repro.api.options import (
    MODE_VXA,
    ON_DAMAGE_SALVAGE,
    ON_ERROR_ABORT,
    ON_ERROR_QUARANTINE,
)
from repro.api.session import SessionStats
from repro.errors import VxaError, WorkerCrashed
from repro.parallel.pool import WorkerPool
from repro.parallel.scheduler import Scheduler
from repro.parallel.worker import in_worker, shard_archive


@contextlib.contextmanager
def _shippable_source(archive):
    """The archive's worker source, spooled to a temp file if data-backed.

    Every shard payload references the same source, and process-mode
    payloads are pickled independently -- shipping a big archive's raw
    bytes once per shard would copy it ``jobs`` times over the IPC pipe.
    A temp file is written once and passed by path instead; workers that
    still hold it open when it is unlinked keep a valid handle (POSIX).
    """
    source = archive.worker_source()
    if "path" in source:
        yield source
        return
    handle, spooled = tempfile.mkstemp(prefix="vxa-archive-", suffix=".zip")
    try:
        with os.fdopen(handle, "wb") as sink:
            sink.write(source["data"])
        yield {"path": spooled}
    finally:
        os.unlink(spooled)


@contextlib.contextmanager
def _pool_for(archive, shards, payloads, jobs, pool):
    """The worker pool to run on: the caller's, or an ephemeral one."""
    if pool is not None:
        yield pool
        return
    total_cost = sum(shard.cost for shard in shards)
    with WorkerPool(min(jobs, len(shards)), archive.options.executor,
                    total_cost=total_cost, payload=payloads[0]) as ephemeral:
        yield ephemeral


def parallel_extract_into(archive, directory, names, jobs, *,
                          mode=None, force_decode=None, pool=None):
    """Extract ``names`` (default: every member) under ``directory``.

    See :meth:`Archive.extract_into` for the semantics (``jobs=None`` is
    ``ReadOptions.jobs``).  Every target is validated against zip-slip
    escapes here, before any member is touched.
    """
    directory = pathlib.Path(directory)
    names = archive.names() if names is None else list(names)
    for name in names:
        safe_extract_path(directory, name)
    directory.mkdir(parents=True, exist_ok=True)
    jobs = archive.options.jobs if jobs is None else jobs
    shards = []
    if jobs > 1 and len(names) > 1:
        shards = Scheduler(jobs).plan(archive.extraction_plan(
            names, mode=mode, force_decode=force_decode))
    if len(shards) <= 1:
        return _extract_members(archive, directory, names, mode, force_decode)

    options = archive.options
    by_name = {}
    failures: list[MemberFailure] = []

    def absorb(result):
        report, stats = result
        archive.session.stats.merge(stats)
        by_name.update((record.name, record) for record in report)
        failures.extend(report.failures)

    def exhausted(name, attempts):
        failures.append(MemberFailure(
            name=name,
            error_type="WorkerCrashed",
            message=(f"member killed its worker {attempts} time(s); "
                     f"retry budget ({options.retries}) exhausted"),
            attempts=attempts,
            quarantined=options.on_error == ON_ERROR_QUARANTINE,
        ))

    base = {"options": options, "directory": str(directory), "mode": mode,
            "force_decode": force_decode}
    _run_shards(archive, jobs, pool, shards, _run_extract_shard, base,
                absorb, exhausted,
                contain_crashes=options.on_error != ON_ERROR_ABORT)
    order = {name: index for index, name in enumerate(names)}
    failures.sort(key=lambda failure: order.get(failure.name, len(order)))
    return ExtractionReport(
        (by_name[name] for name in names if name in by_name),
        failures,
    )


def parallel_check(archive, jobs, *, reuse=None, names=None, pool=None):
    """Check ``names`` (default: every member); see :meth:`Archive.check`."""
    jobs = archive.options.jobs if jobs is None else jobs
    wanted = names if names is not None else archive.names()
    # Mode VXA + force_decode mirrors the check's contract: every
    # decoder-bearing member runs its archived decoder, nothing else runs.
    plan = [item for item in archive.extraction_plan(
                wanted, mode=MODE_VXA, force_decode=True)
            if item.decoder_offset is not None]
    shards = Scheduler(jobs).plan(plan)
    if len(shards) <= 1:
        report = _check_members(archive, [item.name for item in plan], reuse)
        archive._count_open(report.stats)
        return report

    order = {item.name: item.index for item in plan}
    report = IntegrityReport()
    failures: list[tuple[int, str]] = []

    def absorb(result):
        report.checked += result.checked
        report.passed += result.passed
        failures.extend((_failure_order(failure, order), failure)
                        for failure in result.failures)
        report.stats.merge(result.stats)

    def exhausted(name, attempts):
        report.checked += 1
        failures.append((order.get(name, len(order)),
                         f"{name}: worker crashed {attempts} time(s); "
                         f"retry budget exhausted"))

    # The check's contract is record-everything-raise-nothing, so crash
    # recovery applies regardless of the on_error policy.
    _run_shards(archive, jobs, pool, shards, _run_check_shard,
                {"options": archive.options, "reuse": reuse},
                absorb, exhausted, contain_crashes=True)
    report.failures.extend(failure for _, failure in sorted(failures))
    # Workers reopen the archive; only the caller's open is counted.
    archive._count_open(report.stats)
    return report


def _run_shards(archive, jobs, pool, shards, runner, base, absorb, exhausted,
                *, contain_crashes):
    """Run ``shards`` through ``runner`` on a pool, recovering from crashes.

    ``absorb`` takes each shard result; ``exhausted(name, attempts)`` records
    a member whose retry budget ran out.  Without ``contain_crashes`` a
    worker crash raises like any other shard error.
    """
    retries = archive.options.retries
    with _shippable_source(archive) as source:
        base = dict(base, source=source)
        payloads = [dict(base, names=shard.names, worker=shard.worker)
                    for shard in shards]
        with _pool_for(archive, shards, payloads, jobs, pool) as active:
            attempts: dict[str, int] = {}
            retry: list[str] = []

            def settle(outcome):
                if outcome.crashed and contain_crashes:
                    # The whole shard's results are lost; schedule every
                    # member for an individual re-run (idempotent) and
                    # charge each one attempt -- the culprit is whichever
                    # member crashes again when run alone.
                    for name in outcome.payload["names"]:
                        attempts[name] = attempts.get(name, 0) + 1
                        retry.append(name)
                elif outcome.error is not None:
                    raise outcome.error
                else:
                    absorb(outcome.result)

            for outcome in active.run_all(runner, payloads):
                settle(outcome)
            while retry:
                pending = list(retry)
                retry.clear()
                for name in pending:
                    if attempts[name] > retries:
                        exhausted(name, attempts[name])
                        continue
                    # Retries run one member at a time: a process-pool break
                    # fails every in-flight future, so batching reruns would
                    # charge innocent members for the culprit's crash.
                    payload = dict(base, names=[name], worker=None, fresh=True)
                    [outcome] = active.run_all(runner, [payload])
                    settle(outcome)


def _extract_members(archive, directory, names, mode, force_decode,
                     worker=None) -> ExtractionReport:
    """The member loop of every extraction, inline or in a worker's shard."""
    salvaging = archive.options.on_damage == ON_DAMAGE_SALVAGE
    abort = archive.options.on_error == ON_ERROR_ABORT
    report = ExtractionReport()
    for name in names:
        entry = archive._zip.find(name)
        try:
            report.append(archive._extract_member(
                entry, directory / name, mode, force_decode))
        except VxaError as error:
            if isinstance(error, WorkerCrashed) and in_worker():
                # An injected worker kill must *crash the worker*, not be
                # contained here -- the pool's crash recovery is the layer
                # under test.  (A real process kill never reaches this
                # handler at all.)
                raise
            if abort and not salvaging:
                # Under on_damage="salvage" media damage is contained
                # per-member even for abort callers: salvaging exists
                # precisely to get the healthy members out.
                raise
            report.failures.append(
                archive._member_failure(entry, error, worker))
    if salvaging and (archive.directory_reconstructed or report.failures):
        # Members extracted out of damaged media: the load-bearing success
        # metric of the salvage path.
        archive.session.stats.members_salvaged += len(report)
    return report


def _check_members(archive, names, reuse) -> IntegrityReport:
    """The member loop of every check, inline or in a worker's shard.

    Runs with a dedicated session honouring ``reuse`` (default: the
    archive's policy), so the check never disturbs extraction's VMs.
    """
    policy = reuse if reuse is not None else archive.options.reuse
    with archive._new_session(policy) as session:
        report = IntegrityReport(stats=session.stats)
        for name in names:
            report.checked += 1
            try:
                failure = archive._check_member(session, archive._zip.find(name))
            except WorkerCrashed:
                # A simulated worker kill: in a pool worker the shard must
                # crash so recovery reschedules it; inline it is one more
                # contained member failure.
                if in_worker():
                    raise
                failure = f"{name}: worker crashed"
            if failure is None:
                report.passed += 1
            else:
                report.failures.append(failure)
    return report


def _run_extract_shard(payload: dict) -> tuple[ExtractionReport, SessionStats]:
    """Worker side: extract one shard; returns its report and stats delta."""
    with shard_archive(payload) as archive:
        before = replace(archive.session.stats)
        report = _extract_members(
            archive, pathlib.Path(payload["directory"]), payload["names"],
            payload["mode"], payload["force_decode"], payload["worker"])
        return report, archive.session.stats.since(before)


def _run_check_shard(payload: dict) -> IntegrityReport:
    """Worker side: check one shard's members in the scheduler's order."""
    with shard_archive(payload) as archive:
        return _check_members(archive, payload["names"], payload["reuse"])


def _failure_order(failure: str, order: dict) -> int:
    """Archive position of the member a failure string names.

    Failure strings are ``f"{name}: {reason}"`` and member names may
    themselves contain colons, so match against the known names (longest
    match wins) instead of parsing the string.
    """
    best_name = None
    for name in order:
        if failure.startswith(f"{name}:"):
            if best_name is None or len(name) > len(best_name):
                best_name = name
    return order[best_name] if best_name is not None else len(order)
