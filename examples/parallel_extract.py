#!/usr/bin/env python3
"""Parallel extraction and the ``vxserve`` batch service, end to end.

Because every vxZIP member carries (a reference to) its own sandboxed
decoder, members are independent decode jobs -- embarrassingly parallel
work.  This example shows the three ways to exploit that:

1. ``Archive.extract_into(..., jobs=N)`` -- the facade shards members by
   decoder image across a worker pool (`repro.parallel.Scheduler`), so each
   worker translates a decoder once and reuses the warm code cache for all
   of that decoder's members; output is byte-identical to a ``jobs=1`` run;
2. ``Archive.check(jobs=N)`` -- the always-run-the-archived-decoder
   integrity check, sharded the same way, with identical verdicts;
3. ``BatchService`` -- the engine behind the ``vxserve`` console script: a
   long-running JSON-lines service multiplexing extract/check requests for
   many archives onto one shared pool, keeping per-decoder-image caches hot
   across requests.

Run with:  python examples/parallel_extract.py
"""

import json
import pathlib
import tempfile

import repro.api as vxa
from repro.core.policy import SecurityAttributes, VmReusePolicy
from repro.parallel.scheduler import Scheduler
from repro.parallel.service import BatchService
from repro.workloads import synthetic_log_bytes, synthetic_source_tree_bytes


def main() -> None:
    work = pathlib.Path(tempfile.mkdtemp(prefix="vxa-parallel-"))
    archive_path = work / "batch.zip"

    # A mixed archive: two decoder images, two protection domains, one raw
    # member -- enough structure for the scheduler to have real decisions.
    with vxa.create(archive_path) as builder:
        for index in range(6):
            builder.add(
                f"logs/app{index}.log",
                synthetic_log_bytes(8_000, seed=index),
                codec="vxz",
                attributes=SecurityAttributes(owner=index % 2, mode=0o644),
            )
        for index in range(3):
            builder.add(
                f"src/tree{index}.txt",
                synthetic_source_tree_bytes(6_000, seed=30 + index),
                codec="vxbwt",
            )
        builder.add("README", b"raw member, no decoder involved\n",
                    store_raw=True)

    options = vxa.ReadOptions(
        mode=vxa.MODE_VXA,                            # always run the VM path
        reuse=VmReusePolicy.REUSE_SAME_ATTRIBUTES,    # section 2.4 safe reuse
        jobs=4,                                       # default for this session
        executor=vxa.EXECUTOR_THREAD,                 # in-process: demo-sized
    )

    # ------------------------------------------------ 1. sharded extraction
    with vxa.open(archive_path, options) as archive:
        plan = archive.extraction_plan()
        shards = Scheduler(options.jobs).plan(plan)
        print(f"{len(plan)} members -> {len(shards)} shard(s):")
        for shard in shards:
            decoders = len(shard.decoder_images())
            print(f"  worker {shard.worker}: {len(shard.items)} member(s), "
                  f"{decoders} decoder image(s), ~{shard.cost} stored bytes")

        records = archive.extract_into(work / "out")   # uses options.jobs
        stats = archive.session.stats
        print(f"extracted {len(records)} members with jobs={options.jobs}")
        print(f"merged worker stats: {stats.decodes} decodes, "
              f"{stats.fragments_translated} fragments translated, "
              f"{stats.vm_reuses} VM reuses, {stats.evictions} evictions")

    # ------------------------------------------------ 2. sharded checking
    with vxa.open(archive_path, options) as archive:
        report = archive.check(jobs=4)
        print(f"integrity: {report.passed}/{report.checked} passed "
              f"(parallel verdicts == serial verdicts, by construction)")

    # ------------------------------------------------ 3. the batch service
    # ``vxserve`` speaks JSON lines over stdio or a unix socket; the same
    # dispatcher is usable in-process, one request dict per call.
    service = BatchService(jobs=2, executor=vxa.EXECUTOR_THREAD)
    try:
        for request in [
            {"id": 1, "op": "ping"},
            {"id": 2, "op": "extract", "archive": str(archive_path),
             "dest": str(work / "served"), "mode": "vxa", "jobs": 2},
            {"id": 3, "op": "check", "archive": str(archive_path)},
            {"id": 4, "op": "stats"},
        ]:
            response = service.handle(request)
            summary = response["result"] if response["ok"] else response["error"]
            print(f"vxserve {request['op']:7s} -> "
                  f"{json.dumps(summary, default=str)[:100]}")
    finally:
        service.close()
    print(f"(outputs under {work})")


if __name__ == "__main__":
    main()
