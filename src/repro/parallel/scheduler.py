"""Cost-aware, cache-affine sharding of archive members across workers.

Two facts drive the design:

* **Decoder affinity.**  Translating a decoder's superblocks is the dominant
  fixed cost of the VM path (PR 2), and translations live in a per-decoder
  :class:`~repro.vm.code_cache.CodeCache` owned by a worker's session.  If
  members of one decoder image were sprayed round-robin across workers,
  every worker would pay the full translation of every decoder.  Members of
  one decoder image therefore stay together -- up to the point where a
  group alone exceeds a worker's fair share of the total cost.  Such a
  group is split into contiguous chunks (so a single-decoder archive, the
  most common shape, still fans out across all workers): each extra worker
  then pays the decoder's translation once, a small fixed cost against the
  recovered parallelism.

* **Cost balance.**  Decode time scales with input size, so the stored
  (compressed) size is the per-member cost estimate, and placement units
  are packed with the classic LPT (longest-processing-time-first) greedy
  rule: heaviest unit onto the least-loaded worker.  Members that never
  touch a VM (plain ZIP data, stored redec bytes, native codecs) have no
  affinity and are sprinkled individually to even out the remainder.

Within one worker the members of each decoder group are ordered by
protection domain first (then archive order), so a ``REUSE_SAME_ATTRIBUTES``
session re-initialises the sandbox once per domain instead of once per
attribute flip.  This is pure *scheduling*: the policy itself is still
applied decode-by-decode inside the worker's session, and member outputs are
position-independent (each decode is checksummed against the member's
recorded CRC), so results are byte-identical to a single-shard run.

Everything here is deterministic: ties break on archive order, never on
hashing or timing, so the same archive and ``jobs`` always produce the same
shards (and the determinism tests can rely on it).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Shard:
    """One worker's slice of the archive: ordered members plus bookkeeping."""

    worker: int
    items: list = field(default_factory=list)
    cost: int = 0

    @property
    def names(self) -> list[str]:
        return [item.name for item in self.items]

    def decoder_images(self) -> set:
        return {item.decoder_offset for item in self.items
                if item.decoder_offset is not None}


class Scheduler:
    """Plans how ``jobs`` workers split a list of member extractions.

    The input items are :class:`~repro.api.archive.MemberPlan`-shaped
    objects (``index``, ``name``, ``decoder_offset``, ``cost``, ``domain``);
    the scheduler itself is independent of the archive facade so it can be
    unit-tested on synthetic plans.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs

    def plan(self, items) -> list[Shard]:
        """Shard ``items`` across up to ``jobs`` workers.

        Returns only non-empty shards, ordered by worker id.  With one job
        (or one item) a single shard preserving archive order is returned,
        which the engine runs inline on the caller's archive.
        """
        items = list(items)
        if not items:
            return []
        jobs = min(self.jobs, len(items))
        total = sum(item.cost for item in items)
        if jobs == 1:
            return [Shard(worker=0, items=items, cost=total)]

        # Atomic placement units: one per decoder image (cache affinity),
        # split into chunks when a group alone tops a worker's fair share;
        # VM-free members are individually placeable filler.
        grouped: dict = {}
        filler = []
        for item in items:
            if item.decoder_offset is None:
                filler.append(item)
            else:
                grouped.setdefault(item.decoder_offset, []).append(item)
        share = max(1, -(-total // jobs))       # ceil(total / jobs)
        units = []
        for group in grouped.values():
            units.extend(_split_group(group, share, jobs))
        units.extend([item] for item in filler)
        # LPT: heaviest unit first onto the least-loaded worker; every tie
        # breaks on earliest archive position for determinism.
        units.sort(key=lambda unit: (-sum(item.cost for item in unit),
                                     unit[0].index))
        shards = [Shard(worker=index) for index in range(jobs)]
        for unit in units:
            target = min(shards, key=lambda shard: (shard.cost, shard.worker))
            target.items.extend(unit)
            target.cost += sum(item.cost for item in unit)
        for shard in shards:
            shard.items.sort(key=_worker_order)
        return [shard for shard in shards if shard.items]


def _split_group(group: list, share: int, jobs: int) -> list[list]:
    """Split one decoder group into at most ``jobs`` cost-balanced chunks.

    A group at or below the fair share stays whole (full cache affinity).
    Bigger groups are sliced contiguously in domain order, so each chunk
    keeps its protection domains clustered for the reuse policy.
    """
    group_cost = sum(item.cost for item in group)
    pieces = min(len(group), jobs, -(-group_cost // share))
    if pieces <= 1:
        return [group]
    ordered = sorted(group, key=lambda item: (item.domain, item.index))
    target = group_cost / pieces
    chunks: list[list] = []
    chunk: list = []
    accumulated = 0
    for item in ordered:
        chunk.append(item)
        accumulated += item.cost
        if accumulated >= target * (len(chunks) + 1) and len(chunks) < pieces - 1:
            chunks.append(chunk)
            chunk = []
    if chunk:
        chunks.append(chunk)
    return chunks


def _worker_order(item):
    """Execution order inside one worker.

    Decoder groups stay contiguous (ordered by the decoder offset -- any
    stable key works) and are processed domain-by-domain so attribute-gated
    VM reuse survives as long as the policy allows; archive order breaks
    all remaining ties.
    """
    if item.decoder_offset is None:
        # VM-free members run last, in archive order: they are cheap IO and
        # interleave with nothing.
        return (1, 0, (), item.index)
    return (0, item.decoder_offset, item.domain, item.index)
