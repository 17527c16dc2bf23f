"""A first-class cache of translated guest code.

vx32's viability rests on caching translated fragments and reusing them every
time the decoder jumps to the same entry point (paper section 4.2).  In this
reproduction the cache used to be a bare dict buried inside
:class:`~repro.vm.machine.VirtualMachine`; promoting it to an object lets the
:class:`~repro.api.session.DecoderSession` *own* one cache per decoder image
and share it across every VM (and VM re-initialisation) in an archive-read
session: translations are derived from the decoder's code alone -- never from
member data -- so sharing them leaks nothing between files even when the
section 2.4 policy forces the sandbox itself to be re-initialised.

The cache holds two keyed stores over the same guest image:

* ``fragments`` -- compiled superblock fragments, keyed by guest entry
  address (used by the translator engine),
* ``instructions`` -- decoded :class:`~repro.isa.encoding.Instruction`
  objects, keyed by guest address (used by the reference interpreter).

A cache is only valid for VMs running the *same decoder image* with the same
memory-check policy and translator configuration; :class:`DecoderSession`
guarantees this by keying shared caches by decoder pseudo-file offset.

``evictions`` counts fragments dropped by the optional LRU entry cap over
the cache's life; each run's :class:`~repro.vm.limits.ExecutionStats`
takes its share from it.  Every other code-cache counter (hits, chained
branches, retranslations) is a per-run local of the engine, reported in
that run's ``ExecutionStats`` and summed by the session's
:class:`~repro.api.session.SessionStats`.

Thread safety: all *mutation* paths (fragment/instruction insertion, LRU
bookkeeping and its eviction count, invalidation) take the cache's lock,
so the in-process thread pool of :mod:`repro.parallel` cannot corrupt a
cache or lose an eviction even if two workers ever share one.  Plain
lookups stay lock-free -- a dict read is atomic under CPython and the
engines tolerate a racy miss (the worst case is a duplicate translation,
observable as a retranslation, never corruption).
"""

from __future__ import annotations

import threading


class CodeCache:
    """Translated-code store shared by the VM execution engines.

    Args:
        shared: a shared cache is owned by a session and survives
            :meth:`VirtualMachine.reset`; a private cache is invalidated on
            reset so an ``ALWAYS_FRESH`` decode starts from a clean slate.
        limit: optional cap on the number of cached fragments.  When the
            cap is reached the least-recently-used fragment is evicted (and
            counted in ``evictions``), so a long-lived service touching many
            decoder images cannot grow without bound.  ``None`` (the
            default) keeps the cache unbounded, which is always safe for a
            single archive: fragment count is bounded by the decoder's own
            code size and by ``ExecutionLimits.max_fragments``.
    """

    __slots__ = ("fragments", "instructions", "known", "shared", "limit",
                 "lock", "analysis", "evictions")

    def __init__(self, *, shared: bool = False, limit: int | None = None):
        if limit is not None and limit < 1:
            raise ValueError("code cache limit must be at least 1")
        self.fragments: dict = {}
        self.instructions: dict = {}
        #: Entry points ever translated -- survives invalidation, so repeated
        #: translation of the same entry is observable as a retranslation.
        self.known: set = set()
        self.shared = shared
        self.limit = limit
        self.lock = threading.RLock()
        #: The decoder image's static-analysis report
        #: (:class:`repro.analysis.verify.AnalysisReport`), attached once by
        #: the first VM to analyse the image and reused by every other VM
        #: sharing this cache -- analysis, like translation, is a pure
        #: function of the decoder's code.
        self.analysis = None
        self.evictions = 0

    def __len__(self) -> int:
        return len(self.fragments)

    # -- fragment store (translator engine) -----------------------------------

    def store(self, entry: int, fragment) -> None:
        """Insert one translated fragment, evicting LRU entries over the cap.

        Insertion order doubles as the recency order (:meth:`touch` refreshes
        it on a hit), so the eviction victim is always ``next(iter(...))``.
        Recency is only observed at dispatcher lookups -- chained
        transitions bypass the table entirely, which is acceptable because
        a chained predecessor keeps executing its successor by direct
        reference even after the successor's table entry is evicted.
        Evicted fragments remain *valid* -- translations are pure functions of
        the decoder's code -- so a chained predecessor that still references
        one keeps working; eviction only bounds the dispatch table, and a
        later jump to the evicted entry retranslates (counted in
        ``retranslations``).
        """
        with self.lock:
            if self.limit is not None:
                fragments = self.fragments
                while len(fragments) >= self.limit:
                    del fragments[next(iter(fragments))]
                    self.evictions += 1
            self.fragments[entry] = fragment

    def touch(self, entry: int) -> None:
        """Refresh ``entry``'s LRU recency (only called when a cap is set).

        This pays a lock + pop/reinsert per dispatcher hit, but only for
        capped caches, only on indirect branches (chained transitions never
        reach the dispatcher), and a dispatched fragment's execution costs
        orders of magnitude more -- measured well under 1% of decode time.
        """
        with self.lock:
            fragment = self.fragments.pop(entry, None)
            if fragment is not None:
                self.fragments[entry] = fragment

    def note_translation(self, entry: int) -> bool:
        """Record ``entry`` in the translation history under the lock.

        Returns ``True`` when the entry had been translated before (a
        retranslation), ``False`` on first translation.
        """
        with self.lock:
            if entry in self.known:
                return True
            self.known.add(entry)
            return False

    # -- analysis results ------------------------------------------------------

    def set_analysis(self, report) -> None:
        """Attach the image's static-analysis report (first writer wins)."""
        with self.lock:
            if self.analysis is None:
                self.analysis = report

    # -- instruction store (reference interpreter) ----------------------------

    def store_instruction(self, address: int, instruction) -> None:
        """Insert one decoded instruction (bounded by the guest's code size)."""
        with self.lock:
            self.instructions[address] = instruction

    def invalidate(self) -> None:
        """Drop all cached translations (evictions and history persist)."""
        with self.lock:
            self.fragments.clear()
            self.instructions.clear()
