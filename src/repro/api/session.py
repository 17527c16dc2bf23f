"""Decoder VM lifecycle management for one archive read session.

Paper section 2.4: reusing VM state across files that share a decoder
"may improve performance, especially on archives containing many small
files", at the cost of potential cross-file information leakage; the
recommended mitigation is to re-initialise whenever the security attributes
of the files being processed change.  :class:`DecoderSession` is the single
place that owns decoder VMs, applies the :class:`~repro.core.policy.VmReusePolicy`
against each file's :class:`~repro.core.policy.SecurityAttributes`, and
counts how often state was reused versus re-initialised (the ablation
benchmark reports these counters).

The session also owns one :class:`~repro.vm.code_cache.CodeCache` per
decoder image whenever the policy permits VM reuse at all.  Translated
fragments are derived from the decoder's *code*, never from member data, so
they stay valid (and leak nothing) across the sandbox re-initialisations the
policy forces on protection-domain changes: members sharing a decoder share
its translations for the life of the session.  Under ``ALWAYS_FRESH`` the
caches stay private to each VM and are invalidated on every reset -- the
session's retranslation counters then expose exactly what that safety
posture costs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Callable

from repro.core.policy import SecurityAttributes, VmReusePolicy
from repro.vm.code_cache import CodeCache
from repro.vm.limits import ExecutionLimits
from repro.vm.machine import DecodeResult, ENGINE_TRANSLATOR, VirtualMachine


@dataclass
class SessionStats:
    """Counters for one decoder session (feeds the section 2.4 ablation).

    The code-cache counters aggregate the per-run
    :class:`~repro.vm.limits.ExecutionStats` of every decode performed
    through this session; ``vxunzip --stats`` and
    :class:`~repro.api.archive.IntegrityReport` surface them.
    """

    decodes: int = 0
    vm_initialisations: int = 0     # pristine decoder image (re)loads
    vm_reuses: int = 0              # decodes that kept previous VM state
    fragments_translated: int = 0   # superblock translations performed
    cache_hits: int = 0             # blocks served from the fragment cache
    chained_branches: int = 0       # transitions over back-patched edges
    retranslations: int = 0         # translations of an already-seen entry
    evictions: int = 0              # fragments dropped by the LRU entry cap
    guards_elided: int = 0          # bounds guards dropped on static proofs
    images_verified: int = 0        # decoder images statically analysed
    members_salvaged: int = 0       # members extracted despite media damage
    directory_reconstructed: int = 0  # opens that rebuilt a lost directory
    commit_record_verified: int = 0   # opens whose commit record checked out

    def merge(self, other: "SessionStats") -> None:
        """Accumulate another session's counters (per-worker stats roll-up)."""
        for field in fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))

    def as_dict(self) -> dict:
        """Counters as a plain dict (``--stats`` and vxserve responses)."""
        return asdict(self)


class DecoderSession:
    """Owns one VM per decoder image and decides reuse vs re-initialise.

    Args:
        load_image: callable mapping a decoder pseudo-file offset to the raw
            decoder ELF bytes (typically ``Archive._load_decoder``).
        policy: the VM reuse policy enforced for every decode.
        engine: VM engine for all decoder runs.
        limits: session-wide resource ceilings (scaled per input).
        superblock_limit: translator trace-length ceiling (``None`` ->
            engine default).
        chain_fragments: enable direct-branch back-patching in the engine.
        code_cache_limit: optional LRU entry cap applied to every
            session-shared :class:`~repro.vm.code_cache.CodeCache`, so a
            long-running service cannot grow translation state without
            bound (``None`` -> unbounded; safe for single archives).
        verify_images: static-analysis admission policy applied to every
            decoder image before it runs (``"off"``/``"warn"``/``"reject"``).
        analysis_elision: let the translator drop statically proved bounds
            guards (ablation flag).
    """

    def __init__(
        self,
        load_image: Callable[[int], bytes],
        *,
        policy: VmReusePolicy = VmReusePolicy.ALWAYS_FRESH,
        engine: str = ENGINE_TRANSLATOR,
        limits: ExecutionLimits | None = None,
        superblock_limit: int | None = None,
        chain_fragments: bool = True,
        code_cache_limit: int | None = None,
        verify_images: str = "off",
        analysis_elision: bool = True,
    ):
        self._load_image = load_image
        self.policy = policy
        self._engine = engine
        self._limits = limits or ExecutionLimits()
        self._superblock_limit = superblock_limit
        self._chain_fragments = chain_fragments
        self._code_cache_limit = code_cache_limit
        self._verify_images = verify_images
        self._analysis_elision = analysis_elision
        self._vms: dict[int, VirtualMachine] = {}
        self._code_caches: dict[int, CodeCache] = {}
        self._last_attributes: dict[int, SecurityAttributes] = {}
        self.stats = SessionStats()

    # -- policy ----------------------------------------------------------------

    def _needs_fresh(self, decoder_offset: int,
                     attributes: SecurityAttributes) -> bool:
        """Must the VM be re-initialised before decoding this file?"""
        if self.policy is VmReusePolicy.ALWAYS_FRESH:
            return True
        if self.policy is VmReusePolicy.ALWAYS_REUSE:
            return False
        previous = self._last_attributes.get(decoder_offset)
        return previous is not None and not previous.same_domain(attributes)

    def _code_cache_for(self, decoder_offset: int) -> CodeCache | None:
        """The session-shared code cache for one decoder, when permitted.

        Translation sharing rides on the reuse policy's consent: when the
        policy never reuses VM state (``ALWAYS_FRESH``) each VM keeps a
        private cache that resets with it, preserving pristine-sandbox
        semantics bit for bit.  Any reuse-permitting policy shares one
        cache per decoder image across resets and members.
        """
        if self.policy is VmReusePolicy.ALWAYS_FRESH:
            return None
        cache = self._code_caches.get(decoder_offset)
        if cache is None:
            cache = CodeCache(shared=True, limit=self._code_cache_limit)
            self._code_caches[decoder_offset] = cache
        return cache

    # -- decoding --------------------------------------------------------------

    def decode(
        self,
        decoder_offset: int,
        encoded: bytes,
        *,
        attributes: SecurityAttributes | None = None,
        limits: ExecutionLimits | None = None,
        fault_syscall: int | None = None,
    ) -> DecodeResult:
        """Run the archived decoder at ``decoder_offset`` over ``encoded``.

        ``attributes`` are the security attributes of the file being decoded;
        under ``REUSE_SAME_ATTRIBUTES`` a change of protection domain forces
        re-initialisation.  ``fault_syscall`` is the fault-injection hook:
        fail the run at the guest's Nth virtual system call (``None`` in
        production).
        """
        attributes = attributes or SecurityAttributes()
        vm = self._vms.get(decoder_offset)
        if vm is None:
            vm = VirtualMachine(
                self._load_image(decoder_offset),
                engine=self._engine,
                limits=self._limits,
                code_cache=self._code_cache_for(decoder_offset),
                superblock_limit=self._superblock_limit,
                chain_fragments=self._chain_fragments,
                verify_images=self._verify_images,
                analysis_elision=self._analysis_elision,
            )
            self._vms[decoder_offset] = vm
            if vm.analysis_report is not None:
                self.stats.images_verified += 1
            # Constructing the VM loads a pristine image, so the first decode
            # never needs another reset regardless of policy.
            fresh = False
            self.stats.vm_initialisations += 1
        else:
            fresh = self._needs_fresh(decoder_offset, attributes)
            if fresh:
                self.stats.vm_initialisations += 1
            else:
                self.stats.vm_reuses += 1
        self._last_attributes[decoder_offset] = attributes
        self.stats.decodes += 1
        run_limits = limits or self._limits.scaled_for_input(len(encoded))
        result = vm.decode(encoded, limits=run_limits, fresh=fresh,
                           fault_syscall=fault_syscall)
        run = result.stats
        self.stats.fragments_translated += run.fragments_translated
        self.stats.cache_hits += run.fragment_cache_hits
        self.stats.chained_branches += run.chained_branches
        self.stats.retranslations += run.retranslations
        self.stats.evictions += run.evictions
        self.stats.guards_elided += run.guards_elided
        return result

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Drop all VM state (a pristine image is loaded on next use)."""
        self._vms.clear()
        self._code_caches.clear()
        self._last_attributes.clear()

    def close(self) -> None:
        self.reset()

    def __enter__(self) -> "DecoderSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
