"""The streaming, session-oriented archive reading facade.

:class:`Archive` operates on a seekable file object (the central directory
is parsed from the archive tail, member payloads are fetched by offset in
bounded chunks), so a multi-gigabyte archive is never held in memory.  All
behavioural knobs live in one frozen :class:`~repro.api.options.ReadOptions`
and decoder VM lifecycle is owned by a single
:class:`~repro.api.session.DecoderSession` per archive.  Extracting or
checking a list of members is the :mod:`repro.parallel.engine`'s job; this
module owns what happens to one member.
"""

from __future__ import annotations

import io
import os
import pathlib
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.codecs.registry import default_registry
from repro.core.extension import VxaExtension, parse_extension, parse_unix_extra
from repro.core.fsutil import fsync_directory, fsync_file
from repro.core.policy import SecurityAttributes, VmReusePolicy
from repro.errors import (
    ArchiveError,
    DecoderMissingError,
    GuestFault,
    IntegrityError,
    PathTraversalError,
)
from repro.vm.limits import ExecutionLimits
from repro.zipformat.crc import crc32
from repro.zipformat.reader import ZipReader
from repro.zipformat.structures import METHOD_STORE, METHOD_VXA, ZipEntry

from repro.api.options import (
    MODE_AUTO,
    MODE_NATIVE,
    MODES,
    ON_DAMAGE_SALVAGE,
    ON_ERROR_QUARANTINE,
    ReadOptions,
)
from repro.api.session import DecoderSession


#: How one member is extracted (:meth:`Archive._route`).
ROUTE_PLAIN = "plain"      # plain ZIP member: no VXA decoder involved
ROUTE_STORED = "stored"    # pre-compressed member left in its stored form
ROUTE_NATIVE = "native"    # decoded by the reader's own codec
ROUTE_VXA = "vxa"          # decoded by the archived decoder in the VM


@dataclass
class ExtractedFile:
    """Result of extracting one member."""

    name: str
    data: bytes
    used_vxa_decoder: bool
    codec_name: str | None
    was_precompressed: bool
    decoded: bool               # False when pre-compressed data was left as-is


@dataclass
class IntegrityReport:
    """Outcome of an integrity check (:meth:`Archive.check`).

    ``vm_initialisations`` / ``vm_reuses`` count how often the decoder
    session loaded a pristine decoder image versus kept VM state across
    files (paper section 2.4); they feed the VM-reuse ablation benchmark.
    The code-cache counters summarise the translation engine's work over
    the whole check: fragments translated, fragment-cache hits, chained
    (back-patched) branch transitions and retranslations of already-seen
    entry points.
    """

    #: Session counters carried verbatim (names match ``SessionStats``);
    #: every producer/merger of reports goes through :meth:`counters` /
    #: :meth:`add_counters` so a counter added here propagates everywhere.
    COUNTER_FIELDS = ("vm_initialisations", "vm_reuses",
                      "fragments_translated", "cache_hits",
                      "chained_branches", "retranslations", "evictions",
                      "guards_elided", "images_verified",
                      "members_salvaged", "directory_reconstructed",
                      "commit_record_verified")

    checked: int = 0
    passed: int = 0
    failures: list[str] = field(default_factory=list)
    vm_initialisations: int = 0
    vm_reuses: int = 0
    fragments_translated: int = 0
    cache_hits: int = 0
    chained_branches: int = 0
    retranslations: int = 0
    evictions: int = 0
    guards_elided: int = 0
    images_verified: int = 0
    members_salvaged: int = 0
    directory_reconstructed: int = 0
    commit_record_verified: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and self.checked == self.passed

    def counters(self) -> dict:
        """The session counters as a plain dict."""
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    def add_counters(self, source) -> None:
        """Accumulate the counters of a report or :class:`SessionStats`."""
        for name in self.COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(source, name))


@dataclass(frozen=True)
class MemberInfo:
    """Listing metadata for one archive member."""

    name: str
    stored_size: int
    original_size: int
    method: int
    codec_name: str | None
    precompressed: bool
    lossy: bool
    has_decoder: bool
    attributes: SecurityAttributes


@dataclass
class ExtractionRecord:
    """What :meth:`Archive.extract_into` did with one member."""

    name: str
    path: pathlib.Path
    size: int
    used_vxa_decoder: bool
    decoded: bool
    codec_name: str | None


@dataclass
class MemberFailure:
    """One contained member failure, as the salvage policies record it.

    Attributes:
        name: the failing member.
        error_type: exception class name (``"ResourceLimitExceeded"``, ...).
        message: the exception message.
        offset: the member's archived-decoder pseudo-file offset, when it
            has one (identifies *which* decoder image misbehaved).
        instructions: guest fuel consumed when the failure fired, when the
            engine recorded it on the exception.
        worker: shard worker id that hit the failure (``None`` = inline).
        attempts: processing attempts made, counting crash retries.
        quarantined: the member was put beyond use by the ``quarantine``
            policy (every recorded failure under it, including members that
            repeatedly killed their worker).
    """

    name: str
    error_type: str
    message: str
    offset: int | None = None
    instructions: int | None = None
    worker: int | None = None
    attempts: int = 1
    quarantined: bool = False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "error_type": self.error_type,
            "message": self.message,
            "offset": self.offset,
            "instructions": self.instructions,
            "worker": self.worker,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
        }


class ExtractionReport(list):
    """Result of :meth:`Archive.extract_into`: records plus failures.

    A ``list`` subclass holding the successful
    :class:`ExtractionRecord` entries (in the caller's requested order),
    so every caller that treated the return value as a plain record list
    keeps working; the containment layer's extra facts ride on
    attributes:

    * ``failures`` -- :class:`MemberFailure` per contained member failure
      (always empty under ``on_error="abort"``, which raises instead);
    * ``quarantined`` -- names the ``quarantine`` policy put beyond use.
    """

    def __init__(self, records=(), failures=None):
        super().__init__(records)
        self.failures: list[MemberFailure] = list(failures or ())

    @property
    def records(self) -> list[ExtractionRecord]:
        return list(self)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def quarantined(self) -> list[str]:
        return [failure.name for failure in self.failures
                if failure.quarantined]


@dataclass(frozen=True)
class MemberPlan:
    """Scheduling facts about one member extraction.

    ``decoder_offset`` is the archived-decoder pseudo-file offset *when the
    extraction will actually run the archived decoder* under the effective
    mode -- the :mod:`repro.parallel` scheduler groups members by it so each
    worker's :class:`DecoderSession` keeps one warm code cache per decoder
    image.  ``None`` means the member takes a VM-free path (plain ZIP data,
    stored redec bytes, or a native codec).  ``cost`` is the stored size --
    the paper's members are decode-bound, so compressed bytes are a serviceable
    work estimate.  ``domain`` is the canonical protection-domain key used by
    ``REUSE_SAME_ATTRIBUTES`` so a worker can order its members to minimise
    sandbox re-initialisations without ever violating the policy.
    """

    index: int
    name: str
    decoder_offset: int | None
    cost: int
    domain: tuple


class _MemberStream(io.RawIOBase):
    """Read-only raw stream over a member's (decoded) contents."""

    def __init__(self, chunks: Iterator[bytes], name: str):
        self._chunks = chunks
        self._buffer = b""
        self._name = name

    def readable(self) -> bool:
        return True

    def readinto(self, target) -> int:
        while not self._buffer:
            chunk = next(self._chunks, None)
            if chunk is None:
                return 0
            self._buffer = chunk
        count = min(len(target), len(self._buffer))
        target[:count] = self._buffer[:count]
        self._buffer = self._buffer[count:]
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<vxa member stream {self._name!r}>"


def safe_extract_path(directory: pathlib.Path, member_name: str) -> pathlib.Path:
    """Resolve ``member_name`` inside ``directory``, refusing zip-slip escapes.

    Raises :class:`~repro.errors.PathTraversalError` for absolute member
    names and for relative names (``../evil``) whose resolution lands
    outside ``directory``.
    """
    if not member_name:
        raise PathTraversalError("archive member has an empty name")
    if member_name.startswith(("/", "\\")) or pathlib.PurePath(member_name).is_absolute():
        raise PathTraversalError(
            f"refusing to extract member with absolute path {member_name!r}"
        )
    base = directory.resolve()
    target = (directory / member_name).resolve()
    if not target.is_relative_to(base):
        raise PathTraversalError(
            f"member name {member_name!r} escapes the extraction directory"
        )
    return directory / member_name


class Archive:
    """A readable vxZIP archive over a seekable file object.

    Use :func:`repro.api.open` rather than constructing directly.  The
    archive is also a context manager; closing it releases the decoder
    session's VMs and (when the facade opened the path itself) the file.
    """

    def __init__(self, file, options: ReadOptions | None = None, *,
                 owns_file: bool = False, source_path=None):
        if isinstance(file, (bytes, bytearray, memoryview)):
            file = io.BytesIO(bytes(file))
        self.options = options or ReadOptions()
        self._file = file
        self._owns_file = owns_file
        #: Filesystem path this archive was opened from, when known.  Worker
        #: processes re-open the archive independently by path; without one
        #: the parallel engine ships the raw bytes instead.
        self._source_path = (pathlib.Path(source_path)
                             if source_path is not None else None)
        # Under on_damage="salvage" a torn or corrupt container is opened
        # anyway: the member directory is reconstructed from local headers
        # and damaged members surface per-member instead of at open.
        self._zip = ZipReader(
            file, salvage=self.options.on_damage == ON_DAMAGE_SALVAGE)
        self._registry = self.options.registry or default_registry()
        self._limits = self.options.limits or ExecutionLimits()
        if self.options.member_deadline is not None:
            wall = self._limits.max_wall_seconds
            wall = (self.options.member_deadline if wall is None
                    else min(wall, self.options.member_deadline))
            self._limits = replace(self._limits, max_wall_seconds=wall)
        self._decoder_cache: dict[int, bytes] = {}
        self._session = self._new_session(self.options.reuse)
        if self._zip.directory_reconstructed:
            self._session.stats.directory_reconstructed += 1
        if self._zip.commit_verified:
            self._session.stats.commit_record_verified += 1
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def session(self) -> DecoderSession:
        """The decoder session owning VM lifecycle for this archive."""
        return self._session

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._session.close()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "Archive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- listing --------------------------------------------------------------

    def names(self) -> list[str]:
        return self._zip.names()

    def __len__(self) -> int:
        return len(self._zip)

    def __contains__(self, name: str) -> bool:
        return name in self._zip

    def entries(self) -> list[ZipEntry]:
        return list(self._zip.entries)

    def extension_for(self, name: str) -> VxaExtension | None:
        return parse_extension(self._zip.find(name).extra)

    def decoder_image_for(self, name: str) -> bytes | None:
        """The raw decoder ELF attached to a member, if any."""
        extension = self.extension_for(name)
        if extension is None:
            return None
        return self._load_decoder(extension.decoder_offset)

    def info(self, name: str) -> MemberInfo:
        entry = self._zip.find(name)
        extension = parse_extension(entry.extra)
        return MemberInfo(
            name=entry.name,
            stored_size=entry.compressed_size,
            original_size=(extension.original_size if extension
                           else entry.uncompressed_size),
            method=entry.method,
            codec_name=extension.codec_name if extension else None,
            precompressed=bool(extension and extension.precompressed),
            lossy=bool(extension and extension.lossy),
            has_decoder=extension is not None,
            attributes=self._attributes_for(entry),
        )

    # -- extraction -----------------------------------------------------------

    def extract(self, name: str, *, mode: str | None = None,
                force_decode: bool | None = None) -> ExtractedFile:
        """Extract one member fully into memory.

        Pre-compressed members (the redec path) are returned in their stored,
        still-compressed form unless ``force_decode`` is set, mirroring
        vxUnZIP's default of leaving popular formats compressed on extraction.
        """
        entry = self._zip.find(name)
        chunks, meta = self._member_pipeline(entry, mode, force_decode)
        data = b"".join(chunks)
        used_vxa, decoded, codec_name, precompressed = meta
        return ExtractedFile(name, data, used_vxa, codec_name, precompressed,
                             decoded=decoded)

    def extract_all(self, *, mode: str | None = None,
                    force_decode: bool | None = None) -> dict[str, ExtractedFile]:
        """Extract every listed member; returns ``{name: ExtractedFile}``."""
        return {
            name: self.extract(name, mode=mode, force_decode=force_decode)
            for name in self.names()
        }

    def open_member(self, name: str, *, mode: str | None = None,
                    force_decode: bool | None = None) -> io.RawIOBase:
        """A readable raw stream over a member's extracted contents.

        Plain and pre-compressed members stream straight off the archive
        file in bounded chunks; members needing an archived decoder are
        decoded through the session first, then served chunk-wise.
        """
        entry = self._zip.find(name)
        chunks, _ = self._member_pipeline(entry, mode, force_decode)
        return _MemberStream(chunks, name)

    def extract_to(self, name: str, writable, *, mode: str | None = None,
                   force_decode: bool | None = None) -> int:
        """Stream one member's extracted contents into ``writable``.

        Returns the number of bytes written.
        """
        entry = self._zip.find(name)
        chunks, _ = self._member_pipeline(entry, mode, force_decode)
        written = 0
        for chunk in chunks:
            writable.write(chunk)
            written += len(chunk)
        return written

    def extract_into(self, directory, names: list[str] | None = None, *,
                     mode: str | None = None,
                     force_decode: bool | None = None,
                     jobs: int | None = None) -> ExtractionReport:
        """Extract members under ``directory``, refusing zip-slip escapes.

        Every member name is validated with :func:`safe_extract_path` before
        anything touches the filesystem; a single escaping name aborts the
        whole extraction with :class:`~repro.errors.PathTraversalError`.

        The :mod:`repro.parallel.engine` does the work.  With ``jobs``
        (default: ``ReadOptions.jobs``) of 1, or when the scheduler plans a
        single shard, it runs the members on this archive in the order
        given.  Otherwise it shards them by decoder image across a worker
        pool; output bytes are identical (every worker runs the same member
        loop over its shard) and the workers' session counters are merged
        into this archive's :attr:`session` stats.

        Returns an :class:`ExtractionReport` -- a list of the successful
        :class:`ExtractionRecord` entries.  Under ``on_error="abort"``
        (default) the first member failure raises.  Under
        ``"skip"``/``"quarantine"`` a failing member is recorded in
        ``report.failures`` and every other member still extracts,
        byte-identical to a clean run (each member streams through its own
        temp-and-rename, so a contained failure leaves no partial file).
        """
        from repro.parallel.engine import parallel_extract_into

        self._read_mode(mode, force_decode)
        return parallel_extract_into(self, directory, names, jobs, mode=mode,
                                     force_decode=force_decode)

    def _extract_member(self, entry: ZipEntry, target: pathlib.Path,
                        mode: str | None,
                        force_decode: bool | None) -> ExtractionRecord:
        """Extract one member to ``target`` (already zip-slip validated)."""
        chunks, meta = self._member_pipeline(entry, mode, force_decode)
        used_vxa, decoded, codec_name, _ = meta
        durable = self.options.durable_output
        target.parent.mkdir(parents=True, exist_ok=True)
        # Stream into a temporary sibling and rename on success, so an error
        # mid-member (CRC mismatch, truncation, decoder fault) never leaves a
        # partial file under the final name.  ``durable_output`` additionally
        # fsyncs the data before the rename (and the directory after), so a
        # machine crash right after extraction cannot leave a
        # renamed-but-empty file.
        partial = target.with_name(target.name + ".vxa-partial")
        written = 0
        try:
            with open(partial, "wb") as sink:
                for chunk in chunks:
                    sink.write(chunk)
                    written += len(chunk)
                if durable:
                    fsync_file(sink)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        partial.replace(target)
        if durable:
            fsync_directory(target.parent)
        return ExtractionRecord(
            name=entry.name,
            path=target,
            size=written,
            used_vxa_decoder=used_vxa,
            decoded=decoded,
            codec_name=codec_name,
        )

    def _member_failure(self, entry: ZipEntry, error: Exception,
                        worker: int | None) -> MemberFailure:
        """Record one contained member failure (salvage bookkeeping)."""
        try:
            extension = parse_extension(entry.extra)
        except ArchiveError:
            # Damaged extras must not crash failure bookkeeping itself.
            extension = None
        return MemberFailure(
            name=entry.name,
            error_type=type(error).__name__,
            message=str(error),
            offset=extension.decoder_offset if extension is not None else None,
            instructions=getattr(error, "instructions", None),
            worker=worker,
            quarantined=self.options.on_error == ON_ERROR_QUARANTINE,
        )

    # -- integrity ------------------------------------------------------------

    def media(self):
        """Media-level damage assessment of this archive's bytes.

        Returns a :class:`~repro.core.integrity.MediaAssessment`: per-member
        ``intact``/``suspect``/``lost`` verdicts from the digest table / CRCs,
        without running any decoders.  ``vxunzip check --deep`` is this.
        """
        from repro.core.integrity import assess_media

        return assess_media(self._file)

    @property
    def directory_reconstructed(self) -> bool:
        """True when this open had to rebuild the directory from local headers."""
        return self._zip.directory_reconstructed

    @property
    def commit_verified(self) -> bool:
        """True when the archive's commit record matched its central directory."""
        return self._zip.commit_verified

    def check(self, *, reuse: VmReusePolicy | None = None,
              jobs: int | None = None,
              names: list[str] | None = None) -> IntegrityReport:
        """Verify every member that carries a VXA decoder.

        Integrity checks "always run the archived VXA decoder" (paper section
        2.3) -- native decoders are never used here, so a bug that only
        affects the archived decoder cannot hide behind the fast path.  The
        check runs through a dedicated :class:`DecoderSession` honouring
        ``reuse`` (default: this archive's configured policy), so per-file
        :class:`SecurityAttributes` gate VM reuse exactly as section 2.4
        prescribes; the report carries the session's reuse/re-init counters.

        As with :meth:`extract_into`, the :mod:`repro.parallel.engine` runs
        one shard inline and shards the decoder-bearing members by decoder
        image across a worker pool when ``jobs`` (default:
        ``ReadOptions.jobs``) and the plan allow; verdicts
        (checked/passed/failures) do not depend on it and the report's
        counters aggregate every session.  ``names`` restricts the check to
        those members, in that order (a name missing from the archive
        raises, exactly as extraction would).
        """
        from repro.parallel.engine import parallel_check

        return parallel_check(self, jobs, reuse=reuse, names=names)

    def _check_member(self, session: DecoderSession,
                      entry: ZipEntry) -> str | None:
        """Run the archived decoder over one member, whatever the mode.

        Returns the failure message, or ``None`` when the output matches
        the member's recorded size and CRC.
        """
        extension = parse_extension(entry.extra)
        try:
            plan = self.options.fault_plan
            if plan is not None:
                plan.io_delay(entry.name)
                plan.kill_worker(entry.name)
            encoded = self._encoded_bytes(entry, extension)
            data = self._run_archived_decoder(session, entry, extension, encoded)
        except (GuestFault, ArchiveError) as error:
            return f"{entry.name}: {error}"
        if (len(data) != extension.original_size
                or crc32(data) != extension.original_crc32):
            return f"{entry.name}: decoded output does not match its checksum"
        return None

    # -- parallel scheduling support ------------------------------------------

    def extraction_plan(self, names: list[str] | None = None, *,
                        mode: str | None = None,
                        force_decode: bool | None = None) -> list[MemberPlan]:
        """Scheduling facts for each requested member under the effective mode.

        Routes each member exactly as extraction will (:meth:`_route`)
        without reading any member data, so the :mod:`repro.parallel`
        scheduler can shard members by decoder image before any work starts.
        """
        wanted = names if names is not None else self.names()
        plan: list[MemberPlan] = []
        for index, name in enumerate(wanted):
            entry = self._zip.find(name)
            route, extension = self._route(entry, mode, force_decode)
            attributes = self._attributes_for(entry)
            plan.append(MemberPlan(
                index=index,
                name=name,
                decoder_offset=(extension.decoder_offset
                                if route == ROUTE_VXA else None),
                cost=max(entry.compressed_size, 1),
                domain=(attributes.owner, attributes.group,
                        attributes.world_readable),
            ))
        return plan

    def worker_source(self) -> dict:
        """How a worker process/thread should reopen this archive.

        Returns ``{"path": str}`` when the archive is backed by a named
        file (workers open it independently -- concurrent seeks on one
        shared file object would corrupt each other), else ``{"data":
        bytes}`` with the full archive contents.  A path is only trusted
        while it still names the very file this reader holds open (after
        an atomic-rename update the handle and the path are different
        archives, and workers reopening by name would diverge from the
        inline shard); otherwise the bytes are shipped.
        """
        for candidate in (self._source_path, getattr(self._file, "name", None)):
            if candidate is not None and isinstance(candidate, (str, pathlib.Path)):
                if self._path_matches_handle(pathlib.Path(candidate)):
                    return {"path": str(candidate)}
        file = self._file
        if isinstance(file, io.BytesIO):
            return {"data": file.getvalue()}
        position = file.tell()
        try:
            file.seek(0)
            data = file.read()
        finally:
            file.seek(position)
        return {"data": data}

    def _path_matches_handle(self, path: pathlib.Path) -> bool:
        """Does ``path`` still name the file this archive holds open?"""
        try:
            path_stat = path.stat()
        except OSError:
            return False
        try:
            handle_stat = os.fstat(self._file.fileno())
        except (OSError, AttributeError, io.UnsupportedOperation):
            # No OS-level handle to compare against (BytesIO and friends
            # never reach here); fall back to the parsed size, the best
            # identity signal the reader recorded.
            parsed_size = getattr(getattr(self._zip, "_source", None), "size", None)
            return parsed_size is not None and path_stat.st_size == parsed_size
        return (path_stat.st_ino == handle_stat.st_ino
                and path_stat.st_dev == handle_stat.st_dev)

    # -- internals ------------------------------------------------------------

    def _new_session(self, policy: VmReusePolicy) -> DecoderSession:
        """A decoder session configured by this archive's options."""
        return DecoderSession(
            self._load_decoder,
            policy=policy,
            engine=self.options.engine,
            limits=self._limits,
            superblock_limit=self.options.superblock_limit,
            chain_fragments=self.options.chain_fragments,
            code_cache_limit=self.options.code_cache_limit,
            verify_images=self.options.verify_images,
            analysis_elision=self.options.analysis_elision,
        )

    def _attributes_for(self, entry: ZipEntry) -> SecurityAttributes:
        """Per-file security attributes recovered from the member headers.

        Mode bits come from the ZIP external attributes; owner/group from the
        Info-ZIP Unix extra field when present, so ``same_domain`` compares
        the full protection domain the writer recorded.
        """
        mode = (entry.external_attributes >> 16) & 0xFFFF
        unix = parse_unix_extra(entry.extra)
        owner, group = unix if unix is not None else (0, 0)
        return SecurityAttributes(owner=owner, group=group, mode=mode or 0o644)

    def _load_decoder(self, offset: int) -> bytes:
        image = self._decoder_cache.get(offset)
        if image is None:
            _, image = self._zip.read_member_at(offset)
            self._decoder_cache[offset] = image
        return image

    def _encoded_bytes(self, entry: ZipEntry, extension: VxaExtension) -> bytes:
        if entry.method == METHOD_VXA:
            encoded = self._zip.read_stored_bytes(entry)
        else:
            # Pre-compressed member stored with method 0: the member data *is*
            # the encoded stream the decoder understands.
            encoded = self._zip.read_member(entry)
        plan = self.options.fault_plan
        if plan is not None:
            # Chaos hook: a flipped payload byte surfaces exactly as a truly
            # corrupt archive would (codec error or checksum mismatch).
            encoded = plan.corrupt(entry.name, encoded)
        return encoded

    def _run_archived_decoder(self, session: DecoderSession, entry: ZipEntry,
                              extension: VxaExtension, encoded: bytes) -> bytes:
        limits = None
        fault_syscall = None
        plan = self.options.fault_plan
        if plan is not None:
            fuel = plan.fuel_limit(entry.name)
            if fuel is not None:
                limits = replace(self._limits, max_instructions=fuel)
            fault_syscall = plan.syscall_fault_at(entry.name)
        result = session.decode(
            extension.decoder_offset,
            encoded,
            attributes=self._attributes_for(entry),
            limits=limits,
            fault_syscall=fault_syscall,
        )
        if result.exit_code != 0:
            raise IntegrityError(
                f"archived decoder exited with status {result.exit_code}: "
                f"{result.stderr.decode('latin-1', 'replace')!r}"
            )
        return result.output

    def _read_mode(self, mode: str | None,
                   force_decode: bool | None) -> tuple[str, bool]:
        """The effective ``(mode, force_decode)`` of a call; refuses bad modes."""
        mode = self.options.mode if mode is None else mode
        if mode not in MODES:
            raise ArchiveError(f"unknown extraction mode {mode!r}")
        force = self.options.force_decode if force_decode is None else force_decode
        return mode, force

    def _route(self, entry: ZipEntry, mode: str | None,
               force_decode: bool | None) -> tuple[str, VxaExtension | None]:
        """Decide how one member is extracted: ``(ROUTE_*, extension)``.

        The one place that routing is decided; extraction follows it and
        :meth:`extraction_plan` reports it to the scheduler.
        """
        mode, force = self._read_mode(mode, force_decode)
        extension = parse_extension(entry.extra)
        if extension is None:
            return ROUTE_PLAIN, None
        if entry.method == METHOD_STORE and extension.precompressed and not force:
            return ROUTE_STORED, extension
        native = bool(extension.codec_name) and extension.codec_name in self._registry
        if mode == MODE_NATIVE or (mode == MODE_AUTO and native):
            return ROUTE_NATIVE, extension
        return ROUTE_VXA, extension

    def _member_pipeline(self, entry: ZipEntry, mode: str | None,
                         force_decode: bool | None):
        """Plan the chunk stream for one member.

        Returns ``(chunks, (used_vxa, decoded, codec_name, precompressed))``.
        Plain and redec members stream lazily off the archive file; decoder
        output is produced in full (it is one member, never the archive) and
        then chunked.
        """
        route, extension = self._route(entry, mode, force_decode)
        chunk_size = self.options.chunk_size
        plan = self.options.fault_plan
        if plan is not None:
            # Chaos hooks that fire *before* the member is read: IO delay
            # and worker kill (process workers exit hard here).
            plan.io_delay(entry.name)
            plan.kill_worker(entry.name)

        if route == ROUTE_PLAIN:
            chunks = self._zip.iter_member_chunks(entry, chunk_size=chunk_size)
            return chunks, (False, True, None, False)

        if route == ROUTE_STORED:
            # iter_member_chunks on a stored member streams the same bytes as
            # iter_stored_chunks but verifies the member CRC as it goes.
            chunks = self._zip.iter_member_chunks(entry, chunk_size=chunk_size)
            return chunks, (False, False, extension.codec_name, True)

        data = self._decode_member(entry, extension, route)
        chunks = (data[offset:offset + chunk_size]
                  for offset in range(0, len(data), chunk_size))
        if not data:
            chunks = iter(())
        return chunks, (route == ROUTE_VXA, True, extension.codec_name,
                        extension.precompressed)

    def _decode_member(self, entry: ZipEntry, extension: VxaExtension,
                       route: str) -> bytes:
        encoded = self._encoded_bytes(entry, extension)
        if route == ROUTE_VXA:
            data = self._run_archived_decoder(self._session, entry, extension,
                                              encoded)
        elif extension.codec_name and extension.codec_name in self._registry:
            data = self._registry.get(extension.codec_name).decode(encoded)
        else:
            raise DecoderMissingError(
                f"no native decoder available for codec {extension.codec_name!r}"
            )
        if (len(data) != extension.original_size
                or crc32(data) != extension.original_crc32):
            raise IntegrityError(
                f"member {entry.name!r} decoded to unexpected contents "
                f"({len(data)} bytes vs {extension.original_size} expected)"
            )
        return data
