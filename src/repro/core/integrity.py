"""Integrity report rendering and media-level damage assessment.

:func:`format_report` prints an :class:`~repro.api.archive.IntegrityReport`
(the outcome of :meth:`repro.api.Archive.check`) the way ``vxunzip check``
shows it.  :func:`assess_media` classifies an archive's bytes without
running any decoders: every member extent is checked against the
end-of-archive digest table (or its CRC when the archive predates commit
records) and classified ``intact`` / ``suspect`` / ``lost`` -- the verdicts
``vxunzip check --deep`` and :mod:`repro.repair` are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ArchiveError, VxaError, ZipFormatError

if TYPE_CHECKING:
    from repro.api.archive import IntegrityReport


def format_report(report: IntegrityReport) -> str:
    """Render an integrity report the way the vxUnZIP tool would print it."""
    lines = [f"members checked : {report.checked}",
             f"members passed  : {report.passed}"]
    if report.vm_initialisations or report.vm_reuses:
        lines.append(
            f"decoder VMs     : {report.vm_initialisations} initialisation(s), "
            f"{report.vm_reuses} state reuse(s)"
        )
    if report.fragments_translated:
        lines.append(
            f"code cache      : {report.fragments_translated} fragment(s) translated, "
            f"{report.cache_hits} cache hit(s), "
            f"{report.chained_branches} chained branch(es), "
            f"{report.retranslations} retranslation(s), "
            f"{report.evictions} eviction(s)"
        )
    if report.images_verified or report.guards_elided:
        lines.append(
            f"static analysis : {report.images_verified} image(s) analysed, "
            f"{report.guards_elided} bounds guard(s) elided"
        )
    if report.failures:
        lines.append("failures:")
        lines.extend(f"  - {failure}" for failure in report.failures)
    else:
        lines.append("archive integrity: OK (all archived decoders reproduce their data)")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Media-level assessment (no decoder runs)
# --------------------------------------------------------------------------

#: Member verdict statuses.
STATUS_INTACT = "intact"      # bytes verified (digest table or CRC)
STATUS_SUSPECT = "suspect"    # present but contradicts its recorded identity
STATUS_LOST = "lost"          # extent missing or unreachable

#: Archive classifications (also the ``check --deep`` exit codes).
CLASS_CLEAN = "clean"
CLASS_SALVAGEABLE = "salvageable"
CLASS_UNRECOVERABLE = "unrecoverable"
_EXIT_CODES = {CLASS_CLEAN: 0, CLASS_SALVAGEABLE: 1, CLASS_UNRECOVERABLE: 2}


@dataclass
class MemberVerdict:
    """Media-level verdict for one member or decoder extent."""

    name: str
    status: str
    verified_by: str = "none"   # "digest" | "crc" | "structure" | "none"
    reason: str = ""
    offset: int | None = None   # local-header offset of the extent
    size: int | None = None     # full extent size when known
    decoder_offset: int | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "verified_by": self.verified_by,
            "reason": self.reason,
            "offset": self.offset,
            "size": self.size,
            "decoder_offset": self.decoder_offset,
        }


@dataclass
class MediaAssessment:
    """Outcome of a whole-archive media scan (``check --deep``'s substrate)."""

    directory_status: str = "ok"         # "ok" | "reconstructed"
    commit_status: str = "absent"        # "verified" | "present" | "absent"
    members: list[MemberVerdict] = field(default_factory=list)
    decoders: dict[int, MemberVerdict] = field(default_factory=dict)
    damage: list[str] = field(default_factory=list)
    archive_size: int = 0

    @property
    def intact_members(self) -> list[MemberVerdict]:
        return [m for m in self.members if m.status == STATUS_INTACT]

    @property
    def damaged_members(self) -> list[MemberVerdict]:
        return [m for m in self.members if m.status != STATUS_INTACT]

    def classification(self) -> str:
        damaged = (self.directory_status != "ok" or bool(self.damage)
                   or any(m.status != STATUS_INTACT for m in self.members)
                   or any(d.status != STATUS_INTACT for d in self.decoders.values()))
        if not damaged:
            return CLASS_CLEAN
        if self.members and not self.intact_members:
            return CLASS_UNRECOVERABLE
        if not self.members:
            # Nothing recoverable at all: damage with no surviving members.
            return CLASS_UNRECOVERABLE
        return CLASS_SALVAGEABLE

    def exit_code(self) -> int:
        return _EXIT_CODES[self.classification()]

    def as_dict(self) -> dict:
        return {
            "classification": self.classification(),
            "directory_status": self.directory_status,
            "commit_status": self.commit_status,
            "archive_size": self.archive_size,
            "members": [m.as_dict() for m in self.members],
            "decoders": {str(offset): d.as_dict()
                         for offset, d in self.decoders.items()},
            "damage": list(self.damage),
        }


def _open_salvage_reader(archive):
    """Open ``archive`` (bytes, path, or file object) in salvage mode."""
    from repro.zipformat.reader import ZipReader

    if isinstance(archive, (bytes, bytearray, memoryview)):
        return ZipReader(bytes(archive), salvage=True)
    if isinstance(archive, (str, bytes)) or hasattr(archive, "__fspath__"):
        with open(archive, "rb") as handle:
            return ZipReader(handle.read(), salvage=True)
    return ZipReader(archive, salvage=True)


def _verify_extent(reader, verdict: MemberVerdict, digest_row) -> None:
    """Check one extent against its digest-table row, updating ``verdict``."""
    from repro.zipformat.commit import sha256

    extent = reader.read_extent(digest_row.offset, digest_row.size)
    if len(extent) < digest_row.size:
        verdict.status = STATUS_LOST
        verdict.reason = "extent truncated"
    elif sha256(extent) != digest_row.digest:
        verdict.status = STATUS_SUSPECT
        verdict.reason = "extent digest mismatch"
        verdict.verified_by = "digest"
    else:
        verdict.status = STATUS_INTACT
        verdict.verified_by = "digest"


def assess_media(archive) -> MediaAssessment:
    """Classify an archive's bytes without running any decoders.

    Opens the archive in salvage mode (so even a destroyed central
    directory yields a member list), then checks every member and decoder
    extent -- against the end-of-archive digest table when present, by CRC
    for traditionally-compressed data otherwise.  Members recorded in the
    digest table but absent from the media are reported ``lost``.
    """
    from repro.core.extension import parse_extension
    from repro.zipformat.commit import KIND_MEMBER
    from repro.zipformat.structures import METHOD_VXA

    assessment = MediaAssessment()
    try:
        reader = _open_salvage_reader(archive)
    except ZipFormatError as error:
        assessment.damage.append(f"archive is unreadable: {error}")
        return assessment
    assessment.archive_size = reader.source_size
    assessment.directory_status = ("reconstructed" if reader.directory_reconstructed
                                   else "ok")
    if reader.commit_verified:
        assessment.commit_status = "verified"
    elif reader.commit_marker is not None:
        assessment.commit_status = "present"
    assessment.damage.extend(reader.damage)

    digest_rows = (reader.digest_table.by_offset()
                   if reader.digest_table is not None else {})
    present_offsets = set()

    # -- decoder extents referenced by members ------------------------------------
    decoder_offsets: dict[int, list[str]] = {}
    for entry in reader.entries:
        try:
            extension = parse_extension(entry.extra)
        except ArchiveError:
            extension = None
        if extension is not None:
            decoder_offsets.setdefault(extension.decoder_offset, []).append(entry.name)
    for offset in sorted(decoder_offsets):
        verdict = MemberVerdict(name=f"<decoder@{offset}>", status=STATUS_INTACT,
                                offset=offset)
        row = digest_rows.get(offset)
        if row is not None:
            verdict.size = row.size
            _verify_extent(reader, verdict, row)
        else:
            try:
                reader.read_member_at(offset)
                verdict.status = STATUS_INTACT
                verdict.verified_by = "crc"
            except VxaError as error:
                verdict.status = STATUS_SUSPECT
                verdict.reason = f"decoder unreadable: {error}"
        assessment.decoders[offset] = verdict

    # -- member extents -----------------------------------------------------------
    for entry in reader.entries:
        present_offsets.add(entry.local_header_offset)
        try:
            extension = parse_extension(entry.extra)
        except ArchiveError as error:
            assessment.members.append(MemberVerdict(
                name=entry.name, status=STATUS_SUSPECT,
                reason=f"VXA extension unreadable: {error}",
                offset=entry.local_header_offset))
            continue
        decoder_offset = extension.decoder_offset if extension is not None else None
        verdict = MemberVerdict(name=entry.name, status=STATUS_INTACT,
                                offset=entry.local_header_offset,
                                decoder_offset=decoder_offset)
        row = digest_rows.get(entry.local_header_offset)
        if row is not None:
            verdict.size = row.size
            _verify_extent(reader, verdict, row)
        elif entry.method == METHOD_VXA:
            # No digest table and no traditional checksum over the *stored*
            # bytes: all we can check cheaply is that the extent is present
            # and structurally sound; decode-time CRC remains the real gate.
            try:
                offset, size = reader.member_extent(entry)
                verdict.size = size
                if len(reader.read_extent(offset, size)) < size:
                    verdict.status = STATUS_LOST
                    verdict.reason = "extent truncated"
                else:
                    verdict.verified_by = "structure"
            except VxaError as error:
                verdict.status = STATUS_LOST
                verdict.reason = str(error)
        else:
            try:
                reader.read_member(entry)
                verdict.verified_by = "crc"
            except VxaError as error:
                verdict.status = STATUS_SUSPECT
                verdict.reason = f"stored data unreadable: {error}"
        # An intact VXA member whose decoder is damaged cannot be decoded;
        # only its pre-compressed stored form (if any) remains extractable.
        if (verdict.status == STATUS_INTACT and decoder_offset is not None
                and entry.method == METHOD_VXA
                and decoder_offset in assessment.decoders
                and assessment.decoders[decoder_offset].status != STATUS_INTACT):
            verdict.status = STATUS_LOST
            verdict.reason = "decoder extent damaged"
        assessment.members.append(verdict)

    # -- members recorded in the digest table but missing from the media ----------
    for offset, row in sorted(digest_rows.items()):
        if row.kind != KIND_MEMBER or offset in present_offsets:
            continue
        assessment.members.append(MemberVerdict(
            name=row.name, status=STATUS_LOST, reason="extent missing from media",
            offset=offset, size=row.size))

    return assessment


def format_assessment(assessment: MediaAssessment) -> str:
    """Render a media assessment the way ``vxunzip check --deep`` prints it."""
    lines = [
        f"classification  : {assessment.classification()}",
        f"directory       : {assessment.directory_status}",
        f"commit record   : {assessment.commit_status}",
        f"members         : {len(assessment.intact_members)} intact, "
        f"{len(assessment.damaged_members)} damaged",
    ]
    for verdict in assessment.damaged_members:
        detail = f" ({verdict.reason})" if verdict.reason else ""
        lines.append(f"  - {verdict.name or '<unnamed>'}: {verdict.status}{detail}")
    for offset, verdict in sorted(assessment.decoders.items()):
        if verdict.status != STATUS_INTACT:
            lines.append(f"  - decoder at offset {offset}: {verdict.status} "
                         f"({verdict.reason})")
    for note in assessment.damage:
        lines.append(f"  ! {note}")
    return "\n".join(lines)
