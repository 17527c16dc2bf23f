"""Tests for the streaming, session-oriented ``repro.api`` facade."""

import io
import pathlib
import warnings

import pytest

import repro
import repro.api as vxa
from repro.cli import main as cli_main
from repro.codecs.vxz import VxzCodec
from repro.core.policy import SecurityAttributes, VmReusePolicy
from repro.errors import ArchiveError, PathTraversalError, VxaError, ZipFormatError
from repro.workloads.text import synthetic_source_tree_bytes
from repro.zipformat.writer import ZipWriter

#: Hard cap on how many bytes a single read() may return in the streaming
#: tests -- far below the archive size, so any code path that slurps the
#: archive into one bytes object cannot survive.
READ_CAP = 1 << 16


class CappedReadFile(io.RawIOBase):
    """A seekable binary file whose ``read()`` never returns more than a cap.

    Mimics throttled/socket-backed sources and *proves* the reader streams:
    with an 8 MB archive and a 64 KB cap, an implementation that relied on
    one big ``read()`` would parse garbage.
    """

    def __init__(self, path, cap: int = READ_CAP):
        self._file = open(path, "rb")
        self._cap = cap
        self.max_single_read = 0

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, offset, whence=io.SEEK_SET) -> int:
        return self._file.seek(offset, whence)

    def tell(self) -> int:
        return self._file.tell()

    def read(self, size=-1) -> bytes:
        want = self._cap if size is None or size < 0 else min(size, self._cap)
        chunk = self._file.read(want)
        self.max_single_read = max(self.max_single_read, len(chunk))
        return chunk

    def close(self) -> None:
        self._file.close()
        super().close()


@pytest.fixture(scope="module")
def member_data():
    return {
        # Big raw member pushes the archive well past 8 MB without making the
        # (interpreted) guest decoders chew through megabytes.
        "blobs/sensor.raw": bytes(range(256)) * (9 * 4096),      # ~9.4 MB
        "src/module.c": synthetic_source_tree_bytes(12000, seed=90),
        "notes/readme.txt": b"the decoders travel with the archive\n" * 64,
    }


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory, member_data):
    path = tmp_path_factory.mktemp("facade") / "big.zip"
    with open(path, "wb") as sink:
        with vxa.create(sink) as builder:
            builder.add("blobs/sensor.raw", member_data["blobs/sensor.raw"],
                        store_raw=True)
            builder.add("src/module.c", member_data["src/module.c"])
            builder.add("notes/readme.txt", member_data["notes/readme.txt"])
    assert path.stat().st_size > 8 * 1024 * 1024
    return path


# -- streaming round trip ---------------------------------------------------------------


def test_round_trip_via_file_objects(archive_path, member_data):
    """A >8 MB multi-member archive built onto and read from file objects."""
    with vxa.open(archive_path) as archive:
        assert set(archive.names()) == set(member_data)
        for name, original in member_data.items():
            assert archive.extract(name).data == original


def test_extraction_streams_with_capped_reads(archive_path, member_data):
    """Extraction works when no single read() can return the whole archive."""
    source = CappedReadFile(archive_path)
    with vxa.open(source) as archive:
        raw = archive.extract("blobs/sensor.raw")
        assert raw.data == member_data["blobs/sensor.raw"]
        # The VXA path (decoder pseudo-file + encoded stream) also streams.
        decoded = archive.extract("src/module.c", mode=vxa.MODE_VXA)
        assert decoded.used_vxa_decoder
        assert decoded.data == member_data["src/module.c"]
    assert source.max_single_read <= READ_CAP
    assert archive_path.stat().st_size > 100 * READ_CAP


def test_open_member_chunks_equal_one_shot_extract(archive_path, member_data):
    with vxa.open(archive_path) as archive:
        for name in ("blobs/sensor.raw", "src/module.c"):
            with archive.open_member(name) as stream:
                chunks = []
                while True:
                    piece = stream.read(4093)       # deliberately odd size
                    if not piece:
                        break
                    chunks.append(piece)
            assert b"".join(chunks) == archive.extract(name).data


def test_extract_to_writable(archive_path, member_data):
    with vxa.open(archive_path) as archive:
        sink = io.BytesIO()
        written = archive.extract_to("notes/readme.txt", sink)
        assert written == len(member_data["notes/readme.txt"])
        assert sink.getvalue() == member_data["notes/readme.txt"]


def test_extract_into_directory(archive_path, member_data, tmp_path):
    with vxa.open(archive_path) as archive:
        records = archive.extract_into(tmp_path / "out")
    assert {record.name for record in records} == set(member_data)
    for record in records:
        assert record.path.read_bytes() == member_data[record.name]
        assert record.size == len(member_data[record.name])


# -- zip-slip protection ----------------------------------------------------------------


def _crafted_traversal_archive(tmp_path) -> pathlib.Path:
    writer = ZipWriter()
    writer.add_member("../evil", b"pwned")
    writer.add_member("safe.txt", b"fine")
    path = tmp_path / "evil.zip"
    path.write_bytes(writer.finish())
    return path


def test_extract_into_rejects_traversal(tmp_path):
    crafted = _crafted_traversal_archive(tmp_path)
    out = tmp_path / "out"
    with vxa.open(crafted) as archive:
        with pytest.raises(PathTraversalError):
            archive.extract_into(out)
    # Validation happens before any file IO: nothing was written anywhere.
    assert not (tmp_path / "evil").exists()
    assert not out.exists() or not any(out.iterdir())


def test_extract_into_rejects_absolute_names():
    with pytest.raises(PathTraversalError):
        vxa.safe_extract_path(pathlib.Path("."), "/etc/passwd")


def test_cli_extract_refuses_crafted_archive(tmp_path, capsys):
    crafted = _crafted_traversal_archive(tmp_path)
    out = tmp_path / "restored"
    status = cli_main(["extract", str(crafted), "-o", str(out)])
    assert status == 2
    assert "escapes the extraction directory" in capsys.readouterr().err
    assert not (tmp_path / "evil").exists()


# -- options and sessions ---------------------------------------------------------------


def test_read_options_validate():
    with pytest.raises(ValueError):
        vxa.ReadOptions(mode="bogus")
    with pytest.raises(ValueError):
        vxa.ReadOptions(engine="bogus")
    options = vxa.ReadOptions(mode=vxa.MODE_VXA)
    assert options.with_changes(force_decode=True).force_decode
    assert options.mode == vxa.MODE_VXA     # frozen original untouched


def test_session_counters_honor_same_domain(tmp_path):
    """REUSE_SAME_ATTRIBUTES re-initialises exactly on domain changes."""
    path = tmp_path / "mixed.zip"
    with vxa.create(path) as builder:
        for index in range(6):
            mode = 0o600 if index < 3 else 0o644    # two protection domains
            builder.add(f"f{index}.txt", b"shared decoder payload %d " % index * 40,
                        attributes=SecurityAttributes(mode=mode))
    with vxa.open(path) as archive:
        fresh = archive.check(reuse=VmReusePolicy.ALWAYS_FRESH)
        grouped = archive.check(reuse=VmReusePolicy.REUSE_SAME_ATTRIBUTES)
        shared = archive.check(reuse=VmReusePolicy.ALWAYS_REUSE)
    for report in (fresh, grouped, shared):
        assert report.ok and report.checked == 6
    assert (fresh.stats.vm_initialisations, fresh.stats.vm_reuses) == (6, 0)
    # One init for the first domain, one re-init at the 0o600 -> 0o644 flip.
    assert (grouped.stats.vm_initialisations, grouped.stats.vm_reuses) == (2, 4)
    assert (shared.stats.vm_initialisations, shared.stats.vm_reuses) == (1, 5)


def test_session_shares_translations_when_reuse_permitted(tmp_path):
    """Members sharing a decoder share its translated code for the session.

    Under REUSE_SAME_ATTRIBUTES a protection-domain flip forces the sandbox
    to be re-initialised, but translations derive from the decoder image
    alone, so the session-owned code cache keeps them: only the first member
    pays translation.
    """
    path = tmp_path / "shared-code.zip"
    with vxa.create(path) as builder:
        for index in range(4):
            mode = 0o600 if index < 2 else 0o644    # forces one re-init
            builder.add(f"f{index}.txt", b"code cache payload %d " % index * 60,
                        attributes=SecurityAttributes(mode=mode))
    options = vxa.ReadOptions(mode=vxa.MODE_VXA,
                              reuse=VmReusePolicy.REUSE_SAME_ATTRIBUTES)
    with vxa.open(path, options) as archive:
        for name in archive.names():
            archive.extract(name)
        stats = archive.session.stats
    assert stats.decodes == 4
    assert stats.fragments_translated > 0
    assert stats.retranslations == 0          # nothing translated twice
    assert stats.chained_branches > 0
    assert stats.cache_hits > stats.fragments_translated

    # The safe default (ALWAYS_FRESH) keeps caches private and pays
    # retranslation on every member; the counters expose that cost.
    with vxa.open(path, vxa.ReadOptions(mode=vxa.MODE_VXA)) as archive:
        for name in archive.names():
            archive.extract(name)
        fresh_stats = archive.session.stats
    assert fresh_stats.retranslations > 0


def test_integrity_report_carries_code_cache_counters(tmp_path):
    path = tmp_path / "counters.zip"
    with vxa.create(path) as builder:
        builder.add("a.txt", b"integrity counter payload " * 50)
        builder.add("b.txt", b"integrity counter payload " * 51)
    with vxa.open(path) as archive:
        report = archive.check(reuse=VmReusePolicy.ALWAYS_REUSE)
    assert report.ok
    assert report.stats.fragments_translated > 0
    assert report.stats.chained_branches > 0
    assert report.stats.retranslations == 0
    from repro.core.integrity import format_report
    text = format_report(report)
    assert "code cache" in text and "chained branch(es)" in text


def test_read_options_engine_tuning_knobs(tmp_path):
    with pytest.raises(ValueError):
        vxa.ReadOptions(superblock_limit=0)
    path = tmp_path / "tuned.zip"
    with vxa.create(path) as builder:
        builder.add("t.txt", b"tuning knob payload " * 40)
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, superblock_limit=1,
                              chain_fragments=False)
    with vxa.open(path, options) as archive:
        data = archive.extract("t.txt").data
        assert data == b"tuning knob payload " * 40
        assert archive.session.stats.chained_branches == 0


def test_same_domain_compares_owner_and_group(tmp_path):
    """uid/gid survive the archive round trip and gate VM reuse."""
    path = tmp_path / "owners.zip"
    payload = b"identical mode, different owner " * 30
    with vxa.create(path) as builder:
        builder.add("alice.txt", payload,
                    attributes=SecurityAttributes(owner=1000, group=100, mode=0o644))
        builder.add("bob.txt", payload,
                    attributes=SecurityAttributes(owner=2000, group=100, mode=0o644))
    with vxa.open(path) as archive:
        assert archive.info("alice.txt").attributes.owner == 1000
        assert archive.info("bob.txt").attributes.owner == 2000
        report = archive.check(reuse=VmReusePolicy.REUSE_SAME_ATTRIBUTES)
    assert report.ok
    # Same mode but different owners: the domain flip forces a re-init,
    # nothing is reused across the two files.
    assert (report.stats.vm_initialisations, report.stats.vm_reuses) == (2, 0)


def _flip_member_data_byte(archive_bytes: bytes, archive) -> bytes:
    entry = archive.entries()[0]
    data_start = (entry.local_header_offset + 30
                  + len(entry.name.encode()) + len(entry.extra))
    corrupted = bytearray(archive_bytes)
    corrupted[data_start + entry.compressed_size // 2] ^= 0xFF
    return bytes(corrupted)


def test_corrupted_redec_member_fails_crc_on_extract(tmp_path):
    """Pre-compressed (redec) members are CRC-checked even when returned
    in their stored form."""
    payload = VxzCodec().encode(synthetic_source_tree_bytes(8000, seed=91))
    buffer = io.BytesIO()
    with vxa.create(buffer) as builder:
        info = builder.add("bundle.vxz", payload)
    assert info.precompressed
    with vxa.open(io.BytesIO(buffer.getvalue())) as archive:
        corrupted = _flip_member_data_byte(buffer.getvalue(), archive)
    with vxa.open(io.BytesIO(corrupted)) as bad:
        with pytest.raises(ZipFormatError, match="CRC mismatch"):
            bad.extract("bundle.vxz")


def test_extract_into_leaves_no_partial_file_on_corruption(tmp_path):
    """A mid-member failure must not leave a truncated file at the final name."""
    buffer = io.BytesIO()
    with vxa.create(buffer) as builder:
        builder.add("big.raw", bytes(range(256)) * 1024, store_raw=True)  # 4 chunks
    with vxa.open(io.BytesIO(buffer.getvalue())) as archive:
        corrupted = _flip_member_data_byte(buffer.getvalue(), archive)
    out = tmp_path / "out"
    with vxa.open(io.BytesIO(corrupted)) as bad:
        with pytest.raises(ZipFormatError):
            bad.extract_into(out)
    assert not any(out.iterdir())       # neither big.raw nor a *.vxa-partial


def test_open_on_non_archive_path_closes_handle(tmp_path):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"definitely not a zip")
    with pytest.raises(ZipFormatError):
        vxa.open(junk)      # must not leak the fd it opened


def test_archive_info_exposes_attributes(tmp_path):
    path = tmp_path / "attr.zip"
    with vxa.create(path) as builder:
        builder.add("private.txt", b"x" * 500,
                    attributes=SecurityAttributes(mode=0o600))
    with vxa.open(path) as archive:
        info = archive.info("private.txt")
        assert info.attributes.mode == 0o600
        assert not info.attributes.world_readable
        assert info.codec_name == "vxz" and info.has_decoder


def test_builder_requires_name_and_rejects_use_after_finish(tmp_path):
    with vxa.create(tmp_path / "x.zip") as builder:
        with pytest.raises(ArchiveError):
            builder.add("", b"data")
        builder.add("ok", b"data")
        builder.finish()
        with pytest.raises(ArchiveError):
            builder.add("late", b"data")


# -- determinism -------------------------------------------------------------


def test_identical_builds_are_byte_identical(member_data):
    inputs = {"src/module.c": member_data["src/module.c"],
              "notes/readme.txt": member_data["notes/readme.txt"]}

    def build() -> bytes:
        buffer = io.BytesIO()
        with vxa.create(buffer) as builder:
            for name, data in inputs.items():
                builder.add(name, data)
        return buffer.getvalue()

    # Deterministic timestamps make two builds of the same inputs identical.
    first = build()
    assert build() == first
    with vxa.open(first) as archive:
        for name, data in inputs.items():
            extracted = archive.extract(name, mode=vxa.MODE_VXA)
            assert extracted.data == data and extracted.used_vxa_decoder
        assert archive.check().ok


# -- public surface ---------------------------------------------------------------------


def test_top_level_exports_are_the_facade():
    assert repro.open is vxa.open
    assert repro.create is vxa.create
    assert repro.Archive is vxa.Archive
    assert repro.ReadOptions is vxa.ReadOptions
    assert repro.WriteOptions is vxa.WriteOptions
    assert issubclass(repro.PathTraversalError, repro.ArchiveError)
    assert issubclass(repro.ArchiveError, VxaError)
    for name in ("open", "create", "Archive", "ReadOptions", "WriteOptions",
                 "PathTraversalError"):
        assert name in repro.__all__


def test_facade_emits_no_deprecation_warnings(archive_path):
    """The facade must not emit deprecation warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with vxa.open(archive_path) as archive:
            archive.extract("notes/readme.txt")
