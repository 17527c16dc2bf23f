"""Decoder pseudo-file management for the archive writer.

Paper section 3.2: each decoder is stored once as a hidden pseudo-file
(empty filename, absent from the central directory, deflate-compressed);
every archived file that needs it simply points at the same archive offset.
This module handles that de-duplication.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.zipformat.writer import ZipWriter


@dataclass
class StoredDecoder:
    """Bookkeeping for one decoder already written into the archive."""

    codec_name: str
    offset: int
    image_size: int
    compressed_size: int
    digest: str


class DecoderStore:
    """Writes each distinct decoder image into the archive exactly once."""

    def __init__(self, writer: ZipWriter):
        self._writer = writer
        self._by_digest: dict[str, StoredDecoder] = {}

    def store(self, codec_name: str, image: bytes) -> StoredDecoder:
        """Ensure ``image`` is present in the archive; return its record."""
        digest = hashlib.sha256(image).hexdigest()
        existing = self._by_digest.get(digest)
        if existing is not None:
            return existing
        offset = self._writer.current_offset
        entry = self._writer.add_pseudo_file(image, deflate=True)
        stored = StoredDecoder(
            codec_name=codec_name,
            offset=offset,
            image_size=len(image),
            compressed_size=entry.compressed_size,
            digest=digest,
        )
        self._by_digest[digest] = stored
        return stored

    @property
    def stored(self) -> list[StoredDecoder]:
        return list(self._by_digest.values())
