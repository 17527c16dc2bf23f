"""Bit-level I/O used by the entropy coders.

Bits are packed least-significant-bit first within each byte, the same
convention DEFLATE uses, so the guest decoders' bit readers (written in vxc)
and these Python implementations interoperate byte-for-byte.
"""

from __future__ import annotations

import re

from repro.errors import CodecError

_NOT_ALL_ONES = re.compile(b"[^\\xff]")


class BitWriter:
    """Accumulates bits LSB-first and yields bytes."""

    def __init__(self):
        self._buffer = bytearray()
        self._bit_position = 0
        self._current = 0

    def write_bit(self, bit: int) -> None:
        if bit:
            self._current |= 1 << self._bit_position
        self._bit_position += 1
        if self._bit_position == 8:
            self._buffer.append(self._current)
            self._current = 0
            self._bit_position = 0

    def write_bits(self, value: int, count: int) -> None:
        """Write ``count`` bits of ``value``, least significant bit first."""
        if count < 0 or value < 0:
            raise CodecError("bit writes must be non-negative")
        for position in range(count):
            self.write_bit((value >> position) & 1)

    def write_unary(self, count: int) -> None:
        """Write ``count`` one bits and a terminating zero bit.

        Whole bytes of ones are appended directly, so long runs cost
        ``count / 8`` operations rather than ``count``.
        """
        while count and self._bit_position:
            self.write_bit(1)
            count -= 1
        if count >= 8:
            self._buffer.extend(b"\xff" * (count >> 3))
            count &= 7
        if count:
            self._current = (1 << count) - 1
            self._bit_position = count
        self.write_bit(0)

    def write_code(self, code: int, length: int) -> None:
        """Write a Huffman code: most significant bit of the code first.

        Canonical Huffman codes are defined MSB-first; emitting them this way
        lets the decoder consume one bit at a time and compare against the
        canonical first-code boundaries.
        """
        for position in range(length - 1, -1, -1):
            self.write_bit((code >> position) & 1)

    def align_to_byte(self) -> None:
        while self._bit_position != 0:
            self.write_bit(0)

    def getvalue(self) -> bytes:
        """Return all complete bytes, padding the final partial byte with zeros."""
        result = bytearray(self._buffer)
        if self._bit_position:
            result.append(self._current)
        return bytes(result)

    @property
    def bit_length(self) -> int:
        return len(self._buffer) * 8 + self._bit_position


class BitReader:
    """Reads bits LSB-first from a byte string."""

    def __init__(self, data: bytes, start: int = 0):
        self._data = data
        self._byte_position = start
        self._bit_position = 0

    def read_bit(self) -> int:
        if self._byte_position >= len(self._data):
            raise CodecError("bit stream exhausted")
        bit = (self._data[self._byte_position] >> self._bit_position) & 1
        self._bit_position += 1
        if self._bit_position == 8:
            self._bit_position = 0
            self._byte_position += 1
        return bit

    def read_unary(self, limit: int) -> int:
        """Count one bits up to a zero bit, and consume that zero bit.

        Stops and returns ``limit + 1`` once the run is longer than
        ``limit``, so a corrupt stream cannot run on. Whole bytes of ones are
        skipped with one scan, not bit by bit.
        """
        data = self._data
        count = 0
        while True:
            if self._byte_position >= len(data):
                raise CodecError("bit stream exhausted")
            # Zero bits among the unread bits of the current byte.
            zeros = ~(data[self._byte_position] >> self._bit_position) & (0xFF >> self._bit_position)
            if zeros:
                ones = (zeros & -zeros).bit_length() - 1
                count += ones
                if count > limit:
                    return limit + 1
                self._bit_position += ones + 1
                if self._bit_position == 8:
                    self._bit_position = 0
                    self._byte_position += 1
                return count
            count += 8 - self._bit_position
            self._bit_position = 0
            start = self._byte_position + 1
            match = _NOT_ALL_ONES.search(data, start)
            self._byte_position = match.start() if match else len(data)
            count += 8 * (self._byte_position - start)
            if count > limit:
                return limit + 1

    def read_bits(self, count: int) -> int:
        value = 0
        for position in range(count):
            value |= self.read_bit() << position
        return value

    def align_to_byte(self) -> None:
        if self._bit_position:
            self._bit_position = 0
            self._byte_position += 1

    def read_bytes(self, count: int) -> bytes:
        """Byte-aligned raw read."""
        self.align_to_byte()
        end = self._byte_position + count
        if end > len(self._data):
            raise CodecError("byte stream exhausted")
        chunk = self._data[self._byte_position : end]
        self._byte_position = end
        return chunk

    @property
    def byte_position(self) -> int:
        return self._byte_position


def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one (0, -1, 1, -2, ... -> 0, 1, 2, 3)."""
    return (value << 1) ^ (value >> 31) if value < 0 else value << 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def write_uvarint(buffer: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise CodecError("uvarint cannot encode negative values")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buffer.append(byte | 0x80)
        else:
            buffer.append(byte)
            return


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns ``(value, next_offset)``."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 35:
            raise CodecError("varint too long")
