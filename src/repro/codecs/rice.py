"""Rice (Golomb power-of-two) coding of prediction residuals.

Used by the FLAC-class lossless audio codec: residuals from the fixed linear
predictors are mapped to unsigned integers with the zigzag mapping and coded
as ``quotient`` unary + ``k`` remainder bits, exactly as FLAC does.
"""

from __future__ import annotations

from repro.codecs.bitio import BitReader, BitWriter, zigzag_decode, zigzag_encode
from repro.errors import CodecError

#: Largest Rice parameter accepted (FLAC uses 0..14 for 16-bit audio).
MAX_RICE_PARAMETER = 30

#: Safety cap on unary run length so corrupt data cannot loop forever.
_MAX_QUOTIENT = 1 << 20


def best_rice_parameter(residuals: list[int]) -> int:
    """Pick the Rice parameter minimising the coded size of ``residuals``."""
    if not residuals:
        return 0
    total = sum(zigzag_encode(value) for value in residuals)
    mean = total / len(residuals)
    parameter = 0
    while (1 << (parameter + 1)) < mean + 1 and parameter < MAX_RICE_PARAMETER:
        parameter += 1
    # Refine around the estimate by brute force (cheap, +-2 candidates).
    best = None
    best_bits = None
    for candidate in range(max(0, parameter - 2), min(MAX_RICE_PARAMETER, parameter + 3)):
        bits = rice_cost(residuals, candidate)
        if best_bits is None or bits < best_bits:
            best, best_bits = candidate, bits
    return best


def rice_cost(residuals: list[int], parameter: int) -> int:
    """Exact bit cost of coding ``residuals`` with ``parameter``."""
    cost = 0
    for value in residuals:
        mapped = zigzag_encode(value)
        cost += (mapped >> parameter) + 1 + parameter
    return cost


def encode_residuals(writer: BitWriter, residuals: list[int], parameter: int) -> None:
    """Rice-encode signed ``residuals`` with the given parameter."""
    if not 0 <= parameter <= MAX_RICE_PARAMETER:
        raise CodecError(f"rice parameter out of range: {parameter}")
    for value in residuals:
        mapped = zigzag_encode(value)
        quotient = mapped >> parameter
        if quotient > _MAX_QUOTIENT:
            raise CodecError("residual too large for Rice coding")
        writer.write_unary(quotient)
        writer.write_bits(mapped & ((1 << parameter) - 1), parameter)


def decode_residuals(reader: BitReader, count: int, parameter: int) -> list[int]:
    """Decode ``count`` signed residuals."""
    if not 0 <= parameter <= MAX_RICE_PARAMETER:
        raise CodecError(f"rice parameter out of range: {parameter}")
    residuals = []
    for _ in range(count):
        quotient = reader.read_unary(_MAX_QUOTIENT)
        if quotient > _MAX_QUOTIENT:
            raise CodecError("corrupt Rice stream (runaway unary code)")
        remainder = reader.read_bits(parameter)
        residuals.append(zigzag_decode((quotient << parameter) | remainder))
    return residuals
