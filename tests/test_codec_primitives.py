"""Unit and property tests for the codec building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs.bitio import (
    BitReader,
    BitWriter,
    read_uvarint,
    write_uvarint,
    zigzag_decode,
    zigzag_encode,
)
from repro.codecs.bwt import (
    bwt_forward,
    bwt_inverse,
    mtf_decode,
    mtf_encode,
    rle_decode,
    rle_encode,
    suffix_array,
)
from repro.codecs.dct import forward_dct, inverse_dct_integer, quant_table, zigzag_scan, zigzag_unscan
from repro.codecs.huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    build_code_lengths,
    canonical_codes,
)
from repro.codecs.lz77 import reconstruct, tokenize
from repro.codecs.rice import best_rice_parameter, decode_residuals, encode_residuals
from repro.codecs.wavelet import forward_2d, inverse_2d, padded_size, subband_shapes
from repro.errors import CodecError


# -- bit I/O -------------------------------------------------------------------


def test_bitwriter_lsb_first_packing():
    writer = BitWriter()
    writer.write_bits(0b1011, 4)
    writer.write_bits(0b0110, 4)
    assert writer.getvalue() == bytes([0b01101011])


def test_bitreader_round_trip():
    writer = BitWriter()
    values = [(5, 3), (1, 1), (200, 8), (70000, 17), (0, 0), (1023, 10)]
    for value, width in values:
        writer.write_bits(value, width)
    reader = BitReader(writer.getvalue())
    for value, width in values:
        assert reader.read_bits(width) == value


def test_bitreader_exhaustion_raises():
    reader = BitReader(b"\x01")
    reader.read_bits(8)
    with pytest.raises(CodecError):
        reader.read_bit()


@given(st.integers(min_value=0, max_value=7), st.lists(st.integers(min_value=0, max_value=70), max_size=12))
def test_unary_matches_bit_at_a_time(lead, runs):
    bulk, single = BitWriter(), BitWriter()
    for writer in (bulk, single):
        writer.write_bits(0, lead)
    for run in runs:
        bulk.write_unary(run)
        for _ in range(run):
            single.write_bit(1)
        single.write_bit(0)
    assert bulk.getvalue() == single.getvalue()
    reader = BitReader(bulk.getvalue())
    reader.read_bits(lead)
    assert [reader.read_unary(70) for _ in runs] == runs


def test_unary_read_stops_past_limit_and_on_exhaustion():
    assert BitReader(b"\xff" * 4 + b"\x00").read_unary(20) == 21
    with pytest.raises(CodecError):
        BitReader(b"\xff" * 4).read_unary(100)


def test_align_and_byte_reads():
    writer = BitWriter()
    writer.write_bits(1, 3)
    writer.align_to_byte()
    assert writer.getvalue() == b"\x01"
    reader = BitReader(b"\x01\xaa\xbb")
    reader.read_bits(3)
    assert reader.read_bytes(2) == b"\xaa\xbb"


@given(st.integers(min_value=-(2**30), max_value=2**30))
def test_zigzag_round_trip(value):
    assert zigzag_decode(zigzag_encode(value)) == value
    assert zigzag_encode(value) >= 0


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=20))
def test_uvarint_round_trip(values):
    buffer = bytearray()
    for value in values:
        write_uvarint(buffer, value)
    offset = 0
    for value in values:
        decoded, offset = read_uvarint(bytes(buffer), offset)
        assert decoded == value
    assert offset == len(buffer)


# -- Huffman --------------------------------------------------------------------


def test_code_lengths_simple_distribution():
    lengths = build_code_lengths([10, 10, 10, 10])
    assert lengths == [2, 2, 2, 2]


def test_code_lengths_skewed_distribution():
    lengths = build_code_lengths([100, 1, 1, 1])
    assert lengths[0] == 1
    assert max(lengths) <= 3


def test_single_symbol_gets_one_bit():
    lengths = build_code_lengths([0, 42, 0])
    assert lengths == [0, 1, 0]


def test_canonical_codes_are_prefix_free():
    lengths = build_code_lengths([5, 9, 12, 13, 16, 45, 1, 1, 1])
    codes = canonical_codes(lengths)
    entries = [(codes[i], lengths[i]) for i in range(len(lengths)) if lengths[i]]
    for i, (code_a, len_a) in enumerate(entries):
        for j, (code_b, len_b) in enumerate(entries):
            if i == j:
                continue
            if len_a <= len_b:
                assert (code_b >> (len_b - len_a)) != code_a, "prefix violation"


def test_length_limiting_respects_kraft():
    # 40 symbols with exponentially decaying frequencies forces long codes.
    frequencies = [2**max(0, 30 - i) for i in range(40)]
    lengths = build_code_lengths(frequencies, max_length=15)
    assert max(lengths) <= 15
    assert sum(2.0 ** -length for length in lengths if length) <= 1.0 + 1e-9


@settings(max_examples=50)
@given(st.binary(min_size=1, max_size=2000))
def test_huffman_encode_decode_round_trip(data):
    encoder = HuffmanEncoder.from_data(data)
    writer = BitWriter()
    for byte in data:
        encoder.write_symbol(writer, byte)
    decoder = HuffmanDecoder(encoder.lengths)
    reader = BitReader(writer.getvalue())
    decoded = bytes(decoder.read_symbol(reader) for _ in range(len(data)))
    assert decoded == data


def test_oversubscribed_lengths_rejected():
    with pytest.raises(CodecError):
        HuffmanDecoder([1, 1, 1])


# -- LZ77 -----------------------------------------------------------------------


@settings(max_examples=30)
@given(st.binary(max_size=4000))
def test_lz77_round_trip(data):
    assert reconstruct(tokenize(data)) == data


def test_lz77_finds_repeats():
    data = b"abcabcabcabcabcabc" * 10
    tokens = tokenize(data)
    assert any(not token.is_literal for token in tokens)
    literals = sum(1 for token in tokens if token.is_literal)
    assert literals < len(data) // 4


def test_lz77_handles_long_runs():
    data = b"\x00" * 10000
    tokens = tokenize(data)
    assert reconstruct(tokens) == data
    assert len(tokens) < 100


# -- BWT / MTF / RLE ---------------------------------------------------------------


def test_bwt_known_vector():
    transformed, primary = bwt_forward(b"banana")
    assert transformed == b"annbaa"
    assert primary == 4


@settings(max_examples=30)
@given(st.binary(max_size=2000))
def test_bwt_round_trip(data):
    transformed, primary = bwt_forward(data)
    assert bwt_inverse(transformed, primary) == data


def test_bwt_inverse_rejects_bad_primary():
    transformed, _ = bwt_forward(b"hello world")
    with pytest.raises(CodecError):
        bwt_inverse(transformed, 999)


def test_suffix_array_matches_naive():
    data = b"mississippi"
    expected = sorted(range(len(data)), key=lambda i: data[i:])
    assert list(suffix_array(data)) == expected


@given(st.binary(max_size=500))
def test_mtf_round_trip(data):
    assert mtf_decode(mtf_encode(data)) == data


def test_mtf_front_loading():
    encoded = mtf_encode(b"aaaaaabbbbbb")
    assert encoded[1:6] == bytes(5)      # repeated symbols become zeros
    assert encoded[7:] == bytes(5)


@given(st.binary(max_size=2000))
def test_rle_round_trip(data):
    assert rle_decode(rle_encode(data)) == data


def test_rle_compresses_runs():
    data = b"x" * 300
    encoded = rle_encode(data)
    assert len(encoded) < 20
    assert rle_decode(encoded) == data


# -- DCT -----------------------------------------------------------------------------


def test_dct_constant_block_energy_in_dc():
    block = np.full((8, 8), 130, dtype=np.int64)
    coefficients = forward_dct(block)
    assert abs(coefficients[0, 0]) > 0
    assert np.abs(coefficients[1:, :]).sum() + np.abs(coefficients[0, 1:]).sum() <= 2


def test_dct_inverse_reconstructs_closely():
    rng = np.random.default_rng(7)
    block = rng.integers(0, 256, size=(8, 8), dtype=np.int64)
    coefficients = forward_dct(block)
    restored = inverse_dct_integer(coefficients)
    assert np.abs(restored - block).max() <= 2


def test_quant_table_scaling():
    assert quant_table(100).max() <= quant_table(50).max() <= quant_table(5).max()
    assert quant_table(50).min() >= 1


def test_zigzag_scan_round_trip():
    block = np.arange(64, dtype=np.int64).reshape(8, 8)
    assert np.array_equal(zigzag_unscan(zigzag_scan(block)), block)
    assert zigzag_scan(block)[0] == 0
    assert zigzag_scan(block)[1] == 1
    assert zigzag_scan(block)[2] == 8


# -- wavelet ----------------------------------------------------------------------------


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_wavelet_perfect_reconstruction(levels):
    rng = np.random.default_rng(11)
    size = padded_size(50, levels)
    image = rng.integers(0, 256, size=(size, size), dtype=np.int64)
    coefficients = forward_2d(image, levels)
    assert np.array_equal(inverse_2d(coefficients, levels), image)


def test_wavelet_rejects_unpadded_dimensions():
    image = np.zeros((10, 12), dtype=np.int64)
    with pytest.raises(CodecError):
        forward_2d(image, 3)


def test_wavelet_subbands_tile_the_plane():
    bands = subband_shapes(16, 16, 2)
    covered = np.zeros((16, 16), dtype=int)
    for _, row, col, height, width in bands:
        covered[row : row + height, col : col + width] += 1
    assert covered.min() == covered.max() == 1


def test_padded_size():
    assert padded_size(50, 3) == 56
    assert padded_size(64, 3) == 64
    assert padded_size(1, 1) == 2


# -- Rice ----------------------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=-(2**15), max_value=2**15), min_size=1, max_size=200),
    st.integers(min_value=0, max_value=14),
)
def test_rice_round_trip(residuals, parameter):
    writer = BitWriter()
    encode_residuals(writer, residuals, parameter)
    reader = BitReader(writer.getvalue())
    assert decode_residuals(reader, len(residuals), parameter) == residuals


def test_best_rice_parameter_tracks_magnitude():
    small = best_rice_parameter([0, 1, -1, 2, 0, 1])
    large = best_rice_parameter([1000, -2000, 1500, -900])
    assert small < large
