import struct

import numpy as np
import pytest

import anchormesh as am
from anchormesh import (
    Payload,
    PayloadFormatError,
    QuantizationParams,
    decode_payload,
    encode_pair,
    read_payload,
    write_payload,
)
from anchormesh import pipeline

INT64 = np.iinfo(np.int64)
HEADER = 4 + 1 + 1 + 32  # magic, version, flags, base hash


@pytest.fixture(scope="module")
def encoded():
    spec = am.SequenceSpec(shape="sphere", resolution=2, frames=2, motion="bend",
                           rate=0.1, region=0.4, seed=3)
    reference, target = am.generate_sequence(spec)
    base = am.decimate_to_base(reference, 40)
    return base, encode_pair(base, target).payload


def _payload(rng, n_anchor=5, n_values=7):
    quantized = rng.integers(-300, 300, size=(n_values, 3))
    quantized[0] = [INT64.max, INT64.min, 0]  # ten-byte varints at both ends
    return Payload(base_hash=bytes(range(32)),
                   anchor_positions=rng.normal(size=(n_anchor, 3)),
                   level=3, params=QuantizationParams(2.5, -0.25, 5.0),
                   adaptive=False, quantized=quantized)


def test_write_read_round_trip():
    rng = np.random.default_rng(5)
    for adaptive in (False, True):
        sent = _payload(rng)
        sent.adaptive = adaptive
        got = read_payload(write_payload(sent), len(sent.anchor_positions))
        assert got.base_hash == sent.base_hash
        assert np.array_equal(got.anchor_positions, sent.anchor_positions)
        assert got.level == sent.level
        assert got.params == sent.params
        assert got.adaptive == adaptive
        assert got.quantized.dtype == np.int64
        assert np.array_equal(got.quantized, sent.quantized)


def test_level_byte_mismatch_raises_before_subdividing(encoded, monkeypatch):
    base, payload = encoded
    data = bytearray(write_payload(payload))
    level_at = HEADER + 24 * base.n_vertices
    assert data[level_at] == payload.level

    def no_subdivision(*args):
        raise AssertionError("decoder subdivided before checking the level")

    monkeypatch.setattr(pipeline, "midpoint_subdivide", no_subdivision)
    for level in (40, 255, payload.level + 1, payload.level - 1):
        data[level_at] = level
        mutated = read_payload(bytes(data), base.n_vertices)
        assert mutated.level == level
        with pytest.raises(PayloadFormatError):
            decode_payload(mutated, base)


def test_overlong_varint_raises():
    rng = np.random.default_rng(7)
    data = write_payload(_payload(rng))
    n_anchor = 5
    for tail in (bytes([0x80] * 10 + [0x00]),  # eleven bytes
                 bytes([0xFF] * 9 + [0x7F]),  # 2^70 - 1
                 bytes([0x80] * 9 + [0x02])):  # 2^64: one past the zigzag range
        with pytest.raises(PayloadFormatError):
            read_payload(data + tail + bytes(2), n_anchor)
    # 2^64 - 1 is the zigzag code of the int64 minimum and still fits
    got = read_payload(data + bytes([0xFF] * 9 + [0x01]) + bytes(2), n_anchor)
    assert got.quantized[-1].tolist() == [INT64.min, 0, 0]


@pytest.mark.parametrize("field, value", [(0, np.inf), (0, np.nan), (1, np.nan),
                                          (1, -np.inf), (2, np.inf), (2, np.nan)])
def test_non_finite_quantization_params_raise(field, value):
    rng = np.random.default_rng(11)
    sent = _payload(rng)
    data = bytearray(write_payload(sent))
    struct.pack_into("<d", data, HEADER + 24 * len(sent.anchor_positions) + 1 + 8 * field,
                     value)
    with pytest.raises(PayloadFormatError):
        read_payload(bytes(data), len(sent.anchor_positions))
