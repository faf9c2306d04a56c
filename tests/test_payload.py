import dataclasses
import hashlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anchormesh as am
from anchormesh import (
    Payload,
    PayloadError,
    PayloadFormatError,
    QuantizationParams,
    decode_payload,
    encode_pair,
    read_payload,
    write_payload,
)
from anchormesh import cli, pipeline, subdivide
from anchormesh.payload import (
    FLAG_ADAPTIVE,
    VERSION,
    _read_varints,
    _write_varints,
    mesh_content_hash,
)
from helpers import scalar_read_varints, scalar_write_varints

INT64 = np.iinfo(np.int64)
HEADER = 4 + 1 + 1 + 32  # magic, version, flags, base hash
# fixed example order and no example database, so tier-1 stays deterministic
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)
int64s = st.integers(INT64.min, INT64.max)


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


@pytest.mark.parametrize("held", [False, True], ids=["cold slot", "slot holds another level"])
def test_a_hostile_level_byte_builds_no_plan(encoded, monkeypatch, held):
    # the stream length is checked before any plan is made, whether the
    # base's connectivity holds no plan or its plan at the payload's own level
    base, payload = encoded
    base = am.TriangleMesh(base.vertices, base.faces)  # an object no plan was made for
    if held:
        decode_payload(payload, base)
        assert base.connectivity.held(payload.level) is not None

    def no_plan(*args, **kwargs):
        raise AssertionError("decoder built a plan before checking the level")

    monkeypatch.setattr(subdivide, "split_plan", no_plan)
    data = bytearray(write_payload(payload))
    for level in (40, 255, payload.level + 1, payload.level - 1):
        data[HEADER + 24 * base.n_vertices] = level
        with pytest.raises(PayloadFormatError, match="expected"):
            decode_payload(read_payload(bytes(data), base.n_vertices), base)
    assert all(base.connectivity.held(level) is None
               for level in (40, 255, payload.level + 1, payload.level - 1))
    if held:  # the held plan still serves the payload's own level
        assert base.connectivity.held(payload.level) is not None
        decode_payload(payload, base)


def test_unknown_flag_bits_raise():
    rng = np.random.default_rng(9)
    sent = _payload(rng)
    data = bytearray(write_payload(sent))
    for flags in (0x02, 0x80, 0xFF, 0xFE, 0x03):
        data[5] = flags
        with pytest.raises(PayloadFormatError):
            read_payload(bytes(data), len(sent.anchor_positions))
    for flags, adaptive in ((0x00, False), (FLAG_ADAPTIVE, True)):
        data[5] = flags
        assert read_payload(bytes(data), len(sent.anchor_positions)).adaptive == adaptive


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


def test_varints_match_scalar_oracle():
    rng = np.random.default_rng(13)
    for size in (0, 1, 9, 1000):
        for bits in (6, 13, 40, 63):
            values = rng.integers(-(1 << bits), 1 << bits, size=size)
            fast, slow = bytearray(), bytearray()
            _write_varints(values, fast)
            scalar_write_varints(values, slow)
            assert fast == slow
            got = _read_varints(bytes(fast), 0)
            assert got.dtype == np.int64
            assert got.tolist() == scalar_read_varints(bytes(fast), 0) == values.tolist()


@DETERMINISTIC
@given(st.lists(int64s, max_size=60))
@example([INT64.min, INT64.max, 0, -1, 1])
def test_varint_round_trip_property(values):
    out = bytearray(b"\x07")  # reading starts past a leading byte
    _write_varints(np.array(values, dtype=np.int64), out)
    slow = bytearray(b"\x07")
    scalar_write_varints(values, slow)
    assert out == slow
    assert _read_varints(bytes(out), 1).tolist() == values


@DETERMINISTIC
@given(st.binary(max_size=40))
@example(bytes([0x80] * 10))  # truncated at the tenth byte
@example(bytes([0x80] * 11))
@example(bytes([0xFF] * 9 + [0x02]))
def test_varint_reader_matches_scalar_oracle_on_any_bytes(data):
    try:
        want = scalar_read_varints(data, 0)
    except PayloadFormatError:
        with pytest.raises(PayloadFormatError):
            _read_varints(data, 0)
    else:
        assert _read_varints(data, 0).tolist() == want


_TEN_BYTE_MIN = bytes([0xFF] * 9 + [0x01])  # zigzag 2^64 - 1: the int64 minimum


@pytest.mark.parametrize("data, want", [
    (b"", []),
    (bytes([0, 1, 2, 3, 0x7E, 0x7F]), [0, -1, 1, -2, 63, -64]),  # every varint one byte
    (bytes([2]) + _TEN_BYTE_MIN + bytes([1]), [1, INT64.min, -1]),
], ids=["empty", "one-byte", "ten-byte among one-byte"])
def test_varint_reader_on_one_byte_streams(data, want):
    # a stream of one-byte varints is read without splitting it into runs;
    # one longer varint among them takes the run reader
    got = _read_varints(b"\x80" + data, 1)
    assert got.dtype == np.int64
    assert got.tolist() == want == scalar_read_varints(data, 0)


def test_varint_reader_refuses_a_truncated_final_byte():
    # one-byte varints, then a final byte that says another follows
    for data in (bytes([2, 4, 0x80]), bytes([0x80]), bytes([6]) + _TEN_BYTE_MIN[:-1]):
        with pytest.raises(PayloadFormatError, match="truncated"):
            scalar_read_varints(data, 0)
        with pytest.raises(PayloadFormatError, match="truncated"):
            _read_varints(data, 0)


@DETERMINISTIC
@given(quantized=st.lists(st.tuples(int64s, int64s, int64s), max_size=20),
       n_anchor=st.integers(0, 4), level=st.integers(0, 255), adaptive=st.booleans())
@example(quantized=[(INT64.min, INT64.max, 0)], n_anchor=1, level=0, adaptive=True)
def test_write_read_round_trip_property(quantized, n_anchor, level, adaptive):
    sent = Payload(base_hash=bytes(range(32)),
                   anchor_positions=np.arange(3.0 * n_anchor).reshape(-1, 3) - 0.5,
                   level=level, params=QuantizationParams(8.0), adaptive=adaptive,
                   quantized=np.array(quantized, dtype=np.int64).reshape(-1, 3))
    got = read_payload(write_payload(sent), n_anchor)
    assert np.array_equal(got.anchor_positions, sent.anchor_positions)
    assert (got.level, got.params, got.adaptive) == (level, sent.params, adaptive)
    assert got.quantized.dtype == np.int64
    assert np.array_equal(got.quantized, sent.quantized)


def _decode_or_payload_error(data, base):
    """A mutated payload must decode or raise a PayloadError, nothing else."""
    try:
        decode_payload(read_payload(data, base.n_vertices), base)
    except PayloadError:
        pass


@DETERMINISTIC
@given(cut=st.integers(0, 1 << 20))
def test_truncated_payload_decodes_or_raises_payload_error(encoded, cut):
    base, payload = encoded
    data = write_payload(payload)
    _decode_or_payload_error(data[: cut % len(data)], base)


@DETERMINISTIC
@given(at=st.integers(0, 1 << 20), mask=st.integers(1, 255))
def test_byte_flip_decodes_or_raises_payload_error(encoded, at, mask):
    base, payload = encoded
    data = bytearray(write_payload(payload))
    data[at % len(data)] ^= mask
    _decode_or_payload_error(bytes(data), base)


def _assert_cli_decode_exits_3(data, base, tmp_path):
    """``anchormesh decode`` of ``data`` against ``base`` exits 3 and writes
    nothing."""
    (tmp_path / "pair.ancf").write_bytes(data)
    (tmp_path / "base.obj").write_bytes(am.save_mesh(base))
    out = tmp_path / "recon.obj"
    args = ["decode", str(tmp_path / "pair.ancf"), str(tmp_path / "base.obj"), str(out)]
    assert cli.main(args) == 3
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_anchor_position_raises(encoded, value, tmp_path):
    base, payload = encoded
    data = bytearray(write_payload(payload))
    struct.pack_into("<d", data, HEADER, value)  # first anchor coordinate
    with pytest.raises(PayloadFormatError):
        read_payload(bytes(data), base.n_vertices)
    _assert_cli_decode_exits_3(bytes(data), base, tmp_path)


def test_anchor_position_beyond_the_coordinate_limit_raises(encoded, tmp_path):
    # finite, but beyond the mesh rule: the read refuses it, and so does the
    # decoder where the payload was built in memory
    base, payload = encoded
    data = bytearray(write_payload(payload))
    struct.pack_into("<d", data, HEADER, 1e300)  # first anchor coordinate
    with pytest.raises(PayloadFormatError, match="anchor positions"):
        read_payload(bytes(data), base.n_vertices)
    anchors = payload.anchor_positions.copy()
    anchors[0, 0] = 1e300
    with pytest.raises(PayloadFormatError, match="anchor positions"):
        decode_payload(dataclasses.replace(payload, anchor_positions=anchors), base)
    _assert_cli_decode_exits_3(bytes(data), base, tmp_path)


@pytest.mark.parametrize("value", [np.nan, 1e300])
def test_decode_refuses_a_bad_anchor_before_any_split(encoded, monkeypatch, value):
    # a payload built in memory skips the read: the decoder's anchor mesh
    # applies the coordinate rule before the base's edges are sorted
    base, payload = encoded
    base = am.TriangleMesh(base.vertices, base.faces)  # no edge table was made for it
    anchors = payload.anchor_positions.copy()
    anchors[3, 1] = value

    def no_split(*args, **kwargs):
        raise AssertionError("edge_table called before the anchors were checked")

    monkeypatch.setattr(subdivide, "edge_table", no_split)
    with pytest.raises(PayloadFormatError, match="anchor positions"):
        decode_payload(dataclasses.replace(payload, anchor_positions=anchors), base)


@pytest.mark.parametrize("alpha", [5e-324, 1e-310])
def test_hostile_alpha_raises_payload_format_error(encoded, alpha, tmp_path):
    # 5e-324 times a weight below one rounds to a zero scale; 1e-310 leaves a
    # scale so small that dividing by it overflows to inf
    base, payload = encoded
    data = bytearray(write_payload(payload))
    struct.pack_into("<d", data, HEADER + 24 * base.n_vertices + 1, alpha)
    mutated = read_payload(bytes(data), base.n_vertices)
    assert mutated.params.alpha == alpha
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PayloadFormatError):
            decode_payload(mutated, base)
    _assert_cli_decode_exits_3(bytes(data), base, tmp_path)


def test_base_hash_is_the_arrays_not_their_text(encoded):
    base, _ = encoded
    digest = mesh_content_hash(base)
    assert len(digest) == 32
    assert mesh_content_hash(am.load_mesh(am.save_mesh(base))) == digest
    moved = base.vertices.copy()
    moved[7, 1] = np.nextafter(moved[7, 1], np.inf)  # one ulp
    assert mesh_content_hash(am.TriangleMesh(moved, base.faces)) != digest
    swapped = base.faces.copy()
    swapped[[2, 5]] = swapped[[5, 2]]
    assert mesh_content_hash(am.TriangleMesh(base.vertices, swapped)) != digest
    header = struct.pack("<2q", base.n_vertices, base.n_faces)
    assert digest == hashlib.sha256(header + base.vertices.astype("<f8").tobytes()
                                    + base.faces.astype("<i8").tobytes()).digest()


def test_version_1_header_raises(encoded):
    base, payload = encoded
    data = bytearray(write_payload(payload))
    assert VERSION == 2 and data[4] == VERSION
    data[4] = 1
    with pytest.raises(PayloadFormatError, match="version 1"):
        read_payload(bytes(data), base.n_vertices)
