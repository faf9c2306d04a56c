import numpy as np
import pytest

import anchormesh as am
from anchormesh import (
    BaseHashMismatchError,
    decode_payload,
    encode_pair,
    read_payload,
    write_payload,
)


@pytest.fixture(scope="module")
def pair():
    spec = am.SequenceSpec(shape="sphere", resolution=2, frames=2, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=3)
    reference, target = am.generate_sequence(spec)
    return am.decimate_to_base(reference, 40), target


def test_encode_is_byte_identical_across_runs(pair):
    base, target = pair
    first = write_payload(encode_pair(base, target).payload)
    assert write_payload(encode_pair(base, target).payload) == first


def test_decode_of_written_bytes_matches_in_memory_payload(pair):
    base, target = pair
    result = encode_pair(base, target)
    from_memory = decode_payload(result.payload, base)
    from_bytes = decode_payload(read_payload(write_payload(result.payload), base.n_vertices),
                                base)
    assert np.array_equal(from_bytes.vertices, from_memory.vertices)
    assert np.array_equal(from_bytes.faces, from_memory.faces)
    assert from_memory.n_vertices == result.subdivided.mesh.n_vertices


def test_decode_rejects_another_base(pair):
    base, target = pair
    payload = encode_pair(base, target).payload
    other = am.TriangleMesh(base.vertices + 1.0, base.faces)
    with pytest.raises(BaseHashMismatchError):
        decode_payload(payload, other)


def _count_edge_passes(monkeypatch):
    """The face counts of every ``unique_edges`` call from here on."""
    from anchormesh import mesh, pipeline, quantize, subdivide
    from anchormesh.mesh import unique_edges

    passes = []

    def counted(faces, n_vertices):
        passes.append(len(faces))
        return unique_edges(faces, n_vertices)

    for module in (mesh, pipeline, quantize, subdivide):  # wherever a caller finds it
        monkeypatch.setattr(module, "unique_edges", counted, raising=False)
    return passes


def test_decode_makes_one_edge_pass_over_the_base(pair, monkeypatch):
    # at every level the first decode against a base object makes the
    # base's one edge pass, which serves the stream-length check and the
    # base's plan; each later split takes its edges from the one before. A
    # repeat decode against that object reuses the plan and makes none. The
    # decoded vertices and faces are those of an unpatched decode
    base, target = pair
    payloads = [encode_pair(base, target, am.CodecConfig(level=level, qem_refine=False)).payload
                for level in range(5)]
    wants = [decode_payload(payload, base) for payload in payloads]
    passes = _count_edge_passes(monkeypatch)
    for payload, want in zip(payloads, wants):
        fresh = am.TriangleMesh(base.vertices, base.faces)  # no plan was made for it
        for expected in ([base.n_faces], []):
            passes.clear()
            got = decode_payload(payload, fresh)
            assert passes == expected, payload.level
            assert np.array_equal(got.vertices, want.vertices)
            assert np.array_equal(got.faces, want.faces)


def test_an_encode_plan_serves_its_decodes(pair, monkeypatch):
    # the encoder splits the anchor with the base's plan, so decoding its
    # payload against that base object sorts no edges, and repeated decodes
    # share the plan's faces
    from anchormesh.subdivide import held_plan

    base = am.TriangleMesh(pair[0].vertices, pair[0].faces)  # no plan was made for it
    result = encode_pair(base, pair[1], am.CodecConfig(level=3))
    assert held_plan(base, 3) is not None
    passes = _count_edge_passes(monkeypatch)
    first, second = (decode_payload(result.payload, base) for _ in range(2))
    assert passes == []
    assert first.faces is second.faces is result.subdivided.mesh.faces
    assert np.array_equal(first.vertices, second.vertices)


def test_a_plan_never_serves_another_base_object(pair):
    # another object with the base's faces and other vertices is another
    # base: a payload of the first is refused against it, and its own
    # payload decodes to its own result whichever plan the slot holds
    base, target = pair
    config = am.CodecConfig(level=2, alpha=64.0)
    moved = am.TriangleMesh(base.vertices * 1.5, base.faces)
    ours = encode_pair(base, target, config).payload
    theirs = encode_pair(moved, target, config).payload
    want = decode_payload(theirs, moved)
    mine = decode_payload(ours, base)  # the slot now holds the first base's plan
    with pytest.raises(BaseHashMismatchError):
        decode_payload(ours, moved)
    got = decode_payload(theirs, moved)
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.faces, want.faces)
    assert not np.array_equal(got.vertices, mine.vertices)
    # an equal copy of the base decodes the first payload bitwise alike
    copy = decode_payload(ours, am.TriangleMesh(base.vertices, base.faces))
    assert np.array_equal(copy.vertices, mine.vertices)
    assert np.array_equal(copy.faces, mine.faces)


def test_a_pair_near_the_coordinate_limit_codes_without_overflow(pair):
    # the limit keeps the quadrics' sixth-degree plane norms finite, so every
    # stage runs on the pair scaled near it, and an overflow would raise. At
    # half the limit this coarse alpha's reconstruction stays inside it too
    from anchormesh.mesh import COORDINATE_LIMIT

    scale = 0.5 * COORDINATE_LIMIT / max(np.abs(m.vertices).max() for m in pair)
    base, target = (am.TriangleMesh(m.vertices * scale, m.faces) for m in pair)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert am.decimate_to_base(target, 40).n_vertices == 40
        result = encode_pair(base, target, am.CodecConfig(alpha=8.0 / scale))
        report = am.distortion(target, decode_payload(result.payload, base))
    assert np.isfinite([report.d1_psnr, report.d2_psnr]).all()
    assert np.count_nonzero(result.payload.quantized)


@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "uniform"])
def test_decode_is_within_half_a_step_of_the_encoded_field(pair, adaptive):
    # the decoder applies the encoder's weight rule: adaptive weights, or 1.
    # At the default hbar 6 nearly every vertex with a nonzero value has
    # weight 1 (valence 6), and the two modes would decode alike
    base, target = pair
    config = am.CodecConfig(level=2, alpha=64.0, hbar=3.0, adaptive_quant=adaptive)
    result = encode_pair(base, target, config)
    sub = result.subdivided
    weights = (am.adaptive_weights(sub.neighbor_counts, config.hbar) if adaptive
               else np.ones(sub.mesh.n_vertices))
    bound = 1.0 / (2.0 * config.alpha * weights)[:, None] + 1e-12
    decoded = decode_payload(result.payload, base)
    assert np.all(np.abs(decoded.vertices - (sub.mesh.vertices + result.field)) <= bound)


# a new value of every field that only quantization reads
_REQUANTIZED = {"alpha": 2.0, "delta": 0.3, "hbar": 3.0, "adaptive_quant": False}


@pytest.mark.parametrize("field", sorted(_REQUANTIZED))
@pytest.mark.parametrize("qem", [True, False], ids=["qem", "coarse"])
@pytest.mark.parametrize("level", [0, 2])
def test_reuse_gives_the_bytes_of_a_fresh_encode(pair, monkeypatch, level, qem, field):
    from anchormesh import pipeline

    base, target = pair
    config = am.CodecConfig(level=level, qem_refine=qem)
    first = encode_pair(base, target, config)
    changed = config.override(**{field: _REQUANTIZED[field]})
    want = write_payload(encode_pair(base, target, changed).payload)
    assert want != write_payload(first.payload)

    def refit(*args, **kwargs):
        raise AssertionError("a reusing encode fitted the pair again")

    monkeypatch.setattr(pipeline, "build_octree", refit)
    monkeypatch.setattr(pipeline, "compute_displacements", refit)
    reused = encode_pair(base, target, changed, reuse=first)
    assert write_payload(reused.payload) == want
    assert reused.config == changed and reused.target is target
    assert reused.field is first.field


@pytest.mark.parametrize("change", [
    dict(motion_estimation=False), dict(qem_refine=False), dict(collapses_per_anchor=2),
    dict(level=1),
], ids=lambda change: next(iter(change)))
def test_reuse_raises_on_other_anchor_settings(pair, change):
    base, target = pair
    first = encode_pair(base, target)
    with pytest.raises(ValueError, match="anchor settings"):
        encode_pair(base, target, am.CodecConfig(alpha=2.0, **change), reuse=first)


def test_reuse_raises_on_another_base_or_target(pair):
    base, target = pair
    first = encode_pair(base, target)
    config = am.CodecConfig(alpha=2.0)
    with pytest.raises(ValueError, match="base"):
        encode_pair(am.TriangleMesh(base.vertices + 1.0, base.faces), target, config,
                    reuse=first)
    # an equal copy of the target is another object: reuse is for one sweep's
    # own frames, and identity is what it can check without hashing them
    copy = am.TriangleMesh(target.vertices.copy(), target.faces.copy())
    with pytest.raises(ValueError, match="target"):
        encode_pair(base, copy, config, reuse=first)
    # the base is identified by its content hash, as a decoder does
    same_base = am.TriangleMesh(base.vertices.copy(), base.faces.copy())
    assert (write_payload(encode_pair(same_base, target, config, reuse=first).payload)
            == write_payload(encode_pair(base, target, config).payload))
