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


def test_decode_makes_one_edge_pass_over_the_base(pair, monkeypatch):
    # the stream-length check and the first split share the base's edges,
    # and the decoded vertices are those of separate passes
    from anchormesh import pipeline, subdivide
    from anchormesh.mesh import unique_edges

    base, target = pair
    payload = encode_pair(base, target).payload
    want = decode_payload(payload, base)
    passes = []

    def counted(faces, n_vertices):
        passes.append(len(faces))
        return unique_edges(faces, n_vertices)

    monkeypatch.setattr(pipeline, "unique_edges", counted)
    monkeypatch.setattr(subdivide, "unique_edges", counted)
    got = decode_payload(payload, base)
    assert passes.count(base.n_faces) == 1
    assert len(passes) == payload.level
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.faces, want.faces)
