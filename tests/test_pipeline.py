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
