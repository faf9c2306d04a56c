import numpy as np
import pytest

from anchormesh import (
    SequenceSpec,
    SplitMix64,
    decimate_to_base,
    distortion,
    generate_sequence,
    make_cube,
    make_grid,
    make_sphere,
    save_mesh,
)
from helpers import icosahedron, loop_subdivide_once, scalar_decimate_to_base


def test_splitmix_reference_values():
    # first outputs for seed 1234567 from the reference splitmix64
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


def test_splitmix_uniform_range():
    rng = SplitMix64(42)
    xs = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < np.mean(xs) < 0.6


def test_shapes_have_expected_sizes():
    assert make_sphere(0).n_vertices == 12
    assert make_sphere(2).n_vertices == 162
    assert make_sphere(3).n_vertices == 642
    assert make_grid(4).n_vertices == 25
    assert make_grid(4).n_faces == 32
    cube = make_cube(2)
    assert cube.n_vertices == 26
    assert cube.n_faces == 48


def test_sphere_vertices_on_radius():
    s = make_sphere(2, radius=2.5)
    assert np.allclose(np.linalg.norm(s.vertices, axis=1), 2.5, atol=1e-12)


def test_sphere_matches_loop_subdivided_icosahedron():
    ico = icosahedron()
    verts, faces = ico.vertices / np.linalg.norm(ico.vertices, axis=1, keepdims=True), ico.faces
    for level in range(4):
        s = make_sphere(level)
        assert np.array_equal(s.vertices, verts)
        assert np.array_equal(s.faces, faces)
        verts, faces, _ = loop_subdivide_once(verts, faces)
        verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)


def test_invalid_resolution_rejected():
    with pytest.raises(ValueError):
        make_grid(0)
    with pytest.raises(ValueError):
        make_cube(0)
    with pytest.raises(ValueError):
        make_sphere(-1)
    with pytest.raises(ValueError):
        generate_sequence(SequenceSpec(shape="grid", resolution=0))


def test_static_sequence_identical_frames():
    frames = generate_sequence(SequenceSpec(shape="grid", resolution=3, frames=3))
    assert len(frames) == 3
    for f in frames[1:]:
        assert np.array_equal(f.vertices, frames[0].vertices)
        assert np.array_equal(f.faces, frames[0].faces)


def test_translate_sequence_exact_offsets():
    spec = SequenceSpec(shape="grid", resolution=3, frames=3,
                        motion="translate", velocity=(1.0, 0.0, 0.0))
    frames = generate_sequence(spec)
    assert np.array_equal(frames[1].vertices, frames[0].vertices + [1.0, 0, 0])
    assert np.array_equal(frames[2].vertices, frames[0].vertices + [2.0, 0, 0])


def test_rotate_sequence_preserves_shape():
    spec = SequenceSpec(shape="sphere", resolution=1, frames=3,
                        motion="rotate", axis=(0, 0, 1), rate=0.3)
    frames = generate_sequence(spec)
    # rotation about the centroid: pairwise distances preserved
    d0 = np.linalg.norm(frames[0].vertices[0] - frames[0].vertices[5])
    d2 = np.linalg.norm(frames[2].vertices[0] - frames[2].vertices[5])
    assert d2 == pytest.approx(d0, rel=1e-12)
    assert not np.array_equal(frames[0].vertices, frames[1].vertices)


def test_bend_moves_only_the_region():
    spec = SequenceSpec(shape="grid", resolution=6, frames=2,
                        motion="bend", region=0.5, rate=0.4)
    frames = generate_sequence(spec)
    moved = np.linalg.norm(frames[1].vertices - frames[0].vertices, axis=1)
    x = frames[0].vertices[:, 0]
    assert np.all(moved[x <= 0.5] == 0.0)
    assert np.any(moved[x > 0.6] > 0.0)


def test_topology_jitter_changes_connectivity_not_geometry():
    spec = SequenceSpec(shape="sphere", resolution=2, frames=3,
                        topology_jitter=True, seed=5)
    frames = generate_sequence(spec)
    assert frames[0].n_vertices != frames[1].n_vertices or \
        not np.array_equal(frames[0].faces, frames[1].faces)
    for a, b in zip(frames, frames[1:]):
        report = distortion(a, b)
        assert np.sqrt(report.mse_d1) < 0.01 * report.peak


def test_sequence_deterministic_bytes():
    spec = SequenceSpec(shape="cube", resolution=3, frames=4, motion="rotate",
                        axis=(1, 1, 0), rate=0.2, topology_jitter=True, seed=99)
    a = [save_mesh(m) for m in generate_sequence(spec)]
    b = [save_mesh(m) for m in generate_sequence(spec)]
    assert a == b
    different = generate_sequence(SequenceSpec(shape="cube", resolution=3, frames=4,
                                               motion="rotate", axis=(1, 1, 0), rate=0.2,
                                               topology_jitter=True, seed=100))
    assert any(save_mesh(m) != x for m, x in zip(different, a))


# --- decimation ---------------------------------------------------------------

def test_decimate_identity_when_target_reached():
    m = make_sphere(1)
    out = decimate_to_base(m, m.n_vertices)
    assert np.array_equal(out.vertices, m.vertices)
    assert np.array_equal(out.faces, m.faces)


def test_decimate_rejects_tiny_target():
    with pytest.raises(ValueError):
        decimate_to_base(make_sphere(1), 3)


def test_decimate_reduces_vertex_count():
    m = make_sphere(2)
    out = decimate_to_base(m, 60)
    assert out.n_vertices <= 60
    assert out.n_faces > 0


def test_decimate_flat_grid_stays_exact():
    grid = make_grid(8)
    out = decimate_to_base(grid, grid.n_vertices // 2)
    assert out.n_vertices <= grid.n_vertices // 2
    assert np.all(np.abs(out.vertices[:, 2]) < 1e-9)
    report = distortion(grid, out)
    assert np.sqrt(report.mse_d1) < 1e-6


def test_decimate_sphere_within_two_percent():
    m = make_sphere(3)  # 642 vertices
    out = decimate_to_base(m, 162)
    assert out.n_vertices <= 162
    report = distortion(m, out)
    assert np.sqrt(report.mse_d1) < 0.02  # radius 1.0


def test_decimate_deterministic():
    m = make_sphere(2)
    a = decimate_to_base(m, 50)
    b = decimate_to_base(m, 50)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


@pytest.mark.parametrize("mesh,target", [
    pytest.param(make_sphere(3), 160, id="sphere"),
    pytest.param(make_grid(8), 30, id="open-grid"),
    pytest.param(make_cube(4), 40, id="cube"),
    pytest.param(generate_sequence(SequenceSpec(
        resolution=3, frames=1, motion="bend", rate=0.1, region=0.4, topology_jitter=True,
        seed=5))[0], 184, id="jittered-sphere"),
])
def test_decimate_matches_scalar_oracle(mesh, target):
    # batched solves per heap refill must leave the base of one scalar solve
    # per pushed edge, bit for bit
    got = decimate_to_base(mesh, target)
    want = scalar_decimate_to_base(mesh, target)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert np.array_equal(got.faces, want.faces)
