import math

import numpy as np
import pytest

from anchormesh import (
    SequenceSpec,
    SplitMix64,
    TriangleMesh,
    decimate_to_base,
    distortion,
    generate_sequence,
    make_cube,
    make_grid,
    make_sphere,
    save_mesh,
)
from anchormesh.mesh import unique_edges
from anchormesh.qem import BOUNDARY_WEIGHT, _boundary_quadrics
from anchormesh.synth import _split_edges
from helpers import (
    connectivity_cases,
    dict_boundary_quadrics,
    icosahedron,
    loop_subdivide_once,
    scalar_decimate_to_base,
    sequential_split_edges,
)


def test_splitmix_reference_values():
    # first outputs for seed 1234567 from the reference splitmix64
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


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
    s = make_sphere(2)
    assert np.allclose(np.linalg.norm(s.vertices * 2.5, axis=1), 2.5, atol=1e-12)


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


@pytest.mark.parametrize("bad", [
    dict(rate=math.inf), dict(rate=math.nan), dict(velocity=(math.nan, 0.0, 0.0)),
    dict(axis=(0.0, 0.0, -math.inf)), dict(velocity=(1.0, 0.0)), dict(axis=(0.0, 0.0, 1.0, 0.0)),
], ids=["rate-inf", "rate-nan", "velocity-nan", "axis-inf", "velocity-2", "axis-4"])
def test_sequence_spec_rejects_a_motion_that_is_not_finite(bad):
    # a non-finite motion would write NaN coordinates into every later frame
    with pytest.raises(ValueError):
        SequenceSpec(motion="translate", **bad)


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


@pytest.mark.parametrize("region", [0.0, 1.0])
def test_bend_takes_either_end_of_the_region_range(region):
    spec = SequenceSpec(shape="grid", resolution=4, frames=2, motion="bend",
                        region=region, rate=0.4)
    frames = generate_sequence(spec)
    assert np.isfinite(frames[1].vertices).all()


def test_topology_jitter_changes_connectivity_not_geometry():
    spec = SequenceSpec(shape="sphere", resolution=2, frames=3,
                        topology_jitter=True, seed=5)
    frames = generate_sequence(spec)
    assert frames[0].n_vertices != frames[1].n_vertices or \
        not np.array_equal(frames[0].faces, frames[1].faces)
    for a, b in zip(frames, frames[1:]):
        report = distortion(a, b)
        assert np.sqrt(report.mse_d1) < 0.01 * report.peak


def _split_cases():
    """(name, mesh, counts): shapes, and the connectivity soups without their
    repeated-index face; counts reach past the edge count, so that faces
    with two and three drawn edges occur."""
    for level in (1, 2):
        yield f"sphere{level}", make_sphere(level), (1, 5, 30, 1000)
    yield "sphere3", make_sphere(3), (1, 48)  # 48: the sequence generator's count
    yield "grid6", make_grid(6), (1, 5, 30, 1000)
    yield "cube3", make_cube(3), (1, 5, 30, 1000)
    for name, verts, faces in connectivity_cases():
        if name.startswith("random"):
            keep = np.array([len(set(f)) == 3 for f in faces.tolist()])
            yield name, TriangleMesh(verts, faces[keep]), (1, 3, 10, 100)


@pytest.mark.parametrize("mesh,counts", [pytest.param(mesh, counts, id=name)
                                         for name, mesh, counts in _split_cases()])
def test_split_edges_matches_sequential_splits(mesh, counts):
    for seed in range(1, 8):
        for count in counts:
            got = _split_edges(mesh, SplitMix64(seed), count)
            want = sequential_split_edges(mesh, SplitMix64(seed), count)
            for a, b in ((got.vertices, want.vertices), (got.faces, want.faces)):
                assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), \
                    (seed, count)


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


def _jittered_grid_subset():
    # 50 of the 72 faces of a 6x6 grid, shuffled, on jittered vertices
    rng = np.random.default_rng(17)
    grid = make_grid(6)
    verts = grid.vertices + rng.normal(scale=0.03, size=grid.vertices.shape)
    return TriangleMesh(verts, grid.faces[rng.permutation(grid.n_faces)[:50]])


def _fin_grid():
    # a fin face on the diagonal (0, 5) of a 3x3 grid: three faces share that edge
    grid = make_grid(3)
    verts = np.vstack([grid.vertices, [[0.2, 0.2, 0.5]]])
    return TriangleMesh(verts, np.vstack([grid.faces, [[0, 5, grid.n_vertices]]]))


@pytest.mark.parametrize("mesh,closed", [
    pytest.param(make_grid(6), False, id="open-grid"),
    pytest.param(_jittered_grid_subset(), False, id="jittered-shuffled-grid-subset"),
    pytest.param(TriangleMesh(make_grid(4).vertices, make_grid(4).faces[:, ::-1]), False,
                 id="reversed-windings"),
    pytest.param(_fin_grid(), False, id="edge-of-three-faces"),
    pytest.param(make_cube(3), True, id="cube"),
    pytest.param(make_sphere(2), True, id="sphere"),
])
def test_boundary_quadrics_match_dict_oracle(mesh, closed):
    # boundary edges from the shared edge table, visited in face order, must
    # accumulate the same bits as a dict of edge -> faces in insertion order
    got = _boundary_quadrics(mesh, *unique_edges(mesh.faces, mesh.n_vertices))
    want = dict_boundary_quadrics(mesh, BOUNDARY_WEIGHT)
    assert got.tobytes() == want.tobytes()
    assert want.any() != closed


def _soups():
    """Random soups with faces repeated in other windings and an isolated
    vertex, decimated to 1/4 and 1/2 of their vertices."""
    params = []
    for name, verts, faces in connectivity_cases():
        if not name.startswith("random"):
            continue
        distinct = (faces[:, 0] != faces[:, 1]) & (faces[:, 1] != faces[:, 2]) \
            & (faces[:, 0] != faces[:, 2])
        mesh = TriangleMesh(verts, faces[distinct])
        for parts in (4, 2):
            params.append(pytest.param(mesh, round(mesh.n_vertices / parts),
                                       id=f"{name}-1/{parts}"))
    return params


def _with_isolated_vertices(mesh):
    """``mesh`` with one vertex on no face before its first and one after its
    last."""
    verts = np.vstack([[[5.0, 5.0, 5.0]], mesh.vertices, [[-5.0, 5.0, 5.0]]])
    return TriangleMesh(verts, mesh.faces + 1)


def _coincident_split(mesh):
    """``mesh`` split 1-to-4 with each edge's new vertex on the edge's lower
    end: coincident vertices, zero-length edges and zero-area faces."""
    edges, face_edges = unique_edges(mesh.faces, mesh.n_vertices)
    a, b, c = mesh.faces.T
    ab, bc, ca = (mesh.n_vertices + face_edges[:, i] for i in range(3))
    faces = np.concatenate([np.c_[a, ab, ca], np.c_[b, bc, ab], np.c_[c, ca, bc],
                            np.c_[ab, bc, ca]])
    return TriangleMesh(np.vstack([mesh.vertices, mesh.vertices[edges[:, 0]]]), faces)


def _jittered_frame(resolution, motion, seed):
    return generate_sequence(SequenceSpec(
        resolution=resolution, frames=2, motion=motion, rate=0.1, region=0.4,
        topology_jitter=True, seed=seed))[1]


def _sampled_targets():
    """Every 7th target of a jittered level-2 frame, so that the target is
    reached inside a run of collapses as well as at its end."""
    frame = _jittered_frame(2, "bend", 7)
    return [pytest.param(frame, target, id=f"jittered-l2-{target}")
            for target in range(4, frame.n_vertices, 7)]


@pytest.mark.parametrize("mesh,target", [
    pytest.param(make_sphere(3), 160, id="sphere"),
    pytest.param(make_grid(8), 30, id="open-grid"),
    pytest.param(make_cube(4), 40, id="cube"),
    pytest.param(generate_sequence(SequenceSpec(
        resolution=3, frames=1, motion="bend", rate=0.1, region=0.4, topology_jitter=True,
        seed=5))[0], 184, id="jittered-sphere"),
    pytest.param(_jittered_frame(3, "rotate", 5), 184, id="jittered-rotate-l3"),
    pytest.param(_with_isolated_vertices(make_sphere(1)), 41, id="isolated-vertices"),
    # most edges have error 0 and tie on it; lo, hi, stamps and seq decide
    pytest.param(_coincident_split(make_sphere(1)), 40, id="coincident-1/4"),
    pytest.param(_coincident_split(make_sphere(1)), 81, id="coincident-1/2"),
    *_sampled_targets(),
    *_soups(),
])
def test_decimate_matches_scalar_oracle(mesh, target):
    # runs of collapses with one batched solve each must leave the base of
    # one collapse and one scalar solve per pushed edge at a time, bit for bit
    got = decimate_to_base(mesh, target)
    want = scalar_decimate_to_base(mesh, target)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert np.array_equal(got.faces, want.faces)


@pytest.mark.parametrize("target", [44, 43, 42])
def test_decimate_keeps_only_vertices_with_a_face_without_collapsing(target):
    # 42 of the 44 vertices have a face, so no target from 42 up collapses
    # anything: the two isolated vertices go and the sphere comes back
    sphere = make_sphere(1)
    mesh = _with_isolated_vertices(sphere)
    for decimate in (decimate_to_base, scalar_decimate_to_base):
        out = decimate(mesh, target)
        assert out.vertices.tobytes() == sphere.vertices.tobytes()
        assert np.array_equal(out.faces, sphere.faces)


@pytest.mark.parametrize("mesh,target", _soups())
def test_decimate_counts_only_vertices_with_a_face(mesh, target):
    # an isolated vertex, and a vertex whose last face a collapse deleted,
    # are not base vertices: they never count toward the target, so no soup
    # decimates to nothing and each reaches half its vertices exactly
    got = decimate_to_base(mesh, target)
    assert got.n_faces > 0
    assert len(np.unique(got.faces)) == got.n_vertices <= target
    if target == round(mesh.n_vertices / 2):
        assert got.n_vertices == target
