import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchormesh as am
from anchormesh import (
    OFF_VERTEX,
    MeshValidationError,
    TriangleMesh,
    build_octree,
    generate_coarse_anchor,
    make_grid,
    traversal_order,
)
from anchormesh.coarse import dependency_waves, traversal
from anchormesh.mesh import directed_edges, unique_edges
from helpers import (
    AdjacencyMap,
    MotionField,
    build_adjacency,
    estimate_motion,
    icosahedron,
    queue_traversal_order,
    random_mesh,
    sequential_coarse_anchor,
)


def _vertex_only_mesh(n):
    return TriangleMesh(np.arange(3 * n, dtype=float).reshape(n, 3),
                        np.zeros((0, 3), dtype=np.int64))


def _graph_order(neighbors):
    """Traversal order of a hand-made graph: the directed edges (v, u) of
    every vertex ``v`` and each ``u`` of ``neighbors[v]``, ascending."""
    directed = [(v, u) for v, around in enumerate(neighbors) for u in sorted(around)]
    return traversal(directed, len(neighbors))[0].tolist()


def test_traversal_path_graph():
    assert _graph_order([{1}, {0, 2}, {1}]) == [0, 1, 2]


def test_traversal_two_components():
    neighbors = [{1, 2}, {0, 2}, {0, 1}, {4, 5}, {3, 5}, {3, 4}]
    assert _graph_order(neighbors) == [0, 1, 2, 3, 4, 5]


def test_traversal_bfs_expands_ascending():
    # star around vertex 0: neighbors visited in ascending index order
    assert _graph_order([{4, 2, 3, 1}, {0}, {0}, {0}, {0}]) == [0, 1, 2, 3, 4]


def test_traversal_is_permutation_random():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = random_mesh(rng)
        order = traversal_order(m)
        assert sorted(order) == list(range(m.n_vertices))


def test_estimate_motion_mean_and_fallback():
    mesh = _vertex_only_mesh(4)
    adj = AdjacencyMap([{1, 2, 3}, {0}, {0}, {0}], [set()] * 4, [])
    vectors = np.array([[0.0] * 3, [1, 0, 0], [0, 1, 0], [9, 9, 9]])
    processed = np.array([False, True, True, False])
    motion = MotionField(vectors, processed)
    assert np.allclose(estimate_motion(0, adj, motion), [0.5, 0.5, 0.0])
    # vertex 3 has only unprocessed neighbors -> zero fallback
    assert np.array_equal(estimate_motion(3, adj, MotionField(vectors, np.zeros(4, bool))),
                          np.zeros(3))
    # all processed neighbors share one motion -> that motion
    uniform = MotionField(np.tile([1.0, 0, 0], (4, 1)), np.ones(4, bool))
    assert np.allclose(estimate_motion(0, adj, uniform), [1, 0, 0])


def test_identical_target_gives_identity_anchor():
    base = icosahedron()
    anchor, motion = generate_coarse_anchor(base, base)
    assert np.array_equal(anchor.mesh.vertices, base.vertices)
    assert np.array_equal(anchor.mesh.faces, base.faces)
    assert np.array_equal(anchor.correspondence, np.arange(base.n_vertices))
    assert np.all(motion == 0.0)
    assert anchor.stage == "coarse"


def test_small_translation_matches_twins():
    base = icosahedron()
    # half the minimum inter-vertex distance keeps every twin nearest
    dists = np.linalg.norm(base.vertices[:, None] - base.vertices[None, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    t = np.array([1.0, 0.4, -0.2])
    t *= 0.49 * dists.min() / np.linalg.norm(t)
    target = TriangleMesh(base.vertices + t, base.faces)
    # oracle: brute-force check that each twin really is the nearest
    for i, v in enumerate(base.vertices):
        d = np.linalg.norm(target.vertices - v, axis=1)
        assert np.argmin(d) == i
    anchor, _ = generate_coarse_anchor(base, target)
    assert np.array_equal(anchor.correspondence, np.arange(base.n_vertices))


def test_large_translation_without_motion_estimation_miscorresponds():
    base = make_grid(8)
    spacing = 1.0 / 8.0
    target = TriangleMesh(base.vertices + [3 * spacing, 0, 0], base.faces)
    anchor, _ = generate_coarse_anchor(base, target, motion_estimation=False)
    # brute-force: at least one vertex must not match its translated twin
    assert np.any(anchor.correspondence != np.arange(base.n_vertices))


def test_large_translation_with_motion_estimation_recovers_twins():
    base = make_grid(8)
    spacing = 1.0 / 8.0
    target = TriangleMesh(base.vertices + [3 * spacing, 0, 0], base.faces)
    anchor, _ = generate_coarse_anchor(base, target, motion_estimation=True)
    assert np.array_equal(anchor.correspondence, np.arange(base.n_vertices))


def test_anchor_positions_are_target_vertices_exactly():
    rng = np.random.default_rng(23)
    base = random_mesh(rng, n_vertices=25, n_faces=35)
    target = random_mesh(rng, n_vertices=40, n_faces=55)
    anchor, motion = generate_coarse_anchor(base, target)
    for i, j in enumerate(anchor.correspondence):
        assert j != OFF_VERTEX
        assert np.array_equal(anchor.mesh.vertices[i], target.vertices[j])
    # realized motion is exactly the matched-minus-reference difference
    assert np.array_equal(motion, anchor.mesh.vertices - base.vertices)
    assert np.array_equal(anchor.mesh.faces, base.faces)


def test_coarse_anchor_deterministic():
    rng = np.random.default_rng(29)
    base = random_mesh(rng, n_vertices=30, n_faces=45)
    target = random_mesh(rng, n_vertices=50, n_faces=70)
    index = build_octree(target.vertices)
    a1, m1 = generate_coarse_anchor(base, target, index)
    a2, m2 = generate_coarse_anchor(base, target, index)
    assert np.array_equal(a1.mesh.vertices, a2.mesh.vertices)
    assert np.array_equal(a1.correspondence, a2.correspondence)
    assert np.array_equal(m1, m2)


def _traversal(mesh):
    n = mesh.n_vertices
    return traversal(directed_edges(unique_edges(mesh.faces, n)[0]), n)


def test_traversal_matches_the_queue_oracle():
    rng = np.random.default_rng(19)
    meshes = [random_mesh(rng, n_vertices=k, n_faces=f)
              for k, f in ((40, 60), (60, 20), (12, 4), (200, 150))]
    meshes.append(_vertex_only_mesh(7))
    for m in meshes:
        order, predecessors = _traversal(m)
        assert order.tolist() == traversal_order(m) == queue_traversal_order(m)
        rank = np.argsort(order)
        neighbors = build_adjacency(m).neighbors
        want = [(v, u) for v in range(m.n_vertices) for u in sorted(neighbors[v])
                if rank[u] < rank[v]]
        assert predecessors.tolist() == [list(row) for row in want]


def test_dependency_waves_follow_their_definition():
    rng = np.random.default_rng(4)
    for m in (random_mesh(rng, n_vertices=50, n_faces=70), icosahedron(), make_grid(6)):
        order, predecessors = _traversal(m)
        wave = dependency_waves(order, predecessors)
        for v in range(m.n_vertices):
            before = predecessors[predecessors[:, 0] == v, 1]
            assert wave[v] == (1 + wave[before].max() if len(before) else 0)


def _bend_pair(resolution, seed, base_size):
    spec = am.SequenceSpec(shape="sphere", resolution=resolution, frames=2, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=seed)
    reference, target = am.generate_sequence(spec)
    return am.decimate_to_base(reference, base_size), target


def _assert_matches_sequential(base, target, motion_estimation):
    anchor, motion = generate_coarse_anchor(base, target, motion_estimation=motion_estimation)
    want, want_motion = sequential_coarse_anchor(base, target,
                                                 motion_estimation=motion_estimation)
    assert np.array_equal(anchor.correspondence, want.correspondence)
    assert np.array_equal(anchor.mesh.vertices, want.mesh.vertices)
    assert np.array_equal(anchor.mesh.faces, want.mesh.faces)
    assert np.array_equal(motion, want_motion.vectors)
    if motion_estimation:  # the fine stage reuses the coarse stage's traversal
        assert anchor.order.tolist() == queue_traversal_order(base)


@pytest.mark.parametrize("motion_estimation", [True, False])
def test_coarse_anchor_matches_the_sequential_oracle_on_a_bend_sphere(motion_estimation):
    base, target = _bend_pair(3, 5, 184)
    _assert_matches_sequential(base, target, motion_estimation)


@st.composite
def coarse_pairs(draw):
    """A base of several components (random soups, a translated grid) and
    isolated vertices, and a target near it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = [random_mesh(rng, n_vertices=draw(st.integers(3, 25)),
                         n_faces=draw(st.integers(1, 30)))
             for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        parts.append(TriangleMesh(make_grid(3).vertices + 2.0, make_grid(3).faces))
    vertices, faces, offset = [], [], 0
    for part in parts:
        vertices.append(part.vertices)
        faces.append(part.faces + offset)
        offset += part.n_vertices
    isolated = draw(st.integers(0, 4))
    vertices.append(rng.uniform(-1, 1, (isolated, 3)))
    vertices = np.vstack(vertices)
    perm = rng.permutation(len(vertices))  # interleave components and isolated vertices
    rank = np.argsort(perm)
    base = TriangleMesh(vertices[perm], rank[np.vstack(faces)])
    moved = base.vertices + rng.normal(0, draw(st.sampled_from([0.0, 0.05, 0.3])),
                                       base.vertices.shape)
    # lattice targets make exact ties between candidate matches common
    if draw(st.booleans()):
        moved = np.round(moved * 4) / 4
    target = TriangleMesh(np.vstack([moved, rng.uniform(-1.5, 1.5, (draw(st.integers(0, 30)), 3))]),
                          np.zeros((0, 3), dtype=np.int64))
    return base, target


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(coarse_pairs(), st.booleans())
def test_coarse_anchor_matches_the_sequential_oracle(pair, motion_estimation):
    _assert_matches_sequential(*pair, motion_estimation)


def test_coarse_anchor_rejects_non_finite_coordinates():
    base = icosahedron()
    broken = base.vertices.copy()
    broken[3, 1] = np.nan
    with pytest.raises(MeshValidationError):
        generate_coarse_anchor(TriangleMesh(broken, base.faces), base)
    broken[3, 1] = np.inf
    with pytest.raises(MeshValidationError):
        generate_coarse_anchor(base, TriangleMesh(broken, base.faces))
    with pytest.raises(MeshValidationError):
        am.encode_pair(TriangleMesh(broken, base.faces), base,
                       am.CodecConfig().override(qem_refine=False))


@pytest.mark.parametrize("motion_estimation", [True, False])
@pytest.mark.parametrize("qem_refine", [True, False])
def test_a_nan_base_vertex_is_an_input_error(motion_estimation, qem_refine):
    # a NaN base vertex once matched the last target vertex silently and,
    # through the neighbour mean, poisoned the matches after it. A mesh can
    # no longer hold one, so no stage meets it; the pair without it codes
    base, target = _bend_pair(1, 3, 12)
    broken = base.vertices.copy()
    broken[0] = np.nan
    with pytest.raises(MeshValidationError, match="NaN"):
        TriangleMesh(broken, base.faces)
    with pytest.raises(MeshValidationError, match="NaN"):
        TriangleMesh.derived(broken, base.connectivity)
    config = am.CodecConfig().override(motion_estimation=motion_estimation,
                                       qem_refine=qem_refine)
    am.encode_pair(base, target, config)
