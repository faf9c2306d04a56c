import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchormesh import (
    OFF_VERTEX,
    TriangleMesh,
    decimate_to_base,
    distortion,
    generate_coarse_anchor,
    make_grid,
    make_sphere,
    refine_anchor,
)
from anchormesh.grid import sq_distances_to_terms, triangle_terms
from anchormesh.mesh import MeshValidationError
from anchormesh.qem import _TRIU_COLS, _TRIU_ROWS, _optimal_points, all_vertex_quadrics
from helpers import (
    Plane,
    Quadric,
    build_adjacency,
    brute_force_surface_points,
    covering_faces,
    edge_quadric,
    optimal_point,
    plane_quadric,
    queue_traversal_order,
    random_mesh,
    scalar_best_collapse,
    scalar_optimal_point,
    unit_cube,
    vertex_quadric,
)


def _normalized_plane(*coeffs):
    v = np.asarray(coeffs, dtype=float)
    v = v / np.linalg.norm(v)
    return Plane(*v)


def _random_plane(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Plane(*v)


# --- plane quadrics ---------------------------------------------------------

def test_plane_quadric_point_on_plane():
    q = plane_quadric(_normalized_plane(0, 0, 1, 0))
    assert q.evaluate([5, 7, 0]) == 0.0


def test_plane_quadric_squared_distance():
    q = plane_quadric(_normalized_plane(0, 0, 1, 0))
    assert q.evaluate([0, 0, 2]) == pytest.approx(4.0, abs=1e-15)


def test_plane_quadric_matches_direct_formula():
    rng = np.random.default_rng(41)
    for _ in range(500):
        plane = _random_plane(rng)
        q = plane_quadric(plane)
        x = rng.uniform(-3, 3, size=3)
        direct = float(plane.vector() @ np.append(x, 1.0)) ** 2
        assert abs(q.evaluate(x) - direct) < 1e-12
        # evaluation agrees with the explicit 4x4 matrix form
        h = np.append(x, 1.0)
        assert abs(q.evaluate(x) - h @ q.matrix() @ h) < 1e-12


# --- vertex / edge quadrics -------------------------------------------------

def test_vertex_quadric_flat_region():
    grid = make_grid(4)
    adj = build_adjacency(grid)
    # interior vertex: all incident faces lie in z=0
    interior = 2 * 5 + 2
    k = len(adj.vertex_faces[interior])
    q = vertex_quadric(grid, adj, interior)
    assert q.evaluate(grid.vertices[interior]) == pytest.approx(0.0, abs=1e-15)
    h = 0.37
    off = grid.vertices[interior] + [0, 0, h]
    assert q.evaluate(off) == pytest.approx(k * h * h, rel=1e-12)


def test_vertex_quadric_isolated_vertex_is_zero():
    m = TriangleMesh(np.eye(4, 3), [[0, 1, 2]])
    adj = build_adjacency(m)
    q = vertex_quadric(m, adj, 3)
    assert np.all(q.coeffs == 0.0)


def test_vertex_quadric_skips_degenerate_faces():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=float)
    m = TriangleMesh(verts, [[0, 1, 2], [0, 1, 3]])  # second face is collinear
    adj = build_adjacency(m)
    q = vertex_quadric(m, adj, 0)
    single = plane_quadric(_normalized_plane(0, 0, 1, 0))
    assert np.allclose(q.coeffs, single.coeffs, atol=1e-15)


def test_vertex_quadric_cube_corner():
    cube = unit_cube()
    adj = build_adjacency(cube)
    q = vertex_quadric(cube, adj, 0)
    assert q.evaluate(cube.vertices[0]) == pytest.approx(0.0, abs=1e-12)
    assert q.evaluate(cube.vertices[0] + 0.25) > 1e-3


def test_all_vertex_quadrics_matches_scalar_path():
    rng = np.random.default_rng(43)
    m = random_mesh(rng, n_vertices=20, n_faces=30)
    adj = build_adjacency(m)
    stacked = all_vertex_quadrics(m)
    for v in range(m.n_vertices):
        assert np.allclose(stacked[v], vertex_quadric(m, adj, v).coeffs, atol=1e-12)


def test_edge_quadric_additive():
    rng = np.random.default_rng(47)
    qa = plane_quadric(_random_plane(rng))
    qb = plane_quadric(_random_plane(rng))
    zero = Quadric.zero()
    assert np.array_equal(edge_quadric(zero, qb).coeffs, qb.coeffs)
    total = edge_quadric(qa, qb)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=3)
        assert abs(total.evaluate(x) - (qa.evaluate(x) + qb.evaluate(x))) < 1e-12
    doubled = edge_quadric(qa, qa)
    x = rng.uniform(-2, 2, size=3)
    assert doubled.evaluate(x) == pytest.approx(2 * qa.evaluate(x), rel=1e-12)


def test_quadrics_positive_semidefinite():
    rng = np.random.default_rng(53)
    for _ in range(100):
        q = Quadric.zero()
        for _ in range(rng.integers(1, 6)):
            q = edge_quadric(q, plane_quadric(_random_plane(rng)))
        for _ in range(10):
            assert q.evaluate(rng.uniform(-4, 4, size=3)) >= -1e-12


# --- optimal point -----------------------------------------------------------

def test_optimal_point_orthogonal_planes():
    q = Quadric.zero()
    for coeffs in ([1, 0, 0, -1], [0, 1, 0, -2], [0, 0, 1, -3]):
        q = edge_quadric(q, plane_quadric(_normalized_plane(*coeffs)))
    point, err = optimal_point(q, [0, 0, 0], [1, 1, 1])
    assert np.allclose(point, [1, 2, 3], atol=1e-9)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_optimal_point_singular_tie_picks_first_fallback():
    q = plane_quadric(_normalized_plane(0, 0, 1, 0))
    point, err = optimal_point(q, [0, 0, 1], [0, 0, -3])
    # endpoint a and the midpoint both have error 1; tie rule picks a
    assert np.allclose(point, [0, 0, 1])
    assert err == pytest.approx(1.0, rel=1e-12)


def test_optimal_point_singular_picks_best_candidate():
    q = plane_quadric(_normalized_plane(0, 0, 1, 0))
    point, err = optimal_point(q, [0, 0, 4], [0, 0, -2])
    # errors: a=16, mid=1, b=4 -> midpoint wins
    assert np.allclose(point, [0, 0, 1])
    assert err == pytest.approx(1.0, rel=1e-12)


def test_optimal_point_gradient_is_stationary():
    rng = np.random.default_rng(59)
    checked = 0
    while checked < 200:
        q = Quadric.zero()
        for _ in range(5):
            q = edge_quadric(q, plane_quadric(_random_plane(rng)))
        block = q.matrix()[:3, :3]
        if not np.isfinite(np.linalg.cond(block)) or np.linalg.cond(block) >= 1e12:
            continue
        point, err = optimal_point(q, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        # finite-difference gradient oracle
        h = 1e-6
        grad = np.zeros(3)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            grad[axis] = (q.evaluate(point + e) - q.evaluate(point - e)) / (2 * h)
        assert np.linalg.norm(grad) < 1e-6
        assert err >= 0.0
        checked += 1


def _plane_coeffs(plane, weight):
    p = np.asarray(plane, dtype=float)
    p = p / np.linalg.norm(p)
    return weight * (p[_TRIU_ROWS] * p[_TRIU_COLS])


# a quadric: a weighted sum of 0 (the zero quadric) to 5 planes, either
# axis-aligned with integer offsets (exact zeros in the block, so det == 0
# and exact error ties) or free; weights near 1e-12 put the condition number
# of axis-aligned sums near CONDITION_LIMIT
_axis_planes = st.builds(lambda axis, offset: np.r_[np.eye(3)[axis], offset],
                         st.integers(0, 2), st.integers(-3, 3))
_free_planes = st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 1e-3)
_weights = st.one_of(st.just(1.0), st.floats(1e-3, 1e3),
                     st.floats(0.9e-12, 1.1e-12), st.floats(1e-14, 1e-10))
_quadrics = st.lists(st.tuples(st.one_of(_axis_planes, _free_planes), _weights),
                     max_size=5).map(
    lambda planes: sum((_plane_coeffs(p, w) for p, w in planes), np.zeros(10)))
_points = st.one_of(st.tuples(*[st.integers(-3, 3).map(float)] * 3),
                    st.tuples(*[st.floats(-10, 10)] * 3)).map(np.array)


def _axis_sum(weights, offsets=(0, 0, 0)):
    return sum((_plane_coeffs(np.r_[np.eye(3)[i], o], w)
                for i, (w, o) in enumerate(zip(weights, offsets))), np.zeros(10))


_Z_PLANE = _plane_coeffs([0, 0, 1, 0], 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.tuples(_quadrics, _points, _points), min_size=1, max_size=20))
@example([(np.zeros(10), np.array([1.0, 2, 3]), np.array([-1.0, 0, 2]))])  # zero quadric
@example([(_Z_PLANE, np.array([0.0, 0, 1]), np.array([0.0, 0, -3]))])  # a ties the midpoint
@example([(_Z_PLANE, np.array([0.0, 0, -3]), np.array([0.0, 0, 1]))])  # midpoint ties b
@example([(_Z_PLANE, np.array([1.0, 2, 0]), np.array([3.0, 4, 0]))])  # all three tie
@example([(_axis_sum([1.0, 1.0, 0.0]), np.array([0.0, 0, 1]), np.array([2.0, 1, 0]))])  # det 0
@example([(_axis_sum([1.0, 1.0, w]), np.array([1.0, 1, 1]), np.array([2.0, 2, 2]))
          for w in (0.999999e-12, 1e-12, 1.000001e-12)])  # condition at CONDITION_LIMIT
@example([(_axis_sum([1.0, 1.0, 1.0], (1, -2, 3)) + _axis_sum([0.5, 2.0, 1.0], (0, 1, -1)),
           np.array([0.0, 0, 0]), np.array([1.0, 1, 1]))])  # 3+ planes, solved
def test_optimal_points_match_scalar_oracle(cases):
    # one batched call gives each row the scalar solver's point and error,
    # bit for bit
    coeffs, fa, fb = (np.array(column) for column in zip(*cases))
    points, errors = _optimal_points(coeffs, fa, fb)
    for i, case in enumerate(cases):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            point, error = scalar_optimal_point(*case)  # 1/det may overflow, as above
        assert points[i].tobytes() == point.tobytes()
        assert errors[i].tobytes() == np.float64(error).tobytes()


def test_optimal_points_branches():
    # the examples above reach both sides of every branch: the fallback on
    # det == 0, the solve just under CONDITION_LIMIT and the fallback just
    # over it, and the a / midpoint / b tie order
    fa, fb = np.ones((3, 3)), np.full((3, 3), 2.0)
    coeffs = np.array([_axis_sum([1.0, 1.0, 0.0]), _axis_sum([1.0, 1.0, 1.000001e-12]),
                       _axis_sum([1.0, 1.0, 0.999999e-12])])
    points, _ = _optimal_points(coeffs, fa, fb)
    assert np.array_equal(points[[0, 2]], fa[[0, 2]])  # fallback: a wins
    assert np.array_equal(points[1], [0, 0, 0])  # solved: the planes' common point
    fa = np.array([[0.0, 0, 1], [0.0, 0, -3], [1.0, 2, 0]])
    fb = np.array([[0.0, 0, -3], [0.0, 0, 1], [3.0, 4, 0]])
    points, errors = _optimal_points(np.tile(_Z_PLANE, (3, 1)), fa, fb)
    assert np.array_equal(points, [[0, 0, 1], [0, 0, -1], [1, 2, 0]])
    assert np.array_equal(errors, [1.0, 1.0, 0.0])


# --- refinement ---------------------------------------------------------------

def test_refine_flat_grid_stays_on_plane():
    target = make_grid(8)
    base = decimate_to_base(target, 30)
    coarse, _ = generate_coarse_anchor(base, target)
    fine = refine_anchor(coarse, target)
    assert fine.stage == "fine"
    assert np.all(np.abs(fine.mesh.vertices[:, 2]) < 1e-9)
    assert np.array_equal(fine.mesh.faces, base.faces)


def test_refine_isolated_anchor_keeps_coarse_position():
    # target: one triangle plus an isolated vertex; base matches the isolated one
    tverts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], dtype=float)
    target = TriangleMesh(tverts, [[0, 1, 2]])
    base = TriangleMesh(np.array([[5.1, 5, 5], [0, 0, 0.1], [1, 0, 0.1]]), [[0, 1, 2]])
    coarse, _ = generate_coarse_anchor(base, target)
    assert coarse.correspondence[0] == 3  # isolated target vertex
    fine = refine_anchor(coarse, target)
    assert np.array_equal(fine.mesh.vertices[0], coarse.mesh.vertices[0])
    assert fine.correspondence[0] == 3  # not refined, still on-vertex


def test_refine_marks_refined_vertices_off_vertex():
    target = make_sphere(2)
    base = decimate_to_base(make_sphere(2), 40)
    coarse, _ = generate_coarse_anchor(base, target)
    fine = refine_anchor(coarse, target)
    assert np.any(fine.correspondence == OFF_VERTEX)


def test_refine_never_worse_than_coarse_position(monkeypatch):
    # every move the fine stage proposes is the optimal point of its edge
    # quadric: no worse there than at the correspondent's position on the
    # working copy, for the first moves and for those searched again after
    # collapses changed the copy
    from anchormesh import qem

    rng = np.random.default_rng(61)
    target = make_sphere(2)
    noisy = TriangleMesh(target.vertices + rng.normal(0, 0.01, target.vertices.shape),
                         target.faces)
    base = decimate_to_base(make_sphere(2), 40)
    coarse, _ = generate_coarse_anchor(base, noisy)
    searches = []
    propose = qem._best_collapses

    def checked(quadrics, positions, c, nb):
        best = propose(quadrics, positions, c, nb)
        for ci, (ni, point) in best.items():
            edge = quadrics[ci] + quadrics[ni]
            selected = max(float(qem._evaluate_raw(edge, point)), 0.0)
            assert selected <= max(float(qem._evaluate_raw(edge, positions[ci])), 0.0) + 1e-12
        searches.append(len(best))
        return best

    monkeypatch.setattr(qem, "_best_collapses", checked)
    for collapses in (1, 2):
        searches.clear()
        fine = refine_anchor(coarse, noisy, collapses)
        assert searches[0] > 1 and sum(searches[1:]) > 0  # first moves, then searches again
        # positions differ from coarse somewhere (QEM actually moved points)
        assert not np.array_equal(fine.mesh.vertices, coarse.mesh.vertices)


def test_refine_improves_sphere_reconstruction():
    # deforming sphere pair: fine anchor reconstructs at least as well as
    # coarse. The coarse stage's vertex-snapping collides under deformation
    # (duplicate correspondences -> degenerate anchor faces); refinement
    # resolves those, which is where its reconstruction gain lives.
    import anchormesh as am

    spec = am.SequenceSpec(shape="sphere", resolution=3, frames=2, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=3)
    reference, target = am.generate_sequence(spec)
    base = decimate_to_base(reference, 480)
    coarse, _ = generate_coarse_anchor(base, target)
    fine = refine_anchor(coarse, target)

    def recon_report(anchor):
        sub = am.midpoint_subdivide(anchor.mesh, 1)
        field = am.compute_displacements(sub, target)
        recon = am.apply_displacements(sub, field)
        return distortion(target, recon)

    assert recon_report(fine).d1_psnr >= recon_report(coarse).d1_psnr


def test_refine_keeps_rejected_anchors_on_their_coarse_vertex():
    # the bending sphere above with the smaller base (184 of 738 vertices),
    # where moving every anchor lost D1 (57.5 -> 55.4 dB): the kept moves must
    # not cost reconstruction D1, and an anchor that was not moved must sit
    # exactly on its coarse vertex with its correspondence intact
    import anchormesh as am

    spec = am.SequenceSpec(shape="sphere", resolution=3, frames=2, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=3)
    reference, target = am.generate_sequence(spec)
    base = decimate_to_base(reference, 184)
    coarse, _ = generate_coarse_anchor(base, target)
    fine = refine_anchor(coarse, target, 1)

    moved = fine.correspondence == OFF_VERTEX
    assert 0 < moved.sum() < base.n_vertices
    kept = ~moved
    assert np.array_equal(fine.mesh.vertices[kept], coarse.mesh.vertices[kept])
    assert np.array_equal(fine.correspondence[kept], coarse.correspondence[kept])

    def recon_d1(anchor):
        sub = am.midpoint_subdivide(anchor.mesh, 1)
        recon = am.apply_displacements(sub, am.compute_displacements(sub, target))
        return distortion(target, recon).d1_psnr

    assert recon_d1(fine) >= recon_d1(coarse)


def test_move_judge_batch_matches_single_anchor():
    # refinement judges every anchor at its coarse vertex and every first move
    # in one batch, and re-judges touched anchors one at a time: all must give
    # the same numbers
    from anchormesh.qem import _MoveJudge

    rng = np.random.default_rng(67)
    target = make_sphere(2)
    noisy = TriangleMesh(target.vertices + rng.normal(0, 0.01, target.vertices.shape),
                         target.faces)
    coarse, _ = generate_coarse_anchor(decimate_to_base(make_sphere(2), 40), noisy)
    judge = _MoveJudge(coarse, noisy)
    n = coarse.mesh.n_vertices
    points = coarse.mesh.vertices + rng.normal(0, 0.05, (n, 3))
    batch = judge.errors(np.arange(n), points)
    single = [judge.errors([ai], [points[ai]])[0] for ai in range(n)]
    assert np.array_equal(batch, single)
    before = judge.errors(np.arange(n), coarse.mesh.vertices)
    fused = judge.errors(np.r_[np.arange(n), np.arange(n)],
                         np.vstack([coarse.mesh.vertices, points]))
    assert np.array_equal(fused, np.r_[before, batch])
    assert np.all(before >= 0.0) and np.any(batch > before)


def _bend_pair():
    import anchormesh as am

    spec = am.SequenceSpec(shape="sphere", resolution=2, frames=2, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=4)
    reference, target = am.generate_sequence(spec)
    return decimate_to_base(reference, 40), target


def _random_base_pair():
    rng = np.random.default_rng(61)
    target = make_sphere(2)
    return random_mesh(rng, n_vertices=12, n_faces=16, scale=0.8), target


@pytest.mark.parametrize("make_pair", [_bend_pair, _random_base_pair])
def test_move_judge_at_coarse_reuses_the_projected_midpoints(make_pair):
    # at its coarse vertex an anchor's spoke midpoints are bitwise the edge
    # midpoints the judge projected up front, so the judge takes those
    # projections for a point equal to the coarse vertex; an anchor's score
    # must not depend on the moved anchors batched with it, as refinement
    # batches them (test_move_judge_error_matches_a_direct_evaluation checks
    # the scores themselves)
    from anchormesh.qem import _MoveJudge

    base, target = make_pair()
    coarse, _ = generate_coarse_anchor(base, target)
    judge = _MoveJudge(coarse, target)
    n = coarse.mesh.n_vertices
    anchors = np.arange(n)
    at_vertex = coarse.mesh.vertices[anchors]
    projected = judge.errors(anchors, at_vertex)
    points = at_vertex + np.random.default_rng(5).normal(0, 0.05, (n, 3))
    fused = judge.errors(np.r_[anchors, anchors], np.vstack([at_vertex, points]))
    assert np.array_equal(fused, np.r_[projected, judge.errors(anchors, points)])
    assert np.any(projected > 0.0)


@pytest.mark.parametrize("seed,base_size", [(4, 40), (3, 120)])
def test_move_judge_covers_what_an_exhaustive_search_finds(seed, base_size):
    # every target vertex is covered by the three anchors of its closest
    # coarse face, lowest face on ties (coarse anchors sit on target
    # vertices, so ties between the faces around one are common)
    import anchormesh as am
    from anchormesh.qem import _MoveJudge

    spec = am.SequenceSpec(shape="sphere", resolution=2, frames=2, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=seed)
    reference, target = am.generate_sequence(spec)
    coarse, _ = generate_coarse_anchor(decimate_to_base(reference, base_size), target)
    judge = _MoveJudge(coarse, target)
    want = [[] for _ in range(coarse.mesh.n_vertices)]
    for v, face in enumerate(covering_faces(coarse.mesh, target)):
        for a in coarse.mesh.faces[face]:
            want[a].append(v)
    for a, vertices in enumerate(want):
        start = judge.covered_start[a]
        assert judge.covered[start:start + judge.covered_count[a]].tolist() == vertices


def test_move_judge_error_matches_a_direct_evaluation():
    # an anchor's error, rebuilt one fan face at a time: split the face
    # (x, u, w) at its edge midpoints, move x and the midpoints to their
    # closest target points by an exhaustive scan (u and w are coarse
    # anchors on target vertices, their own projections), and sum over the
    # covered target vertices the least distance to the sub-triangles of
    # the fan. The first two anchors sit on their coarse vertex, where the
    # judge takes its up-front projections of the coarse edge midpoints in
    # place of the spoke midpoints
    import anchormesh as am
    from anchormesh.qem import _MoveJudge

    spec = am.SequenceSpec(shape="sphere", resolution=2, frames=2, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=4)
    reference, target = am.generate_sequence(spec)
    coarse, _ = generate_coarse_anchor(decimate_to_base(reference, 40), target)
    judge = _MoveJudge(coarse, target)
    pos, faces = coarse.mesh.vertices, coarse.mesh.faces
    cover = covering_faces(coarse.mesh, target)
    rng = np.random.default_rng(73)
    anchors = rng.choice(len(pos), 6, replace=False)
    points = np.vstack([pos[anchors[:2]], pos[anchors[2:]] + rng.normal(0, 0.05, (4, 3))])

    def project(p):
        return brute_force_surface_points(target, p)[0]

    nonzero = 0
    for a, x in zip(anchors, points):
        subfaces = []
        for face in faces[np.any(faces == a, axis=1)]:
            _, u, w = np.roll(face, -int(np.flatnonzero(face == a)[0]))
            xu, uw, wx = project(np.array([0.5 * (x + pos[u]), 0.5 * (pos[u] + pos[w]),
                                           0.5 * (pos[w] + x)]))
            px = project(x)[0]
            subfaces += [(px, xu, wx), (pos[u], uw, xu), (pos[w], wx, uw), (xu, uw, wx)]
        terms = triangle_terms(*(np.array([t[i] for t in subfaces]).T for i in range(3)))
        covered = np.flatnonzero(np.any(faces[cover] == a, axis=1))
        want = 0.0
        for v in covered:
            d2, _, _ = sq_distances_to_terms(target.vertices[v][:, None], terms)
            want += d2.min()
        nonzero += want > 0.0
        assert judge.errors([a], [x])[0] == want
    assert nonzero >= 4


@pytest.mark.parametrize("level,seed,base_size,collapses", [
    pytest.param(2, 4, 40, 1, id="4-40-1"),
    pytest.param(2, 3, 120, 1, id="3-120-1"),
    pytest.param(2, 3, 120, 2, id="3-120-2"),
    pytest.param(3, 3, 184, 1, id="level3-3-184-1"),
])
def test_refine_matches_plain_sequential_search(level, seed, base_size, collapses):
    # refinement searches and judges first moves up front, in batches, and
    # redoes only the anchors whose correspondent a kept collapse touched; a
    # plain loop that searches every anchor in turn with the scalar solver and
    # judges it alone must give the same anchor (seed 3 with 120 base vertices
    # has 12 duplicate correspondences; level 3 with 184 is the benchmark's size)
    import anchormesh as am
    from anchormesh.qem import _MoveJudge, _WorkingCopy

    spec = am.SequenceSpec(shape="sphere", resolution=level, frames=2, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=seed)
    reference, target = am.generate_sequence(spec)
    coarse, _ = generate_coarse_anchor(decimate_to_base(reference, base_size), target)
    fine = refine_anchor(coarse, target, collapses)

    corr = coarse.correspondence
    work = _WorkingCopy(target, all_vertex_quadrics(target))
    quadrics = all_vertex_quadrics(target)
    judge = _MoveJudge(coarse, target)
    positions = coarse.mesh.vertices.copy()
    errors = judge.errors(np.arange(len(positions)), positions)
    for ai in queue_traversal_order(coarse.mesh):
        c = int(corr[ai])
        for _ in range(collapses):
            move = scalar_best_collapse(work, quadrics, c, set(corr.tolist()))
            if move is None:
                break
            nb, point, qe, _ = move
            error = judge.errors([ai], [point])[0]
            if not error < errors[ai]:
                break
            work.collapse(c, nb, point)
            quadrics[c] = qe
            positions[ai] = point
            errors[ai] = error
    assert np.array_equal(fine.mesh.vertices, positions)
    assert np.array_equal(fine.correspondence == OFF_VERTEX,
                          np.any(positions != coarse.mesh.vertices, axis=1))


def test_refine_with_the_coarse_traversal_matches_refine_alone():
    # the encoder hands the fine stage the coarse stage's traversal; it may
    # not change the anchor
    import anchormesh as am
    from anchormesh.coarse import AnchorMesh

    spec = am.SequenceSpec(shape="sphere", resolution=3, frames=2, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=5)
    reference, target = am.generate_sequence(spec)
    coarse, _ = generate_coarse_anchor(decimate_to_base(reference, 184), target)
    assert coarse.order is not None
    bare = AnchorMesh(coarse.mesh, coarse.correspondence, "coarse")
    want = refine_anchor(bare, target)
    got = refine_anchor(coarse, target, 1)
    assert np.array_equal(got.mesh.vertices, want.mesh.vertices)
    assert np.array_equal(got.correspondence, want.correspondence)
    assert np.array_equal(got.order, coarse.order)


def test_refine_rejects_a_target_without_faces():
    # the judge measures with the encoder's closest-point search, which
    # needs faces; it says so instead of failing inside numpy
    target = make_sphere(2)
    coarse, _ = generate_coarse_anchor(decimate_to_base(target, 40), target)
    faceless = TriangleMesh(target.vertices, np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(MeshValidationError, match="mesh with faces"):
        refine_anchor(coarse, faceless)


def test_refine_keeps_a_base_without_faces_where_it_is():
    # a base without faces has no fans: no anchor covers a target vertex, so
    # no move lowers an error and every anchor keeps its coarse vertex
    target = make_sphere(2)
    base = decimate_to_base(target, 40)
    coarse, _ = generate_coarse_anchor(
        TriangleMesh(base.vertices, np.zeros((0, 3), dtype=np.int64)), target)
    fine = refine_anchor(coarse, target)
    assert np.array_equal(fine.mesh.vertices, coarse.mesh.vertices)
    assert np.array_equal(fine.correspondence, coarse.correspondence)


def test_refine_requires_coarse_stage():
    target = make_sphere(1)
    base = decimate_to_base(make_sphere(1), 8)
    coarse, _ = generate_coarse_anchor(base, target)
    fine = refine_anchor(coarse, target)
    with pytest.raises(ValueError):
        refine_anchor(fine, target)


def test_refine_deterministic():
    target = make_sphere(2)
    base = decimate_to_base(make_sphere(2), 40)
    coarse, _ = generate_coarse_anchor(base, target)
    f1 = refine_anchor(coarse, target)
    f2 = refine_anchor(coarse, target)
    assert np.array_equal(f1.mesh.vertices, f2.mesh.vertices)
    assert np.array_equal(f1.correspondence, f2.correspondence)
