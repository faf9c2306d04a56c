import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchormesh import (
    MeshValidationError,
    ObjParseError,
    TriangleMesh,
    closest_points_on_surface,
    load_mesh,
    make_sphere,
    save_mesh,
)
from anchormesh.mesh import (COORDINATE_LIMIT, DEGENERATE_AREA, Connectivity, face_normals,
                             unique_edges, vertex_corners)
from helpers import (
    DegenerateFaceError,
    brute_force_surface_point,
    brute_force_surface_points,
    build_adjacency,
    closest_point_on_surface,
    closest_point_on_triangle,
    connectivity_cases,
    face_plane,
    icosahedron,
    random_mesh,
    region_closest_point,
    triangle_sq_distances,
    unit_cube,
)


# --- construction ---------------------------------------------------------

def test_mesh_rejects_out_of_range_index():
    with pytest.raises(MeshValidationError):
        TriangleMesh(np.zeros((3, 3)), [[0, 1, 3]])


def test_mesh_rejects_repeated_index():
    with pytest.raises(MeshValidationError):
        TriangleMesh(np.zeros((3, 3)), [[0, 1, 1]])


def test_mesh_arrays_are_frozen():
    m = TriangleMesh(np.zeros((3, 3)), [[0, 1, 2]])
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 1.0


@pytest.mark.parametrize("bad", [np.nextafter(COORDINATE_LIMIT, np.inf), -1e300, np.inf, np.nan],
                         ids=["just-beyond", "-1e300", "inf", "nan"])
def test_mesh_rejects_a_coordinate_beyond_the_limit(bad):
    # beyond it the codec's arithmetic overflows: a nearest-point query at
    # 1e300 matched point 0 at distance inf. NaN is refused by the same
    # comparison
    verts = np.eye(3)
    verts[0, 0], verts[1, 1] = COORDINATE_LIMIT, -COORDINATE_LIMIT
    connectivity = TriangleMesh(verts, [[0, 1, 2]]).connectivity
    TriangleMesh.derived(verts.copy(), connectivity)
    verts[2, 2] = bad
    with pytest.raises(MeshValidationError, match="beyond"):
        TriangleMesh(verts, [[0, 1, 2]])
    with pytest.raises(MeshValidationError, match="beyond"):
        TriangleMesh.derived(verts, connectivity)
    with pytest.raises(MeshValidationError, match="beyond"):
        load_mesh(f"v 0 0 0\nv 1 0 0\nv 0 0 {float(bad)!r}\nf 1 2 3\n")


def test_derived_mesh_freezes_its_own_arrays():
    verts, faces = np.zeros((3, 3)), np.array([[0, 1, 2]])
    connectivity = Connectivity(faces, 3)
    mesh = TriangleMesh.derived(verts, connectivity)
    assert mesh.vertices is verts and mesh.faces is faces
    assert mesh.connectivity is connectivity
    assert not verts.flags.writeable and not faces.flags.writeable
    # vertices that do not fit the connectivity's count are refused
    for wrong in (np.zeros((4, 3)), np.zeros((3, 2))):
        with pytest.raises(MeshValidationError, match="shape"):
            TriangleMesh.derived(wrong, connectivity)


def test_pickled_mesh_is_equal_and_frozen():
    # a mesh sent to a worker process comes back validated and read-only
    sent = random_mesh(np.random.default_rng(21), n_vertices=30, n_faces=40)
    got = pickle.loads(pickle.dumps(sent))
    assert got.vertices.tobytes() == sent.vertices.tobytes()
    # through the constructor: a connectivity of its own, the same hash
    assert got.connectivity is not sent.connectivity and got.faces is got.connectivity.faces
    assert got.content_hash == sent.content_hash
    assert np.array_equal(got.faces, sent.faces) and got.faces.dtype == np.int64
    for array in (got.vertices, got.faces):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1


# --- OBJ I/O --------------------------------------------------------------

def test_load_minimal_obj():
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    m = load_mesh(text)
    assert m.n_vertices == 3
    assert m.faces.tolist() == [[0, 1, 2]]


def test_load_strips_attribute_slashes():
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 2/1/1 3/2/1 1/3/1\n"
    m = load_mesh(text)
    assert m.faces.tolist() == [[1, 2, 0]]


def test_load_index_out_of_range():
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n"
    with pytest.raises(MeshValidationError) as err:
        load_mesh(text)
    assert "line 4" in str(err.value)


def test_load_malformed_vertex_has_line_number():
    with pytest.raises(ObjParseError) as err:
        load_mesh("v 0 0 0\nv 1 zero 0\n")
    assert err.value.line == 2


def test_load_ignores_comments_and_other_records():
    text = "# header\nvt 0 0\nvn 0 0 1\no thing\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    m = load_mesh(text)
    assert m.n_vertices == 3 and m.n_faces == 1


def test_save_empty_mesh_is_header_only():
    data = save_mesh(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)))
    lines = data.decode().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("#")


def test_save_single_triangle():
    m = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    lines = save_mesh(m).decode().strip().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 3
    assert sum(1 for ln in lines if ln.startswith("f ")) == 1


def test_obj_roundtrip_random_meshes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_mesh(rng, n_vertices=100, n_faces=150)
        again = load_mesh(save_mesh(m))
        assert np.array_equal(again.vertices, m.vertices)
        assert np.array_equal(again.faces, m.faces)


# --- adjacency ------------------------------------------------------------

def test_adjacency_single_triangle():
    m = TriangleMesh(np.eye(3), [[0, 1, 2]])
    adj = build_adjacency(m)
    assert [sorted(s) for s in adj.neighbors] == [[1, 2], [0, 2], [0, 1]]
    assert adj.vertex_faces == [{0}, {0}, {0}]
    assert adj.edges == [(0, 1), (0, 2), (1, 2)]


def test_adjacency_shared_edge():
    m = TriangleMesh(np.zeros((4, 3)) + np.arange(4)[:, None], [[0, 1, 2], [1, 2, 3]])
    adj = build_adjacency(m)
    assert len(adj.neighbors[1]) == 3 and len(adj.neighbors[2]) == 3
    assert len(adj.edges) == 5


def test_adjacency_icosahedron_valence_five():
    adj = build_adjacency(icosahedron())
    # oracle: brute-force neighbor sets straight off the face list
    expected = [set() for _ in range(12)]
    for a, b, c in icosahedron().faces.tolist():
        expected[a].update((b, c))
        expected[b].update((a, c))
        expected[c].update((a, b))
    assert adj.neighbors == expected
    assert all(len(s) == 5 for s in adj.neighbors)


@pytest.mark.parametrize("name, verts, faces", connectivity_cases())
def test_unique_edges_match_unique_rows(name, verts, faces):
    edges, face_edges = unique_edges(faces, len(verts))
    # each face's ab, bc, ca as (lo, hi)
    pairs = np.sort(np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1), axis=-1)
    assert edges.dtype == face_edges.dtype == np.int64
    assert np.array_equal(edges, np.unique(pairs.reshape(-1, 2), axis=0))
    assert np.array_equal(edges[face_edges], pairs)


@pytest.mark.parametrize("name, verts, faces", connectivity_cases())
def test_vertex_corners_list_each_vertex_faces_ascending(name, verts, faces):
    # faces with a repeated index list that face once per corner
    corners, count, start = vertex_corners(faces, len(verts))
    for v in range(len(verts)):
        mine = corners[start[v]:start[v] + count[v]]
        assert faces.ravel()[mine].tolist() == [v] * count[v]
        assert (mine // 3).tolist() == [f for f, row in enumerate(faces.tolist())
                                        for corner in row if corner == v]
    assert count.sum() == faces.size


def test_adjacency_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = random_mesh(rng)
        adj = build_adjacency(m)
        for v, nbrs in enumerate(adj.neighbors):
            for u in nbrs:
                assert v in adj.neighbors[u]
        assert len(adj.edges) == len(set(adj.edges))
        for fi, (a, b, c) in enumerate(m.faces.tolist()):
            assert fi in adj.vertex_faces[a]
            assert fi in adj.vertex_faces[b]
            assert fi in adj.vertex_faces[c]


# --- face planes ----------------------------------------------------------

def test_face_plane_unit_z():
    m = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    p = face_plane(m, 0)
    assert np.allclose(p.vector(), [0, 0, 1, 0], atol=1e-15)


def test_face_plane_offset_plane_four_vector_normalized():
    m = TriangleMesh([[0, 0, 1], [1, 0, 1], [0, 1, 1]], [[0, 1, 2]])
    p = face_plane(m, 0)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(p.vector(), [0, 0, s, -s], atol=1e-15)


def test_face_plane_winding_orientation():
    m = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 2, 1]])
    p = face_plane(m, 0)
    assert p.c < 0  # reversed winding flips the normal


def test_face_plane_degenerate_raises():
    m = TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
    with pytest.raises(DegenerateFaceError):
        face_plane(m, 0)


def test_face_normals_mark_slivers_at_the_degenerate_area():
    # right triangles of area 1/2, 0 (collinear) and just over and under the
    # sliver area, whose legs are powers of two
    legs = [1.0, 0.0, 2.0**-38, 2.0**-39]
    verts = np.array([[x, y, 0.0] for leg in legs for x, y in ((0, 0), (1, 0), (0, leg))])
    mesh = TriangleMesh(verts, np.arange(12).reshape(4, 3))
    normals, norms, sliver = face_normals(mesh)
    assert np.array_equal(normals, [[0, 0, leg] for leg in legs])
    assert np.array_equal(norms, legs)
    assert 0.5 * 2.0**-39 <= DEGENERATE_AREA < 0.5 * 2.0**-38
    assert sliver.tolist() == [False, True, False, True]


def test_face_plane_residual_and_norm_random():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 200:
        tri = rng.uniform(-5, 5, size=(3, 3))
        m = TriangleMesh(tri, [[0, 1, 2]])
        try:
            p = face_plane(m, 0)
        except DegenerateFaceError:
            continue
        checked += 1
        assert abs(np.linalg.norm(p.vector()) - 1.0) < 1e-9
        for v in tri:
            assert abs(p.signed_residual(v)) < 1e-9


# --- closest point on triangle --------------------------------------------

def test_closest_point_vertex_hit():
    tri = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0]], dtype=float)
    sp = closest_point_on_triangle(tri[1], tri)
    assert np.allclose(sp.position, tri[1])
    assert np.allclose(sp.bary, [0, 1, 0])


def test_closest_point_normal_offset_hits_centroid():
    tri = np.array([[0, 0, 0], [3, 0, 0], [0, 3, 0]], dtype=float)
    centroid = tri.mean(axis=0)
    sp = closest_point_on_triangle(centroid + [0, 0, 1], tri)
    assert np.allclose(sp.position, centroid)
    assert abs(np.linalg.norm(sp.position - (centroid + [0, 0, 1])) - 1.0) < 1e-12


def test_closest_point_bary_invariants():
    rng = np.random.default_rng(5)
    for _ in range(300):
        tri = rng.uniform(-2, 2, size=(3, 3))
        p = rng.uniform(-3, 3, size=3)
        sp = closest_point_on_triangle(p, tri)
        assert np.all(sp.bary >= -1e-12)
        assert abs(sp.bary.sum() - 1.0) < 1e-12
        assert np.linalg.norm(sp.bary @ tri - sp.position) < 1e-9


def test_closest_point_sampling_oracle():
    # independent oracle: dense barycentric sampling of the triangle
    rng = np.random.default_rng(9)
    grid = 316  # ~1e5 samples
    u, v = np.meshgrid(np.linspace(0, 1, grid), np.linspace(0, 1, grid))
    keep = (u + v) <= 1.0
    u = u[keep]
    v = v[keep]
    w = 1.0 - u - v
    for _ in range(10):
        tri = rng.uniform(-2, 2, size=(3, 3))
        if 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 1e-6:
            continue
        p = rng.uniform(-3, 3, size=3)
        samples = u[:, None] * tri[0] + v[:, None] * tri[1] + w[:, None] * tri[2]
        sampled_min = np.sqrt(((samples - p) ** 2).sum(axis=1).min())
        got = np.linalg.norm(closest_point_on_triangle(p, tri).position - p)
        edge = max(np.linalg.norm(tri[i] - tri[j]) for i, j in ((0, 1), (1, 2), (0, 2)))
        assert got <= sampled_min + 1e-12
        assert sampled_min - got <= 2.0 * edge / grid  # sampling resolution


def test_closest_point_degenerate_falls_back_to_longest_edge():
    tri = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)  # collinear
    sp = closest_point_on_triangle([0.7, 1.0, 0.0], tri)
    assert np.allclose(sp.position, [0.7, 0, 0], atol=1e-12)
    # a degenerate triangle is measured on its edges; ab and ac are equally
    # near, and the first nearest edge in the order ab, ac, bc wins
    assert np.allclose(sp.bary, [0.3, 0.7, 0.0], atol=1e-12)
    assert sp.bary[2] == 0.0


# --- closest point on surface ---------------------------------------------

def test_surface_point_on_surface_is_identity():
    cube = unit_cube()
    p = np.array([0.5, 0.0, 0.5])  # on the y=0 face
    sp = closest_point_on_surface(cube, p)
    assert np.allclose(sp.position, p, atol=1e-12)


def test_surface_unit_cube_outside_point():
    sp = closest_point_on_surface(unit_cube(), [2.0, 0.5, 0.5])
    assert np.allclose(sp.position, [1.0, 0.5, 0.5], atol=1e-12)
    assert abs(np.linalg.norm(sp.position - [2.0, 0.5, 0.5]) - 1.0) < 1e-12


def test_surface_empty_mesh_raises():
    m = TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(MeshValidationError):
        closest_point_on_surface(m, [0, 0, 0])


def test_surface_matches_brute_force_scan():
    # every query against the batched scan, every 10th also against the
    # per-face scalar scan
    rng = np.random.default_rng(13)
    for _ in range(5):
        m = random_mesh(rng, n_vertices=30, n_faces=40)
        queries = rng.uniform(-1.5, 1.5, size=(200, 3))
        pos, faces, bary, d2 = assert_matches_oracle(m, queries)
        for qi in range(0, len(queries), 10):
            bf_d2, bf_face, bf_sp = brute_force_surface_point(m, queries[qi])
            assert faces[qi] == bf_face
            assert d2[qi] == bf_d2
            assert np.array_equal(pos[qi], bf_sp.position)


def test_surface_tie_break_lowest_face_index():
    # two parallel faces equidistant from the query: lowest index must win
    verts = np.array([
        [0, 0, 1], [1, 0, 1], [0, 1, 1],   # face 0 at z=1
        [0, 0, -1], [1, 0, -1], [0, 1, -1],  # face 1 at z=-1
    ], dtype=float)
    m = TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]])
    sp = closest_point_on_surface(m, [0.2, 0.2, 0.0])
    assert sp.face == 0


def assert_matches_oracle(mesh, queries):
    got = closest_points_on_surface(mesh, queries)
    want = brute_force_surface_points(mesh, queries)
    for name, g, w in zip(("positions", "faces", "bary", "sq_dists"), got, want):
        assert np.array_equal(g, w), name
    return got


def test_surface_oracle_tie_across_shared_edge():
    # a roof folded along the x axis: a query on the bisecting plane is
    # equidistant from both faces, so face 0 wins in either listing order
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 1], [0.5, -1, 1]], dtype=float)
    queries = np.array([[0.5, 0.0, 1.0], [0.25, 0.0, 3.0], [2.0, 0.0, 0.5]])
    for faces in ([[0, 1, 2], [1, 0, 3]], [[1, 0, 3], [0, 1, 2]]):
        _, face, _, _ = assert_matches_oracle(TriangleMesh(verts, faces), queries)
        assert face.tolist() == [0, 0, 0]


def test_surface_oracle_queries_on_shared_vertices():
    m = icosahedron()
    _, _, _, d2 = assert_matches_oracle(m, m.vertices)
    assert np.all(d2 == 0.0)


def test_surface_oracle_zero_area_and_sliver_faces():
    verts = np.array([
        [0, 0, 0], [1, 0, 0], [2, 0, 0],  # collinear: zero area
        [0, 1, 0], [0, 1, 0], [0, 1, 0],  # three corners on one point
        [0, 0, 1], [1, 0, 1], [0.5, 1e-4, 1],  # sliver
        [0, 2, 0], [1, 2, 0], [0, 3, 0],  # an ordinary face
    ], dtype=float)
    m = TriangleMesh(verts, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]])
    rng = np.random.default_rng(23)
    queries = np.vstack([rng.uniform(-0.5, 2.5, size=(400, 3)), verts,
                         [[1.5, 0.0, 0.0], [0.5, 5e-5, 1.0]]])
    assert_matches_oracle(m, queries)


def test_surface_oracle_duplicated_faces():
    cube = unit_cube()
    faces = np.vstack([cube.faces, cube.faces[::-1]])
    m = TriangleMesh(cube.vertices, faces)
    rng = np.random.default_rng(29)
    _, face, _, _ = assert_matches_oracle(m, rng.uniform(-0.5, 1.5, size=(300, 3)))
    assert face.max() < cube.n_faces  # the first copy wins every tie


def test_surface_oracle_ignores_unreferenced_vertex():
    # vertex 3 belongs to no face; queries around it must still reach the
    # triangle, not stop at the stray vertex
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 10, 10]], dtype=float)
    m = TriangleMesh(verts, [[0, 1, 2]])
    rng = np.random.default_rng(31)
    queries = np.vstack([verts[3], verts[3] + rng.normal(scale=0.01, size=(20, 3))])
    pos, _, _, _ = assert_matches_oracle(m, queries)
    assert np.array_equal(pos[0], [0.5, 0.5, 0.0])


def test_surface_oracle_queries_far_outside_the_grid():
    rng = np.random.default_rng(37)
    m = random_mesh(rng, n_vertices=30, n_faces=40)
    directions = rng.normal(size=(50, 3))
    queries = 1e3 * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    assert_matches_oracle(m, np.vstack([queries, [[1e6, -1e6, 1e6]]]))


def test_surface_oracle_single_face_and_planar_mesh():
    from anchormesh import make_grid

    rng = np.random.default_rng(41)
    single = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert_matches_oracle(single, rng.uniform(-1, 2, size=(200, 3)))
    plane = make_grid(6)  # every vertex at z = 0
    queries = rng.uniform(-0.5, 1.5, size=(300, 3))
    queries[:100, 2] = 0.0
    assert_matches_oracle(plane, np.vstack([queries, plane.vertices]))


def test_surface_oracle_distant_parts_use_the_dense_bound():
    # two triangles far apart: a query midway has no face in its cell, so
    # its bound is inf and it gathers the whole grid
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                      [100, 0, 0], [101, 0, 0], [100, 1, 0]], dtype=float)
    m = TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]])
    queries = np.array([[50.0, 0.5, 0.5], [49.0, 0.0, 0.0], [60.0, 3.0, -2.0]])
    _, face, _, _ = assert_matches_oracle(m, queries)
    assert face.tolist() == [0, 0, 1]


def test_surface_oracle_bend_sphere_clouds(monkeypatch):
    import anchormesh as am
    from anchormesh import grid

    spec = am.SequenceSpec(shape="sphere", resolution=2, frames=2, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=3)
    reference, target = am.generate_sequence(spec)
    rng = np.random.default_rng(43)
    sub = am.midpoint_subdivide(reference, 1)
    clouds = [sub.mesh.vertices, target.vertices]
    clouds += [target.vertices + rng.normal(scale=s, size=target.vertices.shape)
               for s in (1e-6, 0.01, 0.1, 1.0)]
    for cloud in clouds:
        assert_matches_oracle(target, cloud)
        assert_matches_oracle(sub.mesh, cloud)
    # blocks small enough that one query's pairs overflow a block
    monkeypatch.setattr(grid, "_BLOCK_PAIRS", 16)
    assert_matches_oracle(target, clouds[3])


def _oracle_queries(mesh, rng):
    """Queries on every vertex, on edges, on planes the grid may cut cells
    along, and far outside the mesh's bounding box."""
    verts = mesh.vertices
    tri = verts[mesh.faces]
    lo, hi = tri.reshape(-1, 3).min(axis=0), tri.reshape(-1, 3).max(axis=0)
    size = float((hi - lo).max()) or 1.0
    picked = mesh.faces[rng.integers(0, mesh.n_faces, 30)]
    t = rng.uniform(0.0, 1.0, size=(30, 1))
    on_edges = verts[picked[:, 0]] + t * (verts[picked[:, 1]] - verts[picked[:, 0]])
    # the grid's cell size is the mean face extent times a power of two, so
    # its cell boundaries are among these planes
    h = float((tri.max(axis=1) - tri.min(axis=1)).max(axis=1).mean()) or size
    on_planes = rng.uniform(lo, hi, size=(30, 3))
    axis = rng.integers(0, 3, 30)
    on_planes[np.arange(30), axis] = lo[axis] + rng.integers(0, int(size / h) + 2, 30) * h
    directions = rng.normal(size=(15, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    far = 0.5 * (lo + hi) + directions * size * 10.0 ** rng.uniform(0.5, 3.0, size=(15, 1))
    near = rng.uniform(lo - 0.2 * size, hi + 0.2 * size, size=(40, 3))
    return np.vstack([verts, on_edges, on_planes, far, near])


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-6, 6),
       shift=st.floats(-1e6, 1e6), collapsed=st.integers(0, 6), sphere=st.booleans())
# every face degenerate, so measured on its edges alone
@example(seed=0, exponent=-6, shift=0.0, collapsed=1, sphere=True)
# slivers: their plane projection errs in proportion to 1 / sin^2 of an angle
@example(seed=8388607, exponent=3, shift=0.0, collapsed=3, sphere=False)
def test_surface_oracle_random_meshes_at_any_scale(seed, exponent, shift, collapsed, sphere):
    # soups of large faces, and jittered spheres of small ones, scaled from
    # 1e-6 to 1e6 and moved by up to 1e6; ``collapsed`` corners are moved onto
    # another vertex or an edge, which makes zero-area and sliver faces
    rng = np.random.default_rng(seed)
    if sphere:
        base = make_sphere(2)
        verts = base.vertices + rng.normal(scale=0.02, size=base.vertices.shape)
    else:
        base = random_mesh(rng, n_vertices=int(rng.integers(5, 30)),
                           n_faces=int(rng.integers(1, 40)))
        verts = base.vertices.copy()
    for _ in range(collapsed):
        i, j, k = rng.choice(len(verts), size=3, replace=False)
        verts[k] = verts[i] + rng.integers(0, 2) * rng.uniform() * (verts[j] - verts[i])
    mesh = TriangleMesh(verts * 10.0**exponent + shift * rng.uniform(-1.0, 1.0, 3), base.faces)
    assert_matches_oracle(mesh, _oracle_queries(mesh, rng))


@pytest.mark.parametrize("scale", [1e-6, 1e-5])
def test_surface_oracle_sphere_scaled_below_degenerate_area(scale):
    # scaled down, most faces of this sphere have at most DEGENERATE_AREA, so
    # triangle_terms measures each on its edges alone, while its corners
    # and edge midpoints are queried at distance zero or near it
    import anchormesh as am

    spec = am.SequenceSpec(shape="sphere", resolution=3, frames=1, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=9)
    frame = am.generate_sequence(spec)[0]
    mesh = TriangleMesh(frame.vertices * scale, frame.faces)
    queries = am.midpoint_subdivide(mesh, 1).mesh.vertices
    # every target vertex, and every eighth edge midpoint
    assert_matches_oracle(mesh, np.vstack([queries[:mesh.n_vertices],
                                           queries[mesh.n_vertices::8]]))


def test_surface_oracle_sliver_face_wins_by_its_plane():
    # a cross product puts this sliver's area just at DEGENERATE_AREA, but
    # triangle_terms finds it above and measures it as a plane 1e-7 under the
    # query, nearer than the flat face 2.2e-7 above it
    sliver = np.array([[0.0, 0.0, 0.0], [1.9686412131512877e-06, 0.0, 0.0],
                       [1.462479731745416e-06, 1.015929152879267e-06, 0.0]])
    center = sliver.mean(axis=0)
    flat = center + np.array([[-2e-6, -2e-6, 0.0], [2e-6, -2e-6, 0.0], [0.0, 2e-6, 0.0]])
    flat[:, 2] = 3.2e-7
    mesh = TriangleMesh(np.vstack([sliver, flat]), [[0, 1, 2], [3, 4, 5]])
    _, face, _, d2 = assert_matches_oracle(mesh, [center + [0.0, 0.0, 1e-7]])
    assert face.tolist() == [0]
    assert d2[0] == pytest.approx(1e-7**2, rel=1e-6)


def test_surface_oracle_in_cell_and_gathered_queries(monkeypatch):
    # queries next to the surface are answered from their own cell, and the
    # ones inside the sphere or far off gather the cells around them, or the
    # whole grid where their own cell holds no face
    import anchormesh as am
    from anchormesh import grid

    spec = am.SequenceSpec(shape="sphere", resolution=2, frames=1, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=3)
    target = am.generate_sequence(spec)[0]
    rng = np.random.default_rng(47)
    queries = np.vstack([target.vertices + rng.normal(scale=1e-3, size=target.vertices.shape),
                         rng.uniform(-0.5, 0.5, size=(40, 3)),
                         rng.normal(size=(20, 3)) * 5.0])
    boxes = []
    columns = grid.CellBins.columns

    def spy(self, lo, hi):
        boxes.append(len(lo))
        return columns(self, lo, hi)

    monkeypatch.setattr(grid.CellBins, "columns", spy)
    for block_pairs in (grid._BLOCK_PAIRS, 16):
        monkeypatch.setattr(grid, "_BLOCK_PAIRS", block_pairs)
        boxes.clear()
        assert_matches_oracle(target, queries)
        gathered = sum(boxes)
        assert 0 < gathered < len(queries) // 2



def test_mesh_answers_empty_cell_queries_without_octree():
    # a query whose cell holds no face gathers the whole face grid: grid
    # needs no point index, so it never loads octree. The package's
    # __init__ would load both: a bare package stands in for it.
    import anchormesh

    code = "\n".join([
        "import sys, types",
        "package = types.ModuleType('anchormesh')",
        f"package.__path__ = {list(anchormesh.__path__)!r}",
        "sys.modules['anchormesh'] = package",
        "import anchormesh.grid",
        "from anchormesh.grid import closest_points_on_surface",
        "from anchormesh.mesh import TriangleMesh",
        # the query's cell between two far faces is empty; the nearest face
        # point is the corner (1, 0, 0)
        "mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [100, 0, 0], [101, 0, 0],"
        " [100, 1, 0]], [[0, 1, 2], [3, 4, 5]])",
        "print(closest_points_on_surface(mesh, [[50.0, 0.0, 0.0]])[3][0])",
        "assert 'anchormesh.octree' not in sys.modules, 'grid loaded octree'",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["2401.0"]


@pytest.mark.parametrize("first", ["anchormesh.mesh", "anchormesh.octree", "anchormesh.grid"])
def test_mesh_and_octree_import_in_either_order(first):
    # octree imports grid and mesh when it loads, grid imports mesh, and
    # neither imports octree, so any of them loads first in a fresh
    # interpreter. The package's __init__ would fix one order: a bare
    # package stands in for it.
    import anchormesh

    code = "\n".join([
        "import sys, types",
        "package = types.ModuleType('anchormesh')",
        f"package.__path__ = {list(anchormesh.__path__)!r}",
        "sys.modules['anchormesh'] = package",
        f"import {first}",
        "import anchormesh.octree",
        "from anchormesh.grid import closest_points_on_surface",
        "from anchormesh.mesh import TriangleMesh",
        "mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [100, 0, 0], [101, 0, 0],"
        " [100, 1, 0]], [[0, 1, 2], [3, 4, 5]])",
        "print(closest_points_on_surface(mesh, [[50.0, 0.0, 0.0]])[3][0])",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["2401.0"]


def test_surface_non_finite_coordinates_raise():
    with pytest.raises(MeshValidationError):
        closest_points_on_surface(unit_cube(), [[np.nan, 0.0, 0.0]])
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, np.inf, 0]], dtype=float)
    with pytest.raises(MeshValidationError):
        closest_points_on_surface(TriangleMesh(verts, [[0, 1, 2]]), [[0.0, 0.0, 0.0]])
    # finite coordinates whose extent a float cannot hold
    verts = np.array([[-1e308, 0, 0], [1e308, 0, 0], [0, 1, 0]])
    with pytest.raises(MeshValidationError):
        closest_points_on_surface(TriangleMesh(verts, [[0, 1, 2]]), [[0.0, 0.0, 0.0]])


@pytest.mark.parametrize("far", [1e300, -1e300])
def test_surface_query_beyond_the_query_limit_raises(far):
    # every squared distance from it overflowed, and face 0 came back at
    # distance inf, where faces 229 and 69 are nearest
    with pytest.raises(MeshValidationError, match="query coordinate beyond"):
        closest_points_on_surface(make_sphere(2), [[far, 0.0, 0.0]])


def test_surface_query_at_the_query_limit_runs_without_a_warning():
    # a needle just above the sliver area has the largest plane-projection
    # terms for its size; from the corners and axes of the query cube they
    # stay finite, and the answers are the scan's
    from anchormesh.mesh import QUERY_LIMIT

    height = 2.5 * DEGENERATE_AREA  # area 1.25 DEGENERATE_AREA
    needle = TriangleMesh([[0.0, 0, 0], [1.0, 0, 0], [1.0, height, 0]], [[0, 1, 2]])
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T
    queries = QUERY_LIMIT * np.vstack([corners, np.eye(3), -np.eye(3)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = closest_points_on_surface(needle, queries)
    want = brute_force_surface_points(needle, queries)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_triangle_sq_distances_match_exact_kernel():
    # against the six-region kernel, to the tolerances below
    rng = np.random.default_rng(19)
    tris = rng.uniform(-1, 1, size=(20, 3, 3))
    tris[0, 2] = 0.5 * (tris[0, 0] + tris[0, 1])  # collinear corners
    tris[1, 1] = tris[1, 2] = tris[1, 0]  # all corners on one point
    queries = rng.uniform(-1.5, 1.5, size=(30, 3))
    # every query against every triangle, coordinates first
    d2, v, w = triangle_sq_distances(queries.T[:, :, None],
                                     *(tris[:, i].T[:, None, :] for i in range(3)))
    assert d2.shape == v.shape == w.shape == (30, 20)
    for qi, q in enumerate(queries):
        for fi, tri in enumerate(tris):
            pos, _ = region_closest_point(q, *tri)
            assert d2[qi, fi] == pytest.approx(((pos - q) ** 2).sum(), abs=1e-12)
            got = tri[0] + v[qi, fi] * (tri[1] - tri[0]) + w[qi, fi] * (tri[2] - tri[0])
            assert np.allclose(got, pos, atol=1e-9)
