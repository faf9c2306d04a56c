import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchormesh import (
    TriangleMesh,
    apply_displacements,
    closest_points_on_surface,
    compute_displacements,
    make_grid,
    make_sphere,
    midpoint_subdivide,
)
from anchormesh.mesh import MeshValidationError, unique_edges
from anchormesh.quantize import neighbor_counts
from anchormesh.subdivide import (_next_table, _subdivide_once, base_plan, edge_table, held_plan,
                                  split_plan, subdivided_vertex_count)
from helpers import (
    brute_force_surface_point,
    build_adjacency,
    connectivity_cases,
    loop_subdivide_once,
    random_mesh,
    unique_rows_neighbor_counts,
    unit_cube,
)


def test_level_zero_is_identity():
    m = make_sphere(1)
    sub = midpoint_subdivide(m, 0)
    assert np.array_equal(sub.mesh.vertices, m.vertices)
    assert np.array_equal(sub.mesh.faces, m.faces)


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        midpoint_subdivide(make_sphere(0), -1)


def test_single_triangle_one_level():
    m = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    sub = midpoint_subdivide(m, 1)
    assert sub.mesh.n_vertices == 6
    assert sub.mesh.n_faces == 4
    # originals first, midpoints in ascending sorted-edge order
    assert np.array_equal(sub.mesh.vertices[:3], m.vertices)
    assert np.array_equal(sub.mesh.vertices[3:], [[0.5, 0, 0], [0, 0.5, 0], [0.5, 0.5, 0]])


def _duplicate_triple_meshes():
    rng = np.random.default_rng(79)
    meshes = []
    for _ in range(3):
        m = random_mesh(rng, n_vertices=12, n_faces=16)
        # the same face again, in another order: it shares its inner edges
        meshes.append(TriangleMesh(m.vertices, np.vstack([m.faces, m.faces[:4, ::-1]])))
    return meshes


def test_subdivided_vertex_count_matches_subdivision():
    empty = TriangleMesh(np.zeros((4, 3)), np.zeros((0, 3), dtype=np.int64))
    meshes = [make_sphere(1), make_grid(3), empty] + _duplicate_triple_meshes()
    for m in meshes:
        for level in range(4):
            built = midpoint_subdivide(m, level).mesh.n_vertices
            assert subdivided_vertex_count(m, level) == built
    assert subdivided_vertex_count(make_sphere(0), 40) > 2 ** 80


@pytest.mark.parametrize("name, verts, faces", connectivity_cases())
def test_subdivide_once_matches_loop_oracle(name, verts, faces):
    got_verts, got_faces, edges, counts = _subdivide_once(verts, faces)
    want_verts, want_faces, parents = loop_subdivide_once(verts, faces)
    assert len(counts) == len(got_verts)
    assert np.array_equal(got_verts, want_verts)
    assert np.array_equal(got_faces, want_faces)
    assert got_faces.dtype == np.int64
    n = len(verts)
    assert parents[:n] == [("original", i) for i in range(n)]
    assert parents[n:] == [("midpoint", u, v) for u, v in edges.tolist()]


@pytest.mark.parametrize("name, verts, faces", connectivity_cases())
def test_neighbor_counts_match_unique_rows_oracle(name, verts, faces):
    # duck-typed so the repeated-index face reaches both counts
    mesh = SimpleNamespace(faces=faces, n_vertices=len(verts), n_faces=len(faces))
    got = neighbor_counts(mesh)
    assert got.dtype == np.int64
    assert np.array_equal(got, unique_rows_neighbor_counts(mesh))


def _valid_connectivity_cases():
    meshes = []
    for name, verts, faces in connectivity_cases():
        try:
            meshes.append(pytest.param(TriangleMesh(verts, faces), id=name))
        except MeshValidationError:  # a face repeats an index
            pass
    return meshes


def _assert_counts_match_oracles(mesh):
    for level in range(4):
        sub = midpoint_subdivide(mesh, level)
        assert sub.neighbor_counts.dtype == np.int64
        assert sub.neighbor_counts.shape == (sub.mesh.n_vertices,)
        assert np.array_equal(sub.neighbor_counts, neighbor_counts(sub.mesh))
        assert np.array_equal(sub.neighbor_counts, unique_rows_neighbor_counts(sub.mesh))


@pytest.mark.parametrize("mesh", _valid_connectivity_cases()
                         + [pytest.param(m, id=f"duplicate-triples{i}")
                            for i, m in enumerate(_duplicate_triple_meshes())]
                         + [pytest.param(make_grid(3), id="open grid"),
                            pytest.param(TriangleMesh(np.eye(4, 3), [[0, 1, 2]]),
                                         id="isolated vertex")])
def test_subdivision_counts_match_neighbor_counts(mesh):
    # the counts built from each split's edges are the subdivided mesh's own
    _assert_counts_match_oracles(mesh)


@st.composite
def face_lists(draw):
    """A mesh of 3 to 9 vertices whose faces repeat: some faces come again
    in the same or the other winding, and some vertices may be unused."""
    n = draw(st.integers(3, 9))
    triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    faces = draw(st.lists(triple, min_size=1, max_size=12))
    for i in draw(st.lists(st.integers(0, len(faces) - 1), max_size=4)):
        a, b, c = faces[i]
        faces.append(draw(st.sampled_from([[a, b, c], [b, c, a], [c, b, a], [a, c, b]])))
    return TriangleMesh(np.arange(3 * n, dtype=np.float64).reshape(n, 3), faces)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(face_lists())
def test_subdivision_counts_match_neighbor_counts_property(mesh):
    _assert_counts_match_oracles(mesh)


def _assert_derived_levels_match_oracles(mesh, levels=4):
    # each level's edge table, derived from the level before, is the one a
    # sort of that level's faces gives; vertices, faces and counts are the
    # loop oracle's
    verts, faces = mesh.vertices, mesh.faces
    table = edge_table(faces, len(verts))
    for level in range(levels + 1):
        if level:
            table = _next_table(faces, len(verts), table)
            verts, faces, _ = loop_subdivide_once(verts, faces)
            edges, face_edges = unique_edges(faces, len(verts))
            assert np.array_equal(table[0], edges)
            assert np.array_equal(table[1], face_edges)
            assert np.array_equal(table[2], edge_table(faces, len(verts))[2])
            assert all(x.dtype == np.int64 for x in table)
        sub = midpoint_subdivide(mesh, level)
        assert np.array_equal(sub.mesh.vertices, verts)
        assert np.array_equal(sub.mesh.faces, faces)
        assert np.array_equal(sub.neighbor_counts, unique_rows_neighbor_counts(sub.mesh))


def _wide_vertex_numbers():
    # faces on vertices numbered past 2^16, whose halves are sorted by wide
    # keys from the first split on, not by the 16-bit stable sort
    m = make_sphere(1)
    vertices = np.vstack([np.zeros((1 << 16, 3)), m.vertices])
    return pytest.param(TriangleMesh(vertices, m.faces + (1 << 16)), id="wide vertex numbers")


@pytest.mark.parametrize("mesh", _valid_connectivity_cases() + [_wide_vertex_numbers()])
def test_derived_edge_tables_match_a_sort_of_each_level(mesh):
    # to level 4 or ~82k faces: the oracles take ~3 s on sphere3's 328k
    _assert_derived_levels_match_oracles(mesh, 4 if mesh.n_faces <= 320 else 3)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(face_lists())
def test_derived_edge_tables_match_a_sort_of_each_level_property(mesh):
    _assert_derived_levels_match_oracles(mesh)


def _assert_base_plan_places_like_a_cold_split(base, levels=4):
    # a mesh with the base's faces and other vertices, as an anchor is:
    # placed through the base's plan it is bitwise its own cold subdivision
    other = TriangleMesh(base.vertices[::-1] * 2.0 + 0.25, base.faces)
    for level in range(levels + 1):
        plan = base_plan(base, level)
        assert held_plan(base, level) is plan
        assert base_plan(base, level) is plan
        for mesh in (base, other):
            got = midpoint_subdivide(mesh, level, plan=plan)
            want = midpoint_subdivide(mesh, level)
            assert np.array_equal(got.mesh.vertices, want.mesh.vertices)
            assert np.array_equal(got.mesh.faces, want.mesh.faces)
            assert np.array_equal(got.neighbor_counts, want.neighbor_counts)
            assert got.mesh.faces.dtype == got.neighbor_counts.dtype == np.int64
            # every placed mesh shares the plan's frozen faces and counts
            assert got.mesh.faces is plan.faces and got.neighbor_counts is plan.neighbor_counts
            assert not plan.faces.flags.writeable and not plan.neighbor_counts.flags.writeable
        assert plan.n_vertices == subdivided_vertex_count(base, level)


@pytest.mark.parametrize("mesh", _valid_connectivity_cases())
def test_a_base_plan_places_like_a_cold_split(mesh):
    _assert_base_plan_places_like_a_cold_split(mesh, 4 if mesh.n_faces <= 320 else 3)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(face_lists())
def test_a_base_plan_places_like_a_cold_split_property(mesh):
    _assert_base_plan_places_like_a_cold_split(mesh)


def test_the_plan_slot_keeps_no_base_alive():
    base = make_sphere(1)
    plan = weakref.ref(base_plan(base, 3))
    assert held_plan(base, 3) is plan()
    assert held_plan(base, 2) is None
    assert held_plan(TriangleMesh(base.vertices, base.faces), 3) is None  # by object
    base = weakref.ref(base)
    gc.collect()
    # the slot let the base go, and emptied itself of the plan made for it
    assert base() is None and plan() is None


def test_the_slot_holds_the_last_plan_only():
    first, second = make_sphere(0), make_sphere(1)
    plan = weakref.ref(base_plan(first, 2))
    base_plan(second, 2)
    gc.collect()
    assert held_plan(first, 2) is None and plan() is None
    assert held_plan(second, 2) is not None


def test_a_plan_refuses_another_level_or_vertex_count():
    mesh = make_sphere(0)
    plan = split_plan(mesh.faces, mesh.n_vertices, 2)
    assert plan.levels == 2
    with pytest.raises(ValueError, match="level"):
        midpoint_subdivide(mesh, 1, plan=plan)
    with pytest.raises(ValueError, match="vertices"):
        plan.place(np.zeros((mesh.n_vertices + 1, 3)))
    with pytest.raises(ValueError):
        split_plan(mesh.faces, mesh.n_vertices, -1)


def test_midpoint_subdivide_matches_repeated_loop_oracle():
    m = make_sphere(1)
    verts, faces = m.vertices, m.faces
    for level in range(1, 4):
        edges, _ = unique_edges(faces, len(verts))
        verts, faces, parents = loop_subdivide_once(verts, faces)
        sub = midpoint_subdivide(m, level)
        assert np.array_equal(sub.mesh.vertices, verts)
        assert np.array_equal(sub.mesh.faces, faces)
        n_prev = len(parents) - len(edges)
        assert parents[n_prev:] == [("midpoint", u, v) for u, v in edges.tolist()]


def test_midpoints_average_parents():
    rng = np.random.default_rng(71)
    m = random_mesh(rng, n_vertices=20, n_faces=30)
    sub = midpoint_subdivide(m, 1)
    n = m.n_vertices
    edges, _ = unique_edges(m.faces, n)
    assert sub.mesh.n_vertices == n + len(edges)
    assert np.array_equal(sub.mesh.vertices[:n], m.vertices)
    for i, (u, v) in enumerate(edges):
        expected = 0.5 * (m.vertices[u] + m.vertices[v])
        assert np.linalg.norm(sub.mesh.vertices[n + i] - expected) < 1e-12


def test_face_count_and_shared_midpoints():
    rng = np.random.default_rng(73)
    m = random_mesh(rng, n_vertices=15, n_faces=25)
    sub = midpoint_subdivide(m, 2)
    assert sub.mesh.n_faces == 25 * 16
    # combinatorial oracle: level-1 vertex count is v + unique edge count
    e0 = len(build_adjacency(m).edges)
    lvl1 = midpoint_subdivide(m, 1)
    assert lvl1.mesh.n_vertices == m.n_vertices + e0
    e1 = len(build_adjacency(lvl1.mesh).edges)
    assert sub.mesh.n_vertices == lvl1.mesh.n_vertices + e1


def test_subdivision_deterministic():
    m = make_sphere(1)
    s1 = midpoint_subdivide(m, 2)
    s2 = midpoint_subdivide(m, 2)
    assert np.array_equal(s1.mesh.vertices, s2.mesh.vertices)
    assert np.array_equal(s1.mesh.faces, s2.mesh.faces)


def test_displacements_zero_on_surface():
    grid = make_grid(4)
    sub = midpoint_subdivide(grid, 1)  # still inside the same plane patch
    field = compute_displacements(sub, grid)
    assert np.all(np.abs(field) < 1e-12)


def test_displacements_uniform_offset():
    grid = make_grid(3)
    target = TriangleMesh(grid.vertices + [0, 0, 0.25], grid.faces)
    sub = midpoint_subdivide(grid, 1)
    field = compute_displacements(sub, target)
    assert np.allclose(field, [0, 0, 0.25], atol=1e-12)


def test_displacements_match_brute_force():
    rng = np.random.default_rng(79)
    src = random_mesh(rng, n_vertices=12, n_faces=16)
    target = random_mesh(rng, n_vertices=18, n_faces=24)
    sub = midpoint_subdivide(src, 1)
    field = compute_displacements(sub, target)
    for i, v in enumerate(sub.mesh.vertices):
        _, _, sp = brute_force_surface_point(target, v)
        assert np.array_equal(field[i], sp.position - v)


def test_apply_zero_identity_and_mismatch():
    sub = midpoint_subdivide(make_sphere(0), 1)
    recon = apply_displacements(sub, np.zeros((sub.mesh.n_vertices, 3)))
    assert np.array_equal(recon.vertices, sub.mesh.vertices)
    assert np.array_equal(recon.faces, sub.mesh.faces)
    with pytest.raises(ValueError):
        apply_displacements(sub, np.zeros((3, 3)))


def test_apply_negated_positions_moves_to_origin():
    sub = midpoint_subdivide(make_sphere(0), 1)
    recon = apply_displacements(sub, -sub.mesh.vertices)
    assert np.all(recon.vertices == 0.0)


def test_lossless_roundtrip_lands_on_surface():
    cube = unit_cube()
    src = make_sphere(1)
    src = TriangleMesh(src.vertices * 0.4 + 0.5, src.faces)  # sphere inside the cube
    sub = midpoint_subdivide(src, 2)
    field = compute_displacements(sub, cube)
    recon = apply_displacements(sub, field)
    _, _, _, d2 = closest_points_on_surface(cube, recon.vertices)
    assert np.all(np.sqrt(d2) < 1e-9)


def test_projection_idempotence():
    # reapplying compute_displacements after reconstruction never grows norms
    rng = np.random.default_rng(83)
    src = random_mesh(rng, n_vertices=10, n_faces=14)
    target = random_mesh(rng, n_vertices=16, n_faces=22)
    sub = midpoint_subdivide(src, 1)
    first = compute_displacements(sub, target)
    recon = apply_displacements(sub, first)
    sub2 = midpoint_subdivide(recon, 0)
    second = compute_displacements(sub2, target)
    n1 = np.linalg.norm(first, axis=1)
    n2 = np.linalg.norm(second, axis=1)
    assert np.all(n2 <= n1 + 1e-12)
