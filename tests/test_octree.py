"""The pointer octree oracle (the tests down to ``test_build_is_deterministic``)
and the flattened point index of ``anchormesh.octree`` checked against it and
against a linear scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchormesh import MeshValidationError, grid, octree
from helpers import brute_force_nearest
from helpers import pointer_nearest as nearest
from helpers import pointer_octree as build_octree


def _collect_leaves(node, out):
    if node.indices is not None:
        out.append(node)
    else:
        for child in node.children:
            if child is not None:
                _collect_leaves(child, out)
    return out


def test_single_point_single_leaf():
    tree = build_octree([[1.0, 2.0, 3.0]])
    assert tree.root.indices is not None
    assert tree.root.depth == 0
    assert list(tree.root.indices) == [0]


def test_duplicates_stop_at_max_depth():
    pts = np.tile([[0.5, 0.5, 0.5]], (9, 1))
    tree = build_octree(pts, leaf_capacity=8)
    leaves = _collect_leaves(tree.root, [])
    assert len(leaves) == 1
    assert leaves[0].depth == tree.max_depth
    assert len(leaves[0].indices) == 9  # oversized leaf permitted


def test_structural_audit_random_points():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-3, 3, size=(10_000, 3))
    tree = build_octree(pts)
    leaves = _collect_leaves(tree.root, [])
    seen = np.concatenate([leaf.indices for leaf in leaves])
    assert len(seen) == len(pts)
    assert np.array_equal(np.sort(seen), np.arange(len(pts)))
    for leaf in leaves:
        assert leaf.depth <= tree.max_depth
        assert len(leaf.indices) <= tree.leaf_capacity or leaf.depth == tree.max_depth
        sub = pts[leaf.indices]
        assert np.all(np.abs(sub - leaf.center) <= leaf.half + 1e-15)


def test_half_open_child_assignment():
    # point exactly on the splitting plane goes to the upper child
    pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])  # center x = 1.0
    tree = build_octree(pts, leaf_capacity=1)
    leaves = _collect_leaves(tree.root, [])
    by_index = {int(i): leaf for leaf in leaves for i in leaf.indices}
    assert by_index[2].center[0] > tree.center[0]  # x == center -> upper half


def test_build_rejects_empty():
    with pytest.raises(ValueError):
        build_octree(np.zeros((0, 3)))


def test_build_rejects_bad_capacity():
    with pytest.raises(ValueError):
        build_octree([[0, 0, 0]], leaf_capacity=0)


def test_nearest_exact_hit():
    pts = np.array([[0, 0, 0], [1, 1, 1], [2, 0, 1]], dtype=float)
    tree = build_octree(pts)
    idx, dist = nearest(tree, [1, 1, 1])
    assert idx == 1 and dist == 0.0


def test_nearest_simple():
    tree = build_octree([[0, 0, 0], [10, 0, 0]])
    idx, dist = nearest(tree, [4, 0, 0])
    assert idx == 0 and dist == 4.0


def test_nearest_tie_lowest_index():
    tree = build_octree([[0, 0, 0], [10, 0, 0], [-10, 0, 0]])
    idx, dist = nearest(tree, [5.0, 0, 0])
    assert idx == 0 and dist == 5.0
    idx, _ = nearest(tree, [0.0, 7.0, 0.0])  # equidistant to nothing; sanity
    assert idx == 0


def test_nearest_matches_linear_scan():
    rng = np.random.default_rng(33)
    pts = rng.uniform(-2, 2, size=(10_000, 3))
    tree = build_octree(pts)
    queries = rng.uniform(-2.5, 2.5, size=(1000, 3))
    for q in queries:
        got_i, got_d = nearest(tree, q)
        want_i, want_d = brute_force_nearest(pts, q)
        assert got_i == want_i
        assert got_d == want_d


def test_nearest_matches_linear_scan_with_lattice_ties():
    # integer lattice creates genuinely tied distances
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    tree = build_octree(grid, leaf_capacity=4)
    rng = np.random.default_rng(5)
    queries = np.vstack([
        grid + 0.5,  # centers of cells: 8-way ties
        grid[rng.choice(len(grid), 50)] + [0.5, 0, 0],  # edge midpoints: 2-way ties
    ])
    for q in queries:
        got_i, got_d = nearest(tree, q)
        want_i, want_d = brute_force_nearest(grid, q)
        assert got_i == want_i
        assert got_d == want_d


def test_build_is_deterministic():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(500, 3))
    t1 = build_octree(pts)
    t2 = build_octree(pts)
    queries = rng.uniform(-1, 1, size=(50, 3))
    for q in queries:
        assert nearest(t1, q) == nearest(t2, q)


def _cell_points(index, cell):
    """Indices binned in ``cell``, as the index stores them."""
    key = int(index.bins.key(np.asarray(cell)))
    return index.bins.order[index.bins.starts[key]:index.bins.starts[key + 1]].tolist()


def _side(index):
    """Cells on each axis of the index's grid: ``2 ** depth`` on all three."""
    side = index.bins.last + 1.0
    assert np.all(side == side[0]) and int(side[0]).bit_count() == 1
    return int(side[0])


def _depth(index):
    return _side(index).bit_length() - 1


def _cells(index):
    """Each point's cell as the index stores it: read back from the slots of
    ``bins.order`` that ``bins.starts`` gives each cell key."""
    bins = index.bins
    keys = np.empty(len(bins.order), dtype=np.int64)
    keys[bins.order] = np.repeat(np.arange(len(bins.starts) - 1), np.diff(bins.starts))
    return np.stack(np.unravel_index(keys, (bins.last + 3).astype(int)), axis=1) - 1


def test_index_single_point_single_cell():
    index = octree.build_octree([[1.0, 2.0, 3.0]])
    assert _depth(index) == 0 and _side(index) == 1
    assert _cell_points(index, [0, 0, 0]) == [0]
    assert index.bins.starts[-1] == 1


def test_index_rejects_what_the_oracle_rejects():
    with pytest.raises(ValueError):
        octree.build_octree(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        octree.build_octree([[0, 0, 0]], leaf_capacity=0)
    with pytest.raises(ValueError, match="max_depth"):
        octree.build_octree([[0, 0, 0]], max_depth=-1)


def test_index_duplicates_stop_at_the_cell_cap():
    pts = np.tile([[0.5, 0.5, 0.5]], (9, 1))
    # no depth separates duplicates: the grid stops at its cell cap (8 ** 2
    # cells for 9 points) or at max_depth, whichever comes first
    index = octree.build_octree(pts, leaf_capacity=8)
    assert _depth(index) == 2
    assert _cell_points(index, _cells(index)[0]) == list(range(9))  # oversized cell permitted
    assert _depth(octree.build_octree(pts, leaf_capacity=8, max_depth=1)) == 1


def test_index_cells_are_the_grid_cells_at_the_shallowest_depth():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-3, 3, size=(10_000, 3))
    index = octree.build_octree(pts)
    assert np.array_equal(np.sort(index.bins.order), np.arange(len(pts)))
    bins, cells, side = index.bins, _cells(index), _side(index)
    assert np.array_equal(cells, grid.cell_of(pts, bins.low, bins.width, side - 1.0))
    counts = np.diff(index.bins.starts)
    assert counts.max() <= octree.DEFAULT_LEAF_CAPACITY
    assert side ** 3 <= 8 * len(pts)
    # the shallowest such depth: one level up, where the same rule gives
    # each cell's parent, some cell holds too many
    parent = grid.cell_of(pts, bins.low, 2.0 * bins.width, side // 2 - 1.0)
    assert np.array_equal(parent, cells >> 1)
    assert np.unique(parent, axis=0, return_counts=True)[1].max() > octree.DEFAULT_LEAF_CAPACITY
    keys = index.bins.key(cells)
    for key in np.flatnonzero(counts)[:200]:
        members = index.bins.order[index.bins.starts[key]:index.bins.starts[key + 1]]
        assert np.all(keys[members] == key)
        assert np.all(np.diff(members) > 0)  # ascending within a cell
    lo = bins.low + cells * bins.width
    assert np.all(pts >= lo - 1e-12) and np.all(pts <= lo + bins.width + 1e-12)


@pytest.mark.parametrize("capacity", [1, 2, 4])
@pytest.mark.parametrize("scale", [1e-3, 0.1, 0.3, 1.0, 1e3])
def test_index_bins_each_point_in_the_cell_a_query_on_it_starts_from(scale, capacity):
    # the build places points by the rule that queries use (grid.cell_of);
    # lattice coordinates often fall on the planes between cells
    rng = np.random.default_rng(capacity)
    for _ in range(20):
        low, high = rng.integers(1, 9, size=2)
        pts = rng.integers(-low, high + 1, size=(int(rng.integers(2, 401)), 3)) * scale
        index = octree.build_octree(pts, leaf_capacity=capacity)
        assert np.array_equal(index.bins.cell_of(pts), _cells(index))


def test_index_half_open_cell_assignment():
    # a point exactly on the splitting plane goes to the upper cell
    pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])  # center x = 1.0
    index = octree.build_octree(pts, leaf_capacity=1)
    assert _depth(index) == 1 and index.bins.low[0] + index.bins.width == 1.0  # the plane x = 1
    cells = _cells(index)
    assert cells[2, 0] == cells[1, 0] > cells[0, 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, -1e200, 1e300])
def test_index_build_and_query_reject_non_finite_coordinates(bad):
    # points beyond the mesh limit and queries beyond the query limit,
    # finite or not: at +-1e200 the index was built, and its distances
    # overflowed to inf
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    broken = pts.copy()
    broken[1, 2] = bad
    with pytest.raises(MeshValidationError, match="indexed point coordinate beyond"):
        octree.build_octree(broken)
    with pytest.raises(MeshValidationError, match="query coordinate beyond"):
        octree.nearest(octree.build_octree(pts), broken)
    # finite coordinates whose extent a float cannot hold
    with pytest.raises(MeshValidationError, match="indexed point coordinate beyond"):
        octree.build_octree(np.vstack([pts, [[1e308, 0, 0], [-1e308, 0, 0]]]))


def test_index_nearest_refuses_a_query_whose_distances_overflow():
    # at 1e300 every squared distance overflowed, and point 0 came back at
    # distance inf where point 2 is nearest; at the query limit they stay
    # finite, and the answer is the scan's
    from anchormesh.mesh import QUERY_LIMIT

    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    index = octree.build_octree(pts)
    with pytest.raises(MeshValidationError, match="query coordinate beyond"):
        octree.nearest(index, [[1e300, 0, 0]])
    with np.errstate(over="raise", invalid="raise"):
        idx, dist = octree.nearest(index, [[QUERY_LIMIT, 0, 0], [-QUERY_LIMIT, 0, 0]])
    assert [(int(i), float(d)) for i, d in zip(idx, dist)] == [
        brute_force_nearest(pts, q) for q in ([QUERY_LIMIT, 0, 0], [-QUERY_LIMIT, 0, 0])]


def test_index_nearest_answers_a_batch():
    pts = np.array([[0, 0, 0], [10, 0, 0], [-10, 0, 0], [0, 9, 0]], dtype=float)
    idx, dist = octree.nearest(octree.build_octree(pts), [[0, 9, 0], [4, 0, 0], [5, 0, 0]])
    assert idx.tolist() == [3, 0, 0] and dist.tolist() == [0.0, 4.0, 5.0]  # a tie to the lowest
    idx, dist = octree.nearest(octree.build_octree(pts), np.zeros((0, 3)))
    assert len(idx) == len(dist) == 0


def test_index_nearest_matches_linear_scan():
    rng = np.random.default_rng(33)
    pts = rng.uniform(-2, 2, size=(10_000, 3))
    queries = rng.uniform(-2.5, 2.5, size=(1000, 3))
    got_i, got_d = octree.nearest(octree.build_octree(pts), queries)
    for q, gi, gd in zip(queries, got_i, got_d):
        assert (gi, gd) == brute_force_nearest(pts, q)


def test_index_nearest_with_an_empty_block_inside_the_grid():
    # two far clusters and queries between them: the 3 x 3 x 3 block around
    # each query's cell is empty, so it gathers the whole grid
    rng = np.random.default_rng(53)
    pts = np.vstack([rng.uniform(0, 1, (40, 3)), rng.uniform(0, 1, (40, 3)) + [100, 0, 0]])
    queries = np.array([[50.0, 0.5, 0.5], [40.0, 0.0, 1.0], [61.0, 0.9, 0.2]])
    index = octree.build_octree(pts, leaf_capacity=1)
    home = index.bins.cell_of(queries)
    assert (np.abs(_cells(index)[None] - home[:, None]).max(axis=2) > 1).all()
    got_i, got_d = octree.nearest(index, queries)
    for q, gi, gd in zip(queries, got_i, got_d):
        assert (gi, gd) == brute_force_nearest(pts, q)


def test_index_nearest_matches_linear_scan_with_lattice_ties():
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    rng = np.random.default_rng(5)
    queries = np.vstack([
        grid + 0.5,  # centers of cells: 8-way ties
        grid[rng.choice(len(grid), 50)] + [0.5, 0, 0],  # edge midpoints: 2-way ties
    ])
    got_i, got_d = octree.nearest(octree.build_octree(grid, leaf_capacity=4), queries)
    for q, gi, gd in zip(queries, got_i, got_d):
        assert (gi, gd) == brute_force_nearest(grid, q)


def test_index_flat_clouds_keep_the_cell_count_bounded():
    # a cell size taken from the box volume would explode on a flat cloud;
    # the index never has more than eight cells per point
    rng = np.random.default_rng(3)
    for pts in (np.c_[rng.uniform(-1, 1, (4000, 2)), np.zeros(4000)],
                np.c_[rng.uniform(-1, 1, 4000), np.zeros((4000, 2))],
                np.tile([[1e6, -1e6, 3.0]], (500, 1))):
        index = octree.build_octree(pts, leaf_capacity=1)
        assert _side(index) ** 3 <= 8 * len(pts)
        assert len(index.bins.starts) - 1 <= 27 * 8 * len(pts)  # with its margin
        queries = pts[::50] + rng.normal(0, 1e-3, (len(pts[::50]), 3))
        got_i, got_d = octree.nearest(index, queries)
        for q, gi, gd in zip(queries, got_i, got_d):
            assert (gi, gd) == brute_force_nearest(pts, q)


_SHAPES = ("general", "duplicates", "planar", "collinear", "single")


@st.composite
def clouds(draw):
    """``(points, queries, leaf_capacity)``: a point cloud of one of
    ``_SHAPES`` at a scale from 1e-6 to 1e6, and queries on it, near it and
    far outside its box."""
    shape = draw(st.sampled_from(_SHAPES))
    n = 1 if shape == "single" else draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = 10.0 ** draw(st.integers(-6, 6))
    rng = np.random.default_rng(seed)
    # small integer lattices make ties and duplicates common
    pts = rng.integers(-3, 4, size=(n, 3)).astype(float)
    if draw(st.booleans()):
        pts += rng.uniform(-0.5, 0.5, size=(n, 3))
    if shape == "duplicates":
        pts = pts[rng.integers(0, max(1, n // 4), n)]
    elif shape == "planar":
        pts[:, draw(st.integers(0, 2))] = 1.0
    elif shape == "collinear":
        pts[:, 1:] = pts[:, :1] * [2.0, -1.0]
    offset = rng.integers(-2, 3, size=3) * draw(st.sampled_from([0.0, 1.0, 100.0]))
    pts = (pts + offset) * scale
    k = draw(st.integers(1, 30))
    queries = np.vstack([
        pts[rng.integers(0, n, k)],  # on a point
        (rng.integers(-4, 5, size=(k, 3)) * 0.5 + offset) * scale,  # lattice: ties
        (rng.uniform(-4, 4, size=(k, 3)) + offset) * scale,
        (rng.normal(0, 1, size=(k, 3)) * 1e3 + offset) * scale,  # far outside the box
    ])
    return pts, queries, draw(st.sampled_from([1, 2, 4, 16]))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(clouds())
def test_index_nearest_matches_the_pointer_octree_and_a_scan(cloud):
    pts, queries, capacity = cloud
    got_i, got_d = octree.nearest(octree.build_octree(pts, leaf_capacity=capacity), queries)
    tree = build_octree(pts, leaf_capacity=capacity)
    for q, gi, gd in zip(queries, got_i, got_d):
        assert (gi, gd) == nearest(tree, q) == brute_force_nearest(pts, q)
