"""The one exact search of both grids, ``grid.least``, at the edges of its
settle rule: queries on the planes between cells, and bounds just inside and
just outside the cells that gave them. Nearest points (radius 1) and closest
surface points (radius 0) must give the bits of a scan of every item."""

import numpy as np

from anchormesh import TriangleMesh, grid, make_grid, octree
from helpers import brute_force_nearest, brute_force_surface_points


def _on_planes(rng, queries, low, width, side):
    """``queries`` with one, two or all three coordinates of each moved onto
    a plane ``low + j * width`` between cells, ``j`` in ``0..side``."""
    out = queries.copy()
    for row in out:
        axes = rng.choice(3, size=rng.integers(1, 4), replace=False)
        row[axes] = low[axes] + rng.integers(0, side[axes] + 1) * width
    return out


def test_nearest_settles_exactly_at_the_cell_width_bound():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(300, 3))
    index = octree.build_octree(pts, leaf_capacity=4)
    planar = _on_planes(rng, rng.uniform(-1.0, 1.0, size=(300, 3)), index.bins.low,
                        index.bins.width, (index.bins.last + 1).astype(int))
    # the bound settles a query where it is under (width - pad)^2, with pad
    # 1e-9 of the largest point or query coordinate: place queries a hair
    # under and over that reach from points well inside the cloud
    pad = grid.PAD * max(index.mag, np.abs(planar).max())
    reach = index.bins.width - pad
    inner = np.flatnonzero(np.abs(pts).max(axis=1) < 0.5)[:40]
    steps = reach * (1.0 + np.array([-1e-12, -1e-15, 0.0, 1e-15, 1e-12]))
    units = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(4, 3))])
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    edge = (pts[inner, None, None] + steps[None, :, None, None] * units[None, None]).reshape(-1, 3)
    queries = np.vstack([planar, edge])
    assert np.abs(edge).max() <= max(index.mag, np.abs(planar).max())  # the pad nearest takes
    got_i, got_d = octree.nearest(index, queries)
    for q, gi, gd in zip(queries, got_i, got_d):
        assert (gi, gd) == brute_force_nearest(pts, q)
    # both sides of the bound occur among the edge queries answered by the
    # point they were placed from
    origin = np.repeat(inner, len(steps) * len(units))
    d2 = got_d[len(planar):] ** 2
    mine = got_i[len(planar):] == origin
    assert np.any(mine & (d2 < reach * reach)) and np.any(mine & (d2 >= reach * reach))


def test_closest_points_settle_exactly_at_the_home_cell_bound():
    # a unit plane of 0.25 squares and a 0.25 square wall standing on it a
    # hair before x = 0.5: the face grid's cells are 0.25 wide from the
    # origin, the plane's vertices lie on the planes between cells, and the
    # wall lies in the cells before x = 0.5 only
    plane = make_grid(4)
    wall = [[0.5 - 1e-8, y, z] for y, z in ((0.25, 0.0), (0.5, 0.0), (0.5, 0.25), (0.25, 0.25))]
    n = plane.n_vertices
    mesh = TriangleMesh(np.vstack([plane.vertices, wall]),
                        np.vstack([plane.faces, [[n, n + 1, n + 2], [n, n + 2, n + 3]]]))
    faces = grid.FaceGrid(mesh)
    cells = faces.cells
    assert cells.width == 0.25 and np.array_equal(cells.low, np.zeros(3))
    assert cells.cell_of(np.array(wall))[:, 0].tolist() == [1] * 4
    rng = np.random.default_rng(11)
    planar = _on_planes(rng, rng.uniform([-0.2, -0.2, -0.5], [1.2, 1.2, 0.5], size=(200, 3)),
                        cells.low, cells.width, np.array([4, 4, 1]))
    # a query settles in its own cell where the box of its bound lies inside
    # that cell: place queries over y-cell centres, at heights 0 and 1/16,
    # whose box reaches a hair short of and past the plane x = j / 4. Where
    # the box of a query at height 1/16 reaches 1e-6 of the reach past
    # x = 0.5, the wall is nearer than the floor
    edge = []
    for height in (0.0, 0.0625):
        reach = height * (1.0 + grid.PAD) + faces.pad
        for j, y in ((1, 0.625), (2, 0.375), (3, 0.125)):
            for step in reach * (1.0 + np.array([-1e-6, -1e-9, 1e-9, 1e-6])):
                edge.append([0.25 * j + step, y, height])
    edge = np.array(edge)
    queries = np.vstack([mesh.vertices, planar, edge])
    got = faces.closest(queries)
    want = brute_force_surface_points(mesh, queries)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    lo, hi = cells.box(edge.T, want[3][-len(edge):], faces.pad)
    home = cells.cell_of(edge)
    inside = ((lo == home) & (hi == home)).all(axis=1)
    on_wall = want[1][-len(edge):] >= plane.n_faces
    assert inside.any() and not inside.all() and on_wall.any() and not on_wall.all()
    assert not (inside & on_wall).any()
