"""Exact grid searches: the cell rule (:func:`cell_of`), the cell index
(:class:`CellBins`) and its one search (:func:`least`), the face grid behind
:func:`closest_points_on_surface`, the point-triangle kernel, the rounding
pad and the pair blocks.

Closest surface points here and nearest points in :mod:`anchormesh.octree`
are both :func:`least`, each by its own measure. Every pair search, the
fine-stage judge's too, forms its pairs in :func:`blocks` of one pair
budget, which this module alone sets.
"""

from __future__ import annotations

import numpy as np

from .mesh import (DEGENERATE_AREA, QUERY_LIMIT, MeshValidationError, TriangleMesh,
                   checked_points, ranges, run_starts, sorted_unique)

# Inflation of a grid search's reach, relative to the reach and to the
# largest coordinate: see ``CellBins.box``.
PAD = 1e-9
# Pairs a block may hold at once: (query, face) in a closest-point search,
# (query, point) in a nearest-point search, (covered vertex, fan triangle)
# in the fine-stage judge. Every search holds one block at a time, and a
# block of 2^13 measured pairs takes about 2.5 MiB, near the 2 MiB L2 of
# one core of the host measured. Swept over 2^11..2^18 (bend sphere, seed 1; traced peak
# of one encode, min time over interleaved budgets, 2-vCPU host):
# level 3 peaks 3.2 / 4.4 / 4.4 / 6.1 / 8.7 / 11.1 MiB at 2^11 / 2^12 /
# 2^13 / 2^14 / 2^15 / 2^18 for encode 64 / 47 / 41 / 40 / 40 / 45 ms;
# level 5 (seed 5) peaks 30 / 32 / 35 / 36 / 40 / 106 MiB for encode
# 927 / 767 / 689 / 605 / 602 / 753 ms. 2^13 is the smallest budget at about
# the fastest level-3 encode; larger ones buy level-5 time with memory.
_BLOCK_PAIRS = 1 << 13


def blocks(cost, budgets=1):
    """Consecutive [start, stop) runs whose summed ``cost`` stays within
    ``budgets`` pair budgets; a run holds at least one item."""
    budget = budgets * _BLOCK_PAIRS
    ends = np.cumsum(cost)
    start = 0
    while start < len(cost):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield start, stop
        start = stop


def owner_blocks(owner, count, budgets=1):
    """:func:`blocks` of the runs ``(owner, count)`` by owner: [start,
    stop) slices that hold whole owners and whose summed ``count`` stays
    within ``budgets`` pair budgets, or one owner. ``owner`` is ascending."""
    if count.sum() <= budgets * _BLOCK_PAIRS:
        yield 0, len(owner)
        return
    per_owner = np.bincount(owner, weights=count).astype(np.int64)
    bounds = np.searchsorted(owner, np.arange(len(per_owner) + 1))
    for s, e in blocks(per_owner, budgets):
        yield int(bounds[s]), int(bounds[e])


def query_columns(queries):
    """The coordinates of ``queries`` (k, 3), coordinates first (3, k), as
    both searches take them: :func:`anchormesh.mesh.checked_points` within
    ``mesh.QUERY_LIMIT``, so that no distance overflows."""
    return np.ascontiguousarray(checked_points(queries, "query", QUERY_LIMIT).T)


def cell_of(points, low, width, last):
    """Cell of each of ``points`` (k, 3) in a grid of cells ``width`` wide
    from ``low``: ``floor((x - low) / width)``, clipped to ``0..last``
    (floats) on every axis. Every grid of the codec places its points, faces
    and queries by this rule."""
    cell = (points - low) / width
    return np.clip(cell, 0.0, last, out=cell).astype(np.int64)


class CellBins:
    """Items binned in the ``shape`` (3,) cells of a uniform grid, each cell
    ``width`` wide from ``low``.

    Keys count the cells of the grid padded by one empty cell on every side
    in x-major order, so that the 3 x 3 x 3 block around a cell never leaves
    it. Item ``i`` is binned in cell ``lo[i]`` or, where ``hi`` is given
    (``boxed``), in every cell of the inclusive cell box ``[lo[i], hi[i]]``:
    ``order`` holds the items sorted by cell key, ascending within a cell,
    ``starts[key]`` is the first slot of a cell in ``order`` and
    ``starts[-1]`` the number of entries.
    """

    def __init__(self, low, width, shape, lo, hi=None):
        self.low, self.width, self.last = low, width, shape - 1.0
        self.boxed = hi is not None
        dims = shape + 2
        self.strides = np.array([dims[1] * dims[2], dims[2], 1])
        # by radius 0 or 1: a cell's key to the bottom of each column around it
        dx, dy = np.divmod(np.arange(9), 3)
        self.around = (np.zeros(1, dtype=np.int64),
                       (dx - 1) * self.strides[0] + (dy - 1) * self.strides[1] - 1)
        if hi is None:
            owner, keys = np.arange(len(lo)), self.key(lo)
        else:
            owner, key, height = self._columns(lo, hi)
            owner, keys = np.repeat(owner, height), np.repeat(key, height) + ranges(0, height)
        n_keys = int(dims.prod())
        # items arrive ascending, so a stable sort by key keeps each cell's
        # items in order; numpy radix-sorts 16-bit keys
        by_key = np.argsort(keys.astype(np.uint16) if n_keys <= 1 << 16 else keys, kind="stable")
        self.order = owner[by_key]
        counts = np.bincount(keys, minlength=n_keys)
        self.starts = np.concatenate([[0], np.cumsum(counts)])

    def key(self, cell):
        """Key of each cell of ``cell`` (..., 3)."""
        return (cell + 1) @ self.strides

    def cell_of(self, points):
        """Cell of each of ``points`` (k, 3), clipped to the grid. The
        transposed view of a (3, k) array is several times faster here than
        a (k, 3) array, whose short rows make numpy broadcast slowly."""
        return cell_of(points, self.low, self.width, self.last)

    def box(self, cols, d2, pad):
        """Inclusive cell box ``(lo, hi)`` of the cube ``q +- r`` around each
        query of ``cols`` (3, k), clipped to the grid: ``r`` is the square
        root of ``d2`` inflated by ``1e-9`` of itself and by ``pad``, so that
        rounding never leaves out an item within ``d2`` of ``q``. A query
        with ``d2 = inf`` gets the whole grid."""
        reach = np.sqrt(d2) * (1.0 + PAD) + pad
        return self.cell_of((cols - reach).T), self.cell_of((cols + reach).T)

    def _columns(self, lo, hi):
        """``(owner, key, height)`` of the z-columns of cells in each
        inclusive cell box ``[lo[i], hi[i]]``, by owner: the key of a
        column's bottom cell and its number of cells."""
        span = hi - lo + 1
        count = span[:, 0] * span[:, 1]
        owner = np.repeat(np.arange(len(lo)), count)
        rank = ranges(0, count)
        ny = span[owner, 1]
        cell = lo[owner]
        cell[:, 0] += rank // ny
        cell[:, 1] += rank % ny
        return owner, self.key(cell), span[owner, 2]

    def columns(self, lo, hi):
        """``(owner, first slot, count)`` of the z-columns of cells in each
        inclusive cell box ``[lo[i], hi[i]]``, by owner: a column's entries
        are ``order[first:first + count]``."""
        owner, key, height = self._columns(lo, hi)
        first = self.starts[key]
        return owner, first, self.starts[key + height] - first


def least(bins, cols, measure, radius, pad, n_items):
    """Per query of ``cols`` (3, k), the item of ``bins`` at the least
    squared distance and the ``measure`` of that pair, as ``(item,
    measured)``, with ties to the lowest item: what a scan of every item
    finds.

    ``measure(q, item)`` gives a tuple of arrays (..., m) for the (query,
    item) pairs from query coordinates ``q`` (3, m), the last their squared
    distances, elementwise, so a pair gives the same bits in any batch. An
    item within ``r`` of a query ``q`` must be binned in a cell of the box
    that :meth:`CellBins.box` gives ``q +- r``, its ``pad`` covering the
    rounding.

    - *Bound.* ``q`` is measured against the items of the cells within
      ``radius`` (0 or 1) of its own on every axis, and the least distance
      bounds its minimum: ``r^2``, or ``inf`` where those cells are empty.
    - *Settle.* Where the box of ``q +- r`` lies inside those cells, every
      item within ``r`` has been measured. It does when ``r < radius *
      width - pad``: every other cell is ``radius`` widths or more from
      ``q``, which lies on each axis in the middle of those cells or off the
      grid past their margin side.
    - *Gather.* Every other query measures once the items of every cell its
      box covers, the whole grid for ``r^2 = inf``; a pair met in several
      cells, where items are binned as boxes, once.

    Either way every item at the minimum is measured. Pairs are formed in
    blocks of whole queries within one pair budget (:func:`owner_blocks`),
    and for the gather within one budget of cell columns too; a query's
    answer depends on its own pairs only, so the blocks do not change it.
    """
    home = bins.cell_of(cols.T)
    column = bins.key(home)[:, None] + bins.around[radius]
    owner = np.repeat(np.arange(len(home)), column.shape[1])
    first = bins.starts[column].ravel()
    count = bins.starts[column + 2 * radius + 1].ravel() - first
    item, measured = _least_in_runs(bins, cols, measure, n_items, owner, first, count)
    reach = max(radius * bins.width - pad, 0.0)
    settled = measured[-1] < reach * reach
    if not settled.all():  # most nearest-point calls end here: skip the box
        todo = np.flatnonzero(~settled)
        lo, hi = bins.box(np.take(cols, todo, axis=1), measured[-1][todo], pad)
        beyond = ((lo < home[todo] - radius) | (hi > home[todo] + radius)).any(axis=1)
        todo, lo, hi = todo[beyond], lo[beyond], hi[beyond]
        span = hi - lo + 1
        for s, e in blocks(span[:, 0] * span[:, 1]):
            item[todo[s:e]], gathered = _least_in_runs(
                bins, np.take(cols, todo[s:e], axis=1), measure, n_items,
                *bins.columns(lo[s:e], hi[s:e]), gather=True)
            for out, x in zip(measured, gathered):
                out[..., todo[s:e]] = x
    return item, measured


def _least_in_runs(bins, cols, measure, n_items, owner, first, count, gather=False):
    """:func:`least` over the entries ``order[first:first + count]`` of each
    run of queries ``owner`` (ascending), ``n_items`` and ``inf`` for a query
    without any; a gather over items binned as boxes measures a pair once."""
    k = cols.shape[1]
    item = np.full(k, n_items)
    best = None  # the measure's arrays per query, shaped by the first block
    unique = gather and bins.boxed
    # a gathered face recurs in each covered cell it touches, ~4 times on the
    # codec's queries, and an entry is two integers where a measured pair is
    # ~30 floats: four budgets of entries make about one budget of pairs
    for a, b in owner_blocks(owner, count, 4 if unique else 1):
        who = np.repeat(owner[a:b], count[a:b])
        found = bins.order[ranges(first[a:b], count[a:b])]
        if unique:
            who, found = np.divmod(sorted_unique(who * n_items + found), n_items)
        measured = measure(np.take(cols, who, axis=1), found)
        if best is None:
            best = [np.full(x.shape[:-1] + (k,), np.inf) for x in measured]
        if len(who):
            dist, d2 = measured[-1], best[-1]
            starts = run_starts(who)
            d2[who[starts]] = np.minimum.reduceat(dist, starts)
            tied = np.flatnonzero(dist == d2[who])  # the pairs at their query's minimum
            np.minimum.at(item, who[tied], found[tied])
            if len(measured) > 1:  # the rest of each winning pair's measure
                win = tied[found[tied] == item[who[tied]]]
                for out, x in zip(best, measured[:-1]):
                    out[..., who[win]] = x[..., win]
    return item, best


class FaceGrid:
    """The faces of a mesh binned in a :class:`CellBins` grid, each in every
    cell its bounding box touches, for closest-point queries
    (:meth:`closest`).

    The cell size starts at the mean face extent and doubles until the grid
    has at most eight cells, and the faces at most sixteen cell entries, per
    face. The grid also keeps each face's :func:`triangle_terms` and the
    reach padding of :meth:`closest`. Query coordinates and face terms are
    held coordinates first, (3, k). Raises :class:`MeshValidationError` for
    a mesh without faces.
    """

    def __init__(self, mesh: TriangleMesh):
        if mesh.n_faces == 0:
            raise MeshValidationError("closest-point query requires a mesh with faces")
        cols = np.ascontiguousarray(mesh.vertices.T)
        # np.take keeps gathered (rows, items) arrays contiguous; x[:, i] does not
        a, b, c = (np.take(cols, mesh.faces[:, i], axis=1) for i in range(3))
        fmin = np.minimum(np.minimum(a, b), c)
        fmax = np.maximum(np.maximum(a, b), c)
        low = fmin.min(axis=1)
        extent = fmax.max(axis=1) - low
        h = float((fmax - fmin).max(axis=0).mean()) or float(extent.max()) or 1.0
        m = mesh.n_faces
        while True:
            inner = np.floor(extent / h) + 1.0
            if np.prod(inner) <= 8.0 * m:
                lo, hi = (cell_of(x.T, low, h, inner - 1.0) for x in (fmin, fmax))
                if (hi - lo + 1).prod(axis=1).sum() <= 16 * m:
                    break
            h *= 2.0
        self.cells = CellBins(low, h, inner.astype(np.int64), lo, hi)
        self.terms = triangle_terms(a, b, c)
        self.pad = PAD * max(float(fmax.max()), -float(low.min()))  # of the largest coordinate

    def measure(self, q, face):
        """``(point, v, w, d2)`` of each (query, face) pair, from the query
        coordinates ``q`` (3, k): the face's point ``a + v ab + w ac`` (3, k)
        by :func:`sq_distances_to_terms` and its squared distance from the
        query."""
        terms = np.take(self.terms, face, axis=1)
        _, v, w = sq_distances_to_terms(q, terms)
        point = terms[0:3] + v * terms[3:6] + w * terms[6:9]
        diff = point - q
        return point, v, w, dot3(diff, diff)

    def closest(self, points):
        """Closest point on the mesh surface to each of ``points`` (k, 3), as
        ``(positions, faces, bary, sq_dists)`` arrays.

        The face and its :meth:`measure` are :func:`least` from the query's
        own cell. A face's point is a convex combination of its corners, up
        to rounding, so a face within ``r`` of ``q`` has a bounding box that
        meets ``q +- r``; a pad of ``1e-9`` of the largest face coordinate
        covers the rounding. The point is ``a + v (b - a) + w (c - a)``, with
        barycentric weights ``(1 - v - w, v, w)``. Raises
        :class:`MeshValidationError` for queries that :func:`query_columns`
        rejects.
        """
        face, (point, v, w, d2) = least(self.cells, query_columns(points), self.measure,
                                        0, self.pad, self.terms.shape[1])
        return point.T.copy(), face, np.stack([1.0 - v - w, v, w], axis=1), d2


def closest_points_on_surface(mesh: TriangleMesh, points):
    """Batched closest-surface-point query: :meth:`FaceGrid.closest` of a
    grid over ``mesh``.

    Returns ``(positions, faces, bary, sq_dists)`` arrays: per query the
    closest point of the surface, its face (the lowest on ties), its
    barycentric weights in that face and its squared distance, exactly as a
    scan of every face finds them. Raises :class:`MeshValidationError` for a
    mesh without faces and for queries that :func:`query_columns` rejects.
    """
    return FaceGrid(mesh).closest(points)


def dot3(u, v):
    """Dot products of ``u`` and ``v`` along their first axis, of length 3."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def triangle_terms(a, b, c):
    """What :func:`sq_distances_to_terms` needs of each triangle, as rows
    stacked along a new first axis: ``a`` (3 rows), ``b - a`` (3), ``c - a``
    (3), then ``|ab|^2``, ``ab.ac``, ``|ac|^2``, the divisors of the
    projections onto edges ab, ac and bc (inf for a zero-length edge), the
    inverse of ``|ab x ac|^2`` (0 for a degenerate triangle) and 1 for a
    non-degenerate triangle, else 0: 17 rows. Computing them once per
    triangle and gathering them per pair gives the same bits."""
    ab = b - a
    ac = c - a
    d00 = dot3(ab, ab)
    d01 = dot3(ab, ac)
    d11 = dot3(ac, ac)
    dbc = d00 - 2.0 * d01 + d11
    denom = d00 * d11 - d01 * d01  # |ab x ac|^2
    # the sliver rule on the Lagrange identity, from the dot products the
    # kernel needs, not on mesh.face_normals: the cross product rounds apart
    flat = 0.5 * np.sqrt(np.maximum(denom, 0.0)) > DEGENERATE_AREA
    return np.concatenate([a, ab, ac, np.stack([
        d00, d01, d11, np.where(d00 > 0.0, d00, np.inf), np.where(d11 > 0.0, d11, np.inf),
        np.where(dbc > 0.0, dbc, np.inf), 1.0 / np.where(flat, denom, np.inf), flat])])


def sq_distances_to_terms(p, terms):
    """Squared distance from points to triangles, elementwise, and where on
    the triangle it is reached.

    ``p`` holds coordinates first, shape (3, ...), and ``terms`` the
    :func:`triangle_terms` rows of the triangles, (17, ...), with the
    trailing shapes broadcasting against each other. Returns ``(d2, v, w)``
    of the broadcast shape: the closest point on triangle (a, b, c) is
    ``a + v (b - a) + w (c - a)``. The search uses dot products alone, and
    ``d2`` is expanded from them, so it carries rounding of the order of the
    squared distance to ``a`` times the machine epsilon. Degenerate
    triangles are measured by their edges; of equally near edges, the first
    of ab, ac and bc wins.
    """
    a, ab, ac = terms[0:3], terms[3:6], terms[6:9]
    d00, d01, d11, div_ab, div_ac, div_bc, inv, flat = terms[9:17]
    rel = p - a
    e = dot3(rel, rel)
    d20 = dot3(rel, ab)
    d21 = dot3(rel, ac)
    # closest point on the boundary: edge ab, then ac, then bc
    v = np.clip(d20 / div_ab, 0.0, 1.0)
    w = np.zeros_like(v)
    d2 = e - v * (2.0 * d20 - v * d00)
    t = np.clip(d21 / div_ac, 0.0, 1.0)
    cand = e - t * (2.0 * d21 - t * d11)
    take = cand < d2
    v, w, d2 = np.where(take, 0.0, v), np.where(take, t, w), np.where(take, cand, d2)
    t = np.clip((d21 - d20 - d01 + d00) / div_bc, 0.0, 1.0)
    s = 1.0 - t
    cand = e - 2.0 * (s * d20 + t * d21) + s * s * d00 + 2.0 * s * t * d01 + t * t * d11
    take = cand < d2
    v, w, d2 = np.where(take, s, v), np.where(take, t, w), np.where(take, cand, d2)
    # the plane projection wins wherever it lands inside the triangle
    vi = (d11 * d20 - d01 * d21) * inv
    wi = (d00 * d21 - d01 * d20) * inv
    inside = (vi >= 0.0) & (wi >= 0.0) & (vi + wi <= 1.0) & (flat != 0.0)
    v, w = np.where(inside, vi, v), np.where(inside, wi, w)
    d2 = np.where(inside, e - vi * d20 - wi * d21, d2)
    return np.maximum(d2, 0.0), v, w
