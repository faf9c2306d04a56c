"""Exact nearest-neighbour queries over a 3D point set: the coarse stage's
index.

The index is a flattened ("linear") octree, after Gargantini, "An effective
way to represent quadtrees" (CACM 1982): the points are binned into the
cubic cells of one octree level and kept as arrays sorted by cell key, so a
query gathers whole runs of points, a column of cells at a time, instead of
walking nodes.

The cells are those of one octree level over the points' bounding cube,
inflated by 1e-9: a point's cell is :func:`anchormesh.grid.cell_of`, the
rule by which every query of this index and every face of the face grid
finds its cells too. The depth is the shallowest at which no cell holds
more than ``leaf_capacity`` points, within the caps of :func:`build_octree`.

The search has the shape of the closest-point search of
:mod:`anchormesh.grid`, whose cell index, rounding pad and pair blocks it
uses: a bound ``r`` on the distance, from the nearest point in the cells
around the query's own, then one gather of the cells of the box ``q +- r``
(:meth:`anchormesh.grid.CellBins.box`), which hold every point within ``r``
of the query ``q``. It is exact: it returns what a linear scan returns,
the minimum of ``((p - q) ** 2).sum()`` with ties to the lowest point
index. Only the order in which cells are visited differs, and no answer
depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PAD, CellBins, cell_of, owner_blocks
from .mesh import MeshValidationError, ranges, run_starts

DEFAULT_LEAF_CAPACITY = 16
DEFAULT_MAX_DEPTH = 21


@dataclass(frozen=True, eq=False)
class Octree:
    """Points binned into the ``side ** 3`` cells of one octree level,
    ``side = 2 ** depth``, each cell ``width`` wide from ``low``.

    ``cell`` holds each point's integer cell and ``bins`` the points binned
    by it in a :class:`anchormesh.grid.CellBins` grid, the structure the
    closest-point face grid uses too. ``sorted_cols`` holds the points in
    the order of ``bins.order``, coordinates first.
    """

    points: np.ndarray
    depth: int
    side: int
    low: np.ndarray
    width: float
    cell: np.ndarray
    bins: CellBins
    sorted_cols: np.ndarray  # (3, n)
    mag: float  # largest coordinate magnitude
    block: np.ndarray  # key offsets of a block's nine z-columns


def build_octree(points, leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> Octree:
    """Index a non-empty point set (duplicates allowed).

    The depth is the shallowest at which no cell holds more than
    ``leaf_capacity`` points, but at most ``max_depth`` and at most the
    depth where the grid would have more than eight cells per point:
    duplicates, a flat or a clustered cloud never ask for more cells than
    that. Each point's cell is found once, at the deepest depth allowed; a
    coarser cell is a right shift of it, exactly, as the cell widths differ
    by powers of two. Raises :class:`anchormesh.mesh.MeshValidationError`
    for non-finite coordinates.
    """
    pts = np.array(points, dtype=np.float64, copy=True).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("cannot build an octree over an empty point set")
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if not np.isfinite(pts).all():
        raise MeshValidationError("point index requires finite coordinates")
    pts.setflags(write=False)
    n = len(pts)
    cols = np.ascontiguousarray(pts.T)  # reductions along a length-3 axis are slow
    lo = cols.min(axis=1)
    hi = cols.max(axis=1)
    half = float((hi - lo).max()) * 0.5 + PAD
    low = 0.5 * (lo + hi) - half
    cap = min(max_depth, (n.bit_length() - 1) // 3 + 1)  # deepest with 8 ** depth <= 8 n
    deepest = cell_of(cols.T, low, 2.0 * half / (1 << cap), (1 << cap) - 1.0)
    for depth in range(cap + 1):
        side = 1 << depth
        cell = deepest >> (cap - depth)
        if depth == cap or np.bincount(
                (cell[:, 0] * side + cell[:, 1]) * side + cell[:, 2]).max() <= leaf_capacity:
            break
    width = 2.0 * half / side
    bins = CellBins(low, width, np.full(3, side), cell)
    dx, dy = np.divmod(np.arange(9), 3)
    return Octree(pts, depth, side, low, width, cell, bins,
                  sorted_cols=np.ascontiguousarray(np.take(pts, bins.order, axis=0).T),
                  mag=float(np.abs(pts).max()),
                  # from a cell's key to the bottom cell of each column around it
                  block=(dx - 1) * bins.strides[0] + (dy - 1) * bins.strides[1] - 1)


def _nearest_in_columns(index: Octree, cols, owner, first, count):
    """Least squared distance ``((p - q) ** 2).sum()`` from each query of
    ``cols`` (3, k) to the points of its z-columns (``owner``, ascending,
    ``first`` slot and ``count``) and the lowest point index at it; ``inf``
    and index ``n`` for a query without points. The (query, point) pairs
    are formed in blocks of whole queries sized to a pair budget."""
    k = cols.shape[1]
    n = len(index.points)
    least = np.full(k, np.inf)
    found = np.full(k, n)
    for a, b in owner_blocks(owner, count):
        who = np.repeat(owner[a:b], count[a:b])
        if len(who):
            slot = ranges(first[a:b], count[a:b])
            diff = np.take(index.sorted_cols, slot, axis=1) - np.take(cols, who, axis=1)
            d2 = diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2]
            starts = run_starts(who)
            runs = who[starts]
            least[runs] = np.minimum.reduceat(d2, starts)
            tied = np.where(d2 == least[who], index.bins.order[slot], n)
            found[runs] = np.minimum.reduceat(tied, starts)
    return least, found


def nearest(index: Octree, queries):
    """Nearest indexed point to each query of ``queries`` (k, 3), as arrays
    ``(indices, distances)``.

    Each query first searches the 3 x 3 x 3 block of cells around its own.
    The nearest point found there is final when it is closer than one cell
    width, less a rounding pad of 1e-9 of the largest coordinate, as every
    cell beyond the block is. Otherwise its squared distance ``r^2`` bounds
    the minimum (``inf`` for an empty block), and the query gathers once
    the cells of the box ``q +- r``, padded against rounding, which hold
    every point within ``r``: for an empty block the whole grid. The least
    distance there wins, with ties to the lowest point index. Raises
    :class:`anchormesh.mesh.MeshValidationError` for non-finite queries.
    """
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(q).all():
        raise MeshValidationError("nearest-point query requires finite coordinates")
    k = len(q)
    cols = np.ascontiguousarray(q.T)
    pad = PAD * max(index.mag, float(np.abs(cols).max(initial=0.0)))
    home = index.bins.cell_of(cols.T)
    # every cell beyond the 3 x 3 x 3 block is a cell width or more from the
    # query: on each axis the query lies in its block's middle layer or off
    # the grid, past the block's margin side and two cells from the other
    column = index.bins.key(home)[:, None] + index.block
    first = index.bins.starts[column]
    best_d2, best = _nearest_in_columns(index, cols, np.repeat(np.arange(k), 9), first.ravel(),
                                        (index.bins.starts[column + 3] - first).ravel())
    todo = np.flatnonzero(~(best_d2 < max(index.width - pad, 0.0) ** 2))
    if len(todo):  # most calls end here: skip the fixed cost of an empty gather
        qt = np.take(cols, todo, axis=1)
        best_d2[todo], best[todo] = _nearest_in_columns(
            index, qt, *index.bins.columns(*index.bins.box(qt, best_d2[todo], pad)))
    return best, np.sqrt(best_d2)
