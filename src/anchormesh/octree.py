"""Exact nearest-neighbour queries over a 3D point set: the coarse stage's
index.

The index is a flattened ("linear") octree, after Gargantini, "An effective
way to represent quadtrees" (CACM 1982): the points are binned by
:func:`anchormesh.grid.cell_of`, the rule queries use too, into the cubic
cells of one octree level over their bounding cube, inflated by 1e-9, and
kept as arrays sorted by cell key, so a query gathers whole runs of points,
a column of cells at a time, instead of walking nodes. The depth is the
shallowest at which no cell holds more than ``leaf_capacity`` points, within
the caps of :func:`build_octree`. A query is :func:`anchormesh.grid.least`
by the squared difference ``((p - q) ** 2).sum()``, so it returns what a
linear scan returns: the minimum, with ties to the lowest point index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PAD, CellBins, cell_of, dot3, least, query_columns
from .mesh import checked_points

DEFAULT_LEAF_CAPACITY = 16
DEFAULT_MAX_DEPTH = 21


@dataclass(frozen=True, eq=False)
class Octree:
    """Points binned into the ``2 ** depth`` cells a side of one octree
    level, a :class:`anchormesh.grid.CellBins` grid whose ``low``,
    ``width`` and ``last`` (``2 ** depth - 1`` on each axis) describe that
    level. ``points`` is the transposed view of the (3, n) array that
    queries gather from.
    """

    points: np.ndarray  # (n, 3)
    bins: CellBins
    mag: float  # largest coordinate magnitude


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
    for points that :func:`anchormesh.mesh.checked_points` rejects.
    """
    pts = checked_points(points, "indexed point")
    if len(pts) == 0:
        raise ValueError("cannot build an octree over an empty point set")
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    n = len(pts)
    # a copy, frozen below; reductions along a length-3 axis are slow
    cols = np.array(pts.T, order="C")
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
    bins = CellBins(low, 2.0 * half / side, np.full(3, side), cell)
    cols.setflags(write=False)
    return Octree(cols.T, bins, float(np.abs(cols).max()))


def nearest(index: Octree, queries):
    """Nearest indexed point to each query of ``queries`` (k, 3), as arrays
    ``(indices, distances)``: :func:`anchormesh.grid.least` from the 3 x 3 x
    3 block of cells around each query's own, padded by 1e-9 of the largest
    point or query coordinate. Raises
    :class:`anchormesh.mesh.MeshValidationError` for queries that
    :func:`anchormesh.grid.query_columns` rejects."""
    cols = query_columns(queries)
    pad = PAD * max(index.mag, float(np.abs(cols).max(initial=0.0)))

    def measure(at, point):
        diff = np.take(index.points.T, point, axis=1) - at
        return (dot3(diff, diff),)

    found, (d2,) = least(index.bins, cols, measure, 1, pad, len(index.points))
    return found, np.sqrt(d2)
