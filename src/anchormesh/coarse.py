"""Coarse anchor mesh generation: motion-compensated nearest-vertex matching.

Each reference-base vertex is matched to a target vertex: an estimated motion
(the mean motion of its neighbors matched before it) offsets the query point
before the nearest-neighbor lookup, and the realized motion is recorded as
the difference between the matched position and the reference position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, directed_edges, first_of_runs, ranges, unique_edges
from .octree import Octree, build_octree, nearest

# Correspondence marker for anchor vertices that no longer coincide with a
# target vertex (set by the fine refinement stage).
OFF_VERTEX = -1


@dataclass
class AnchorMesh:
    """Mesh sharing the reference base connectivity, fitted to a target frame.

    ``correspondence[i]`` is the target vertex index vertex ``i`` coincides
    with, or ``OFF_VERTEX`` once refinement moved it off the vertex set.
    ``stage`` is ``"coarse"`` or ``"fine"``. ``order`` is the
    :func:`traversal_order` of the connectivity where a stage computed it,
    so that the next stage need not compute it again.
    """

    mesh: TriangleMesh
    correspondence: np.ndarray  # (n,) int64
    stage: str
    order: np.ndarray = None  # (n,) int64


def traversal(directed, n: int):
    """``(order, predecessors)`` of the graph with the ``directed`` edges
    (source, neighbor), both directions of every edge, by source, then
    neighbor (:func:`anchormesh.mesh.directed_edges`).

    ``order`` is breadth-first from vertex 0; each connected component is
    seeded at its lowest unvisited index, and the vertices a frontier
    reaches join the next one in the order they are first reached, each
    vertex's neighbors in ascending index order. ``predecessors`` holds the
    rows (vertex, neighbor) of ``directed`` whose neighbor comes earlier in
    ``order``: by vertex, then neighbor.
    """
    directed = np.asarray(directed, dtype=np.int64).reshape(-1, 2)
    source, neighbor = directed.T
    count = np.bincount(source, minlength=n)
    start = np.cumsum(count) - count
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    filled = seed = 0
    while filled < n:
        seed += int(np.argmin(visited[seed:]))
        visited[seed] = True
        frontier = np.array([seed])
        while len(frontier):
            order[filled:filled + len(frontier)] = frontier
            filled += len(frontier)
            reached = neighbor[ranges(start[frontier], count[frontier])]
            reached = reached[~visited[reached]]
            by_vertex = np.argsort(reached, kind="stable")
            frontier = reached[np.sort(by_vertex[first_of_runs(reached[by_vertex])])]
            visited[frontier] = True
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return order, directed[rank[neighbor] < rank[source]]


def traversal_order(base: TriangleMesh) -> list:
    """Deterministic vertex processing order (:func:`traversal`) of the
    base's edges."""
    n = base.n_vertices
    return traversal(directed_edges(unique_edges(base.faces, n)[0]), n)[0].tolist()


def dependency_waves(order, predecessors) -> np.ndarray:
    """Wave of every vertex of the traversal ``order`` with the
    ``predecessors`` rows (vertex, predecessor) of :func:`traversal`: 0 for
    a vertex without predecessors, else 1 + the highest wave among them."""
    n = len(order)
    start = np.searchsorted(predecessors[:, 0], np.arange(n + 1)).tolist()
    before = predecessors[:, 1].tolist()
    wave = [0] * n
    # predecessors come first in the order, so one pass settles every wave
    for v in order.tolist():
        if start[v] < start[v + 1]:
            wave[v] = 1 + max(map(wave.__getitem__, before[start[v]:start[v + 1]]))
    return np.array(wave, dtype=np.int64)


def generate_coarse_anchor(base: TriangleMesh, target: TriangleMesh,
                           index: Octree = None,
                           motion_estimation: bool = True):
    """Match every base vertex to a target vertex, producing the coarse anchor.

    Vertex by vertex in :func:`traversal_order`, the match is the target
    vertex nearest to the base vertex offset by its estimated motion: the
    mean of the realized motions of its neighbors earlier in that order (its
    predecessors), summed in ascending neighbor order and divided by their
    count, or zero where it has none. The anchor vertex is an exact copy of
    the match and the realized motion is matched position minus reference
    position. The anchor shares ``base``'s connectivity. With
    ``motion_estimation=False`` every query uses a zero offset (plain
    nearest-neighbor matching, the ablation baseline).

    An estimate reads only predecessors, so the vertices of one
    :func:`dependency_waves` wave are matched together by one batched
    :func:`anchormesh.octree.nearest` query, wave after wave; without motion
    estimation every vertex is in wave 0.

    Returns ``(anchor, motion)``: the :class:`AnchorMesh` and the (n, 3)
    float64 realized motions, bitwise ``anchor.mesh.vertices - base.vertices``.
    """
    if index is None:
        index = build_octree(target.vertices)
    n = base.n_vertices
    order = None
    if motion_estimation:
        order, predecessors = traversal(directed_edges(unique_edges(base.faces, n)[0]), n)
        wave = dependency_waves(order, predecessors)
    else:
        predecessors = np.zeros((0, 2), dtype=np.int64)
        wave = np.zeros(n, dtype=np.int64)
    by_wave = np.argsort(wave, kind="stable")
    bounds = np.searchsorted(wave[by_wave], np.arange(wave.max(initial=-1) + 2)).tolist()
    slot = np.empty(n, dtype=np.int64)  # of each vertex in by_wave
    slot[by_wave] = np.arange(n)
    # Predecessor rows by wave, then vertex, ascending within a vertex. A
    # vertex past wave 0 sums their motions in that order from zero (np.add.at
    # adds one at a time). 0.0 + m is m but for the sign of an exact zero,
    # and nearest reads a query only through (p - q) ** 2, q - low, q +- r
    # and |q|: the matches are those of a sum from the first motion, bitwise.
    vertex, before = predecessors[np.argsort(wave[predecessors[:, 0]], kind="stable")].T
    rest = np.searchsorted(wave[vertex], np.arange(len(bounds))).tolist()
    count = np.bincount(predecessors[:, 0], minlength=n)[:, None].astype(np.float64)
    motion = np.empty((n, 3))
    correspondence = np.empty(n, dtype=np.int64)
    for w in range(len(bounds) - 1):
        a, b = bounds[w], bounds[w + 1]
        wave_vertices = by_wave[a:b]
        q = base.vertices[wave_vertices]
        if w:
            total = np.zeros((b - a, 3))
            r = slice(rest[w], rest[w + 1])
            np.add.at(total, slot[vertex[r]] - a, motion[before[r]])
            q = q + total / count[wave_vertices]
        correspondence[wave_vertices] = j = nearest(index, q)[0]
        motion[wave_vertices] = target.vertices[j] - base.vertices[wave_vertices]
    anchor = AnchorMesh(TriangleMesh.derived(target.vertices[correspondence], base.connectivity),
                        correspondence, "coarse", order)
    return anchor, motion
