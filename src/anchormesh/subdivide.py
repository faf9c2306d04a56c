"""Midpoint subdivision and displacement field extraction/application.

Subdivision is linear, with one new vertex per unique edge and a
deterministic numbering. A level on ``n`` vertices with edge array ``edges``
(the unique (lo, hi) edges in lexicographic order, as
:func:`anchormesh.mesh.unique_edges` gives them) keeps vertices ``0 .. n-1``
in their previous order and adds vertex ``n + e`` at the midpoint of
``edges[e]``. Each face splits into the four children :data:`CHILD_CORNERS`
names, a pattern this module owns and the fine stage's judge
(:mod:`anchormesh.qem`) reuses.

A split needs its level's :func:`edge_table`: the edges, each face's edges
and, per edge, the number ``t`` of distinct third vertices among the faces
on it. Only the base level's table is sorted out of its faces; each split
derives the next level's from its own, since it knows the edges it makes:

- *Halves.* A child edge whose low end is an old vertex, ``lo < n``, is the
  half ``(v, n + e)`` of a parent edge ``e`` at its end ``v``. The halves
  come first, in ``(v, e)`` order: one stable sort of the ``2E`` parent
  endpoints by vertex.
- *Inner edges.* Every other child edge joins the midpoints of two edges of
  one face, ``(n + e1, n + e2)`` with ``e1 < e2``, three per face. They
  follow the halves in ``(e1, e2)`` order, from one sort of their ``3F``
  keys; two faces share one only when they lie on the same vertex triple.
- *Thirds.* A half of edge ``(v, w)`` at ``v`` keeps its parent's ``t``: a
  face on ``(v, w)`` with third vertex ``x`` leaves on the half the child
  whose third vertex is the midpoint of ``(v, x)``, one per distinct ``x``.
  An inner edge has ``t = 2``: the faces on it are the corner child at the
  vertex its two parent edges share and the middle child, of each face on
  that vertex triple, with that vertex and the triple's third midpoint as
  their third vertices.

So the neighbour counts of a level are the previous level's followed by
``2 + 2 t`` per edge (:class:`SubdividedMesh`). Displacements are world-axis
residuals from each subdivided vertex to the nearest point on the target
surface, one row of an (n, 3) array per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import closest_points_on_surface
from .mesh import TriangleMesh, sorted_unique, unique_edges, unique_inverse

# The 1->4 split of a face (a, b, c): its four children, in the order they
# are emitted, as indices into (a, b, c, m_ab, m_bc, m_ca), m_ab the
# midpoint of edge ab.
CHILD_CORNERS = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])
# The edges ab, bc, ca of those children, as indices into the face's child
# edges (h_ab, h_bc, h_ca, h_ba, h_cb, h_ac, i_ab, i_bc, i_ca): h_xy the half
# of edge xy at x, i_xy the inner edge from m_xy to the next edge's midpoint.
_CHILD_EDGES = np.array([[0, 8, 5], [1, 6, 3], [2, 7, 4], [6, 7, 8]])


@dataclass
class SubdividedMesh:
    """A subdivided mesh and the neighbour count of every vertex.

    ``neighbor_counts`` (n,) int64 equals
    :func:`anchormesh.quantize.neighbor_counts` of ``mesh``, counted on the
    level the last split started from, not on the subdivided faces. A
    carried-over vertex keeps its count, the number of its edges before the
    split, since each of them now ends at its midpoint. The midpoint of an
    edge neighbours the edge's two ends and, per distinct third vertex among
    the faces on the edge, the midpoints of that face's other two edges:
    ``2 + 2 t`` for ``t`` distinct third vertices.
    """

    mesh: TriangleMesh
    neighbor_counts: np.ndarray


def edge_table(faces, n_vertices: int):
    """``(edges, face_edges, thirds)`` of a level, what a split of it needs:
    :func:`unique_edges` of ``faces`` and, per edge, the number of distinct
    third vertices among the faces on it. The one sort of faces a
    subdivision makes; each later level's table is derived from it."""
    edges, face_edges = unique_edges(faces, n_vertices)
    # distinct (edge, third vertex) pairs: faces on one vertex triple count once
    pairs = sorted_unique((face_edges * n_vertices + faces[:, [2, 0, 1]]).ravel())
    return edges, face_edges, np.bincount(pairs // n_vertices, minlength=len(edges))


def _subdivide_once(vertices, faces, table=None, counts=None):
    """One 1->4 split: ``(vertices, faces, edges, counts)``, the next
    level's vertices, faces and neighbour counts and the split's ``edges``.
    ``table`` is :func:`edge_table` of ``faces`` and ``counts`` the
    neighbour counts of ``vertices``, where the caller has them."""
    n = len(vertices)
    edges, face_edges, thirds = edge_table(faces, n) if table is None else table
    if counts is None:
        counts = np.bincount(edges.ravel(), minlength=n)
    # np.take gathers rows several times faster than fancy indexing
    midpoints = 0.5 * (np.take(vertices, edges[:, 0], axis=0)
                       + np.take(vertices, edges[:, 1], axis=0))
    # rows a, b, c, m_ab, m_bc, m_ca: taking whole rows, then one transposing
    # copy, is faster than stacking or indexing (m, 6) columns
    corners = np.concatenate([faces.T, (n + face_edges).T])
    children = corners[CHILD_CORNERS.ravel()].T.reshape(-1, 3)
    return (np.vstack([vertices, midpoints]), children, edges,
            np.concatenate([counts, 2 + 2 * thirds]))


def _next_table(faces, n, table):
    """The :func:`edge_table` of the split of ``faces`` on ``n`` vertices,
    derived from their own ``table`` as the module docstring says."""
    edges, face_edges, thirds = table
    k = len(edges)
    ends = edges.ravel()  # end j of edge e at slot 2 e + j
    # the halves by vertex, then edge: numpy radix-sorts 16-bit keys stably,
    # and wider ends get unique keys, which any sort puts in that order
    by_end = (np.argsort(ends.astype(np.uint16), kind="stable") if n <= 1 << 16
              else np.argsort(ends * (2 * k) + np.arange(2 * k)))
    half = np.empty(2 * k, dtype=np.int64)
    half[by_end] = np.arange(2 * k)
    # per face, the slots of its edges ab, bc, ca at a, b, c (slot 2 e + 1
    # where that is the edge's high end), then at b, c, a
    rows = face_edges.T
    start = 2 * rows + (faces > faces[:, [1, 2, 0]]).T
    after = rows[[1, 2, 0]]
    inner, index = unique_inverse((np.minimum(rows, after) * k
                                   + np.maximum(rows, after)).ravel())
    child = np.concatenate([half[np.concatenate([start, start ^ 1])],
                            2 * k + index.reshape(3, -1)])
    # the children's edges as (3, 4F) rows, whose transposed view is the
    # (4F, 3) face_edges: unique_edges returns it so, and a split reads rows
    child_rows = child[_CHILD_EDGES.T].transpose(0, 2, 1).reshape(3, -1)
    lo, hi = np.divmod(inner, k)
    parent = by_end >> 1
    return (np.stack([np.concatenate([ends[by_end], n + lo]),
                      n + np.concatenate([parent, hi])], axis=1),
            child_rows.T,
            np.concatenate([thirds[parent], np.full(len(inner), 2)]))


def midpoint_subdivide(mesh: TriangleMesh, levels: int, *, split=None) -> SubdividedMesh:
    """Split every triangle 1->4 per level using shared edge midpoints.

    ``levels=0`` returns the mesh's own arrays. Only ``mesh.faces`` are
    sorted, into their :func:`edge_table`, unless the caller passes that
    table as ``split``. Each split derives the next level's table from its
    own and counts its vertices' neighbours from it, so no edge pass runs
    over a subdivided level.
    """
    if levels < 0:
        raise ValueError("subdivision level must be >= 0")
    vertices, faces, n = mesh.vertices, mesh.faces, mesh.n_vertices
    table = edge_table(faces, n) if split is None else split
    counts = np.bincount(table[0].ravel(), minlength=n)
    for remaining in range(levels, 0, -1):
        next_table = _next_table(faces, len(vertices), table) if remaining > 1 else None
        vertices, faces, _, counts = _subdivide_once(vertices, faces, table, counts)
        table = next_table
    return SubdividedMesh(TriangleMesh.derived(vertices, faces),
                          counts.astype(np.int64, copy=False))


def subdivided_vertex_count(mesh: TriangleMesh, levels: int, *, split=None) -> int:
    """Vertex count of ``midpoint_subdivide(mesh, levels)``, without building it.

    Each level adds one vertex per unique edge, splits every edge in two, adds
    three edges inside every face and splits every face in four. Faces on the
    same three vertices share their inner edges, so faces are counted as
    distinct vertex triples: ``V' = V + E``, ``E' = 2E + 3F``, ``F' = 4F``.
    ``split`` is as for :func:`midpoint_subdivide`.
    """
    edges, _, thirds = edge_table(mesh.faces, mesh.n_vertices) if split is None else split
    # a distinct triple leaves three distinct (edge, third vertex) pairs
    vertices, edges, faces = mesh.n_vertices, len(edges), int(thirds.sum()) // 3
    for _ in range(levels):
        vertices, edges, faces = vertices + edges, 2 * edges + 3 * faces, 4 * faces
    return vertices


def compute_displacements(sub: SubdividedMesh, target: TriangleMesh) -> np.ndarray:
    """(n, 3) residuals from each subdivided vertex to its nearest target
    surface point."""
    positions, _, _, _ = closest_points_on_surface(target, sub.mesh.vertices)
    return positions - sub.mesh.vertices


def apply_displacements(sub: SubdividedMesh, field) -> TriangleMesh:
    """Vertex-wise addition of the (n, 3) ``field``; connectivity is
    unchanged. Raises :class:`anchormesh.mesh.MeshValidationError` where a
    displaced coordinate leaves the range a :class:`TriangleMesh` holds."""
    if len(field) != sub.mesh.n_vertices:
        raise ValueError(f"field length {len(field)} != vertex count {sub.mesh.n_vertices}")
    return TriangleMesh.derived(sub.mesh.vertices + field, sub.mesh.faces)
