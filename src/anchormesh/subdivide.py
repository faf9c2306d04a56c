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
``2 + 2 t`` per edge (:class:`SubdividedMesh`).

None of this depends on vertex positions, so it is built once, as a
:class:`SplitPlan`: each level's edges, which the midpoints sit on, and the
final faces' connectivity, neighbour counts and vertex count. Splitting a
mesh with those faces then only places its vertices. The plan and the base
level's table are held by the :class:`anchormesh.mesh.Connectivity` of the
faces (:func:`plan_of`, :func:`edge_table_of`), which every mesh on them
shares: an inter anchor keeps its base's connectivity, so one plan serves
the encoder's split of every anchor fitted against that base and every
decode against it or against a mesh derived on it. A plan lives as long as
any mesh on its connectivity, and goes with the last of them; no module
state keeps it.

Displacements are world-axis residuals from each subdivided vertex to the
nearest point on the target surface, one row of an (n, 3) array per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import closest_points_on_surface
from .mesh import Connectivity, TriangleMesh, sorted_unique, unique_edges, unique_inverse

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


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """The connectivity of splitting one face list ``len(edges)`` times.

    ``edges`` holds each level's (E, 2) int64 edges, the ones its midpoints
    sit on, first split first; ``connectivity`` the final faces and their
    vertex count, ``neighbor_counts`` the final vertices' neighbour counts
    (as :class:`SubdividedMesh` has them). Every array is frozen, so every
    mesh placed from the plan shares the connectivity and counts.
    """

    edges: tuple
    connectivity: Connectivity
    neighbor_counts: np.ndarray

    def place(self, vertices) -> np.ndarray:
        """The subdivided positions of ``vertices``, the positions of the
        vertices the plan's first faces index: each level appends the
        midpoints of its edges."""
        n, total = len(vertices), self.connectivity.n_vertices
        if n + sum(map(len, self.edges)) != total:
            raise ValueError(f"{n} vertices do not fit a plan of {total}")
        out = np.empty((total, 3))
        out[:n] = vertices
        for edges in self.edges:
            # np.take gathers rows several times faster than fancy indexing;
            # the midpoint is 0.5 * (a + b), rounded as two steps
            midpoints = out[n:n + len(edges)]
            np.add(np.take(out, edges[:, 0], axis=0), np.take(out, edges[:, 1], axis=0),
                   out=midpoints)
            midpoints *= 0.5
            n += len(edges)
        return out


def split_plan(faces, n_vertices: int, levels: int, *, split=None) -> SplitPlan:
    """The :class:`SplitPlan` of ``faces`` on ``n_vertices`` vertices to
    ``levels``. Only ``faces`` are sorted, into their :func:`edge_table`,
    unless the caller passes that table as ``split``; each split derives
    the next level's table from its own and counts its vertices' neighbours
    from it, so no edge pass runs over a subdivided level. At level 0 the
    plan's faces are ``faces`` themselves, frozen in place, under a
    connectivity of the plan's own: one that held the plan would keep it
    alive in a reference cycle."""
    if levels < 0:
        raise ValueError("subdivision level must be >= 0")
    table = edge_table(faces, n_vertices) if split is None else split
    counts = np.bincount(table[0].ravel(), minlength=n_vertices).astype(np.int64, copy=False)
    n, edges = n_vertices, []
    for remaining in range(levels, 0, -1):
        next_table = _next_table(faces, n, table) if remaining > 1 else None
        level_edges, face_edges, thirds = table
        # rows a, b, c, m_ab, m_bc, m_ca: taking whole rows, then one
        # transposing copy, is faster than stacking or indexing (m, 6) columns
        corners = np.concatenate([faces.T, (n + face_edges).T])
        faces = corners[CHILD_CORNERS.ravel()].T.reshape(-1, 3)
        counts = np.concatenate([counts, 2 + 2 * thirds])
        edges.append(level_edges)
        n += len(level_edges)
        table = next_table
    for array in (*edges, counts):
        array.setflags(write=False)
    return SplitPlan(tuple(edges), Connectivity(faces, n), counts)


def edge_table_of(connectivity: Connectivity):
    """The :func:`edge_table` of ``connectivity``'s faces, frozen and held
    by it under ``"edge_table"``."""
    def build():
        table = edge_table(connectivity.faces, connectivity.n_vertices)
        for array in table:
            array.setflags(write=False)
        return table
    return connectivity.held("edge_table", build)


def plan_of(connectivity: Connectivity, levels: int) -> SplitPlan:
    """The :class:`SplitPlan` of ``connectivity``'s faces to ``levels``,
    held by it under ``levels``: :func:`split_plan` on its
    :func:`edge_table_of`."""
    return connectivity.held(levels, lambda: split_plan(
        connectivity.faces, connectivity.n_vertices, levels, split=edge_table_of(connectivity)))


def midpoint_subdivide(mesh: TriangleMesh, levels: int) -> SubdividedMesh:
    """Split every triangle 1->4 per level using shared edge midpoints.

    Places ``mesh``'s vertices through :func:`plan_of` its connectivity, so
    every mesh on one face list shares one plan; the result shares the
    plan's connectivity and counts.
    """
    plan = plan_of(mesh.connectivity, levels)
    # Not checked again: the first rows are mesh's checked coordinates, and
    # each midpoint 0.5 * (a + b) of two of them has |0.5 * (a + b)| <=
    # max(|a|, |b|) in IEEE arithmetic, since rounding is monotone and a + b
    # cannot overflow within the coordinate limit. So none leaves the range
    # or is NaN.
    return SubdividedMesh(TriangleMesh.derived(plan.place(mesh.vertices), plan.connectivity,
                                               checked=True),
                          plan.neighbor_counts)


def subdivided_vertex_count(mesh: TriangleMesh, levels: int) -> int:
    """Vertex count of ``midpoint_subdivide(mesh, levels)``, without
    building a plan: that of the plan ``mesh``'s connectivity holds, else
    counted from its :func:`edge_table_of`.

    Each level adds one vertex per unique edge, splits every edge in two, adds
    three edges inside every face and splits every face in four. Faces on the
    same three vertices share their inner edges, so faces are counted as
    distinct vertex triples: ``V' = V + E``, ``E' = 2E + 3F``, ``F' = 4F``.
    """
    plan = mesh.connectivity.held(levels)
    if plan is not None:
        return plan.connectivity.n_vertices
    edges, _, thirds = edge_table_of(mesh.connectivity)
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
    return TriangleMesh.derived(sub.mesh.vertices + field, sub.mesh.connectivity)
