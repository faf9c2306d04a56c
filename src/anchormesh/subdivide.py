"""Midpoint subdivision and displacement field extraction/application.

Subdivision is linear, with one new vertex per unique edge and a
deterministic numbering. A level on ``n`` vertices with edge array ``edges``
(the unique (lo, hi) edges in lexicographic order, from
:func:`anchormesh.mesh.unique_edges`) keeps vertices ``0 .. n-1`` in their
previous order and adds vertex ``n + i`` at the midpoint of ``edges[i]``.
Each face splits into the four children :data:`CHILD_CORNERS` names, a
pattern this module owns and the fine stage's judge (:mod:`anchormesh.qem`) reuses.
Displacements are world-axis residuals from each subdivided vertex to the
nearest point on the target surface, one row of an (n, 3) array per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import closest_points_on_surface
from .mesh import TriangleMesh, sorted_unique, unique_edges

# The 1->4 split of a face (a, b, c): its four children, in the order they
# are emitted, as indices into (a, b, c, m_ab, m_bc, m_ca), m_ab the
# midpoint of edge ab.
CHILD_CORNERS = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])


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


def _subdivide_once(vertices, faces, split=None):
    """One 1->4 split: ``(vertices, faces, edges, counts)`` of the next
    level, ``counts`` being its vertices' neighbour counts. ``split`` is
    :func:`unique_edges` of ``faces`` where the caller has it already."""
    n = len(vertices)
    edges, face_edges = unique_edges(faces, n) if split is None else split
    midpoints = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])
    # rows a, b, c, m_ab, m_bc, m_ca: taking whole rows, then one transposing
    # copy, is faster than stacking or indexing (m, 6) columns
    corners = np.concatenate([faces.T, (n + face_edges).T])
    children = corners[CHILD_CORNERS.ravel()].T.reshape(-1, 3)
    # distinct (edge, third vertex) pairs: faces on one vertex triple count once
    pairs = sorted_unique((face_edges * n + faces[:, [2, 0, 1]]).ravel())
    counts = np.concatenate([np.bincount(edges.ravel(), minlength=n),
                             2 + 2 * np.bincount(pairs // n, minlength=len(edges))])
    return np.vstack([vertices, midpoints]), children, edges, counts


def midpoint_subdivide(mesh: TriangleMesh, levels: int, *, split=None) -> SubdividedMesh:
    """Split every triangle 1->4 per level using shared edge midpoints.

    ``levels=0`` returns an identity copy. Each split counts its vertices'
    neighbours from the edges it splits, so no edge pass runs over the
    subdivided mesh. ``split`` is :func:`unique_edges` of ``mesh.faces``
    where the caller has it already.
    """
    if levels < 0:
        raise ValueError("subdivision level must be >= 0")
    vertices, faces, n = mesh.vertices, mesh.faces, mesh.n_vertices
    split = unique_edges(faces, n) if split is None else split
    # without a split, the counts come from the mesh's own edges
    counts = None if levels else np.bincount(split[0].ravel(), minlength=n)
    for _ in range(levels):
        vertices, faces, _, counts = _subdivide_once(vertices, faces, split)
        split = None
    return SubdividedMesh(TriangleMesh(vertices, faces), counts.astype(np.int64, copy=False))


def subdivided_vertex_count(mesh: TriangleMesh, levels: int, *, split=None) -> int:
    """Vertex count of ``midpoint_subdivide(mesh, levels)``, without building it.

    Each level adds one vertex per unique edge, splits every edge in two, adds
    three edges inside every face and splits every face in four. Faces on the
    same three vertices share their inner edges, so faces are counted as
    distinct vertex triples: ``V' = V + E``, ``E' = 2E + 3F``, ``F' = 4F``.
    ``split`` is as for :func:`midpoint_subdivide`.
    """
    unique, face_edges = unique_edges(mesh.faces, mesh.n_vertices) if split is None else split
    # a face's sorted triple (a, b, c) is its lowest edge (a, b) plus c
    keys = np.sort(face_edges.min(axis=1) * mesh.n_vertices + mesh.faces.max(axis=1))
    faces = int(len(keys) and 1 + np.count_nonzero(keys[1:] != keys[:-1]))
    vertices, edges = mesh.n_vertices, len(unique)
    for _ in range(levels):
        vertices, edges, faces = vertices + edges, 2 * edges + 3 * faces, 4 * faces
    return vertices


def compute_displacements(sub: SubdividedMesh, target: TriangleMesh) -> np.ndarray:
    """(n, 3) residuals from each subdivided vertex to its nearest target
    surface point."""
    positions, _, _, _ = closest_points_on_surface(target, sub.mesh.vertices)
    return positions - sub.mesh.vertices


def apply_displacements(sub: SubdividedMesh, field) -> TriangleMesh:
    """Vertex-wise addition of the (n, 3) ``field``; connectivity is unchanged."""
    if len(field) != sub.mesh.n_vertices:
        raise ValueError(f"field length {len(field)} != vertex count {sub.mesh.n_vertices}")
    return TriangleMesh(sub.mesh.vertices + field, sub.mesh.faces)
