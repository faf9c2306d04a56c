"""Midpoint subdivision and displacement field extraction/application.

Subdivision is linear (edge midpoints, one new vertex per unique edge) with a
deterministic numbering: carried-over vertices first in their previous order,
then midpoints in ascending sorted-edge order, level by level. Displacements
are world-axis residuals from each subdivided vertex to the nearest point on
the target surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, closest_points_on_surface


@dataclass
class SubdividedMesh:
    """A subdivided mesh plus provenance of each vertex.

    ``parents[i]`` is ``("original", j)`` for a vertex carried over from the
    previous level (where it had index ``j``) or ``("midpoint", u, v)`` for
    the midpoint of previous-level edge (u, v).
    """

    mesh: TriangleMesh
    level: int
    parents: list


@dataclass
class DisplacementField:
    """Per-vertex residual vectors aligned with a subdivided mesh."""

    vectors: np.ndarray  # (n, 3) float64
    level: int


def _subdivide_once(vertices, faces):
    if len(faces) == 0:
        return vertices.copy(), faces.copy(), [("original", i) for i in range(len(vertices))]
    pairs = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    pairs = np.sort(pairs, axis=1)
    edges = np.unique(pairs, axis=0)  # lexicographically ascending
    n = len(vertices)
    rank = {(int(u), int(v)): n + i for i, (u, v) in enumerate(edges)}
    midpoints = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])
    new_vertices = np.vstack([vertices, midpoints])
    new_faces = np.empty((4 * len(faces), 3), dtype=np.int64)
    for fi, (a, b, c) in enumerate(faces.tolist()):
        mab = rank[(a, b) if a < b else (b, a)]
        mbc = rank[(b, c) if b < c else (c, b)]
        mca = rank[(c, a) if c < a else (a, c)]
        new_faces[4 * fi : 4 * fi + 4] = [
            (a, mab, mca),
            (b, mbc, mab),
            (c, mca, mbc),
            (mab, mbc, mca),
        ]
    parents = [("original", i) for i in range(n)]
    parents.extend(("midpoint", int(u), int(v)) for u, v in edges.tolist())
    return new_vertices, new_faces, parents


def midpoint_subdivide(mesh: TriangleMesh, levels: int) -> SubdividedMesh:
    """Split every triangle 1->4 per level using shared edge midpoints.

    ``levels=0`` returns an identity copy. The parent map refers to the
    previous level only.
    """
    if levels < 0:
        raise ValueError("subdivision level must be >= 0")
    vertices = mesh.vertices
    faces = mesh.faces
    parents = [("original", i) for i in range(len(vertices))]
    for _ in range(levels):
        vertices, faces, parents = _subdivide_once(vertices, faces)
    return SubdividedMesh(TriangleMesh(vertices, faces), levels, parents)


def subdivided_vertex_count(mesh: TriangleMesh, levels: int) -> int:
    """Vertex count of ``midpoint_subdivide(mesh, levels)``, without building it.

    Each level adds one vertex per unique edge, splits every edge in two, adds
    three edges inside every face and splits every face in four. Faces on the
    same three vertices share their inner edges, so faces are counted as
    distinct vertex triples: ``V' = V + E``, ``E' = 2E + 3F``, ``F' = 4F``.
    """
    def distinct(rows):
        rows = rows[np.lexsort(rows.T)]
        return int(len(rows) and 1 + np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))

    tri = np.sort(mesh.faces, axis=1)
    faces = distinct(tri)
    edges = distinct(np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]]))
    vertices = mesh.n_vertices
    for _ in range(levels):
        vertices, edges, faces = vertices + edges, 2 * edges + 3 * faces, 4 * faces
    return vertices


def compute_displacements(sub: SubdividedMesh, target: TriangleMesh) -> DisplacementField:
    """Residual from each subdivided vertex to its nearest target surface point."""
    positions, _, _, _ = closest_points_on_surface(target, sub.mesh.vertices)
    return DisplacementField(positions - sub.mesh.vertices, sub.level)


def apply_displacements(sub: SubdividedMesh, field: DisplacementField) -> TriangleMesh:
    """Vertex-wise addition of the field; connectivity is unchanged."""
    if len(field.vectors) != sub.mesh.n_vertices:
        raise ValueError(
            f"field length {len(field.vectors)} != vertex count {sub.mesh.n_vertices}"
        )
    return TriangleMesh(sub.mesh.vertices + field.vectors, sub.mesh.faces)
