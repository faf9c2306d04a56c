"""Shared fixtures and independent oracles for the test suite."""

import numpy as np

from anchormesh import TriangleMesh, closest_point_on_triangle
from anchormesh.mesh import _closest_point_kernel


def random_mesh(rng, n_vertices=40, n_faces=60, scale=1.0) -> TriangleMesh:
    """Random triangle soup with valid, non-repeating face indices."""
    verts = rng.uniform(-scale, scale, size=(n_vertices, 3))
    faces = []
    while len(faces) < n_faces:
        tri = rng.choice(n_vertices, size=3, replace=False)
        faces.append(tuple(int(i) for i in tri))
    return TriangleMesh(verts, np.array(faces, dtype=np.int64))


def icosahedron() -> TriangleMesh:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=np.float64)
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)
    return TriangleMesh(verts, faces)


def unit_cube() -> TriangleMesh:
    verts = np.array([
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ], dtype=np.float64)
    faces = np.array([
        (0, 2, 1), (0, 3, 2),  # z = 0
        (4, 5, 6), (4, 6, 7),  # z = 1
        (0, 1, 5), (0, 5, 4),  # y = 0
        (2, 3, 7), (2, 7, 6),  # y = 1
        (0, 4, 7), (0, 7, 3),  # x = 0
        (1, 2, 6), (1, 6, 5),  # x = 1
    ], dtype=np.int64)
    return TriangleMesh(verts, faces)


def brute_force_surface_point(mesh: TriangleMesh, p):
    """Exhaustive per-face closest-point scan with the lowest-face-index tie
    rule; the oracle for accelerated surface queries."""
    best = None
    for fi in range(mesh.n_faces):
        sp = closest_point_on_triangle(p, mesh.vertices[mesh.faces[fi]], face=fi)
        diff = sp.position - np.asarray(p, dtype=np.float64)
        d2 = float((diff * diff).sum())
        if best is None or d2 < best[0]:
            best = (d2, fi, sp)
    return best  # (sq_dist, face, SurfacePoint)


def brute_force_surface_points(mesh: TriangleMesh, points):
    """Batched exhaustive scan of every face for every query, in query chunks
    sized to bound memory, with the lowest-face-index tie rule. Returns
    ``(positions, faces, bary, sq_dists)`` like ``closest_points_on_surface``,
    which must match it exactly."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    va = mesh.vertices[mesh.faces[:, 0]]
    vb = mesh.vertices[mesh.faces[:, 1]]
    vc = mesh.vertices[mesh.faces[:, 2]]
    n = len(pts)
    out_pos = np.empty((n, 3))
    out_face = np.empty(n, dtype=np.int64)
    out_bary = np.empty((n, 3))
    out_d2 = np.empty(n)
    chunk = max(1, int(400_000 // mesh.n_faces))
    for start in range(0, n, chunk):
        q = pts[start : start + chunk]
        pos, bary = _closest_point_kernel(
            q[:, None, :], va[None, :, :], vb[None, :, :], vc[None, :, :]
        )
        diff = pos - q[:, None, :]
        d2 = (diff * diff).sum(axis=-1)
        best = np.argmin(d2, axis=1)  # first minimum == lowest face index
        rows = np.arange(len(q))
        out_pos[start : start + chunk] = pos[rows, best]
        out_face[start : start + chunk] = best
        out_bary[start : start + chunk] = bary[rows, best]
        out_d2[start : start + chunk] = d2[rows, best]
    return out_pos, out_face, out_bary, out_d2


def brute_force_nearest(points, q):
    """Linear-scan nearest neighbor with the lowest-index tie rule."""
    diff = points - np.asarray(q, dtype=np.float64)
    d2 = (diff * diff).sum(axis=1)
    i = int(np.argmin(d2))  # first occurrence = lowest index
    return i, float(np.sqrt(d2[i]))
