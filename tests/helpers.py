"""Shared fixtures and independent oracles for the test suite."""

import numpy as np

from anchormesh import PayloadFormatError, TriangleMesh, closest_point_on_triangle, make_sphere
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


def connectivity_cases():
    """(name, vertices, faces) arrays, some of which ``TriangleMesh`` rejects."""
    cases = [(f"sphere{level}", make_sphere(level).vertices, make_sphere(level).faces)
             for level in range(4)]
    rng = np.random.default_rng(89)
    for k in range(3):
        m = random_mesh(rng, n_vertices=14, n_faces=20)
        verts = np.vstack([m.vertices, rng.normal(size=(1, 3))])  # isolated vertex
        a, b = m.faces[0, :2]
        faces = np.vstack([m.faces, [[a, a, b]],  # repeated index
                           m.faces[3:7, ::-1], m.faces[5:6, [1, 2, 0]]])  # other windings
        cases.append((f"random{k}", verts, faces))
    cases.append(("no faces", rng.normal(size=(5, 3)), np.zeros((0, 3), dtype=np.int64)))
    return cases


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


def loop_subdivide_once(vertices, faces):
    """One midpoint split with an edge-rank dict and a per-face loop; the
    oracle for ``subdivide._subdivide_once``. Returns ``parents``:
    ``("original", j)`` or ``("midpoint", u, v)`` per new vertex."""
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


def unique_rows_neighbor_counts(mesh) -> np.ndarray:
    """Distinct edge-connected neighbours per vertex via ``np.unique(axis=0)``;
    the oracle for ``quantize.neighbor_counts``."""
    counts = np.zeros(mesh.n_vertices, dtype=np.int64)
    if mesh.n_faces == 0:
        return counts
    pairs = np.vstack([mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]], mesh.faces[:, [2, 0]]])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    counts += np.bincount(pairs[:, 0], minlength=mesh.n_vertices)
    counts += np.bincount(pairs[:, 1], minlength=mesh.n_vertices)
    return counts


def _zigzag_encode(v: int) -> int:
    return (v << 1) if v >= 0 else ((-v << 1) - 1)


def _zigzag_decode(z: int) -> int:
    return (z >> 1) if (z & 1) == 0 else -((z + 1) >> 1)


def scalar_write_varints(values, out: bytearray) -> None:
    """Byte-at-a-time zigzag LEB128 writer; the oracle for
    ``payload._write_varints``."""
    for v in values:
        z = _zigzag_encode(int(v))
        while True:
            byte = z & 0x7F
            z >>= 7
            if z:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break


def scalar_read_varints(data: bytes, offset: int):
    """Byte-at-a-time zigzag LEB128 reader; the oracle for
    ``payload._read_varints``."""
    values = []
    n = len(data)
    while offset < n:
        z = 0
        shift = 0
        while True:
            if offset >= n:
                raise PayloadFormatError("truncated varint stream")
            if shift >= 70:
                raise PayloadFormatError("varint longer than 10 bytes")
            byte = data[offset]
            offset += 1
            z |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        if z >> 64:
            raise PayloadFormatError("varint does not fit in int64")
        values.append(_zigzag_decode(z))
    return values
