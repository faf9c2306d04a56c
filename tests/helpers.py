"""Shared fixtures and independent oracles for the test suite."""

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from anchormesh import (
    OFF_VERTEX,
    AnchorMesh,
    MeshError,
    PayloadFormatError,
    TriangleMesh,
    closest_points_on_surface,
    make_sphere,
)
from anchormesh.grid import sq_distances_to_terms, triangle_terms
from anchormesh.mesh import DEGENERATE_AREA, unique_edges
from anchormesh.qem import (_TRIU_COLS, _TRIU_ROWS, BOUNDARY_WEIGHT, CONDITION_LIMIT, _evaluate_raw,
                            all_vertex_quadrics)


@dataclass
class MotionField:
    """The sequential oracle's per-vertex motions and which vertices it has
    matched so far."""

    vectors: np.ndarray  # (n, 3) float64
    processed: np.ndarray  # (n,) bool


@dataclass
class AdjacencyMap:
    """Combinatorial adjacency of a mesh.

    ``neighbors[v]`` is the set of vertices sharing an edge with ``v``,
    ``vertex_faces[v]`` the set of incident face indices, and ``edges`` the
    unique undirected edges as (lo, hi) pairs in lexicographic order.
    Treat instances as read-only once built.
    """

    neighbors: list
    vertex_faces: list
    edges: list


def build_adjacency(mesh: TriangleMesh) -> AdjacencyMap:
    """Vertex neighbors, incident faces and the unique undirected edge list."""
    n = mesh.n_vertices
    neighbors = [set() for _ in range(n)]
    vertex_faces = [set() for _ in range(n)]
    for fi, (a, b, c) in enumerate(mesh.faces.tolist()):
        neighbors[a].update((b, c))
        neighbors[b].update((a, c))
        neighbors[c].update((a, b))
        vertex_faces[a].add(fi)
        vertex_faces[b].add(fi)
        vertex_faces[c].add(fi)
    edges = [tuple(e) for e in unique_edges(mesh.faces, n)[0].tolist()]
    return AdjacencyMap(neighbors, vertex_faces, edges)


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


@dataclass(frozen=True)
class SurfacePoint:
    """A point on a mesh surface: position, owning face, barycentric weights."""

    position: np.ndarray
    face: int
    bary: np.ndarray


def measure_pairs(q, terms):
    """``(point, v, w, d2)`` of queries ``q`` (3, ...) against the
    :func:`anchormesh.mesh.triangle_terms` rows ``terms`` (17, ...), as
    ``closest_points_on_surface`` measures each (query, face) pair: the
    point ``a + v ab + w ac`` of :func:`sq_distances_to_terms` and its
    squared distance from explicit differences."""
    _, v, w = sq_distances_to_terms(q, terms)
    point = terms[0:3] + v * terms[3:6] + w * terms[6:9]
    diff = point - q
    return point, v, w, diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2]


def closest_point_on_triangle(p, tri, face: int = 0) -> SurfacePoint:
    """Closest point on the closed triangle ``tri`` (three positions) to ``p``
    by the library's measure, with weights ``(1 - v - w, v, w)``.

    Degenerate triangles are measured on their edges. ``face`` only labels
    the returned SurfacePoint.
    """
    tri = np.asarray(tri, dtype=np.float64).reshape(3, 3)
    p = np.asarray(p, dtype=np.float64).reshape(3, 1)
    point, v, w, _ = measure_pairs(p, triangle_terms(*(corner[:, None] for corner in tri)))
    return SurfacePoint(point[:, 0], face, np.array([1.0 - v[0] - w[0], v[0], w[0]]))


def closest_point_on_surface(mesh: TriangleMesh, p) -> SurfacePoint:
    """Globally closest point on the mesh surface to ``p`` (lowest face index
    wins ties), by the library's batched query."""
    pos, face, bary, _ = closest_points_on_surface(mesh, np.asarray(p).reshape(1, 3))
    return SurfacePoint(pos[0], int(face[0]), bary[0])


def brute_force_surface_point(mesh: TriangleMesh, p):
    """Exhaustive per-face closest-point scan with the lowest-face-index tie
    rule; the oracle for accelerated surface queries."""
    best = None
    for fi in range(mesh.n_faces):
        sp = closest_point_on_triangle(p, mesh.vertices[mesh.faces[fi]], face=fi)
        diff = sp.position - np.asarray(p, dtype=np.float64)
        d2 = float(diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2])
        if best is None or d2 < best[0]:
            best = (d2, fi, sp)
    return best  # (sq_dist, face, SurfacePoint)


def brute_force_surface_points(mesh: TriangleMesh, points):
    """Batched exhaustive scan of every face for every query with
    :func:`measure_pairs`, in query chunks sized to bound memory, with the
    lowest-face-index tie rule. Returns ``(positions, faces, bary,
    sq_dists)`` like ``closest_points_on_surface``, which must match it
    exactly."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    terms = triangle_terms(*(mesh.vertices[mesh.faces[:, i]].T for i in range(3)))[:, None, :]
    n = len(pts)
    out_pos = np.empty((n, 3))
    out_face = np.empty(n, dtype=np.int64)
    out_bary = np.empty((n, 3))
    out_d2 = np.empty(n)
    chunk = max(1, int(400_000 // mesh.n_faces))
    for start in range(0, n, chunk):
        q = pts[start : start + chunk]
        point, v, w, d2 = measure_pairs(q.T[:, :, None], terms)
        best = np.argmin(d2, axis=1)  # first minimum == lowest face index
        rows = np.arange(len(q))
        v, w = v[rows, best], w[rows, best]
        out_pos[start : start + chunk] = point[:, rows, best].T
        out_face[start : start + chunk] = best
        out_bary[start : start + chunk] = np.stack([1.0 - v - w, v, w], axis=1)
        out_d2[start : start + chunk] = d2[rows, best]
    return out_pos, out_face, out_bary, out_d2


def triangle_sq_distances(p, a, b, c):
    """:func:`sq_distances_to_terms` of points ``p`` against triangles
    (a, b, c), elementwise: every argument coordinates first, (3, ...),
    with the trailing shapes broadcasting. Returns ``(d2, v, w)``."""
    return sq_distances_to_terms(p, triangle_terms(*np.broadcast_arrays(a, b, c)))


# A six-region closest-point kernel (Ericson, "Real-Time Collision
# Detection", 2004, section 5.1.5): an oracle, to a stated tolerance, for
# :func:`triangle_sq_distances`, independent of its dot-product expansion.

def _row_dot(u, v):
    return (u * v).sum(axis=-1)


def _closest_on_segment(p, s0, s1):
    """Closest point on segment [s0, s1] for each broadcast row. Returns
    (position, t) with t clipped to [0, 1]."""
    d = s1 - s0
    denom = _row_dot(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _row_dot(p - s0, d) / denom
    t = np.where(denom > 0.0, t, 0.0)
    t = np.clip(t, 0.0, 1.0)
    return s0 + t[..., None] * d, t


def region_closest_point(p, a, b, c):
    """Closest point on triangle (a, b, c) for query p, elementwise over any
    broadcast shape (..., 3). Returns (position, bary).

    Standard closest-point region classification; positions are reconstituted
    from the barycentric weights. Triangles with at most DEGENERATE_AREA fall
    back to their longest edge.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = _row_dot(ab, ap)
    d2 = _row_dot(ac, ap)
    bp = p - b
    d3 = _row_dot(ab, bp)
    d4 = _row_dot(ac, bp)
    cp = p - c
    d5 = _row_dot(ab, cp)
    d6 = _row_dot(ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    cond_a = (d1 <= 0.0) & (d2 <= 0.0)
    cond_b = (d3 >= 0.0) & (d4 <= d3)
    cond_c = (d6 >= 0.0) & (d5 <= d6)
    cond_ab = (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    cond_ac = (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0)
    cond_bc = (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = d1 / (d1 - d3)
        t_ac = d2 / (d2 - d6)
        t_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        denom = va + vb + vc
        v_in = vb / denom
        w_in = vc / denom

        zeros = np.zeros_like(d1)
        ones = np.ones_like(d1)
        conds = [cond_a, cond_b, cond_c, cond_ab, cond_ac, cond_bc]
        bu = np.select(conds, [ones, zeros, zeros, 1.0 - t_ab, 1.0 - t_ac, zeros],
                       default=1.0 - v_in - w_in)
        bv = np.select(conds, [zeros, ones, zeros, t_ab, zeros, 1.0 - t_bc],
                       default=v_in)
        bw = np.select(conds, [zeros, zeros, ones, zeros, t_ac, t_bc],
                       default=w_in)

    cross = np.cross(ab, ac)
    degen = np.broadcast_to(0.5 * np.sqrt(_row_dot(cross, cross)) <= DEGENERATE_AREA, bu.shape)
    if np.any(degen):
        bu, bv, bw = _degenerate_bary(p, a, b, c, degen, bu, bv, bw)

    pos = bu[..., None] * a + bv[..., None] * b + bw[..., None] * c
    bary = np.stack([bu, bv, bw], axis=-1)
    return pos, bary


def _degenerate_bary(p, a, b, c, degen, bu, bv, bw):
    """Replace barycentric weights on degenerate lanes with the closest point
    on the longest edge (ties favor ab, then bc, then ca)."""
    full = degen.shape + (3,)
    pd = np.broadcast_to(p, full)[degen]
    ad = np.broadcast_to(a, full)[degen]
    bd = np.broadcast_to(b, full)[degen]
    cd = np.broadcast_to(c, full)[degen]
    lens = np.stack([_row_dot(bd - ad, bd - ad), _row_dot(cd - bd, cd - bd),
                     _row_dot(ad - cd, ad - cd)], axis=-1)
    which = np.argmax(lens, axis=-1)
    _, t_ab = _closest_on_segment(pd, ad, bd)
    _, t_bc = _closest_on_segment(pd, bd, cd)
    _, t_ca = _closest_on_segment(pd, cd, ad)
    du = np.select([which == 0, which == 1], [1.0 - t_ab, np.zeros_like(t_ab)], default=t_ca)
    dv = np.select([which == 0, which == 1], [t_ab, 1.0 - t_bc], default=np.zeros_like(t_ab))
    dw = np.select([which == 0, which == 1], [np.zeros_like(t_ab), t_bc], default=1.0 - t_ca)
    bu = bu.copy()
    bv = bv.copy()
    bw = bw.copy()
    bu[degen] = du
    bv[degen] = dv
    bw[degen] = dw
    return bu, bv, bw


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


# --- scalar quadric API: the oracles for the batched quadric code -------------

class DegenerateFaceError(MeshError):
    """Face has (near) zero area, so it defines no plane."""


@dataclass(frozen=True)
class Plane:
    """Plane a*x + b*y + c*z + d = 0 with the full coefficient 4-vector
    normalized to unit Euclidean norm."""

    a: float
    b: float
    c: float
    d: float

    def vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])

    @property
    def normal(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def signed_residual(self, point) -> float:
        x, y, z = np.asarray(point, dtype=np.float64)
        return self.a * x + self.b * y + self.c * z + self.d


def face_plane(mesh: TriangleMesh, face: int) -> Plane:
    """Supporting plane of a face, oriented by the right-hand winding rule.

    The coefficient 4-vector (a, b, c, d) is normalized to unit Euclidean
    norm. Raises :class:`DegenerateFaceError` when the face area is at or
    below ``DEGENERATE_AREA``.
    """
    a, b, c = mesh.vertices[mesh.faces[face]]
    n = np.cross(b - a, c - a)
    if 0.5 * float(np.linalg.norm(n)) <= DEGENERATE_AREA:
        raise DegenerateFaceError(f"face {face} has (near) zero area")
    v = np.array([n[0], n[1], n[2], -float(n @ a)])
    v /= np.linalg.norm(v)
    return Plane(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


@dataclass(frozen=True, eq=False)
class Quadric:
    """Symmetric 4x4 error form stored as its 10 unique coefficients."""

    coeffs: np.ndarray  # (10,) float64

    @staticmethod
    def zero() -> "Quadric":
        return Quadric(np.zeros(10))

    def __add__(self, other: "Quadric") -> "Quadric":
        return Quadric(self.coeffs + other.coeffs)

    def matrix(self) -> np.ndarray:
        m = np.zeros((4, 4))
        m[_TRIU_ROWS, _TRIU_COLS] = self.coeffs
        m[_TRIU_COLS, _TRIU_ROWS] = self.coeffs
        return m

    def evaluate(self, point) -> float:
        """Value of [x y z 1]^T Q [x y z 1] at a 3D point."""
        return float(_evaluate_raw(self.coeffs, np.asarray(point, dtype=np.float64)))


def plane_quadric(plane: Plane) -> Quadric:
    """Quadric P*P^T of a normalized plane; evaluates to (P^T X)^2."""
    p = plane.vector()
    return Quadric(np.outer(p, p)[_TRIU_ROWS, _TRIU_COLS])


def vertex_quadric(mesh: TriangleMesh, adjacency, v: int) -> Quadric:
    """Sum of plane quadrics over the non-degenerate faces incident to ``v``."""
    acc = np.zeros(10)
    for fi in sorted(adjacency.vertex_faces[v]):
        try:
            plane = face_plane(mesh, fi)
        except DegenerateFaceError:
            continue
        acc += plane_quadric(plane).coeffs
    return Quadric(acc)


def edge_quadric(qa: Quadric, qb: Quadric) -> Quadric:
    """Error form of an edge: entrywise sum of its endpoint quadrics."""
    return qa + qb


def scalar_optimal_point(coeffs, fallback_a, fallback_b):
    """(position, error) minimizing the quadric, with endpoint/midpoint
    fallback when the 3x3 block is singular or ill-conditioned; one edge at
    a time, the oracle for ``qem._optimal_points``.

    The block is solved analytically via its adjugate; the condition estimate
    is the 1-norm condition number.
    """
    c = coeffs
    a11, a12, a13, a22, a23, a33 = c[0], c[1], c[2], c[4], c[5], c[7]
    m11 = a22 * a33 - a23 * a23
    m12 = a13 * a23 - a12 * a33
    m13 = a12 * a23 - a13 * a22
    m22 = a11 * a33 - a13 * a13
    m23 = a12 * a13 - a11 * a23
    m33 = a11 * a22 - a12 * a12
    det = a11 * m11 + a12 * m12 + a13 * m13
    if det != 0.0:
        inv_det = 1.0 / det
        norm_a = max(abs(a11) + abs(a12) + abs(a13),
                     abs(a12) + abs(a22) + abs(a23),
                     abs(a13) + abs(a23) + abs(a33))
        norm_inv = abs(inv_det) * max(abs(m11) + abs(m12) + abs(m13),
                                      abs(m12) + abs(m22) + abs(m23),
                                      abs(m13) + abs(m23) + abs(m33))
        cond = norm_a * norm_inv
        if np.isfinite(cond) and cond < CONDITION_LIMIT:
            bx, by, bz = -c[3], -c[6], -c[8]
            point = np.array([
                (m11 * bx + m12 * by + m13 * bz) * inv_det,
                (m12 * bx + m22 * by + m23 * bz) * inv_det,
                (m13 * bx + m23 * by + m33 * bz) * inv_det,
            ])
            if np.all(np.isfinite(point)):
                return point, max(float(_evaluate_raw(c, point)), 0.0)
    fa = np.asarray(fallback_a, dtype=np.float64)
    fb = np.asarray(fallback_b, dtype=np.float64)
    mid = 0.5 * (fa + fb)
    candidates = (fa, mid, fb)  # tie order: a, then midpoint, then b
    errors = [max(float(_evaluate_raw(c, cand)), 0.0) for cand in candidates]
    best = min(range(3), key=lambda i: (errors[i], i))
    return candidates[best].copy(), errors[best]


def optimal_point(q: Quadric, fallback_a, fallback_b):
    """Minimizer of the quadric as ``(position, error)``.

    Solves the stationarity system of the affine form when the 3x3 block has
    condition below ``CONDITION_LIMIT``; otherwise returns the best of
    (fallback_a, midpoint, fallback_b), ties resolved in that order.
    """
    return scalar_optimal_point(q.coeffs, fallback_a, fallback_b)


def scalar_best_collapse(work, quadrics: np.ndarray, c: int, anchor_targets: set):
    """Minimal-error collapse of a working-copy edge at target vertex ``c``
    whose other end is not an anchor's correspondent, as ``(neighbor,
    point, edge quadric, error)``; ``None`` when there is no such edge.
    Ties go to the lexicographically smallest edge. The oracle for the
    fine stage's search, ``qem._best_collapses`` on the edges of ``c``."""
    best_key = None
    best = None
    for nb in sorted(work.neighbors_of(c) - anchor_targets):
        qe = quadrics[c] + quadrics[nb]
        point, err = scalar_optimal_point(qe, work.positions[c], work.positions[nb])
        key = (err, (c, nb) if c < nb else (nb, c))
        if best_key is None or key < best_key:
            best_key = key
            best = (nb, point, qe, err)
    return best


def dict_boundary_quadrics(mesh: TriangleMesh, weight: float) -> np.ndarray:
    """Constraint quadrics pinning open boundaries: for each edge with exactly
    one incident face, a plane through the edge perpendicular to that face,
    scaled by ``weight``. Returns (n, 10) coefficients to add. Boundary edges
    come from a dict of edge -> faces; the oracle for
    ``qem._boundary_quadrics``."""
    acc = np.zeros((mesh.n_vertices, 10))
    edge_face = {}
    for fi, (a, b, c) in enumerate(mesh.faces.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            edge_face.setdefault(key, []).append(fi)
    for (u, v), incident in edge_face.items():
        if len(incident) != 1:
            continue
        fa, fb, fc = mesh.vertices[mesh.faces[incident[0]]]
        fn = np.cross(fb - fa, fc - fa)
        fn_norm = np.linalg.norm(fn)
        if 0.5 * fn_norm <= 1e-12:
            continue
        edge_dir = mesh.vertices[v] - mesh.vertices[u]
        bn = np.cross(edge_dir, fn / fn_norm)
        bn_norm = np.linalg.norm(bn)
        if bn_norm == 0.0:
            continue
        bn = bn / bn_norm
        p4 = np.array([bn[0], bn[1], bn[2], -float(bn @ mesh.vertices[u])])
        p4 = p4 / np.linalg.norm(p4)
        q = weight * (p4[_TRIU_ROWS] * p4[_TRIU_COLS])
        acc[u] += q
        acc[v] += q
    return acc


def sequential_split_edges(mesh: TriangleMesh, rng, count: int) -> TriangleMesh:
    """``synth._split_edges`` applying one split at a time to the whole face
    list; its oracle."""
    edges = unique_edges(mesh.faces, mesh.n_vertices)[0].tolist()
    count = min(count, len(edges))
    chosen = []
    taken = set()
    while len(chosen) < count:
        k = rng.randint(len(edges))
        if k not in taken:
            taken.add(k)
            chosen.append(edges[k])
    verts = [tuple(v) for v in mesh.vertices.tolist()]
    faces = [tuple(f) for f in mesh.faces.tolist()]
    for u, v in chosen:
        w = len(verts)
        pu = np.array(verts[u])
        pv = np.array(verts[v])
        verts.append(tuple(0.5 * (pu + pv)))
        new_faces = []
        for f in faces:
            if u in f and v in f:
                iu = f.index(u)
                iv = f.index(v)
                f1 = list(f)
                f1[iv] = w
                f2 = list(f)
                f2[iu] = w
                new_faces.append(tuple(f1))
                new_faces.append(tuple(f2))
            else:
                new_faces.append(f)
        faces = new_faces
    return TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64))


def scalar_decimate_to_base(mesh: TriangleMesh, target_vertex_count: int,
                            boundary_weight: float = BOUNDARY_WEIGHT) -> TriangleMesh:
    """``qem.decimate_to_base`` with one scalar solve per pushed edge; its
    oracle."""
    if target_vertex_count < 4:
        raise ValueError("target vertex count must be >= 4")
    n = mesh.n_vertices
    used = sorted({v for f in mesh.faces.tolist() for v in f})
    if len(used) <= target_vertex_count:
        # nothing to collapse: the vertices with a face, renumbered in order
        remap = {old: new for new, old in enumerate(used)}
        return TriangleMesh(mesh.vertices[used], np.array(
            [[remap[v] for v in f] for f in mesh.faces.tolist()], dtype=np.int64).reshape(-1, 3))
    pos = mesh.vertices.copy()
    quad = all_vertex_quadrics(mesh) + dict_boundary_quadrics(mesh, boundary_weight)
    faces = [list(f) for f in mesh.faces.tolist()]
    face_alive = [True] * len(faces)
    vfaces = [set() for _ in range(n)]
    for fi, (a, b, c) in enumerate(faces):
        vfaces[a].add(fi)
        vfaces[b].add(fi)
        vfaces[c].add(fi)
    alive = [True] * n
    stamps = [0] * n
    heap = []
    seq = 0

    def push(u, v):
        nonlocal seq
        point, err = scalar_optimal_point(quad[u] + quad[v], pos[u], pos[v])
        seq += 1
        heapq.heappush(heap, (err, u, v, stamps[u], stamps[v], seq, point))

    adjacency = build_adjacency(mesh)
    for u, v in adjacency.edges:
        push(u, v)
    remaining = sum(1 for fs in vfaces if fs)  # vertices with a live face
    while remaining > target_vertex_count and heap:
        err, u, v, su, sv, _, point = heapq.heappop(heap)
        if not (alive[u] and alive[v]):
            continue
        if su != stamps[u] or sv != stamps[v]:
            continue
        if not (vfaces[u] & vfaces[v]):
            continue  # edge vanished
        # collapse v into u
        pos[u] = point
        quad[u] = quad[u] + quad[v]
        had_faces = [w for w in range(n) if vfaces[w]]
        for fi in list(vfaces[v]):
            f = faces[fi]
            if u in f:
                face_alive[fi] = False
                for vv in f:
                    vfaces[vv].discard(fi)
            else:
                f[f.index(v)] = u
                vfaces[u].add(fi)
                vfaces[v].discard(fi)
        vfaces[v].clear()
        alive[v] = False
        stamps[u] += 1
        remaining -= sum(1 for w in had_faces if not vfaces[w])
        neighbors = set()
        for fi in vfaces[u]:
            neighbors.update(faces[fi])
        neighbors.discard(u)
        for nb in sorted(neighbors):
            push(min(u, nb), max(u, nb))
    out_faces = [tuple(faces[fi]) for fi in range(len(faces)) if face_alive[fi]]
    used = sorted({v for f in out_faces for v in f})
    remap = {old: new for new, old in enumerate(used)}
    new_faces = np.array([[remap[a], remap[b], remap[c]] for a, b, c in out_faces],
                         dtype=np.int64).reshape(-1, 3)
    return TriangleMesh(pos[used], new_faces)


def covering_faces(anchor_mesh: TriangleMesh, target: TriangleMesh) -> np.ndarray:
    """The closest anchor face of every target vertex, by an exhaustive scan
    of every face with the lowest-face-index tie rule; the oracle for the
    covered vertices of ``qem._MoveJudge``."""
    return brute_force_surface_points(anchor_mesh, target.vertices)[1]



# The pointer octree, the queue BFS and the per-vertex coarse loop the
# codec used before its flattened point index and wave-batched coarse stage:
# the oracles for ``anchormesh.octree`` and ``anchormesh.coarse``.

_OCTREE_PAD = 1e-9  # inflation of the tight bounding cube


class _Node:
    __slots__ = ("center", "half", "depth", "children", "indices")

    def __init__(self, center, half, depth):
        self.center = center
        self.half = half
        self.depth = depth
        self.children = None  # list of 8 (or None) when internal
        self.indices = None  # ascending point indices when leaf


@dataclass
class PointerOctree:
    """Immutable octree over ``points`` with cubic node bounds.

    Child assignment is half-open per axis (coordinates equal to the center
    go to the upper child), so every point lands in exactly one leaf. Leaves
    exceeding ``leaf_capacity`` are only allowed at ``max_depth`` (duplicate
    points cannot be separated).
    """

    points: np.ndarray
    root: _Node
    leaf_capacity: int
    max_depth: int

    @property
    def center(self) -> np.ndarray:
        return self.root.center


def pointer_octree(points, leaf_capacity: int = 16, max_depth: int = 21) -> PointerOctree:
    """Build an octree over a non-empty point set (duplicates allowed)."""
    pts = np.array(points, dtype=np.float64, copy=True).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("cannot build an octree over an empty point set")
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    pts.setflags(write=False)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = 0.5 * (lo + hi)
    half = float((hi - lo).max()) * 0.5 + _OCTREE_PAD
    root = _build_node(pts, np.arange(len(pts)), center, half, 0,
                       leaf_capacity, max_depth)
    return PointerOctree(pts, root, leaf_capacity, max_depth)


def _build_node(pts, indices, center, half, depth, leaf_capacity, max_depth):
    node = _Node(center, half, depth)
    if len(indices) <= leaf_capacity or depth >= max_depth:
        node.indices = indices
        return node
    sub = pts[indices]
    hx = (sub[:, 0] >= center[0]).astype(np.int8)
    hy = (sub[:, 1] >= center[1]).astype(np.int8)
    hz = (sub[:, 2] >= center[2]).astype(np.int8)
    cell = hx * 4 + hy * 2 + hz
    quarter = half * 0.5
    children = [None] * 8
    for cid in range(8):
        mask = cell == cid
        if not mask.any():
            continue
        offset = np.array(
            [quarter if cid & 4 else -quarter,
             quarter if cid & 2 else -quarter,
             quarter if cid & 1 else -quarter]
        )
        children[cid] = _build_node(pts, indices[mask], center + offset, quarter,
                                    depth + 1, leaf_capacity, max_depth)
    node.children = children
    return node


def _box_sq_distance(q, center, half):
    dx = max(0.0, abs(q[0] - center[0]) - half)
    dy = max(0.0, abs(q[1] - center[1]) - half)
    dz = max(0.0, abs(q[2] - center[2]) - half)
    return dx * dx + dy * dy + dz * dz


def pointer_nearest(octree: PointerOctree, query):
    """Exact nearest neighbor: returns ``(index, distance)``.

    Best-first traversal ordered by squared cube distance; nodes are pruned
    only when strictly farther than the current best, which preserves the
    lowest-index tie rule even across leaf boundaries.
    """
    q = np.asarray(query, dtype=np.float64).reshape(3)
    best_d2 = math.inf
    best_i = -1
    seq = 0
    heap = [(0.0, seq, octree.root)]
    while heap:
        box_d2, _, node = heapq.heappop(heap)
        if box_d2 > best_d2:
            break
        if node.indices is not None:
            diff = octree.points[node.indices] - q
            d2 = (diff * diff).sum(axis=1)
            j = int(np.argmin(d2))  # first minimum: lowest index in the leaf
            dj = float(d2[j])
            ij = int(node.indices[j])
            if dj < best_d2 or (dj == best_d2 and ij < best_i):
                best_d2 = dj
                best_i = ij
        else:
            for child in node.children:
                if child is None:
                    continue
                bd2 = _box_sq_distance(q, child.center, child.half)
                if bd2 <= best_d2:
                    seq += 1
                    heapq.heappush(heap, (bd2, seq, child))
    return best_i, math.sqrt(best_d2)


def queue_traversal_order(base: TriangleMesh, adjacency: AdjacencyMap = None) -> list:
    """Deterministic vertex processing order.

    Breadth-first from vertex 0; each connected component is seeded at its
    lowest unvisited index and neighbors expand in ascending index order.
    """
    if adjacency is None:
        adjacency = build_adjacency(base)
    n = base.n_vertices
    visited = [False] * n
    order = []
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = True
        queue = deque([seed])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in sorted(adjacency.neighbors[v]):
                if not visited[u]:
                    visited[u] = True
                    queue.append(u)
    return order


def estimate_motion(vertex: int, adjacency: AdjacencyMap, motion: MotionField) -> np.ndarray:
    """Arithmetic mean of the motions of already-processed neighbors.

    Returns the zero vector when no neighbor has been processed yet (seed
    vertices fall back to plain nearest-neighbor matching).
    """
    rows = [u for u in sorted(adjacency.neighbors[vertex]) if motion.processed[u]]
    if not rows:
        return np.zeros(3)
    return motion.vectors[rows].mean(axis=0)


def sequential_coarse_anchor(base: TriangleMesh, target: TriangleMesh,
                             index: PointerOctree = None,
                             motion_estimation: bool = True):
    """Match every base vertex to a target vertex, producing the coarse anchor.

    For each vertex in traversal order: estimate its motion from processed
    neighbors, query the octree at the offset position, snap the anchor
    vertex to the returned target vertex (exact copy), and record the motion
    as matched position minus reference position. The face list is copied
    verbatim from ``base``. With ``motion_estimation=False`` every query uses
    a zero offset (plain nearest-neighbor matching, the ablation baseline).

    Returns ``(AnchorMesh, MotionField)``.
    """
    if index is None:
        index = pointer_octree(target.vertices)
    adjacency = build_adjacency(base)
    n = base.n_vertices
    vectors = np.zeros((n, 3))
    processed = np.zeros(n, dtype=bool)
    motion = MotionField(vectors, processed)
    correspondence = np.full(n, OFF_VERTEX, dtype=np.int64)
    anchor_positions = np.empty((n, 3))
    zero = np.zeros(3)
    for v in queue_traversal_order(base, adjacency):
        est = estimate_motion(v, adjacency, motion) if motion_estimation else zero
        j, _ = pointer_nearest(index, base.vertices[v] + est)
        anchor_positions[v] = target.vertices[j]
        correspondence[v] = j
        vectors[v] = anchor_positions[v] - base.vertices[v]
        processed[v] = True
    anchor = AnchorMesh(TriangleMesh(anchor_positions, base.faces), correspondence, "coarse")
    return anchor, motion
