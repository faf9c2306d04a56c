"""Shared fixtures and independent oracles for the test suite."""

import heapq
from dataclasses import dataclass

import numpy as np

from anchormesh import (
    DegenerateFaceError,
    PayloadFormatError,
    TriangleMesh,
    build_adjacency,
    closest_point_on_triangle,
    make_sphere,
)
from anchormesh.mesh import DEGENERATE_AREA, _closest_point_kernel, triangle_sq_distances
from anchormesh.qem import _TRIU_COLS, _TRIU_ROWS, CONDITION_LIMIT, _evaluate_raw, all_vertex_quadrics
from anchormesh.synth import BOUNDARY_WEIGHT, _boundary_quadrics


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


# --- scalar quadric API: the oracles for the batched quadric code -------------

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
    Ties go to the lexicographically smallest edge. The oracle for
    ``qem._best_collapse``."""
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


def scalar_decimate_to_base(mesh: TriangleMesh, target_vertex_count: int,
                            boundary_weight: float = BOUNDARY_WEIGHT) -> TriangleMesh:
    """``synth.decimate_to_base`` with one scalar solve per pushed edge; its
    oracle."""
    if target_vertex_count < 4:
        raise ValueError("target vertex count must be >= 4")
    n = mesh.n_vertices
    if target_vertex_count >= n:
        return TriangleMesh(mesh.vertices, mesh.faces)
    pos = mesh.vertices.copy()
    quad = all_vertex_quadrics(mesh) + _boundary_quadrics(mesh, boundary_weight)
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
    remaining = n
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
        remaining -= 1
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


def dense_within_reach(centers, reach2, points):
    """Every center against every point, 64 centers at a time; the oracle
    for ``qem._within_reach``."""
    owner, sample = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(centers), 64):
        d2 = ((centers[lo:lo + 64, None] - points[None]) ** 2).sum(axis=-1)
        a, v = np.nonzero(d2 <= reach2[lo:lo + 64, None])
        owner.append(a + lo)
        sample.append(v)
    return np.concatenate(owner), np.concatenate(sample)


def covering_faces(anchor_mesh: TriangleMesh, target: TriangleMesh) -> dict:
    """``{target vertex: anchor face}``: for each target vertex, the closest
    face among the faces around every anchor vertex whose longest incident
    edge reaches it, lowest face on ties, one vertex at a time and without
    pruning; the oracle for the covered vertices of ``qem._MoveJudge``."""
    pos = anchor_mesh.vertices
    adjacency = build_adjacency(anchor_mesh)
    reach2 = np.zeros(len(pos))
    for a, b in adjacency.edges:
        d2 = ((pos[a] - pos[b]) ** 2).sum()
        reach2[a], reach2[b] = max(reach2[a], d2), max(reach2[b], d2)
    out = {}
    for v, q in enumerate(target.vertices):
        near = np.flatnonzero(((pos - q) ** 2).sum(axis=1) <= reach2)
        fan = sorted(set().union(*(adjacency.vertex_faces[a] for a in near)))
        if fan:
            tri = pos[anchor_mesh.faces[fan]].T  # (3 coordinates, 3 corners, faces)
            d2 = triangle_sq_distances(q[:, None], tri[:, 0], tri[:, 1], tri[:, 2])[0]
            out[v] = fan[int(np.argmin(d2))]  # first minimum: lowest face
    return out
