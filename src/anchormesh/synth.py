"""Deterministic synthetic dynamic-mesh sequences and base-mesh decimation.

Sequences are reproducible across platforms: all randomness comes from a
splitmix64 generator seeded from the spec, and geometry is pure float64
arithmetic. Topology jitter re-triangulates a random region each frame (edge
splits at midpoints), changing both vertex and face lists while leaving the
surface geometrically identical -- exactly the condition that defeats
constant-topology inter coding.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, unique_edges
from .qem import _optimal_points, all_vertex_quadrics, _TRIU_ROWS, _TRIU_COLS
from .subdivide import midpoint_subdivide

_MASK64 = (1 << 64) - 1

# Scale of the boundary-preservation quadrics added during decimation; large
# enough to pin open boundaries without making the solves singular.
BOUNDARY_WEIGHT = 1e3


class SplitMix64:
    """splitmix64 PRNG (Steele/Lea/Flood constants), fixed here for
    cross-platform reproducibility of synthetic sequences.

    state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB; return z ^ (z >> 31)
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, n: int) -> int:
        """Uniform int in [0, n); modulo bias is negligible for desk-scale n."""
        return self.next_u64() % n


@dataclass(frozen=True)
class SequenceSpec:
    """Recipe for a synthetic dynamic-mesh sequence.

    ``shape`` is ``sphere`` (resolution = subdivision level of an icosphere),
    ``grid`` (resolution x resolution unit grid in the z=0 plane) or ``cube``
    (resolution segments per edge of a unit cube). ``motion`` is ``static``,
    ``translate`` (per-frame ``velocity``), ``rotate`` (about ``axis``
    through the shape centroid by ``rate`` rad/frame) or ``bend``
    (articulated rotation of the +x ``region`` fraction about a y-axis hinge
    by ``rate`` rad/frame). ``topology_jitter`` re-triangulates a random
    region each frame.
    """

    shape: str = "sphere"
    resolution: int = 2
    frames: int = 2
    motion: str = "static"
    velocity: tuple = (0.0, 0.0, 0.0)
    axis: tuple = (0.0, 0.0, 1.0)
    rate: float = 0.0
    region: float = 0.5
    topology_jitter: bool = False
    seed: int = 0


def make_grid(resolution: int, size: float = 1.0) -> TriangleMesh:
    """Regular triangulated grid over [0, size]^2 at z = 0, row-major from
    the origin corner."""
    if resolution < 1:
        raise ValueError("grid resolution must be >= 1")
    r = resolution
    xs = np.arange(r + 1) * (size / r)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel(), np.zeros((r + 1) ** 2)], axis=1)
    faces = []
    for i in range(r):
        for j in range(r):
            v00 = i * (r + 1) + j
            v01 = v00 + 1
            v10 = v00 + (r + 1)
            v11 = v10 + 1
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return TriangleMesh(verts, np.array(faces, dtype=np.int64))


def make_cube(resolution: int, size: float = 1.0) -> TriangleMesh:
    """Closed unit-cube surface with resolution^2 quads per face, vertices
    welded on the integer lattice."""
    if resolution < 1:
        raise ValueError("cube resolution must be >= 1")
    r = resolution
    key_to_index = {}
    verts = []

    def vid(i, j, k):
        key = (i, j, k)
        if key not in key_to_index:
            key_to_index[key] = len(verts)
            verts.append((i * size / r, j * size / r, k * size / r))
        return key_to_index[key]

    faces = []

    def emit(corner_fn, flip):
        for u in range(r):
            for v in range(r):
                q = [corner_fn(u, v), corner_fn(u + 1, v),
                     corner_fn(u + 1, v + 1), corner_fn(u, v + 1)]
                ids = [vid(*c) for c in q]
                if flip:
                    ids.reverse()
                faces.append((ids[0], ids[1], ids[2]))
                faces.append((ids[0], ids[2], ids[3]))

    emit(lambda u, v: (u, v, 0), flip=True)    # z = 0, outward -z
    emit(lambda u, v: (u, v, r), flip=False)   # z = 1, outward +z
    emit(lambda u, v: (u, 0, v), flip=False)   # y = 0, outward -y
    emit(lambda u, v: (u, r, v), flip=True)    # y = 1, outward +y
    emit(lambda u, v: (0, u, v), flip=True)    # x = 0, outward -x
    emit(lambda u, v: (r, u, v), flip=False)   # x = 1, outward +x
    return TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64))


_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def make_sphere(level: int, radius: float = 1.0) -> TriangleMesh:
    """Icosphere: icosahedron midpoint-subdivided ``level`` times, vertices
    projected onto the sphere after every split (12/42/162/642/... vertices)."""
    if level < 0:
        raise ValueError("sphere subdivision level must be >= 0")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=np.float64)
    sphere = TriangleMesh(verts / np.linalg.norm(verts, axis=1, keepdims=True) * radius,
                          _ICO_FACES)
    for _ in range(level):
        split = midpoint_subdivide(sphere, 1).mesh
        verts = split.vertices / np.linalg.norm(split.vertices, axis=1, keepdims=True) * radius
        sphere = TriangleMesh(verts, split.faces)
    return sphere


def _base_shape(spec: SequenceSpec) -> TriangleMesh:
    if spec.shape == "sphere":
        return make_sphere(spec.resolution)
    if spec.shape == "grid":
        return make_grid(spec.resolution)
    if spec.shape == "cube":
        return make_cube(spec.resolution)
    raise ValueError(f"unknown shape {spec.shape!r}")


def _rotation_matrix(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = axis / norm
    c = math.cos(angle)
    s = math.sin(angle)
    t = 1.0 - c
    return np.array([
        [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
        [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
        [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
    ])


def _apply_motion(spec: SequenceSpec, base: np.ndarray, t: int) -> np.ndarray:
    if spec.motion == "static" or t == 0:
        return base.copy()
    if spec.motion == "translate":
        return base + t * np.asarray(spec.velocity, dtype=np.float64)
    if spec.motion == "rotate":
        centroid = base.mean(axis=0)
        rot = _rotation_matrix(spec.axis, t * spec.rate)
        return (base - centroid) @ rot.T + centroid
    if spec.motion == "bend":
        lo = base[:, 0].min()
        hi = base[:, 0].max()
        hinge_x = lo + spec.region * (hi - lo)
        ramp = max(1e-9, 0.25 * (hi - hinge_x))
        weight = np.clip((base[:, 0] - hinge_x) / ramp, 0.0, 1.0)
        moving = weight > 0.0  # keep the static part bit-identical
        angle = weight[moving] * (t * spec.rate)
        cz = base[:, 2].mean()
        dx = base[moving, 0] - hinge_x
        dz = base[moving, 2] - cz
        cos = np.cos(angle)
        sin = np.sin(angle)
        out = base.copy()
        out[moving, 0] = hinge_x + cos * dx + sin * dz
        out[moving, 2] = cz - sin * dx + cos * dz
        return out
    raise ValueError(f"unknown motion model {spec.motion!r}")


def _split_edges(mesh: TriangleMesh, rng: SplitMix64, count: int) -> TriangleMesh:
    """Split ``count`` distinct random edges at their midpoints (random
    re-triangulation with byte-identical surface geometry).

    Edges are drawn from the input mesh's edge list; splits never remove
    other original edges, so applying them sequentially is well defined.
    """
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


def generate_sequence(spec: SequenceSpec) -> list:
    """Generate ``spec.frames`` meshes; identical spec + seed gives a
    byte-identical sequence."""
    if spec.frames < 1:
        raise ValueError("frame count must be >= 1")
    base = _base_shape(spec)
    master = SplitMix64(spec.seed)
    frame_seeds = [master.next_u64() for _ in range(spec.frames)]
    frames = []
    for t in range(spec.frames):
        verts = _apply_motion(spec, base.vertices, t)
        mesh = TriangleMesh(verts, base.faces)
        if spec.topology_jitter:
            rng = SplitMix64(frame_seeds[t])
            n_edges = 3 * mesh.n_faces // 2
            mesh = _split_edges(mesh, rng, max(1, n_edges // 20))
        frames.append(mesh)
    return frames


def _boundary_quadrics(mesh: TriangleMesh, weight: float) -> np.ndarray:
    """Constraint quadrics pinning open boundaries: for each edge with exactly
    one incident face, a plane through the edge perpendicular to that face,
    scaled by ``weight``. Returns (n, 10) coefficients to add."""
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


def decimate_to_base(mesh: TriangleMesh, target_vertex_count: int,
                     boundary_weight: float = BOUNDARY_WEIGHT) -> TriangleMesh:
    """Decimate by repeated minimal-error edge collapse down to at most
    ``target_vertex_count`` vertices (global lazy priority queue).

    Boundary edges contribute weighted perpendicular-plane quadrics so open
    borders collapse along themselves instead of shrinking. A target at or
    above the current count returns the mesh unchanged.
    """
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
    seq = 0

    def entries(lo, hi):
        """Heap entries of the edges (lo[i], hi[i]), numbered on from ``seq``."""
        nonlocal seq
        points, errors = _optimal_points(quad[lo] + quad[hi], pos[lo], pos[hi])
        out = [(err, u, v, stamps[u], stamps[v], seq + 1 + i, point) for i, (err, u, v, point)
               in enumerate(zip(errors.tolist(), lo.tolist(), hi.tolist(), points))]
        seq += len(out)
        return out

    edges = unique_edges(mesh.faces, n)[0]
    heap = entries(edges[:, 0], edges[:, 1])
    heapq.heapify(heap)  # seq makes every entry distinct, so pops follow the entries alone
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
        if neighbors:
            nb = np.fromiter(neighbors, dtype=np.int64)
            nb.sort()
            for entry in entries(np.minimum(u, nb), np.maximum(u, nb)):
                heapq.heappush(heap, entry)
    out_faces = [tuple(faces[fi]) for fi in range(len(faces)) if face_alive[fi]]
    used = sorted({v for f in out_faces for v in f})
    remap = {old: new for new, old in enumerate(used)}
    new_faces = np.array([[remap[a], remap[b], remap[c]] for a, b, c in out_faces],
                         dtype=np.int64).reshape(-1, 3)
    return TriangleMesh(pos[used], new_faces)
