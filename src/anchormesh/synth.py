"""Deterministic synthetic dynamic-mesh sequences: the codec's test data.

Sequences are reproducible across platforms: all randomness comes from a
splitmix64 generator seeded from the spec, and geometry is pure float64
arithmetic. Topology jitter re-triangulates a random region each frame (edge
splits at midpoints), changing both vertex and face lists while leaving the
surface geometrically identical -- exactly the condition that defeats
constant-topology inter coding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, unique_edges
from .qem import decimate_to_base  # noqa: F401 -- codecbench calls and patches this name here
from .subdivide import midpoint_subdivide

_MASK64 = (1 << 64) - 1


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
    (articulated rotation of the +x ``region`` fraction, within [0, 1],
    about a y-axis hinge by ``rate`` rad/frame). ``topology_jitter``
    re-triangulates a random region each frame.
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

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")
        if not 0.0 <= self.region <= 1.0:  # also refuses NaN
            raise ValueError(f"region must be a fraction within [0, 1], got {self.region}")
        for name in ("velocity", "axis"):
            value = getattr(self, name)
            if len(value) != 3 or not all(map(math.isfinite, value)):
                raise ValueError(f"{name} must be three finite numbers, got {value}")


def make_grid(resolution: int) -> TriangleMesh:
    """Regular triangulated grid over [0, 1]^2 at z = 0, row-major from the
    origin corner."""
    if resolution < 1:
        raise ValueError("grid resolution must be >= 1")
    r = resolution
    xs = np.arange(r + 1) * (1.0 / r)
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


def make_cube(resolution: int) -> TriangleMesh:
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
            verts.append((i / r, j / r, k / r))
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


def make_sphere(level: int) -> TriangleMesh:
    """Unit icosphere: icosahedron midpoint-subdivided ``level`` times, vertices
    projected onto the sphere after every split (12/42/162/642/... vertices)."""
    if level < 0:
        raise ValueError("sphere subdivision level must be >= 0")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=np.float64)
    sphere = TriangleMesh(verts / np.linalg.norm(verts, axis=1, keepdims=True), _ICO_FACES)
    for _ in range(level):
        split = midpoint_subdivide(sphere, 1).mesh
        sphere = TriangleMesh(split.vertices / np.linalg.norm(split.vertices, axis=1, keepdims=True),
                              split.faces)
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

    Edges are drawn from the input mesh's edge list; vertex ``n + r`` is the
    midpoint of the r-th drawn edge. A split replaces each face on its edge,
    in place, by the half keeping the edge's lower vertex, then the half
    keeping its higher one. Halves keep only edges of their parent, so each
    input face is cut by its own drawn edges alone, in draw order.
    """
    n = mesh.n_vertices
    edges, face_edges = unique_edges(mesh.faces, n)
    count = min(count, len(edges))
    rank = np.full(len(edges), -1, dtype=np.int64)  # draw order of each drawn edge
    drawn = []
    while len(drawn) < count:
        k = rng.randint(len(edges))
        if rank[k] < 0:
            rank[k] = len(drawn)
            drawn.append(k)
    lo, hi = edges[drawn].T
    verts = np.concatenate([mesh.vertices, 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])])
    pairs = edges[drawn].tolist()
    faces = []
    for face, ranks in zip(mesh.faces.tolist(), rank[face_edges].tolist()):
        parts = [face]
        for r in sorted(ranks):  # undrawn edges (-1) come first
            if r < 0:
                continue
            u, v = pairs[r]
            parts = [half for part in parts for half in (
                ([n + r if x == v else x for x in part], [n + r if x == u else x for x in part])
                if u in part and v in part else (part,))]
        faces += parts
    return TriangleMesh(verts, np.array(faces, dtype=np.int64))


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
