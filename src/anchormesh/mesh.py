"""Indexed triangle meshes: the mesh type, OBJ I/O, topology (edges, corners)
and the segmented-array primitives (runs and ranges) the stages share.

Positions are kept in double precision throughout; integer quantization only
ever happens in :mod:`anchormesh.quantize`. Non-manifold connectivity is
accepted everywhere -- adjacency is purely combinatorial.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Faces with area at or below this are treated as slivers: they have no
# usable plane and are skipped when accumulating quadrics (face_normals).
DEGENERATE_AREA = 1e-12

# The largest coordinate magnitude a mesh may hold, so that the codec's
# arithmetic on it stays finite. Its widest products are sixth-degree: a
# quadric's plane (n, d), with n = (b - a) x (c - a) and d = -n.a, is
# normalized by sqrt(|n|^2 + d^2), and d^2 stays under 432 L^6 for
# coordinates within L, 4.3e302 at L = 1e50, below the float maximum. The
# point-triangle kernel's fourth-degree terms alone would allow about 1e76,
# and a squared point distance 1e154. A unit sphere pair scaled by 1e51
# encodes, decodes and evaluates without an overflow; scaled by 1e52 the
# plane norm overflows. Close to the limit the codec can still refuse what
# it made: a pair whose largest coordinate is exactly 1e50 has a QEM point
# beyond it, and its reconstruction crosses it by the quantization error,
# which is why the near-limit test codes its pair at half the limit.
COORDINATE_LIMIT = 1e50
# The largest query coordinate magnitude a search takes: below it a squared
# distance to any mesh point stays near 3e200, inside the float range, where
# from a query at 1e300 every distance overflowed to inf and the search
# answered point or face 0. The codec's own queries lie far inside it: a
# motion-compensated one within 3 COORDINATE_LIMIT, a judged QEM point within
# about its solve's condition limit (1e12) times the largest mesh coordinate.
QUERY_LIMIT = COORDINATE_LIMIT ** 2


class MeshError(Exception):
    """Base class for mesh construction and query failures."""


class ObjParseError(MeshError):
    """Malformed OBJ record. ``line`` is the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MeshValidationError(MeshError):
    """Mesh violates a structural invariant (index out of range, repeated index)."""


@dataclass(frozen=True, eq=False)
class Connectivity:
    """One face list, ``faces`` (m, 3) int64 that index ``n_vertices``
    vertices without repeats, as a checked mesh's faces and their splits
    do, frozen in place; and what is built from it alone, such as
    :mod:`anchormesh.subdivide`'s edge table and split plans, held on first
    use (:meth:`held`) for as long as any mesh on the object lives. Every
    mesh the library derives from one face list shares its object
    (:meth:`TriangleMesh.derived`): an anchor its base's, a subdivision and
    its reconstruction their plan's."""

    faces: np.ndarray
    n_vertices: int
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.faces.setflags(write=False)

    def held(self, key, build=None):
        """What is held under ``key``; where nothing is, ``build()`` held
        there, or None without ``build``. Of two threads that build one
        value at once, both get the first held."""
        value = self._held.get(key)
        if value is None and build is not None:
            value = self._held.setdefault(key, build())
        return value


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Indexed triangle soup: ``vertices`` (n, 3) float64 and the ``faces``
    (m, 3) int64 of its :class:`Connectivity` ``connectivity``.

    Every face indexes three distinct vertices, and every coordinate passes
    :func:`checked_points`, so none is NaN. The constructor copies the
    arrays, on unpickling too, checks both rules and makes a connectivity;
    :meth:`derived` shares one and checks the coordinates only. Either way
    the arrays are frozen, so instances are safe to share across threads and
    processes: two threads may both compute the :attr:`content_hash` or what
    the connectivity holds, bitwise alike, and one result is kept. Face and
    vertex order is significant and preserved by OBJ round trips.
    """

    vertices: np.ndarray
    faces: np.ndarray
    connectivity: Connectivity = field(init=False, repr=False)

    def __post_init__(self):
        verts = np.array(self.vertices, dtype=np.float64, copy=True).reshape(-1, 3)
        faces = np.array(self.faces, dtype=np.int64, copy=True).reshape(-1, 3)
        if faces.size:
            if faces.min() < 0 or faces.max() >= len(verts):
                raise MeshValidationError(
                    f"face index out of range for {len(verts)} vertices"
                )
            repeated = (
                (faces[:, 0] == faces[:, 1])
                | (faces[:, 1] == faces[:, 2])
                | (faces[:, 0] == faces[:, 2])
            )
            if repeated.any():
                raise MeshValidationError(
                    f"face {int(np.flatnonzero(repeated)[0])} repeats a vertex index"
                )
        self._freeze(verts, Connectivity(faces, len(verts)))

    @classmethod
    def derived(cls, vertices, connectivity: Connectivity, *, checked=False) -> "TriangleMesh":
        """A mesh on ``connectivity`` that the library split, displaced or
        fitted from a checked mesh: ``vertices`` (n, 3) float64, n the
        connectivity's vertex count, frozen in place, not copied. Their
        coordinates are checked, since a displaced one may leave the range,
        unless the caller knows that they pass (``checked``)."""
        mesh = object.__new__(cls)
        mesh._freeze(vertices, connectivity, checked)
        return mesh

    def _freeze(self, verts, connectivity, checked=False):
        """Check the vertices, unless ``checked``, then freeze them and keep
        them with the connectivity."""
        if verts.shape != (connectivity.n_vertices, 3):
            raise MeshValidationError(
                f"vertices of shape {verts.shape} on {connectivity.n_vertices} vertices")
        if not checked:
            checked_points(verts, "vertex")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "faces", connectivity.faces)
        object.__setattr__(self, "connectivity", connectivity)

    def __reduce__(self):
        # rebuilt through the constructor, which validates the arrays and
        # freezes them again: unpickled arrays come back writeable
        return TriangleMesh, (self.vertices, self.faces)

    @cached_property
    def content_hash(self) -> bytes:
        """SHA-256 over the vertex and face counts as two int64, the
        vertices as float64 and the faces as int64, little-endian and
        row-major: the identity of the mesh, whatever its file's whitespace
        or number formatting. Computed once, since the arrays are frozen."""
        digest = hashlib.sha256(np.array([self.n_vertices, self.n_faces], dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(self.vertices, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(self.faces, dtype="<i8").tobytes())
        return digest.digest()

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


def checked_points(points, what: str, limit: float = COORDINATE_LIMIT) -> np.ndarray:
    """``points`` as a (k, 3) float64 array, a view where it already is
    one, after checking that every coordinate lies within ``+-limit``: the
    one coordinate rule of the codec, under which its arithmetic stays
    finite. The one comparison ``abs(x) <= limit`` is false for NaN and
    +-inf too. Raises :class:`MeshValidationError` naming ``what``."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if not (np.abs(pts) <= limit).all():
        raise MeshValidationError(f"{what} coordinate beyond +-{limit:g} or NaN")
    return pts


def load_mesh(data) -> TriangleMesh:
    """Parse an ASCII OBJ (``v``/``f`` records only) into a TriangleMesh.

    Texture/normal references on face records (``f 2/1/1 ...``) are stripped;
    ``vt``, ``vn`` and every other record type are ignored. OBJ indices are
    1-based and converted to 0-based. Raises :class:`ObjParseError` for
    malformed records and :class:`MeshValidationError` for out-of-range or
    repeated indices, both carrying the offending line number.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    verts = []
    face_specs = []  # (line number, [i, j, k]) with 1-based indices
    for line_no, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 4:
                raise ObjParseError(line_no, f"expected 'v x y z', got {raw.strip()!r}")
            try:
                verts.append([float(p) for p in parts[1:]])
            except ValueError:
                raise ObjParseError(line_no, f"bad vertex coordinate in {raw.strip()!r}")
        elif parts[0] == "f":
            if len(parts) != 4:
                raise ObjParseError(
                    line_no, f"only triangular faces are supported, got {raw.strip()!r}"
                )
            idx = []
            for token in parts[1:]:
                head = token.split("/", 1)[0]
                try:
                    idx.append(int(head))
                except ValueError:
                    raise ObjParseError(line_no, f"bad face index {token!r}")
            if len(set(idx)) != 3:
                raise MeshValidationError(
                    f"line {line_no}: face repeats a vertex index"
                )
            face_specs.append((line_no, idx))
        # anything else (vt, vn, o, g, s, usemtl, mtllib, ...) is discarded
    n = len(verts)
    faces = np.empty((len(face_specs), 3), dtype=np.int64)
    for row, (line_no, idx) in enumerate(face_specs):
        for i in idx:
            if i < 1 or i > n:
                raise MeshValidationError(
                    f"line {line_no}: face index {i} out of range for {n} vertices"
                )
        faces[row] = [i - 1 for i in idx]
    return TriangleMesh(np.asarray(verts, dtype=np.float64).reshape(-1, 3), faces)


def save_mesh(mesh: TriangleMesh) -> bytes:
    """Serialize to ASCII OBJ such that ``load_mesh(save_mesh(m))`` reproduces
    ``m`` exactly.

    Coordinates are printed with Python's shortest round-trip repr, which
    never loses double precision; vertex and face order are preserved.
    """
    lines = ["# OBJ written by anchormesh"]
    for x, y, z in mesh.vertices.tolist():
        lines.append(f"v {x!r} {y!r} {z!r}")
    for a, b, c in mesh.faces.tolist():
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def face_normals(mesh: TriangleMesh):
    """``(normals, norms, sliver)`` of each face (a, b, c): the normal
    ``(b - a) x (c - a)``, its length, twice the face's area, and whether
    the face is a sliver, of area at most ``DEGENERATE_AREA``."""
    a, b, c = (mesh.vertices[mesh.faces[:, i]] for i in range(3))
    normals = np.cross(b - a, c - a)
    norms = np.linalg.norm(normals, axis=1)
    return normals, norms, 0.5 * norms <= DEGENERATE_AREA


def unique_edges(faces, n_vertices: int):
    """Unique undirected edges of ``faces`` and each face's edge indices.

    Returns ``edges`` (k, 2) int64 as (lo, hi) rows in lexicographic order,
    and ``face_edges`` (m, 3) int64: the indices in ``edges`` of each face's
    ab, bc and ca edges.
    """
    a, b = faces.T.ravel(), faces[:, [1, 2, 0]].T.ravel()  # ab, bc, ca blocks
    unique, index = unique_inverse(np.minimum(a, b) * n_vertices + np.maximum(a, b))
    edges = np.stack([unique // n_vertices, unique % n_vertices], axis=1)
    return edges, index.reshape(3, -1).T


def vertex_corners(faces, n_vertices: int):
    """Face incidence of every vertex, as ``(corners, count, start)``:
    ``corners`` holds the slots ``3 * face + i`` of ``faces.ravel()`` by
    vertex, then face, and a vertex's are ``corners[start:start + count]``."""
    flat = faces.ravel()
    count = np.bincount(flat, minlength=n_vertices)
    return np.argsort(flat, kind="stable"), count, np.cumsum(count) - count


def directed_edges(edges):
    """Both directions of the undirected ``edges`` (k, 2) as (source,
    neighbor) rows, by source, then neighbor: the rows of a vertex list its
    neighbors in ascending order."""
    directed = np.concatenate([edges, edges[:, ::-1]])
    return directed[np.lexsort((directed[:, 1], directed[:, 0]))]


def sorted_unique(keys):
    """The distinct values of the integer array ``keys``, ascending: a sort
    and a mask, where ``np.unique`` may hash."""
    keys = np.sort(keys)
    return keys[first_of_runs(keys)]


def unique_inverse(keys):
    """``(unique, index)``: the distinct values of the integer array
    ``keys``, ascending, and the index in ``unique`` of each key."""
    order = np.argsort(keys)
    sorted_keys = keys[order]
    first = first_of_runs(sorted_keys)
    index = np.empty(len(keys), dtype=np.int64)
    index[order] = np.cumsum(first) - 1
    return sorted_keys[first], index


def first_of_runs(values):
    """Mask of the entries that differ from the one before them."""
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def ranges(starts, counts):
    """Concatenation of ``arange(s, s + c)`` over the pairs."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.repeat(np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts), counts)
    return offsets + np.arange(counts.sum())


def run_starts(owner):
    """Index of the first entry of each run of equal values in ``owner``."""
    return np.flatnonzero(first_of_runs(owner))


def run_minima(values, owner, n):
    """Minimum of ``values`` for each owner in 0..n-1, with ``owner`` grouped
    in runs; inf for an owner without values."""
    out = np.full(n, np.inf)
    if len(owner):
        starts = run_starts(owner)
        out[owner[starts]] = np.minimum.reduceat(values, starts)
    return out
