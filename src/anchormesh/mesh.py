"""Indexed triangle meshes: OBJ I/O, adjacency, closest-point queries.

Positions are kept in double precision throughout; integer quantization only
ever happens in :mod:`anchormesh.quantize`. Non-manifold connectivity is
accepted everywhere -- adjacency is purely combinatorial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Faces with area at or below this are treated as slivers: they have no
# usable plane and are skipped when accumulating quadrics.
DEGENERATE_AREA = 1e-12


class MeshError(Exception):
    """Base class for mesh construction and query failures."""


class ObjParseError(MeshError):
    """Malformed OBJ record. ``line`` is the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MeshValidationError(MeshError):
    """Mesh violates a structural invariant (index out of range, repeated index)."""


class DegenerateFaceError(MeshError):
    """Face has (near) zero area, so it defines no plane."""


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Indexed triangle soup: ``vertices`` (n, 3) float64, ``faces`` (m, 3) int64.

    Arrays are copied and frozen on construction, so instances are safe to
    share across threads. Face and vertex order is significant and preserved
    by OBJ round trips.
    """

    vertices: np.ndarray
    faces: np.ndarray

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
        verts.setflags(write=False)
        faces.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "faces", faces)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


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


@dataclass(frozen=True)
class SurfacePoint:
    """A point on a mesh surface: position, owning face, barycentric weights."""

    position: np.ndarray
    face: int
    bary: np.ndarray


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


def unique_edges(faces, n_vertices: int):
    """Unique undirected edges of ``faces`` and each face's edge indices.

    Returns ``edges`` (k, 2) int64 as (lo, hi) rows in lexicographic order,
    and ``face_edges`` (m, 3) int64: the indices in ``edges`` of each face's
    ab, bc and ca edges.
    """
    a, b = faces.T.ravel(), faces[:, [1, 2, 0]].T.ravel()  # ab, bc, ca blocks
    keys = np.minimum(a, b) * n_vertices + np.maximum(a, b)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    index = np.empty(len(keys), dtype=np.int64)
    index[order] = np.cumsum(first) - 1
    unique = sorted_keys[first]
    edges = np.stack([unique // n_vertices, unique % n_vertices], axis=1)
    return edges, index.reshape(3, -1).T


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


def _closest_point_kernel(p, a, b, c):
    """Closest point on triangle (a, b, c) for query p, elementwise over any
    broadcast shape (..., 3). Returns (position, bary).

    Standard closest-point region classification; positions are reconstituted
    from the barycentric weights so the SurfacePoint invariant holds to
    rounding. Degenerate triangles fall back to the longest edge segment.
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
    degen = 0.5 * np.sqrt(_row_dot(cross, cross)) <= DEGENERATE_AREA
    degen = np.broadcast_to(degen, bu.shape)
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
    lens = np.stack(
        [_row_dot(bd - ad, bd - ad), _row_dot(cd - bd, cd - bd), _row_dot(ad - cd, ad - cd)],
        axis=-1,
    )
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


def closest_point_on_triangle(p, tri, face: int = 0) -> SurfacePoint:
    """Closest point on the closed triangle ``tri`` (three positions) to ``p``.

    Degenerate triangles fall back to the closest point on their longest
    edge. ``face`` only labels the returned SurfacePoint.
    """
    tri = np.asarray(tri, dtype=np.float64).reshape(3, 3)
    p = np.asarray(p, dtype=np.float64).reshape(3)
    pos, bary = _closest_point_kernel(
        p[None, :], tri[0][None, :], tri[1][None, :], tri[2][None, :]
    )
    return SurfacePoint(pos[0], face, bary[0])


# Inflation of the closest-point search bound, relative to the bound and to
# the largest coordinate: it absorbs the rounding between the bound and the
# kernel's own distances, like ``octree._PAD`` does for the octree's cube.
_PAD = 1e-9
# (query, cell item) pairs a closest-point block may expand at once
_BLOCK_PAIRS = 1 << 18
# the 3 x 3 x 3 cell neighbourhood searched for a bounding vertex
_NEIGHBOURS = np.stack(np.meshgrid(*[np.arange(-1, 2)] * 3, indexing="ij"), -1).reshape(-1, 3)


def _ranks(count):
    """0..count[i]-1 for every i, concatenated."""
    return np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)


def _blocks(cost, budget):
    """Consecutive [start, stop) runs whose summed ``cost`` stays within
    ``budget``; a run holds at least one item."""
    ends = np.cumsum(cost)
    start = 0
    while start < len(cost):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield start, stop
        start = stop


class _Bins:
    """Items binned by linear cell id, each cell's items in ascending order."""

    def __init__(self, cells, items, n_cells):
        self.items = items[np.lexsort((items, cells))]
        counts = np.bincount(cells, minlength=n_cells)
        self.starts = np.concatenate([[0], np.cumsum(counts)])
        self.max_count = int(counts.max())

    def gather(self, owner, cells):
        """``(owner, item)`` for every item binned in each entry's cell."""
        start = self.starts[cells]
        count = self.starts[cells + 1] - start
        return np.repeat(owner, count), self.items[np.repeat(start, count) + _ranks(count)]


class _FaceGrid:
    """Uniform grid over a mesh's faces, with one empty cell of margin on
    every side so that a cell's 3 x 3 x 3 neighbourhood never leaves it.

    The cell size ``h`` starts at the mean face extent and doubles until the
    grid has at most eight cells, and the faces at most sixteen cell entries,
    per face. Each face is binned in every cell its bounding box touches; each
    face-referenced vertex in its own cell.
    """

    def __init__(self, mesh: TriangleMesh):
        self.tri = mesh.vertices[mesh.faces]
        self.fmin = self.tri.min(axis=1)
        self.fmax = self.tri.max(axis=1)
        self.origin = self.fmin.min(axis=0)
        extent = self.fmax.max(axis=0) - self.origin
        if not np.isfinite(extent).all():
            raise MeshValidationError("closest-point query requires finite coordinates")
        h = float((self.fmax - self.fmin).max(axis=1).mean()) or float(extent.max()) or 1.0
        m = mesh.n_faces
        while True:
            inner = np.floor(extent / h) + 1.0
            if np.prod(inner) <= 8.0 * m:
                self.h, self.dims = h, inner.astype(np.int64) + 2
                lo, hi = self.cell(self.fmin), self.cell(self.fmax)
                if (hi - lo + 1).prod(axis=1).sum() <= 16 * m:
                    break
            h *= 2.0
        n_cells = int(self.dims.prod())
        face, cell = self.box_cells(lo, hi)
        self.faces = _Bins(cell, face, n_cells)
        self.used = mesh.vertices[np.unique(mesh.faces)]
        self.verts = _Bins(self.linear(self.cell(self.used)), np.arange(len(self.used)),
                           n_cells)

    def cell(self, points):
        """Integer cell of each point, clipped to the grid inside the margin."""
        return np.clip(np.floor((points - self.origin) / self.h), 0,
                       self.dims - 3).astype(np.int64) + 1

    def linear(self, cell):
        return (cell[..., 0] * self.dims[1] + cell[..., 1]) * self.dims[2] + cell[..., 2]

    def box_cells(self, lo, hi):
        """``(owner, cell)`` for every cell of each inclusive box [lo, hi]."""
        span = hi - lo + 1
        owner = np.repeat(np.arange(len(span)), span.prod(axis=1))
        rest = _ranks(span.prod(axis=1))
        cell = np.empty((len(owner), 3), dtype=np.int64)
        for axis in (2, 1, 0):
            rest, cell[:, axis] = np.divmod(rest, span[owner, axis])
            cell[:, axis] += lo[owner, axis]
        return owner, self.linear(cell)

    def vertex_bounds(self, pts):
        """Squared distance from each point to a face-referenced vertex: the
        nearest one in the point's 3 x 3 x 3 cell neighbourhood or, where that
        holds none, the nearest of all."""
        r2 = np.full(len(pts), np.inf)
        home = self.linear(self.cell(pts))
        around = self.linear(_NEIGHBOURS)
        for s, e in _blocks(np.full(len(pts), len(around) * self.verts.max_count),
                            _BLOCK_PAIRS):
            owner, v = self.verts.gather(np.repeat(np.arange(s, e), len(around)),
                                         (home[s:e, None] + around).ravel())
            diff = pts[owner] - self.used[v]
            np.minimum.at(r2, owner, (diff * diff).sum(axis=-1))
        miss = np.flatnonzero(np.isinf(r2))
        for s, e in _blocks(np.full(len(miss), len(self.used)), _BLOCK_PAIRS):
            diff = pts[miss[s:e], None, :] - self.used
            r2[miss[s:e]] = (diff * diff).sum(axis=-1).min(axis=1)
        return r2


def closest_points_on_surface(mesh: TriangleMesh, points):
    """Batched exact closest-surface-point query.

    Returns ``(positions, faces, bary, sq_dists)`` arrays: per query the
    minimum squared distance over all faces, with ties broken by lowest face
    index, exactly as a scan of every face with :func:`_closest_point_kernel`
    finds it. A uniform grid over the faces' bounding boxes narrows that scan.
    Each query ``q`` is bounded by its distance ``r`` to a nearby vertex that
    some face references: no face farther than that holds the closest point.
    The kernel then runs once per (query, face) pair on the faces binned in
    the cells that ``q +- r`` covers whose bounding box lies within ``r`` of
    ``q``. ``r`` is inflated by ``1e-9`` of itself and of the largest
    coordinate, so rounding never prunes the minimum or a tie. Queries are
    processed in blocks sized to bound memory. Raises
    :class:`MeshValidationError` for a mesh without faces and for non-finite
    coordinates.
    """
    if mesh.n_faces == 0:
        raise MeshValidationError("closest-point query requires a mesh with faces")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise MeshValidationError("closest-point query requires finite coordinates")
    grid = _FaceGrid(mesh)
    tri = grid.tri
    reach = np.sqrt(grid.vertex_bounds(pts)) * (1.0 + _PAD) + _PAD * float(np.abs(tri).max())
    lo = grid.cell(pts - reach[:, None])
    hi = grid.cell(pts + reach[:, None])
    m = mesh.n_faces
    n = len(pts)
    out_pos = np.empty((n, 3))
    out_face = np.empty(n, dtype=np.int64)
    out_bary = np.empty((n, 3))
    out_d2 = np.empty(n)
    cost = (hi - lo + 1).prod(axis=1) * grid.faces.max_count
    for s, e in _blocks(cost, _BLOCK_PAIRS):
        owner, face = grid.faces.gather(*grid.box_cells(lo[s:e], hi[s:e]))
        key = np.sort(owner * m + face)
        owner, face = np.divmod(key[np.r_[True, key[1:] != key[:-1]]], m)
        q = pts[s:e][owner]
        gap = np.maximum(grid.fmin[face] - q, 0.0) + np.maximum(q - grid.fmax[face], 0.0)
        keep = (gap * gap).sum(axis=-1) <= reach[s:e][owner] ** 2
        owner, face, q = owner[keep], face[keep], q[keep]
        pos, bary = _closest_point_kernel(q, tri[face, 0], tri[face, 1], tri[face, 2])
        diff = pos - q
        d2 = (diff * diff).sum(axis=-1)
        # pairs run by query, then by face: per query, the first pair not
        # above the query's minimum is the lowest-index closest face
        first = np.r_[True, owner[1:] != owner[:-1]]
        low = np.minimum.reduceat(d2, np.flatnonzero(first))[np.cumsum(first) - 1]
        best = np.flatnonzero(~(d2 > low))
        best = best[np.r_[True, owner[best][1:] != owner[best][:-1]]]
        out_pos[s:e] = pos[best]
        out_face[s:e] = face[best]
        out_bary[s:e] = bary[best]
        out_d2[s:e] = d2[best]
    return out_pos, out_face, out_bary, out_d2


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def triangle_sq_distances(p, a, b, c):
    """Squared distance from points to triangles, elementwise.

    Each argument holds coordinates first: shape (3, ...), with the trailing
    shapes broadcasting against each other. Returns ``(d2, v, w)`` of the
    broadcast shape: the closest point on triangle (a, b, c) is
    ``a + v (b - a) + w (c - a)``. Unlike :func:`_closest_point_kernel` this
    works on dot products alone, which makes it two to five times cheaper per
    pair. ``d2`` is expanded from those dot products and so carries rounding
    of the order of the squared distance to ``a`` times the machine epsilon.
    Degenerate triangles are measured by their edges.
    """
    return sq_distances_to_terms(p, triangle_terms(*np.broadcast_arrays(a, b, c)))


def triangle_terms(a, b, c):
    """What :func:`triangle_sq_distances` needs of each triangle, as rows
    stacked along a new first axis: ``a`` (3 rows), ``b - a`` (3), ``c - a``
    (3), then ``|ab|^2``, ``ab.ac``, ``|ac|^2``, the divisors of the
    projections onto edges ab, ac and bc (inf for a zero-length edge), the
    inverse of ``|ab x ac|^2`` (0 for a degenerate triangle) and 1 for a
    non-degenerate triangle, else 0: 17 rows. Computing them once per
    triangle and gathering them per pair gives the same bits."""
    ab = b - a
    ac = c - a
    d00 = _dot3(ab, ab)
    d01 = _dot3(ab, ac)
    d11 = _dot3(ac, ac)
    dbc = d00 - 2.0 * d01 + d11
    denom = d00 * d11 - d01 * d01  # |ab x ac|^2
    flat = 0.5 * np.sqrt(np.maximum(denom, 0.0)) > DEGENERATE_AREA
    return np.concatenate([a, ab, ac, np.stack([
        d00, d01, d11, np.where(d00 > 0.0, d00, np.inf), np.where(d11 > 0.0, d11, np.inf),
        np.where(dbc > 0.0, dbc, np.inf), 1.0 / np.where(flat, denom, np.inf), flat])])


def sq_distances_to_terms(p, terms):
    """:func:`triangle_sq_distances` from the :func:`triangle_terms` rows."""
    a, ab, ac = terms[0:3], terms[3:6], terms[6:9]
    d00, d01, d11, div_ab, div_ac, div_bc, inv, flat = terms[9:17]
    rel = p - a
    e = _dot3(rel, rel)
    d20 = _dot3(rel, ab)
    d21 = _dot3(rel, ac)
    # closest point on the boundary: edge ab, then ac, then bc
    v = np.clip(d20 / div_ab, 0.0, 1.0)
    w = np.zeros_like(v)
    d2 = e - v * (2.0 * d20 - v * d00)
    t = np.clip(d21 / div_ac, 0.0, 1.0)
    cand = e - t * (2.0 * d21 - t * d11)
    take = cand < d2
    v, w, d2 = np.where(take, 0.0, v), np.where(take, t, w), np.where(take, cand, d2)
    t = np.clip((d21 - d20 - d01 + d00) / div_bc, 0.0, 1.0)
    s = 1.0 - t
    cand = e - 2.0 * (s * d20 + t * d21) + s * s * d00 + 2.0 * s * t * d01 + t * t * d11
    take = cand < d2
    v, w, d2 = np.where(take, s, v), np.where(take, t, w), np.where(take, cand, d2)
    # the plane projection wins wherever it lands inside the triangle
    vi = (d11 * d20 - d01 * d21) * inv
    wi = (d00 * d21 - d01 * d20) * inv
    inside = (vi >= 0.0) & (wi >= 0.0) & (vi + wi <= 1.0) & (flat != 0.0)
    v, w = np.where(inside, vi, v), np.where(inside, wi, w)
    d2 = np.where(inside, e - vi * d20 - wi * d21, d2)
    return np.maximum(d2, 0.0), v, w


def closest_point_on_surface(mesh: TriangleMesh, p) -> SurfacePoint:
    """Globally closest point on the mesh surface to ``p`` (lowest face index
    wins ties)."""
    pos, face, bary, _ = closest_points_on_surface(mesh, np.asarray(p).reshape(1, 3))
    return SurfacePoint(pos[0], int(face[0]), bary[0])
