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


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Indexed triangle soup: ``vertices`` (n, 3) float64, ``faces`` (m, 3) int64.

    Arrays are copied and frozen on construction and on unpickling, so
    instances are safe to share across threads and processes. Face and vertex
    order is significant and preserved by OBJ round trips.
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

    def __reduce__(self):
        # rebuilt through the constructor, which validates the arrays and
        # freezes them again: unpickled arrays come back writeable
        return TriangleMesh, (self.vertices, self.faces)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


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
    first = _first_of_runs(sorted_keys)
    index = np.empty(len(keys), dtype=np.int64)
    index[order] = np.cumsum(first) - 1
    unique = sorted_keys[first]
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
    return keys[_first_of_runs(keys)]


def _first_of_runs(values):
    """Mask of the entries that differ from the one before them."""
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


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

    degen = np.broadcast_to(_degenerate(ab, ac), bu.shape)
    if np.any(degen):
        bu, bv, bw = _degenerate_bary(p, a, b, c, degen, bu, bv, bw)

    pos = bu[..., None] * a + bv[..., None] * b + bw[..., None] * c
    bary = np.stack([bu, bv, bw], axis=-1)
    return pos, bary


def _degenerate(ab, ac):
    """Whether each triangle with edge vectors ``ab`` and ``ac`` (..., 3) has
    at most DEGENERATE_AREA, so that the kernel measures it on an edge."""
    cross = np.cross(ab, ac)
    return 0.5 * np.sqrt(_row_dot(cross, cross)) <= DEGENERATE_AREA


def _longest_edge(a, b, c):
    """0, 1 or 2 for each triangle whose longest edge is ab, bc or ca; ties
    favour ab, then bc."""
    lens = np.stack([_row_dot(b - a, b - a), _row_dot(c - b, c - b), _row_dot(a - c, a - c)],
                    axis=-1)
    return np.argmax(lens, axis=-1)


def _degenerate_bary(p, a, b, c, degen, bu, bv, bw):
    """Replace barycentric weights on degenerate lanes with the closest point
    on the longest edge (ties favor ab, then bc, then ca)."""
    full = degen.shape + (3,)
    pd = np.broadcast_to(p, full)[degen]
    ad = np.broadcast_to(a, full)[degen]
    bd = np.broadcast_to(b, full)[degen]
    cd = np.broadcast_to(c, full)[degen]
    which = _longest_edge(ad, bd, cd)
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


# Inflation of the closest-point search bound, relative to the bound and to
# the largest coordinate, and the scale of each pair's rounding slack in the
# prefilter: see ``closest_points_on_surface``.
_PAD = 1e-9
# (query, cell item) pairs a closest-point block may expand at once
_BLOCK_PAIRS = 1 << 18


def _ranks(count):
    """0..count[i]-1 for every i, concatenated."""
    return np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)


def _ranges(starts, counts):
    """Concatenation of ``arange(s, s + c)`` over the pairs."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.repeat(np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts), counts)
    return offsets + np.arange(counts.sum())


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


def _run_starts(owner):
    """Index of the first entry of each run of equal values in ``owner``."""
    return np.flatnonzero(_first_of_runs(owner))


def _run_minima(values, owner, n):
    """Minimum of ``values`` for each owner in 0..n-1, with ``owner`` grouped
    in runs; inf for an owner without values."""
    out = np.full(n, np.inf)
    if len(owner):
        starts = _run_starts(owner)
        out[owner[starts]] = np.minimum.reduceat(values, starts)
    return out


def _cell_of(points, low, width, last):
    """Cell of each of ``points`` (k, 3) in a grid of cells ``width`` wide
    from ``low``, clipped to ``0..last`` (floats) on every axis."""
    cell = (points - low) / width
    return np.clip(cell, 0.0, last, out=cell).astype(np.int64)


class _CellBins:
    """Items binned in the ``shape`` (3,) cells of a uniform grid, each cell
    ``width`` wide from ``low``.

    Keys count the cells of the grid padded by one empty cell on every side
    in x-major order, so that the 3 x 3 x 3 block around a cell never leaves
    it. Item ``i`` is binned in cell ``lo[i]`` or, where ``hi`` is given, in
    every cell of the inclusive cell box ``[lo[i], hi[i]]``: ``order`` holds
    the items sorted by cell key, ascending within a cell, ``starts[key]`` is
    the first slot of a cell in ``order`` and ``starts[-1]`` the number of
    entries.
    """

    def __init__(self, low, width, shape, lo, hi=None):
        self.low, self.width, self.last = low, width, shape - 1.0
        dims = shape + 2
        self.strides = np.array([dims[1] * dims[2], dims[2], 1])
        if hi is None:
            owner, keys = np.arange(len(lo)), self.key(lo)
        else:
            owner, key, height = self._columns(lo, hi)
            owner, keys = np.repeat(owner, height), np.repeat(key, height) + _ranks(height)
        n_keys = int(dims.prod())
        # items arrive ascending, so a stable sort by key keeps each cell's
        # items in order; numpy radix-sorts 16-bit keys
        by_key = np.argsort(keys.astype(np.uint16) if n_keys <= 1 << 16 else keys, kind="stable")
        self.order = owner[by_key]
        counts = np.bincount(keys, minlength=n_keys)
        self.starts = np.concatenate([[0], np.cumsum(counts)])
        self.max_count = int(counts.max())

    def key(self, cell):
        """Key of each cell of ``cell`` (..., 3)."""
        return (cell + 1) @ self.strides

    def cell_of(self, points):
        """Cell of each of ``points`` (k, 3), clipped to the grid. The
        transposed view of a (3, k) array is several times faster here than
        a (k, 3) array, whose short rows make numpy broadcast slowly."""
        return _cell_of(points, self.low, self.width, self.last)

    def _columns(self, lo, hi):
        """``(owner, key, height)`` of the z-columns of cells in each
        inclusive cell box ``[lo[i], hi[i]]``, by owner: the key of a
        column's bottom cell and its number of cells."""
        span = hi - lo + 1
        count = span[:, 0] * span[:, 1]
        owner = np.repeat(np.arange(len(lo)), count)
        rank = _ranks(count)
        ny = span[owner, 1]
        cell = lo[owner]
        cell[:, 0] += rank // ny
        cell[:, 1] += rank % ny
        return owner, self.key(cell), span[owner, 2]

    def columns(self, lo, hi):
        """``(owner, first slot, count)`` of the z-columns of cells in each
        inclusive cell box ``[lo[i], hi[i]]``, by owner: a column's entries
        are ``order[first:first + count]``."""
        owner, key, height = self._columns(lo, hi)
        first = self.starts[key]
        return owner, first, self.starts[key + height] - first

    def entries(self, owner, first, count):
        """``(owner, item)`` for every entry of each run
        ``order[first:first + count]``."""
        return np.repeat(owner, count), self.order[_ranges(first, count)]


class _FaceGrid:
    """The faces of a mesh binned in a :class:`_CellBins` grid, each in every
    cell its bounding box touches.

    The cell size starts at the mean face extent and doubles until the grid
    has at most eight cells, and the faces at most sixteen cell entries, per
    face. The grid also keeps each face's :func:`triangle_terms` and what
    the rounding slack of :meth:`measure` needs. Query coordinates and face
    terms are held coordinates first, (3, k).
    """

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        cols = np.ascontiguousarray(mesh.vertices.T)
        # np.take keeps gathered (rows, items) arrays contiguous; x[:, i] does not
        a, b, c = (np.take(cols, mesh.faces[:, i], axis=1) for i in range(3))
        fmin = np.minimum(np.minimum(a, b), c)
        fmax = np.maximum(np.maximum(a, b), c)
        low = fmin.min(axis=1)
        extent = fmax.max(axis=1) - low
        if not np.isfinite(extent).all():
            raise MeshValidationError("closest-point query requires finite coordinates")
        h = float((fmax - fmin).max(axis=0).mean()) or float(extent.max()) or 1.0
        m = mesh.n_faces
        while True:
            inner = np.floor(extent / h) + 1.0
            if np.prod(inner) <= 8.0 * m:
                lo, hi = (_cell_of(x.T, low, h, inner - 1.0) for x in (fmin, fmax))
                if (hi - lo + 1).prod(axis=1).sum() <= 16 * m:
                    break
            h *= 2.0
        self.cells = _CellBins(low, h, inner.astype(np.int64), lo, hi)

        self.degen = _degenerate((b - a).T, (c - a).T)
        self.terms = triangle_terms(a, b, c)
        d00, d11, inv, flat = self.terms[[9, 11, 15, 16]]
        # both measures see a triangle: only these faces bound a query
        self.solid = ~self.degen & (flat != 0.0)
        self.cond = d00 * d11 * inv  # 1 / sin^2 of the angle at a; 0 if flat
        self.spread = self.cond * (d00 + d11)
        self.mag = np.maximum(fmax, -fmin).max(axis=0)
        self.vertex_index = None  # of the returnable vertices, built on demand

    def measure(self, q, mag, face):
        """Lower and upper bounds on the kernel's squared distance of each
        (query, face) pair, from the query coordinates ``q`` (3, k) and their
        largest magnitudes ``mag``: the :func:`sq_distances_to_terms` distance
        less and plus its rounding slack. A face that is not solid gets
        (-inf, inf): it bounds no query and no query rules it out."""
        terms = np.take(self.terms, face, axis=1)
        d2 = sq_distances_to_terms(q, terms)[0]
        rel = q - terms[0:3]
        e = _dot3(rel, rel)
        mag = np.maximum(mag, self.mag[face])
        slack = _PAD * (self.cond[face] * e + self.spread[face]
                        + mag * (2.0 * np.sqrt(e) + _PAD * mag))
        solid = self.solid[face]
        return np.where(solid, d2 - slack, -np.inf), np.where(solid, d2 + slack, np.inf)

    def vertex_bounds(self, pts):
        """Squared distance from each of ``pts`` (k, 3) to the nearest vertex
        that :func:`_closest_point_kernel` can return: a corner of a face
        with area or an end of a degenerate face's longest edge."""
        from .octree import build_octree, nearest  # octree imports this module

        if self.vertex_index is None:
            # np.compress selects rows several times faster than a boolean index
            faces, verts = self.mesh.faces, self.mesh.vertices
            returnable = np.zeros(len(verts), dtype=bool)
            returnable[np.compress(~self.degen, faces, axis=0)] = True
            degen = np.compress(self.degen, faces, axis=0)
            longest = _longest_edge(*(verts[degen[:, i]] for i in range(3)))
            ends = np.stack([longest, (longest + 1) % 3], axis=1)
            returnable[np.take_along_axis(degen, ends, axis=1)] = True
            self.vertex_index = build_octree(np.compress(returnable, verts, axis=0))
        return nearest(self.vertex_index, pts)[1] ** 2

    def settle(self, pts, query, face, out):
        """Run the exact kernel on (query, face) pairs, grouped by query with
        faces ascending in each group, and write each query's closest point
        into ``out``: the first pair not above its group's minimum is the
        lowest-index closest face."""
        if not len(query):
            return
        q = pts[query]
        corners = self.mesh.faces[face]
        pos, bary = _closest_point_kernel(q, *(self.mesh.vertices[corners[:, i]] for i in range(3)))
        diff = pos - q
        d2 = (diff * diff).sum(axis=-1)
        starts = _run_starts(query)
        least = np.repeat(np.minimum.reduceat(d2, starts), np.diff(np.r_[starts, len(d2)]))
        best = np.flatnonzero(~(d2 > least))
        best = best[_run_starts(query[best])]
        for array, value in zip(out, (pos, face, bary, d2)):
            array[query[best]] = value[best]


def closest_points_on_surface(mesh: TriangleMesh, points):
    """Batched exact closest-surface-point query.

    Returns ``(positions, faces, bary, sq_dists)`` arrays: per query the
    minimum squared distance over all faces, with ties broken by lowest face
    index, exactly as a scan of every face with :func:`_closest_point_kernel`
    finds it. A uniform grid over the faces' bounding boxes narrows that scan
    to few faces per query, and every step keeps each face whose kernel
    distance could be the minimum or tie with it:

    - *Measure.* Each (query, face) pair considered is first measured by
      the cheaper :func:`sq_distances_to_terms`. A slack ``s`` covers the
      rounding of both measures, so the kernel's squared distance lies in
      ``[d2 - s, d2 + s]``. That holds only for a face that both measures
      see as a triangle. The kernel measures a
      degenerate face on its longest edge alone, where ``d2`` measures all
      three edges and may come out lower. So a degenerate face never bounds
      a query and is never ruled out.
    - *Slack.* ``s = 1e-9 (k (e + |ab|^2 + |ac|^2) + M (2 sqrt(e) + 1e-9 M))``
      for a pair with ``e = |q - a|^2``, condition number ``k = |ab|^2 |ac|^2
      / |ab x ac|^2`` (1 / sin^2 of the angle at ``a``) and ``M`` the largest
      coordinate magnitude of the query and the face. The first term covers
      the cancellation in the dot-product expansion and in the kernel's
      barycentric solve: both err relative to the squared lengths in the
      pair's own terms, and the plane projection is amplified by ``k``. The
      second covers the rounding of coordinates of magnitude ``M`` by some
      ``d``: it moves a squared distance of at most ``e`` by at most
      ``2 d sqrt(e) + d^2``. Both terms are about 1e6 times the double
      rounding. They scale with the pair: one global constant would either
      miss the rounding of a pair at 1e6 or blunt the filter on a small mesh
      near the origin.
    - *Bound.* A query ``q`` is measured against the faces binned in its own
      cell. Each of those faces has kernel distance at most ``d2 + s``, and
      the minimum is at most that, so the least ``d2 + s`` bounds it: ``r^2``.
      Where the cell holds no face that both measures see as a triangle,
      ``r`` is the distance to the nearest vertex the kernel can return (a
      corner of a face with area, or an end of a degenerate face's longest
      edge), from :func:`anchormesh.octree.nearest` over a point index of
      those vertices that the first such query builds. The kernel's
      distance to that vertex's face is at most ``r^2``. A vertex off that
      edge would bound nothing. ``r`` is then inflated by ``1e-9`` of
      itself and of the largest face coordinate, which also covers the
      rounding of the distance.
    - *Gather.* A face within ``r`` of ``q`` has a bounding box that meets
      the box ``q +- r``, so it is binned in a cell that the box covers. Where
      the box lies in ``q``'s own cell, the faces measured for the bound are
      all the candidates. Otherwise the faces of every covered cell are
      gathered and measured, and ``r^2`` drops to their least ``d2 + s``
      where that is lower.
    - *Prefilter.* Only the pairs with ``d2 - s <= r^2`` go to the exact
      kernel. The lowest-face tie survives this: a face whose kernel
      distance is at most the minimum has ``d2 - s`` at most that distance,
      hence at most ``r^2``. So the kernel sees the closest face and every
      face tied with it, in ascending face order per query, and picks the
      first at the minimum, as the scan does.

    Queries are processed in blocks sized to bound memory. Raises
    :class:`MeshValidationError` for a mesh without faces and for non-finite
    coordinates.
    """
    if mesh.n_faces == 0:
        raise MeshValidationError("closest-point query requires a mesh with faces")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise MeshValidationError("closest-point query requires finite coordinates")
    grid = _FaceGrid(mesh)
    cells = grid.cells
    pad = _PAD * float(grid.mag.max())
    cols = np.ascontiguousarray(pts.T)
    mag = np.abs(cols).max(axis=0)
    n = len(pts)
    out = (np.empty((n, 3)), np.empty(n, dtype=np.int64), np.empty((n, 3)), np.empty(n))
    home = cells.key(cells.cell_of(cols.T))
    first = cells.starts[home]
    count = cells.starts[home + 1] - first
    lo = np.empty((n, 3), dtype=np.int64)
    hi = np.empty((n, 3), dtype=np.int64)
    limit = np.empty(n)
    for s, e in _blocks(count, _BLOCK_PAIRS):
        owner, face = cells.entries(np.arange(e - s), first[s:e], count[s:e])
        low, high = grid.measure(np.take(cols, s + owner, axis=1), mag[s + owner], face)
        bound = _run_minima(high, owner, e - s)
        empty = np.isinf(bound)
        if empty.any():
            bound[empty] = grid.vertex_bounds(pts[s:e][empty])
        reach = np.sqrt(bound) * (1.0 + _PAD) + pad
        lo[s:e] = cells.cell_of((cols[:, s:e] - reach).T)
        hi[s:e] = cells.cell_of((cols[:, s:e] + reach).T)
        limit[s:e] = reach * reach
        inside = (lo[s:e] == hi[s:e]).all(axis=1)
        take = inside[owner] & (low <= limit[s:e][owner])
        grid.settle(pts, s + owner[take], face[take], out)
    far = np.flatnonzero((lo != hi).any(axis=1))
    lo, hi, limit = lo[far], hi[far], limit[far]
    m = mesh.n_faces
    for s, e in _blocks((hi - lo + 1).prod(axis=1) * cells.max_count, _BLOCK_PAIRS):
        owner, face = cells.entries(*cells.columns(lo[s:e], hi[s:e]))
        owner, face = np.divmod(sorted_unique(owner * m + face), m)
        query = far[s:e][owner]
        low, high = grid.measure(np.take(cols, query, axis=1), mag[query], face)
        bound = np.minimum(limit[s:e], _run_minima(high, owner, e - s))
        take = low <= bound[owner]
        grid.settle(pts, query[take], face[take], out)
    return out


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
