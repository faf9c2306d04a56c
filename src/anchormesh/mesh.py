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


# Inflation of a grid search's reach, relative to the reach and to the
# largest coordinate: see ``_CellBins.box``.
_PAD = 1e-9
# Pairs a block may hold at once: (query, face) in a closest-point search,
# (query, point) in a nearest-point search, (covered vertex, fan triangle)
# in the fine-stage judge. Every search holds one block at a time, and a
# block of 2^13 measured pairs takes about 2.5 MiB, near the 2 MiB L2 of
# one core of the host measured. Swept over 2^11..2^18 (bend sphere, seed 1; traced peak
# of one encode, min time over interleaved budgets, 2-vCPU host):
# level 3 peaks 3.2 / 4.4 / 4.4 / 6.1 / 8.7 / 11.1 MiB at 2^11 / 2^12 /
# 2^13 / 2^14 / 2^15 / 2^18 for encode 64 / 47 / 41 / 40 / 40 / 45 ms;
# level 5 (seed 5) peaks 30 / 32 / 35 / 36 / 40 / 106 MiB for encode
# 927 / 767 / 689 / 605 / 602 / 753 ms. 2^13 is the smallest budget at about
# the fastest level-3 encode; larger ones buy level-5 time with memory.
_BLOCK_PAIRS = 1 << 13


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


def _owner_blocks(owner, count, budget):
    """:func:`_blocks` of the runs ``(owner, count)`` by owner: [start,
    stop) slices that hold whole owners and whose summed ``count`` stays
    within ``budget``, or one owner. ``owner`` is ascending."""
    if count.sum() <= budget:
        yield 0, len(owner)
        return
    per_owner = np.bincount(owner, weights=count).astype(np.int64)
    bounds = np.searchsorted(owner, np.arange(len(per_owner) + 1))
    for s, e in _blocks(per_owner, budget):
        yield int(bounds[s]), int(bounds[e])


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

    def key(self, cell):
        """Key of each cell of ``cell`` (..., 3)."""
        return (cell + 1) @ self.strides

    def cell_of(self, points):
        """Cell of each of ``points`` (k, 3), clipped to the grid. The
        transposed view of a (3, k) array is several times faster here than
        a (k, 3) array, whose short rows make numpy broadcast slowly."""
        return _cell_of(points, self.low, self.width, self.last)

    def box(self, cols, d2, pad):
        """Inclusive cell box ``(lo, hi)`` of the cube ``q +- r`` around each
        query of ``cols`` (3, k), clipped to the grid: ``r`` is the square
        root of ``d2`` inflated by ``1e-9`` of itself and by ``pad``, so that
        rounding never leaves out an item within ``d2`` of ``q``. A query
        with ``d2 = inf`` gets the whole grid."""
        reach = np.sqrt(d2) * (1.0 + _PAD) + pad
        return self.cell_of((cols - reach).T), self.cell_of((cols + reach).T)

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
    cell its bounding box touches, for closest-point queries
    (:meth:`closest`).

    The cell size starts at the mean face extent and doubles until the grid
    has at most eight cells, and the faces at most sixteen cell entries, per
    face. The grid also keeps each face's :func:`triangle_terms` and the
    reach padding of :meth:`closest`. Query coordinates and face terms are
    held coordinates first, (3, k). Raises :class:`MeshValidationError` for
    a mesh without faces and for non-finite coordinates.
    """

    def __init__(self, mesh: TriangleMesh):
        if mesh.n_faces == 0:
            raise MeshValidationError("closest-point query requires a mesh with faces")
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
        self.terms = triangle_terms(a, b, c)
        self.pad = _PAD * max(float(fmax.max()), -float(low.min()))  # of the largest coordinate

    def measure(self, q, face):
        """``(point, v, w, d2)`` of each (query, face) pair, from the query
        coordinates ``q`` (3, k): the face's point ``a + v ab + w ac`` (3, k)
        by :func:`sq_distances_to_terms` and its squared distance from the
        query."""
        terms = np.take(self.terms, face, axis=1)
        _, v, w = sq_distances_to_terms(q, terms)
        point = terms[0:3] + v * terms[3:6] + w * terms[6:9]
        diff = point - q
        return point, v, w, _dot3(diff, diff)

    def closest(self, points):
        """Closest point on the mesh surface to each of ``points`` (k, 3), as
        ``(positions, faces, bary, sq_dists)`` arrays.

        Each (query, face) pair is measured by :meth:`measure`: its ``(v,
        w)`` give the face's point ``a + v (b - a) + w (c - a)`` with
        barycentric weights ``(1 - v - w, v, w)``, and the pair's distance is
        the squared length of that point minus the query. Per query the least
        distance wins, with ties to the lowest face index, exactly as a scan
        of every face finds it. The grid narrows that scan to few faces per
        query:

        - *Bound.* A query ``q`` is measured against the faces binned in its
          own cell, and the least of those distances bounds its minimum:
          ``r^2``. Some face's point lies ``r`` from ``q``; where the cell
          holds no face, ``r^2 = inf``.
        - *Gather.* A face's point is a convex combination of its corners, up
          to rounding, so a face whose point is within ``r`` of ``q`` has a
          bounding box that meets the box ``q +- r`` and is binned in a cell
          that the box covers (:meth:`_CellBins.box`). ``r`` is inflated by
          ``1e-9`` of itself and of the largest face coordinate, which covers
          the rounding of the point and its distance. Where the box lies in
          ``q``'s own cell, the faces measured for the bound are all the
          candidates. Otherwise the faces of every covered cell are gathered,
          once, and measured; for ``r^2 = inf`` that is the whole grid.
          Either way every face at the minimum is measured, in ascending
          order per query, and the first one wins.

        Memory is bounded per block: the pairs are formed in blocks of whole
        queries that hold at most ``_BLOCK_PAIRS`` home-cell pairs or, for
        the gather, ``_BLOCK_PAIRS`` cell columns and ``4 * _BLOCK_PAIRS``
        gathered cell entries (a query beyond that is a block of its own),
        so a call holds its per-query arrays, the grid and one block. A query's answer depends on its own
        pairs only, so the blocks do not change it. Raises
        :class:`MeshValidationError` for non-finite queries.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise MeshValidationError("closest-point query requires finite coordinates")
        cells = self.cells
        cols = np.ascontiguousarray(pts.T)
        n = len(pts)
        out = (np.empty((n, 3)), np.empty(n, dtype=np.int64), np.empty((n, 3)), np.empty(n))
        home = cells.key(cells.cell_of(cols.T))
        first = cells.starts[home]
        count = cells.starts[home + 1] - first
        lo = np.empty((n, 3), dtype=np.int64)
        hi = np.empty((n, 3), dtype=np.int64)
        for s, e in _blocks(count, _BLOCK_PAIRS):
            owner, face = cells.entries(np.arange(e - s), first[s:e], count[s:e])
            measured = self.measure(np.take(cols, s + owner, axis=1), face)
            bound = _run_minima(measured[3], owner, e - s)
            lo[s:e], hi[s:e] = cells.box(cols[:, s:e], bound, self.pad)
            inside = (lo[s:e] == hi[s:e]).all(axis=1)
            _settle(out, s + owner, face, measured, inside[owner] & (measured[3] <= bound[owner]))
        far = np.flatnonzero((lo != hi).any(axis=1))
        lo, hi = lo[far], hi[far]
        span = hi - lo + 1
        m = self.terms.shape[1]
        for s, e in _blocks(span[:, 0] * span[:, 1], _BLOCK_PAIRS):
            columns = cells.columns(lo[s:e], hi[s:e])
            # a gathered face recurs once per covered cell it touches, ~4
            # times on the codec's queries, and an entry is two integers
            # where a measured pair is ~30 floats: four budgets of entries
            # make about one budget of pairs
            for a, b in _owner_blocks(columns[0], columns[2], 4 * _BLOCK_PAIRS):
                owner, face = cells.entries(*(x[a:b] for x in columns))
                owner, face = np.divmod(sorted_unique(owner * m + face), m)
                query = far[s:e][owner]
                measured = self.measure(np.take(cols, query, axis=1), face)
                least = _run_minima(measured[3], owner, e - s)
                _settle(out, query, face, measured, measured[3] <= least[owner])
        return out


def closest_points_on_surface(mesh: TriangleMesh, points):
    """Batched closest-surface-point query: :meth:`_FaceGrid.closest` of a
    grid over ``mesh``.

    Returns ``(positions, faces, bary, sq_dists)`` arrays: per query the
    closest point of the surface, its face (the lowest on ties), its
    barycentric weights in that face and its squared distance, exactly as a
    scan of every face finds them. Raises :class:`MeshValidationError` for a
    mesh without faces and for non-finite coordinates.
    """
    return _FaceGrid(mesh).closest(points)


def _settle(out, query, face, measured, least):
    """Write into ``out`` the first pair marked ``least`` of each query, from
    the :meth:`_FaceGrid.measure` of (query, face) pairs grouped by query
    with faces ascending."""
    take = np.flatnonzero(least)
    take = take[_run_starts(query[take])]
    point, v, w, d2 = (x[..., take] for x in measured)
    for array, value in zip(out, (point.T, face[take], np.stack([1.0 - v - w, v, w], axis=1), d2)):
        array[query[take]] = value


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def triangle_terms(a, b, c):
    """What :func:`sq_distances_to_terms` needs of each triangle, as rows
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
    """Squared distance from points to triangles, elementwise, and where on
    the triangle it is reached.

    ``p`` holds coordinates first, shape (3, ...), and ``terms`` the
    :func:`triangle_terms` rows of the triangles, (17, ...), with the
    trailing shapes broadcasting against each other. Returns ``(d2, v, w)``
    of the broadcast shape: the closest point on triangle (a, b, c) is
    ``a + v (b - a) + w (c - a)``. The search uses dot products alone, and
    ``d2`` is expanded from them, so it carries rounding of the order of the
    squared distance to ``a`` times the machine epsilon. Degenerate
    triangles are measured by their edges; of equally near edges, the first
    of ab, ac and bc wins.
    """
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
