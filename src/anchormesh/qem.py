"""Quadric error metrics and the edge-collapse engine with its two drivers:
the base decimator and the fine anchor stage.

A quadric is the symmetric 4x4 form P*P^T accumulated over a vertex's
incident face planes; evaluating it at a homogeneous point gives the sum of
squared plane residuals (Garland & Heckbert, SIGGRAPH 1997). Both drivers
collapse edges of a :class:`_WorkingCopy` to the optimal points of their
quadrics.

:func:`decimate_to_base` makes a frame pair's base mesh by collapsing the
globally cheapest edge until few enough vertices are left. The fine stage
proposes, for each coarse anchor vertex, the optimal collapse point of its
best incident edge on a working copy of the target mesh, and keeps that
move only where it lowers the anchor's local reconstruction error
(:class:`_MoveJudge`). A rejected anchor keeps its coarse vertex and its
target correspondence, is never marked ``OFF_VERTEX``, and the working copy
is not collapsed for it.
"""

from __future__ import annotations

import heapq

import numpy as np

from .coarse import OFF_VERTEX, AnchorMesh, traversal_order
from .grid import (
    FaceGrid,
    blocks,
    closest_points_on_surface,
    dot3,
    sq_distances_to_terms,
    triangle_terms,
)
from .mesh import (
    DEGENERATE_AREA,
    TriangleMesh,
    directed_edges,
    face_normals,
    ranges,
    run_minima,
    unique_edges,
    vertex_corners,
)
from .subdivide import CHILD_CORNERS

# Upper-triangle layout of the symmetric 4x4 matrix:
# indices 0..9 = xx, xy, xz, xw, yy, yz, yw, zz, zw, ww
_TRIU_ROWS, _TRIU_COLS = np.triu_indices(4)

# Condition-number ceiling for the 3x3 minimization block; beyond it the
# stationary point is numerically meaningless and we fall back to endpoints.
CONDITION_LIMIT = 1e12

# Scale of the boundary-preservation quadrics added during decimation; large
# enough to pin open boundaries without making the solves singular.
BOUNDARY_WEIGHT = 1e3


def _evaluate_raw(c, p):
    """Value of [x y z 1]^T Q [x y z 1] for coefficients ``c`` (..., 10) at
    points ``p`` (..., 3)."""
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return (
        c[..., 0] * x * x + c[..., 4] * y * y + c[..., 7] * z * z + c[..., 9]
        + 2.0 * (c[..., 1] * x * y + c[..., 2] * x * z + c[..., 5] * y * z
                 + c[..., 3] * x + c[..., 6] * y + c[..., 8] * z)
    )


def all_vertex_quadrics(mesh: TriangleMesh) -> np.ndarray:
    """Per-vertex quadric coefficients, (n, 10), vectorized over faces.

    Each vertex sums the plane quadrics P*P^T of its incident faces, the
    plane 4-vector normalized to unit norm; degenerate faces contribute
    nothing (and a zero normal is never divided by).
    """
    acc = np.zeros((mesh.n_vertices, 10))
    n, _, sliver = face_normals(mesh)
    faces, n = mesh.faces[~sliver], n[~sliver]
    d = -(n * mesh.vertices[faces[:, 0]]).sum(axis=1)
    p4 = np.concatenate([n, d[:, None]], axis=1)
    p4 = p4 / np.linalg.norm(p4, axis=1, keepdims=True)
    q = p4[:, _TRIU_ROWS] * p4[:, _TRIU_COLS]  # (m, 10)
    for corner in range(3):
        np.add.at(acc, faces[:, corner], q)
    return acc


def _optimal_points(coeffs, fallback_a, fallback_b):
    """Minimizers of the quadrics ``coeffs`` (k, 10) as ``(points (k, 3),
    errors (k,))``, errors clamped at 0.

    A row's 3x3 block is solved analytically via its adjugate where its
    determinant is nonzero, its 1-norm condition number is finite and below
    ``CONDITION_LIMIT`` and the solution is finite. Every other row takes the
    best of (fallback_a, midpoint, fallback_b), ties resolved in that order.
    """
    c = coeffs
    a11, a12, a13, a22, a23, a33 = c[:, 0], c[:, 1], c[:, 2], c[:, 4], c[:, 5], c[:, 7]
    m11 = a22 * a33 - a23 * a23
    m12 = a13 * a23 - a12 * a33
    m13 = a12 * a23 - a13 * a22
    m22 = a11 * a33 - a13 * a13
    m23 = a12 * a13 - a11 * a23
    m33 = a11 * a22 - a12 * a12
    det = a11 * m11 + a12 * m12 + a13 * m13
    # every row is solved: det == 0 divides by zero, a near-singular block
    # overflows 1/det, and both leave a non-finite cond that sends the row to
    # the fallback
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_det = 1.0 / det
        norm_a = np.maximum(np.maximum(abs(a11) + abs(a12) + abs(a13),
                                       abs(a12) + abs(a22) + abs(a23)),
                            abs(a13) + abs(a23) + abs(a33))
        norm_inv = abs(inv_det) * np.maximum(np.maximum(abs(m11) + abs(m12) + abs(m13),
                                                        abs(m12) + abs(m22) + abs(m23)),
                                             abs(m13) + abs(m23) + abs(m33))
        cond = norm_a * norm_inv
        bx, by, bz = -c[:, 3], -c[:, 6], -c[:, 8]
        points = np.stack([
            (m11 * bx + m12 * by + m13 * bz) * inv_det,
            (m12 * bx + m22 * by + m23 * bz) * inv_det,
            (m13 * bx + m23 * by + m33 * bz) * inv_det,
        ], axis=1)
    solved = ((det != 0.0) & np.isfinite(cond) & (cond < CONDITION_LIMIT)
              & np.isfinite(points).all(axis=1))
    fallback = np.flatnonzero(~solved)
    if len(fallback):
        cf, fa, fb = c[fallback], fallback_a[fallback], fallback_b[fallback]
        best, best_error = fa.copy(), _clamped_error(cf, fa)
        for cand in (0.5 * (fa + fb), fb):  # ties go to a, then the midpoint
            error = _clamped_error(cf, cand)
            better = error < best_error
            best[better], best_error[better] = cand[better], error[better]
        points[fallback] = best
    return points, _clamped_error(c, points)


def _clamped_error(c, p):
    """``max(value, 0.0)`` of the quadrics at the points, row by row."""
    e = _evaluate_raw(c, p)
    return np.where(0.0 > e, 0.0, e)


class _WorkingCopy:
    """Mutable edge-collapse view of a mesh: the one collapse engine of the
    base decimator and the fine stage.

    It owns a copy of the vertex ``positions``, the per-vertex ``quadrics``
    (n, 10) it is given (kept, not copied), the ``faces`` as lists rewired
    in place, and the face incidence ``vfaces``. Incidence only ever holds
    live faces, so edges derived from it are always current, and a collapsed
    vertex has none.
    """

    def __init__(self, mesh: TriangleMesh, quadrics: np.ndarray):
        self.positions = mesh.vertices.copy()
        self.quadrics = quadrics
        self.faces = [list(f) for f in mesh.faces.tolist()]
        self.vfaces = [set() for _ in range(mesh.n_vertices)]
        for fi, (a, b, c) in enumerate(self.faces):
            self.vfaces[a].add(fi)
            self.vfaces[b].add(fi)
            self.vfaces[c].add(fi)

    def neighbors_of(self, v: int) -> set:
        out = set()
        for fi in self.vfaces[v]:
            out.update(self.faces[fi])
        out.discard(v)
        return out

    def mesh(self) -> TriangleMesh:
        """The live faces in index order, compacted onto the vertices they
        use (in index order)."""
        faces = np.array([f for fi, f in enumerate(self.faces) if fi in self.vfaces[f[0]]],
                         dtype=np.int64).reshape(-1, 3)
        used = np.unique(faces)
        return TriangleMesh(self.positions[used], np.searchsorted(used, faces))

    def collapse(self, keep: int, drop: int, position) -> set:
        """Merge ``drop`` into ``keep``, move ``keep`` to ``position`` and
        give it the sum of both quadrics; faces containing both endpoints are
        deleted. Returns the corners of the deleted faces other than
        ``drop``: the only vertices besides it that can lose their last
        face."""
        self.positions[keep] = position
        self.quadrics[keep] = self.quadrics[keep] + self.quadrics[drop]
        corners = set()
        for fi in list(self.vfaces[drop]):
            f = self.faces[fi]
            if keep in f:
                corners.update(f)
                for v in f:
                    self.vfaces[v].discard(fi)
            else:
                f[f.index(drop)] = keep
                self.vfaces[keep].add(fi)
                self.vfaces[drop].discard(fi)
        self.vfaces[drop].clear()
        corners.discard(drop)
        return corners


def _boundary_quadrics(mesh: TriangleMesh, edges, face_edges) -> np.ndarray:
    """Constraint quadrics pinning open boundaries: for each edge with exactly
    one incident face, a plane through the edge perpendicular to that face,
    scaled by ``BOUNDARY_WEIGHT``. ``edges`` and ``face_edges`` are the
    :func:`anchormesh.mesh.unique_edges` of ``mesh``. Returns (n, 10)
    coefficients to add.

    Boundary edges are visited in face order, ab, bc, ca within a face, each
    from its lower to its higher vertex index."""
    acc = np.zeros((mesh.n_vertices, 10))
    once = np.bincount(face_edges.ravel(), minlength=len(edges)) == 1
    for fi, corner in zip(*np.nonzero(once[face_edges])):
        u, v = edges[face_edges[fi, corner]].tolist()
        fa, fb, fc = mesh.vertices[mesh.faces[fi]]
        # one boundary face at a time, not mesh.face_normals over every face:
        # a lone vector's norm may round apart from a batched one
        fn = np.cross(fb - fa, fc - fa)
        fn_norm = np.linalg.norm(fn)
        if 0.5 * fn_norm <= DEGENERATE_AREA:
            continue
        edge_dir = mesh.vertices[v] - mesh.vertices[u]
        bn = np.cross(edge_dir, fn / fn_norm)
        bn_norm = np.linalg.norm(bn)
        if bn_norm == 0.0:
            continue
        bn = bn / bn_norm
        p4 = np.array([bn[0], bn[1], bn[2], -float(bn @ mesh.vertices[u])])
        p4 = p4 / np.linalg.norm(p4)
        q = BOUNDARY_WEIGHT * (p4[_TRIU_ROWS] * p4[_TRIU_COLS])
        acc[u] += q
        acc[v] += q
    return acc


def decimate_to_base(mesh: TriangleMesh, target_vertex_count: int) -> TriangleMesh:
    """Decimate by repeated minimal-error edge collapse until at most
    ``target_vertex_count`` vertices have a face (global lazy priority
    queue); the result keeps only those, with the live faces in index order.

    A heap entry ``(err, lo, hi, s_lo, s_hi, seq)`` holds an edge's
    collapse error (``hi`` merges into ``lo``), the stamps its ends had when
    it was pushed and a running number, which also finds the optimal point
    in a table. An entry whose stamps are stale or whose edge has vanished
    is dropped; the cheapest valid one is collapsed, and every edge of the
    kept vertex is pushed again with the summed quadric ``(Q[lo] + Q[hi]) +
    Q[w]``, falling back to its ends in (lo, hi) order.

    The loop runs in rounds, each with one quadric solve. It pops a run of
    valid entries whose face stars (the faces of either end) are pairwise
    disjoint, up to the first valid entry whose star meets the run's, which
    stays on the heap. Each candidate's neighbours after its collapse are
    the corners of its star's faces that do not hold both ends, less the
    ends, so all the run's new edges are solved at once. The run is then
    collapsed in heap order, each candidate's new entries pushed as it
    commits, up to the first candidate that the heap's least entry (a new
    one) precedes or until the target is reached; the rest go back
    unchanged. The result is bitwise the one-collapse-at-a-time loop's:

    - A star disjoint from the earlier candidates' sees the same stamps,
      edges, quadrics and positions as that loop would: a collapse changes
      the faces of its own star and the quadric, position and stamp of its
      kept vertex, which holds a face of that star.
    - Invalidity is permanent: only the kept vertex of a collapse gains
      faces, and its stamp moves. Dropping an entry early drops it for good.
    - Heap keys are distinct (``seq``), so the pops depend on the set of
      entries, not on the heap's layout.

    Boundary edges contribute weighted perpendicular-plane quadrics so open
    borders collapse along themselves instead of shrinking. When at most
    ``target_vertex_count`` vertices have a face, nothing is collapsed: a
    mesh whose vertices all have one comes back unchanged, bit for bit.
    """
    if target_vertex_count < 4:
        raise ValueError("target vertex count must be >= 4")
    n = mesh.n_vertices
    used = np.flatnonzero(np.bincount(mesh.faces.ravel(), minlength=n))
    remaining = len(used)  # vertices with a face
    if remaining <= target_vertex_count:
        return TriangleMesh(mesh.vertices[used], np.searchsorted(used, mesh.faces))
    edges, face_edges = unique_edges(mesh.faces, n)
    quadrics = all_vertex_quadrics(mesh) + _boundary_quadrics(mesh, edges, face_edges)
    work = _WorkingCopy(mesh, quadrics)
    faces, vfaces, positions = work.faces, work.vfaces, work.positions
    stamps = [0] * n
    points, errors = _optimal_points(quadrics[edges[:, 0]] + quadrics[edges[:, 1]],
                                     positions[edges[:, 0]], positions[edges[:, 1]])
    heap = [(err, u, v, 0, 0, seq) for seq, (err, u, v)
            in enumerate(zip(errors.tolist(), *edges.T.tolist()), 1)]
    seq = len(heap)
    table = np.empty((2 * seq + 1, 3))  # the point of entry seq in row seq
    table[1:seq + 1] = points
    heapq.heapify(heap)
    while remaining > target_vertex_count and heap:
        # gather a run of valid entries with pairwise disjoint stars
        run, neighbors, taken = [], [], set()
        while heap:
            entry = heapq.heappop(heap)
            u, v = entry[1], entry[2]
            if entry[3] != stamps[u] or entry[4] != stamps[v]:
                continue
            deleted = vfaces[u] & vfaces[v]
            if not deleted:
                continue  # the edge vanished, as every edge of a collapsed vertex does
            star = vfaces[u] | vfaces[v]
            if not taken.isdisjoint(star):
                heapq.heappush(heap, entry)
                break
            taken |= star
            run.append(entry)
            nb = {w for fi in star - deleted for w in faces[fi]}
            nb.discard(u)
            nb.discard(v)
            neighbors.append(sorted(nb))
        # solve every new edge of the run at once
        counts = [len(nb) for nb in neighbors]
        owner = np.repeat(np.arange(len(run)), counts)
        kept = [entry[1] for entry in run]
        keep = np.array(kept)[owner]
        other = np.fromiter((w for nb in neighbors for w in nb), dtype=np.int64, count=len(owner))
        merged = quadrics[kept] + quadrics[[entry[2] for entry in run]]
        point, at_other = table[[entry[5] for entry in run]][owner], positions[other]
        lo_first = (keep < other)[:, None]
        points, errors = _optimal_points(merged[owner] + quadrics[other],
                                         np.where(lo_first, point, at_other),
                                         np.where(lo_first, at_other, point))
        errors = errors.tolist()
        lo = np.minimum(keep, other).tolist()
        hi = np.maximum(keep, other).tolist()
        # commit in heap order while the run's next entry is the heap's least
        end, first = 0, seq + 1
        if first + len(points) > len(table):
            table = np.concatenate([table, np.empty((len(table) + len(points), 3))])
        for i, entry in enumerate(run):
            if remaining <= target_vertex_count or heap and heap[0] < entry:
                for rest in run[i:]:
                    heapq.heappush(heap, rest)
                break
            u = entry[1]
            corners = work.collapse(u, entry[2], table[entry[5]])
            stamps[u] += 1
            # v lost its faces; u and the other corners of the deleted faces
            # may have lost their last one
            remaining -= 1 + sum(not vfaces[w] for w in corners)
            start, end = end, end + counts[i]
            for j in range(start, end):
                seq += 1
                heapq.heappush(heap, (errors[j], lo[j], hi[j], stamps[lo[j]], stamps[hi[j]],
                                      seq))
        table[first:first + end] = points[:end]
    return work.mesh()


def _triangles(table, corners):
    """Columns of the triangles whose corners are the columns ``corners``
    (m, 3) of the points ``table`` (3, k) for the closest-triangle searches:
    their :func:`anchormesh.grid.triangle_terms` (17 rows), then the center
    (3 rows) and radius of their bounding sphere centered on the centroid."""
    a, b, c = (np.take(table, corners[:, i], axis=1) for i in range(3))
    center = (a + b + c) / 3.0
    radius = np.sqrt(np.maximum.reduce([dot3(x - center, x - center) for x in (a, b, c)]))
    return np.concatenate([triangle_terms(a, b, c), center, radius[None]])


def _least_sq_distances(points, point_counts, tris, tri_counts):
    """Least squared distance from each of ``points`` (n, 3) to the
    triangles of its group, as :func:`anchormesh.grid.sq_distances_to_terms`
    measures it; inf for a group without triangles. ``points`` and the
    :func:`_triangles` columns ``tris`` (21, m) come in consecutive groups
    of the given sizes. A triangle is not measured from a point when its
    bounding sphere lies farther from the point than the nearest centroid
    of the group."""
    tri_counts = np.asarray(tri_counts, dtype=np.int64)
    per_point = np.repeat(tri_counts, point_counts)  # triangles in each point's group
    pi = np.repeat(np.arange(len(points)), per_point)
    ti = ranges(np.repeat(np.cumsum(tri_counts) - tri_counts, point_counts), per_point)
    # np.take keeps the gathered (rows, pairs) arrays contiguous; ``x[:, pi]`` does not
    columns = np.ascontiguousarray(points.T)
    rel = np.take(columns, pi, axis=1) - np.take(tris[17:20], ti, axis=1)
    gap = np.sqrt(dot3(rel, rel))
    keep = gap - tris[20, ti] <= run_minima(gap, pi, len(points))[pi]
    pi, ti = pi[keep], ti[keep]
    d2, _, _ = sq_distances_to_terms(np.take(columns, pi, axis=1),
                                     np.take(tris[:17], ti, axis=1))
    return run_minima(d2, pi, len(points))


class _MoveJudge:
    """Scores a move of one coarse anchor vertex by what the decoder rebuilds.

    The fan of an anchor vertex is its incident base faces. Split once at
    edge midpoints (:data:`anchormesh.subdivide.CHILD_CORNERS`), with every
    corner of the split moved to its closest point on the target (as exact
    displacements would move it), the fan is what the decoder rebuilds
    around the anchor. The error of an anchor is the summed squared distance
    from the target vertices it covers to that projected split fan; a target
    vertex is covered by the three anchors of its closest coarse anchor
    face. A move of one anchor is scored with every other anchor vertex
    where the coarse stage put it, on a target vertex, which is its own
    projection.

    Both searches are the encoder's: a target vertex's closest coarse face
    is the one :func:`anchormesh.grid.closest_points_on_surface` finds
    (lowest face on ties), and the corners are projected by one
    :class:`anchormesh.grid.FaceGrid` over the whole target, the search
    that :func:`anchormesh.subdivide.compute_displacements` makes. An anchor
    that covers no target vertex has error 0 wherever it goes. Raises
    :class:`anchormesh.mesh.MeshValidationError` for a target without
    faces.

    The fan table is built once, with the judge: every anchor's rim (its
    neighbors, ascending) and fan faces (x, u, w) turned to start at it,
    each with its edges xu, uw and wx among the coarse edges and the rim
    slots of u and w.
    """

    def __init__(self, coarse: AnchorMesh, target: TriangleMesh):
        self.target = target
        self.positions = pos = coarse.mesh.vertices
        faces = coarse.mesh.faces
        n = len(pos)
        edges, face_edges = unique_edges(faces, n)
        # rim of every anchor: its neighbors, ascending, as directed edges
        directed = directed_edges(edges)
        self.rim = directed[:, 1]
        self.rim_count = np.bincount(directed[:, 0], minlength=n)
        self.rim_start = np.cumsum(self.rim_count) - self.rim_count
        # fan of every anchor: its faces turned to start at it, by face
        # index, their edges (ab, bc, ca of the turned face) turned alike
        by_anchor, self.fan_count, self.fan_start = vertex_corners(faces, n)
        turn = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        self.fan = faces[:, turn].reshape(-1, 3)[by_anchor]
        self.fan_edges = face_edges[:, turn].reshape(-1, 3)[by_anchor]
        x = self.fan[:, :1]
        self.fan_slots = (np.searchsorted(directed[:, 0] * n + directed[:, 1],
                                          x * n + self.fan[:, 1:]) - self.rim_start[x])
        # covered target vertices of every anchor, ascending; an anchor
        # without faces covers none
        face = (closest_points_on_surface(coarse.mesh, target.vertices)[1] if len(faces)
                else np.zeros(0, dtype=np.int64))
        by_anchor, self.covered_count, self.covered_start = vertex_corners(faces[face], n)
        self.covered = by_anchor // 3
        self.grid = FaceGrid(target)
        self.midpoints = self.grid.closest(0.5 * (pos[edges[:, 0]] + pos[edges[:, 1]]))[0]

    def errors(self, anchors, points):
        """Error of each of ``anchors`` moved to its point in ``points``.

        An anchor whose point equals its coarse vertex is at its coarse
        vertex: its spoke midpoints ``0.5 * (pos[x] + pos[v])`` are bitwise
        the edge midpoints ``0.5 * (pos[lo] + pos[hi])``, since IEEE
        addition commutes, so their projections come from ``midpoints`` and
        only the point itself is projected (a vertex's projection need not
        be bitwise the vertex). Its score is exactly that of projecting
        every corner.

        The corners are projected, the split fans' table rows built and the
        covered vertices gathered once per call. The fans are then measured
        (triangle columns, least distances, per-anchor sums) over runs of
        anchors whose candidate pairs, covered vertices times 4 fan faces
        each, fit one pair budget (:func:`anchormesh.grid.blocks`; an anchor
        beyond it is a run of its own), so a call holds its corners, fan
        rows, covered vertices, the mesh and one block of triangles and
        pairs. An anchor's score depends on its own pairs only, so the runs
        do not change it.
        """
        n = len(self.positions)
        anchors = np.asarray(anchors, dtype=np.int64)
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        moved = np.any(points != self.positions[anchors], axis=1)
        # corners to project, per anchor: its point, then the midpoints of
        # its spokes in rim order if it moved
        spokes = np.where(moved, self.rim_count[anchors], 0)
        counts = 1 + spokes
        starts = np.cumsum(counts) - counts
        corners = np.repeat(points, counts, axis=0)
        spoke = np.ones(counts.sum(), dtype=bool)
        spoke[starts] = False
        rim = self.rim[ranges(self.rim_start[anchors], spokes)]
        corners[spoke] = 0.5 * (corners[spoke] + self.positions[rim])
        table = np.concatenate([self.positions, self.midpoints,
                                self.grid.closest(corners)[0]]).T.copy()
        # split fan faces (x, u, w) of every anchor as the table rows of
        # (x, u, w, xu, uw, wx); a moved anchor's xu and wx are its spokes
        fan_count = self.fan_count[anchors]
        fan = ranges(self.fan_start[anchors], fan_count)
        owner = np.repeat(np.arange(len(anchors)), fan_count)
        center = (n + len(self.midpoints) + starts)[owner]
        rows = np.column_stack([center, self.fan[fan, 1:], n + self.fan_edges[fan]])
        fan_moved = moved[owner]
        rows[fan_moved, 3::2] = center[fan_moved, None] + 1 + self.fan_slots[fan[fan_moved]]
        corner = rows[:, CHILD_CORNERS].reshape(-1, 3)  # of each split fan triangle
        tri_count = 4 * fan_count
        covered_count = self.covered_count[anchors]
        covered = self.target.vertices[self.covered[ranges(self.covered_start[anchors],
                                                            covered_count)]]
        tri_end = np.cumsum(tri_count)
        covered_end = np.cumsum(covered_count)
        out = np.empty(len(anchors))
        for s, e in blocks(covered_count * tri_count):
            block_tris = _triangles(table, corner[tri_end[s] - tri_count[s]:tri_end[e - 1]])
            block_covered = covered[covered_end[s] - covered_count[s]:covered_end[e - 1]]
            block_counts = covered_count[s:e]
            d2 = _least_sq_distances(block_covered, block_counts, block_tris, tri_count[s:e])
            out[s:e] = np.bincount(np.repeat(np.arange(e - s), block_counts), weights=d2,
                                   minlength=e - s)
        return out


def _best_collapses(quadrics, positions, c, nb) -> dict:
    """Optimal collapse of every edge ``(c[i], nb[i])``, and the best per
    distinct ``c`` (minimal error, ties to the lexicographically smallest
    edge) as ``{c: (neighbor, point)}``."""
    points, errors = _optimal_points(quadrics[c] + quadrics[nb], positions[c], positions[nb])
    order = np.lexsort((np.maximum(c, nb), np.minimum(c, nb), errors, c))
    best = order[np.diff(c[order], prepend=-1) != 0]
    return {int(c[i]): (int(nb[i]), points[i]) for i in best}


def _first_collapses(target: TriangleMesh, work: _WorkingCopy, corr: np.ndarray) -> dict:
    """:func:`_best_collapses` on the untouched working copy ``work`` of
    ``target`` of every edge from a correspondent in ``corr`` to a vertex
    that is none, keyed by the correspondent."""
    edges = unique_edges(target.faces, target.n_vertices)[0]
    held = np.zeros(target.n_vertices, dtype=bool)
    held[corr] = True
    edges = edges[held[edges[:, 0]] != held[edges[:, 1]]]
    flip = held[edges[:, 1]]
    edges[flip] = edges[flip, ::-1]  # correspondent first
    return _best_collapses(work.quadrics, work.positions, edges[:, 0], edges[:, 1])


def refine_anchor(coarse: AnchorMesh, target: TriangleMesh,
                  collapses_per_anchor: int = 1) -> AnchorMesh:
    """Refine a coarse anchor by QEM edge collapses that lower its local
    reconstruction error.

    Runs over a shared working copy of the target. Each anchor vertex, in
    traversal order, makes up to ``collapses_per_anchor`` moves. A move's
    candidate edges are the working-copy edges incident to the anchor's
    corresponding target vertex whose opposite endpoint is not another
    anchor's correspondent; the candidate with minimal quadric error wins
    (ties to the lexicographically smallest edge) and proposes its optimal
    collapse point. The move is kept only if the anchor's error there is
    strictly below its error at its current position; then the collapse is
    applied (the merged vertex inherits the edge quadric), the anchor takes
    the point and is marked ``OFF_VERTEX``. Otherwise the anchor stops: an
    anchor whose first move is rejected, or that has no candidate edge, keeps
    its coarse vertex and correspondence, and the working copy is not
    collapsed for it.

    The error of an anchor at a position is the summed squared distance from
    the target vertices it covers (those whose closest coarse anchor face is
    incident to it) to its fan split once at edge midpoints with every
    corner projected onto the target by the encoder's own closest-point
    search, every other anchor vertex at its coarse position
    (:class:`_MoveJudge`, whose fan table is built once per call). The
    judge tells an anchor at its coarse vertex from its point alone, so the
    coarse errors and the first moves go to it as one batch. The paper
    leaves the acceptance rule open; this one is the codec's own.
    Connectivity is untouched, and the result depends only on the
    arguments. Raises :class:`anchormesh.mesh.MeshValidationError` for a
    target without faces.
    """
    if coarse.stage != "coarse":
        raise ValueError(f"expected a coarse anchor, got stage {coarse.stage!r}")
    corr = coarse.correspondence
    if np.any(corr < 0) or np.any(corr >= target.n_vertices):
        raise ValueError("coarse anchor has invalid target correspondences")
    work = _WorkingCopy(target, all_vertex_quadrics(target))
    anchor_targets = set(corr.tolist())
    order = traversal_order(coarse.mesh) if coarse.order is None else coarse.order.tolist()
    judge = _MoveJudge(coarse, target)
    # Every anchor's first collapse is found up front, on the untouched
    # working copy, and judged in one batch with the anchor at its coarse
    # vertex. A kept collapse at c with neighbor nb changes the candidates of
    # c, nb and their neighbors only; an anchor whose correspondent is among
    # those is searched again in turn, and judged again only if its point
    # changed: the judge scores a point the same whatever the working copy.
    # An anchor without a first move never gets one, since a collapse only
    # ever replaces a non-correspondent by the correspondent that keeps it.
    first = _first_collapses(target, work, corr)
    movable = [ai for ai in order if int(corr[ai]) in first]
    scores = judge.errors(
        np.r_[movable, movable],
        np.concatenate([coarse.mesh.vertices[movable],
                        np.reshape([first[int(corr[ai])][1] for ai in movable], (-1, 3))]))
    fine_errors = dict(zip(movable, scores[:len(movable)]))
    first_error = dict(zip(movable, scores[len(movable):]))
    touched = set()
    fine_positions = coarse.mesh.vertices.copy()
    out_corr = corr.copy()
    for ai in order:
        c = int(corr[ai])
        for step in range(collapses_per_anchor):
            if step == 0 and c not in touched:
                move = first.get(c)
            else:  # edges of c to a vertex that is no correspondent
                nb = np.fromiter(work.neighbors_of(c) - anchor_targets, dtype=np.int64)
                move = _best_collapses(work.quadrics, work.positions, np.full(len(nb), c),
                                       nb).get(c)
            if move is None:
                break
            if step == 0 and c in first and (move is first[c]
                                             or np.array_equal(move[1], first[c][1])):
                error = first_error[ai]
            else:
                error = judge.errors([ai], [move[1]])[0]
            if not error < fine_errors[ai]:
                break
            nb, point = move
            touched |= {c, nb} | work.neighbors_of(c) | work.neighbors_of(nb)
            work.collapse(c, nb, point)  # c inherits the summed edge quadric
            fine_positions[ai] = point
            fine_errors[ai] = error
            out_corr[ai] = OFF_VERTEX
    return AnchorMesh(TriangleMesh(fine_positions, coarse.mesh.faces), out_corr, "fine",
                      coarse.order)
