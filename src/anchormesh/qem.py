"""Quadric error metrics and fine anchor refinement.

A quadric is the symmetric 4x4 form P*P^T accumulated over a vertex's
incident face planes; evaluating it at a homogeneous point gives the sum of
squared plane residuals (Garland & Heckbert, SIGGRAPH 1997).

The fine stage proposes, for each coarse anchor vertex, the optimal collapse
point of its best incident edge on a mutable working copy of the target
mesh, and keeps that move only where it lowers the anchor's local
reconstruction error (:class:`_MoveJudge`). A rejected anchor keeps its
coarse vertex and its target correspondence, is never marked
``OFF_VERTEX``, and the working copy is not collapsed for it.
"""

from __future__ import annotations

import numpy as np

from .coarse import OFF_VERTEX, AnchorMesh, traversal_order
from .mesh import (
    _BLOCK_PAIRS,
    _PAD,
    DEGENERATE_AREA,
    TriangleMesh,
    _blocks,
    _dot3,
    sq_distances_to_terms,
    triangle_terms,
    unique_edges,
)

# Upper-triangle layout of the symmetric 4x4 matrix:
# indices 0..9 = xx, xy, xz, xw, yy, yz, yw, zz, zw, ww
_TRIU_ROWS, _TRIU_COLS = np.triu_indices(4)

# Condition-number ceiling for the 3x3 minimization block; beyond it the
# stationary point is numerically meaningless and we fall back to endpoints.
CONDITION_LIMIT = 1e12


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
    nothing.
    """
    acc = np.zeros((mesh.n_vertices, 10))
    if mesh.n_faces == 0:
        return acc
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    n = np.cross(b - a, c - a)
    norms = np.linalg.norm(n, axis=1)
    keep = 0.5 * norms > DEGENERATE_AREA
    if not keep.any():
        return acc
    d = -(n * a).sum(axis=1)
    p4 = np.concatenate([n, d[:, None]], axis=1)
    p4 = p4 / np.linalg.norm(p4, axis=1, keepdims=True)
    q = p4[:, _TRIU_ROWS] * p4[:, _TRIU_COLS]  # (m, 10)
    q[~keep] = 0.0
    for corner in range(3):
        np.add.at(acc, mesh.faces[:, corner], q)
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
    """Mutable edge-collapse view of the target mesh.

    Face membership (``vfaces``) only ever contains live faces, so incident
    edges derived from it are always current.
    """

    def __init__(self, mesh: TriangleMesh):
        self.positions = mesh.vertices.copy()
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

    def collapse(self, keep: int, drop: int, position) -> None:
        """Merge ``drop`` into ``keep`` and move ``keep`` to ``position``;
        faces containing both endpoints are deleted."""
        self.positions[keep] = position
        for fi in list(self.vfaces[drop]):
            f = self.faces[fi]
            if keep in f:
                for v in f:
                    self.vfaces[v].discard(fi)
            else:
                f[f.index(drop)] = keep
                self.vfaces[keep].add(fi)
                self.vfaces[drop].discard(fi)
        self.vfaces[drop].clear()


# 1-to-4 split of a fan face (x, u, w) with corners 3..5 at the midpoints of
# xu, uw and wx, in the order :func:`anchormesh.subdivide.midpoint_subdivide`
# emits its children.
_FAN_SUBFACES = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])


def _triangles(tris):
    """Columns of the triangles ``tris`` (m, 3, 3) for the closest-triangle
    searches: their :func:`anchormesh.mesh.triangle_terms` (17 rows), then the
    center (3 rows) and radius of their bounding sphere centered on the
    centroid."""
    a, b, c = (np.ascontiguousarray(tris[:, i].T) for i in range(3))
    center = (a + b + c) / 3.0
    radius = np.sqrt(np.maximum.reduce([_dot3(x - center, x - center) for x in (a, b, c)]))
    return np.concatenate([triangle_terms(a, b, c), center, radius[None]])


def _pairs_in_groups(points, point_counts, tris, tri_counts):
    """``(point, column)`` pairs of each point with every triangle of its
    group, by point, then column: ``points`` (n, 3) and the :func:`_triangles`
    columns ``tris`` (21, m) come in consecutive groups of the given sizes.
    A pair is left out when the triangle's bounding sphere lies farther from
    the point than the nearest centroid of the group."""
    tri_counts = np.asarray(tri_counts, dtype=np.int64)
    per_point = np.repeat(tri_counts, point_counts)  # triangles in each point's group
    pi = np.repeat(np.arange(len(points)), per_point)
    ti = _ranges(np.repeat(np.cumsum(tri_counts) - tri_counts, point_counts), per_point)
    # np.take keeps the gathered (rows, pairs) arrays contiguous; ``x[:, pi]`` does not
    rel = np.take(np.ascontiguousarray(points.T), pi, axis=1) - np.take(tris[17:20], ti, axis=1)
    gap = np.sqrt(_dot3(rel, rel))
    keep = gap - tris[20, ti] <= _run_minima(gap, pi, len(points))[pi]
    return pi[keep], ti[keep]


def _closest_of_pairs(points, pi, ti, tris):
    """Closest triangle to each of ``points`` (n, 3) among its pairs with
    the :func:`_triangles` columns ``tris``, for ``pi`` ascending.

    Returns ``(d2, tri, v, w)`` per point as in
    :func:`anchormesh.mesh.triangle_sq_distances`, with ``tri`` the column of
    the earliest closest pair and ``d2 = inf``, ``tri = -1`` for a point
    without pairs.
    """
    d2, v, w = sq_distances_to_terms(np.take(np.ascontiguousarray(points.T), pi, axis=1),
                                     np.take(tris[:17], ti, axis=1))
    best = _run_minima(d2, pi, len(points))
    hit = np.flatnonzero(d2 == best[pi])
    first = hit[np.diff(pi[hit], prepend=-1) != 0]
    tri = np.full(len(points), -1)
    out_v = np.zeros(len(points))
    out_w = np.zeros(len(points))
    tri[pi[first]] = ti[first]
    out_v[pi[first]] = v[first]
    out_w[pi[first]] = w[first]
    return best, tri, out_v, out_w


def _run_minima(values, owner, n):
    """Minimum of ``values`` per owner, for ``owner`` ascending; inf for an
    owner without values."""
    out = np.full(n, np.inf)
    if len(owner):
        starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        out[owner[starts]] = np.minimum.reduceat(values, starts)
    return out


def _ranges(starts, counts):
    """Concatenation of ``arange(s, s + c)`` over the pairs."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.repeat(np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts), counts)
    return offsets + np.arange(counts.sum())


def _within_reach(centers, reach2, points):
    """``(center, point)`` index pairs whose squared distance
    ``((center - point) ** 2).sum()`` is at most the center's ``reach2``,
    ordered by center, then point.

    A sweep over the points sorted by x narrows each center's candidates to
    the x-window of its reach, padded by ``1e-9`` of itself and of the largest
    x so that rounding never drops a pair; the squared distance then decides.
    """
    order = np.argsort(points[:, 0], kind="stable")
    swept = points[order]
    pad = _PAD * float(np.abs(swept[:, 0]).max(initial=0.0))
    reach = np.sqrt(reach2) * (1.0 + _PAD) + pad
    lo = np.searchsorted(swept[:, 0], centers[:, 0] - reach, side="left")
    count = np.searchsorted(swept[:, 0], centers[:, 0] + reach, side="right") - lo
    keys = [np.zeros(0, dtype=np.int64)]
    for s, e in _blocks(count, _BLOCK_PAIRS):
        near = _ranges(lo[s:e], count[s:e])
        d2 = ((np.repeat(centers[s:e], count[s:e], axis=0) - swept[near]) ** 2).sum(axis=1)
        keep = d2 <= np.repeat(reach2[s:e], count[s:e])
        owner = np.repeat(np.arange(s, e), count[s:e])
        keys.append(np.sort(owner[keep] * len(points) + order[near[keep]]))
    return np.divmod(np.concatenate(keys), max(len(points), 1))


class _MoveJudge:
    """Scores a move of one coarse anchor vertex by what the decoder rebuilds.

    The fan of an anchor vertex is its incident base faces. Split once at
    edge midpoints, with every corner of the split moved to its closest
    point on the target (as exact displacements would move it), the fan is
    what the decoder rebuilds around the anchor. The error of an anchor is
    the summed squared distance from the target vertices it covers to that
    projected split fan; a target vertex is covered by the three anchors of
    its closest coarse anchor face. A move of one anchor is scored with
    every other anchor vertex where the coarse stage put it, on a target
    vertex, which is its own projection.

    The searches are local. The closest anchor face of a target vertex is
    searched among the fans of the anchors whose longest incident edge
    reaches it, and the corners of an anchor's split fan are projected onto
    its patch: the target faces that touch a target vertex it covers. An
    anchor that covers no target vertex has error 0 wherever it goes.
    """

    def __init__(self, coarse: AnchorMesh, target: TriangleMesh):
        self.target = target
        self.positions = pos = coarse.mesh.vertices
        faces = coarse.mesh.faces
        n = len(pos)
        edges = unique_edges(faces, n)[0]
        self.edge_keys = edges[:, 0] * n + edges[:, 1]
        # rim of every anchor: its neighbors, ascending, as directed edges
        directed = np.concatenate([edges, edges[:, ::-1]])
        directed = directed[np.lexsort((directed[:, 1], directed[:, 0]))]
        self.rim = directed[:, 1]
        self.rim_count = np.bincount(directed[:, 0], minlength=n)
        self.rim_start = np.cumsum(self.rim_count) - self.rim_count
        self.rim_keys = directed[:, 0] * n + directed[:, 1]
        # fan of every anchor: its faces turned to start at it, by face index
        by_anchor = np.argsort(faces.ravel(), kind="stable")
        turn = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        self.fan = faces[:, turn].reshape(-1, 3)[by_anchor]
        self.fan_count = np.bincount(faces.ravel(), minlength=n)
        self.fan_start = np.cumsum(self.fan_count) - self.fan_count

        # closest coarse face of each target vertex within reach of a fan
        reach2 = np.zeros(n)
        np.maximum.at(reach2, directed[:, 0],
                      ((pos[directed[:, 0]] - pos[self.rim]) ** 2).sum(axis=1))
        owner, sample = _within_reach(pos, reach2, target.vertices)
        # the pairs of a target vertex with the fan faces of each anchor that
        # reaches it, pruned fan by fan, are measured once per distinct face
        fan_face = by_anchor // 3
        face_tris = _triangles(pos[faces])
        pi, ti = _pairs_in_groups(target.vertices[sample], np.bincount(owner, minlength=n),
                                  np.take(face_tris, fan_face, axis=1), self.fan_count)
        m = max(len(faces), 1)
        vertex, face = np.divmod(np.unique(sample[pi] * m + fan_face[ti]), m)
        _, face, _, _ = _closest_of_pairs(target.vertices, vertex, face, face_tris)
        covered_vertex = np.flatnonzero(face >= 0)
        covered_face = face[covered_vertex]

        # covered target vertices of every anchor, ascending
        anchor = faces[covered_face].ravel()
        vertex = np.repeat(covered_vertex, 3)
        order = np.lexsort((vertex, anchor))
        self.covered = vertex[order]
        self.covered_count = np.bincount(anchor, minlength=n)
        self.covered_start = np.cumsum(self.covered_count) - self.covered_count

        # patch of every anchor: the target faces touching a vertex it covers
        self.target_tris = _triangles(target.vertices[target.faces])
        n_faces = max(target.n_faces, 1)
        tv_face = np.argsort(target.faces.ravel(), kind="stable") // 3
        tv_count = np.bincount(target.faces.ravel(), minlength=target.n_vertices)
        tv_start = np.cumsum(tv_count) - tv_count
        patch_face = tv_face[_ranges(tv_start[self.covered], tv_count[self.covered])]
        key = np.unique(np.repeat(anchor[order], tv_count[self.covered]) * n_faces + patch_face)
        self.patch_face = key % n_faces
        self.patch_count = np.bincount(key // n_faces, minlength=n)
        self.patch_start = np.cumsum(self.patch_count) - self.patch_count

        # projected edge midpoints, each on the patch of its lower end
        self.midpoints = self._project(0.5 * (pos[edges[:, 0]] + pos[edges[:, 1]]),
                                       np.bincount(edges[:, 0], minlength=n), np.arange(n))

    def _edge(self, u, w):
        return np.searchsorted(self.edge_keys, np.minimum(u, w) * len(self.positions)
                               + np.maximum(u, w))

    def _project(self, points, counts, anchors):
        """Closest target points to ``points``, in consecutive groups of
        ``counts``, each searched on the patch of its anchor."""
        patch = self.patch_face[_ranges(self.patch_start[anchors], self.patch_count[anchors])]
        tris = np.take(self.target_tris, patch, axis=1)
        pairs = _pairs_in_groups(points, counts, tris, self.patch_count[anchors])
        _, row, v, w = _closest_of_pairs(points, *pairs, tris)
        projected = points.copy()
        hit = row >= 0
        a, ab, ac = (tris[i:i + 3, row[hit]].T for i in (0, 3, 6))  # a, b - a, c - a
        projected[hit] = a + v[hit, None] * ab + w[hit, None] * ac
        return projected

    def errors(self, anchors, points):
        """Error of each of ``anchors`` moved to its point in ``points``."""
        anchors = np.asarray(anchors, dtype=np.int64)
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        n = len(self.positions)
        # corners to project, per anchor: its point, then the midpoints of
        # its spokes in rim order
        counts = 1 + self.rim_count[anchors]
        starts = np.cumsum(counts) - counts
        corners = np.repeat(points, counts, axis=0)
        spoke = np.ones(counts.sum(), dtype=bool)
        spoke[starts] = False
        rim = self.rim[_ranges(self.rim_start[anchors], self.rim_count[anchors])]
        corners[spoke] = 0.5 * (corners[spoke] + self.positions[rim])
        table = np.concatenate([self.positions, self.midpoints,
                                self._project(corners, counts, anchors)])
        # split fan faces (x, u, w) as rows of the table
        fan = self.fan[_ranges(self.fan_start[anchors], self.fan_count[anchors])]
        owner = np.repeat(np.arange(len(anchors)), self.fan_count[anchors])
        x, u, w = fan.T
        center = n + len(self.midpoints) + starts[owner]

        def spoke(v):  # row of the projected midpoint of x and its rim vertex v
            return center + 1 + np.searchsorted(self.rim_keys, x * n + v) - self.rim_start[x]

        rows = np.column_stack([center, u, w, spoke(u), n + self._edge(u, w), spoke(w)])
        counts = self.covered_count[anchors]
        covered = self.target.vertices[self.covered[_ranges(self.covered_start[anchors], counts)]]
        tris = _triangles(table[rows[:, _FAN_SUBFACES]].reshape(-1, 3, 3))
        pairs = _pairs_in_groups(covered, counts, tris, 4 * self.fan_count[anchors])
        d2, _, _, _ = _closest_of_pairs(covered, *pairs, tris)
        owner = np.repeat(np.arange(len(anchors)), counts)
        return np.bincount(owner, weights=d2, minlength=len(anchors))


def _best_collapses(quadrics, positions, c, nb) -> dict:
    """Optimal collapse of every edge ``(c[i], nb[i])``, and the best per
    distinct ``c`` (minimal error, ties to the lexicographically smallest
    edge) as ``{c: (neighbor, point, edge quadric, error)}``."""
    qe = quadrics[c] + quadrics[nb]
    points, errors = _optimal_points(qe, positions[c], positions[nb])
    order = np.lexsort((np.maximum(c, nb), np.minimum(c, nb), errors, c))
    best = order[np.diff(c[order], prepend=-1) != 0]
    return {int(c[i]): (int(nb[i]), points[i], qe[i], errors[i]) for i in best}


def _best_collapse(work: _WorkingCopy, quadrics: np.ndarray, c: int, anchor_targets: set):
    """Minimal-error collapse of a working-copy edge at target vertex ``c``
    whose other end is not an anchor's correspondent, as ``(neighbor,
    point, edge quadric, error)``; ``None`` when there is no such edge."""
    nb = np.fromiter(work.neighbors_of(c) - anchor_targets, dtype=np.int64)
    return _best_collapses(quadrics, work.positions, np.full(len(nb), c), nb).get(c)


def _first_collapses(target: TriangleMesh, quadrics: np.ndarray, corr: np.ndarray) -> dict:
    """:func:`_best_collapse` on the untouched target of every correspondent
    in ``corr`` that has a candidate edge, keyed by the correspondent."""
    edges = unique_edges(target.faces, target.n_vertices)[0]
    held = np.zeros(target.n_vertices, dtype=bool)
    held[corr] = True
    edges = edges[held[edges[:, 0]] != held[edges[:, 1]]]
    flip = held[edges[:, 1]]
    edges[flip] = edges[flip, ::-1]  # correspondent first
    return _best_collapses(quadrics, target.vertices, edges[:, 0], edges[:, 1])


def _refine_with_diagnostics(coarse: AnchorMesh, target: TriangleMesh,
                             collapses_per_anchor: int = 1):
    """:func:`refine_anchor`, plus one ``(anchor, selected quadric error,
    that edge quadric at the anchor's coarse position)`` per kept move."""
    if coarse.stage != "coarse":
        raise ValueError(f"expected a coarse anchor, got stage {coarse.stage!r}")
    corr = coarse.correspondence
    if np.any(corr < 0) or np.any(corr >= target.n_vertices):
        raise ValueError("coarse anchor has invalid target correspondences")
    work = _WorkingCopy(target)
    quadrics = all_vertex_quadrics(target)
    anchor_targets = set(corr.tolist())
    order = traversal_order(coarse.mesh)
    judge = _MoveJudge(coarse, target)
    # Every anchor's first collapse is found up front, on the untouched
    # working copy, and judged in one batch with the anchor at its coarse
    # vertex. A kept collapse at c with neighbor nb changes the candidates of
    # c, nb and their neighbors only; an anchor whose correspondent is among
    # those is searched again in turn, and judged again only if its point
    # changed: the judge scores a point the same whatever the working copy.
    # An anchor without a first move never gets one, since a collapse only
    # ever replaces a non-correspondent by the correspondent that keeps it.
    first = _first_collapses(target, quadrics, corr)
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
    diagnostics = []  # (anchor index, selected error, edge error at the coarse position)
    for ai in order:
        c = int(corr[ai])
        for step in range(collapses_per_anchor):
            if step == 0 and c not in touched:
                move = first.get(c)
            else:
                move = _best_collapse(work, quadrics, c, anchor_targets)
            if move is None:
                break
            if step == 0 and c in first and np.array_equal(move[1], first[c][1]):
                error = first_error[ai]
            else:
                error = judge.errors([ai], [move[1]])[0]
            if not error < fine_errors[ai]:
                break
            nb, point, qe, err = move
            touched |= {c, nb} | work.neighbors_of(c) | work.neighbors_of(nb)
            at_coarse = max(float(_evaluate_raw(qe, coarse.mesh.vertices[ai])), 0.0)
            diagnostics.append((ai, err, at_coarse))
            work.collapse(c, nb, point)
            quadrics[c] = qe
            fine_positions[ai] = point
            fine_errors[ai] = error
            out_corr[ai] = OFF_VERTEX
    anchor = AnchorMesh(TriangleMesh(fine_positions, coarse.mesh.faces), out_corr, "fine")
    return anchor, diagnostics


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
    corner projected onto the target, every other anchor vertex at its
    coarse position (:class:`_MoveJudge`). The paper leaves the acceptance
    rule open; this one is the codec's own. Connectivity is untouched, and
    the result depends only on the arguments.
    """
    anchor, _ = _refine_with_diagnostics(coarse, target, collapses_per_anchor)
    return anchor
