"""Pair blocks bound memory and never change a result: the closest-point
search, the nearest-point index and the fine-stage judge give the same bits
at every block budget, and their traced peaks stay under fixed ceilings."""

import tracemalloc

import numpy as np
import pytest

import anchormesh as am
from anchormesh import (TriangleMesh, decimate_to_base, generate_coarse_anchor, grid, make_sphere,
                        octree, qem)
from helpers import brute_force_surface_points, random_mesh

# one query or anchor larger than the budget (1 and 7 pairs) forms its own
# block; 2^13 is the library's budget and 2^18 its former one
BUDGETS = (1, 7, 1 << 13, 1 << 18)


def _at_every_budget(monkeypatch, run):
    """``run()`` at every budget of ``BUDGETS``, set in ``grid``, the one
    module that holds it."""
    outs = []
    for pairs in BUDGETS:
        monkeypatch.setattr(grid, "_BLOCK_PAIRS", pairs)
        outs.append(run())
    return outs


def _bend_target(resolution=2, frames=1):
    spec = am.SequenceSpec(shape="sphere", resolution=resolution, frames=frames, motion="bend",
                           rate=0.1, region=0.4, topology_jitter=True, seed=4)
    return am.generate_sequence(spec)


def test_closest_points_do_not_depend_on_the_block_budget(monkeypatch):
    target = _bend_target()[0]
    rng = np.random.default_rng(83)
    near = target.vertices + rng.normal(scale=1e-3, size=target.vertices.shape)
    inside = rng.uniform(-0.3, 0.3, size=(40, 3))
    far = rng.normal(size=(20, 3)) * 5.0
    queries = np.vstack([near, inside, far])
    faces = grid.FaceGrid(target)
    cells = faces.cells
    home = cells.key(cells.cell_of(queries))
    empty = cells.starts[home + 1] == cells.starts[home]
    # queries whose own cell holds no face scan the whole grid
    assert empty[len(near):].sum() >= 40
    want = brute_force_surface_points(target, queries)
    for got in _at_every_budget(monkeypatch, lambda: faces.closest(queries)):
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_nearest_points_do_not_depend_on_the_block_budget(monkeypatch):
    target = _bend_target()[0]
    index = octree.build_octree(target.vertices, leaf_capacity=4)
    rng = np.random.default_rng(89)
    queries = np.vstack([target.vertices + rng.normal(scale=0.02, size=target.vertices.shape),
                         rng.uniform(-0.3, 0.3, size=(40, 3)),
                         rng.normal(size=(20, 3)) * 5.0])
    # a query whose 3 x 3 x 3 block of cells holds no point gathers the
    # whole grid: most of those inside the sphere
    bins = index.bins
    starts = bins.starts
    dx, dy = np.divmod(np.arange(9), 3)
    # the key of the bottom cell of each of the nine z-columns around a cell
    column = bins.key(bins.cell_of(queries))[:, None] + (
        (dx - 1) * bins.strides[0] + (dy - 1) * bins.strides[1] - 1)
    assert np.sum((starts[column + 3] - starts[column]).sum(axis=1) == 0) >= 40
    outs = _at_every_budget(monkeypatch, lambda: octree.nearest(index, queries))
    for got in outs[:-1]:
        assert np.array_equal(got[0], outs[-1][0])
        assert np.array_equal(got[1], outs[-1][1])
    brute = ((queries[:, None, :] - target.vertices[None]) ** 2).sum(axis=2)
    assert np.array_equal(outs[-1][0], brute.argmin(axis=1))


def _judge_pairs():
    """A dense bend base, two of whose anchors have faces but cover no
    target vertex, and a random base with an isolated vertex appended, an
    anchor without faces."""
    reference, target = _bend_target(frames=2)
    random_base = random_mesh(np.random.default_rng(61), n_vertices=12, n_faces=16, scale=0.8)
    isolated = TriangleMesh(np.vstack([random_base.vertices, [[0.1, 0.2, 0.3]]]),
                            random_base.faces)
    return [(decimate_to_base(reference, 120), target), (isolated, make_sphere(2))]


@pytest.mark.parametrize("pair", [0, 1], ids=["bend", "isolated-vertex"])
def test_judge_errors_do_not_depend_on_the_block_budget(monkeypatch, pair):
    base, target = _judge_pairs()[pair]
    coarse, _ = generate_coarse_anchor(base, target)
    judge = qem._MoveJudge(coarse, target)
    n = coarse.mesh.n_vertices
    anchors = np.r_[np.arange(n), np.arange(n)]
    moved = coarse.mesh.vertices + np.random.default_rng(5).normal(0, 0.05, (n, 3))
    points = np.vstack([coarse.mesh.vertices, moved])
    # fused as refinement batches them: the coarse half at its coarse vertices
    outs = _at_every_budget(monkeypatch, lambda: judge.errors(anchors, points))
    for got in outs[:-1]:
        assert np.array_equal(got, outs[-1])
    cost = judge.covered_count * 4 * judge.fan_count
    assert cost.max() > 7 and np.any(judge.covered_count == 0) and np.any(outs[-1] > 0.0)


def _traced_peak(run):
    """Peak of the memory traced while ``run()`` runs, in MiB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_closest_points_memory_is_bounded_per_block():
    # 51k queries next to a 20k-face sphere: with pairs in budget-sized
    # blocks the peak is the per-query arrays plus one block (19.7 MiB),
    # where holding every pair at once took 100 MiB
    sphere = make_sphere(5)
    rng = np.random.default_rng(1)
    queries = np.repeat(sphere.vertices, 5, axis=0)
    queries += rng.normal(scale=0.01, size=queries.shape)
    assert len(queries) >= 40_000
    assert _traced_peak(lambda: am.closest_points_on_surface(sphere, queries)) < 25.0


def test_refine_memory_is_bounded_per_block():
    # a level-4 bend pair (target 2,946 vertices, base 736): the fine stage
    # peaks at 10.2 MiB with pairs in budget-sized blocks, 43.9 MiB with
    # every pair of a judge batch held at once
    reference, target = _bend_target(resolution=4, frames=2)
    base = decimate_to_base(reference, round(0.25 * reference.n_vertices))
    coarse, _ = generate_coarse_anchor(base, target)
    assert _traced_peak(lambda: am.refine_anchor(coarse, target)) < 15.0
