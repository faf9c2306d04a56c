import numpy as np
import pytest

from anchormesh import (
    QuantizationParams,
    TriangleMesh,
    dequantize_field,
    make_sphere,
    neighbor_counts,
    quantize_field,
    round_half_away_from_zero,
)
from anchormesh.quantize import adaptive_weights
from helpers import icosahedron


def _field(vectors):
    return np.asarray(vectors, dtype=float).reshape(-1, 3)


def test_params_validation():
    with pytest.raises(ValueError):
        QuantizationParams(alpha=0.0)
    with pytest.raises(ValueError):
        QuantizationParams(alpha=1.0, hbar=0.0)
    for bad in ({"alpha": np.inf}, {"alpha": np.nan}, {"alpha": 1.0, "delta": np.nan},
                {"alpha": 1.0, "delta": -np.inf}, {"alpha": 1.0, "hbar": np.inf}):
        with pytest.raises(ValueError):
            QuantizationParams(**bad)


def test_neighbor_counts_triangle():
    m = TriangleMesh(np.eye(3), [[0, 1, 2]])
    assert neighbor_counts(m).tolist() == [2, 2, 2]


def test_neighbor_counts_isolated_vertex():
    m = TriangleMesh(np.eye(4, 3), [[0, 1, 2]])
    assert neighbor_counts(m).tolist() == [2, 2, 2, 0]


def test_neighbor_counts_icosahedron():
    counts = neighbor_counts(icosahedron())
    # oracle: brute force over the face list
    expected = [set() for _ in range(12)]
    for a, b, c in icosahedron().faces.tolist():
        expected[a].update((b, c))
        expected[b].update((a, c))
        expected[c].update((a, b))
    assert counts.tolist() == [len(s) for s in expected]
    assert np.all(counts == 5)


def test_rounding_half_away_from_zero():
    x = np.array([0.5, 1.5, -0.5, -1.5, 0.49, -0.49, 2.5])
    assert round_half_away_from_zero(x).tolist() == [1, 2, -1, -2, 0, 0, 3]


def test_quantize_zero_field():
    q = quantize_field(_field([[0, 0, 0]]), [4], QuantizationParams(2.0))
    assert np.all(q.values == 0)


def test_quantize_direct_example():
    # D=(1,1,1), alpha=2, N=4, hbar=4, delta=0 -> A=1, values (2,2,2)
    params = QuantizationParams(alpha=2.0, delta=0.0, hbar=4.0)
    q = quantize_field(_field([[1, 1, 1]]), [4], params)
    assert q.values.tolist() == [[2, 2, 2]]
    assert adaptive_weights([4], params.hbar).tolist() == [1.0]
    # and the roundtrip is exact because the scaled product is integral
    back = dequantize_field(q.values, [4], params)
    assert back.tolist() == [[1.0, 1.0, 1.0]]


def test_quantize_zero_neighbor_clamp():
    params = QuantizationParams(alpha=2.0, hbar=4.0)
    q = quantize_field(_field([[1, 1, 1]]), [0], params)
    assert adaptive_weights([0], params.hbar).tolist() == [0.25]  # max(N,1)/hbar = 1/4
    assert q.values.tolist() == [[1, 1, 1]]  # 1 * 2 * 1/4 rounds away from zero
    back = dequantize_field(q.values, [0], params)
    assert np.all(np.isfinite(back))


def test_quantize_requires_aligned_counts():
    with pytest.raises(ValueError):
        quantize_field(_field([[1, 1, 1]]), [1, 2], QuantizationParams(1.0))


def test_nonadaptive_mode_uses_unit_weights():
    params = QuantizationParams(alpha=2.0, hbar=4.0)
    q = quantize_field(_field([[1, 1, 1]]), [8], params, adaptive=False)
    assert q.values.tolist() == [[2, 2, 2]]  # alpha * A = 2 * 1, not 2 * 8 / 4


def test_roundtrip_error_bound():
    rng = np.random.default_rng(97)
    n = 100_000 // 3 + 1
    vectors = rng.uniform(-10, 10, size=(n, 3))
    counts = rng.integers(0, 12, size=n)
    params = QuantizationParams(alpha=3.0, delta=0.5, hbar=6.0)
    q = quantize_field(vectors, counts, params)
    back = dequantize_field(q.values, counts, params)
    weights = adaptive_weights(counts, params.hbar)
    bound = 1.0 / (2.0 * params.alpha * weights)[:, None] + 1e-12
    assert np.all(np.abs(vectors - back) <= bound)


def test_doubling_valence_halves_worst_case_error():
    rng = np.random.default_rng(101)
    n = 100_000
    params = QuantizationParams(alpha=4.0, delta=0.0, hbar=4.0)

    def worst(valence):
        vectors = rng.uniform(-5, 5, size=(n, 3))
        counts = np.full(n, valence)
        q = quantize_field(vectors, counts, params)
        back = dequantize_field(q.values, counts, params)
        return np.abs(vectors - back).max()

    w1 = worst(3)
    w2 = worst(6)
    assert abs(w2 / (w1 / 2.0) - 1.0) <= 0.01


def test_quantize_pipeline_weights_match_subdivided_connectivity():
    mesh = make_sphere(1)
    counts = neighbor_counts(mesh)
    params = QuantizationParams(alpha=2.0, hbar=6.0)
    q = quantize_field(_field(np.ones((mesh.n_vertices, 3))), counts, params)
    weights = adaptive_weights(counts, params.hbar)
    assert np.allclose(weights, np.maximum(counts, 1) / 6.0)
    want = round_half_away_from_zero(params.alpha * weights)
    assert np.array_equal(q.values, np.repeat(want[:, None], 3, axis=1))


def test_dequantize_applies_the_quantizer_weights():
    # one weight rule in both directions: adaptive or uniform, each mode maps
    # back exactly, and the other mode's weights would not
    params = QuantizationParams(alpha=2.0, hbar=4.0)  # A = 8 / 4 = 2 when adaptive
    for adaptive, value in ((True, 4), (False, 2)):
        q = quantize_field(_field([[1, 1, 1]]), [8], params, adaptive=adaptive)
        assert q.values.tolist() == [[value] * 3]
        assert dequantize_field(q.values, [8], params, adaptive=adaptive).tolist() == [[1.0] * 3]
        assert dequantize_field(q.values, [8], params, adaptive=not adaptive).tolist() != [[1.0] * 3]
    with pytest.raises(ValueError):
        dequantize_field(q.values, [1, 2], params)


def test_quantize_rejects_values_outside_int64():
    # the largest double below 2^63 rounds to an int64; 2^63 itself, larger
    # values of either sign, NaN and inf raise instead of wrapping around
    params = QuantizationParams(alpha=1.0)
    below = np.nextafter(2.0 ** 63, 0.0)
    q = quantize_field(_field([[below, -below, 0.0]]), [6], params, adaptive=False)
    assert q.values.tolist() == [[int(below), -int(below), 0]]
    for bad in (2.0 ** 63, -2.0 ** 63, 1e300, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="int64"):
            quantize_field(_field([[0.0, bad, 0.0]]), [6], params, adaptive=False)
    # a large offset or scale overflows the same way
    with pytest.raises(ValueError, match="int64"):
        quantize_field(_field([[0.0, 0.0, 0.0]]), [6], QuantizationParams(1.0, delta=1e19))
    with pytest.raises(ValueError, match="int64"):
        quantize_field(_field([[0.117, 0.0, 0.0]]), [6], QuantizationParams(1e21))
