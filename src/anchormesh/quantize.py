"""Adaptive displacement quantization.

The quantized value is round_half_away_from_zero(D * alpha * A + delta) per
component, where the weight A = max(N, 1) / hbar grows with the vertex's
neighbor count N: high-valence (detail-rich) regions get finer steps. The
zero-neighbor clamp keeps the map invertible for isolated vertices. Weights
are recomputed from connectivity at the decoder, never transmitted; both
directions apply this module's one weight rule. Displacements in and out
are (n, 3) float64 arrays; quantized values are (n, 3) int64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, unique_edges

DEFAULT_HBAR = 6.0  # typical interior valence


@dataclass(frozen=True)
class QuantizationParams:
    """Scale ``alpha``, offset ``delta`` and valence normalizer ``hbar``."""

    alpha: float
    delta: float = 0.0
    hbar: float = DEFAULT_HBAR

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.alpha, self.delta, self.hbar)):
            raise ValueError("alpha, delta and hbar must be finite")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if not self.hbar > 0:
            raise ValueError("hbar must be > 0")


@dataclass
class QuantizedDisplacementField:
    """Integer triples, one per vertex."""

    values: np.ndarray  # (n, 3) int64


def neighbor_counts(mesh: TriangleMesh) -> np.ndarray:
    """Number of distinct edge-connected neighbors per vertex, for any mesh.

    The codec takes a subdivided mesh's counts from
    :attr:`anchormesh.subdivide.SubdividedMesh.neighbor_counts`, which the
    subdivision builds from its own edges; this function is their oracle.
    """
    edges, _ = unique_edges(mesh.faces, mesh.n_vertices)
    return np.bincount(edges.ravel(), minlength=mesh.n_vertices).astype(np.int64)


def adaptive_weights(counts, hbar: float) -> np.ndarray:
    """Per-vertex weights A = max(N, 1) / hbar."""
    return np.maximum(np.asarray(counts, dtype=np.float64), 1.0) / hbar


def round_half_away_from_zero(x) -> np.ndarray:
    """Deterministic rounding: halves move away from zero on every platform."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, np.floor(x + 0.5), np.ceil(x - 0.5)).astype(np.int64)


def _weights(counts, n: int, hbar: float, adaptive: bool) -> np.ndarray:
    """:func:`adaptive_weights` of the ``n`` vertices' ``counts``, or 1s."""
    if len(counts) != n:
        raise ValueError("neighbor counts not aligned with displacement field")
    return adaptive_weights(counts, hbar) if adaptive else np.ones(n)


def quantize_field(field, counts, params: QuantizationParams,
                   adaptive: bool = True) -> QuantizedDisplacementField:
    """Quantize every component of the (n, 3) displacement ``field``.

    ``adaptive=False`` forces uniform weights A = 1 (the fixed-step ablation
    baseline); otherwise A = max(N, 1) / hbar per vertex. Raises
    ``ValueError`` unless every scaled value, so never NaN or inf, lies
    strictly inside ±2^63 and thus rounds to an int64.
    """
    weights = _weights(counts, len(field), params.hbar, adaptive)
    scaled = field * (params.alpha * weights)[:, None] + params.delta
    if not -2.0 ** 63 < scaled.min(initial=0.0) <= scaled.max(initial=0.0) < 2.0 ** 63:
        raise ValueError(f"quantized displacements must be finite and inside the int64 "
                         f"range: alpha {params.alpha:g}, delta {params.delta:g}")
    return QuantizedDisplacementField(round_half_away_from_zero(scaled))


def dequantize_field(values, counts, params: QuantizationParams,
                     adaptive: bool = True) -> np.ndarray:
    """Invert :func:`quantize_field` with the same arguments on its (n, 3)
    ``values``: D_hat = (D_q - delta) / (alpha * A)."""
    scale = params.alpha * _weights(counts, len(values), params.hbar, adaptive)
    if np.any(scale <= 0.0):
        raise ValueError("non-positive quantization scale; weights must be > 0")
    return (values - params.delta) / scale[:, None]
