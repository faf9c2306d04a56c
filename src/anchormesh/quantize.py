"""Adaptive displacement quantization.

The quantized value is round_half_away_from_zero(D * alpha * A + delta) per
component, where the weight A = max(N, 1) / hbar grows with the vertex's
neighbor count N: high-valence (detail-rich) regions get finer steps. The
zero-neighbor clamp keeps the map invertible for isolated vertices. Weights
are recomputed from connectivity at the decoder, never transmitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, unique_edges
from .subdivide import DisplacementField

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
    """Integer triples plus the parameters and weights that produced them."""

    values: np.ndarray  # (n, 3) int64
    params: QuantizationParams
    weights: np.ndarray  # (n,) float64
    level: int


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


def quantize_field(field: DisplacementField, counts, params: QuantizationParams,
                   adaptive: bool = True) -> QuantizedDisplacementField:
    """Quantize every displacement component.

    ``adaptive=False`` forces uniform weights A = 1 (the fixed-step ablation
    baseline); otherwise A = max(N, 1) / hbar per vertex.
    """
    counts = np.asarray(counts)
    if len(counts) != len(field.vectors):
        raise ValueError("neighbor counts not aligned with displacement field")
    if adaptive:
        weights = adaptive_weights(counts, params.hbar)
    else:
        weights = np.ones(len(counts))
    scaled = field.vectors * (params.alpha * weights)[:, None] + params.delta
    return QuantizedDisplacementField(round_half_away_from_zero(scaled), params,
                                      weights, field.level)


def dequantize_field(q: QuantizedDisplacementField) -> DisplacementField:
    """Invert the affine map: D_hat = (D_q - delta) / (alpha * A)."""
    scale = q.params.alpha * q.weights
    if np.any(scale <= 0.0):
        raise ValueError("non-positive quantization scale; weights must be > 0")
    vectors = (q.values - q.params.delta) / scale[:, None]
    return DisplacementField(vectors, q.level)
