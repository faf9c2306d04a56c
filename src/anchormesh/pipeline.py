"""Encode/decode orchestration for one frame pair.

The encoder chains anchor generation, subdivision, displacement extraction
and quantization; the decoder reverses it from the payload plus the shared
reference base mesh. Both sides are deterministic, so identical inputs give
byte-identical payloads and reconstructions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .coarse import AnchorMesh, generate_coarse_anchor
from .config import CodecConfig
from .mesh import MeshValidationError, TriangleMesh
from .octree import build_octree
from .payload import Payload, PayloadFormatError, BaseHashMismatchError, mesh_content_hash
from .qem import refine_anchor
from .quantize import QuantizationParams, dequantize_field, quantize_field
from .quantize import neighbor_counts  # noqa: F401 -- codecbench's spans patch this name here
from .subdivide import (SubdividedMesh, apply_displacements, base_plan, compute_displacements,
                        edge_table, held_plan, midpoint_subdivide, subdivided_vertex_count)


# The CodecConfig fields that only quantization reads. Two configs equal in
# every other field fit the same anchor, subdivision and displacements.
QUANTIZATION_FIELDS = ("alpha", "delta", "hbar", "adaptive_quant")
_ANCHOR_FIELDS = attrgetter(*(field.name for field in fields(CodecConfig)
                              if field.name not in QUANTIZATION_FIELDS))


def anchor_settings(config: CodecConfig) -> tuple:
    """The values of every ``CodecConfig`` field outside
    ``QUANTIZATION_FIELDS``, in field order: equal for two configs exactly
    when one encode's fit serves the other, and hashable."""
    return _ANCHOR_FIELDS(config)


@dataclass
class EncodeResult:
    """One encode's payload and the stages' outputs: ``field`` holds the
    (n, 3) float64 displacements from the ``subdivided`` mesh's vertices to
    the target surface."""

    payload: Payload
    anchor: AnchorMesh
    subdivided: SubdividedMesh
    field: np.ndarray
    stats: dict
    config: CodecConfig
    target: TriangleMesh


def encode_pair(base: TriangleMesh, target: TriangleMesh,
                config: CodecConfig = CodecConfig(),
                reuse: EncodeResult | None = None) -> EncodeResult:
    """Encode ``target`` against the reference base mesh ``base``.

    ``reuse`` is an earlier result of this ``base`` and this ``target``
    object whose config differs from ``config`` at most in
    ``QUANTIZATION_FIELDS``. Its anchor, subdivision and displacement field
    are then quantized with ``config`` instead of being fitted again, and the
    payload is bitwise that of a fresh encode; the stats time the skipped
    stages as 0. Any other config difference, another base (by content hash)
    or another target object raises ``ValueError``.
    """
    base_hash = mesh_content_hash(base)
    if reuse is None:
        stats = {}
        anchor, sub, field = _fit(base, target, config, stats)
    else:
        if anchor_settings(reuse.config) != anchor_settings(config):
            raise ValueError("reuse was encoded with other anchor settings")
        if reuse.payload.base_hash != base_hash:
            raise ValueError("reuse was encoded against a different base mesh")
        if reuse.target is not target:
            raise ValueError("reuse was encoded for another target object")
        stats = {"octree_s": 0.0, "coarse_s": 0.0, "fine_s": 0.0, "displace_s": 0.0}
        anchor, sub, field = reuse.anchor, reuse.subdivided, reuse.field

    t0 = time.perf_counter()
    params = QuantizationParams(config.alpha, config.delta, config.hbar)
    quantized = quantize_field(field, sub.neighbor_counts, params,
                               adaptive=config.adaptive_quant)
    stats["quantize_s"] = time.perf_counter() - t0

    payload = Payload(
        base_hash=base_hash,
        anchor_positions=anchor.mesh.vertices,
        level=config.level,
        params=params,
        adaptive=config.adaptive_quant,
        quantized=quantized.values,
    )
    stats["anchor_vertices"] = base.n_vertices
    stats["subdivided_vertices"] = sub.mesh.n_vertices
    return EncodeResult(payload, anchor, sub, field, stats, config, target)


def _fit(base: TriangleMesh, target: TriangleMesh, config: CodecConfig, stats: dict):
    """Anchor, subdivision and displacement field of ``target`` against
    ``base``: every encode stage before quantization, timed into ``stats``."""
    t0 = time.perf_counter()
    index = build_octree(target.vertices, config.leaf_capacity, config.max_depth)
    stats["octree_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    coarse, _ = generate_coarse_anchor(base, target, index,
                                       motion_estimation=config.motion_estimation)
    stats["coarse_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    anchor = refine_anchor(coarse, target, config.collapses_per_anchor) \
        if config.qem_refine else coarse
    stats["fine_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # the anchor has the base's faces, so the base's plan splits it and
    # serves every decode against this base object after it
    sub = midpoint_subdivide(anchor.mesh, config.level, plan=base_plan(base, config.level))
    field = compute_displacements(sub, target)
    stats["displace_s"] = time.perf_counter() - t0
    return anchor, sub, field


def decode_payload(payload: Payload, base: TriangleMesh) -> TriangleMesh:
    """Reconstruct the coded frame from a payload and its base mesh."""
    if payload.base_hash != mesh_content_hash(base):
        raise BaseHashMismatchError("payload was encoded against a different base mesh")
    if len(payload.anchor_positions) != base.n_vertices:
        raise PayloadFormatError("anchor vertex count does not match the base mesh")
    try:
        anchor = TriangleMesh(payload.anchor_positions, base.faces)
    except MeshValidationError as exc:  # an anchor coordinate NaN or beyond the mesh range
        raise PayloadFormatError(f"bad anchor positions: {exc}") from exc
    # the stream length is checked before any plan is built: a held plan
    # knows its vertex count, else the base's one edge sort counts it and
    # then serves the plan
    plan = held_plan(base, payload.level)
    if plan is None:
        table = edge_table(base.faces, base.n_vertices)
        expected = subdivided_vertex_count(base, payload.level, split=table)
    else:
        expected = plan.n_vertices
    if len(payload.quantized) != expected:
        raise PayloadFormatError(
            f"displacement stream holds {len(payload.quantized)} triples, "
            f"expected {expected} for subdivision level {payload.level}"
        )
    if plan is None:
        plan = base_plan(base, payload.level, split=table)
    sub = midpoint_subdivide(anchor, payload.level, plan=plan)
    try:
        with np.errstate(over="ignore"):
            field = dequantize_field(payload.quantized, sub.neighbor_counts, payload.params,
                                     payload.adaptive)
            return apply_displacements(sub, field)
    except ValueError as exc:  # alpha * weight underflowed to zero
        raise PayloadFormatError(f"bad quantization params: {exc}") from exc
    except MeshValidationError as exc:  # a displaced coordinate left the mesh range
        raise PayloadFormatError(f"quantization params overflow the reconstruction: {exc}") \
            from exc
