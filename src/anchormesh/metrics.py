"""Geometry distortion (D1 point-to-point, D2 point-to-plane PSNR) and
Bjontegaard delta rate between rate-distortion curves.

Distortion is evaluated symmetrically with mesh vertices as samples: each
direction measures squared distances from one mesh's vertices to the other
mesh's surface, D2 projects the residual onto the closest face's unit
normal, and the final MSE is the max over the two directions. PSNR uses the
reference bounding-box diagonal as peak; an exact-zero MSE is reported as
the +inf sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import closest_points_on_surface
from .mesh import MeshValidationError, TriangleMesh, face_normals


@dataclass(frozen=True)
class DistortionReport:
    d1_psnr: float
    d2_psnr: float
    mse_d1: float
    mse_d2: float
    peak: float


@dataclass(frozen=True)
class RDCurve:
    """Rate-distortion points as (bits, psnr), strictly increasing in bits."""

    points: tuple

    def __post_init__(self):
        pts = tuple((float(b), float(p)) for b, p in self.points)
        for bits, _ in pts:
            if not bits > 0:
                raise ValueError("curve bits must be > 0")
        for (b0, _), (b1, _) in zip(pts, pts[1:]):
            if not b1 > b0:
                raise ValueError("curve bits must be strictly increasing")
        object.__setattr__(self, "points", pts)


def _unit_normals(mesh: TriangleMesh):
    """Per-face unit normals plus a mask of sliver faces."""
    n, norms, sliver = face_normals(mesh)
    return n / np.where(sliver, 1.0, norms)[:, None], sliver


def _directional_errors(samples: TriangleMesh, surface: TriangleMesh):
    """Per-sample squared point (D1) and plane-projected (D2) errors from the
    vertices of ``samples`` to the surface of ``surface``."""
    positions, faces, _, d2_point = closest_points_on_surface(surface, samples.vertices)
    residual = positions - samples.vertices
    normals, degenerate = _unit_normals(surface)
    proj = (residual * normals[faces]).sum(axis=1)
    d2_plane = proj * proj
    # no usable normal on sliver faces: fall back to the full point error
    d2_plane = np.where(degenerate[faces], d2_point, d2_plane)
    return d2_point, d2_plane


def _psnr(peak: float, mse: float) -> float:
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def distortion(reference: TriangleMesh, test: TriangleMesh) -> DistortionReport:
    """Symmetric D1/D2 distortion of ``test`` against ``reference``.

    Peak is the reference's axis-aligned bounding-box diagonal. Raises when
    either mesh has no vertices or no faces.
    """
    for name, m in (("reference", reference), ("test", test)):
        if m.n_vertices == 0 or m.n_faces == 0:
            raise MeshValidationError(f"{name} mesh must have vertices and faces")
    fwd_point, fwd_plane = _directional_errors(reference, test)
    bwd_point, bwd_plane = _directional_errors(test, reference)
    mse_d1 = max(float(fwd_point.mean()), float(bwd_point.mean()))
    mse_d2 = max(float(fwd_plane.mean()), float(bwd_plane.mean()))
    extent = reference.vertices.max(axis=0) - reference.vertices.min(axis=0)
    peak = float(np.linalg.norm(extent))
    return DistortionReport(
        d1_psnr=_psnr(peak, mse_d1),
        d2_psnr=_psnr(peak, mse_d2),
        mse_d1=mse_d1,
        mse_d2=mse_d2,
        peak=peak,
    )


def _fit_log_rate(curve: RDCurve):
    """Cubic fit of log10(bits) as a function of PSNR, ignoring +inf points."""
    pts = [(b, p) for b, p in curve.points if math.isfinite(p)]
    if len(pts) < 4:
        raise ValueError("BD-rate needs >= 4 finite-PSNR points per curve")
    bits = np.array([b for b, _ in pts])
    psnr = np.array([p for _, p in pts])
    poly = np.polynomial.Polynomial.fit(psnr, np.log10(bits), deg=3)
    return poly, float(psnr.min()), float(psnr.max())


def bd_rate(anchor_curve: RDCurve, test_curve: RDCurve) -> float:
    """Average percentage bitrate difference of ``test`` vs ``anchor`` at
    equal quality (negative means the test curve saves bits).

    Classic computation: cubic fits of log10(bits) over PSNR per curve,
    integrated over the common PSNR interval.
    """
    fit_a, lo_a, hi_a = _fit_log_rate(anchor_curve)
    fit_t, lo_t, hi_t = _fit_log_rate(test_curve)
    lo = max(lo_a, lo_t)
    hi = min(hi_a, hi_t)
    if not hi > lo:
        raise ValueError("curves have no overlapping PSNR range")
    int_a = fit_a.integ()
    int_t = fit_t.integ()
    avg_diff = ((int_t(hi) - int_t(lo)) - (int_a(hi) - int_a(lo))) / (hi - lo)
    return (10.0 ** avg_diff - 1.0) * 100.0
