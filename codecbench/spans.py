"""Spans and operation clocks recorded from outside the anchormesh library.

Both work the same way: they replace a public layer function at every module
attribute its callers look it up in (the pipeline, the CLI, the layer's own
module, which this benchmark calls through) with a wrapper, and put the
original back when the ``installed()`` block exits. No file of the library
changes.

A ``Tracer`` records one span per call: name, start, end, parent span, the
pair (operation) id current when it opened, the run phase, and a few counters
computed from the function's public return value. An ``OpClock`` only reads
the clock around the five calls one sweep job makes, so the sweep's
encode/decode/eval latencies can be measured without tracing.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np


def degenerate_faces(mesh) -> int:
    """Faces whose area is at or below the library's sliver threshold."""
    from anchormesh.mesh import DEGENERATE_AREA

    v = mesh.vertices
    f = mesh.faces
    n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    return int(np.count_nonzero(0.5 * np.linalg.norm(n, axis=1) <= DEGENERATE_AREA))


def anchor_counts(anchor) -> dict:
    """Duplicate correspondences, off-vertex anchors and degenerate faces."""
    corr = anchor.correspondence
    on_vertex = corr[corr >= 0]
    return {
        "vertices": int(len(corr)),
        "duplicates": int(len(on_vertex) - len(np.unique(on_vertex))),
        "off_vertex": int(len(corr) - len(on_vertex)),
        "degenerate_faces": degenerate_faces(anchor.mesh),
    }


# (span name, "module.attribute" sites, counter hook on the return value).
# A site is listed wherever a caller resolves the name at call time: the
# pipeline and CLI import layer functions into their own namespaces.
LAYER_CALLS = (
    ("synth.generate", ("synth.generate_sequence",), None),
    ("synth.decimate", ("synth.decimate_to_base", "cli.decimate_to_base"), None),
    ("octree.build", ("pipeline.build_octree", "octree.build_octree"), None),
    ("coarse.match", ("pipeline.generate_coarse_anchor", "coarse.generate_coarse_anchor"),
     lambda out: anchor_counts(out[0])),
    ("qem.refine", ("pipeline.refine_anchor", "qem.refine_anchor"), anchor_counts),
    ("subdivide.subdivide", ("pipeline.midpoint_subdivide", "subdivide.midpoint_subdivide"),
     None),
    ("subdivide.displace", ("pipeline.compute_displacements",
                            "subdivide.compute_displacements"), None),
    ("subdivide.apply", ("pipeline.apply_displacements", "subdivide.apply_displacements"),
     None),
    ("mesh.closest", ("subdivide.closest_points_on_surface",
                      "metrics.closest_points_on_surface"),
     lambda out: {"queries": int(len(out[0]))}),
    ("mesh.load", ("cli.load_mesh",), None),
    ("mesh.save", ("cli.save_mesh",), None),
    ("quantize.counts", ("pipeline.neighbor_counts", "quantize.neighbor_counts"), None),
    ("quantize.quantize", ("pipeline.quantize_field", "quantize.quantize_field"), None),
    ("quantize.dequantize", ("pipeline.dequantize_field", "quantize.dequantize_field"), None),
    ("payload.hash", ("pipeline.mesh_content_hash", "payload.mesh_content_hash"), None),
    ("payload.write", ("payload.write_payload", "cli.write_payload"),
     lambda out: {"bytes": len(out)}),
    ("payload.read", ("payload.read_payload", "cli.read_payload"), None),
    ("pipeline.encode_pair", ("pipeline.encode_pair", "cli.encode_pair"), None),
    ("pipeline.decode_payload", ("pipeline.decode_payload", "cli.decode_payload"), None),
    ("metrics.distortion", ("metrics.distortion", "cli.distortion"), None),
    ("metrics.bd_rate", ("metrics.bd_rate", "cli.bd_rate"), None),
    ("cli.sweep", ("cli.main",), None),
)


def _resolve(site: str):
    module_name, attr = site.rsplit(".", 1)
    return importlib.import_module("anchormesh." + module_name), attr


@contextmanager
def patched(replacements):
    """Set ``module.attr = make(original)`` for each ``(site, make)`` pair and
    restore every original on exit, last patched first."""
    saved = []
    try:
        for site, make in replacements:
            module, attr = _resolve(site)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self, ledger):
        self.ledger = ledger  # supplies the current pair id
        self.phase = "setup"
        self.spans = []
        self._open = []

    def _enter(self, name: str) -> dict:
        span = {"name": name, "parent": self._open[-1] if self._open else None,
                "pair": self.ledger.pair, "phase": self.phase}
        self._open.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if hook is not None:
                span["counts"] = hook(out)
            return out
        return traced

    def installed(self):
        return patched([(site, lambda fn, name=name, hook=hook: self.wrap(name, fn, hook))
                        for name, sites, hook in LAYER_CALLS for site in sites])


class OpClock:
    """Encode/decode/eval latencies of the jobs the sweep command runs.

    One job calls encode_pair, write_payload, read_payload, decode_payload and
    distortion in that order, so an encode sample is encode_pair plus
    write_payload and a decode sample is read_payload plus decode_payload, as
    in the other workloads.
    """

    STEPS = (
        ("cli.encode_pair", "encode", False),
        ("cli.write_payload", "encode", True),
        ("cli.read_payload", "decode", False),
        ("cli.decode_payload", "decode", True),
        ("cli.distortion", "eval", True),
    )

    def __init__(self, ledger):
        self.ledger = ledger
        self._carry = 0.0

    def _timed(self, fn, kind: str, closes: bool):
        def timed(*args, **kwargs):
            self.ledger.attempted += closes
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start + self._carry
            if closes:
                self.ledger.sample(kind, elapsed)
                self._carry = 0.0
            else:
                self._carry = elapsed
            return out
        return timed

    def installed(self):
        return patched([(site, lambda fn, kind=kind, closes=closes:
                         self._timed(fn, kind, closes))
                        for site, kind, closes in self.STEPS])


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]
