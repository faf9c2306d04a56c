"""The benchmark's workloads, their setup, timed passes and output checks.

Every input is a synthetic jittered, bending sphere sequence made from the
run's seed; the library only ever sees the generated meshes. Each workload:

- ``setup()`` builds its inputs (repeated by the runner to time set-up);
- ``run_pass(i)`` runs one timed pass and returns ``(pin id, pin)`` pairs;
- ``verify(pins)`` checks the outputs, returns the quality figures and the
  final pin list.

Operations and checks are recorded in a shared ``Ledger``.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import time
import traceback

import numpy as np

from anchormesh import cli, coarse, metrics, octree, payload, pipeline, qem, quantize
from anchormesh import subdivide, synth
from anchormesh.config import CodecConfig
from anchormesh.mesh import save_mesh

from spans import OpClock

DEFAULTS = CodecConfig()
# Bend about a y-axis hinge, as in the fine-stage regression test; the seed
# drives the per-frame topology jitter, which changes vertex and face lists.
SEQUENCE = dict(shape="sphere", motion="bend", rate=0.1, region=0.4, topology_jitter=True)


class Ledger:
    """Operations attempted and failed, per-operation latencies, checks."""

    def __init__(self):
        # operation kind -> seconds; samples taken while traced are kept apart
        self.samples = collections.defaultdict(list)
        self.traced_samples = collections.defaultdict(list)
        self.traced = False
        self.attempted = 0
        self.errors = []
        self.checks = []
        self.pair = None

    def op(self, kind: str, fn, *args):
        """Run and time one operation; a raised exception counts as a failure
        and returns None so the run goes on."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.errors.append({"op": kind, "pair": self.pair,
                                "error": traceback.format_exc()})
            return None
        self.sample(kind, time.perf_counter() - start)
        return out

    def sample(self, kind: str, seconds: float) -> None:
        (self.traced_samples if self.traced else self.samples)[kind].append(seconds)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.errors) + sum(not c["ok"] for c in self.checks)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def vertex_sha(mesh) -> str:
    return sha256(np.ascontiguousarray(mesh.vertices).tobytes())


def make_sequence(resolution: int, frames: int, seed: int) -> list:
    spec = synth.SequenceSpec(resolution=resolution, frames=frames, seed=seed, **SEQUENCE)
    return synth.generate_sequence(spec)


def make_base(frame, fraction: float = DEFAULTS.base_fraction):
    """Decimated base mesh, sized as ``cmd_sweep`` sizes its bases."""
    return synth.decimate_to_base(frame, max(4, round(fraction * frame.n_vertices)))


def encode(base, target, config):
    result = pipeline.encode_pair(base, target, config)
    return result, payload.write_payload(result.payload)


def decode(data: bytes, base):
    return pipeline.decode_payload(payload.read_payload(data, base.n_vertices), base)


def check_roundtrip(ledger: Ledger, name: str, in_memory, data: bytes, base) -> bool:
    """Decoding the written-then-read bytes must give exactly the vertices that
    ``decode_payload`` gives on the in-memory ``Payload``."""
    expected = pipeline.decode_payload(in_memory, base)
    try:
        got = decode(data, base)
    except Exception as exc:  # any failure to decode is what this check detects
        return ledger.check(name, False, f"{type(exc).__name__}: {exc}")
    same = (np.array_equal(got.vertices, expected.vertices)
            and np.array_equal(got.faces, expected.faces))
    return ledger.check(name, same, "" if same else "decoded vertices differ")


def check_layers_compose(ledger: Ledger, name: str, base, target, config, result,
                         data: bytes):
    """Run the encoder's layers one at a time on the pair's own data and
    require encode_pair's refined anchor, subdivision and payload bytes.

    ``EncodeResult`` carries no coarse anchor, so it comes from a fresh
    ``generate_coarse_anchor`` call; the displacement field is taken from the
    result.
    """
    index = octree.build_octree(target.vertices, config.leaf_capacity, config.max_depth)
    coarse_anchor, _ = coarse.generate_coarse_anchor(
        base, target, index, motion_estimation=config.motion_estimation)
    anchor = (qem.refine_anchor(coarse_anchor, target, config.collapses_per_anchor)
              if config.qem_refine else coarse_anchor)
    sub = subdivide.midpoint_subdivide(anchor.mesh, config.level)
    counts = quantize.neighbor_counts(sub.mesh)
    params = quantize.QuantizationParams(config.alpha, config.delta, config.hbar)
    q = quantize.quantize_field(result.field, counts, params, adaptive=config.adaptive_quant)
    rebuilt = payload.write_payload(payload.Payload(
        payload.mesh_content_hash(base), anchor.mesh.vertices, config.level, params,
        config.adaptive_quant, q.values))
    mismatched = [what for what, same in (
        ("anchor", np.array_equal(anchor.mesh.vertices, result.anchor.mesh.vertices)),
        ("subdivision", np.array_equal(sub.mesh.vertices, result.subdivided.mesh.vertices)),
        ("payload", rebuilt == data),
    ) if not same]
    ledger.check(name, not mismatched, ", ".join(mismatched))


def rung_quantization(result, config, ladder=DEFAULTS.alpha_ladder) -> dict:
    """Zero fraction and max |q| of the pair's displacement field re-quantized
    at each alpha of the ladder, with the pair's own weights."""
    counts = quantize.neighbor_counts(result.subdivided.mesh)
    out = {}
    for alpha in ladder:
        params = quantize.QuantizationParams(alpha, config.delta, config.hbar)
        values = quantize.quantize_field(result.field, counts, params,
                                         adaptive=config.adaptive_quant).values
        out[f"a{alpha:g}"] = {"zero_frac": float(np.mean(values == 0)),
                              "max_abs": int(np.abs(values).max())}
    return out


def _mean(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return float(statistics.fmean(finite)) if finite else 0.0


DECODE_REPEATS = 5


class PairRoundtrip:
    """encode_pair -> write_payload -> read_payload -> decode_payload ->
    distortion for every frame pair, default config. Each pair's base is
    decimated from the pair's reference frame, so no two pairs share a base.
    """

    name = "pair-roundtrip"

    def __init__(self, seed: int, smoke: bool, ledger: Ledger, workdir: str):
        self.seed = seed
        self.ledger = ledger
        self.resolution, self.frames = (1, 3) if smoke else (3, 4)
        self.config = DEFAULTS.override(level=1) if smoke else DEFAULTS
        self.kept = {}  # pair -> (Payload, bytes) from the first pass that coded it

    def setup(self) -> None:
        frames = make_sequence(self.resolution, self.frames, self.seed)
        self.pairs = [(make_base(frames[i]), frames[i + 1]) for i in range(len(frames) - 1)]

    def run_pass(self, index: int) -> list:
        """One pair's round trip; passes cycle through the pairs."""
        i = index % len(self.pairs)
        base, target = self.pairs[i]
        self.ledger.pair = i
        encoded = self.ledger.op("encode", encode, base, target, self.config)
        if encoded is None:
            return []
        result, data = encoded
        # a decode is ~1% of a round trip; repeat it for a steadier median
        decodes = [self.ledger.op("decode", decode, data, base) for _ in range(DECODE_REPEATS)]
        if any(d is None for d in decodes):
            return []
        decoded = decodes[0]
        self.ledger.check(f"pair-{i}.decode-repeat", all(
            np.array_equal(d.vertices, decoded.vertices) for d in decodes[1:]),
            "repeated decodes of one payload differ")
        report = self.ledger.op("eval", metrics.distortion, target, decoded)
        if report is None:
            return []
        self.kept.setdefault(i, (result.payload, data))
        return [(f"pair-{i}", {
            "sha256": sha256(data), "bits": 8 * len(data),
            "target_vertices": target.n_vertices, "decoded_sha256": vertex_sha(decoded),
            "d1_psnr_db": report.d1_psnr, "d2_psnr_db": report.d2_psnr})]

    def verify(self, pins: dict) -> dict:
        ledger = self.ledger
        ledger.pair = "verify"
        ledger.check("coded-any", bool(self.kept), "no pair completed")
        for i, (in_memory, data) in sorted(self.kept.items()):
            check_roundtrip(ledger, f"pair-{i}.roundtrip", in_memory, data, self.pairs[i][0])
        extra = {}
        if 0 in self.kept:
            base, target = self.pairs[0]
            result, data = encode(base, target, self.config)
            ledger.check("pair-0.reencode", data == self.kept[0][1],
                         "re-encoding pair 0 gave different bytes")
            check_layers_compose(ledger, "pair-0.layers", base, target, self.config,
                                 result, data)
            extra["quantize"] = rung_quantization(result, self.config)
        rows = [pins[k] for k in sorted(pins)]
        return {
            "bits_per_vertex": _mean([p["bits"] / p["target_vertices"] for p in rows]),
            "d1_psnr_db": _mean([p["d1_psnr_db"] for p in rows]),
            "d2_psnr_db": _mean([p["d2_psnr_db"] for p in rows]),
            "pins": [dict(p, id=k) for k, p in sorted(pins.items())],
            **extra,
        }


class AblationSweep:
    """``anchormesh sweep`` in-process: four ablation configs times the
    default alpha ladder on a short sequence, default base_fraction, one
    thread. The only workload that decimates in its timed passes."""

    name = "ablation-sweep"
    LABELS = tuple(label for label, _ in cli.ABLATION_CONFIGS)

    def __init__(self, seed: int, smoke: bool, ledger: Ledger, workdir: str):
        self.seed = seed
        self.ledger = ledger
        self.resolution, self.frames = (1, 2) if smoke else (2, 2)
        self.level = 1 if smoke else DEFAULTS.level
        self.workdir = workdir
        self.sequence_dir = os.path.join(workdir, "sequence")

    def setup(self) -> None:
        self.sequence = make_sequence(self.resolution, self.frames, self.seed)
        shutil.rmtree(self.sequence_dir, ignore_errors=True)
        os.makedirs(self.sequence_dir)
        for t, mesh in enumerate(self.sequence):
            with open(os.path.join(self.sequence_dir, f"frame_{t:04d}.obj"), "wb") as fh:
                fh.write(save_mesh(mesh))

    def _sweep(self, out_dir: str) -> int:
        argv = ["sweep", self.sequence_dir, out_dir, "--threads", "1",
                "--level", str(self.level)]
        with contextlib.redirect_stdout(io.StringIO()):  # the summary is in bd_rates.json
            return cli.main(argv)

    def run_pass(self, index: int) -> list:
        self.ledger.pair = f"sweep-{index}"
        out_dir = os.path.join(self.workdir, f"sweep-{index}")
        with OpClock(self.ledger).installed():
            code = self.ledger.op("sweep", self._sweep, out_dir)
        if not self.ledger.check(f"sweep-{index}.exit", code == 0, f"exit code {code}"):
            return []
        pin = {}
        for label in self.LABELS:
            with open(os.path.join(out_dir, f"rd_{label}.csv"), "rb") as fh:
                raw = fh.read()
            pin[label] = {"sha256": sha256(raw),
                          "rows": list(csv.DictReader(io.StringIO(raw.decode())))}
        with open(os.path.join(out_dir, "bd_rates.json"), "rb") as fh:
            raw = fh.read()
        pin["bd_rates"] = {"sha256": sha256(raw), "summary": json.loads(raw)}
        shutil.rmtree(out_dir)
        return [("sweep", pin)]

    def verify(self, pins: dict) -> dict:
        ledger = self.ledger
        ledger.pair = "verify"
        sweep = pins.get("sweep")
        if not ledger.check("sweep.completed", sweep is not None, "no sweep completed"):
            return {"bits_per_vertex": 0.0, "d1_psnr_db": 0.0, "d2_psnr_db": 0.0,
                    "pins": [], "bd_rates_finite": 0}
        n_rows = len(DEFAULTS.alpha_ladder) * (self.frames - 1)
        rows = []
        for label in self.LABELS:
            got = sweep[label]["rows"]
            ledger.check(f"{label}.rows", len(got) == n_rows,
                         f"{len(got)} rows, expected {n_rows}")
            rows.extend(dict(r, config=label) for r in got)
        ledger.check("bits-positive", all(int(r["bits"]) > 0 for r in rows))
        comparisons = sweep["bd_rates"]["summary"]["bd_rate_pct"]
        ledger.check("bd-rate-entries", len(comparisons) == len(self.LABELS) - 1)
        finite = sum(1 for entry in comparisons.values() for value in entry.values()
                     if isinstance(value, (int, float)) and math.isfinite(value))

        # reproduce the default-config job at the default alpha, pair 1
        config = DEFAULTS.override(level=self.level)
        base, target = make_base(self.sequence[0]), self.sequence[1]
        result, data = encode(base, target, config)
        report = metrics.distortion(target, decode(data, base))
        row = next((r for r in sweep[self.LABELS[-1]]["rows"]
                    if r["frame"] == "1" and float(r["alpha"]) == config.alpha), None)
        reproduced = row is not None and (int(row["bits"]), float(row["d1_psnr"]),
                                          float(row["d2_psnr"])) == (
            8 * len(data), report.d1_psnr, report.d2_psnr)
        ledger.check("reproduce-default-job", reproduced,
                     "sweep row differs from a direct encode/decode/eval")
        check_roundtrip(ledger, "default-job.roundtrip", result.payload, data, base)
        check_layers_compose(ledger, "default-job.layers", base, target, config, result, data)

        n_target = {t: mesh.n_vertices for t, mesh in enumerate(self.sequence)}
        pin = {label: sweep[label]["sha256"] for label in self.LABELS}
        pin.update(id="sweep", bd_rates_sha256=sweep["bd_rates"]["sha256"], rows=rows)
        return {
            "bits_per_vertex": _mean([int(r["bits"]) / n_target[int(r["frame"])]
                                      for r in rows]),
            "d1_psnr_db": _mean([float(r["d1_psnr"]) for r in rows]),
            "d2_psnr_db": _mean([float(r["d2_psnr"]) for r in rows]),
            "pins": [pin],
            "bd_rates_finite": finite,
            "quantize": rung_quantization(result, config),
        }


WORKLOADS = {w.name: w for w in (PairRoundtrip, AblationSweep)}
