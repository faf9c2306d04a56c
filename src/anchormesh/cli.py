"""Command-line driver: encode, decode, eval, sweep, synth.

Flags are fields: each codec flag sets the
:class:`anchormesh.config.CodecConfig` field of its ``dest`` and each synth
flag the :class:`anchormesh.synth.SequenceSpec` field. ``--level``,
``--alpha``, ``--delta``, ``--hbar``, ``--base-fraction``, ``--threads`` and
the synth flags set their namesakes; ``--alphas`` sets ``alpha_ladder``,
``--jitter`` ``topology_jitter``, and ``--no-motion-est``, ``--no-qem`` and
``--no-adaptive-quant`` set ``motion_estimation``, ``qem_refine`` and
``adaptive_quant`` to false. A flag's value is read as a config-file line's
is (:func:`anchormesh.config.parse_fields`), and a flag overrides the
``--config`` file.

Exit codes: 0 ok, 2 input/validation error, 3 payload error. Such errors,
a malformed flag value among them, are reported as one-line JSON
``{"error": <exception class>, "message": ...}`` on stderr; an unknown flag
or a value outside a flag's choices is argparse's usage error, exit 2. All
file outputs are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import fields

from .config import CodecConfig, load_config, parse_fields
from .mesh import MeshError, TriangleMesh, load_mesh, save_mesh
from .metrics import RDCurve, bd_rate, distortion
from .payload import PayloadError, read_payload, write_payload
from .pipeline import anchor_settings, decode_payload, encode_pair
from .qem import decimate_to_base
from .synth import SequenceSpec, generate_sequence

ABLATION_CONFIGS = (
    ("nns", dict(motion_estimation=False, qem_refine=False, adaptive_quant=False)),
    ("nns_ms", dict(motion_estimation=True, qem_refine=False, adaptive_quant=False)),
    ("nns_ms_qem", dict(motion_estimation=True, qem_refine=True, adaptive_quant=False)),
    ("nns_ms_qem_aq", dict(motion_estimation=True, qem_refine=True, adaptive_quant=True)),
)


def _atomic_write(path, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-anchormesh-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_mesh_file(path) -> TriangleMesh:
    with open(path, "rb") as fh:
        return load_mesh(fh.read())


def _inf_as_text(value: float):
    return "inf" if math.isinf(value) else value


def _report_json(report) -> dict:
    return {f.name: _inf_as_text(getattr(report, f.name)) for f in fields(report)}


def _config_from_args(args) -> CodecConfig:
    config = load_config(args.config) if args.config else CodecConfig()
    return config.override(**parse_fields(CodecConfig, vars(args)))


def cmd_encode(args) -> int:
    config = _config_from_args(args)
    base = _read_mesh_file(args.base)
    target = _read_mesh_file(args.target)
    result = encode_pair(base, target, config)
    data = write_payload(result.payload)
    _atomic_write(args.out, data)
    stats = dict(result.stats)
    stats["payload_bits"] = len(data) * 8
    stats["out"] = args.out
    print(json.dumps(stats))
    return 0


def cmd_decode(args) -> int:
    base = _read_mesh_file(args.base)
    with open(args.payload, "rb") as fh:
        payload = read_payload(fh.read(), base.n_vertices)
    recon = decode_payload(payload, base)
    _atomic_write(args.out, save_mesh(recon))
    return 0


def cmd_eval(args) -> int:
    reference = _read_mesh_file(args.reference)
    test = _read_mesh_file(args.test)
    print(json.dumps(_report_json(distortion(reference, test))))
    return 0


def cmd_synth(args) -> int:
    frames = generate_sequence(SequenceSpec(**parse_fields(SequenceSpec, vars(args))))
    os.makedirs(args.out, exist_ok=True)
    for t, mesh in enumerate(frames):
        _atomic_write(os.path.join(args.out, f"frame_{t:04d}.obj"), save_mesh(mesh))
    print(json.dumps({"frames": len(frames), "out": args.out}))
    return 0


def _sweep_group(group):
    """The encode/decode/eval jobs of one frame pair whose configs share
    their anchor settings, in order; module-level so a process pool can
    pickle it. The first job fits the pair's anchor and every later one
    quantizes that fit again (``encode_pair``'s ``reuse``)."""
    pair_index, base, target, jobs = group
    rows = []
    first = None
    for label, config in jobs:
        result = encode_pair(base, target, config, reuse=first)
        if first is None:
            first = result
        data = write_payload(result.payload)
        recon = decode_payload(read_payload(data, base.n_vertices), base)
        report = distortion(target, recon)
        rows.append((label, config.alpha, pair_index, len(data) * 8,
                     report.d1_psnr, report.d2_psnr))
    return rows


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    frame_paths = sorted(
        os.path.join(args.sequence_dir, name)
        for name in os.listdir(args.sequence_dir)
        if name.endswith(".obj")
    )
    if len(frame_paths) < 2:
        raise MeshError("sweep needs a sequence of >= 2 frames")
    frames = [_read_mesh_file(p) for p in frame_paths]

    bases = []
    for mesh in frames[:-1]:
        target_count = max(4, round(config.base_fraction * mesh.n_vertices))
        bases.append(decimate_to_base(mesh, target_count))

    # each job codes with the sweep's own settings, its ablation's switches
    # and one alpha of the ladder; the jobs of one frame pair with the same
    # anchor settings form a group that fits the pair once
    jobs = {}  # (pair index, anchor settings) -> [(label, config)]
    for label, switches in ABLATION_CONFIGS:
        for alpha in config.alpha_ladder:
            job_config = config.override(alpha=alpha, **switches)
            for pair_index in range(len(frames) - 1):
                jobs.setdefault((pair_index, anchor_settings(job_config)), []).append(
                    (label, job_config))
    groups = [(pair_index, bases[pair_index], frames[pair_index + 1], group)
              for (pair_index, _), group in jobs.items()]
    # a fork pool starts all its workers at once: never more than the groups
    workers = min(config.threads, len(groups))
    if workers > 1:
        # imported here: multiprocessing is a large import that only a pool needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [row for rows in pool.map(_sweep_group, groups, chunksize=1)
                       for row in rows]
    else:
        results = [row for group in groups for row in _sweep_group(group)]

    os.makedirs(args.out, exist_ok=True)  # after the jobs: a sweep that fails writes nothing
    baseline = ABLATION_CONFIGS[0][0]
    curves, comparisons, skipped, failed = {}, {}, [], []
    for label, _ in ABLATION_CONFIGS:
        rows = sorted(row[1:] for row in results if row[0] == label)
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(["frame", "alpha", "bits", "d1_psnr", "d2_psnr"])
        writer.writerows([pair_index + 1, alpha, bits, _inf_as_text(d1), _inf_as_text(d2)]
                         for alpha, pair_index, bits, d1, d2 in rows)
        _atomic_write(os.path.join(args.out, f"rd_{label}.csv"), text.getvalue().encode())
        # one (bits, mean PSNR) point per alpha on the D1 and the D2 curve
        curves[label] = ([], [])
        for alpha, rung in itertools.groupby(rows, key=lambda row: row[0]):
            _, _, bits, *psnrs = zip(*rung)
            finite = [[value for value in psnr if math.isfinite(value)] for psnr in psnrs]
            if not all(finite):
                skipped.append(f"{label}: alpha {alpha} has only infinite PSNR; skipped")
                continue
            for curve, values in zip(curves[label], finite):
                curve.append((sum(bits), sum(values) / len(values)))
        if label != baseline:
            entry = comparisons[label] = {}
            for which, anchor_points, points in zip(("d1", "d2"), curves[baseline], curves[label]):
                try:
                    entry[which] = bd_rate(RDCurve(tuple(anchor_points)), RDCurve(tuple(points)))
                except ValueError as exc:
                    entry[which] = None
                    failed.append(f"BD-rate {baseline} vs {label} ({which}): {exc}")
    summary = {"baseline": baseline, "bd_rate_pct": comparisons, "warnings": skipped + failed}
    _atomic_write(os.path.join(args.out, "bd_rates.json"),
                  json.dumps(summary, indent=2).encode())
    print(json.dumps(summary))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchormesh",
        description="Inter-frame dynamic mesh coding kernel (anchor mesh + displacements)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_codec_flags(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--level", help="subdivision levels")
        p.add_argument("--alpha", help="quantization scale")
        p.add_argument("--delta", help="quantization offset")
        p.add_argument("--hbar", help="valence normalizer")
        p.add_argument("--no-motion-est", dest="motion_estimation", action="store_const",
                       const=False, help="disable motion estimation (ablation)")
        p.add_argument("--no-qem", dest="qem_refine", action="store_const", const=False,
                       help="disable QEM refinement (ablation)")
        p.add_argument("--no-adaptive-quant", dest="adaptive_quant", action="store_const",
                       const=False, help="disable adaptive quantization (ablation)")

    p = sub.add_parser("encode", help="encode a frame pair to a payload")
    p.add_argument("base")
    p.add_argument("target")
    p.add_argument("out")
    add_codec_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="reconstruct a frame from a payload")
    p.add_argument("payload")
    p.add_argument("base")
    p.add_argument("out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="D1/D2 distortion report")
    p.add_argument("reference")
    p.add_argument("test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="rate sweep + ablation BD-rates over a sequence")
    p.add_argument("sequence_dir")
    p.add_argument("out")
    p.add_argument("--alphas", dest="alpha_ladder", metavar="ALPHAS",
                   help="comma-separated rate ladder")
    p.add_argument("--base-fraction", help="base mesh decimation ratio")
    p.add_argument("--threads", help="worker processes")
    add_codec_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic sequence of OBJ frames")
    p.add_argument("out")
    p.add_argument("--shape", choices=["sphere", "grid", "cube"])
    p.add_argument("--resolution")
    p.add_argument("--frames")
    p.add_argument("--motion", choices=["static", "translate", "rotate", "bend"])
    p.add_argument("--velocity")
    p.add_argument("--axis")
    p.add_argument("--rate")
    p.add_argument("--region")
    p.add_argument("--jitter", dest="topology_jitter", action="store_const", const=True)
    p.add_argument("--seed")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MeshError, OSError, PayloadError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3 if isinstance(exc, PayloadError) else 2


if __name__ == "__main__":
    sys.exit(main())
