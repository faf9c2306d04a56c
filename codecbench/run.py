"""anchormesh codec benchmark.

Run from the root of a source checkout:

    python3 codecbench/run.py --workload pair-roundtrip --seed 1 --seconds 50 --trace 0

Workloads: pair-roundtrip, ablation-sweep (see README.md). A run imports the
library from ``src/``, sets the workload up several times (set-up time is the
median), runs timed passes for about ``--seconds``, then checks the outputs.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
spends half the time untraced and half traced and reports the per-layer
metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full records (pins, checks, context) and spans go to ``.bench_out/``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# set-up runs at least SETUP_MIN times and until SETUP_SECONDS have been
# spent, at most SETUP_MAX times; setup_s takes the median
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 15, 4.0
# fresh interpreters timed importing the library; setup_s takes the median,
# because a single import moved by up to 2x between runs
IMPORT_REPEATS = 5
MODULES = ("synth", "octree", "coarse", "qem", "subdivide", "mesh", "quantize",
           "payload", "pipeline", "metrics", "cli")
# spans whose per-call median is reported from the traced run, as <span>_ms
MEDIAN_SPANS = ("synth.decimate", "octree.build", "coarse.match", "qem.refine",
                "subdivide.subdivide", "subdivide.displace", "quantize.counts",
                "quantize.quantize", "payload.hash", "payload.write", "payload.read",
                "metrics.distortion", "metrics.bd_rate")


class SourceMissing(Exception):
    """The checkout holds no importable ``src/anchormesh``."""


def import_library():
    package = ROOT / "src" / "anchormesh"
    if not (package / "__init__.py").is_file():
        raise SourceMissing(f"no library source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import anchormesh

    if Path(anchormesh.__file__).resolve().parent != package.resolve():
        raise SourceMissing(f"anchormesh imported from {anchormesh.__file__}, not {package}")
    return anchormesh


def time_imports(repeats: int) -> list:
    """Wall times of fresh interpreters that only import the library."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import anchormesh.cli"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_passes(workload, pins, ledger, first: int, seconds: float):
    """Whole passes for about ``seconds`` (at least one): no pass starts that
    would, at the median pass time, end more than half a pass past the time.
    Pins seen again in a later pass must be identical."""
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        got = workload.run_pass(first + len(walls))
        walls.append(time.perf_counter() - t0)
        for key, pin in got:
            if key in pins:
                ledger.check(f"{key}.repeat", pins[key] == pin,
                             "a later pass gave different output")
            else:
                pins[key] = pin
        if time.perf_counter() - start + median(walls) / 2 >= seconds:
            break
    return walls


def timing_figures(samples, walls) -> dict:
    """Shortest and median pass, and shortest and median operation times.

    The minima are the bounded end-to-end metrics: a neighbour on the host
    slows whole stretches of a run, and the minimum keeps the fast ones.
    """
    out = {"pass_s_min": min(walls), "run_s": median(walls)}
    for kind in ("encode", "decode", "eval"):
        values = samples[kind]
        out[f"{kind}_ms_min"] = 1e3 * min(values) if values else 0.0
        out[f"{kind}_ms_p50"] = 1e3 * median(values)
    return out


def layer_metrics(spans, self_s, traced_walls, untraced_walls, verified,
                  default_alpha: float) -> dict:
    by_name = {}
    for span, own in zip(spans, self_s):
        by_name.setdefault(span["name"], []).append((span, own))

    def durations(name):
        return [s["end"] - s["start"] for s, _ in by_name.get(name, [])]

    def counts(name, key):
        return [s["counts"][key] for s, _ in by_name.get(name, []) if "counts" in s]

    out = {f"{name}_ms": 1e3 * median(durations(name)) for name in MEDIAN_SPANS}

    coarse_n = sum(counts("coarse.match", "vertices"))
    refine_n = sum(counts("qem.refine", "vertices"))
    out["coarse.duplicate_frac"] = sum(counts("coarse.match", "duplicates")) / max(coarse_n, 1)
    out["coarse.degenerate_faces"] = statistics.fmean(
        counts("coarse.match", "degenerate_faces") or [0])
    out["qem.refined_frac"] = sum(counts("qem.refine", "off_vertex")) / max(refine_n, 1)
    out["qem.degenerate_faces"] = statistics.fmean(
        counts("qem.refine", "degenerate_faces") or [0])

    closest = by_name.get("mesh.closest", [])
    queries = sum(s["counts"]["queries"] for s, _ in closest)
    timed_queries = sum(s["counts"]["queries"] for s, _ in closest if s["phase"] == "traced")
    passes = max(len(traced_walls), 1)
    out["mesh.closest_queries"] = timed_queries / passes
    out["mesh.closest_us_per_query"] = 1e6 * sum(durations("mesh.closest")) / max(queries, 1)

    rungs = verified.get("quantize", {})
    default = rungs.get(f"a{default_alpha:g}", {"zero_frac": 0.0, "max_abs": 0})
    out["quantize.zero_frac"] = default["zero_frac"]
    out["quantize.max_abs"] = default["max_abs"]
    for rung, figures in rungs.items():
        out[f"quantize.zero_frac.{rung}"] = figures["zero_frac"]
    out["payload.bytes"] = statistics.fmean(counts("payload.write", "bytes") or [0])
    out["cli.sweep.bd_rates_finite"] = verified.get("bd_rates_finite", 0)

    pipeline_dur = sum(s["end"] - s["start"] for s in spans if s["name"].startswith("pipeline."))
    pipeline_self = sum(own for s, own in zip(spans, self_s) if s["name"].startswith("pipeline."))
    out["trace.unattributed_frac"] = pipeline_self / pipeline_dur if pipeline_dur else 0.0
    out["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0
    for module in MODULES:
        own = sum(o for s, o in zip(spans, self_s)
                  if s["phase"] == "traced" and s["name"].split(".", 1)[0] == module)
        out[f"{module}.self_ms"] = 1e3 * own / passes
    return out


def main(argv=None, started=None) -> int:
    started = time.perf_counter() if started is None else started
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    args = parser.parse_args(argv)

    try:
        import_library()
    except SourceMissing as exc:
        print(f"codecbench: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    from spans import Tracer, self_times
    from workloads import DEFAULTS, WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - started
    import_times = time_imports(IMPORT_REPEATS)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    ledger = Ledger()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, ledger, str(workdir))
    tracer = Tracer(ledger) if args.trace else None
    pins = {}
    try:
        instrumented = tracer.installed if tracer else contextlib.nullcontext
        setup_times = []
        while len(setup_times) < SETUP_MIN or (
                sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX):
            t0 = time.perf_counter()
            with instrumented():
                workload.setup()
            setup_times.append(time.perf_counter() - t0)
        gc.collect()
        if tracer:  # half the time untraced, half traced
            untraced = run_passes(workload, pins, ledger, 0, args.seconds / 2)
            tracer.phase, ledger.traced = "traced", True
            with tracer.installed():
                traced = run_passes(workload, pins, ledger, len(untraced), args.seconds / 2)
            ledger.traced = False
        else:
            untraced = run_passes(workload, pins, ledger, 0, args.seconds)
            traced = []
        if tracer:
            tracer.phase = "verify"
        with instrumented():
            verified = workload.verify(pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = ledger.attempted + len(ledger.checks)
    failed = ledger.failed
    figures = dict(timing_figures(ledger.samples, untraced), failed_frac=failed / attempted)
    if tracer:
        spans = tracer.spans
        own = self_times(spans)
        figures.update(layer_metrics(spans, own, traced, untraced, verified, DEFAULTS.alpha))
    else:
        figures.update({
            "setup_s": median(import_times) + median(setup_times),
            "bits_per_vertex": verified["bits_per_vertex"],
            "d1_psnr_db": verified["d1_psnr_db"],
            "d2_psnr_db": verified["d2_psnr_db"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if tracer else "end_to_end"]]
    metrics = {name: {"value": figures[name], "unit": units[name]} for name in reported}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "context": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "git_commit": git_commit(), "platform": platform.platform()},
        "import_s": import_s, "import_times_s": import_times, "setup_times_s": setup_times,
        "pass_walls_s": {"untraced": untraced, "traced": traced},
        "samples": {k: len(v) for k, v in ledger.samples.items()},
        "samples_s": dict(ledger.samples), "traced_samples_s": dict(ledger.traced_samples),
        "attempted": attempted, "failed": failed, "figures": figures,
        "quantize_rungs": verified.get("quantize", {}),
        "checks": ledger.checks, "errors": ledger.errors,
        "pins_sha256": _digest(verified["pins"]), "pins": verified["pins"],
    }
    if tracer:
        record["self_s_by_span"] = _self_table(spans, own)
        t0 = spans[0]["start"] if spans else 0.0
        _write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", [
            dict(s, id=i, start=s["start"] - t0, end=s["end"] - t0)
            for i, s in enumerate(spans)])
    _write(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    for check in ledger.checks:
        if not check["ok"]:
            print(f"FAILED check {check['name']}: {check['detail']}")
    for error in ledger.errors:
        print(f"FAILED {error['op']} (pair {error['pair']}):\n{error['error']}")
    print(f"pins sha256 {record['pins_sha256']}  samples {record['samples']}")
    for name, value in figures.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _self_table(spans, own) -> dict:
    table = {}
    for span, s in zip(spans, own):
        table[span["name"]] = table.get(span["name"], 0.0) + s
    return table


def _digest(pins) -> str:
    return hashlib.sha256(json.dumps(pins, sort_keys=True).encode()).hexdigest()


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True, default=str))


if __name__ == "__main__":
    sys.exit(main(started=_STARTED))
