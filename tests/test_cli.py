import collections
import concurrent.futures
import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import anchormesh as am
from anchormesh import cli
from anchormesh.cli import ABLATION_CONFIGS, main


@pytest.fixture(scope="module")
def sequence(tmp_path_factory):
    """A two-frame jittered bend sphere written by ``anchormesh synth``."""
    out = tmp_path_factory.mktemp("sequence")
    assert main(["synth", str(out), "--resolution", "1", "--frames", "2", "--motion", "bend",
                 "--rate", "0.1", "--jitter", "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def rotating(tmp_path_factory):
    """A two-frame jittered rotating sphere written by ``anchormesh synth``:
    unlike the bend pair, whose displacements all quantize to 0, it gives
    non-zero quantized values."""
    out = tmp_path_factory.mktemp("rotating")
    assert main(["synth", str(out), "--resolution", "1", "--motion", "rotate", "--axis", "1,1,0",
                 "--rate", "0.3", "--jitter", "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def default_sweep(sequence, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    assert main(["sweep", str(sequence), str(out)]) == 0
    return out


def _frames(sequence):
    names = sorted(name for name in os.listdir(sequence) if name.endswith(".obj"))
    return [am.load_mesh((sequence / name).read_bytes()) for name in names]


def _csv_bytes(out):
    return {label: (out / f"rd_{label}.csv").read_bytes() for label, _ in ABLATION_CONFIGS}


def _sweep(sequence, out, *flags):
    assert main(["sweep", str(sequence), str(out), *flags]) == 0
    return _csv_bytes(out)


def _psnr_cell(value):
    return "inf" if math.isinf(value) else value


def test_sweep_csv_bytes_match_a_direct_rendering(sequence, default_sweep, tmp_path):
    # every row recomputed by encode, decode and eval with the default
    # settings, then written by csv.writer to a text file
    reference, target = _frames(sequence)
    config = am.CodecConfig()
    base = am.decimate_to_base(reference,
                               max(4, round(config.base_fraction * reference.n_vertices)))
    for label, switches in ABLATION_CONFIGS:
        path = tmp_path / f"{label}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame", "alpha", "bits", "d1_psnr", "d2_psnr"])
            for alpha in config.alpha_ladder:
                result = am.encode_pair(base, target, config.override(alpha=alpha, **switches))
                data = am.write_payload(result.payload)
                recon = am.decode_payload(am.read_payload(data, base.n_vertices), base)
                report = am.distortion(target, recon)
                writer.writerow([1, alpha, len(data) * 8, _psnr_cell(report.d1_psnr),
                                 _psnr_cell(report.d2_psnr)])
        assert (default_sweep / f"rd_{label}.csv").read_bytes() == path.read_bytes(), label
    assert not [name for name in os.listdir(default_sweep) if name.startswith(".tmp-")]


def test_sweep_pool_writes_the_same_bytes_as_one_process(sequence, default_sweep, tmp_path):
    # jobs pickled to two worker processes, meshes included, give the same files
    _sweep(sequence, tmp_path, "--threads", "2")
    for name in [f"rd_{label}.csv" for label, _ in ABLATION_CONFIGS] + ["bd_rates.json"]:
        assert (tmp_path / name).read_bytes() == (default_sweep / name).read_bytes(), name


def test_sweep_fits_each_pair_once_per_anchor_configuration(tmp_path, monkeypatch):
    # 3 frames, 2 pairs: the 20 jobs of a pair (4 ablations x 5 alphas) fit
    # its anchor 3 times, since the two QEM ablations differ only in
    # quantization; a two-process pool writes the same bytes
    from anchormesh import pipeline

    sequence = tmp_path / "sequence"
    assert main(["synth", str(sequence), "--resolution", "1", "--frames", "3",
                 "--motion", "bend", "--rate", "0.1", "--jitter", "--seed", "3"]) == 0
    fits = collections.Counter()
    generate = pipeline.generate_coarse_anchor

    def counted(base, target, *args, **kwargs):
        fits[target.vertices.tobytes()] += 1
        return generate(base, target, *args, **kwargs)

    monkeypatch.setattr(pipeline, "generate_coarse_anchor", counted)
    _sweep(sequence, tmp_path / "one", "--threads", "1")
    assert fits == {frame.vertices.tobytes(): 3 for frame in _frames(sequence)[1:]}
    _sweep(sequence, tmp_path / "two", "--threads", "2")
    for name in [f"rd_{label}.csv" for label, _ in ABLATION_CONFIGS] + ["bd_rates.json"]:
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_a_sweep_releases_each_pair_base_and_its_plan(tmp_path, monkeypatch):
    # 3 frames, 2 pairs, one process: each group's base holds the plan of
    # its encodes and decodes, and when the second pair's first group
    # starts, the first pair's base and that plan are gone
    import gc
    import weakref

    sequence = tmp_path / "sequence"
    assert main(["synth", str(sequence), "--resolution", "1", "--frames", "3",
                 "--motion", "bend", "--rate", "0.1", "--jitter", "--seed", "3"]) == 0
    level = am.CodecConfig().level
    bases, plans, live = [], [], []
    decimate, run_group = cli.decimate_to_base, cli._sweep_group

    def kept(mesh, count):
        base = decimate(mesh, count)
        bases.append(weakref.ref(base))
        return base

    def checked(group):
        gc.collect()
        live.append((group[0], [ref() is not None for ref in bases],
                     [ref() is not None for ref in plans]))
        rows = run_group(group)
        plans.append(weakref.ref(group[1].connectivity.held(level)))
        return rows

    monkeypatch.setattr(cli, "decimate_to_base", kept)
    monkeypatch.setattr(cli, "_sweep_group", checked)
    _sweep(sequence, tmp_path / "out", "--threads", "1")
    assert [pair for pair, _, _ in live] == [0, 0, 0, 1, 1, 1]
    assert live[2][1:] == ([True], [True, True])  # one plan of the first base, held
    assert live[3][1:] == ([False, True], [False] * 3)
    assert live[5][1:] == ([False, True], [False] * 3 + [True] * 2)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and runs the jobs
    in this process, so that no worker is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize("threads,workers", [("3", [3]), ("5000", [3]), ("1", [])],
                         ids=["three", "more-than-jobs", "one"])
def test_sweep_pool_is_bounded_by_the_jobs(sequence, tmp_path, monkeypatch, threads, workers):
    # 4 ablations x 2 alphas x 1 frame pair = 8 jobs in 3 groups: the two
    # QEM ablations share their anchor settings, so one fit
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    _sweep(sequence, tmp_path, "--alphas", "2,8", "--threads", threads)
    assert _RecordingPool.sizes == workers


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_sweep_exits_2_on_threads_below_one(sequence, tmp_path, capsys, threads):
    out = tmp_path / "out"
    assert main(["sweep", str(sequence), str(out), "--threads", threads]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()
    with pytest.raises(ValueError):
        am.CodecConfig(threads=int(threads))


@pytest.mark.parametrize("fraction", ["inf", "nan", "0", "-1", "1.5"])
def test_sweep_exits_2_on_a_base_fraction_outside_0_1(sequence, tmp_path, capsys, fraction):
    # inf stopped on an uncaught OverflowError, and 0 or -1 decimated every
    # base to 4 vertices
    out = tmp_path / "out"
    assert main(["sweep", str(sequence), str(out), "--base-fraction", fraction]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": f"base_fraction must be in (0, 1], got {float(fraction)}"}
    assert not out.exists()


_BAD_LADDERS = {"repeated": "8,8,16,32,64", "zero": "2,0,8", "negative": "-1,4",
                "infinite": "4,inf"}


@pytest.mark.parametrize("source,ladder", [
    pytest.param(source, ladder, id=f"{source}-{name}")
    for source in ("flag", "config-file") for name, ladder in _BAD_LADDERS.items()
] + [pytest.param(source, "", id=f"{source}-empty") for source in ("flag", "config-file")])
def test_sweep_exits_2_on_a_bad_alpha_ladder(sequence, tmp_path, capsys, ladder, source):
    # a repeated rung was coded twice and summed into one RD point; an empty
    # ladder wrote header-only CSVs and null BD-rates
    out = tmp_path / "out"
    if source == "flag":
        flags = [f"--alphas={ladder}"]
    else:
        (tmp_path / "codec.cfg").write_text(f"alpha_ladder = {ladder}\n")
        flags = ["--config", str(tmp_path / "codec.cfg")]
    assert main(["sweep", str(sequence), str(out), *flags]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()
    with pytest.raises(ValueError):
        am.CodecConfig(alpha_ladder=tuple(float(a) for a in ladder.split(",") if a))


@pytest.fixture
def job_configs(monkeypatch):
    """The CodecConfig of every encode the CLI runs, in order."""
    seen = []
    encode_pair = cli.encode_pair

    def spy(base, target, config, reuse=None):
        seen.append(config)
        return encode_pair(base, target, config, reuse=reuse)

    monkeypatch.setattr(cli, "encode_pair", spy)
    return seen


def _expected_jobs(config):
    return [config.override(alpha=alpha, **switches)
            for _, switches in ABLATION_CONFIGS for alpha in config.alpha_ladder]


def test_sweep_honours_delta_flag(sequence, default_sweep, tmp_path, job_configs):
    got = _sweep(sequence, tmp_path, "--delta", "0.4")
    assert job_configs == _expected_jobs(am.CodecConfig(delta=0.4))
    assert all(got[label] != old for label, old in _csv_bytes(default_sweep).items())


def test_sweep_honours_config_file(sequence, default_sweep, tmp_path, job_configs):
    config_path = tmp_path / "codec.cfg"
    config_path.write_text("delta = 0.4\ncollapses_per_anchor = 3\nalpha_ladder = 2,8\n")
    got = _sweep(sequence, tmp_path / "out", "--config", str(config_path))
    config = am.CodecConfig(delta=0.4, collapses_per_anchor=3, alpha_ladder=(2.0, 8.0))
    assert job_configs == _expected_jobs(config)
    rows = list(csv.DictReader(got["nns_ms_qem_aq"].decode().splitlines()))
    assert [float(row["alpha"]) for row in rows] == [2.0, 8.0]
    assert got != _csv_bytes(default_sweep)


_FLAGS_AND_LINES = [
    ("encode", ["--level", "3"], "level = 3", "level", 3),
    ("encode", ["--alpha", "64"], "alpha = 64", "alpha", 64.0),
    ("encode", ["--delta", "0.25"], "delta = 0.25", "delta", 0.25),
    ("encode", ["--hbar", "5"], "hbar = 5", "hbar", 5.0),
    ("encode", ["--no-motion-est"], "motion_estimation = false", "motion_estimation", False),
    ("encode", ["--no-qem"], "qem_refine = false", "qem_refine", False),
    ("encode", ["--no-adaptive-quant"], "adaptive_quant = false", "adaptive_quant", False),
    ("sweep", ["--alphas", "2,8"], "alpha_ladder = 2,8", "alpha_ladder", (2.0, 8.0)),
    ("sweep", ["--base-fraction", "0.5"], "base_fraction = 0.5", "base_fraction", 0.5),
    ("sweep", ["--threads", "3"], "threads = 3", "threads", 3),
]


def _inputs(command, sequence):
    return {"encode": [sequence / "frame_0000.obj", sequence / "frame_0001.obj"],
            "sweep": [sequence], "synth": []}[command]


@pytest.mark.parametrize("command,flags,line,field,value", _FLAGS_AND_LINES,
                         ids=[case[3] for case in _FLAGS_AND_LINES])
def test_a_flag_sets_what_its_config_line_sets(sequence, tmp_path, monkeypatch, job_configs,
                                               command, flags, line, field, value):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    (tmp_path / "codec.cfg").write_text(line + "\n")
    inputs = [str(path) for path in _inputs(command, sequence)]
    assert main([command, *inputs, str(tmp_path / "by_flag"), *flags]) == 0
    by_flag = job_configs[:]
    job_configs.clear()
    assert main([command, *inputs, str(tmp_path / "by_line"), "--config",
                 str(tmp_path / "codec.cfg")]) == 0
    assert by_flag == job_configs and by_flag
    assert getattr(by_flag[0], field) == value != getattr(am.CodecConfig(), field)
    assert type(getattr(by_flag[0], field)) is type(value)


def test_every_codec_flag_has_a_config_line_case(capsys):
    listed = set()
    for command in ("encode", "sweep"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed |= set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed == {"--help", "--config"} | {flags[0] for _, flags, *_ in _FLAGS_AND_LINES}


def test_a_flag_overrides_the_config_file(rotating, tmp_path, job_configs):
    (tmp_path / "codec.cfg").write_text("level = 3\nalpha = 64\nqem_refine = true\n")
    assert main(["encode", *map(str, _inputs("encode", rotating)), str(tmp_path / "out.bin"),
                 "--config", str(tmp_path / "codec.cfg"), "--level", "1", "--no-qem"]) == 0
    assert job_configs == [am.CodecConfig(level=1, alpha=64.0, qem_refine=False)]


@pytest.mark.parametrize("command,flags,message", [
    ("encode", ["--level", "two"], "bad integer for level: 'two'"),
    ("encode", ["--alpha", "x"], "bad number for alpha: 'x'"),
    ("sweep", ["--threads", "1.5"], "bad integer for threads: '1.5'"),
    ("synth", ["--frames", "two"], "bad integer for frames: 'two'"),
], ids=["encode-level", "encode-alpha", "sweep-threads", "synth-frames"])
def test_a_malformed_flag_value_exits_2_with_one_json_line(sequence, tmp_path, capsys,
                                                            command, flags, message):
    # argparse refused these with its usage text, where a malformed
    # --velocity or config line gave the one-line JSON error
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, *map(str, _inputs(command, sequence)), str(out), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0]) == {"error": "ValueError", "message": message}
    assert os.listdir(tmp_path) == []


def test_decode_exits_3_on_a_bad_payload(sequence, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a payload")
    out = tmp_path / "out.obj"
    code = main(["decode", str(bad), str(sequence / "frame_0000.obj"), str(out)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "PayloadFormatError"
    assert not out.exists()


def test_eval_exits_2_on_a_missing_file(sequence, tmp_path, capsys):
    code = main(["eval", str(sequence / "frame_0000.obj"), str(tmp_path / "missing.obj")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


@pytest.mark.parametrize("flags", [["--no-qem"], []], ids=["coarse", "fine"])
@pytest.mark.parametrize("frame,bad", [(0, "nan"), (1, "inf")])
def test_encode_exits_2_on_a_non_finite_coordinate(sequence, tmp_path, capsys, frame, bad,
                                                    flags):
    # a NaN base vertex and an inf target vertex would otherwise be matched
    # silently or never, and the fine stage failed on the result with a bare
    # ValueError; both are input errors
    paths = [sequence / "frame_0000.obj", sequence / "frame_0001.obj"]
    lines = paths[frame].read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("v "))
    lines[row + 3] = f"v 0.25 {bad} 0.5"
    paths[frame] = tmp_path / "broken.obj"
    paths[frame].write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.bin"
    assert main(["encode", *map(str, paths), str(out), *flags]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "MeshValidationError"
    assert not out.exists()


def test_encode_exits_2_on_a_base_vertex_beyond_the_coordinate_limit(rotating, tmp_path,
                                                                     capsys):
    # two base vertices at +-1e300 once matched point 0 at distance inf, and
    # encode wrote a payload
    lines = (rotating / "frame_0000.obj").read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith("v ")][:2]
    lines[rows[0]], lines[rows[1]] = "v 1e300 0 0", "v -1e300 0 0"
    base = tmp_path / "huge_base.obj"
    base.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.bin"
    assert main(["encode", str(base), str(rotating / "frame_0001.obj"), str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "MeshValidationError"
    assert not out.exists()


def test_encode_exits_2_on_a_target_without_faces(sequence, tmp_path, capsys):
    lines = (sequence / "frame_0001.obj").read_text().splitlines()
    target = tmp_path / "faceless.obj"
    target.write_text("\n".join(line for line in lines if not line.startswith("f ")) + "\n")
    out = tmp_path / "out.bin"
    assert main(["encode", str(sequence / "frame_0000.obj"), str(target), str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "MeshValidationError"
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--alpha", "1e21"), ("--delta", "1e19")])
def test_encode_exits_2_on_quantized_values_outside_int64(rotating, tmp_path, capsys,
                                                          flag, value):
    # numpy's cast would turn them into INT64_MIN and only warn. The bend
    # pair's anchor lies on its target to within 2.2e-16, so a rotating
    # pair (|d| A up to ~0.17) gives the displacements that overflow
    capsys.readouterr()
    out = tmp_path / "out.bin"
    assert main(["encode", str(rotating / "frame_0000.obj"), str(rotating / "frame_0001.obj"),
                 str(out), flag, value]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ValueError"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("line", [
    "collapses_per_anchor = 0", "collapses_per_anchor = -3", "leaf_capacity = 0",
    "max_depth = -5", "alpha = -1", "hbar = 0", "delta = nan"])
def test_encode_exits_2_on_a_config_value_outside_its_domain(rotating, tmp_path, capsys, line):
    # zero collapses per anchor skipped the fine stage silently, exit 0; the
    # others failed only at encode, without the file's path and line
    config_path = tmp_path / "codec.cfg"
    config_path.write_text(line + "\n")
    out = tmp_path / "out.bin"
    capsys.readouterr()
    assert main(["encode", str(rotating / "frame_0000.obj"), str(rotating / "frame_0001.obj"),
                 str(out), "--config", str(config_path)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError" and error["message"].startswith(f"{config_path}:1: ")
    assert os.listdir(tmp_path) == ["codec.cfg"]


def test_encode_decode_eval_round_trip_quantizes_non_zero_values(rotating, tmp_path, capsys):
    # the files the commands write are the in-process encode and decode, bit
    # for bit, on a pair whose payload holds non-zero values
    base_path, target_path = rotating / "frame_0000.obj", rotating / "frame_0001.obj"
    coded, decoded = tmp_path / "pair.bin", tmp_path / "decoded.obj"
    assert main(["encode", str(base_path), str(target_path), str(coded)]) == 0
    assert main(["decode", str(coded), str(base_path), str(decoded)]) == 0
    capsys.readouterr()
    assert main(["eval", str(target_path), str(decoded)]) == 0
    report = json.loads(capsys.readouterr().out)
    base, target = _frames(rotating)
    data = am.write_payload(am.encode_pair(base, target, am.CodecConfig()).payload)
    assert coded.read_bytes() == data
    payload = am.read_payload(data, base.n_vertices)
    assert np.count_nonzero(payload.quantized) > 0
    recon = am.decode_payload(payload, base)
    assert decoded.read_bytes() == am.save_mesh(recon)
    want = am.distortion(target, recon)
    assert (report["d1_psnr"], report["d2_psnr"]) == (want.d1_psnr, want.d2_psnr)
    assert math.isfinite(want.d1_psnr) and math.isfinite(want.d2_psnr)


def test_importing_the_cli_loads_no_process_pool():
    # only a sweep with --threads above 1 starts a pool and imports one
    src = os.path.dirname(os.path.dirname(am.__file__))
    code = "import sys, anchormesh.cli; sys.exit('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_sweep_exits_2_on_an_alpha_outside_int64(sequence, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", str(sequence), str(out), "--alphas", "8,1e21"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()


def test_encode_has_no_threads_flag(sequence, tmp_path, capsys):
    # only a sweep runs worker processes
    out = tmp_path / "out.bin"
    with pytest.raises(SystemExit) as exc:
        main(["encode", str(sequence / "frame_0000.obj"), str(sequence / "frame_0001.obj"),
              str(out), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--motion", "bend", "--rate", "inf"],
    ["--motion", "translate", "--velocity", "nan,0,0"],
    ["--motion", "rotate", "--axis", "0,1", "--rate", "0.1"],
], ids=["rate", "velocity", "axis"])
def test_synth_exits_2_on_a_non_finite_motion(tmp_path, capsys, flags):
    out = tmp_path / "sequence"
    assert main(["synth", str(out), *flags]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize("region", ["nan", "inf", "-1", "2"])
def test_synth_exits_2_on_a_region_outside_the_unit_interval(tmp_path, capsys, region):
    # a NaN hinge or one beyond the shape bent nothing, and -1 bent it all
    out = tmp_path / "sequence"
    assert main(["synth", str(out), "--resolution", "1", "--motion", "bend", "--rate", "0.3",
                 "--region", region]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError" and "region" in error["message"]
    assert not out.exists()
