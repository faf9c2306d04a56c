"""Self-test of the codec benchmark at smoke size.

Run from the repository root:  python3 -m pytest codecbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--smoke"])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_corrupted_payload_trips_the_roundtrip_check():
    run.import_library()
    from workloads import DEFAULTS, Ledger, check_roundtrip, encode, make_base, make_sequence

    frames = make_sequence(1, 2, seed=3)
    base = make_base(frames[0])
    result, data = encode(base, frames[1], DEFAULTS.override(level=1))
    assert check_roundtrip(Ledger(), "intact", result.payload, data, base)
    # base hash, an anchor coordinate, the last displacement varint. The level
    # byte is left alone: the v1 decoder does not bound the work it implies.
    for offset in (6, 6 + 32 + 5, len(data) - 1):
        corrupt = bytearray(data)
        corrupt[offset] ^= 0x01
        ledger = Ledger()
        assert not check_roundtrip(ledger, "corrupt", result.payload, bytes(corrupt), base)
        assert ledger.failed == 1


def test_fails_without_library_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "pair-roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
