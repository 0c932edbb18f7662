"""Short runs of the real command on every workload, in both modes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pulsealarm import SchmittConfig, WaveformSpec
from pulsealarm.bench import bench_corpus

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("wake_csv", "wire_clean", "wire_lossy", "detector_sweep")


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(done):
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    return out


def test_benchmark_json_names_the_workloads():
    listed = {w["name"] for w in SPEC["workloads"]}
    assert listed <= set(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["wake_csv", "wire_clean", "detector_sweep"])
def test_workload_runs_and_checks_pass(workload, trace):
    out = result(run(workload, 7, trace))
    assert out["correct"] and out["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_lossy_channel_defect_is_counted_not_fatal():
    # Seed 1 makes the XOR checksum accept a forged frame whose t_ms jumps
    # ahead, after which Pipeline.push refuses most later samples.
    out = result(run("wire_lossy", 1, 1))
    metrics = {n: m["value"] for n, m in out["metrics"].items()}
    assert not out["correct"]
    assert metrics["protocol.false_accepts"] > 0
    assert metrics["pipeline.refused_samples"] > 0
    assert out["failed"] > metrics["pipeline.refused_samples"]
    assert metrics["error_rate"] == out["failed"] / out["attempted"]
    assert metrics["protocol.corrupt_frames"] > 0 and metrics["protocol.resyncs"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("wake_csv", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_bench_rows_do_not_depend_on_grid_shape():
    # detector_sweep times one cell per bench_corpus call; the rows must be
    # those of the whole-grid call.
    base = WaveformSpec(duration_ms=10_000)
    args = (2, SchmittConfig(), 500, 510)
    whole = bench_corpus(base, [0, 10], [0.0, 4.0], *args, seed=3)
    cells = [row for s in (0, 10) for n in (0.0, 4.0)
             for row in bench_corpus(base, [s], [n], *args, seed=3)]
    assert whole == cells
