"""Golden reports: `run` and `bench` output pinned byte for byte.

The files under tests/golden/ were written by the CLI itself, from the
config files next to them:

    pulsealarm run --config tests/golden/run.json --seed 11 \\
        --out tests/golden/run_seed11.jsonl > tests/golden/run_seed11.txt
    pulsealarm bench --config tests/golden/bench.json --seed 3 \\
        --out tests/golden/bench_seed3.csv > tests/golden/bench_seed3.txt

A change that means to alter a report regenerates them with these commands
and says why; any other change must leave them as they are.
"""

import pathlib

import pytest

from pulsealarm.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "command,seed,name,suffix",
    [("run", 11, "run_seed11", ".jsonl"), ("bench", 3, "bench_seed3", ".csv")],
)
def test_report_matches_golden(tmp_path, capsys, command, seed, name, suffix):
    out = tmp_path / f"{name}{suffix}"
    config = GOLDEN / f"{command}.json"
    assert main([command, "--config", str(config), "--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}{suffix}").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
