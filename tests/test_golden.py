"""Golden reports: `synth`, `run` and `bench` output pinned byte for byte.

The files under tests/golden/ were written by the CLI itself, from the
config files next to them, run in that directory:

    pulsealarm run --config run.json --seed 11 \\
        --out run_seed11.jsonl > run_seed11.txt
    pulsealarm bench --config bench.json --seed 3 \\
        --out bench_seed3.csv > bench_seed3.txt
    pulsealarm synth --config waveform.json --seed 7 \\
        --out waveform_synth_seed7.csv > waveform_synth_seed7.txt
    pulsealarm run --config waveform.json --seed 7 \\
        --out waveform_run_seed7.jsonl > waveform_run_seed7.txt

`waveform_synth_seed7.frames` is `waveform_synth_seed7.csv` as the byte
stream `send` writes it, written in that directory by:

    python -c 'import sys; from pulsealarm import encode_stream, read_waveform; \\
        sys.stdout.buffer.write(encode_stream(read_waveform("waveform_synth_seed7.csv")))' \\
        > waveform_synth_seed7.frames

`waveform.json` sets every waveform, engine and trigger key, so its two
reports pin the spec, rate schedule and strays the config loader builds.
A change that means to alter a report regenerates them with these commands
and says why; any other change must leave them as they are.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import pulsealarm
from pulsealarm import encode_frame, encode_stream, read_waveform
from pulsealarm.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def assert_golden(tmp_path, capsys, monkeypatch, command, config, seed, name, suffix):
    monkeypatch.chdir(tmp_path)  # synth prints its --out path
    out = f"{name}{suffix}"
    assert main([command, "--config", str(GOLDEN / config), "--seed", str(seed), "--out", out]) == 0
    assert (tmp_path / out).read_bytes() == (GOLDEN / out).read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize(
    "command,seed,name,suffix",
    [("run", 11, "run_seed11", ".jsonl"), ("bench", 3, "bench_seed3", ".csv")],
)
def test_report_matches_golden(tmp_path, capsys, monkeypatch, command, seed, name, suffix):
    assert_golden(tmp_path, capsys, monkeypatch, command, f"{command}.json", seed, name, suffix)


@pytest.mark.parametrize("command,suffix", [("synth", ".csv"), ("run", ".jsonl")])
def test_explicit_waveform_matches_golden(tmp_path, capsys, monkeypatch, command, suffix):
    name = f"waveform_{command}_seed7"
    assert_golden(tmp_path, capsys, monkeypatch, command, "waveform.json", 7, name, suffix)


def test_python_m_pulsealarm_matches_golden(tmp_path):
    # the module entry point, in a fresh process: main's exit code reaches
    # the shell, and the report and stdout are run's golden ones
    src = pathlib.Path(pulsealarm.__file__).parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "pulsealarm", "run", "--config", str(GOLDEN / "run.json"),
         "--seed", "11", "--out", "run_seed11.jsonl"],
        cwd=tmp_path, env=env, capture_output=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert (tmp_path / "run_seed11.jsonl").read_bytes() == (GOLDEN / "run_seed11.jsonl").read_bytes()
    assert result.stdout == (GOLDEN / "run_seed11.txt").read_bytes()


def test_frames_match_golden():
    # the bytes themselves, not only a round trip: a layout change made in
    # the encoder and the decoder alike passes every round trip
    columns = read_waveform(GOLDEN / "waveform_synth_seed7.csv")
    frames = (GOLDEN / "waveform_synth_seed7.frames").read_bytes()
    assert encode_stream(columns) == frames
    assert b"".join(encode_frame(i % 256, row) for i, row in enumerate(columns)) == frames
