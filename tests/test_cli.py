import copy
import io
import json
import os
import pathlib
import re
import socket
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsealarm import UserProfile, WaveformSpec, synthesize, write_waveform
from pulsealarm import cli
from pulsealarm.cli import main
from pulsealarm.protocol import FRAME_LEN, encode_frame, encode_stream
from pulsealarm.synth import make_wake_scenario


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestSynthCommand:
    def test_writes_file_with_header(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"waveform": {"duration_ms": 10000, "sample_rate_hz": 100,
                          "heart_rate_bpm": 60}},
        )
        out = tmp_path / "wave.csv"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t_ms,value"
        assert len(lines) == 1001
        assert "10 beats" in capsys.readouterr().out

    def test_invalid_spec_exit_2_names_field(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"waveform": {"duration_ms": 1000, "pulse_amplitude": 900,
                          "baseline": 300}},
        )
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "pulse_amplitude" in capsys.readouterr().err

    def test_seeded_runs_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"waveform": {"duration_ms": 5000, "noise_stddev": 8.0}},
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--config", cfg, "--seed", "5", "--out", str(a)]) == 0
        assert main(["synth", "--config", cfg, "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"waveform": {"duration_ms": 1000}, "bogus": 1})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


class TestRunCommand:
    def scenario_config(self, tmp_path, **scenario):
        return write_config(
            tmp_path,
            {
                "profile": {"age_years": 20, "resting_bpm": 90},
                "scenario": scenario,
            },
        )

    def test_default_scenario_stops(self, tmp_path, capsys):
        cfg = self.scenario_config(tmp_path)
        out = tmp_path / "report.jsonl"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        transitions = [r for r in records if r["kind"] == "transition"]
        assert [(t["from"], t["to"]) for t in transitions] == [
            ("armed", "ringing"), ("ringing", "stopped"),
        ]
        summary = records[-1]
        assert summary["final_phase"] == "stopped"
        readings = [r for r in records if r["kind"] == "reading"]
        assert summary["valid"] + summary["rejected_low"] + summary["rejected_high"] \
            == len(readings)
        assert "final phase: stopped" in capsys.readouterr().out

    def test_below_band_exercise_keeps_ringing(self, tmp_path):
        cfg = self.scenario_config(tmp_path, exercise_bpm=95)
        assert main(["run", "--config", cfg]) == 0  # expected phase is ringing

    def test_unexpected_phase_exit_1(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "profile": {"age_years": 20, "resting_bpm": 90},
            "scenario": {"exercise_bpm": 95},
            "expected_final_phase": "stopped",
        }))
        assert main(["run", "--config", str(path)]) == 1

    def test_run_from_waveform_file(self, tmp_path):
        samples, _ = synthesize(WaveformSpec(duration_ms=10000, heart_rate_bpm=60))
        wave = tmp_path / "wave.csv"
        write_waveform(samples, wave)
        cfg = write_config(tmp_path, {
            "input_path": str(wave),
            "alarm_time_ms": 0,
            "expected_final_phase": "ringing",
        })
        assert main(["run", "--config", cfg]) == 0

    def test_missing_source_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"alarm_time_ms": 0})
        assert main(["run", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "source,engine",
        [
            ("scenario", {"bogus": 1}),
            ("scenario", {"required_streak": 50}),
            ("scenario", {"band_mode": "bogus"}),
            ("waveform", {"band_mode": "bogus"}),
            ("waveform", {"latch_set_threshold": 512}),
        ],
    )
    def test_bad_engine_section_exit_2(self, tmp_path, capsys, source, engine):
        config = {"profile": {"age_years": 20, "resting_bpm": 90}, "engine": engine}
        if source == "scenario":
            config["scenario"] = {}
        else:
            config["waveform"] = {"duration_ms": 1000}
            config["alarm_time_ms"] = 0
        assert main(["run", "--config", write_config(tmp_path, config)]) == 2
        assert "engine" in capsys.readouterr().err


class TestBenchCommand:
    def test_stray_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "bench": {
                "base": {"duration_ms": 10000, "heart_rate_bpm": 60},
                "stray_counts": [0, 10],
                "noise_levels": [0.0],
                "runs_per_cell": 2,
                "naive_threshold": 500,
                "stray_peak": 510,
            },
        })
        out = tmp_path / "bench.csv"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("strays,noise_stddev")
        clean = dict(zip(rows[0].split(","), rows[1].split(",")))
        strays = dict(zip(rows[0].split(","), rows[2].split(",")))
        assert clean["schmitt_false"] == "0" and clean["naive_false"] == "0"
        assert strays["schmitt_false"] == "0"
        assert int(strays["naive_false"]) > 0


def serve_loopback(tmp_path, config, send, *extra):
    """Run `serve` with `config` on a free loopback port in a thread, call
    send(port) until it reports success, and return serve's exit code and
    report text."""
    cfg = write_config(tmp_path, config, "serve.json")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    out = tmp_path / "serve.jsonl"
    result = {}

    def serve():
        result["code"] = main([
            "serve", "--config", cfg, "--port", str(port), "--out", str(out), *extra,
        ])

    server = threading.Thread(target=serve)
    server.start()
    sent = False
    for _ in range(50):
        time.sleep(0.1)
        sent = send(port)
        if sent:
            break
    server.join(timeout=10)
    assert sent
    assert not server.is_alive()
    return result["code"], out.read_text()


def send_file(path):
    return lambda port: main(["send", "--port", str(port), "--file", str(path)]) == 0


def send_bytes(data):
    def send(port):
        try:
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(data)
        except ConnectionRefusedError:
            return False
        return True

    return send


def send_and_hold(data):
    """A send(port) that sends data, then keeps the socket open until the
    server hangs up; a server still waiting after 5 s raises TimeoutError."""
    def send(port):
        try:
            sock = socket.create_connection(("127.0.0.1", port))
        except ConnectionRefusedError:
            return False
        with sock:
            sock.sendall(data)
            sock.settimeout(5)
            return sock.recv(1) == b""

    return send


class TestServeSend:
    def test_loopback_round_trip(self, tmp_path):
        samples, _ = synthesize(WaveformSpec(duration_ms=10000, heart_rate_bpm=60))
        wave = tmp_path / "wave.csv"
        write_waveform(samples, wave)
        code, report = serve_loopback(
            tmp_path, {"alarm_time_ms": 0, "expected_final_phase": "ringing"}, send_file(wave)
        )
        assert code == 0
        summary = json.loads(report.splitlines()[-1])
        assert summary["samples"] == 1000
        assert summary["gaps"] == 0
        assert summary["corrupt_frames"] == 0

    def test_repeated_frame_is_dropped_and_counted(self, tmp_path, caplog):
        samples, _ = synthesize(WaveformSpec(duration_ms=10000, heart_rate_bpm=60))
        data = encode_stream(samples)
        k = 500 * FRAME_LEN
        data = data[: k + FRAME_LEN] + data[k:]  # frame 500 twice
        code, report = serve_loopback(tmp_path, {"alarm_time_ms": 0}, send_bytes(data))
        assert code == 0
        assert json.loads(report.splitlines()[-1])["samples"] == len(samples)
        assert "dropped 1 samples" in caplog.text

    def test_stalled_sender_times_out(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(cli, "IDLE_TIMEOUT_S", 0.3)
        samples, _ = synthesize(WaveformSpec(duration_ms=5000, heart_rate_bpm=60))
        code, report = serve_loopback(
            tmp_path, {"alarm_time_ms": 0}, send_and_hold(encode_stream(samples))
        )
        assert code == 0
        assert json.loads(report.splitlines()[-1])["samples"] == len(samples)
        assert "no data for 0.3 s" in caplog.text

    def test_serve_scenario_report_equals_run(self, tmp_path):
        config = {
            "profile": {"age_years": 20, "resting_bpm": 90},
            "scenario": {"sleep_duration_ms": 10000, "exercise_duration_ms": 10000,
                         "exercise_bpm": 95, "noise_stddev": 5.0},
        }
        run_out = tmp_path / "run.jsonl"
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", cfg, "--seed", "11", "--out", str(run_out)]) == 0
        scenario = make_wake_scenario(
            UserProfile(20, 90), rng_seed=11, **config["scenario"]
        )
        wave = tmp_path / "wave.csv"
        write_waveform(synthesize(scenario.spec)[0], wave)
        code, report = serve_loopback(tmp_path, config, send_file(wave), "--seed", "11")
        assert code == 0
        assert report == run_out.read_text()


_FUZZ_SAMPLES = synthesize(WaveformSpec(duration_ms=2000, heart_rate_bpm=90))[0]


@st.composite
def _byte_stream(draw):
    """Valid frames interleaved with random bytes, repeated frames and
    truncated frames; returns the bytes and the count of valid frames."""
    chunks, frames = [], 0
    for i, sample in enumerate(_FUZZ_SAMPLES[: draw(st.integers(0, 60))]):
        frame = encode_frame(i % 256, sample)
        kind = draw(st.sampled_from(["frame", "frame", "junk", "repeat", "cut"]))
        if kind == "junk":
            chunks.append(draw(st.binary(max_size=20)))
        elif kind == "repeat":
            chunks.append(frame)
            frames += 1
        elif kind == "cut":
            chunks.append(frame[: draw(st.integers(1, FRAME_LEN - 1))])
            continue
        chunks.append(frame)
        frames += 1
    return b"".join(chunks), frames


@settings(max_examples=25, deadline=None)
@given(stream=_byte_stream())
def test_serve_byte_fuzz_always_reports(stream):
    data, frames = stream
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        code, report = serve_loopback(pathlib.Path(tmp), {"alarm_time_ms": 0}, send_bytes(data))
    assert code == 0
    assert "Traceback" not in err.getvalue()
    summary = json.loads(report.splitlines()[-1])
    assert summary["kind"] == "summary"
    assert summary["samples"] <= frames


PROFILE = {"age_years": 20, "resting_bpm": 90}
WAVEFORM_RUN = {"profile": PROFILE, "waveform": {"duration_ms": 1000}, "alarm_time_ms": 0}
SCENARIO_RUN = {"profile": PROFILE, "scenario": {}}
BENCH = {"bench": {"base": {"duration_ms": 1000}, "noise_levels": [0.0], "runs_per_cell": 1}}


def amend(config, path, value):
    """A copy of config with the dotted path set to value."""
    config = copy.deepcopy(config)
    *parents, key = path.split(".")
    node = config
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    return config


@pytest.mark.parametrize(
    "command,base,path,value",
    [
        pytest.param(command, base, path, value, id=f"{command}-{path}={json.dumps(value)}")
        for command, base, path, value in [
            ("run", WAVEFORM_RUN, "smoothing_window", 0),
            ("run", WAVEFORM_RUN, "waveform.duration_ms", "1000"),
            ("run", WAVEFORM_RUN, "waveform.heart_rate_bpm", [[0]]),
            ("run", WAVEFORM_RUN, "waveform.stray_pulses", [1]),
            ("run", WAVEFORM_RUN, "waveform.pulse_width_ms", -5),
            ("run", WAVEFORM_RUN, "profile", 5),
            ("run", WAVEFORM_RUN, "profile.age_years", None),
            ("run", WAVEFORM_RUN, "engine", [1]),
            ("run", WAVEFORM_RUN, "schmitt.upper_threshold", None),
            ("run", WAVEFORM_RUN, "alarm_time_ms", "x"),
            ("run", SCENARIO_RUN, "scenario", 3),
            ("run", SCENARIO_RUN, "scenario.exercise_bpm", "x"),
            ("run", SCENARIO_RUN, "scenario.sleep_duration_ms", "x"),
            ("run", SCENARIO_RUN, "scenario.required_streak", float("nan")),
            ("bench", BENCH, "bench.runs_per_cell", "x"),
            ("bench", BENCH, "bench.stray_counts", "ab"),
            ("send", None, "PULSEALARM_PORT", "abc"),
            ("serve", {"alarm_time_ms": 0}, "PULSEALARM_PORT", "abc"),
        ]
    ],
)
def test_bad_config_value_exit_2(tmp_path, capsys, monkeypatch, command, base, path, value):
    if path == "PULSEALARM_PORT":
        monkeypatch.setenv(path, value)
    else:
        base = amend(base, path, value)
    argv = ["--file", "unused.csv"] if base is None else ["--config", write_config(tmp_path, base)]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path.split('.')[0]}: ")
    assert "Traceback" not in err


FUZZ_BASES = [
    {
        "profile": PROFILE,
        "waveform": {"duration_ms": 2000, "heart_rate_bpm": [[0, 60], [1000, 150]],
                     "noise_stddev": 4.0, "stray_pulses": [[500, 510, 80]]},
        "alarm_time_ms": 500,
        "engine": {"band_mode": "age_derived", "required_streak": 1},
        "schmitt": {"upper_threshold": 550, "lower_threshold": 450, "refractory_ms": 250},
        "smoothing_window": 2,
        "expected_final_phase": "stopped",
    },
    {
        "profile": PROFILE,
        "scenario": {"sleep_duration_ms": 1000, "exercise_duration_ms": 2000,
                     "exercise_bpm": 150, "sample_rate_hz": 100, "required_streak": 1},
        "engine": {"band_mode": "fixed"},
    },
]

# Bounded magnitudes keep a fuzzed duration or rate from synthesizing
# millions of samples; NaN and Infinity are valid JSON to json.load.
_scalars = (
    st.none() | st.booleans() | st.integers(-10, 5000) | st.floats(-1e4, 1e4)
    | st.sampled_from([float("nan"), float("inf")]) | st.text(max_size=4)
)
_json_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)


def _paths(config, prefix=""):
    for key, value in config.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, prefix + key + ".")


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from(FUZZ_BASES), data=st.data())
def test_config_fuzz_exits_cleanly(base, data):
    paths = data.draw(st.lists(st.sampled_from(sorted(_paths(base))), min_size=1, max_size=3))
    config = base
    for path in sorted(paths, key=lambda p: -p.count(".")):  # children before parents
        config = amend(config, path, data.draw(_json_values))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as f:
            json.dump(config, f)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["run", "--config", cfg])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert re.search(r"^final phase \w+, expected \w+$", out.getvalue(), re.M)
