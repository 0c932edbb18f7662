import copy
import io
import json
import logging.handlers
import os
import pathlib
import re
import socket
import subprocess
import sys
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

    def test_defaults_equal_explicit_keys(self, tmp_path, capsys):
        explicit = {
            "stray_counts": [0, 10, 20], "noise_levels": [0.0, 4.0, 8.0],
            "runs_per_cell": 5, "naive_threshold": 500, "stray_peak": 510,
            "stray_width_ms": 80.0, "match_tolerance_ms": 100.0,
        }
        outputs = []
        for name, extra in (("defaults", {}), ("explicit", explicit)):
            cfg = write_config(
                tmp_path, {"bench": {"base": {"duration_ms": 10000}, **extra}}, f"{name}.json"
            )
            out = tmp_path / f"{name}.csv"
            assert main(["bench", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


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


def run_or_send(tmp_path, command, csv):
    """Exit code of `run` (alarm at 0 ms) or `send` on the CSV file csv; `send`
    goes to a loopback socket that only queues connections."""
    if command == "run":
        cfg = write_config(tmp_path, {"input_path": str(csv), "alarm_time_ms": 0})
        return main(["run", "--config", cfg])
    with socket.create_server(("127.0.0.1", 0)) as server:
        return main(["send", "--port", str(server.getsockname()[1]), "--file", str(csv)])


@pytest.mark.parametrize("command", ["run", "send"])
def test_non_utf8_csv_exit_3_names_line(tmp_path, capsys, command):
    csv = tmp_path / "wave.csv"
    csv.write_bytes(b"t_ms,value\n0,300\n10,3\xff0\n20,300\n")
    assert run_or_send(tmp_path, command, csv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ")
    assert "Traceback" not in err


class TestServeSend:
    def test_send_refuses_time_beyond_frame_field(self, tmp_path, capsys):
        csv = tmp_path / "wave.csv"
        csv.write_text("t_ms,value\n0,300\n4294967295,300\n4294967296,300\n")
        assert run_or_send(tmp_path, "send", csv) == 3
        err = capsys.readouterr().err
        assert err == "error: sample 2: t_ms must fit 4 bytes (below 2**32), got 4294967296\n"
        assert run_or_send(tmp_path, "run", csv) == 0  # run has no frame field

    def test_refused_csv_opens_no_connection(self, tmp_path, capsys):
        csv = tmp_path / "wave.csv"
        rows = "".join(f"{10 * i},300\n" for i in range(500))
        csv.write_text(f"t_ms,value\n{rows}100,300\n")
        with socket.create_server(("127.0.0.1", 0)) as server:
            port = str(server.getsockname()[1])
            assert main(["send", "--port", port, "--file", str(csv)]) == 3
            server.settimeout(0.2)
            with pytest.raises(TimeoutError):
                server.accept()
        err = capsys.readouterr().err
        assert err == "error: sample 500 at t_ms=100 does not advance past 4990\n"

    def test_no_connection_times_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "IDLE_TIMEOUT_S", 0.3)
        cfg = write_config(tmp_path, {"alarm_time_ms": 0})
        out = tmp_path / "serve.jsonl"
        result = {}
        server = threading.Thread(target=lambda: result.update(code=main(
            ["serve", "--config", cfg, "--port", "0", "--out", str(out)]
        )), daemon=True)  # daemon: a server that never times out must not hang pytest
        server.start()
        server.join(timeout=10)
        assert not server.is_alive()
        assert result["code"] == 3
        assert capsys.readouterr().err == "error: no connection within 0.3 s\n"
        assert not out.exists()

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

    def test_protocol_damage_reported(self, tmp_path, capsys):
        samples, _ = synthesize(WaveformSpec(duration_ms=5000, heart_rate_bpm=60))
        data = bytearray(encode_stream(samples))
        data[2 * FRAME_LEN - 1] ^= 0xFF  # checksum byte of frame 1
        code, report = serve_loopback(tmp_path, {"alarm_time_ms": 0}, send_bytes(bytes(data)))
        assert code == 0
        summary = json.loads(report.splitlines()[-1])
        assert (summary["gaps"], summary["corrupt_frames"], summary["resyncs"]) == (1, 1, 1)
        assert summary["samples"] == len(samples) - 1
        assert "protocol: 1 gaps, 1 corrupt frames, 1 resyncs\n" in capsys.readouterr().out

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
        code, report = serve_loopback(tmp_path, config, send_file(wave))
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
            ("run", {"waveform": {"duration_ms": 1000}, "alarm_time_ms": 0},
             "engine.band_mode", "age_derived"),  # no profile to derive the band from
            ("run", WAVEFORM_RUN, "schmitt.upper_threshold", None),
            ("run", WAVEFORM_RUN, "alarm_time_ms", "x"),
            ("run", SCENARIO_RUN, "scenario", 3),
            ("run", SCENARIO_RUN, "scenario.exercise_bpm", "x"),
            ("run", SCENARIO_RUN, "scenario.sleep_duration_ms", "x"),
            ("run", SCENARIO_RUN, "scenario.required_streak", float("nan")),
            # a number of the wrong type is refused, not coerced
            ("run", WAVEFORM_RUN, "alarm_time_ms", "1000"),
            ("run", WAVEFORM_RUN, "schmitt.upper_threshold", "600"),
            ("run", WAVEFORM_RUN, "engine.required_streak", 2.9),
            ("run", WAVEFORM_RUN, "smoothing_window", True),
            ("run", SCENARIO_RUN, "scenario.required_streak", 2.5),
            ("bench", BENCH, "bench.runs_per_cell", 1.5),
            # a run is armed from its first sample, so it cannot end idle
            ("run", WAVEFORM_RUN, "expected_final_phase", "idle"),
            ("bench", BENCH, "bench.runs_per_cell", "x"),
            ("bench", BENCH, "bench.stray_counts", "ab"),
            # a fraction where an integer is wanted, and null, are malformed
            ("run", WAVEFORM_RUN, "waveform.baseline", 300.7),
            ("run", WAVEFORM_RUN, "waveform.duration_ms", 1000.5),
            ("bench", BENCH, "bench.base.duration_ms", 1.5),
            ("run", WAVEFORM_RUN, "expected_final_phase", None),
            # bench values out of range
            ("bench", BENCH, "bench.runs_per_cell", 0),
            ("bench", BENCH, "bench.runs_per_cell", -1),
            ("bench", BENCH, "bench.stray_counts", [-5]),
            ("bench", BENCH, "bench.match_tolerance_ms", -1),
            # a section the command does not read is still checked
            ("synth", {"waveform": {"duration_ms": 1000}}, "schmitt.upper_threshold", "x"),
            ("run", WAVEFORM_RUN, "bench.runs_per_cell", "x"),
            ("send", None, "PULSEALARM_PORT", "abc"),
            ("serve", {"alarm_time_ms": 0}, "PULSEALARM_PORT", "abc"),
            # serve takes its samples from the socket and reads no source
            ("serve", {"alarm_time_ms": 0}, "input_path", "no-such-file.csv"),
            ("serve", {"alarm_time_ms": 0}, "waveform", {"duration_ms": 1000}),
            # port 9 has no listener: a connection attempt would exit 3
            ("send", None, "--speed", "-1"),
            ("send", None, "--speed", "nan"),
            # a value the bench grid or a scenario sets, and one no command reads
            ("bench", BENCH, "bench.base.noise_stddev", 5.0),
            ("bench", BENCH, "bench.base.stray_pulses", [[500, 510, 80]]),
            ("bench", BENCH, "bench.base.rng_seed", 4),
            ("run", SCENARIO_RUN, "alarm_time_ms", 999999),
            ("run", WAVEFORM_RUN, "output_path", os.devnull),
            # seeds and rates out of range, with or without noise to draw
            ("run", WAVEFORM_RUN, "waveform.rng_seed", -1),
            ("run", amend(WAVEFORM_RUN, "waveform.pulse_width_ms", 5),
             "waveform.heart_rate_bpm", 6001),  # one bpm above one beat per sample at 100 Hz
            ("run", SCENARIO_RUN, "--seed", "-1"),
        ]
    ],
)
def test_bad_config_value_exit_2(tmp_path, capsys, monkeypatch, command, base, path, value):
    flags = []
    if path == "PULSEALARM_PORT":
        monkeypatch.setenv(path, value)
    elif path.startswith("--"):
        flags = (["--port", "9"] if command == "send" else []) + [path, value]
    else:
        base = amend(base, path, value)
    argv = ["--file", "unused.csv"] if base is None else ["--config", write_config(tmp_path, base)]
    assert main([command, *argv, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path.split('.')[0]}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,config,flags,message",
    [
        pytest.param("run", "not json", [], "config.json: Expecting value", id="malformed-json"),
        pytest.param("synth", {}, [], "synth requires a 'waveform' section",
                     id="synth-no-waveform"),
        pytest.param("synth", {"waveform": {"duration_ms": 1000}}, [],
                     "synth requires --out", id="synth-no-out"),
        pytest.param("bench", {}, [], "bench requires a 'bench' section", id="bench-no-section"),
        pytest.param("run", {"scenario": {}}, [], "scenario: requires a 'profile' section",
                     id="scenario-no-profile"),
        pytest.param("run", {"waveform": {"duration_ms": 1000}}, [],
                     "alarm_time_ms: run requires it", id="run-no-alarm-time"),
        # resting 140 sleeps at about 127 bpm, already inside the fixed band
        pytest.param("run", {"profile": {"age_years": 20, "resting_bpm": 140}, "scenario": {}}, [],
                     "error: scenario: sleep rate 127.4 bpm already inside the satisfaction band",
                     id="scenario-infeasible-profile"),
        pytest.param("send", None, [], "no port given (--port or PULSEALARM_PORT)",
                     id="send-no-port"),
        pytest.param("send", None, ["--port", "70000"], "--port: port 70000 outside [0, 65535]",
                     id="send-port-out-of-range"),
    ],
)
def test_missing_config_exit_2(tmp_path, capsys, monkeypatch, command, config, flags, message):
    monkeypatch.delenv("PULSEALARM_PORT", raising=False)
    if config is None:
        argv = ["--file", "unused.csv"]
    else:
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = ["--config", str(path)]
    assert main([command, *argv, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,config", [("run", "run.json"), ("run", "waveform.json"), ("synth", "waveform.json"),
                       ("bench", "bench.json")],
)
def test_negative_seed_exit_2(tmp_path, capsys, command, config):
    config = pathlib.Path(__file__).parent / "golden" / config
    out = str(tmp_path / "out")
    assert main([command, "--config", str(config), "--seed", "-1", "--out", out]) == 2
    assert capsys.readouterr().err == "error: --seed: must be non-negative, got -1\n"


def test_serve_takes_no_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "IDLE_TIMEOUT_S", 0.1)  # a serve that starts stops soon
    cfg = write_config(tmp_path, {"alarm_time_ms": 0})
    with pytest.raises(SystemExit) as exc:  # before any socket opens
        main(["serve", "--config", cfg, "--port", "0", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_bad_log_level_exit_2(tmp_path):
    # in a fresh process, where main's logging.basicConfig installs the handler
    src = pathlib.Path(cli.__file__).parents[1]
    env = {**os.environ, "PULSEALARM_LOG": "bogus",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    cfg = write_config(tmp_path, WAVEFORM_RUN)
    result = subprocess.run(
        [sys.executable, "-m", "pulsealarm", "run", "--config", cfg],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: PULSEALARM_LOG: ")
    assert "Traceback" not in result.stderr


@pytest.fixture
def root_handler():
    """A handler installed on the root logger before main runs, as a host
    process that configured logging would have."""
    handler, root = logging.handlers.BufferingHandler(10_000), logging.getLogger()
    root.addHandler(handler)
    yield handler
    root.removeHandler(handler)
    logging.getLogger("pulsealarm").setLevel(logging.NOTSET)


def test_bad_log_level_exit_2_under_configured_logging(tmp_path, capsys, monkeypatch, root_handler):
    monkeypatch.setenv("PULSEALARM_LOG", "bogus")
    assert main(["run", "--config", write_config(tmp_path, WAVEFORM_RUN)]) == 2
    assert capsys.readouterr().err.startswith("error: PULSEALARM_LOG: ")


@pytest.mark.parametrize("level, shown", [("info", True), ("warning", False)])
def test_log_level_applies_under_configured_logging(tmp_path, monkeypatch, root_handler, level, shown):
    monkeypatch.setenv("PULSEALARM_LOG", level)
    samples, _ = synthesize(WaveformSpec(duration_ms=1000))
    code, _ = serve_loopback(tmp_path, {"alarm_time_ms": 0}, send_bytes(encode_stream(samples)))
    assert code == 0
    listening = [r for r in root_handler.buffer if r.getMessage().startswith("listening on port")]
    assert bool(listening) is shown


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


GOLDEN = pathlib.Path(__file__).parent / "golden"
SWEEP_VALUES = [True, 1.5, "x", None, [], {}, -1, 0, [[1]], 7]
SWEEP_CONFIGS = {
    # every waveform, engine and trigger key, a rate schedule and one stray
    "waveform-run": ("run", json.loads((GOLDEN / "waveform.json").read_text())),
    "scenario-run": ("run", {
        "profile": PROFILE,
        "scenario": {"exercise_bpm": 150, "sleep_duration_ms": 1000,
                     "exercise_duration_ms": 2000, "sample_rate_hz": 100,
                     "noise_stddev": 2.0, "required_streak": 1},
        "engine": {"band_mode": "fixed"},
        "schmitt": {"upper_threshold": 550, "lower_threshold": 470, "refractory_ms": 250},
        "smoothing_window": 3,
        "expected_final_phase": "stopped",
    }),
    "bench": ("bench", {
        "bench": {
            "base": {"duration_ms": 3000, "sample_rate_hz": 100,
                     "heart_rate_bpm": [[0, 60], [1500, 90]], "pulse_amplitude": 400,
                     "baseline": 300, "pulse_width_ms": 40,
                     "wander_amplitude": 5, "wander_period_ms": 2000},
            "stray_counts": [0, 2], "noise_levels": [0.0, 4.0], "runs_per_cell": 1,
            "naive_threshold": 500, "stray_peak": 510, "stray_width_ms": 80,
            "match_tolerance_ms": 100,
        },
        "schmitt": {"upper_threshold": 550, "lower_threshold": 470, "refractory_ms": 250},
    }),
}


def _leaves(config, prefix=""):
    """(dotted path, value) of every value in config that is not an object."""
    for key, value in config.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


def _kind(value):
    """The JSON kind of a value: a bool is not a number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


@pytest.mark.parametrize("name", SWEEP_CONFIGS)
def test_config_mutation_sweep(tmp_path, name):
    """Each leaf of a full config, replaced by each of SWEEP_VALUES, ends in
    a documented exit code, and a value of another JSON kind in exit 2. The
    one leaf that takes two kinds is heart_rate_bpm: a rate or a schedule."""
    command, base = SWEEP_CONFIGS[name]
    cfg = tmp_path / "config.json"
    taken = []
    for path, original in _leaves(base):
        for value in SWEEP_VALUES:
            cfg.write_text(json.dumps(amend(base, path, value)))
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([command, "--config", str(cfg)])
            assert code in (0, 1, 2), (path, value, code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            rate = path.endswith("heart_rate_bpm") and _kind(value) == "number"
            if _kind(value) != _kind(original) and not rate and code != 2:
                taken.append(f"{path}={json.dumps(value)} exited {code}")
    assert taken == []
