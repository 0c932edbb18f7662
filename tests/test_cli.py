import json
import socket
import threading
import time

import pytest

from pulsealarm import WaveformSpec, synthesize, write_waveform
from pulsealarm.cli import main


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


class TestServeSend:
    def test_loopback_round_trip(self, tmp_path):
        samples, _ = synthesize(WaveformSpec(duration_ms=10000, heart_rate_bpm=60))
        wave = tmp_path / "wave.csv"
        write_waveform(samples, wave)
        cfg = write_config(tmp_path, {
            "alarm_time_ms": 0,
            "expected_final_phase": "ringing",
        })
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        out = tmp_path / "report.jsonl"
        result = {}

        def serve():
            result["code"] = main([
                "serve", "--config", cfg, "--port", str(port), "--out", str(out),
            ])

        server = threading.Thread(target=serve)
        server.start()
        code = None
        for _ in range(50):
            time.sleep(0.1)
            code = main(["send", "--port", str(port), "--file", str(wave)])
            if code == 0:
                break
        server.join(timeout=10)
        assert code == 0
        assert result["code"] == 0
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["samples"] == 1000
        assert summary["gaps"] == 0
        assert summary["corrupt_frames"] == 0
