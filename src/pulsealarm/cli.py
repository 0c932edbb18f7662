"""Command-line entry point.

Subcommands:
    synth  generate a waveform CSV from a config's waveform spec
    run    run the full pipeline over a waveform or scenario, emit a report
    bench  compare the hysteresis detector against the naive baseline
    send   replay a waveform CSV as frames over a TCP socket
    serve  receive frames on a TCP socket and run the pipeline live

Exit codes: 0 expected final phase (or nothing to check), 1 unexpected
final phase, 2 configuration error, 3 I/O or protocol-fatal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import socket
import sys
from typing import Optional

from .bench import bench_corpus
from .detector import SchmittConfig
from .engine import EngineConfig, Phase
from .errors import (
    ConfigError,
    PulseAlarmError,
    ScenarioError,
    StreamOrderError,
    WaveformParseError,
    WaveformSpecError,
)
from .physiology import BandMode, UserProfile, satisfaction_band
from .pipeline import Pipeline, RunReport, run_pipeline
from .protocol import CorruptFrame, FrameDecoder, Gap, Resync, SampleOutcome, replay_file
from .synth import (
    StrayPulse,
    WaveformSpec,
    make_wake_scenario,
    read_waveform,
    synthesize,
    write_waveform,
)

log = logging.getLogger("pulsealarm")

EXIT_OK = 0
EXIT_UNEXPECTED_PHASE = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _strict(d: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def _load_profile(d: dict) -> UserProfile:
    _strict(d, {"age_years", "resting_bpm"}, "profile")
    try:
        return UserProfile(int(d["age_years"]), float(d["resting_bpm"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"profile: {exc}") from exc


def _load_schmitt(d: dict) -> SchmittConfig:
    _strict(d, {"upper_threshold", "lower_threshold", "refractory_ms"}, "schmitt")
    try:
        return SchmittConfig(**{k: int(v) for k, v in d.items()})
    except ValueError as exc:
        raise ConfigError(f"schmitt: {exc}") from exc


def _band_mode(engine: dict) -> BandMode:
    name = engine.get("band_mode", "fixed")
    try:
        return BandMode(name)
    except ValueError:
        raise ConfigError(f"engine.band_mode: unknown mode {name!r}") from None


def _load_engine(d: dict, profile: Optional[UserProfile]) -> EngineConfig:
    _strict(d, {"band_mode", "required_streak"}, "engine")
    mode = _band_mode(d)
    try:
        return EngineConfig(
            satisfaction_band=satisfaction_band(profile, mode),
            required_streak=int(d.get("required_streak", 3)),
        )
    except ValueError as exc:
        raise ConfigError(f"engine: {exc}") from exc


_WAVEFORM_KEYS = {
    "duration_ms", "sample_rate_hz", "heart_rate_bpm", "pulse_amplitude",
    "baseline", "pulse_width_ms", "noise_stddev", "wander_amplitude",
    "wander_period_ms", "stray_pulses", "rng_seed",
}


def _load_waveform(d: dict, seed: Optional[int]) -> WaveformSpec:
    _strict(d, _WAVEFORM_KEYS, "waveform")
    kwargs = dict(d)
    rate = kwargs.get("heart_rate_bpm")
    if isinstance(rate, list):
        kwargs["heart_rate_bpm"] = tuple((float(s), float(b)) for s, b in rate)
    strays = kwargs.get("stray_pulses")
    if strays is not None:
        kwargs["stray_pulses"] = tuple(
            StrayPulse(float(t), int(p), float(w)) for t, p, w in strays
        )
    if seed is not None:
        kwargs["rng_seed"] = seed
    return WaveformSpec(**kwargs)


_CONFIG_KEYS = {
    "profile", "schmitt", "engine", "smoothing_window", "waveform",
    "scenario", "input_path", "alarm_time_ms", "expected_final_phase",
    "output_path", "bench",
}

_SCENARIO_KEYS = {
    "exercise_bpm", "sleep_duration_ms", "exercise_duration_ms",
    "sample_rate_hz", "noise_stddev", "required_streak",
}


def _expected_phase(config: dict) -> Optional[Phase]:
    name = config.get("expected_final_phase")
    if name is None:
        return None
    try:
        return Phase(name)
    except ValueError:
        raise ConfigError(f"expected_final_phase: unknown phase {name!r}") from None


def cmd_synth(config: dict, args) -> int:
    if "waveform" not in config:
        raise ConfigError("synth requires a 'waveform' section")
    spec = _load_waveform(config["waveform"], args.seed)
    out = args.out or config.get("output_path")
    if out is None:
        raise ConfigError("synth requires --out or 'output_path'")
    samples, truth = synthesize(spec)
    write_waveform(samples, out)
    segments = ", ".join(f"{bpm:g} bpm from {start:g} ms" for start, bpm in truth.segments)
    print(f"wrote {len(samples)} samples to {out}")
    print(f"ground truth: {len(truth.beat_times_ms)} beats ({segments})")
    return EXIT_OK


def _build_run(config: dict, args) -> tuple[list, int, EngineConfig, Optional[Phase]]:
    """Resolve a run config into (samples, alarm_time, engine_config, expected)."""
    sources = [k for k in ("waveform", "scenario", "input_path") if k in config]
    if len(sources) != 1:
        raise ConfigError(
            "run requires exactly one of 'waveform', 'scenario', 'input_path'"
        )
    profile = _load_profile(config["profile"]) if "profile" in config else None
    expected = _expected_phase(config)

    if sources[0] == "scenario":
        if profile is None:
            raise ConfigError("a scenario requires a 'profile' section")
        sc = dict(config["scenario"])
        _strict(sc, _SCENARIO_KEYS, "scenario")
        engine = config.get("engine", {})
        _strict(engine, {"band_mode"}, "engine in scenario mode")
        mode = _band_mode(engine)
        if "exercise_bpm" in sc:
            sc["exercise_bpm"] = float(sc["exercise_bpm"])
        scenario = make_wake_scenario(
            profile, band_mode=mode, rng_seed=args.seed or 0, **sc
        )
        samples, _ = synthesize(scenario.spec)
        if expected is None:
            expected = scenario.expected_final_phase
        return samples, scenario.alarm_time_ms, scenario.engine_config, expected

    engine_cfg = _load_engine(config.get("engine", {}), profile)
    alarm_time = config.get("alarm_time_ms")
    if alarm_time is None:
        raise ConfigError("run requires 'alarm_time_ms' unless using a scenario")
    if sources[0] == "waveform":
        samples, _ = synthesize(_load_waveform(config["waveform"], args.seed))
    else:
        samples = read_waveform(config["input_path"])
    return samples, int(alarm_time), engine_cfg, expected


def _finish_run(report: RunReport, config: dict, args, expected: Optional[Phase]) -> int:
    out = args.out or config.get("output_path")
    if out:
        with open(out, "w", newline="\n") as f:
            f.write(report.to_jsonl())
    print(report.summary_text())
    if expected is not None and report.final_phase is not expected:
        print(f"final phase {report.final_phase.value}, expected {expected.value}")
        return EXIT_UNEXPECTED_PHASE
    return EXIT_OK


def cmd_run(config: dict, args) -> int:
    samples, alarm_time, engine_cfg, expected = _build_run(config, args)
    schmitt = _load_schmitt(config.get("schmitt", {}))
    smoothing = int(config.get("smoothing_window", 5))
    report = run_pipeline(samples, schmitt, engine_cfg, alarm_time, smoothing)
    return _finish_run(report, config, args, expected)


def cmd_bench(config: dict, args) -> int:
    if "bench" not in config:
        raise ConfigError("bench requires a 'bench' section")
    b = dict(config["bench"])
    _strict(
        b,
        {"base", "stray_counts", "noise_levels", "runs_per_cell",
         "naive_threshold", "stray_peak", "stray_width_ms", "match_tolerance_ms"},
        "bench",
    )
    schmitt = _load_schmitt(config.get("schmitt", {}))
    base = _load_waveform(b.get("base", {"duration_ms": 30000}), args.seed)
    rows = bench_corpus(
        base_spec=base,
        stray_counts=b.get("stray_counts", [0, 10, 20]),
        noise_levels=b.get("noise_levels", [0.0, 4.0, 8.0]),
        runs_per_cell=int(b.get("runs_per_cell", 5)),
        schmitt=schmitt,
        naive_threshold=int(b.get("naive_threshold", 500)),
        stray_peak=int(b.get("stray_peak", 510)),
        stray_width_ms=float(b.get("stray_width_ms", 80.0)),
        match_tolerance_ms=float(b.get("match_tolerance_ms", 100.0)),
        seed=args.seed or 0,
    )
    header = "strays,noise_stddev,schmitt_false,schmitt_missed,naive_false,naive_missed"
    lines = [header] + [
        f"{r.stray_count},{r.noise_stddev:g},{r.schmitt_false},"
        f"{r.schmitt_missed},{r.naive_false},{r.naive_missed}"
        for r in rows
    ]
    csv_text = "\n".join(lines) + "\n"
    out = args.out or config.get("output_path")
    if out:
        with open(out, "w", newline="\n") as f:
            f.write(csv_text)
    print(f"{'strays':>7} {'noise':>7} {'schmitt F/M':>12} {'naive F/M':>12}")
    for r in rows:
        print(
            f"{r.stray_count:>7} {r.noise_stddev:>7g} "
            f"{f'{r.schmitt_false}/{r.schmitt_missed}':>12} "
            f"{f'{r.naive_false}/{r.naive_missed}':>12}"
        )
    return EXIT_OK


def _resolve_port(args) -> int:
    if args.port is not None:
        return args.port
    env = os.environ.get("PULSEALARM_PORT")
    if env is not None:
        return int(env)
    raise ConfigError("no port given (--port or PULSEALARM_PORT)")


def cmd_send(args) -> int:
    port = _resolve_port(args)
    with socket.create_connection((args.host, port)) as sock:
        sent = replay_file(args.file, sock.sendall, speed=args.speed)
    print(f"sent {sent} frames to {args.host}:{port}")
    return EXIT_OK


def cmd_serve(config: dict, args) -> int:
    port = _resolve_port(args)
    profile = _load_profile(config["profile"]) if "profile" in config else None
    engine_cfg = _load_engine(config.get("engine", {}), profile)
    schmitt = _load_schmitt(config.get("schmitt", {}))
    alarm_time = int(config.get("alarm_time_ms", 0))
    smoothing = int(config.get("smoothing_window", 5))
    expected = _expected_phase(config)

    pipeline = Pipeline(schmitt, engine_cfg, alarm_time, smoothing)
    decoder = FrameDecoder()
    gaps = corrupt = resyncs = 0
    with socket.create_server(("", port)) as server:
        actual_port = server.getsockname()[1]
        log.info("listening on port %d", actual_port)
        print(f"listening on port {actual_port}", flush=True)
        conn, peer = server.accept()
        log.info("connection from %s", peer)
        with conn:
            while True:
                data = conn.recv(4096)
                if not data:
                    break
                for outcome in decoder.feed(data):
                    if isinstance(outcome, SampleOutcome):
                        pipeline.push(outcome.sample)
                    elif isinstance(outcome, Gap):
                        gaps += 1
                    elif isinstance(outcome, CorruptFrame):
                        corrupt += 1
                    elif isinstance(outcome, Resync):
                        resyncs += 1
    report = pipeline.report(gap_count=gaps, corrupt_count=corrupt, resync_count=resyncs)
    return _finish_run(report, config, args, expected)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsealarm",
        description="Pulse-detection and heart-rate-gated alarm toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("synth", help="generate a waveform CSV")
    add_common(p)
    p = sub.add_parser("run", help="run the pipeline end to end")
    add_common(p)
    p = sub.add_parser("bench", help="compare detectors on a stray-pulse corpus")
    add_common(p)

    p = sub.add_parser("send", help="replay a waveform file over TCP")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--file", required=True)
    p.add_argument("--speed", type=float, default=0.0,
                   help="real-time multiplier, 0 = no pacing")

    p = sub.add_parser("serve", help="receive frames and run the pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("PULSEALARM_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        if args.command == "send":
            return cmd_send(args)
        config = _load_json(args.config)
        _strict(config, _CONFIG_KEYS, "config")
        if args.command == "synth":
            return cmd_synth(config, args)
        if args.command == "run":
            return cmd_run(config, args)
        if args.command == "bench":
            return cmd_bench(config, args)
        return cmd_serve(config, args)
    except (ConfigError, WaveformSpecError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, WaveformParseError, StreamOrderError, PulseAlarmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
