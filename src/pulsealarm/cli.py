"""Command-line entry point.

Subcommands:
    synth  generate a waveform CSV from a config's waveform spec
    run    run the full pipeline over a waveform or scenario, emit a report
    bench  compare the hysteresis detector against the naive baseline
    send   replay a waveform CSV as frames over a TCP socket
    serve  receive frames on a TCP socket and run the pipeline live

`run` and `serve` share one config loader: a `scenario` sets the alarm
time, the engine config and the expected phase, else `alarm_time_ms` is
required. `serve` needs no sample source, and it drops samples whose time
does not advance, logging their count at WARNING, instead of aborting. It
waits IDLE_TIMEOUT_S for a sender (else exit 3) and for data (else closed).

Exit codes: 0 expected final phase (or nothing to check), 1 unexpected
final phase, 2 configuration error (any malformed config value,
PULSEALARM_PORT, PULSEALARM_LOG or `send --speed`), 3 I/O or
protocol-fatal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import socket
import sys
from dataclasses import fields
from typing import Optional

from .bench import bench_corpus
from .detector import Sample, SchmittConfig
from .engine import EngineConfig, Phase
from .errors import ConfigError, PulseAlarmError, ScenarioError, StreamOrderError
from .physiology import BandMode, UserProfile, satisfaction_band
from .pipeline import Pipeline, RunReport
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

IDLE_TIMEOUT_S = 60.0  # serve's wait for a connection, and for data on it

_CONFIG_KEYS = (
    "profile", "schmitt", "engine", "smoothing_window", "waveform",
    "scenario", "input_path", "alarm_time_ms", "expected_final_phase",
    "output_path", "bench",
)


# Config values are checked, never coerced: a JSON integer where an int is
# wanted, a JSON number (int or float) where a float is. A bool is neither.
def _int(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _list(value, kind) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return [kind(v) for v in value]


_SCENARIO_VALUES = {  # scenario key -> check; make_wake_scenario owns the defaults
    "exercise_bpm": _number, "sleep_duration_ms": _int, "exercise_duration_ms": _int,
    "sample_rate_hz": _number, "noise_stddev": _number, "required_streak": _int,
}
_BENCH_VALUES = {  # bench key -> check; bench_corpus owns the defaults
    "stray_counts": lambda v: _list(v, _int), "noise_levels": lambda v: _list(v, _number),
    "runs_per_cell": _int, "naive_threshold": _int, "stray_peak": _int,
    "stray_width_ms": _number, "match_tolerance_ms": _number,
}


def _section(config: dict, name: str, keys) -> dict:
    """config[name] ({} if absent), checked to be an object with only `keys`."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be an object, got {section!r}")
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"{name}: unknown keys {', '.join(unknown)}")
    return section


@contextlib.contextmanager
def _values(where: str):
    """Report a bad value met while building objects from config as
    ConfigError("<where>: ..."). Wrap no I/O and no pipeline work in it, so
    a runtime fault is never reported as a config error."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError, LookupError, ArithmeticError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            data = json.load(f)
    except ValueError as exc:  # malformed JSON or text
        raise ConfigError(f"{path}: {exc}") from exc
    return _section({"config": data}, "config", _CONFIG_KEYS)


def _path(config: dict, key: str) -> Optional[str]:
    """config[key] if present, which must then be a string."""
    path = config.get(key)
    if key in config and not isinstance(path, str):
        raise ConfigError(f"{key}: must be a string, got {path!r}")
    return path


def _schmitt(config: dict) -> SchmittConfig:
    section = _section(config, "schmitt", [f.name for f in fields(SchmittConfig)])
    with _values("schmitt"):
        return SchmittConfig(**{k: _int(v) for k, v in section.items()})


def _waveform(config: dict, name: str, seed: Optional[int]) -> WaveformSpec:
    kwargs = dict(_section(config, name, [f.name for f in fields(WaveformSpec)]))
    with _values(name):
        if isinstance(kwargs.get("heart_rate_bpm"), list):
            kwargs["heart_rate_bpm"] = tuple(map(tuple, kwargs["heart_rate_bpm"]))
        if "stray_pulses" in kwargs:
            kwargs["stray_pulses"] = tuple(
                StrayPulse(_number(t), _int(p), _number(w)) for t, p, w in kwargs["stray_pulses"]
            )
        if seed is not None:
            kwargs["rng_seed"] = seed
        return WaveformSpec(**kwargs)


def cmd_synth(config: dict, args) -> int:
    if "waveform" not in config:
        raise ConfigError("synth requires a 'waveform' section")
    spec = _waveform(config, "waveform", args.seed)
    out = args.out or _path(config, "output_path")
    if out is None:
        raise ConfigError("synth requires --out or 'output_path'")
    with _values("waveform"):
        samples, truth = synthesize(spec)
    write_waveform(samples, out)
    segments = ", ".join(f"{bpm:g} bpm from {start:g} ms" for start, bpm in spec.segments())
    print(f"wrote {len(samples)} samples to {out}")
    print(f"ground truth: {len(truth.beat_times_ms)} beats ({segments})")
    return EXIT_OK


def _load_run(
    config: dict, args, command: str
) -> tuple[Pipeline, Optional[list[Sample]], Optional[Phase]]:
    """The pipeline a `run` or `serve` config describes, the samples `run`
    feeds it (None for `serve`, whose samples come off the socket), and the
    expected final phase (None: nothing to check)."""
    sources = [k for k in ("waveform", "scenario", "input_path") if k in config]
    if len(sources) > 1 or (command == "run" and not sources):
        raise ConfigError(
            f"{command} takes {'exactly' if command == 'run' else 'at most'} "
            "one of 'waveform', 'scenario', 'input_path'"
        )
    profile = None
    if "profile" in config:
        section = _section(config, "profile", ("age_years", "resting_bpm"))
        with _values("profile"):
            profile = UserProfile(_int(section["age_years"]), _number(section["resting_bpm"]))
    scenario_mode = "scenario" in config
    # a scenario sets its own required_streak
    engine_keys = ("band_mode",) if scenario_mode else ("band_mode", "required_streak")
    engine = _section(config, "engine", engine_keys)
    with _values("engine"):
        mode = BandMode(engine.get("band_mode", "fixed"))
    with _values("expected_final_phase"):
        name = config.get("expected_final_phase")
        expected = None if name is None else Phase(name)
    schmitt = _schmitt(config)

    spec = None
    if scenario_mode:
        if profile is None:
            raise ConfigError("scenario: requires a 'profile' section")
        section = _section(config, "scenario", _SCENARIO_VALUES)
        with _values("scenario"):
            kwargs = {k: _SCENARIO_VALUES[k](v) for k, v in section.items()}
            scenario = make_wake_scenario(
                profile, band_mode=mode, rng_seed=args.seed or 0, **kwargs
            )
        spec, alarm_time = scenario.spec, scenario.alarm_time_ms
        engine_cfg = scenario.engine_config
        if expected is None:
            expected = scenario.expected_final_phase
    else:
        with _values("engine"):
            engine_cfg = EngineConfig(
                satisfaction_band(profile, mode), _int(engine.get("required_streak", 3))
            )
        if "alarm_time_ms" not in config:
            raise ConfigError(f"alarm_time_ms: {command} requires it unless using a scenario")
        with _values("alarm_time_ms"):
            alarm_time = _int(config["alarm_time_ms"])
        if "waveform" in config:
            spec = _waveform(config, "waveform", args.seed)
    with _values("smoothing_window"):
        pipeline = Pipeline(
            schmitt, engine_cfg, alarm_time, _int(config.get("smoothing_window", 5))
        )
    if command == "serve":
        return pipeline, None, expected
    if spec is None:
        return pipeline, read_waveform(_path(config, "input_path")), expected
    with _values(sources[0]):
        return pipeline, synthesize(spec)[0], expected


def _finish_run(report: RunReport, out: Optional[str], expected: Optional[Phase]) -> int:
    if out:
        with open(out, "w", newline="\n") as f:
            f.write(report.to_jsonl())
    print(report.summary_text())
    if expected is not None and report.final_phase is not expected:
        print(f"final phase {report.final_phase.value}, expected {expected.value}")
        return EXIT_UNEXPECTED_PHASE
    return EXIT_OK


def cmd_run(config: dict, args) -> int:
    pipeline, samples, expected = _load_run(config, args, "run")
    out = args.out or _path(config, "output_path")
    for sample in samples:
        pipeline.push(sample)
    return _finish_run(pipeline.report(), out, expected)


def cmd_bench(config: dict, args) -> int:
    if "bench" not in config:
        raise ConfigError("bench requires a 'bench' section")
    b = _section(config, "bench", ("base", *_BENCH_VALUES))
    base = _waveform({"base": {"duration_ms": 30000}, **b}, "base", args.seed)
    schmitt = _schmitt(config)
    out = args.out or _path(config, "output_path")
    # bench_corpus only synthesizes and detects, so any bad value it meets
    # comes from this section
    with _values("bench"):
        kwargs = {k: check(b[k]) for k, check in _BENCH_VALUES.items() if k in b}
        rows = bench_corpus(base, schmitt=schmitt, seed=args.seed or 0, **kwargs)
    header = "strays,noise_stddev,schmitt_false,schmitt_missed,naive_false,naive_missed"
    lines = [header] + [
        f"{r.stray_count},{r.noise_stddev:g},{r.schmitt_false},"
        f"{r.schmitt_missed},{r.naive_false},{r.naive_missed}"
        for r in rows
    ]
    csv_text = "\n".join(lines) + "\n"
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
    port = args.port if args.port is not None else os.environ.get("PULSEALARM_PORT")
    if port is None:
        raise ConfigError("no port given (--port or PULSEALARM_PORT)")
    with _values("--port" if args.port is not None else "PULSEALARM_PORT"):
        if not 0 <= int(port) <= 65535:
            raise ValueError(f"port {port} outside [0, 65535]")
    return int(port)


def cmd_send(args) -> int:
    port = _resolve_port(args)
    if not args.speed >= 0:  # NaN included
        raise ConfigError(f"--speed: must be >= 0, got {args.speed:g}")
    with contextlib.ExitStack() as stack:
        def connect():  # called only once the whole CSV has been read and checked
            return stack.enter_context(socket.create_connection((args.host, port))).sendall

        sent = replay_file(args.file, connect, speed=args.speed)
    print(f"sent {sent} frames to {args.host}:{port}")
    return EXIT_OK


def cmd_serve(config: dict, args) -> int:
    port = _resolve_port(args)
    pipeline, _, expected = _load_run(config, args, "serve")
    out = args.out or _path(config, "output_path")
    decoder = FrameDecoder()
    gaps = corrupt = resyncs = dropped = 0
    with socket.create_server(("", port)) as server:
        actual_port = server.getsockname()[1]
        log.info("listening on port %d", actual_port)
        print(f"listening on port {actual_port}", flush=True)
        server.settimeout(IDLE_TIMEOUT_S)
        try:
            conn, peer = server.accept()
        except TimeoutError:
            raise PulseAlarmError(f"no connection within {IDLE_TIMEOUT_S:g} s") from None
        log.info("connection from %s", peer)
        with conn:
            conn.settimeout(IDLE_TIMEOUT_S)
            try:
                while data := conn.recv(4096):
                    for outcome in decoder.feed(data):
                        if isinstance(outcome, SampleOutcome):
                            try:
                                pipeline.push(outcome.sample)
                            except StreamOrderError:  # a duplicated or reordered frame
                                dropped += 1
                        elif isinstance(outcome, Gap):
                            gaps += 1
                        elif isinstance(outcome, CorruptFrame):
                            corrupt += 1
                        elif isinstance(outcome, Resync):
                            resyncs += 1
            except TimeoutError:  # a stalled sender ends the stream like a close
                log.warning("no data for %g s; closing the connection", IDLE_TIMEOUT_S)
        if dropped:
            log.warning("dropped %d samples whose time did not advance", dropped)
    report = pipeline.report(gap_count=gaps, corrupt_count=corrupt, resync_count=resyncs)
    return _finish_run(report, out, expected)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsealarm",
        description="Pulse-detection and heart-rate-gated alarm toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
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
    add_common(p)
    p.add_argument("--port", type=int, default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the level goes on our own logger: basicConfig ignores its level
        # when the host process has already given the root logger a handler
        with _values("PULSEALARM_LOG"):
            log.setLevel(os.environ.get("PULSEALARM_LOG", "WARNING").upper())
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        if args.command == "send":
            return cmd_send(args)
        config = _load_json(args.config)
        commands = {"synth": cmd_synth, "run": cmd_run, "bench": cmd_bench, "serve": cmd_serve}
        return commands[args.command](config, args)
    except (ConfigError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, PulseAlarmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
