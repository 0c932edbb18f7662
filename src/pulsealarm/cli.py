"""Command-line entry point.

Subcommands:
    synth  generate a waveform CSV from a config's waveform spec
    run    run the full pipeline over a waveform or scenario, emit a report
    bench  compare the hysteresis detector against the naive baseline
    send   replay a waveform CSV as frames over a TCP socket
    serve  receive frames on a TCP socket and run the pipeline live

`run` and `serve` share one config loader. A `scenario` sets the alarm
time, the required streak and the expected phase; without one
`alarm_time_ms` is required. `--out` names the output, and `--seed` (not
on `serve`) overrides every seed the command synthesizes from. `serve`
takes its samples from the socket, so it refuses a `waveform` or
`input_path`; it hands each recv to a StreamSession, which owns the
decoding, the pushing and the dropping of samples whose time does not
advance, and logs the dropped count at WARNING. It waits IDLE_TIMEOUT_S
for a sender (else exit 3) and for data (else, or on a reset, closed).

Exit codes: 0 expected final phase (or nothing to check), 1 unexpected
final phase, 2 configuration error (a malformed config or value, a value a
`scenario` or the bench grid sets, a bad PULSEALARM_PORT, PULSEALARM_LOG,
`--seed` or `send --speed`), 3 I/O, protocol-fatal or out-of-memory error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import socket
import sys
from dataclasses import replace
from typing import Optional

from .bench import bench_corpus
from .detector import _SMOOTHING_WINDOW, BpmEstimator, SchmittConfig
from .engine import EngineConfig, Phase
from .errors import ConfigError, PulseAlarmError
from .physiology import BandMode, UserProfile, satisfaction_band
from .pipeline import RunReport, StreamSession, run_pipeline
from .protocol import replay_file
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


def _scalar(kind, name: str, convert):
    """A check for a JSON value of `kind`, returned as convert(value). Config
    values are checked, never coerced, and a bool is not a number."""
    def check_scalar(value):
        if not isinstance(value, kind) or isinstance(value, bool):
            raise TypeError(f"expected {name}, got {value!r}")
        return convert(value)
    return check_scalar


_int = _scalar(int, "an integer", int)
_number = _scalar((int, float), "a number", float)
_str = _scalar(str, "a string", str)


def _list(check):
    """A check for a JSON list whose every item passes `check`."""
    def check_list(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(check(v) for v in value)
    return check_list


def _row(build, *checks):
    """A check for a JSON list of one value per check, built by build(*values)."""
    def check_row(value):
        if not isinstance(value, list) or len(value) != len(checks):
            raise TypeError(f"expected a list of {len(checks)} values, got {value!r}")
        return build(*(check(v) for check, v in zip(checks, value)))
    return check_row


def _rate(value):
    """A constant bpm, or a schedule of [start_ms, bpm] segments."""
    if isinstance(value, list):
        return _list(_row(lambda *segment: segment, _number, _number))(value)
    return _number(value)


def _object(build, **checks):
    """A check for a JSON object with only the keys of `checks`: each value
    passes its key's check, and the checked values are built by build(**values)."""
    def check_object(value):
        if not isinstance(value, dict):
            raise TypeError(f"must be an object, got {value!r}")
        checked = {}
        for key, v in value.items():
            with _values(key):
                if key not in checks:
                    raise ValueError("unknown key")
                checked[key] = checks[key](v)
        return build(**checked)
    return check_object


@contextlib.contextmanager
def _values(where: str):
    """Report a bad value met while checking config or building objects from
    it as ConfigError("<where>: ..."). Wrap no I/O and no pipeline work in
    it, so a runtime fault is never reported as a config error."""
    try:
        yield
    except (ConfigError, TypeError, ValueError, LookupError, ArithmeticError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# The WaveformSpec fields that bench.base takes: bench_corpus sets the noise,
# the strays and the seed of each cell, so the base does not.
_SHAPE = dict(
    duration_ms=_int, sample_rate_hz=_number, heart_rate_bpm=_rate, pulse_amplitude=_int,
    baseline=_int, pulse_width_ms=_number, wander_amplitude=_number, wander_period_ms=_number,
)
# Every config key, its check and what it builds. An absent key takes its
# default where it is read, the scenario's and bench's in their functions.
_CONFIG = _object(
    dict,
    profile=_object(UserProfile, age_years=_int, resting_bpm=_number),
    schmitt=_object(SchmittConfig, upper_threshold=_int, lower_threshold=_int, refractory_ms=_int),
    engine=_object(dict, band_mode=BandMode, required_streak=_int),
    smoothing_window=_int,
    waveform=_object(
        WaveformSpec, **_SHAPE, noise_stddev=_number,
        stray_pulses=_list(_row(StrayPulse, _number, _int, _number)), rng_seed=_int,
    ),
    scenario=_object(
        dict, exercise_bpm=_number, sleep_duration_ms=_int, exercise_duration_ms=_int,
        sample_rate_hz=_number, noise_stddev=_number, required_streak=_int,
    ),
    input_path=_str,
    alarm_time_ms=_int,
    expected_final_phase=Phase,
    bench=_object(
        dict, base=_object(WaveformSpec, **_SHAPE), stray_counts=_list(_int),
        noise_levels=_list(_number), runs_per_cell=_int, naive_threshold=_int, stray_peak=_int,
        stray_width_ms=_number, match_tolerance_ms=_number,
    ),
)


def _load_json(path: str) -> dict:
    """The config at path, every value checked and built by _CONFIG."""
    try:
        with open(path) as f:
            return _CONFIG(json.load(f))
    except (TypeError, ValueError, RecursionError) as exc:  # malformed or too deeply nested
        raise ConfigError(f"{path}: {exc}") from exc


def cmd_synth(config: dict, args) -> int:
    if "waveform" not in config:
        raise ConfigError("synth requires a 'waveform' section")
    spec = config["waveform"]
    if args.out is None:
        raise ConfigError("synth requires --out")
    with _values("waveform"):
        samples, truth = synthesize(spec)
    write_waveform(samples, args.out)
    segments = ", ".join(f"{bpm:g} bpm from {start:g} ms" for start, bpm in spec.segments())
    print(f"wrote {len(samples)} samples to {args.out}")
    print(f"ground truth: {len(truth.beat_times_ms)} beats ({segments})")
    return EXIT_OK


def _load_run(config: dict, command: str) -> tuple[tuple, Optional[WaveformSpec], Optional[Phase]]:
    """A `run` or `serve` config's pipeline arguments (run_pipeline's after the
    samples), the waveform `run` synthesizes (None: it reads `input_path`) and
    the expected final phase (None: nothing to check)."""
    sources = [k for k in ("waveform", "input_path", "scenario") if k in config]
    if command == "serve" and sources and sources[0] != "scenario":
        raise ConfigError(f"{sources[0]}: serve takes its samples from the socket")
    if command == "run" and len(sources) != 1:
        raise ConfigError("run takes exactly one of 'waveform', 'scenario', 'input_path'")
    profile = config.get("profile")
    engine = dict(config.get("engine", {}))
    mode = engine.pop("band_mode", BandMode.FIXED)  # leaves EngineConfig's keys
    expected = config.get("expected_final_phase")
    spec = config.get("waveform")
    if "scenario" in config:
        if profile is None:
            raise ConfigError("scenario: requires a 'profile' section")
        if "required_streak" in engine:
            raise ConfigError("engine: required_streak is set by the scenario")
        if "alarm_time_ms" in config:
            raise ConfigError("alarm_time_ms: set by the scenario")
        with _values("scenario"):
            scenario = make_wake_scenario(profile, band_mode=mode, **config["scenario"])
        spec, alarm_time = scenario.spec, scenario.alarm_time_ms
        engine_cfg = scenario.engine_config
        if expected is None:
            expected = scenario.expected_final_phase
    else:
        with _values("engine"):
            engine_cfg = EngineConfig(satisfaction_band(profile, mode), **engine)
        if "alarm_time_ms" not in config:
            raise ConfigError(f"alarm_time_ms: {command} requires it unless using a scenario")
        alarm_time = config["alarm_time_ms"]
    window = config.get("smoothing_window", _SMOOTHING_WINDOW)
    with _values("smoothing_window"):
        BpmEstimator(window)  # refuses a bad window at load, before any sample is read
    return (config.get("schmitt", SchmittConfig()), engine_cfg, alarm_time, window), spec, expected


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
    pipeline_args, spec, expected = _load_run(config, "run")
    if spec is None:
        samples = read_waveform(config["input_path"])
    else:
        with _values("scenario" if "scenario" in config else "waveform"):
            samples = synthesize(spec)[0]
    return _finish_run(run_pipeline(samples, *pipeline_args), args.out, expected)


def cmd_bench(config: dict, args) -> int:
    if "bench" not in config:
        raise ConfigError("bench requires a 'bench' section")
    kwargs = dict(config["bench"])
    base = kwargs.pop("base", WaveformSpec(duration_ms=30000))
    # bench_corpus only synthesizes and detects, so any bad value it meets
    # comes from this section
    with _values("bench"):
        rows = bench_corpus(base, schmitt=config.get("schmitt", SchmittConfig()), **kwargs)
    header = "strays,noise_stddev,schmitt_false,schmitt_missed,naive_false,naive_missed"
    lines = [header] + [
        f"{r.stray_count},{r.noise_stddev:g},{r.schmitt_false},"
        f"{r.schmitt_missed},{r.naive_false},{r.naive_missed}"
        for r in rows
    ]
    if args.out:
        with open(args.out, "w", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
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
    pipeline_args, _, expected = _load_run(config, "serve")
    port = _resolve_port(args)
    session = StreamSession(*pipeline_args)
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
                    session.receive(data)
            except TimeoutError:  # a stalled sender ends the stream like a close
                log.warning("no data for %g s; closing the connection", IDLE_TIMEOUT_S)
            except ConnectionError as exc:  # and so does a reset
                log.warning("connection lost (%s); ending the stream", exc)
        if session.dropped:
            log.warning("dropped %d samples whose time did not advance", session.dropped)
    return _finish_run(session.report(), args.out, expected)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsealarm",
        description="Pulse-detection and heart-rate-gated alarm toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        p.add_argument("--config", required=True, help="JSON config file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument("--out", default=None, help="output file path")

    add_common(sub.add_parser("synth", help="generate a waveform CSV"))
    add_common(sub.add_parser("run", help="run the pipeline end to end"))
    add_common(sub.add_parser("bench", help="compare detectors on a stray-pulse corpus"))

    p = sub.add_parser("send", help="replay a waveform file over TCP")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--file", required=True)
    p.add_argument("--speed", type=float, default=0.0,
                   help="real-time multiplier, 0 = no pacing")

    p = sub.add_parser("serve", help="receive frames and run the pipeline")
    add_common(p, seed=False)  # serve synthesizes nothing
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
        if args.command != "serve" and args.seed is not None:
            # replaces the seed of every section that synthesizes
            with _values("--seed"):
                if args.seed < 0:
                    raise ValueError(f"must be non-negative, got {args.seed}")
                if "waveform" in config:
                    config["waveform"] = replace(config["waveform"], rng_seed=args.seed)
                for section, name in (("scenario", "rng_seed"), ("bench", "seed")):
                    if section in config:
                        config[section][name] = args.seed
        commands = {"synth": cmd_synth, "run": cmd_run, "bench": cmd_bench, "serve": cmd_serve}
        return commands[args.command](config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, MemoryError, PulseAlarmError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
