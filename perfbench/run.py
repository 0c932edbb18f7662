"""Seeded end-to-end and per-layer benchmark of the pulse -> alarm pipeline.

    python3 perfbench/run.py --workload wake_csv --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src and the
oracle from ./tests/oracle.py. One run sets up the workload's inputs
(several times, for a steady set-up time), measures closed-loop passes for
the given seconds, checks every pass's output, and prints one line per
metric followed by a JSON result as the last line. --trace 1 adds one traced set-up and pass and
reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOAD_NAMES = ("wake_csv", "wire_clean", "wire_lossy", "detector_sweep")

END_TO_END = {
    "setup_s": "s",
    "us_per_sample": "us",
    "chunk_latency_p50_us": "us",
    "chunk_latency_p99_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "synth.synthesize.us_per_sample": "us",
    "synth.read_waveform.us_per_sample": "us",
    "synth.samples": "count",
    "protocol.feed.us_per_frame": "us",
    "protocol.encode.us_per_frame": "us",
    "protocol.frames_ok": "count",
    "protocol.corrupt_frames": "count",
    "protocol.gaps": "count",
    "protocol.resyncs": "count",
    "protocol.skipped_bytes": "count",
    "protocol.false_accepts": "count",
    "protocol.yield": "ratio",
    "detector.schmitt_step.us_per_sample": "us",
    "detector.estimator.us_per_beat": "us",
    "detector.detect_beats.us_per_sample": "us",
    "detector.naive_detect_beats.us_per_sample": "us",
    "detector.beats": "count",
    "detector.readings.valid": "count",
    "detector.readings.rejected_low": "count",
    "detector.readings.rejected_high": "count",
    "engine.step.us_per_event": "us",
    "engine.events": "count",
    "engine.transitions": "count",
    "engine.useful_ratio": "ratio",
    "pipeline.push.self_us_per_sample": "us",
    "pipeline.to_jsonl.ms": "ms",
    "pipeline.report_bytes": "bytes",
    "pipeline.refused_samples": "count",
    "bench.place_strays.ms": "ms",
    "bench.match_beats.us_per_beat": "us",
    "cli.run.self_ms": "ms",
    "trace.overhead_us_per_sample": "us",
    "error_rate": "ratio",
}

IMPORT_REPEATS = 5  # fresh interpreters timing `import pulsealarm`
BUILD_REPEATS = 3  # input builds per run; set-up reports the medians
MIN_PASSES = 3  # closed-loop passes per run, however long they take


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_import(watch) -> float:
    """Reference seconds a fresh interpreter takes to import the package."""
    code = (
        "import time; t = time.perf_counter(); import pulsealarm; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = watch.scale()
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout) * (before + watch.scale()) / 2


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a checkout without git metadata
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def layer_metrics(tracer, speed: float, counts: dict, overhead_us: float, error_rate: float) -> dict:
    """Per-layer metrics; span times are scaled to reference time by speed."""

    def per_unit(name, scale, self_time=False):
        s = tracer.stats(name)
        return s.per_unit(s.self_ns if self_time else s.total_ns, scale / speed)

    events = tracer.stats("engine.step").calls
    m = {
        "synth.synthesize.us_per_sample": per_unit("synth.synthesize", 1e3),
        "synth.read_waveform.us_per_sample": per_unit("synth.read_waveform", 1e3),
        "synth.samples": tracer.stats("synth.synthesize").units,
        "protocol.feed.us_per_frame": per_unit("protocol.feed", 1e3),
        "protocol.encode.us_per_frame": per_unit("protocol.encode", 1e3),
        "detector.schmitt_step.us_per_sample": per_unit("detector.schmitt_step", 1e3),
        "detector.estimator.us_per_beat": per_unit("detector.estimator", 1e3),
        "detector.detect_beats.us_per_sample": per_unit("detector.detect_beats", 1e3),
        "detector.naive_detect_beats.us_per_sample": per_unit("detector.naive_detect_beats", 1e3),
        "engine.step.us_per_event": per_unit("engine.step", 1e3),
        "engine.events": events,
        "engine.useful_ratio": counts.get("engine.useful_events", 0) / events if events else 0.0,
        "pipeline.push.self_us_per_sample": per_unit("pipeline.push", 1e3, self_time=True),
        "pipeline.to_jsonl.ms": per_unit("pipeline.to_jsonl", 1e6),
        "bench.place_strays.ms": per_unit("bench.place_strays", 1e6),
        "bench.match_beats.us_per_beat": per_unit("bench.match_beats", 1e3),
        "cli.run.self_ms": per_unit("cli.main", 1e6, self_time=True),
        "trace.overhead_us_per_sample": overhead_us,
        "error_rate": error_rate,
    }
    for name in PER_LAYER:
        m.setdefault(name, counts.get(name, 0))
    return m


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.calibrate import Stopwatch
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    watch = Stopwatch()
    lines = [f"env {json.dumps(environment(seed), sort_keys=True)}"]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)

        import_s = statistics.median(time_import(watch) for _ in range(IMPORT_REPEATS))
        build_ns = []
        for _ in range(BUILD_REPEATS):
            inp, ns = watch.time(workload.build, seed, workdir)
            build_ns.append(ns)
        setup_s = import_s + statistics.median(build_ns) / 1e9
        # Keep the benchmark's own inputs out of the program's full garbage
        # collections: a real `run` or `serve` process does not hold them.
        gc.collect()
        gc.freeze()

        passes = []  # PassResult, or None for a pass that raised
        deadline = perf_counter() + seconds
        while len(passes) < MIN_PASSES or perf_counter() < deadline:
            try:
                passes.append(workload.run_pass(inp, watch))
            except Exception:  # a raising run is counted as failed, not fatal
                traceback.print_exc()
                passes.append(None)

        done = [r for r in passes if r is not None]
        if not done:
            raise SystemExit(f"error: every {workload_name} pass raised")
        problems, check_counts = workload.check(inp, done[0])
        attempted = failed = 0
        for r in passes:
            attempted += 1 + (r.offered if r else 0)
            bad = r is None or bool(problems) or r.output != done[0].output
            failed += int(bad) + (r.refused if r else 0)
        us_per_sample = [r.ns / r.offered / 1e3 for r in done]

        latencies = [ns for r in done for ns in r.unit_ns]
        lines.append(f"chunk = {workload.unit}: {len(latencies)} samples")
        lines.append(f"passes = {len(passes)}")
        lines.extend(f"check failed: {p}" for p in problems)

        if not trace:
            metrics = {
                "setup_s": setup_s,
                "us_per_sample": statistics.median(us_per_sample),
                "chunk_latency_p50_us": float(numpy.percentile(latencies, 50)) / 1e3,
                "chunk_latency_p99_us": float(numpy.percentile(latencies, 99)) / 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        else:
            tracer = Tracer()
            counts = dict(check_counts)
            speed = watch.scale()
            with tracer.installed(workload.patches(counts)):
                traced_inp = workload.build(seed, workdir, tracer)
                traced = workload.run_pass(traced_inp, watch, tracer)
            speed = (speed + watch.scale()) / 2
            counts.update(traced.counts)
            overhead = traced.ns / traced.offered / 1e3 - statistics.median(us_per_sample)
            metrics = layer_metrics(tracer, speed, counts, overhead, failed / attempted)
            units = PER_LAYER
            lines.append(f"absent spans: {', '.join(tracer.absent()) or 'none'}")
            lines.extend(f"missing span target: {n} ({t})" for n, t in tracer.missing.items())
            for name, s in sorted(tracer.spans.items()):
                lines.append(
                    f"span {name}: calls={s.calls} units={s.units} "
                    f"total_ms={s.total_ns / 1e6:.3f} self_ms={s.self_ns / 1e6:.3f}"
                )

    lines.extend(f"{name} = {metrics[name]!r} {unit}" for name, unit in units.items())
    for line in lines:
        print(line)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pulsealarm" / "__init__.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"error: {ROOT} lacks src/pulsealarm or tests/oracle.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
