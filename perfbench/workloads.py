"""The four benchmark workloads: inputs, one closed-loop pass, output
checks against independent references, and the spans to trace.

wake_csv        `pulsealarm run` on a CSV: CSV parsing, detector, engine,
                report. No protocol work, so a decoder change must not move it.
wire_clean      the same scenario as 9-byte frames through FrameDecoder.feed
                in 4096-byte chunks and Pipeline.push, as `serve` does
                without the socket: adds the decoder to the blocking path.
                Loopback TCP on 2 shared cores would measure the scheduler.
wire_lossy      those frames after a seeded lossy channel: the decoder's
                sync hunt and rescans after corrupt frames dominate.
detector_sweep  bench_corpus over a stray-count x noise grid, the
                `pulsealarm bench` path: synthesis and the batch detectors;
                the engine and protocol do nothing, so an engine change must
                not move it.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import importlib.util
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import pulsealarm.bench
import pulsealarm.cli
import pulsealarm.detector
import pulsealarm.pipeline
from pulsealarm import (
    BpmEstimator,
    CorruptFrame,
    FrameDecoder,
    Gap,
    LogTransition,
    Pipeline,
    Resync,
    RunReport,
    SampleOutcome,
    SchmittConfig,
    StreamOrderError,
    synthesize,
)
from pulsealarm.bench import bench_corpus, place_strays

from . import inputs
from .calibrate import Stopwatch, micro_ns, rescale
from .trace import Tracer

ROOT = Path(__file__).resolve().parents[1]

CHUNK = 4096  # the serve loop's recv size
MATCH_TOLERANCE_MS = 100.0
STRAY_WIDTH_MS = 80.0


def _load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def oracle_beats(samples, schmitt: SchmittConfig) -> list[int]:
    return oracle.offline_beat_scan(
        [s.t_ms for s in samples],
        [s.value for s in samples],
        schmitt.upper_threshold,
        schmitt.lower_threshold,
        schmitt.refractory_ms,
    )


@dataclass
class PassResult:
    output: object  # compared across passes and checked against the reference
    offered: int  # samples offered to the program (us_per_sample denominator)
    ns: float  # reference-ns time of the pass
    unit_ns: list[float]  # reference-ns time of each unit of work in it
    refused: int = 0  # samples Pipeline.push refused
    counts: dict = field(default_factory=dict)  # per-layer counts of this pass


def _report_counts(text: str) -> dict:
    summary = json.loads(text.splitlines()[-1])
    return {
        "detector.beats": summary["beats"],
        "detector.readings.valid": summary["valid"],
        "detector.readings.rejected_low": summary["rejected_low"],
        "detector.readings.rejected_high": summary["rejected_high"],
    }


def _check_wake_report(text: str, scenario, samples) -> list[str]:
    """The report against make_wake_scenario's expectation and the oracle."""
    records = [json.loads(line) for line in text.splitlines()]
    transitions = [(r["from"], r["to"]) for r in records if r["kind"] == "transition"]
    expected = [(a.value, b.value) for a, b in scenario.expected_transitions]
    problems = []
    if transitions != expected:
        problems.append(f"transitions {transitions} != expected {expected}")
    final = records[-1]["final_phase"]
    if final != scenario.expected_final_phase.value:
        problems.append(f"final phase {final} != {scenario.expected_final_phase.value}")
    reading_times = [r["t_ms"] for r in records if r["kind"] == "reading"]
    beats = oracle_beats(samples, SchmittConfig())
    if reading_times != beats[1:]:
        problems.append(
            f"{len(reading_times)} reading times differ from the oracle's "
            f"{len(beats) - 1} beats after the first"
        )
    return problems


def _engine_counter(counts: dict):
    """after-hook for engine.step: transitions, and events that changed
    the phase or the in-band streak."""

    def decision(state):
        return getattr(state, "phase", None), getattr(state, "in_band_streak", None)

    def after(args, result):
        before, (state, actions) = args[0], result
        counts["engine.transitions"] += sum(isinstance(a, LogTransition) for a in actions)
        if decision(before) != decision(state):
            counts["engine.useful_events"] += 1

    return after


def pipeline_patches(counts: dict) -> list:
    """Spans inside Pipeline.push and run_pipeline, shared by the three
    streaming workloads."""
    counts.setdefault("engine.transitions", 0)
    counts.setdefault("engine.useful_events", 0)

    def report_bytes(args, result):
        counts["pipeline.report_bytes"] = len(result.encode())

    return [
        (pulsealarm.pipeline.Pipeline, "push", "pipeline.push", {}),
        (pulsealarm.pipeline, "schmitt_step", "detector.schmitt_step", {}),
        (BpmEstimator, "add", "detector.estimator", {}),
        (pulsealarm.pipeline, "step", "engine.step", {"after": _engine_counter(counts)}),
        (RunReport, "to_jsonl", "pipeline.to_jsonl", {"after": report_bytes}),
    ]


class Workload:
    name = ""
    unit = ""  # what one chunk_latency sample times

    def build(self, seed: int, workdir: Path, tracer: Tracer | None = None):
        raise NotImplementedError

    def run_pass(self, inp, watch: Stopwatch, tracer: Tracer | None = None) -> PassResult:
        raise NotImplementedError

    def check(self, inp, first: PassResult) -> tuple[list[str], dict]:
        """Problems with the first pass's output, and per-layer counts the
        check established."""
        raise NotImplementedError

    def patches(self, counts: dict) -> list:
        return []


def _wrap(tracer, name, fn, **kwargs):
    return fn if tracer is None else tracer.wrap(name, fn, **kwargs)


# Span work units: samples synthesized, items returned, items passed in.
_SYNTHESIZED = {"units": lambda args, result: len(result[0])}
_RETURNED = {"units": lambda args, result: len(result)}
_PASSED = {"units": lambda args, result: len(args[0])}


class WakeCsv(Workload):
    name = "wake_csv"
    unit = "one pulsealarm run"

    def build(self, seed, workdir, tracer=None):
        synth = _wrap(tracer, "synth.synthesize", synthesize, **_SYNTHESIZED)
        return inputs.build_csv(seed, workdir, synth)

    def run_pass(self, inp, watch, tracer=None):
        main = _wrap(tracer, "cli.main", pulsealarm.cli.main)
        out_path = inp.csv_path.with_name("report.jsonl")
        argv = ["run", "--config", str(inp.config_path), "--out", str(out_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc, ns = watch.time(main, argv)
        text = out_path.read_text()
        return PassResult((rc, text), inp.sample_count, ns, [ns], counts=_report_counts(text))

    def check(self, inp, first):
        rc, text = first.output
        samples, _ = synthesize(inp.scenario.spec)
        problems = [] if rc == 0 else [f"pulsealarm run exited {rc}"]
        return problems + _check_wake_report(text, inp.scenario, samples), {}

    def patches(self, counts):
        cli = pulsealarm.cli
        return pipeline_patches(counts) + [
            (cli, "read_waveform", "synth.read_waveform", _RETURNED),
            (cli, "run_pipeline", "pipeline.run_pipeline", {}),
        ]


class Session:
    """cmd_serve's receive loop without the socket: one connection's
    decoder and pipeline. Unlike cmd_serve it counts a sample that
    Pipeline.push refuses instead of aborting, so a damaged stream still
    yields a report."""

    def __init__(self, scenario, tracer: Tracer | None = None, record=None):
        self.pipeline = Pipeline(SchmittConfig(), scenario.engine_config, scenario.alarm_time_ms)
        feed = FrameDecoder().feed
        if record is not None:
            raw = feed

            def feed(chunk):
                outcomes = raw(chunk)
                record.extend(o for o in outcomes if isinstance(o, SampleOutcome))
                return outcomes

        frames_out = lambda args, result: sum(isinstance(o, SampleOutcome) for o in result)  # noqa: E731
        self.feed = _wrap(tracer, "protocol.feed", feed, units=frames_out)
        self.frames = self.gaps = self.corrupt = self.resyncs = 0
        self.skipped = self.refused = 0

    def receive(self, chunk: bytes) -> None:
        push = self.pipeline.push
        frames = refused = 0
        for outcome in self.feed(chunk):
            if isinstance(outcome, SampleOutcome):
                frames += 1
                try:
                    push(outcome.sample)
                except StreamOrderError:
                    refused += 1
            elif isinstance(outcome, Gap):
                self.gaps += 1
            elif isinstance(outcome, CorruptFrame):
                self.corrupt += 1
            elif isinstance(outcome, Resync):
                self.resyncs += 1
                self.skipped += outcome.skipped_bytes
        self.frames += frames
        self.refused += refused

    def report_text(self) -> str:
        report = self.pipeline.report(
            gap_count=self.gaps, corrupt_count=self.corrupt, resync_count=self.resyncs
        )
        return report.to_jsonl()

    def counts(self) -> dict:
        return {
            "protocol.frames_ok": self.frames,
            "protocol.corrupt_frames": self.corrupt,
            "protocol.gaps": self.gaps,
            "protocol.resyncs": self.resyncs,
            "protocol.skipped_bytes": self.skipped,
            "pipeline.refused_samples": self.refused,
        }


def ledger_check(samples, ledger: inputs.Ledger, delivered) -> dict:
    """Match delivered frames to the ledger's intact frames.

    An intact frame counts as delivered when it arrives after every
    earlier delivered intact frame; anything else delivered is a false
    accept.
    """
    intact = ledger.frames("intact")
    position = {(k % 256, samples[k].t_ms, samples[k].value): i for i, k in enumerate(intact)}
    delivered_ok = false_accepts = 0
    last = -1
    for outcome in delivered:
        i = position.get((outcome.seq, outcome.sample.t_ms, outcome.sample.value))
        if i is not None and i > last:
            delivered_ok += 1
            last = i
        else:
            false_accepts += 1
    return {
        "intact": len(intact),
        "delivered": delivered_ok,
        "missing": len(intact) - delivered_ok,
        "false_accepts": false_accepts,
    }


class Wire(Workload):
    unit = "one 4096-byte chunk through decoder and pipeline"

    def __init__(self, lossy: bool):
        self.lossy = lossy
        self.name = "wire_lossy" if lossy else "wire_clean"

    def build(self, seed, workdir, tracer=None):
        return inputs.build_wire(
            seed,
            workdir,
            self.lossy,
            synth=_wrap(tracer, "synth.synthesize", synthesize, **_SYNTHESIZED),
            read=_wrap(tracer, "synth.read_waveform", inputs.read_waveform, **_RETURNED),
            encode=_wrap(tracer, "protocol.encode", inputs.encode_stream, **_PASSED),
        )

    def run_pass(self, inp, watch, tracer=None, record=None):
        """Feed the chunks and write the report, each step timed between
        micro calibrations; the report counts towards the pass, not as a chunk."""
        session = Session(inp.csv.scenario, tracer, record)
        data = inp.data
        raw, calibrations = [], [micro_ns()]
        for i in range(0, len(data), CHUNK):
            chunk = data[i : i + CHUNK]
            start = perf_counter_ns()
            session.receive(chunk)
            raw.append(perf_counter_ns() - start)
            calibrations.append(micro_ns())
        start = perf_counter_ns()
        text = session.report_text()
        raw.append(perf_counter_ns() - start)
        calibrations.append(micro_ns())
        *chunk_ns, report_ns = rescale(raw, calibrations)
        counts = _report_counts(text) | session.counts()
        return PassResult(
            text, inp.csv.sample_count, sum(chunk_ns) + report_ns, chunk_ns, session.refused, counts
        )

    def check(self, inp, first):
        """Every intact frame delivered in order and nothing else; on the
        clean channel the report also equals `pulsealarm run`'s."""
        delivered = []
        recorded = self.run_pass(inp, Stopwatch(), record=delivered)
        problems = []
        if recorded.output != first.output:
            problems.append("the recording pass reported differently")
        tally = ledger_check(inp.samples, inp.ledger, delivered)
        if tally["missing"]:
            problems.append(
                f"{tally['missing']} of {tally['intact']} intact frames not delivered in order"
            )
        if tally["false_accepts"]:
            problems.append(
                f"{tally['false_accepts']} frames accepted that the channel never sent intact"
            )
        if not self.lossy and first.output != WakeCsv().run_pass(inp.csv, Stopwatch()).output[1]:
            problems.append("report differs from pulsealarm run on the same CSV")
        counts = {
            "protocol.false_accepts": tally["false_accepts"],
            "protocol.yield": tally["delivered"] / tally["intact"],
        }
        return problems, counts

    def patches(self, counts):
        return pipeline_patches(counts)


def _cells():
    return [(s, n) for s in inputs.BENCH_STRAYS for n in inputs.BENCH_NOISE]


def recount(detected, truth, tolerance):
    """False and missed beats of sorted detections against sorted truth.

    A detection claims the first truth beat at or after d - tolerance that
    no earlier detection claimed or passed, if it lies within tolerance.
    """
    next_free = matched = false_count = 0
    for d in detected:
        i = max(next_free, bisect.bisect_left(truth, d - tolerance))
        if i < len(truth) and truth[i] <= d + tolerance:
            matched += 1
            next_free = i + 1
        else:
            false_count += 1
    return false_count, len(truth) - matched


class DetectorSweep(Workload):
    name = "detector_sweep"
    unit = "one grid cell, one row of the bench table"

    def build(self, seed, workdir, tracer=None):
        return seed  # bench_corpus synthesizes its own waveforms from the seed

    def run_pass(self, seed, watch, tracer=None):
        """One `pulsealarm bench` grid, a cell (one result row) at a time."""
        rows, unit_ns = [], []
        for strays, noise in _cells():
            cell_rows, ns = watch.time(
                bench_corpus,
                inputs.BENCH_BASE, [strays], [noise], inputs.BENCH_RUNS_PER_CELL,
                inputs.BENCH_SCHMITT, inputs.BENCH_NAIVE_THRESHOLD,
                inputs.BENCH_STRAY_PEAK, STRAY_WIDTH_MS, MATCH_TOLERANCE_MS, seed,
            )
            rows += cell_rows
            unit_ns.append(ns)
        spec = inputs.BENCH_BASE
        per_waveform = round(spec.duration_ms * spec.sample_rate_hz / 1000)
        offered = len(unit_ns) * inputs.BENCH_RUNS_PER_CELL * per_waveform
        return PassResult(rows, offered, sum(unit_ns), unit_ns)

    def check(self, seed, first):
        """Recount the Schmitt columns with the oracle on the same waveforms,
        rebuilt the way bench_corpus seeds each cell's runs."""
        cells = [(row.stray_count, row.noise_stddev) for row in first.output]
        problems = [] if cells == _cells() else [f"rows for cells {cells}, expected {_cells()}"]
        _, base_truth = synthesize(inputs.BENCH_BASE)
        grid_ms = 1000.0 / inputs.BENCH_BASE.sample_rate_hz
        for row in first.output:
            false_total = missed_total = 0
            for run in range(inputs.BENCH_RUNS_PER_CELL):
                key = (row.stray_count, row.noise_stddev, run)
                cell_seed = seed * 1_000_003 + hash(key) % 1_000_003
                strays = place_strays(
                    base_truth.beat_times_ms, row.stray_count, inputs.BENCH_STRAY_PEAK,
                    STRAY_WIDTH_MS, random.Random(cell_seed), grid_ms,
                )
                spec = dataclasses.replace(
                    inputs.BENCH_BASE, noise_stddev=row.noise_stddev,
                    stray_pulses=strays, rng_seed=cell_seed,
                )
                samples, truth = synthesize(spec)
                beats = oracle_beats(samples, inputs.BENCH_SCHMITT)
                f, m = recount(beats, truth.beat_times_ms, MATCH_TOLERANCE_MS)
                false_total += f
                missed_total += m
            if (row.schmitt_false, row.schmitt_missed) != (false_total, missed_total):
                problems.append(
                    f"cell strays={row.stray_count} noise={row.noise_stddev}: schmitt "
                    f"{row.schmitt_false}/{row.schmitt_missed} != oracle "
                    f"{false_total}/{missed_total}"
                )
        return problems, {}

    def patches(self, counts):
        counts["detector.beats"] = 0

        def count_beats(args, result):
            counts["detector.beats"] += len(result)

        bench = pulsealarm.bench
        return [
            (bench, "synthesize", "synth.synthesize", _SYNTHESIZED),
            (bench, "place_strays", "bench.place_strays", {}),
            (bench, "match_beats", "bench.match_beats", _PASSED),
            (bench, "detect_beats", "detector.detect_beats",
             _PASSED | {"consume": True, "after": count_beats}),
            (bench, "naive_detect_beats", "detector.naive_detect_beats",
             _PASSED | {"consume": True}),
            (pulsealarm.detector, "schmitt_step", "detector.schmitt_step", {}),
        ]


WORKLOADS = {
    w.name: w for w in (WakeCsv(), Wire(lossy=False), Wire(lossy=True), DetectorSweep())
}
