"""End-to-end wiring: samples -> beat detector -> rate estimator ->
plausibility filter -> alarm engine, with a run report mirroring the
device's serial-monitor listing (one reading per line with its status).

Pipeline.push_chunk takes a block of SampleColumns in one detector scan,
so Python runs once per beat, not per sample; run_pipeline is one call of
it. Pipeline.push takes one Sample, for a caller that gets samples one at
a time. StreamSession is `serve`'s receive loop: bytes in, through a
FrameDecoder, one push per decoded frame."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .detector import (
    _SMOOTHING_WINDOW,
    BeatDetector,
    BeatEvent,
    BpmEstimate,
    BpmEstimator,
    BpmStatus,
    Sample,
    SampleColumns,
    SchmittConfig,
)
from .engine import (
    AlarmEngineState,
    ClockTick,
    EngineConfig,
    LogTransition,
    Phase,
    next_tick_ms,
    step,
)
from .errors import StreamOrderError
from .protocol import FrameDecoder, SampleOutcome


@dataclass
class RunReport:
    transitions: list[LogTransition]
    readings: list[BpmEstimate]
    beat_count: int
    sample_count: int
    final_phase: Phase
    gap_count: int = 0
    corrupt_count: int = 0
    resync_count: int = 0

    def status_counts(self) -> Counter[BpmStatus]:
        """Readings per status, every BpmStatus in enum order, zeros included."""
        counts = Counter(dict.fromkeys(BpmStatus, 0))
        counts.update(r.status for r in self.readings)
        return counts

    def to_jsonl(self) -> str:
        """Line-delimited records: transitions, readings, then a summary.
        Deterministic byte-for-byte for identical runs. Each line equals
        json.dumps(record, sort_keys=True); transitions and readings are
        formatted directly, with bpm in repr, json's form of a finite float."""
        lines = [
            f'{{"from": "{t.from_phase.value}", "kind": "transition", "t_ms": {t.t_ms}, '
            f'"to": "{t.to_phase.value}", "trigger": "{t.trigger}"}}\n'
            for t in self.transitions
        ]
        lines.extend(
            f'{{"bpm": {round(r.bpm, 4)!r}, "kind": "reading", "status": "{r.status.value}", '
            f'"t_ms": {r.t_ms}}}\n'
            for r in self.readings
        )
        summary = {
            "kind": "summary",
            "samples": self.sample_count,
            "beats": self.beat_count,
            **{status.value: n for status, n in self.status_counts().items()},
            "gaps": self.gap_count,
            "corrupt_frames": self.corrupt_count,
            "resyncs": self.resync_count,
            "final_phase": self.final_phase.value,
        }
        return "".join(lines) + json.dumps(summary, sort_keys=True) + "\n"

    def summary_text(self) -> str:
        counts = ", ".join(f"{s.value} {n}" for s, n in self.status_counts().items())
        lines = [
            f"samples: {self.sample_count}",
            f"beats: {self.beat_count}",
            f"readings: {len(self.readings)} ({counts})",
        ]
        if self.gap_count or self.corrupt_count or self.resync_count:
            lines.append(
                f"protocol: {self.gap_count} gaps, "
                f"{self.corrupt_count} corrupt frames, {self.resync_count} resyncs"
            )
        for t in self.transitions:
            lines.append(
                f"t={t.t_ms} ms: {t.from_phase.value} -> {t.to_phase.value} "
                f"({t.trigger})"
            )
        lines.append(f"final phase: {self.final_phase.value}")
        return "\n".join(lines)


class Pipeline:
    """Streaming pipeline: push samples or blocks of them, the alarm engine
    reacts; the two can be mixed, and any split gives the same report.

    The engine is armed for alarm_time_ms up front; every detected beat
    drives a rate reading. A sample drives a clock tick only once its time
    reaches the engine's deadline (next_tick_ms), because no earlier tick
    can change the state; the transitions are those of ticking every sample.
    push_chunk is the block step. push stays as the one-sample step for
    StreamSession, which pushes the decoder's one outcome per frame: a
    one-sample chunk costs far more in numpy set-up (README gives the
    timings). Both fill one RunReport as they go, which report() copies
    with the engine's phase.
    """

    def __init__(
        self,
        schmitt: SchmittConfig,
        engine_config: EngineConfig,
        alarm_time_ms: int,
        smoothing_window: int = _SMOOTHING_WINDOW,
    ):
        self._detector = BeatDetector(schmitt)
        self._estimator = BpmEstimator(smoothing_window)
        self._engine_state = AlarmEngineState(engine_config, alarm_time_ms)
        self._deadline = next_tick_ms(self._engine_state)
        self._report = RunReport([], [], 0, 0, self._engine_state.phase)

    @property
    def engine_state(self) -> AlarmEngineState:
        return self._engine_state

    def _engine_step(self, event) -> None:
        self._engine_state, transitions = step(self._engine_state, event)
        self._deadline = next_tick_ms(self._engine_state)
        self._report.transitions.extend(transitions)

    def _beat(self, beat: BeatEvent) -> None:
        self._report.beat_count += 1
        estimate = self._estimator.add(beat)
        if estimate is not None:
            self._report.readings.append(estimate)
            self._engine_step(estimate)

    def push(self, sample: Sample) -> None:
        """Feed one sample. A sample whose time does not advance raises
        StreamOrderError from the detector and changes nothing."""
        beat = self._detector.push(sample)
        self._report.sample_count += 1
        if sample.t_ms >= self._deadline:
            self._engine_step(ClockTick(sample.t_ms))
        if beat is not None:
            self._beat(beat)

    def push_chunk(self, columns: SampleColumns) -> None:
        """push over every sample of a block: one detector scan, then the
        beats and at most one clock tick in time order. The deadline moves
        only when a tick rings, so the one tick that can ring is at the
        first sample at or past it, stepped before a beat at that sample,
        as push does. A time that does not advance raises StreamOrderError
        from the detector and changes nothing."""
        beats = self._detector.push_chunk(columns)
        t = columns.t_ms
        self._report.sample_count += t.size
        tick = math.inf
        if t.size and self._deadline <= int(t[-1]):
            # t_ms is never negative, so a time of 0 finds the same sample
            tick = int(t[np.searchsorted(t, max(self._deadline, 0))])
        for beat in beats:
            if beat.t_ms >= tick:
                self._engine_step(ClockTick(tick))
                tick = math.inf
            self._beat(beat)
        if tick < math.inf:
            self._engine_step(ClockTick(tick))

    def report(
        self, gap_count: int = 0, corrupt_count: int = 0, resync_count: int = 0
    ) -> RunReport:
        """A copy of the run so far, in the engine's phase now, with the
        protocol's counts."""
        run = self._report
        return replace(
            run, transitions=list(run.transitions), readings=list(run.readings),
            final_phase=self._engine_state.phase,
            gap_count=gap_count, corrupt_count=corrupt_count, resync_count=resync_count,
        )


class StreamSession:
    """`serve`'s receive loop on one connection, without the socket: a
    FrameDecoder and a Pipeline taking Pipeline's arguments. receive pushes
    each decoded frame's sample; a sample whose time does not advance (a
    duplicated or reordered frame) is dropped and counted in `dropped`
    instead of ending the stream. report() carries the decoder's counts."""

    def __init__(self, *pipeline_args):
        self._decoder = FrameDecoder()
        self._pipeline = Pipeline(*pipeline_args)
        self.dropped = 0

    def receive(self, data: bytes) -> None:
        push = self._pipeline.push
        for outcome in self._decoder.feed(data):
            if isinstance(outcome, SampleOutcome):
                try:
                    push(outcome.sample)
                except StreamOrderError:
                    self.dropped += 1

    def report(self) -> RunReport:
        decoder = self._decoder
        return self._pipeline.report(decoder.gaps, decoder.corrupt_frames, decoder.resyncs)


def run_pipeline(
    samples: Iterable[Sample],
    schmitt: SchmittConfig,
    engine_config: EngineConfig,
    alarm_time_ms: int,
    smoothing_window: int = _SMOOTHING_WINDOW,
) -> RunReport:
    """Run the whole chain over a buffered or generated sample stream, as
    one push_chunk."""
    pipeline = Pipeline(schmitt, engine_config, alarm_time_ms, smoothing_window)
    pipeline.push_chunk(SampleColumns.of(samples))
    return pipeline.report()
