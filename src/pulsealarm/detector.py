"""Beat detection on a noisy sampled pulse waveform.

BeatDetector is a streaming software Schmitt trigger: the output only goes
HIGH once the signal reaches the upper threshold and only re-arms after it
falls to the lower threshold, so excursions that stay inside the hysteresis
band can never produce a beat. A refractory guard suppresses double-triggers
on a single pulse. push steps it one Sample at a time; push_chunk scans a
whole block of SampleColumns with numpy, and the two can be mixed on one
detector. They differ only in how they find rising edges: both pass each
edge through one refractory gate, the only place a beat is built. Sample
states the one rule for a row, which SampleColumns applies to a block. A
deliberately fragile single-threshold detector is kept as a baseline.
"""

from __future__ import annotations

import collections.abc
import enum
import statistics
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import StreamOrderError

ADC_MAX = 1023

PLAUSIBLE_MIN_BPM = 23.0
PLAUSIBLE_MAX_BPM = 200.0


class BpmStatus(enum.Enum):
    VALID = "valid"
    REJECTED_LOW = "rejected_low"
    REJECTED_HIGH = "rejected_high"


@dataclass(frozen=True, slots=True)
class Sample:
    """One timestamped ADC reading, and the one rule for a row of samples:
    t_ms is an integer in [0, 2**63) and value an integer in [0, 1023]. An
    int or a numpy integer passes; a float or a bool does not."""

    t_ms: int
    value: int

    def __post_init__(self):
        t, v = self.t_ms, self.value
        if not (type(t) is int or isinstance(t, np.integer)):
            raise ValueError(f"t_ms must be an integer, got {t!r}")
        if not (type(v) is int or isinstance(v, np.integer)):
            raise ValueError(f"value must be an integer, got {v!r}")
        if not 0 <= t < 2**63:
            raise ValueError(f"t_ms must be {'non-negative' if t < 0 else 'below 2**63'}, got {t}")
        if not 0 <= v <= ADC_MAX:
            raise ValueError(f"value must be in [0, {ADC_MAX}], got {v}")


def _integer_column(name: str, values) -> np.ndarray:
    """values as a one-dimensional integer array, converted once. A dtype
    (a list's is numpy's inferred one) that is not integer, such as bool or
    float64, raises ValueError; an empty column has none to refuse."""
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers below 2**63, got dtype {column.dtype}")
    if column.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {column.shape}")
    return column


class SampleColumns(collections.abc.Sequence):
    """A block of samples as two read-only int64 arrays, t_ms and value.

    The constructor states no rule of its own: one mask finds the first row
    that Sample refuses, and that row's Sample raises Sample's error. As a
    Sequence[Sample] it takes len, indexing, slicing and iteration, and it
    equals another SampleColumns or a list holding the same Samples.
    """

    __slots__ = ("t_ms", "value")

    def __init__(self, t_ms, value):
        t, v = _integer_column("t_ms", t_ms), _integer_column("value", value)
        if t.shape != v.shape:
            raise ValueError(f"t_ms and value must have one length, got {t.size} and {v.size}")
        # a uint64 entry at or above 2**63 casts to a negative one
        self.t_ms, self.value = t.astype(np.int64), v.astype(np.int64)
        bad = np.flatnonzero((self.t_ms < 0) | (self.value < 0) | (self.value > ADC_MAX))
        if bad.size:
            Sample(t[bad[0]], v[bad[0]])  # raises for this row
        self.t_ms.flags.writeable = self.value.flags.writeable = False

    @classmethod
    def of(cls, samples: Iterable[Sample]) -> SampleColumns:
        """samples as columns; a SampleColumns is returned as it is."""
        if isinstance(samples, SampleColumns):
            return samples
        samples = list(samples)
        return cls([s.t_ms for s in samples], [s.value for s in samples])

    def __len__(self) -> int:
        return self.t_ms.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampleColumns(self.t_ms[index], self.value[index])
        return Sample(int(self.t_ms[index]), int(self.value[index]))

    def __iter__(self):
        return map(Sample, self.t_ms.tolist(), self.value.tolist())

    def __eq__(self, other):
        if isinstance(other, SampleColumns):
            return np.array_equal(self.t_ms, other.t_ms) and np.array_equal(
                self.value, other.value
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


@dataclass(frozen=True)
class SchmittConfig:
    """Trigger thresholds in ADC counts and the refractory guard in ms."""

    upper_threshold: int = 550
    lower_threshold: int = 470
    refractory_ms: int = 250

    def __post_init__(self):
        if self.lower_threshold >= self.upper_threshold:
            raise ValueError(
                "lower_threshold must be strictly below upper_threshold "
                f"({self.lower_threshold} >= {self.upper_threshold})"
            )
        if self.refractory_ms <= 0:
            raise ValueError(f"refractory_ms must be positive, got {self.refractory_ms}")


@dataclass(frozen=True)
class BeatEvent:
    """A detected heartbeat. ibi_ms is absent for the first beat of a stream."""

    t_ms: int
    ibi_ms: Optional[int] = None


@dataclass(frozen=True)
class BpmEstimate:
    t_ms: int
    bpm: float
    status: BpmStatus


class BeatDetector:
    """The streaming Schmitt trigger: push samples in time order, get beats.

    LOW -> HIGH requires value >= upper_threshold and emits a beat unless it
    falls inside the refractory window of the previous beat (the level still
    flips). HIGH -> LOW requires value <= lower_threshold and never emits.
    Values inside the band change nothing. push and push_chunk differ only
    in how they find rising edges; each edge goes through _gate, which
    alone applies the refractory window and builds the BeatEvent. Both
    raise StreamOrderError on a timestamp that does not advance, before
    changing any state.
    """

    __slots__ = ("config", "high", "last_beat_t_ms", "last_t_ms")

    def __init__(self, config: SchmittConfig = SchmittConfig()):
        self.config = config
        self.high = False
        self.last_beat_t_ms: Optional[int] = None
        self.last_t_ms: Optional[int] = None

    def push(self, sample: Sample) -> Optional[BeatEvent]:
        t = sample.t_ms
        if self.last_t_ms is not None and t <= self.last_t_ms:
            raise StreamOrderError(
                f"sample at t_ms={t} does not advance past {self.last_t_ms}"
            )
        self.last_t_ms = t
        if self.high:
            if sample.value <= self.config.lower_threshold:
                self.high = False
            return None
        if sample.value < self.config.upper_threshold:
            return None
        self.high = True
        return self._gate(t)

    def push_chunk(self, columns: SampleColumns) -> list[BeatEvent]:
        """push over every sample of a block, in one numpy scan.

        The level changes only at a marked sample, one at or above the
        upper threshold (HIGH) or at or below the lower one (LOW), so it is
        the last mark forward-filled from the carried level. Its rising
        edges are the candidate beats, and only they pass through _gate in
        Python.
        """
        t, v = columns.t_ms, columns.value
        if not t.size:
            return []
        ts = t if self.last_t_ms is None else np.insert(t, 0, self.last_t_ms)
        stalled = np.flatnonzero(ts[1:] <= ts[:-1])
        if stalled.size:
            i = stalled[0]
            raise StreamOrderError(f"sample at t_ms={ts[i + 1]} does not advance past {ts[i]}")
        cfg = self.config
        up = v >= cfg.upper_threshold
        marked = np.flatnonzero(up | (v <= cfg.lower_threshold))
        level = up[marked]
        rising = level & ~np.concatenate(([self.high], level[:-1]))
        if level.size:
            self.high = bool(level[-1])
        self.last_t_ms = int(t[-1])
        return list(filter(None, map(self._gate, t[marked[rising]].tolist())))

    def _gate(self, t: int) -> Optional[BeatEvent]:
        """The beat at a rising edge at t, or None inside the refractory
        window of the last beat."""
        last = self.last_beat_t_ms
        if last is not None and t - last < self.config.refractory_ms:
            return None
        self.last_beat_t_ms = t
        return BeatEvent(t, None if last is None else t - last)


def detect_beats(
    samples: Iterable[Sample], config: SchmittConfig = SchmittConfig()
) -> list[BeatEvent]:
    """A fresh BeatDetector's push_chunk over the whole sample block.

    Returns one BeatEvent per accepted rising edge. A timestamp that does
    not advance raises StreamOrderError before any beat is returned.
    """
    return BeatDetector(config).push_chunk(SampleColumns.of(samples))


def naive_detect_beats(
    samples: Iterable[Sample], single_threshold: int
) -> list[BeatEvent]:
    """Single-threshold baseline: a beat on every upward crossing.

    No hysteresis and no refractory guard, so mid-amplitude stray pulses and
    noise riding the threshold produce false beats. Kept for benchmarking
    against detect_beats, and equal to it with thresholds (t, t - 1) and
    refractory 1 ms: on integer counts "value <= t - 1" is "value < t", and
    1 ms never suppresses a beat, as sample times strictly advance.
    """
    return detect_beats(samples, SchmittConfig(single_threshold, single_threshold - 1, 1))


def bpm_from_ibi(ibi_ms: float) -> float:
    """Instantaneous rate in beats per minute from one inter-beat interval."""
    if ibi_ms <= 0:
        raise ValueError(f"ibi_ms must be positive, got {ibi_ms}")
    return 60000.0 / ibi_ms


def plausibility_filter(bpm: float, t_ms: int) -> BpmEstimate:
    """Classify a reading against the physiological band [23, 200] bpm.

    Readings below 23 or above 200 are rejected as implausible; the bpm
    value itself passes through unchanged.
    """
    if bpm < 0:
        raise ValueError(f"bpm must be non-negative, got {bpm}")
    if bpm < PLAUSIBLE_MIN_BPM:
        status = BpmStatus.REJECTED_LOW
    elif bpm > PLAUSIBLE_MAX_BPM:
        status = BpmStatus.REJECTED_HIGH
    else:
        status = BpmStatus.VALID
    return BpmEstimate(t_ms, bpm, status)


def estimate_bpm(
    beats: Sequence[BeatEvent], smoothing_window: int = 5
) -> Optional[BpmEstimate]:
    """Median-smoothed rate from the most recent beats.

    Folds the beats through a BpmEstimator: the median of the last
    min(smoothing_window, available) instantaneous bpm values, through the
    plausibility filter, stamped with the last beat's time. Returns None
    until at least two beats (one interval) are available.
    """
    estimator = BpmEstimator(smoothing_window)
    latest = None
    for beat in beats:
        estimate = estimator.add(beat)
        if estimate is not None:
            latest = estimate
    return None if latest is None else replace(latest, t_ms=beats[-1].t_ms)


class BpmEstimator:
    """Median rate over a sliding window of beats: feed beats in order, get
    plausibility-filtered estimates. estimate_bpm is its batch fold."""

    def __init__(self, smoothing_window: int = 5):
        if smoothing_window < 1:
            raise ValueError(f"smoothing_window must be >= 1, got {smoothing_window}")
        self._rates: deque[float] = deque(maxlen=smoothing_window)

    def add(self, beat: BeatEvent) -> Optional[BpmEstimate]:
        if beat.ibi_ms is None:
            return None
        self._rates.append(bpm_from_ibi(beat.ibi_ms))
        return plausibility_filter(statistics.median(self._rates), beat.t_ms)
