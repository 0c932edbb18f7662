"""Beat detection on a noisy sampled pulse waveform.

BeatDetector is a streaming software Schmitt trigger: the output only goes
HIGH once the signal reaches the upper threshold and only re-arms after it
falls to the lower threshold, so excursions that stay inside the hysteresis
band can never produce a beat. A refractory guard suppresses double-triggers
on a single pulse. push steps it one Sample at a time; push_chunk scans a
whole block of SampleColumns with numpy, and the two can be mixed on one
detector. They differ only in how they find rising edges: both pass a
call's edges to one refractory gate, the only place a beat is built.
push_chunk indexes only the HIGH marks, a few samples per beat, and builds
no full-length index. Sample states the one rule for a row; SampleColumns
builds a list's rows through it and checks an array in bulk, copied or,
on the package's own batch paths, adopted, and the rows it hands out are
not checked again. Its rows, the decoder's rows and the gate's beats all
come from one builder, _build, which sets slots a field at a time through
starmap, so that no C call packs a fresh argument tuple; a Sample row
takes its ADC count from _COUNTS, one shared int per count. A deliberately
fragile single-threshold detector is kept as a baseline.
"""

from __future__ import annotations

import collections.abc
import enum
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain, repeat, starmap
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import StreamOrderError

ADC_MAX = 1023
_NOT_ADVANCING = "sample at t_ms={} does not advance past {}"  # BeatDetector's refusal

PLAUSIBLE_MIN_BPM = 23.0
PLAUSIBLE_MAX_BPM = 200.0
_SMOOTHING_WINDOW = 5  # by default, the bpm estimate is the median of the last 5 rates


class BpmStatus(enum.Enum):
    VALID = "valid"
    REJECTED_LOW = "rejected_low"
    REJECTED_HIGH = "rejected_high"


@dataclass(frozen=True, slots=True)
class Sample:
    """One timestamped ADC reading, and the one rule for a row of samples:
    t_ms is an integer in [0, 2**63) and value an integer in [0, 1023]. An
    int or a numpy integer (kept as an int) passes; a float or a bool does not."""

    t_ms: int
    value: int

    def __post_init__(self):
        t, v = self.t_ms, self.value
        if type(t) is not int:
            if not isinstance(t, np.integer):
                raise ValueError(f"t_ms must be an integer, got {t!r}")
            object.__setattr__(self, "t_ms", t := int(t))
        if type(v) is not int:
            if not isinstance(v, np.integer):
                raise ValueError(f"value must be an integer, got {v!r}")
            object.__setattr__(self, "value", v := int(v))
        if not 0 <= t < 2**63:
            raise ValueError(f"t_ms must be {'non-negative' if t < 0 else 'below 2**63'}, got {t}")
        if not 0 <= v <= ADC_MAX:
            raise ValueError(f"value must be in [0, {ADC_MAX}], got {v}")


_SINK = deque(maxlen=0)  # keeps nothing: extend only runs an iterator out
# every ADC count as an int, so the rows built from a column share one int
# per count: _COUNTS.take(values).tolist(), where values.tolist() would make
# a fresh int for each count above 256 (take raises on a count out of range)
_COUNTS = np.array(range(ADC_MAX + 1), dtype=object)


def _build(cls, *columns) -> list:
    """The instances of a slotted dataclass whose fields, in order, hold the
    items of columns, built one field at a time in loops that run in C
    through the slots' setters, past frozen. It runs neither cls's __init__
    nor its check, so every row must already pass that check.

    Both loops are starmap, not map: map packs a fresh argument tuple for
    every call of object.__new__ or a setter, while starmap passes the one
    (cls,) tuple each time and zip hands back the tuple it reuses. _SINK
    runs each setter loop to its end without a new deque per call."""
    objs = list(starmap(object.__new__, repeat((cls,), len(columns[0]))))
    for name, column in zip(cls.__slots__, columns):
        _SINK.extend(starmap(getattr(cls, name).__set__, zip(objs, column)))
    return objs


_ROW_BLOCK = 1024  # the rows iter(SampleColumns) builds at a time, not every row at once


def _int64_columns(samples: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """The t_ms and value of rows that Sample has checked, as int64 arrays."""
    n = len(samples)
    return (np.fromiter((s.t_ms for s in samples), np.int64, n),
            np.fromiter((s.value for s in samples), np.int64, n))


class SampleColumns(collections.abc.Sequence):
    """A block of samples as two read-only int64 arrays, t_ms and value. If
    either column is a list or a tuple, each row is built as a Sample; two
    arrays are judged by dtype and shape, then the first row out of range
    raises its Sample error. A Sequence[Sample], it equals another
    SampleColumns or a list holding the same Samples. Its rows are built
    without Sample's check, which the columns passed in bulk, so neither
    column can be rebound after construction."""

    __slots__ = ("t_ms", "value")

    def __init__(self, t_ms, value):
        if isinstance(t_ms, (list, tuple)) or isinstance(value, (list, tuple)):
            n, m = len(t_ms), len(value)
            if n != m:
                raise ValueError(f"t_ms and value must have one length, got {n} and {m}")
            t_ms, value = _int64_columns(list(map(Sample, t_ms, value)))
        t, v = np.asarray(t_ms), np.asarray(value)
        for name, column in (("t_ms", t), ("value", v)):
            if column.size and column.dtype.kind not in "iu":
                raise ValueError(f"{name} must be integers below 2**63, got dtype {column.dtype}")
            if column.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {column.shape}")
        if t.shape != v.shape:
            raise ValueError(f"t_ms and value must have one length, got {t.size} and {v.size}")
        # copies; a uint64 entry at or above 2**63 casts to a negative one
        self._adopt(t.astype(np.int64), v.astype(np.int64), t, v)

    @classmethod
    def _own(cls, t_ms: np.ndarray, value: np.ndarray) -> SampleColumns:
        """Columns over two int64 arrays the package has just built and no
        longer writes, checked as the constructor checks and frozen, not
        copied. An array may be shared already read-only, as synthesize's
        cached time grid is by every result of one waveform shape."""
        columns = object.__new__(cls)
        columns._adopt(t_ms, value, t_ms, value)
        return columns

    def _adopt(self, t_64, v_64, t, v):
        """Keep int64 t_64 and v_64 read-only; a row out of range raises from t
        and v. Reductions check the columns; only a failed check builds a mask."""
        if t_64.size and (t_64.min() < 0 or v_64.min() < 0 or v_64.max() > ADC_MAX):
            bad = np.flatnonzero((t_64 < 0) | (v_64 < 0) | (v_64 > ADC_MAX))
            Sample(t[bad[0]], v[bad[0]])  # raises for this row
        t_64.flags.writeable = v_64.flags.writeable = False
        object.__setattr__(self, "t_ms", t_64)
        object.__setattr__(self, "value", v_64)

    def __setattr__(self, name, value):
        raise AttributeError(f"SampleColumns is read-only: cannot set {name!r}")

    @classmethod
    def of(cls, samples: Iterable[Sample]) -> SampleColumns:
        """samples as columns; a SampleColumns is returned as it is."""
        if isinstance(samples, SampleColumns):
            return samples
        return cls._own(*_int64_columns(list(samples)))

    def __len__(self) -> int:
        return self.t_ms.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampleColumns(self.t_ms[index], self.value[index])
        return _build(Sample, [int(self.t_ms[index])], [_COUNTS[self.value[index]]])[0]

    def __iter__(self):
        t, v, n = self.t_ms, self.value, _ROW_BLOCK
        return chain.from_iterable(
            _build(Sample, t[i : i + n].tolist(), _COUNTS.take(v[i : i + n]).tolist())
            for i in range(0, t.size, n)
        )

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
        # a sample never crosses a threshold outside the ADC range, so the
        # trigger would never fire, or never re-arm
        if self.lower_threshold < 0:
            raise ValueError(f"lower_threshold must be >= 0, got {self.lower_threshold}")
        if self.upper_threshold > ADC_MAX:
            raise ValueError(f"upper_threshold must be <= {ADC_MAX}, got {self.upper_threshold}")
        if self.lower_threshold >= self.upper_threshold:
            raise ValueError(
                "lower_threshold must be strictly below upper_threshold "
                f"({self.lower_threshold} >= {self.upper_threshold})"
            )
        if self.refractory_ms <= 0:
            raise ValueError(f"refractory_ms must be positive, got {self.refractory_ms}")


@dataclass(frozen=True, slots=True)
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
    in how they find rising edges; each passes a call's edges to _gate,
    which alone applies the refractory window and builds the beats. Both
    raise StreamOrderError on a timestamp that does not advance, before
    changing any state.
    """

    __slots__ = ("config", "high", "last_beat_t_ms", "last_t_ms")

    def __init__(self, config: SchmittConfig = SchmittConfig()):
        self.config = config
        self.high = False
        self.last_beat_t_ms: Optional[int] = None
        self.last_t_ms = -1  # below every t_ms that Sample accepts

    def push(self, sample: Sample) -> Optional[BeatEvent]:
        t = sample.t_ms
        if t <= self.last_t_ms:
            raise StreamOrderError(_NOT_ADVANCING.format(t, self.last_t_ms))
        self.last_t_ms = t
        if self.high:
            if sample.value <= self.config.lower_threshold:
                self.high = False
            return None
        if sample.value < self.config.upper_threshold:
            return None
        self.high = True
        beats = self._gate([t])
        return beats[0] if beats else None

    def push_chunk(self, columns: SampleColumns) -> list[BeatEvent]:
        """push over every sample of a block, in one numpy scan.

        The level changes only at a marked sample, one at or above the
        upper threshold (HIGH) or at or below the lower one (LOW). Nearly
        every sample is a LOW mark, at the baseline, so the scan indexes
        the HIGH marks alone and keeps the LOW ones a bool mask. The rising
        edges are the candidate beats, and only they are stepped in Python,
        by _gate. The order check compares the first time with last_t_ms and
        the block with itself in place; only a refusal copies the block.
        """
        t, v = columns.t_ms, columns.value
        if not t.size:
            return []
        if t[0] <= self.last_t_ms or (t[1:] <= t[:-1]).any():
            ts = np.concatenate(([self.last_t_ms], t))
            i = np.flatnonzero(ts[1:] <= ts[:-1])[0]
            raise StreamOrderError(_NOT_ADVANCING.format(ts[i + 1], ts[i]))
        up = np.flatnonzero(v >= self.config.upper_threshold)
        low = v <= self.config.lower_threshold
        edges = []
        if up.size:
            # up[j] rises iff a LOW mark lies in (up[j - 1], up[j]); the
            # carried level stands in for the one before up[0]
            rising = np.logical_or.reduceat(low[: up[-1] + 1], np.concatenate(([0], up[:-1] + 1)))
            rising[0] |= not self.high
            edges = t[up[rising]].tolist()
            self.high, low = True, low[up[-1] + 1 :]
        self.high = self.high and not low.any()  # any LOW mark after the last HIGH one
        self.last_t_ms = int(t[-1])
        return self._gate(edges)

    def _gate(self, edges: list[int]) -> list[BeatEvent]:
        """The beats at rising edges at the times in edges, in order: an
        edge inside the refractory window of the last beat makes none. The
        window is applied over plain ints, then every beat is built at once."""
        last, refractory = self.last_beat_t_ms, self.config.refractory_ms
        times, ibis = [], []
        for t in edges:
            if last is None or t - last >= refractory:
                times.append(t)
                ibis.append(None if last is None else t - last)
                last = t
        self.last_beat_t_ms = last
        return _build(BeatEvent, times, ibis)


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
    beats: Sequence[BeatEvent], smoothing_window: int = _SMOOTHING_WINDOW
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

    def __init__(self, smoothing_window: int = _SMOOTHING_WINDOW):
        if smoothing_window < 1:
            raise ValueError(f"smoothing_window must be >= 1, got {smoothing_window}")
        self._rates: deque[float] = deque(maxlen=smoothing_window)

    def add(self, beat: BeatEvent) -> Optional[BpmEstimate]:
        if beat.ibi_ms is None:
            return None
        self._rates.append(bpm_from_ibi(beat.ibi_ms))
        # the median as statistics.median takes it, which costs its import
        rates = sorted(self._rates)
        mid = len(rates) // 2
        median = rates[mid] if len(rates) % 2 else (rates[mid - 1] + rates[mid]) / 2
        return plausibility_filter(median, beat.t_ms)
