"""Beat detection on a noisy sampled pulse waveform.

BeatDetector is a streaming software Schmitt trigger: the output only goes
HIGH once the signal reaches the upper threshold and only re-arms after it
falls to the lower threshold, so excursions that stay inside the hysteresis
band can never produce a beat. A refractory guard suppresses double-triggers
on a single pulse. A deliberately fragile single-threshold detector is kept
around as a comparison baseline.
"""

from __future__ import annotations

import enum
import statistics
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

from .errors import StreamOrderError

ADC_MAX = 1023

PLAUSIBLE_MIN_BPM = 23.0
PLAUSIBLE_MAX_BPM = 200.0


class BpmStatus(enum.Enum):
    VALID = "valid"
    REJECTED_LOW = "rejected_low"
    REJECTED_HIGH = "rejected_high"


@dataclass(frozen=True)
class Sample:
    """One timestamped ADC reading, value in [0, 1023]."""

    t_ms: int
    value: int

    def __post_init__(self):
        if self.t_ms < 0:
            raise ValueError(f"t_ms must be non-negative, got {self.t_ms}")
        if not 0 <= self.value <= ADC_MAX:
            raise ValueError(f"value must be in [0, {ADC_MAX}], got {self.value}")


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
    Values inside the band change nothing. push raises StreamOrderError on a
    timestamp that does not advance, before changing any state.
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
        last = self.last_beat_t_ms
        if last is not None and t - last < self.config.refractory_ms:
            return None
        self.last_beat_t_ms = t
        return BeatEvent(t, None if last is None else t - last)


def detect_beats(
    samples: Iterable[Sample], config: SchmittConfig = SchmittConfig()
) -> Iterator[BeatEvent]:
    """Run a BeatDetector over an ordered sample stream.

    Yields one BeatEvent per accepted rising edge; single-pass and causal.
    Raises StreamOrderError on a non-monotone timestamp.
    """
    push = BeatDetector(config).push
    for sample in samples:
        beat = push(sample)
        if beat is not None:
            yield beat


def naive_detect_beats(
    samples: Iterable[Sample], single_threshold: int
) -> Iterator[BeatEvent]:
    """Single-threshold baseline: a beat on every upward crossing.

    No hysteresis and no refractory guard, so mid-amplitude stray pulses
    and noise riding the threshold produce false beats. Kept for
    benchmarking against detect_beats.
    """
    last_t: Optional[int] = None
    prev_value: Optional[int] = None
    prev_beat_t: Optional[int] = None
    for sample in samples:
        if last_t is not None and sample.t_ms <= last_t:
            raise StreamOrderError(
                f"sample at t_ms={sample.t_ms} does not advance past {last_t}"
            )
        last_t = sample.t_ms
        below_before = prev_value is None or prev_value < single_threshold
        prev_value = sample.value
        if below_before and sample.value >= single_threshold:
            ibi = None if prev_beat_t is None else sample.t_ms - prev_beat_t
            prev_beat_t = sample.t_ms
            yield BeatEvent(sample.t_ms, ibi)


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
