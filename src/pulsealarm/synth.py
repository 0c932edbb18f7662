"""Synthetic pulse waveforms with known ground-truth beat times.

Each beat contributes a raised-cosine pulse centered on the true beat time,
on top of a flat baseline, optional sinusoidal baseline wander, optional
Gaussian noise, and optional stray pulses (the adversarial mid-amplitude
excursions a single-threshold detector falls for). Output values are
integer ADC counts clamped to [0, 1023], deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .detector import ADC_MAX, Sample
from .engine import EngineConfig, Phase
from .errors import ScenarioError, WaveformParseError, WaveformSpecError
from .physiology import BandMode, UserProfile, satisfaction_band, sleep_rate_range

RateSchedule = Union[float, int, Sequence[tuple[float, float]]]


@dataclass(frozen=True)
class StrayPulse:
    """A spurious excursion: raised cosine reaching `peak` ADC counts at t_ms."""

    t_ms: float
    peak: int
    width_ms: float


@dataclass(frozen=True)
class WaveformSpec:
    duration_ms: int
    sample_rate_hz: float = 100.0
    heart_rate_bpm: RateSchedule = 60.0
    pulse_amplitude: int = 400
    baseline: int = 300
    pulse_width_ms: float = 30.0
    noise_stddev: float = 0.0
    wander_amplitude: float = 0.0
    wander_period_ms: float = 10000.0
    stray_pulses: tuple[StrayPulse, ...] = ()
    rng_seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise WaveformSpecError(f.name, "must be finite")
        if not self.duration_ms > 0:
            raise WaveformSpecError("duration_ms", "must be positive")
        if not 0 < self.sample_rate_hz <= 1000:
            raise WaveformSpecError(
                "sample_rate_hz", "must be in (0, 1000] for integer-ms timestamps"
            )
        if not self.baseline >= 0:
            raise WaveformSpecError("baseline", "must be non-negative")
        if not self.baseline + self.pulse_amplitude <= ADC_MAX:
            raise WaveformSpecError(
                "pulse_amplitude",
                f"baseline + pulse_amplitude exceeds ADC maximum {ADC_MAX}",
            )
        segments = self.segments()
        if not segments or segments[0][0] != 0:
            raise WaveformSpecError("heart_rate_bpm", "schedule must start at 0 ms")
        for start, bpm in segments:
            if not (math.isfinite(start) and 0 < bpm < math.inf):
                raise WaveformSpecError(
                    "heart_rate_bpm", f"segment ({start}, {bpm}) must be finite with bpm > 0"
                )
        max_bpm = max(bpm for _, bpm in segments)
        if not 0 < self.pulse_width_ms < 60000.0 / max_bpm:
            raise WaveformSpecError(
                "pulse_width_ms",
                f"must be in (0, {60000.0 / max_bpm:.1f}) ms, the shortest beat interval",
            )
        if not self.noise_stddev >= 0:
            raise WaveformSpecError("noise_stddev", "must be non-negative")
        if not self.wander_period_ms > 0:
            raise WaveformSpecError("wander_period_ms", "must be positive")
        for stray in self.stray_pulses:
            if not 0 <= stray.peak <= ADC_MAX:
                raise WaveformSpecError(
                    "stray_pulses", f"peak {stray.peak} outside ADC range"
                )
            if not (math.isfinite(stray.t_ms) and 0 < stray.width_ms < math.inf):
                raise WaveformSpecError("stray_pulses", "t_ms and width_ms > 0 must be finite")

    def segments(self) -> tuple[tuple[float, float], ...]:
        """The rate schedule as ((start_ms, bpm), ...), a single segment
        starting at 0 when a constant rate was given."""
        if isinstance(self.heart_rate_bpm, (int, float)):
            return ((0.0, float(self.heart_rate_bpm)),)
        segs = tuple(
            (float(start), float(bpm)) for start, bpm in self.heart_rate_bpm
        )
        return tuple(sorted(segs))


@dataclass(frozen=True)
class GroundTruth:
    beat_times_ms: tuple[float, ...]
    segments: tuple[tuple[float, float], ...]


def _beat_times(spec: WaveformSpec) -> list[float]:
    """Beat times from 0 ms on. Each interval follows the rate of the last
    schedule segment starting at or before the beat that opens it."""
    segments = spec.segments()
    beats = []
    t = 0.0
    i = 0
    while t < spec.duration_ms:
        beats.append(t)
        while i + 1 < len(segments) and t >= segments[i + 1][0]:
            i += 1
        t += 60000.0 / segments[i][1]
    return beats


def _stamp_raised_cosine(
    values: np.ndarray, times: np.ndarray, center: float, amplitude: float, width: float
):
    half = width / 2.0
    lo = np.searchsorted(times, center - half, side="left")
    hi = np.searchsorted(times, center + half, side="right")
    if lo >= hi:
        return
    window = times[lo:hi]
    values[lo:hi] += amplitude * 0.5 * (1.0 + np.cos(math.pi * (window - center) / half))


def synthesize(spec: WaveformSpec) -> tuple[list[Sample], GroundTruth]:
    """Generate the sample stream and its ground truth for a spec."""
    period = 1000.0 / spec.sample_rate_hz
    n = int(round(spec.duration_ms / period))
    t_ms = np.round(np.arange(n) * period).astype(np.int64)
    times = t_ms.astype(np.float64)

    values = np.full(n, float(spec.baseline))
    if spec.wander_amplitude:
        values += spec.wander_amplitude * np.sin(
            2.0 * math.pi * times / spec.wander_period_ms
        )

    beats = _beat_times(spec)
    for beat in beats:
        _stamp_raised_cosine(
            values, times, beat, spec.pulse_amplitude, spec.pulse_width_ms
        )
    for stray in spec.stray_pulses:
        _stamp_raised_cosine(
            values, times, stray.t_ms, stray.peak - spec.baseline, stray.width_ms
        )
    if spec.noise_stddev:
        rng = np.random.default_rng(spec.rng_seed)
        values += rng.normal(0.0, spec.noise_stddev, n)

    counts = np.clip(np.round(values), 0, ADC_MAX).astype(np.int64)
    samples = [Sample(int(t), int(v)) for t, v in zip(t_ms, counts)]
    return samples, GroundTruth(tuple(beats), spec.segments())


def write_waveform(samples: Sequence[Sample], path) -> None:
    """Write samples as CSV: one `t_ms,value` header then one line per sample."""
    with open(path, "w", newline="\n") as f:
        f.write("t_ms,value\n")
        for s in samples:
            f.write(f"{s.t_ms},{s.value}\n")


def read_waveform(path) -> list[Sample]:
    """Read a waveform CSV back into samples, validating the ADC range."""
    samples = []
    with open(path, "r") as f:
        header = f.readline()
        if header.strip() != "t_ms,value":
            raise WaveformParseError(1, f"expected header 't_ms,value', got {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise WaveformParseError(lineno, f"expected 2 fields, got {line!r}")
            try:
                t_ms, value = int(parts[0]), int(parts[1])
            except ValueError:
                raise WaveformParseError(lineno, f"non-integer field in {line!r}") from None
            try:
                samples.append(Sample(t_ms, value))
            except ValueError as exc:
                raise WaveformParseError(lineno, str(exc)) from None
    return samples


@dataclass(frozen=True)
class WakeScenario:
    """A full sleep-to-exercise run: the waveform to play, the engine setup,
    and the transition log the run is expected to produce."""

    spec: WaveformSpec
    alarm_time_ms: int
    engine_config: EngineConfig
    exercise_bpm: float
    expected_transitions: tuple[tuple[Phase, Phase], ...]
    expected_final_phase: Phase


def make_wake_scenario(
    profile: UserProfile,
    *,
    band_mode: BandMode = BandMode.FIXED,
    exercise_bpm: Optional[float] = None,
    sleep_duration_ms: int = 30000,
    exercise_duration_ms: int = 30000,
    sample_rate_hz: float = 1000.0,
    required_streak: int = 1,
    noise_stddev: float = 0.0,
    rng_seed: int = 0,
) -> WakeScenario:
    """Compose a sleep segment at the profile's depressed rate, an alarm at
    its end, and an exercise segment, with the expected engine outcome.

    The exercise rate defaults to the midpoint of the satisfaction band.
    required_streak defaults to 1 here: a single in-band reading silences
    the alarm, the device's literal behavior.
    """
    band = satisfaction_band(profile, band_mode)
    if band.low > band.high:
        raise ScenarioError(f"satisfaction band {band} is empty for this profile")
    sleep_bpm = sleep_rate_range(profile.resting_bpm).midpoint()
    if band.contains(sleep_bpm):
        raise ScenarioError(
            f"sleep rate {sleep_bpm:.1f} bpm already inside the satisfaction band"
        )
    if exercise_bpm is None:
        exercise_bpm = band.midpoint()

    spec = WaveformSpec(
        duration_ms=sleep_duration_ms + exercise_duration_ms,
        sample_rate_hz=sample_rate_hz,
        heart_rate_bpm=((0.0, sleep_bpm), (float(sleep_duration_ms), exercise_bpm)),
        noise_stddev=noise_stddev,
        rng_seed=rng_seed,
    )
    engine_config = EngineConfig(
        satisfaction_band=band, required_streak=required_streak
    )
    transitions: list[tuple[Phase, Phase]] = [(Phase.ARMED, Phase.RINGING)]
    if band.contains(exercise_bpm):
        transitions.append((Phase.RINGING, Phase.STOPPED))
        final = Phase.STOPPED
    else:
        final = Phase.RINGING
    return WakeScenario(
        spec=spec,
        alarm_time_ms=sleep_duration_ms,
        engine_config=engine_config,
        exercise_bpm=exercise_bpm,
        expected_transitions=tuple(transitions),
        expected_final_phase=final,
    )
