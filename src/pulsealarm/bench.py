"""Detector benchmarking: hysteresis trigger vs the single-threshold
baseline over a corpus of waveforms with injected stray pulses and noise."""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, replace
from typing import Sequence

from .detector import ADC_MAX, SchmittConfig, detect_beats, naive_detect_beats
from .synth import StrayPulse, WaveformSpec, synthesize


def match_beats(
    detected_times: Sequence[float],
    truth_times: Sequence[float],
    tolerance_ms: float,
) -> tuple[int, int]:
    """Greedy in-order matching of detected beats to ground truth.

    Returns (false_count, missed_count): detections with no truth beat
    within the tolerance, and truth beats never claimed by a detection.
    """
    false_count = 0
    ti = 0
    matched = 0
    for d in detected_times:
        while ti < len(truth_times) and truth_times[ti] < d - tolerance_ms:
            ti += 1
        if ti < len(truth_times) and abs(truth_times[ti] - d) <= tolerance_ms:
            matched += 1
            ti += 1
        else:
            false_count += 1
    return false_count, len(truth_times) - matched


def place_strays(
    truth_times: Sequence[float],
    count: int,
    peak: int,
    width_ms: float,
    rng: random.Random,
    grid_ms: float,
) -> tuple[StrayPulse, ...]:
    """Scatter stray pulses between beats, snapped to the sample grid and
    kept away from the real pulses so overlap cannot mask them. Each stray
    lands in the middle half of a random beat interval, at least width_ms
    from every other; a draw that lands too close is dropped, and drawing
    stops after count * 100 draws, so fewer than count may be placed."""
    if count == 0 or len(truth_times) < 2:
        return ()
    times: list[float] = []  # sorted, so only a draw's two neighbours can be too close
    attempts = 0
    while len(times) < count and attempts < count * 100:
        attempts += 1
        k = rng.randrange(len(truth_times) - 1)
        ibi = truth_times[k + 1] - truth_times[k]
        offset = rng.uniform(0.25 * ibi, 0.75 * ibi)
        t = grid_ms * round((truth_times[k] + offset) / grid_ms)
        # non-overlapping strays only: two superimposed mid-band pulses
        # could sum past the upper threshold and stop being "mid-band"
        j = bisect.bisect(times, t)
        if all(abs(t - other) >= width_ms for other in times[max(j - 1, 0) : j + 1]):
            times.insert(j, t)
    return tuple(StrayPulse(t, peak, width_ms) for t in times)


@dataclass(frozen=True)
class BenchRow:
    stray_count: int
    noise_stddev: float
    schmitt_false: int
    schmitt_missed: int
    naive_false: int
    naive_missed: int


def bench_corpus(
    base_spec: WaveformSpec,
    stray_counts: Sequence[int] = (0, 10, 20),
    noise_levels: Sequence[float] = (0.0, 4.0, 8.0),
    runs_per_cell: int = 5,
    schmitt: SchmittConfig = SchmittConfig(),
    naive_threshold: int = 500,
    stray_peak: int = 510,
    stray_width_ms: float = 80.0,
    match_tolerance_ms: float = 100.0,
    seed: int = 0,
) -> list[BenchRow]:
    """Sweep stray density x noise level; per cell, total the false and
    missed beats of both detectors across runs_per_cell seeded waveforms.
    The defaults are `pulsealarm bench`'s: 80 ms strays peak at 510 counts,
    inside the default Schmitt band and above the naive threshold of 500.
    seed, a non-negative int, fixes every cell's strays and noise."""
    if runs_per_cell < 1:
        raise ValueError(f"runs_per_cell must be >= 1, got {runs_per_cell}")
    if any(count < 0 for count in stray_counts):
        raise ValueError(f"stray_counts must be >= 0, got {list(stray_counts)}")
    if not match_tolerance_ms >= 0:  # rejects NaN too
        raise ValueError(f"match_tolerance_ms must be >= 0, got {match_tolerance_ms}")
    # checked here, not where synthesis or the naive detector would meet
    # them, so a bad value is named by its key even when no cell uses it
    if not 1 <= naive_threshold <= ADC_MAX:  # the baseline's lower threshold is one below
        raise ValueError(f"naive_threshold must be in [1, {ADC_MAX}], got {naive_threshold}")
    if not 0 <= stray_peak <= ADC_MAX:
        raise ValueError(f"stray_peak must be in [0, {ADC_MAX}], got {stray_peak}")
    if not 0 < stray_width_ms < math.inf:  # rejects NaN too
        raise ValueError(f"stray_width_ms must be positive and finite, got {stray_width_ms}")
    if not all(0 <= noise < math.inf for noise in noise_levels):
        raise ValueError(f"noise_levels must be finite and >= 0, got {list(noise_levels)}")
    if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rows = []
    grid_ms = 1000.0 / base_spec.sample_rate_hz
    base_beats = base_spec.beat_times()
    # the most strays that fit: in each beat interval they span at most its
    # middle half plus a grid step (each snaps half a step either way)
    room = sum(math.floor(((b - a) / 2 + grid_ms) / stray_width_ms) + 1
               for a, b in zip(base_beats, base_beats[1:]))
    if any(count > room for count in stray_counts):
        raise ValueError(f"stray_counts: at most {room} strays of {stray_width_ms:g} ms fit "
                         f"between the base's beats, got {list(stray_counts)}")
    for stray_count in stray_counts:
        for noise in noise_levels:
            totals = [0, 0, 0, 0]
            for run in range(runs_per_cell):
                cell_seed = seed * 1_000_003 + hash((stray_count, noise, run)) % 1_000_003
                rng = random.Random(cell_seed)
                strays = place_strays(
                    base_beats, stray_count, stray_peak, stray_width_ms, rng, grid_ms
                )
                if len(strays) < stray_count:
                    raise ValueError(f"stray_counts: only {len(strays)} of {stray_count} "
                                     f"strays found room in {stray_count * 100} draws "
                                     f"(noise {noise:g}, run {run})")
                spec = replace(
                    base_spec, noise_stddev=noise, stray_pulses=strays, rng_seed=cell_seed
                )
                samples, truth = synthesize(spec)
                schmitt_times = [b.t_ms for b in detect_beats(samples, schmitt)]
                naive_times = [b.t_ms for b in naive_detect_beats(samples, naive_threshold)]
                sf, sm = match_beats(schmitt_times, truth.beat_times_ms, match_tolerance_ms)
                nf, nm = match_beats(naive_times, truth.beat_times_ms, match_tolerance_ms)
                totals[0] += sf
                totals[1] += sm
                totals[2] += nf
                totals[3] += nm
            rows.append(BenchRow(stray_count, noise, *totals))
    return rows
