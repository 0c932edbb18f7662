import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsealarm import (
    BeatDetector,
    BeatEvent,
    BpmStatus,
    Sample,
    SchmittConfig,
    StrayPulse,
    StreamOrderError,
    WaveformSpec,
    bpm_from_ibi,
    detect_beats,
    estimate_bpm,
    naive_detect_beats,
    plausibility_filter,
    synthesize,
)

from oracle import offline_beat_scan, offline_crossing_scan

CONFIG = SchmittConfig(upper_threshold=550, lower_threshold=470, refractory_ms=250)


def pushed_beats(seq, detector=None):
    """Push (t_ms, value) pairs through a BeatDetector; the beats emitted."""
    detector = detector or BeatDetector(CONFIG)
    beats = [detector.push(Sample(t, v)) for t, v in seq]
    return [b for b in beats if b is not None]


class TestSchmittStep:
    """One BeatDetector.push is one step of the trigger."""

    def test_low_to_high_emits_edge(self):
        assert pushed_beats([(0, 560)]) == [BeatEvent(0, None)]

    def test_band_value_does_not_toggle_from_low(self):
        # a band value leaves the trigger LOW, so the next crossing still beats
        assert pushed_beats([(0, 500), (10, 560)]) == [BeatEvent(10, None)]

    def test_high_holds_through_band_then_drops(self):
        # HIGH holds through a band value: no re-trigger at 600 ms; only a
        # drop to the lower threshold re-arms it, so 900 ms beats
        seq = [(0, 560), (300, 500), (600, 560), (800, 460), (900, 560)]
        assert pushed_beats(seq) == [BeatEvent(0, None), BeatEvent(900, 900)]

    def test_refractory_suppresses_edge(self):
        # Beat at t=0, drop below lower, rise again at t=100: the level
        # flips but no beat is emitted, and the trigger must re-arm before
        # the next beat. Confirmed against the offline oracle.
        seq = [(0, 560), (50, 400), (100, 560), (300, 560), (350, 400), (400, 560)]
        assert pushed_beats(seq) == [BeatEvent(0, None), BeatEvent(400, 400)]
        oracle = offline_beat_scan(
            [t for t, _ in seq], [v for _, v in seq], 550, 470, 250
        )
        assert oracle == [0, 400]

    def test_refused_sample_changes_nothing(self):
        detector = BeatDetector(CONFIG)
        assert pushed_beats([(0, 560), (50, 400)], detector) == [BeatEvent(0, None)]
        with pytest.raises(StreamOrderError):
            detector.push(Sample(50, 560))
        assert pushed_beats([(300, 560)], detector) == [BeatEvent(300, 300)]


class TestDetectBeats:
    def test_clean_60_bpm_30s(self):
        samples, truth = synthesize(WaveformSpec(duration_ms=30000, heart_rate_bpm=60))
        beats = list(detect_beats(samples, CONFIG))
        assert abs(len(beats) - 30) <= 1
        period = 10  # 100 Hz
        for beat, true_t in zip(beats, truth.beat_times_ms):
            assert abs(beat.t_ms - true_t) <= period
        for beat in beats[1:]:
            assert beat.ibi_ms == pytest.approx(1000, abs=period)

    def test_flatline_no_beats(self):
        samples = [Sample(10 * i, 0) for i in range(100)]
        assert list(detect_beats(samples, CONFIG)) == []

    def test_mid_band_strays_change_nothing(self):
        clean = WaveformSpec(duration_ms=30000, heart_rate_bpm=60)
        strays = tuple(
            StrayPulse(500.0 + 1000 * k, peak=500, width_ms=80.0) for k in range(30)
        ) + tuple(
            StrayPulse(250.0 + 1500 * k, peak=520, width_ms=60.0) for k in range(20)
        )
        dirty = WaveformSpec(
            duration_ms=30000, heart_rate_bpm=60, stray_pulses=strays
        )
        clean_beats = list(detect_beats(synthesize(clean)[0], CONFIG))
        dirty_beats = list(detect_beats(synthesize(dirty)[0], CONFIG))
        assert dirty_beats == clean_beats

    def test_non_monotone_timestamp_rejected(self):
        samples = [Sample(0, 0), Sample(10, 0), Sample(10, 0)]
        with pytest.raises(StreamOrderError):
            list(detect_beats(samples, CONFIG))

    def test_first_beat_has_no_ibi(self):
        samples, _ = synthesize(WaveformSpec(duration_ms=5000, heart_rate_bpm=60))
        beats = list(detect_beats(samples, CONFIG))
        assert beats[0].ibi_ms is None
        assert all(b.ibi_ms is not None for b in beats[1:])


class TestNaiveDetectBeats:
    def test_matches_schmitt_on_clean_waveform(self):
        samples, _ = synthesize(WaveformSpec(duration_ms=30000, heart_rate_bpm=60))
        naive = list(naive_detect_beats(samples, 550))
        schmitt = list(detect_beats(samples, CONFIG))
        assert len(naive) == len(schmitt)

    def test_false_beats_on_strays_riding_threshold(self):
        strays = tuple(
            StrayPulse(500.0 + 1000 * k, peak=560, width_ms=80.0) for k in range(30)
        )
        spec = WaveformSpec(
            duration_ms=30000, heart_rate_bpm=60, noise_stddev=3.0,
            stray_pulses=strays, rng_seed=7,
        )
        samples, truth = synthesize(spec)
        naive = list(naive_detect_beats(samples, 550))
        assert len(naive) > len(truth.beat_times_ms)

    def test_flatline(self):
        assert list(naive_detect_beats([Sample(i, 0) for i in range(50)], 550)) == []

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_crossing_oracle(self, seed):
        # noise and strays riding a random integer threshold
        rng = random.Random(30_000 + seed)
        threshold = rng.randrange(350, 700)
        strays = tuple(
            StrayPulse(rng.uniform(0, 8000), rng.randrange(threshold - 30, threshold + 30),
                       rng.uniform(20, 80))
            for _ in range(rng.randrange(0, 10))
        )
        spec = WaveformSpec(
            duration_ms=8000, sample_rate_hz=rng.choice([100, 250, 1000]),
            heart_rate_bpm=rng.uniform(40, 180), baseline=rng.randrange(100, 301),
            noise_stddev=rng.uniform(0, 30), stray_pulses=strays, rng_seed=seed,
        )
        samples, _ = synthesize(spec)
        beats = list(naive_detect_beats(samples, threshold))
        oracle = offline_crossing_scan(
            [s.t_ms for s in samples], [s.value for s in samples], threshold
        )
        assert [(b.t_ms, b.ibi_ms) for b in beats] == oracle


class TestBpmFromIbi:
    @pytest.mark.parametrize("ibi,expected", [(1000, 60.0), (600, 100.0), (300, 200.0)])
    def test_conversion(self, ibi, expected):
        assert bpm_from_ibi(ibi) == expected

    @pytest.mark.parametrize("bad", [0, -5])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError):
            bpm_from_ibi(bad)


class TestPlausibilityFilter:
    @pytest.mark.parametrize(
        "bpm,status",
        [
            (22.9, BpmStatus.REJECTED_LOW),
            (23.0, BpmStatus.VALID),
            (200.0, BpmStatus.VALID),
            (201.0, BpmStatus.REJECTED_HIGH),
        ],
    )
    def test_boundaries(self, bpm, status):
        est = plausibility_filter(bpm, t_ms=0)
        assert est.status is status
        assert est.bpm == bpm


class TestEstimateBpm:
    def test_single_beat_no_estimate(self):
        assert estimate_bpm([BeatEvent(0, None)], 3) is None

    def test_steady_intervals(self):
        beats = [
            BeatEvent(0, None), BeatEvent(1000, 1000),
            BeatEvent(2000, 1000), BeatEvent(3000, 1000),
        ]
        est = estimate_bpm(beats, 3)
        assert est.bpm == 60.0
        assert est.status is BpmStatus.VALID

    def test_dropped_beat_median(self):
        # intervals 600, 600, 2000 -> rates 100, 100, 30 -> median 100
        beats = [
            BeatEvent(0, None), BeatEvent(600, 600),
            BeatEvent(1200, 600), BeatEvent(3200, 2000),
        ]
        est = estimate_bpm(beats, 3)
        assert est.bpm == 100.0
        assert est.status is BpmStatus.VALID

    def test_trailing_beat_without_ibi_stamps_estimate(self):
        beats = [BeatEvent(0, None), BeatEvent(1000, 1000), BeatEvent(5000, None)]
        est = estimate_bpm(beats, 3)
        assert est.t_ms == 5000
        assert est.bpm == 60.0


# Property tests

@given(
    values=st.lists(st.integers(min_value=0, max_value=549), min_size=1, max_size=200)
)
def test_hysteresis_immunity(values):
    samples = [Sample(10 * i, v) for i, v in enumerate(values)]
    assert list(detect_beats(samples, CONFIG)) == []


@given(
    values=st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=300)
)
def test_no_double_trigger_and_monotone_output(values):
    samples = [Sample(10 * i, v) for i, v in enumerate(values)]
    beats = list(detect_beats(samples, CONFIG))
    times = [b.t_ms for b in beats]
    assert times == sorted(set(times))
    for prev, cur in zip(times, times[1:]):
        assert cur - prev >= CONFIG.refractory_ms


@given(bpm=st.floats(min_value=0, max_value=500, allow_nan=False))
def test_filter_partition(bpm):
    status = plausibility_filter(bpm, 0).status
    assert (status is BpmStatus.VALID) == (23 <= bpm <= 200)
    assert (status is BpmStatus.REJECTED_LOW) == (bpm < 23)
    assert (status is BpmStatus.REJECTED_HIGH) == (bpm > 200)


@settings(max_examples=50)
@given(
    values=st.lists(st.integers(min_value=200, max_value=800), min_size=1, max_size=200),
    shift=st.integers(min_value=-150, max_value=150),
)
def test_scale_invariance(values, shift):
    base = [Sample(10 * i, v) for i, v in enumerate(values)]
    shifted = [Sample(10 * i, v + shift) for i, v in enumerate(values)]
    cfg = SchmittConfig(550 + shift, 470 + shift, 250)
    base_beats = [b.t_ms for b in detect_beats(base, CONFIG)]
    shifted_beats = [b.t_ms for b in detect_beats(shifted, cfg)]
    assert base_beats == shifted_beats
