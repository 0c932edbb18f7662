import random
import statistics
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import accumulate, pairwise, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsealarm import (
    ADC_MAX,
    BeatDetector,
    BeatEvent,
    BpmEstimator,
    BpmStatus,
    Sample,
    SampleColumns,
    SampleOutcome,
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
from pulsealarm.detector import _COUNTS, _ROW_BLOCK, _build

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

    def test_a_drop_to_exactly_the_lower_threshold_re_arms(self):
        # the lower threshold itself re-arms the trigger, as in push_chunk
        # and the oracle, so the rise at 300 ms beats
        seq = [(0, 600), (1, 470), (300, 600)]
        beats = pushed_beats(seq, BeatDetector(SchmittConfig()))
        assert [b.t_ms for b in beats] == [0, 300]
        assert offline_beat_scan([0, 1, 300], [600, 470, 600], 550, 470, 250) == [0, 300]

    def test_refused_sample_changes_nothing(self):
        detector = BeatDetector(CONFIG)
        assert pushed_beats([(0, 560), (50, 400)], detector) == [BeatEvent(0, None)]
        with pytest.raises(StreamOrderError):
            detector.push(Sample(50, 560))
        assert pushed_beats([(300, 560)], detector) == [BeatEvent(300, 300)]


class TestSampleColumns:
    SAMPLES = [Sample(0, 5), Sample(10, 1023), Sample(25, 0), Sample(40, 600)]

    def test_sequence_of_samples(self):
        columns = SampleColumns.of(self.SAMPLES)
        assert len(columns) == 4
        assert columns[1] == Sample(10, 1023)
        assert columns[-1] == Sample(40, 600)
        assert list(columns) == self.SAMPLES
        assert columns[1:3] == self.SAMPLES[1:3]
        assert isinstance(columns[1:3], SampleColumns)
        assert columns[::-1] == self.SAMPLES[::-1]
        assert Sample(25, 0) in columns
        with pytest.raises(IndexError):
            columns[4]

    def test_equality(self):
        columns = SampleColumns([0, 10, 25, 40], [5, 1023, 0, 600])
        assert columns == self.SAMPLES
        assert self.SAMPLES == columns
        assert columns == SampleColumns.of(self.SAMPLES)
        assert columns != self.SAMPLES[:3]
        assert columns != [*self.SAMPLES[:3], Sample(40, 601)]
        assert columns != tuple(self.SAMPLES)

    def test_columns_are_read_only_int64(self):
        t_ms = np.array([0, 10], dtype=np.int32)
        columns = SampleColumns(t_ms, [1, 2])
        assert columns.t_ms.dtype == columns.value.dtype == np.int64
        t_ms[0] = 5  # the columns are a copy
        assert columns[0] == Sample(0, 1)
        with pytest.raises(ValueError):
            columns.value[0] = 3

    def test_constructor_copies_int64_arrays(self):
        t_ms, value = np.array([0, 10]), np.array([5, 6])
        columns = SampleColumns(t_ms, value)
        t_ms[0] = value[0] = 7  # the caller's arrays stay writeable, and apart
        assert list(columns) == [Sample(0, 5), Sample(10, 6)]

    def test_columns_cannot_be_rebound(self):
        """Rows are built without Sample's check, trusting the columns'
        check at construction, so neither column can be swapped after it."""
        columns = SampleColumns(np.array([0, 10]), np.array([5, 6]))
        for name in ("t_ms", "value"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(columns, name, np.array([-1, ADC_MAX + 1]))
        assert list(columns) == [Sample(0, 5), Sample(10, 6)]

    def test_zero_sample_waveform(self):
        samples, _ = synthesize(WaveformSpec(duration_ms=4, sample_rate_hz=100))
        assert len(samples) == 0
        assert samples == []
        assert SampleColumns([], []) == samples  # [] infers float64 and passes
        assert detect_beats(samples, CONFIG) == []
        assert naive_detect_beats(samples, 500) == []

    def test_time_beyond_int64_refused_not_wrapped(self):
        with pytest.raises(ValueError, match=r"t_ms must be below 2\*\*63"):
            detect_beats([Sample(0, 600), Sample(2**63, 600)], CONFIG)


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


NAIVE_500 = SchmittConfig(500, 499, 1)  # naive_detect_beats(samples, 500)


# (t_ms, value) blocks, each fed whole to push_chunk, and the beats they
# give under CONFIG (HIGH at 550 and above, LOW at 470 and below)
_EDGE_BLOCKS = {
    "low-marks-only-re-arm-carried-high":
        ([[(0, 600)], [(100, 500), (200, 400)], [(300, 600)]], [0, 300]),
    "block-inside-the-band-keeps-high":
        ([[(0, 600)], [(100, 500), (200, 520)], [(300, 600)]], [0]),
    "block-inside-the-band-keeps-low":
        ([[(0, 400)], [(100, 500), (200, 520)], [(300, 600)]], [300]),
    "first-sample-high-carried-high": ([[(0, 600), (100, 500)], [(300, 600), (400, 400)]], [0]),
    "first-sample-high-carried-low":
        ([[(0, 600), (100, 400)], [(300, 600), (400, 400)]], [0, 300]),
    "consecutive-high-marks": ([[(0, 400), (10, 600), (20, 600), (30, 700), (40, 400),
                                 (300, 550), (310, 551), (320, 400), (330, 600)]], [10, 300]),
    "ends-high-then-starts-low": ([[(0, 400), (10, 600)], [(20, 400), (300, 600)]], [10, 300]),
}


@pytest.mark.parametrize("blocks, expected", _EDGE_BLOCKS.values(), ids=_EDGE_BLOCKS.keys())
def test_push_chunk_edge_cases(blocks, expected):
    """push_chunk equals push sample by sample after every block, and the
    offline scan over the whole stream."""
    chunked, pushed, beats = BeatDetector(CONFIG), BeatDetector(CONFIG), []
    for block in blocks:
        out = chunked.push_chunk(SampleColumns([t for t, _ in block], [v for _, v in block]))
        assert out == pushed_beats(block, pushed)
        assert state(chunked) == state(pushed)
        beats += out
    times, values = zip(*(row for block in blocks for row in block))
    assert [b.t_ms for b in beats] == offline_beat_scan(times, values, 550, 470, 250) == expected


@st.composite
def chunked_streams(draw):
    """Samples 1-125 ms apart, at most one of them not advancing, cut into
    chunks (some empty), each fed whole to push_chunk or sample by sample
    to push. Values favour the thresholds of CONFIG and NAIVE_500, and two
    125 ms steps span CONFIG's refractory window exactly."""
    steps = draw(st.lists(st.integers(1, 120) | st.just(125), max_size=80))
    cuts = draw(st.lists(st.integers(0, len(steps)), min_size=1, max_size=8))
    if steps and draw(st.booleans()):
        bad = draw(st.integers(0, len(steps) - 1))
        steps[bad] = draw(st.integers(-5, 0))
        if draw(st.booleans()):  # the refused sample opens a chunk
            cuts.append(bad)
    t = draw(st.integers(0, 1000))
    samples = []
    for step in steps:
        t = max(0, t + step)
        value = draw(st.integers(0, 1023) | st.sampled_from([470, 471, 499, 500, 549, 550]))
        samples.append(Sample(t, value))
    bounds = [0, *sorted(cuts), len(samples)]
    return samples, [(lo, hi, draw(st.booleans())) for lo, hi in pairwise(bounds)]


def state(detector):
    return detector.high, detector.last_beat_t_ms, detector.last_t_ms


def feed_chunks(detector, samples, chunks):
    """Beats from feeding the chunks in order, and the StreamOrderError
    message with the index of the first sample of the call that raised it
    (None, len(samples) when none did)."""
    beats = []
    for lo, hi, whole in chunks:
        calls = [(lo, SampleColumns.of(samples[lo:hi]))] if whole else [
            (i, samples[i]) for i in range(lo, hi)
        ]
        for start, arg in calls:
            before = state(detector)
            try:
                out = detector.push_chunk(arg) if whole else detector.push(arg)
            except StreamOrderError as exc:
                assert state(detector) == before
                return beats, str(exc), start
            beats += out if whole else [out] if out else []
    return beats, None, len(samples)


@settings(max_examples=200)
@given(stream=chunked_streams(), config=st.sampled_from([CONFIG, NAIVE_500]))
# edges exactly the refractory window apart, in one chunk
@example(stream=([Sample(0, 560), Sample(125, 400), Sample(250, 560)], [(0, 3, True)]),
         config=CONFIG)
# a chunk that ends HIGH, then one that opens HIGH: no edge between them
@example(stream=([Sample(0, 600), Sample(10, 600)], [(0, 1, True), (1, 2, True)]),
         config=NAIVE_500)
# a chunk whose first time repeats the last chunk's last time: refused as push refuses it
@example(stream=([Sample(0, 300), Sample(10, 600), Sample(10, 600), Sample(20, 300)],
                 [(0, 2, True), (2, 4, True)]), config=CONFIG)
def test_chunking_equals_push(stream, config):
    samples, chunks = stream

    def pushed(samples):
        return feed_chunks(BeatDetector(config), samples, [(0, len(samples), False)])

    beats, error, stop = feed_chunks(BeatDetector(config), samples, chunks)
    _, reference_error, bad = pushed(samples)
    assert error == reference_error
    assert stop <= bad
    # the calls before the raising one fed the samples before `stop`
    assert beats == pushed(samples[:stop])[0]
    reference = pushed(samples[:bad])[0]
    times = [s.t_ms for s in samples[:bad]]
    values = [s.value for s in samples[:bad]]
    if config is CONFIG:
        assert [b.t_ms for b in reference] == offline_beat_scan(times, values, 550, 470, 250)
    else:
        assert [(b.t_ms, b.ibi_ms) for b in reference] == offline_crossing_scan(times, values, 500)


def test_every_four_samples_at_the_thresholds_beat_as_the_offline_scan():
    """Small scope: with SchmittConfig(550, 470, 3), every 4-sample sequence
    of values one below, at and one above each threshold, at time steps of
    1 or 3 ms (inside and at the refractory window), gives offline_beat_scan's
    beats through push, and the same beats through push_chunk split into two
    calls at every point. An exhaustive search finds every defect of its
    size, where random draws only sample (Jackson, "Software Abstractions",
    MIT Press 2006)."""
    config = SchmittConfig(550, 470, 3)
    levels = [469, 470, 471, 549, 550, 551]
    for steps in product([1, 3], repeat=3):
        times = list(accumulate(steps, initial=0))
        for values in product(levels, repeat=4):
            expected = offline_beat_scan(times, values, 550, 470, 3)
            pushed = pushed_beats(zip(times, values), BeatDetector(config))
            assert [b.t_ms for b in pushed] == expected, (times, values)
            columns = SampleColumns(np.array(times), np.array(values))
            for cut in range(len(times) + 1):
                detector = BeatDetector(config)
                chunked = detector.push_chunk(columns[:cut]) + detector.push_chunk(columns[cut:])
                assert chunked == pushed, (times, values, cut)


@given(
    window=st.integers(min_value=1, max_value=15),
    # a few repeated intervals, so that windows hold ties
    ibis=st.lists(st.sampled_from([300, 600, 1000]) | st.integers(min_value=1, max_value=5000),
                  min_size=1, max_size=40),
)
def test_estimator_median_equals_statistics_median(window, ibis):
    """Each reading is statistics.median of the window's rates, bit for bit,
    at odd and even fills, ties included."""
    estimator, t, rates = BpmEstimator(window), 0, []
    assert estimator.add(BeatEvent(t)) is None
    for ibi in ibis:
        t += ibi
        rates.append(bpm_from_ibi(ibi))
        estimate = estimator.add(BeatEvent(t, ibi))
        expected = statistics.median(rates[-window:])
        assert (estimate.t_ms, estimate.bpm.hex()) == (t, expected.hex())
        assert estimate == plausibility_filter(expected, t)


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


@pytest.mark.parametrize(
    "make,message",
    [
        pytest.param(lambda: Sample(-1, 0), "t_ms must be non-negative", id="sample-negative-t"),
        pytest.param(lambda: SchmittConfig(upper_threshold=500, lower_threshold=500),
                     "lower_threshold must be strictly below", id="schmitt-lower-not-below"),
        pytest.param(lambda: SchmittConfig(refractory_ms=0), "refractory_ms must be positive",
                     id="schmitt-refractory"),
        pytest.param(lambda: SchmittConfig(upper_threshold=1024), "upper_threshold must be <= 1023",
                     id="schmitt-upper-above-adc"),
        pytest.param(lambda: SchmittConfig(lower_threshold=-1), "lower_threshold must be >= 0",
                     id="schmitt-lower-negative"),
        pytest.param(lambda: plausibility_filter(-1.0, 0), "bpm must be non-negative",
                     id="filter-negative-bpm"),
        pytest.param(lambda: SampleColumns([0, -1], [0, 0]), "t_ms must be non-negative, got -1",
                     id="columns-negative-t"),
        pytest.param(lambda: SampleColumns([0, 1], [0, 1024]), "value must be in [0, 1023], got 1024",
                     id="columns-value-above-adc"),
        pytest.param(lambda: SampleColumns([0, 1], [-1, 0]), "value must be in [0, 1023], got -1",
                     id="columns-value-negative"),
        # the first row that breaks a rule, as a row-by-row reader meets it
        pytest.param(lambda: SampleColumns([0, 10, 20, -5], [0, 1024, 0, 0]),
                     "value must be in [0, 1023], got 1024", id="columns-first-bad-row"),
        pytest.param(lambda: SampleColumns([0, 1], [0]), "t_ms and value must have one length",
                     id="columns-length-mismatch"),
        # two arrays of different lengths, judged after their dtypes and shapes
        pytest.param(lambda: SampleColumns(np.arange(2), np.arange(3)),
                     "t_ms and value must have one length, got 2 and 3",
                     id="columns-array-length-mismatch"),
        pytest.param(lambda: SampleColumns(np.arange(3), np.arange(0)),
                     "t_ms and value must have one length, got 3 and 0",
                     id="columns-array-and-empty-array"),
        # a list's rows are built as Samples, so a nested list is a row
        # Sample refuses; an array is judged by its shape
        pytest.param(lambda: SampleColumns([[0, 1]], [[0, 0]]), "t_ms must be an integer, got [0, 1]",
                     id="columns-2d"),
        pytest.param(lambda: SampleColumns([0, 1], [[5], [6]]), "value must be an integer, got [5]",
                     id="columns-nested-value-list"),
        pytest.param(lambda: SampleColumns(np.zeros((1, 2), int), np.zeros((1, 2), int)),
                     "t_ms must be one-dimensional, got shape (1, 2)", id="columns-2d-array"),
        pytest.param(lambda: SampleColumns([2**63], [0]), "t_ms must be below 2**63",
                     id="columns-t-beyond-int64"),
        pytest.param(lambda: SampleColumns(np.array([2**63], dtype=np.uint64), [0]),
                     "t_ms must be below 2**63", id="columns-uint64-t"),
        pytest.param(lambda: SampleColumns(np.array([0.5]), np.array([0])),
                     "t_ms must be integers below 2**63, got dtype float64",
                     id="columns-float-t-array"),
        # a list next to an array: the rows are built as Samples
        pytest.param(lambda: SampleColumns([0], np.array([0.5])),
                     "value must be an integer, got", id="columns-float-value"),
        pytest.param(lambda: SampleColumns(np.array([0, 1]), [5, 1024]),
                     "value must be in [0, 1023], got 1024", id="columns-array-and-list"),
        pytest.param(lambda: SampleColumns([0, 1.9], [600, 0]),
                     "t_ms must be an integer, got 1.9", id="columns-float-t-list"),
        pytest.param(lambda: SampleColumns([0, 1], [600.7, 0]),
                     "value must be an integer, got 600.7", id="columns-float-value-list"),
        # a fractional time is refused, not cut to one that does not advance
        pytest.param(lambda: detect_beats([Sample(0, 600), Sample(0.5, 0), Sample(1, 600)]),
                     "t_ms must be an integer, got 0.5", id="detect-fractional-t"),
        # Sample's rule: integers, not floats or bools, and a time below 2**63
        pytest.param(lambda: Sample(0.5, 0), "t_ms must be an integer, got 0.5",
                     id="sample-float-t"),
        pytest.param(lambda: Sample(True, 5), "t_ms must be an integer, got True",
                     id="sample-bool-t"),
        pytest.param(lambda: Sample(True, 5.5), "t_ms must be an integer, got True",
                     id="sample-bool-t-float-value"),
        pytest.param(lambda: Sample(0, 5.0), "value must be an integer, got 5.0",
                     id="sample-float-value"),
        pytest.param(lambda: Sample(2**63, 0), "t_ms must be below 2**63, got 9223372036854775808",
                     id="sample-t-beyond-int64"),
        pytest.param(lambda: SampleColumns([True], [5]), "t_ms must be an integer, got True",
                     id="columns-bool-t"),
    ],
)
def test_constructor_checks(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert exc.type is ValueError
    assert str(exc.value).startswith(message)


# One row field on each side of every bound of Sample's rule, as an int, a
# numpy integer, a float or a bool.
_EDGES = [bound + d for bound in (0, ADC_MAX, 2**63) for d in (-1, 0, 1)]
_ints = st.sampled_from(_EDGES) | st.integers(-(2**64), 2**64)
_fields = st.one_of(
    _ints,
    _ints.filter(lambda x: -(2**63) <= x < 2**63).map(np.int64),
    _ints.filter(lambda x: 0 <= x < 2**64).map(np.uint64),
    st.integers(0, 2**16 - 1).map(np.uint16),
    st.integers(-128, 127).map(np.int8),
    st.sampled_from([float(x) for x in _EDGES]) | st.floats(),
    st.booleans(),
    st.booleans().map(np.bool_),
)


def _sample_or_none(t, v):
    try:
        return Sample(t, v)
    except ValueError:
        return None


def _columns_or_none(t, v):
    try:
        return SampleColumns(t, v)
    except ValueError:
        return None


def _refusal(build, *args):
    """The message of the ValueError build(*args) raises, else None."""
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _exact_int(x) -> bool:
    return type(x) is int or isinstance(x, np.integer)


@settings(max_examples=400)
@given(t=_fields, v=_fields, t2=_fields, v2=_fields)
@example(t=0.5, v=0, t2=1, v2=0)
@example(t=True, v=5, t2=1, v2=0)
@example(t=2**63, v=0, t2=1, v2=0)
@example(t=np.uint64(2**63 - 1), v=np.uint16(ADC_MAX), t2=1, v2=0)
# numpy infers one dtype for a whole list: int64 for [True, 2], float64 for
# [np.uint64(6), 7]
@example(t=True, v=5, t2=2, v2=5)
@example(t=np.uint64(6), v=5, t2=7, v2=5)
# ints no one integer dtype holds: numpy infers float64 for [-1, 2**63] and
# object for [2**64], and the row's range message must still win
@example(t=-1, v=5, t2=2**63, v2=5)
@example(t=2**64, v=5, t2=1, v2=0)
@example(t=0, v=ADC_MAX + 1, t2=2**64, v2=5)
def test_sample_and_columns_refuse_the_same_rows(t, v, t2, v2):
    sample = _sample_or_none(t, v)
    columns = _columns_or_none([t], [v])
    assert (sample is None) == (columns is None)
    if sample is not None:
        assert columns == [sample]
        beat = BeatDetector(CONFIG).push(sample)
        assert BeatDetector(CONFIG).push_chunk(columns) == ([] if beat is None else [beat])
    # two rows: refused exactly when either row's Sample is
    second = _sample_or_none(t2, v2)
    columns = _columns_or_none([t, t2], [v, v2])
    assert (columns is None) == (sample is None or second is None)
    if columns is not None:
        assert columns == [sample, second]
    # rows of ints: refused with the first refused row's Sample message
    if all(map(_exact_int, (t, v, t2, v2))):
        first = _refusal(Sample, t, v)
        assert _refusal(SampleColumns, [t], [v]) == first
        assert _refusal(SampleColumns, [t, t2], [v, v2]) == (first or _refusal(Sample, t2, v2))


@settings(max_examples=200)
@given(
    rows=st.lists(st.tuples(st.integers(0, 2**63 - 1), st.integers(0, ADC_MAX)), max_size=20),
    dtype=st.sampled_from([np.int64, np.uint64]),
)
@example(rows=[(2**63 - 1, ADC_MAX), (0, 0)], dtype=np.uint64)
def test_columns_rows_are_checked_samples(rows, dtype):
    """Every row that iter(columns) and columns[i] build, without running
    Sample's check, is the Sample that the check builds: ints, equal, hashed
    alike and frozen."""
    columns = SampleColumns(np.array([t for t, _ in rows], dtype), np.array([v for _, v in rows]))
    expected = [Sample(t, v) for t, v in rows]
    assert list(columns) == expected
    indexed = [columns[i] for i in range(len(rows))] + [columns[i] for i in range(-len(rows), 0)]
    assert indexed == expected * 2
    for row, sample in zip([*columns, *indexed], expected * 3):
        assert type(row) is Sample
        assert type(row.t_ms) is type(row.value) is int
        assert hash(row) == hash(sample)
        with pytest.raises(FrozenInstanceError):
            row.t_ms = 0
        with pytest.raises(FrozenInstanceError):
            row.value = 0


def _fields_of(cls, n):
    """n rows of cls's field values, as its constructor takes them."""
    rng = random.Random(n)
    rows = [(rng.randrange(2**63), rng.randrange(ADC_MAX + 1)) for _ in range(n)]
    if cls is SampleOutcome:
        return [(t, v, rng.randrange(256)) for t, v in rows]
    if cls is BeatEvent:  # every third beat has no interval, as a stream's first
        return [(t, None if i % 3 == 0 else v + 1) for i, (t, v) in enumerate(rows)]
    return rows


@pytest.mark.parametrize("n", [0, 1, 2, 4096])
@pytest.mark.parametrize("cls", [Sample, SampleOutcome, BeatEvent])
def test_build_makes_the_constructors_objects(cls, n):
    """_build's rows, made without running cls's __init__, are each exactly
    the object the constructor makes: of cls, with int fields (or None),
    equal, hashed alike and frozen."""
    rows = _fields_of(cls, n)
    columns = [[row[k] for row in rows] for k in range(len(cls.__match_args__))]
    if issubclass(cls, Sample):  # as the row paths and feed pass counts
        columns[1] = _COUNTS.take(np.array(columns[1], np.int64)).tolist()
    built = _build(cls, *columns)
    assert len(built) == n
    for obj, row in zip(built, rows):
        expected = cls(*row)
        assert type(obj) is cls
        assert obj == expected and hash(obj) == hash(expected)
        for name in cls.__match_args__:
            assert type(getattr(obj, name)) in (int, type(None))
            assert type(getattr(obj, name)) is type(getattr(expected, name))
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 0)


def test_counts_are_every_adc_count_as_an_int():
    assert _COUNTS.tolist() == list(range(ADC_MAX + 1))
    assert all(type(c) is int for c in _COUNTS.tolist())
    with pytest.raises(IndexError):
        _COUNTS.take(np.array([ADC_MAX + 1]))


def test_columns_build_rows_a_block_at_a_time():
    """iter(columns) is lazy: the first of a million rows allocates less
    than 1 MB, not every row, and the rows across block boundaries are
    every row in order."""
    n = 10**6
    columns = SampleColumns(np.arange(n), np.arange(n) % (ADC_MAX + 1))
    tracemalloc.start()
    try:
        first = next(iter(columns))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == Sample(0, 0)
    assert peak < 10**6
    rows = 2 * _ROW_BLOCK + 1
    assert list(columns[:rows]) == [Sample(t, t % (ADC_MAX + 1)) for t in range(rows)]
