import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsealarm import (
    AlarmEngineState,
    BpmEstimate,
    BpmEstimator,
    BpmStatus,
    ClockTick,
    EngineConfig,
    LogTransition,
    Phase,
    Pipeline,
    RunReport,
    Sample,
    SampleColumns,
    SchmittConfig,
    StrayPulse,
    StreamOrderError,
    StreamSession,
    WaveformSpec,
    detect_beats,
    encode_stream,
    run_engine,
    run_pipeline,
    synthesize,
)

from oracle import offline_beat_scan, reference_jsonl

SCHMITT = SchmittConfig(upper_threshold=550, lower_threshold=470, refractory_ms=250)
DURATION_MS = 8000


def random_spec(rng, seed):
    """Criterion 5's waveform generator: random rate, level, noise,
    wander and mid-band strays."""
    bpm = rng.uniform(40, 180)
    baseline = rng.randrange(100, 301)
    amplitude = rng.randrange(300, min(601, 1024 - baseline))
    strays = tuple(
        StrayPulse(rng.uniform(0, DURATION_MS), rng.randrange(471, 550), rng.uniform(20, 80))
        for _ in range(rng.randrange(0, 6))
    )
    return WaveformSpec(
        duration_ms=DURATION_MS,
        sample_rate_hz=100,
        heart_rate_bpm=bpm,
        pulse_amplitude=amplitude,
        baseline=baseline,
        noise_stddev=rng.uniform(0, 30),
        wander_amplitude=rng.uniform(0, 40),
        wander_period_ms=rng.uniform(2000, 20000),
        stray_pulses=strays,
        rng_seed=seed,
    )


@pytest.mark.parametrize("seed", range(40))
def test_pipeline_agrees_with_batch_layers(seed):
    rng = random.Random(20_000 + seed)
    samples, _ = synthesize(random_spec(rng, seed))
    config = EngineConfig(required_streak=rng.randrange(1, 4))
    alarm_time = rng.randrange(0, DURATION_MS)
    smoothing = rng.randrange(1, 6)

    report = run_pipeline(samples, SCHMITT, config, alarm_time, smoothing)

    oracle = offline_beat_scan(
        [s.t_ms for s in samples], [s.value for s in samples],
        SCHMITT.upper_threshold, SCHMITT.lower_threshold, SCHMITT.refractory_ms,
    )
    assert report.beat_count == len(oracle)
    assert [r.t_ms for r in report.readings] == oracle[1:]

    readings, final, log = tick_every_sample(samples, config, alarm_time, smoothing)
    assert report.readings == readings
    assert report.transitions == log
    assert report.final_phase is final.phase


def tick_every_sample(samples, config, alarm_time, smoothing):
    """The batch layers, with a ClockTick for every sample and each
    reading after the tick of its beat's sample. Returns the readings,
    the engine's final state and its transitions."""
    estimator = BpmEstimator(smoothing)
    readings = {}
    for beat in detect_beats(samples, SCHMITT):
        estimate = estimator.add(beat)
        if estimate is not None:
            readings[beat.t_ms] = estimate
    events = []
    for s in samples:
        events.append(ClockTick(s.t_ms))
        if s.t_ms in readings:
            events.append(readings[s.t_ms])
    final, log = run_engine(events, AlarmEngineState(config, alarm_time))
    return list(readings.values()), final, log


DEADLINE_SAMPLES, _ = synthesize(
    WaveformSpec(duration_ms=DURATION_MS, sample_rate_hz=100, heart_rate_bpm=120, rng_seed=5)
)
LAST_T = DEADLINE_SAMPLES[-1].t_ms


@pytest.mark.parametrize(
    "alarm_time, rings_at",
    [
        (-500, 0),  # before the first sample: its tick rings
        (0, 0),  # on the first sample
        (3000, 3000),  # exactly on a sample time
        (3005, 3010),  # between two samples: the next one rings
        (LAST_T, LAST_T),  # on the last sample
        (LAST_T + 1, None),  # after the last sample: never rings
    ],
)
def test_deadline_tick_matches_ticking_every_sample(alarm_time, rings_at):
    config = EngineConfig(required_streak=2)
    report = run_pipeline(DEADLINE_SAMPLES, SCHMITT, config, alarm_time)
    readings, final, log = tick_every_sample(DEADLINE_SAMPLES, config, alarm_time, 5)
    assert report.readings == readings
    assert report.transitions == log
    assert report.final_phase is final.phase
    ringing = [t.t_ms for t in log if t.to_phase is Phase.RINGING]
    assert ringing == ([] if rings_at is None else [rings_at])
    if rings_at is None:
        assert final.phase is Phase.ARMED


def test_non_advancing_sample_refused_without_effect():
    samples, _ = synthesize(WaveformSpec(duration_ms=5000, heart_rate_bpm=120))
    pipeline = Pipeline(SCHMITT, EngineConfig(required_streak=1), alarm_time_ms=1000)
    for s in samples:
        pipeline.push(s)
    before = (pipeline.report(), pipeline.engine_state)
    assert before[0].beat_count > 0 and before[0].transitions
    last = samples[-1]
    for t_ms in (last.t_ms, last.t_ms - 10):
        with pytest.raises(StreamOrderError):
            pipeline.push(Sample(t_ms, 1000))
        assert (pipeline.report(), pipeline.engine_state) == before


# DEADLINE_SAMPLES' beat times: an alarm at one rings at a beat's sample,
# so the tick and that beat's reading share a time
BEAT_TIMES = [b.t_ms for b in detect_beats(DEADLINE_SAMPLES, SCHMITT)]


def _pipeline(alarm_time, streak):
    return Pipeline(SCHMITT, EngineConfig(required_streak=streak), alarm_time)


@settings(max_examples=150, deadline=None)
@given(
    cuts=st.lists(st.integers(0, len(DEADLINE_SAMPLES)), max_size=10),
    chunked=st.lists(st.booleans(), min_size=11, max_size=11),
    alarm_time=st.sampled_from(BEAT_TIMES) | st.integers(-100, LAST_T + 100),
    streak=st.integers(1, 3),
)
@example(cuts=[], chunked=[True] * 11, alarm_time=BEAT_TIMES[4], streak=1)
# the tick's beat alone in a chunk, after a chunk ending just before it
@example(cuts=[BEAT_TIMES[4] // 10, BEAT_TIMES[4] // 10 + 1], chunked=[True] * 11,
         alarm_time=BEAT_TIMES[4], streak=1)
def test_any_chunking_gives_the_same_report(cuts, chunked, alarm_time, streak):
    """Cut the stream anywhere, and push each piece whole with push_chunk or
    sample by sample with push: the report is byte-identical to push's."""
    expected = _pipeline(alarm_time, streak)
    for sample in DEADLINE_SAMPLES:
        expected.push(sample)
    pipeline = _pipeline(alarm_time, streak)
    bounds = [0, *sorted(cuts), len(DEADLINE_SAMPLES)]
    for a, b, whole in zip(bounds, bounds[1:], chunked):
        if whole:
            pipeline.push_chunk(DEADLINE_SAMPLES[a:b])
        else:
            for sample in DEADLINE_SAMPLES[a:b]:
                pipeline.push(sample)
    assert pipeline.report().to_jsonl() == expected.report().to_jsonl()



def test_report_taken_mid_stream_is_a_copy():
    """report() copies the pipeline's one run record: a report taken before
    the alarm keeps its values while more samples arrive by push and by
    push_chunk, and changing it changes nothing in the pipeline."""
    pipeline = _pipeline(BEAT_TIMES[4], 1)
    pipeline.push_chunk(DEADLINE_SAMPLES[:150])
    early = pipeline.report(gap_count=1)
    text = early.to_jsonl()
    assert early.readings and not early.transitions
    for sample in DEADLINE_SAMPLES[150:300]:
        pipeline.push(sample)
    pipeline.push_chunk(DEADLINE_SAMPLES[300:])
    assert early.to_jsonl() == text
    assert early.final_phase is Phase.ARMED
    late = pipeline.report()
    assert late.transitions and late.final_phase is Phase.STOPPED
    assert (late.sample_count, late.gap_count) == (len(DEADLINE_SAMPLES), 0)
    late.readings.clear()
    late.transitions.clear()
    late.sample_count = 0
    assert pipeline.report() == run_pipeline(DEADLINE_SAMPLES, SCHMITT,
                                             EngineConfig(required_streak=1), BEAT_TIMES[4])


def test_stream_session_report_is_the_same_for_any_receive_size():
    """serve's receive loop over a stream with a garbage prefix and one
    frame sent twice, in receives of 1 byte, of one frame's length (out of
    step with the frames after the 5-byte prefix) and of a whole recv: the
    same report, with a gap, one resync and one dropped sample: the decoder
    reports the skipped prefix once, when the first frame's sync byte ends
    the hunt, however many receives it spans."""
    frames = encode_stream(DEADLINE_SAMPLES)
    copy = frames[100 * 9 : 101 * 9]
    data = b"junk\0" + frames[: 101 * 9] + copy + frames[101 * 9 :]
    args = (SCHMITT, EngineConfig(required_streak=1), BEAT_TIMES[4])
    expected = run_pipeline(DEADLINE_SAMPLES, *args)
    assert expected.transitions and expected.final_phase is Phase.STOPPED
    for size in (1, 9, 4096):
        session = StreamSession(*args)
        for i in range(0, len(data), size):
            session.receive(data[i : i + size])
        assert session.dropped == 1
        assert session.report() == replace(expected, gap_count=1, resync_count=1)


def test_numpy_integer_samples_give_push_chunks_report():
    """Sample keeps a numpy integer as an int, so push writes a JSON report
    from rows of np.int64, the one push_chunk writes for the same rows."""
    rows = list(map(Sample, DEADLINE_SAMPLES.t_ms, DEADLINE_SAMPLES.value))
    assert type(rows[0].t_ms) is type(rows[0].value) is int
    pushed, chunked = _pipeline(BEAT_TIMES[4], 1), _pipeline(BEAT_TIMES[4], 1)
    for sample in rows:
        pushed.push(sample)
    chunked.push_chunk(SampleColumns.of(rows))
    assert pushed.report().transitions
    assert pushed.report().to_jsonl() == chunked.report().to_jsonl()


@settings(max_examples=50, deadline=None)
@given(
    stall=st.integers(1, len(DEADLINE_SAMPLES) - 1),
    back=st.integers(0, 30),
    before=st.integers(0, 40),
    after=st.integers(1, 40),
)
def test_non_advancing_sample_in_a_chunk_refused_as_push_refuses_it(stall, back, before, after):
    """A chunk holding a sample that does not advance raises push's
    StreamOrderError text and changes nothing."""
    t = DEADLINE_SAMPLES.t_ms.copy()
    t[stall] = max(t[stall - 1] - back, 0)
    stream = SampleColumns(t, DEADLINE_SAMPLES.value)
    by_sample = _pipeline(3000, 1)
    with pytest.raises(StreamOrderError) as pushed:
        for sample in stream:
            by_sample.push(sample)
    a, b = max(stall - before, 0), min(stall + after, len(stream))
    pipeline = _pipeline(3000, 1)
    pipeline.push_chunk(stream[:a])
    report = pipeline.report().to_jsonl()
    with pytest.raises(StreamOrderError) as chunked:
        pipeline.push_chunk(stream[a:b])
    assert str(chunked.value) == str(pushed.value)
    assert pipeline.report().to_jsonl() == report


_COUNT = st.integers(0, 2**63 - 1)
_TRIGGERS = ["clock_tick", "bpm_reading"]
# bpm over 1e-6 to 1e6, with values that round to an integer at 4 places
# and values whose repr has an exponent
_BPM = (st.floats(1e-6, 1e6) | st.integers(1, 10**6).map(lambda n: n + 0.00004)
        | st.sampled_from([1e-6, 4.9e-05, 5e-05, 0.0001, 59.99995, 60.0, 1e6, 1e16, 1.5e300]))
_REPORTS = st.builds(
    RunReport,
    st.lists(st.builds(LogTransition, _COUNT, st.sampled_from(Phase), st.sampled_from(Phase),
                       st.sampled_from(_TRIGGERS)), max_size=4),
    st.lists(st.builds(BpmEstimate, _COUNT, _BPM, st.sampled_from(BpmStatus)), max_size=6),
    _COUNT, _COUNT, st.sampled_from(Phase), _COUNT, _COUNT, _COUNT,
)


@given(report=_REPORTS)
@example(report=RunReport(
    [LogTransition(2**63 - 1 - i, a, b, trigger) for i, (a, b, trigger) in enumerate(
        (a, b, trigger) for a in Phase for b in Phase for trigger in _TRIGGERS)],
    [BpmEstimate(i, bpm, status) for i, (bpm, status) in enumerate(
        zip([1e-6, 59.99995, 72.12345, 1e16], list(BpmStatus) * 2))],
    2**63 - 1, 0, Phase.STOPPED, 1, 2**63 - 1, 3))
def test_report_jsonl_equals_reference(report):
    """to_jsonl formats transitions and readings directly; each line is
    the json.dumps(record, sort_keys=True) of the oracle's record."""
    assert report.to_jsonl() == reference_jsonl(report)


def test_report_tallies_readings_by_status():
    statuses = [BpmStatus.REJECTED_HIGH, BpmStatus.VALID, BpmStatus.REJECTED_LOW,
                BpmStatus.VALID, BpmStatus.REJECTED_HIGH, BpmStatus.REJECTED_HIGH]
    readings = [BpmEstimate(t, 60.0, status) for t, status in enumerate(statuses)]
    report = RunReport([], readings, beat_count=7, sample_count=9, final_phase=Phase.RINGING)
    assert "readings: 6 (valid 2, rejected_low 1, rejected_high 3)" in \
        report.summary_text().splitlines()
    summary = json.loads(report.to_jsonl().splitlines()[-1])
    assert (summary["valid"], summary["rejected_low"], summary["rejected_high"]) == (2, 1, 3)
    empty = RunReport([], [], beat_count=0, sample_count=0, final_phase=Phase.ARMED)
    assert "readings: 0 (valid 0, rejected_low 0, rejected_high 0)" in \
        empty.summary_text().splitlines()
