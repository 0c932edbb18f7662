"""Metamorphic relations: how a run's output must change when its input
changes in a known way, checked without an expected output for each input
(Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Computing Surveys 51(1), 2018)."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsealarm import (
    ADC_MAX,
    FrameDecoder,
    Pipeline,
    SampleColumns,
    SampleOutcome,
    SchmittConfig,
    StrayPulse,
    StreamOrderError,
    UserProfile,
    WaveformSpec,
    detect_beats,
    encode_stream,
    make_wake_scenario,
    read_waveform,
    run_pipeline,
    synthesize,
    write_waveform,
)
from pulsealarm.protocol import FRAME_LEN, SYNC_BYTE

SCHMITT = SchmittConfig()


def _wake(seed):
    """A 20 s wake scenario at 500 Hz with noise, needing 3 in-band readings."""
    return make_wake_scenario(UserProfile(age_years=20, resting_bpm=90),
                              sleep_duration_ms=10000, exercise_duration_ms=10000,
                              sample_rate_hz=500.0, required_streak=3, noise_stddev=8.0,
                              rng_seed=seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), offset=st.integers(0, 2**40 - 1))
@example(seed=1, offset=2**40 - 1)  # 13-digit times
def test_r1_a_time_shift_through_the_csv_shifts_the_report(tmp_path_factory, seed, offset):
    """R1: shift every t_ms and the alarm time by offset, then write, read
    and run: the report is the same, each of its times shifted."""
    scenario = _wake(seed)
    samples, _ = synthesize(scenario.spec)
    path = tmp_path_factory.getbasetemp() / "r1.csv"

    def run(shift):
        write_waveform(SampleColumns(samples.t_ms + shift, samples.value), path)
        return run_pipeline(read_waveform(path), SCHMITT, scenario.engine_config,
                            scenario.alarm_time_ms + shift)

    base = run(0)
    assert base.transitions and base.readings
    assert run(offset) == replace(
        base,
        transitions=[replace(t, t_ms=t.t_ms + offset) for t in base.transitions],
        readings=[replace(r, t_ms=r.t_ms + offset) for r in base.readings],
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), noise=st.floats(0, 30), strays=st.integers(0, 5), share=st.floats(0, 1))
def test_r5_a_level_shift_of_values_and_thresholds_keeps_the_beats(seed, noise, strays, share):
    """R5: add c to every value and to both thresholds, all kept within the
    ADC range: the trigger fires on the same samples, so the beats are the same."""
    rng = np.random.default_rng(seed)
    spec = WaveformSpec(
        duration_ms=8000, sample_rate_hz=250.0, heart_rate_bpm=float(rng.uniform(40, 180)),
        baseline=300, pulse_amplitude=400, noise_stddev=noise, rng_seed=seed,
        stray_pulses=tuple(StrayPulse(float(rng.uniform(0, 8000)), int(rng.integers(471, 550)), 40.0)
                           for _ in range(strays)),
    )
    samples, _ = synthesize(spec)
    # c reaches from the lowest value (or threshold) down to 0 up to the highest up to ADC_MAX
    low = min(int(samples.value.min()), SCHMITT.lower_threshold)
    high = max(int(samples.value.max()), SCHMITT.upper_threshold)
    c = round(-low + share * (low + ADC_MAX - high))
    shifted = SchmittConfig(SCHMITT.upper_threshold + c, SCHMITT.lower_threshold + c, SCHMITT.refractory_ms)
    beats = detect_beats(samples, SCHMITT)
    assert beats
    assert detect_beats(SampleColumns(samples.t_ms, samples.value + c), shifted) == beats


_RECV = 4096  # the most bytes serve's recv returns


def _serve(scenario, data):
    """The report and the dropped-sample count that serve makes of data,
    received _RECV bytes at a time: each frame's sample is pushed, one whose
    time does not advance is dropped, and the report holds the decoder's
    counters."""
    decoder = FrameDecoder()
    pipeline = Pipeline(SCHMITT, scenario.engine_config, scenario.alarm_time_ms)
    dropped = 0
    for i in range(0, len(data), _RECV):
        for outcome in decoder.feed(data[i : i + _RECV]):
            if isinstance(outcome, SampleOutcome):
                try:
                    pipeline.push(outcome.sample)
                except StreamOrderError:
                    dropped += 1
    report = pipeline.report(decoder.gaps, decoder.corrupt_frames, decoder.resyncs)
    return report, dropped


def _wake_stream(seed):
    """A wake scenario, its samples and their frames from seq 0."""
    scenario = _wake(seed)
    samples, _ = synthesize(scenario.spec)
    return scenario, samples, encode_stream(samples)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_r8_serve_on_the_encoded_stream_equals_run(seed):
    """R8: serve on encode_stream's frames reports what run_pipeline does
    on the samples, with no dropped sample."""
    scenario, samples, data = _wake_stream(seed)
    expected = run_pipeline(samples, SCHMITT, scenario.engine_config, scenario.alarm_time_ms)
    assert expected.transitions and expected.readings
    assert _serve(scenario, data) == (expected, 0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), start_seq=st.integers(1, 255))
def test_r2_any_start_seq_gives_the_same_report(seed, start_seq):
    """R2: the frame counter's first value changes nothing in the report."""
    scenario, samples, data = _wake_stream(seed)
    assert _serve(scenario, encode_stream(samples, start_seq)) == _serve(scenario, data)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16),
       prefix=st.binary(min_size=1, max_size=_RECV - 1).map(lambda b: b.replace(bytes([SYNC_BYTE]), b"\0")))
@example(seed=1, prefix=bytes(_RECV - 1))  # the first frame starts at the last byte of a recv
def test_r3_a_prefix_without_a_sync_byte_adds_one_resync(seed, prefix):
    """R3: bytes with no sync byte before the stream, fewer than one recv,
    are one Resync and change nothing else."""
    assert SYNC_BYTE not in prefix
    scenario, _, data = _wake_stream(seed)
    base, dropped = _serve(scenario, data)
    assert _serve(scenario, prefix + data) == (replace(base, resync_count=base.resync_count + 1), dropped)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_r7_every_frame_sent_twice_adds_one_gap_and_one_drop_per_frame(seed):
    """R7: with each frame followed by a copy of itself, the copy's seq
    repeats (a Gap) and its time does not advance (a dropped sample), so the
    readings and transitions are the same."""
    scenario, samples, data = _wake_stream(seed)
    twice = np.repeat(np.frombuffer(data, np.uint8).reshape(-1, FRAME_LEN), 2, axis=0).tobytes()
    base, _ = _serve(scenario, data)
    n = len(samples)
    assert _serve(scenario, twice) == (replace(base, gap_count=base.gap_count + n), n)
