"""Acceptance suite: every release criterion, one test each, with a
printed pass/fail line and its time budget enforced.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import random
import statistics
import subprocess
import sys
import time

import pytest

from pulsealarm import (
    AlarmEngineState,
    BpmEstimate,
    BpmEstimator,
    BpmStatus,
    ClockTick,
    CorruptFrame,
    EngineConfig,
    FrameDecoder,
    Gap,
    Phase,
    Sample,
    SampleOutcome,
    SchmittConfig,
    StrayPulse,
    UserProfile,
    WaveformSpec,
    detect_beats,
    encode_frame,
    encode_stream,
    make_wake_scenario,
    naive_detect_beats,
    plausibility_filter,
    run_pipeline,
    step,
    synthesize,
)
from pulsealarm.bench import place_strays
from pulsealarm.physiology import max_heart_rate, moderate_exercise_band

from oracle import offline_beat_scan

SCHMITT = SchmittConfig(upper_threshold=550, lower_threshold=470, refractory_ms=250)


def report(number, name, ok, budget_s, elapsed):
    verdict = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} ({elapsed:.2f}s / budget {budget_s}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget_s, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def test_criterion_1_filter_band_reproduction():
    start = time.monotonic()
    sweep = [10, 22, 23, 60, 100, 150, 200, 201, 220]
    expected = [
        BpmStatus.REJECTED_LOW, BpmStatus.REJECTED_LOW,
        BpmStatus.VALID, BpmStatus.VALID, BpmStatus.VALID, BpmStatus.VALID,
        BpmStatus.VALID,
        BpmStatus.REJECTED_HIGH, BpmStatus.REJECTED_HIGH,
    ]
    got = [plausibility_filter(float(bpm), t_ms=0).status for bpm in sweep]
    report(1, "filter band reproduction", got == expected,
           1.0, time.monotonic() - start)


def test_criterion_2_satisfaction_band_reproduction():
    start = time.monotonic()
    cases = [
        (100, Phase.RINGING),
        (101, Phase.STOPPED),
        (150, Phase.STOPPED),
        (199, Phase.STOPPED),
        (200, Phase.RINGING),
    ]
    ok = True
    for exercise_bpm, expected in cases:
        scenario = make_wake_scenario(
            UserProfile(20, 90), exercise_bpm=exercise_bpm
        )
        samples, _ = synthesize(scenario.spec)
        run = run_pipeline(
            samples, SCHMITT, scenario.engine_config, scenario.alarm_time_ms
        )
        if run.final_phase is not expected:
            ok = False
    report(2, "satisfaction band reproduction", ok, 10.0, time.monotonic() - start)


def test_criterion_3_detection_accuracy():
    start = time.monotonic()
    ok = True
    for bpm in (60, 100, 180):
        spec = WaveformSpec(
            duration_ms=60000, sample_rate_hz=1000, heart_rate_bpm=bpm
        )
        samples, truth = synthesize(spec)
        beats = list(detect_beats(samples, SCHMITT))
        estimator = BpmEstimator()
        estimates = [e.bpm for b in beats if (e := estimator.add(b)) is not None]
        if abs(len(beats) - len(truth.beat_times_ms)) > 1:
            ok = False
        if abs(statistics.median(estimates) - bpm) > 1.0:
            ok = False
    report(3, "detection accuracy", ok, 5.0, time.monotonic() - start)


def test_criterion_4_stray_pulse_robustness():
    start = time.monotonic()
    schmitt_false = 0
    naive_false = 0
    for seed in range(100):
        rng = random.Random(seed)
        base = WaveformSpec(duration_ms=30000, heart_rate_bpm=60, rng_seed=seed)
        _, truth = synthesize(base)
        strays = place_strays(
            truth.beat_times_ms, 20, peak=510, width_ms=80.0, rng=rng, grid_ms=10.0
        )
        spec = WaveformSpec(
            duration_ms=30000, heart_rate_bpm=60, stray_pulses=strays, rng_seed=seed
        )
        samples, truth = synthesize(spec)
        n_true = len(truth.beat_times_ms)
        schmitt_false += max(0, len(list(detect_beats(samples, SCHMITT))) - n_true)
        # naive threshold placed inside the hysteresis band
        naive_false += max(
            0, len(list(naive_detect_beats(samples, 500))) - n_true
        )
    ok = schmitt_false == 0 and naive_false > 0
    report(4, "stray-pulse robustness", ok, 30.0, time.monotonic() - start)


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for seed in range(1000):
        rng = random.Random(10_000 + seed)
        bpm = rng.uniform(40, 180)
        baseline = rng.randrange(100, 301)
        amplitude = rng.randrange(300, min(601, 1024 - baseline))
        strays = tuple(
            StrayPulse(rng.uniform(0, 8000), rng.randrange(471, 550), rng.uniform(20, 80))
            for _ in range(rng.randrange(0, 6))
        )
        spec = WaveformSpec(
            duration_ms=8000,
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
        samples, _ = synthesize(spec)
        streaming = [b.t_ms for b in detect_beats(samples, SCHMITT)]
        oracle = offline_beat_scan(
            [s.t_ms for s in samples], [s.value for s in samples],
            SCHMITT.upper_threshold, SCHMITT.lower_threshold, SCHMITT.refractory_ms,
        )
        if streaming != oracle:
            ok = False
            break
    report(5, "oracle equivalence", ok, 60.0, time.monotonic() - start)


def test_criterion_6_physiology_formulas():
    start = time.monotonic()
    ok = True
    for age in range(1, 121):
        if max_heart_rate(age) != 220 - age:
            ok = False
        band = moderate_exercise_band(age)
        hr_max = 220 - age
        if band.low != math.floor(0.50 * hr_max + 0.5):
            ok = False
        if band.high != math.floor(0.69 * hr_max + 0.5):
            ok = False
    report(6, "physiology formulas", ok, 1.0, time.monotonic() - start)


def _random_event(rng, t):
    kind = rng.random()
    if kind < 0.55:
        bpm = rng.uniform(10, 230)
        if bpm < 23:
            status = BpmStatus.REJECTED_LOW
        elif bpm > 200:
            status = BpmStatus.REJECTED_HIGH
        else:
            status = BpmStatus.VALID
        return BpmEstimate(t, bpm, status)
    if kind < 0.85:
        return ClockTick(t)
    if kind < 0.95:
        rng.randrange(0, 1024)  # unused draw, keeps the seeded event sequence fixed
    return ClockTick(t)


def test_criterion_7_state_machine_safety():
    start = time.monotonic()
    ok = True
    config = EngineConfig(required_streak=3)

    def qualifies(event):
        return (
            isinstance(event, BpmEstimate)
            and event.status is BpmStatus.VALID
            and config.satisfaction_band.contains(event.bpm)
        )

    rng = random.Random(2024)
    for _ in range(10_000):
        state = AlarmEngineState(config, rng.randrange(0, 1000))
        recent = []
        buzzer = []
        t = 0
        for _ in range(25):
            t += rng.randrange(0, 400)
            event = _random_event(rng, t)
            was_ringing = state.phase is Phase.RINGING
            if was_ringing and isinstance(event, BpmEstimate):
                recent.append(qualifies(event))
            state, transitions = step(state, event)
            # the buzzer turns on entering RINGING and off leaving it
            buzzer.extend(
                tr.to_phase is Phase.RINGING
                for tr in transitions
                if Phase.RINGING in (tr.from_phase, tr.to_phase)
            )
            if was_ringing and state.phase is Phase.STOPPED:
                if len(recent) < 3 or not all(recent[-3:]):
                    ok = False
            if state.phase is not Phase.RINGING:
                recent = []
        # entries into RINGING and exits from it alternate, entry first
        alternating = [True, False] * len(buzzer)
        if buzzer != alternating[: len(buzzer)]:
            ok = False

    # ten simulated hours of ringing with no in-band reading
    state = AlarmEngineState(config, 0)
    state, _ = step(state, ClockTick(0))
    t = 0
    for _ in range(600):
        t += 60_000
        state, _ = step(state, ClockTick(t))
        state, _ = step(state, BpmEstimate(t, 82.0, BpmStatus.VALID))
    if state.phase is not Phase.RINGING:
        ok = False
    report(7, "state-machine safety", ok, 60.0, time.monotonic() - start)


def test_criterion_8_protocol_totality_and_round_trip():
    start = time.monotonic()
    ok = True

    # totality: a megabyte of random bytes, arbitrary chunking, no failures
    rng = random.Random(8)
    fuzz = rng.randbytes(1_000_000)
    decoder = FrameDecoder()
    i = 0
    try:
        while i < len(fuzz):
            n = rng.randrange(1, 4096)
            decoder.feed(fuzz[i : i + n])
            i += n
    except Exception:
        ok = False

    # round-trip identity on 10^4 random frames
    samples = []
    t = 0
    for _ in range(10_000):
        t += rng.randrange(1, 1000)
        samples.append(Sample(t, rng.randrange(0, 1024)))
    outcomes = FrameDecoder().feed(encode_stream(samples))
    got = [o.sample for o in outcomes if isinstance(o, SampleOutcome)]
    if got != samples:
        ok = False
    if any(isinstance(o, (CorruptFrame, Gap)) for o in outcomes):
        ok = False

    # injected corruption is fully accounted for
    # craft frames whose payloads are sync-free so every skip is accounted for
    clean = []
    frames = []
    for i in range(100):
        t = 1000 * i
        while True:
            sample = Sample(t, 100)
            frame = bytearray(encode_frame(i, sample))
            if 0xAA not in frame[1:]:
                break
            t += 1
        clean.append(sample)
        frames.append(frame)
    corrupted = set(range(2, 100, 4))
    for i in corrupted:
        frames[i][8] ^= 0x01
        if frames[i][8] == 0xAA:
            frames[i][8] ^= 0x03
    outcomes = FrameDecoder().feed(b"".join(bytes(f) for f in frames))
    n_corrupt = sum(isinstance(o, CorruptFrame) for o in outcomes)
    n_gaps = sum(isinstance(o, Gap) for o in outcomes)
    n_samples = sum(isinstance(o, SampleOutcome) for o in outcomes)
    if n_corrupt != len(corrupted) or n_gaps != len(corrupted):
        ok = False
    if n_samples != len(clean) - len(corrupted):
        ok = False

    report(8, "protocol totality and round-trip", ok, 30.0, time.monotonic() - start)


def test_criterion_9_run_determinism(tmp_path):
    start = time.monotonic()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "profile": {"age_years": 20, "resting_bpm": 90},
        "scenario": {"sleep_duration_ms": 10000, "exercise_duration_ms": 10000},
    }))
    reports = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "pulsealarm", "run",
             "--config", str(config), "--seed", "11", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append(out.read_bytes())
    ok = reports[0] == reports[1] and len(reports[0]) > 0
    report(9, "run determinism", ok, 5.0, time.monotonic() - start)
