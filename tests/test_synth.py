import math

import pytest

from pulsealarm import (
    ADC_MAX,
    BandMode,
    Phase,
    ScenarioError,
    SchmittConfig,
    StrayPulse,
    UserProfile,
    WaveformParseError,
    WaveformSpec,
    WaveformSpecError,
    detect_beats,
    make_wake_scenario,
    read_waveform,
    run_pipeline,
    synthesize,
    write_waveform,
)

NAN = float("nan")


class TestSynthesize:
    def test_clean_60_bpm_10s(self):
        spec = WaveformSpec(duration_ms=10000, sample_rate_hz=100, heart_rate_bpm=60)
        samples, truth = synthesize(spec)
        assert len(samples) == 1000
        assert truth.beat_times_ms == tuple(float(t) for t in range(0, 10000, 1000))

    def test_zero_amplitude_flat_at_baseline(self):
        spec = WaveformSpec(
            duration_ms=5000, heart_rate_bpm=60, pulse_amplitude=0, baseline=321
        )
        samples, truth = synthesize(spec)
        assert all(s.value == 321 for s in samples)
        assert len(truth.beat_times_ms) == 5

    def test_rate_schedule_switches_ibi(self):
        spec = WaveformSpec(
            duration_ms=60000,
            heart_rate_bpm=((0, 60), (30000, 150)),
        )
        _, truth = synthesize(spec)
        ibis = [
            b - a for a, b in zip(truth.beat_times_ms, truth.beat_times_ms[1:])
        ]
        first = [ibi for ibi, t in zip(ibis, truth.beat_times_ms) if t < 29000]
        last = [ibi for ibi, t in zip(ibis, truth.beat_times_ms) if t >= 30000]
        assert all(ibi == pytest.approx(1000) for ibi in first)
        assert all(ibi == pytest.approx(400) for ibi in last)

    def test_deterministic_for_seed(self):
        spec = WaveformSpec(
            duration_ms=10000, heart_rate_bpm=75, noise_stddev=12.0, rng_seed=99
        )
        a, _ = synthesize(spec)
        b, _ = synthesize(spec)
        assert a == b

    def test_values_clamped(self):
        spec = WaveformSpec(
            duration_ms=10000, heart_rate_bpm=60, pulse_amplitude=700,
            baseline=300, noise_stddev=100.0, rng_seed=3,
        )
        samples, _ = synthesize(spec)
        assert all(0 <= s.value <= ADC_MAX for s in samples)

    def test_clean_synthesis_recovered_by_detector(self):
        spec = WaveformSpec(duration_ms=20000, sample_rate_hz=100, heart_rate_bpm=72)
        samples, truth = synthesize(spec)
        beats = list(detect_beats(samples, SchmittConfig()))
        assert len(beats) == len(truth.beat_times_ms)
        period = 1000.0 / spec.sample_rate_hz
        for beat, true_t in zip(beats, truth.beat_times_ms):
            assert abs(beat.t_ms - true_t) <= period


class TestSpecValidation:
    def test_amplitude_overflow_names_field(self):
        with pytest.raises(WaveformSpecError, match="pulse_amplitude"):
            WaveformSpec(duration_ms=1000, pulse_amplitude=800, baseline=300)

    def test_non_positive_bpm(self):
        with pytest.raises(WaveformSpecError, match="heart_rate_bpm"):
            WaveformSpec(duration_ms=1000, heart_rate_bpm=0)

    def test_pulse_wider_than_beat_interval(self):
        with pytest.raises(WaveformSpecError, match="pulse_width_ms"):
            WaveformSpec(duration_ms=1000, heart_rate_bpm=200, pulse_width_ms=400)

    def test_stray_peak_out_of_range(self):
        with pytest.raises(WaveformSpecError, match="stray_pulses"):
            WaveformSpec(
                duration_ms=1000, stray_pulses=(StrayPulse(100, 2000, 50),)
            )

    @pytest.mark.parametrize(
        "field,value",
        [(name, NAN) for name in (
            "duration_ms", "baseline", "pulse_amplitude", "pulse_width_ms",
            "noise_stddev", "wander_amplitude", "wander_period_ms", "heart_rate_bpm",
        )] + [("pulse_width_ms", 0), ("pulse_width_ms", -5), ("duration_ms", math.inf)],
    )
    def test_nan_or_non_positive_width_names_field(self, field, value):
        with pytest.raises(WaveformSpecError, match=f"^{field}: ") as exc:
            WaveformSpec(**{"duration_ms": 1000, field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("heart_rate_bpm", {"heart_rate_bpm": ((0, 60), (500, NAN))}),
            ("stray_pulses", {"stray_pulses": (StrayPulse(NAN, 500, 50),)}),
            ("stray_pulses", {"stray_pulses": (StrayPulse(100, 500, NAN),)}),
        ],
    )
    def test_nan_in_schedule_or_stray_names_field(self, field, kwargs):
        with pytest.raises(WaveformSpecError, match=f"^{field}: "):
            WaveformSpec(duration_ms=1000, **kwargs)


class TestWaveformCsv:
    def test_round_trip_identity(self, tmp_path):
        spec = WaveformSpec(duration_ms=5000, noise_stddev=9.0, rng_seed=5)
        samples, _ = synthesize(spec)
        path = tmp_path / "wave.csv"
        write_waveform(samples, path)
        assert read_waveform(path) == samples

    def test_exact_format(self, tmp_path):
        path = tmp_path / "wave.csv"
        write_waveform(synthesize(WaveformSpec(duration_ms=100))[0], path)
        text = path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "t_ms,value"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_value_out_of_range_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,value\n0,100\n10,2000\n")
        with pytest.raises(WaveformParseError, match="line 3"):
            read_waveform(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,value\n0,1,2\n")
        with pytest.raises(WaveformParseError, match="line 2"):
            read_waveform(path)

    def test_header_only_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t_ms,value\n")
        assert read_waveform(path) == []


class TestWakeScenario:
    def test_default_profile(self):
        scenario = make_wake_scenario(UserProfile(20, 90))
        segments = scenario.spec.segments()
        assert segments[0][1] == pytest.approx(81.9)  # midpoint of [81.0, 82.8]
        assert scenario.exercise_bpm == 150.0
        assert scenario.expected_transitions == (
            (Phase.ARMED, Phase.RINGING),
            (Phase.RINGING, Phase.STOPPED),
        )

    def test_exercise_below_band_never_stops(self):
        scenario = make_wake_scenario(UserProfile(20, 90), exercise_bpm=100)
        assert scenario.expected_final_phase is Phase.RINGING
        assert scenario.expected_transitions == ((Phase.ARMED, Phase.RINGING),)

    def test_exercise_at_band_top_stops(self):
        scenario = make_wake_scenario(UserProfile(20, 90), exercise_bpm=199)
        assert scenario.expected_final_phase is Phase.STOPPED

    def test_scenario_runs_as_predicted(self):
        scenario = make_wake_scenario(UserProfile(30, 80))
        samples, _ = synthesize(scenario.spec)
        report = run_pipeline(
            samples, SchmittConfig(), scenario.engine_config, scenario.alarm_time_ms
        )
        assert report.final_phase is scenario.expected_final_phase
        assert [
            (t.from_phase, t.to_phase) for t in report.transitions
        ] == list(scenario.expected_transitions)

    def test_age_derived_band_mode(self):
        scenario = make_wake_scenario(
            UserProfile(20, 90), band_mode=BandMode.AGE_DERIVED
        )
        assert scenario.engine_config.satisfaction_band.low == 100
        assert scenario.engine_config.satisfaction_band.high == 138

    def test_infeasible_profile_rejected(self):
        # Resting 140 sleeps at ~127 bpm, already inside the fixed band.
        with pytest.raises(ScenarioError):
            make_wake_scenario(UserProfile(20, 140))
