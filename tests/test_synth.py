import io
import math
import os
import re
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsealarm import (
    ADC_MAX,
    BandMode,
    Phase,
    Sample,
    SampleColumns,
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
from pulsealarm import synth
from pulsealarm.synth import _read_canonical, _read_waveform_lines

from oracle import reference_synthesize, reference_write_waveform

NAN = float("nan")
GOLDEN_CSV = Path(__file__).parent / "golden" / "waveform_synth_seed7.csv"


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


@st.composite
def _specs(draw):
    """WaveformSpecs at awkward sample periods, with one or two rate
    segments, wander and noise each on or off, and strays that overlap the
    beats and each other or lie partly or wholly outside [0, duration)."""
    duration = draw(st.integers(1, 4000))
    # from 4 Hz up, so that 240 bpm is at most one beat per sample
    rate = draw(st.sampled_from([97.0, 333.0, 100.0, 1000.0]) | st.floats(4.0, 1000.0))
    bpms = draw(st.lists(st.floats(20.0, 240.0), min_size=1, max_size=2))
    schedule = bpms[0] if len(bpms) == 1 else (
        (0, bpms[0]), (draw(st.floats(0, duration)), bpms[1]))
    baseline = draw(st.integers(0, 700))
    strays = draw(st.lists(st.builds(
        StrayPulse, st.floats(-400.0, duration + 400.0), st.integers(0, ADC_MAX),
        st.floats(0.5, 600.0)), max_size=8))
    return WaveformSpec(
        duration_ms=duration, sample_rate_hz=rate, heart_rate_bpm=schedule,
        pulse_amplitude=draw(st.integers(0, ADC_MAX - baseline)), baseline=baseline,
        pulse_width_ms=60000.0 / max(bpms) * draw(st.floats(0.001, 0.999)),
        noise_stddev=draw(st.just(0.0) | st.floats(0.1, 80.0)),
        wander_amplitude=draw(st.just(0.0) | st.floats(-150.0, 150.0)),
        wander_period_ms=draw(st.floats(50.0, 20000.0)),
        stray_pulses=tuple(strays), rng_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=300)
@given(spec=_specs())
# strays over a beat and each other, across either end, and wholly past the end
@example(spec=WaveformSpec(
    duration_ms=2000, sample_rate_hz=333.0, heart_rate_bpm=((0, 60), (900, 150)),
    noise_stddev=5.0, wander_amplitude=20.0,
    stray_pulses=(StrayPulse(1000.0, 900, 300.0), StrayPulse(1100.0, 100, 300.0),
                  StrayPulse(-50.0, 700, 200.0), StrayPulse(1990.0, 600, 100.0),
                  StrayPulse(5000.0, 600, 100.0))))
# strays far outside the waveform, wider than it, and with window bounds
# past the int64 range
@example(spec=WaveformSpec(
    duration_ms=3000, sample_rate_hz=37.0, heart_rate_bpm=70, noise_stddev=3.0,
    stray_pulses=(StrayPulse(1e12, 800, 50.0), StrayPulse(-1e12, 800, 50.0),
                  StrayPulse(1500.0, 400, 1e9), StrayPulse(1e12, 600, 1e9),
                  StrayPulse(1e300, 900, 50.0), StrayPulse(0.0, 350, 1e300))))
# window edges on sample times: 100 and 110 ms at 100 Hz, and a beat's at
# 0 and 30 ms
@example(spec=WaveformSpec(
    duration_ms=1000, sample_rate_hz=100.0, pulse_width_ms=60.0,
    stray_pulses=(StrayPulse(105.0, 700, 10.0), StrayPulse(500.0, 650, 40.0))))
@example(spec=WaveformSpec(
    duration_ms=4000, sample_rate_hz=300.0, heart_rate_bpm=((0, 50), (1700, 200)),
    pulse_width_ms=200.0, wander_amplitude=-90.0, wander_period_ms=700.0, noise_stddev=40.0,
    stray_pulses=(StrayPulse(1200.0, 1000, 500.0),), rng_seed=2**32))
# no samples at all: 1 ms at 100 Hz
@example(spec=WaveformSpec(duration_ms=1, sample_rate_hz=100.0, noise_stddev=1.0,
                           stray_pulses=(StrayPulse(0.0, 500, 10.0),)))
def test_synthesize_equals_reference(spec):
    """The synthesis is bit for bit the pulse-by-pulse one, on a cache miss
    and on a hit: the spec, the same shape with other noise, strays and
    seed, another shape, then the spec again, which the other shape has
    evicted. The noise is drawn in slices from the default size down to
    one double, so that a slice edge falls inside every drawn waveform."""
    same_shape = replace(
        spec, noise_stddev=spec.noise_stddev + 2.5, rng_seed=spec.rng_seed + 1,
        stray_pulses=spec.stray_pulses[::-1] + (StrayPulse(spec.duration_ms / 3, 900, 45.0),))
    other_shape = replace(spec, duration_ms=spec.duration_ms + 1)
    order = (spec, same_shape, other_shape, spec)
    expected = {s: reference_synthesize(s) for s in order}
    for size in synth._NOISE_SLICE, 64, 7, 1:
        synth._base.cache_clear()
        with mock.patch.object(synth, "_NOISE_SLICE", size):
            for s in order:
                columns, truth = synthesize(s)
                t_ms, value = expected[s]
                assert np.array_equal(columns.t_ms, t_ms)
                assert np.array_equal(columns.value, value)
                assert truth.beat_times_ms == tuple(s.beat_times())
        assert synth._base.cache_info()[:2] == (1, 3)  # hits, misses


def test_long_synthesis_equals_reference():
    """A minute at 1 kHz with noise, wander and strays crosses 14 slice
    edges at the default size, and ends in a part slice."""
    spec = WaveformSpec(
        duration_ms=60000, sample_rate_hz=1000.0, heart_rate_bpm=((0, 55), (31000, 130)),
        noise_stddev=9.0, wander_amplitude=40.0, wander_period_ms=7000.0,
        stray_pulses=(StrayPulse(4095.0, 800, 40.0), StrayPulse(40000.0, 650, 300.0),
                      StrayPulse(59990.0, 900, 80.0)),
        rng_seed=28,
    )
    assert 60000 % synth._NOISE_SLICE
    columns, _ = synthesize(spec)
    t_ms, value = reference_synthesize(spec)
    assert np.array_equal(columns.t_ms, t_ms)
    assert np.array_equal(columns.value, value)


def test_huge_noise_clips_without_a_warning():
    """A stddev whose draws overflow to ±inf maps them to the ADC bounds,
    as Generator.normal does, and raises no numpy warning."""
    spec = WaveformSpec(duration_ms=3000, noise_stddev=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns, _ = synthesize(spec)
    t_ms, value = reference_synthesize(spec)
    assert np.array_equal(columns.t_ms, t_ms)
    assert np.array_equal(columns.value, value)
    assert set(np.unique(value)) == {0, ADC_MAX}


class TestOneBlock:
    """Each call keeps one full-length block of its own, the value column it
    returns; its t_ms is the shape's cached grid."""

    SPEC = WaveformSpec(duration_ms=60000, sample_rate_hz=1000.0, noise_stddev=8.0, rng_seed=1)

    def test_value_is_the_block_and_t_ms_the_shared_grid(self):
        a, _ = synthesize(self.SPEC)
        b, _ = synthesize(replace(self.SPEC, rng_seed=2))
        assert a.value.flags.owndata and a.value.shape == (60000,)
        assert a.t_ms is b.t_ms
        assert not np.shares_memory(a.value, b.value)

    def test_peak_is_the_block_and_one_float_grid(self):
        """A miss: the base's float values, built in the buffer that held the
        float time grid, and its int64 grid, then the call's 8n-byte block,
        plus slices and pulse windows far below n."""
        n = 60000
        synth._base.cache_clear()
        tracemalloc.start()
        try:
            synthesize(self.SPEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert synth._base.cache_info().misses == 1
        assert peak <= 24 * n + 64 * 1024

    def test_peak_on_a_hit_is_the_block(self):
        n = 60000
        synthesize(self.SPEC)
        tracemalloc.start()
        try:
            synthesize(replace(self.SPEC, rng_seed=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert synth._base.cache_info().currsize == 1
        assert peak <= 8 * n + 64 * 1024


@pytest.mark.parametrize("field,changed", [
    ("duration_ms", 3001),  # the same 600 samples, and one more beat, at 3000 ms
    ("sample_rate_hz", 250.0), ("heart_rate_bpm", ((0, 60), (1500, 90))),
    ("pulse_amplitude", 380), ("baseline", 310), ("pulse_width_ms", 40.0),
    ("wander_amplitude", 25.0), ("wander_period_ms", 900.0),
])
def test_a_shape_field_changed_alone_builds_its_own_base(field, changed):
    spec = WaveformSpec(duration_ms=3000, sample_rate_hz=200.0, wander_amplitude=20.0,
                        noise_stddev=2.0)
    synthesize(spec)
    other = replace(spec, **{field: changed})
    columns, truth = synthesize(other)
    t_ms, value = reference_synthesize(other)
    assert np.array_equal(columns.t_ms, t_ms)
    assert np.array_equal(columns.value, value)
    assert truth.beat_times_ms == tuple(other.beat_times())


def test_one_shape_shares_one_read_only_grid():
    """Results of one shape share its t_ms, neither column can be written,
    and a later call of the shape leaves an earlier result as it was."""
    spec = WaveformSpec(duration_ms=5000, sample_rate_hz=250.0, noise_stddev=6.0,
                        stray_pulses=(StrayPulse(1500.0, 520, 80.0),))
    a, _ = synthesize(spec)
    t_ms, value = a.t_ms.copy(), a.value.copy()
    b, _ = synthesize(replace(spec, noise_stddev=30.0, stray_pulses=(), rng_seed=5))
    assert np.shares_memory(a.t_ms, b.t_ms)
    for columns in a, b:
        for column in columns.t_ms, columns.value:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
    assert np.array_equal(a.t_ms, t_ms) and np.array_equal(a.value, value)
    assert not np.array_equal(a.value, b.value)


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

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("duration_ms", 0, "must be positive"),
            ("sample_rate_hz", 0, "must be in (0, 1000]"),
            ("sample_rate_hz", 1001, "must be in (0, 1000]"),
            ("baseline", -1, "must be non-negative"),
            ("heart_rate_bpm", ((100, 60),), "schedule must start at 0 ms"),
            ("noise_stddev", -0.5, "must be non-negative"),
            ("wander_period_ms", 0, "must be positive"),
            ("rng_seed", -1, "must be non-negative"),
            # above one beat per sample at the default 100 Hz
            ("heart_rate_bpm", 6001, "segment (0.0, 6001.0) must be finite with bpm in (0, 6000]"),
            ("heart_rate_bpm", ((0, 60), (500, 6001)), "segment (500.0, 6001.0)"),
        ],
    )
    def test_out_of_range_names_field(self, field, value, message):
        with pytest.raises(WaveformSpecError) as exc:
            WaveformSpec(**{"duration_ms": 1000, field: value})
        assert exc.value.field == field
        assert str(exc.value).startswith(f"{field}: {message}")

    @pytest.mark.parametrize(
        "kwargs",
        [{"rng_seed": 0}, {"heart_rate_bpm": 6000, "pulse_width_ms": 5},
         {"heart_rate_bpm": ((0, 60), (500, 6000)), "pulse_width_ms": 5}],
    )
    def test_at_bound_accepted(self, kwargs):
        samples, truth = synthesize(WaveformSpec(duration_ms=1000, **kwargs))
        assert len(truth.beat_times_ms) <= len(samples)  # at most one beat per sample


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
        for text, line in [("t_ms,value\n0,1,2\n", 2),
                           ("t_ms,value\n0,300\n\n20,300\n", 3),  # a blank middle line
                           ("t_ms,value\n0,300\n10,300\n\n", 4)]:  # a blank last line
            path.write_text(text)
            with pytest.raises(WaveformParseError, match=f"^line {line}: expected 2 fields"):
                read_waveform(path)

    @pytest.mark.parametrize("text", ["value,t_ms\n0,300\n", "0,300\n", ""],
                             ids=["swapped", "missing", "empty-file"])
    def test_bad_header_is_parse_error_on_line_1(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(WaveformParseError) as exc:
            read_waveform(path)
        assert exc.value.line_number == 1
        header = text.splitlines(keepends=True)[0] if text else ""
        assert str(exc.value) == f"line 1: expected header 't_ms,value', got {header!r}"

    def test_line_parser_splits_lines_as_a_text_file_does(self, tmp_path):
        # CRLF and a lone CR end a line; a form feed and U+0085, which
        # str.splitlines also splits at, do not, and int() strips them
        path = tmp_path / "mixed.csv"
        path.write_bytes("t_ms,value\r\n0,5\r10,6\n20,\x0c7\n30,\x858\n".encode())
        assert read_waveform(path) == [Sample(0, 5), Sample(10, 6), Sample(20, 7), Sample(30, 8)]

    def test_header_only_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t_ms,value\n")
        assert read_waveform(path) == []

    def test_value_past_the_adc_range_leaves_the_numpy_path(self, tmp_path):
        data = b"t_ms,value\n0,5\n10,1024\n"
        assert _read_canonical(io.BytesIO(data)) is None
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        message = r"^line 3: value must be in \[0, 1023\], got 1024"
        with pytest.raises(WaveformParseError, match=message):
            read_waveform(path)

    @pytest.mark.parametrize("before, after, numpy_path", [
        # 7 bytes hold 1 row of at least 4 bytes, not 2
        (b"t_ms,value\n100,50\n", b"t_ms,value\n100,50\n110,51\n", False),
        (b"t_ms,value\n0,5\n10,6\n", b"t_ms,value\n0,5\n", True),
        (b"t_ms,value\n0,5\n10,6\n", b"t_ms,value\n0,5\n10,6\n20,7", False),
    ], ids=["grown", "shrunk", "no-newline"])
    def test_a_file_changed_after_it_was_sized(self, monkeypatch, before, after, numpy_path):
        """The reader sizes its output from before's length, then reads
        after's bytes: read as they then are while their rows fit, else by
        the line parser, with no error of the numpy path's own."""
        class Changed(io.BytesIO):
            def seek(self, offset, whence=io.SEEK_SET):
                position = super().seek(offset, whence)
                if whence == io.SEEK_END:
                    self.__init__(after)
                return position

        expected = SampleColumns.of(_read_waveform_lines(after))
        columns = _read_canonical(Changed(before))
        assert columns == (expected if numpy_path else None)
        monkeypatch.setattr(synth, "open", lambda path, mode: Changed(before), raising=False)
        assert read_waveform("changed.csv") == expected

    def test_rows_of_four_bytes_fill_the_bound_on_the_numpy_path(self):
        data = b"t_ms,value\n" + b"".join(b"%d,%d\n" % (k, k) for k in range(10))
        columns = _read_canonical(io.BytesIO(data))
        assert columns == SampleColumns(np.arange(10), np.arange(10))

    def test_a_source_of_length_zero_reads_through_the_line_parser(self, monkeypatch):
        """A procfs file can seek, but its end is at 0 whatever it holds."""
        class Procfs(io.BytesIO):
            def seek(self, offset, whence=io.SEEK_SET):
                position = super().seek(offset, whence)
                return 0 if whence == io.SEEK_END else position

        data = b"t_ms,value\n0,5\n10,6\n"
        assert _read_canonical(Procfs(data)) is None
        monkeypatch.setattr(synth, "open", lambda path, mode: Procfs(data), raising=False)
        assert read_waveform("/proc/wave.csv") == [Sample(0, 5), Sample(10, 6)]

    def test_the_numpy_path_reads_each_byte_once(self):
        class Counted(io.BytesIO):
            handed_out = 0

            def read(self, size=-1):
                data = super().read(size)
                self.handed_out += len(data)
                return data

            def readinto(self, buffer):
                n = super().readinto(buffer)
                self.handed_out += n
                return n

        data = GOLDEN_CSV.read_bytes()
        f = Counted(data)
        with mock.patch.object(synth, "_BLOCK", 1024):  # a dozen blocks
            assert _read_canonical(f) is not None
        assert f.handed_out == len(data)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["numpy-path", "line-parser"])
    def test_columns_built_are_read_only_int64(self, tmp_path, newline):
        samples, _ = synthesize(WaveformSpec(duration_ms=3000, noise_stddev=5.0, rng_seed=1))
        path = tmp_path / "wave.csv"
        write_waveform(samples, path)
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        for columns in samples, read_waveform(path):
            for column in columns.t_ms, columns.value:
                assert column.dtype == np.int64
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 1

    def test_written_file_takes_the_numpy_path(self, tmp_path, monkeypatch):
        columns = _read_canonical(io.BytesIO(GOLDEN_CSV.read_bytes()))
        assert columns is not None and len(columns) > 0
        assert columns == SampleColumns.of(_read_waveform_lines(GOLDEN_CSV.read_bytes()))
        # a minute at 1 kHz spans many blocks, and none may fall back
        samples, _ = synthesize(WaveformSpec(duration_ms=60000, sample_rate_hz=1000.0,
                                             noise_stddev=20.0, rng_seed=3))
        path = tmp_path / "wave.csv"
        write_waveform(samples, path)
        assert path.stat().st_size >= 9 * synth._BLOCK

        def line_parser(data):
            raise AssertionError("a canonical file was read by the line parser")

        monkeypatch.setattr(synth, "_read_waveform_lines", line_parser)
        assert read_waveform(path) == samples


def test_writer_block_heap_does_not_grow_with_the_file(tmp_path):
    """write_waveform's traced peak is one block's temporaries: the same for
    2 and 16 blocks of 19-digit times, and under 512 KiB, as README's claim
    that each stays under glibc's 128 KiB mmap threshold needs."""
    peaks = []
    for n in 8192, 65536:
        t = np.arange(n, dtype=np.int64)
        columns = SampleColumns(t + 10**18, t % (ADC_MAX + 1))
        tracemalloc.start()
        try:
            write_waveform(columns, tmp_path / "wide.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # equal but for small objects: a whole-file array would add hundreds of KiB
    assert abs(peaks[1] - peaks[0]) <= 16 * 1024, peaks
    assert max(peaks) < 512 * 1024, peaks


# t_ms of every digit count 1-19, up to 2**63 - 1
_T_MS = st.integers(1, 19).flatmap(lambda w: st.integers(10 ** (w - 1) if w > 1 else 0, min(10**w, 2**63) - 1))


@settings(max_examples=200)
@given(rows=st.lists(st.tuples(_T_MS, st.integers(0, ADC_MAX)), max_size=20,
                     unique_by=lambda row: row[0]).map(sorted))
@example(rows=[])
@example(rows=[(0, 0)])
@example(rows=[(2**63 - 1, 1023)])
@example(rows=[(0, 0), (2**63 - 1, 1023)])  # 1 and 19 digits: 18 columns marked in one row, none in the next
@example(rows=[(9, 9), (10, 10), (99, 99), (100, 100), (999, 999), (1000, 1000)])  # in one block
def test_writer_equals_reference(tmp_path_factory, rows):
    """write_waveform writes the bytes of the row-at-a-time reference at any
    block size, and read_waveform reads them back: a file whose fields have
    at most 16 digits by the numpy path, one with 17-19 by the line parser."""
    columns = SampleColumns(np.array([t for t, _ in rows], np.int64), np.array([v for _, v in rows], np.int64))
    base = tmp_path_factory.getbasetemp()
    reference_write_waveform(columns, base / "reference.csv")
    expected = (base / "reference.csv").read_bytes()
    for block in synth._ROWS, 1, 2, 7:
        with mock.patch.object(synth, "_ROWS", block):
            write_waveform(columns, base / "written.csv")
        assert (base / "written.csv").read_bytes() == expected
    assert read_waveform(base / "written.csv") == columns
    numpy_path = _read_canonical(io.BytesIO(expected)) is not None
    assert numpy_path == all(t < 10**16 for t, _ in rows)


# The canonical grammar's bytes and the ones the line parser also reads
# (int() takes a sign, spaces and underscores), so both paths are met;
# `/` and `:` are the bytes either side of the digits.
_CSV_ALPHABET = "0123456789,\n\r -+_./:\x00"
_HEADERS = ["t_ms,value\n", "t_ms,value\r\n", " t_ms,value\n", "t_ms,value", "value,t_ms\n", ""]
_DIGITS = st.sampled_from([1, 2, 8, 9, 16, 17, 18, 19, 20]).flatmap(
    lambda n: st.text("0123456789", min_size=n, max_size=n))


@st.composite
def _waveform_csvs(draw):
    """A header, then rows that mostly advance in time and hold ADC values,
    at most two of them damaged in a field or in their line ending."""
    header = draw(st.just(_HEADERS[0]) | st.sampled_from(_HEADERS) | st.text(_CSV_ALPHABET, max_size=12))
    # times that grow past 8, 16, 17, 18 and 19 digits, or reach 2**63
    wide = st.sampled_from([10**8, 10**16, 10**17, 10**18, 10**19, 2**63]).map(lambda x: x - 3)
    t = draw(st.integers(0, 100) | wide)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        t += draw(st.integers(-1, 30))  # -1 and 0 do not advance
        rows.append([str(t), str(draw(st.integers(0, ADC_MAX + 1))), "\n"])
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row, part = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
        rows[row][part] = draw(
            st.sampled_from(["\r\n", "\n\n", ",\n", ",", ""]) if part == 2
            else _DIGITS | st.text(_CSV_ALPHABET, max_size=6))
    return (header + "".join(f"{a},{b}{end}" for a, b, end in rows)).encode()


# read_waveform's fast grammar: the files the numpy path must read itself
# whenever the line parser accepts them
_CANONICAL = re.compile(rb"t_ms,value\n(?:[0-9]{1,16},[0-9]{1,16}\n)*")


def _read_or_message(read, path):
    try:
        return read(path)
    except WaveformParseError as exc:
        return str(exc)


@settings(max_examples=300)
@given(data=_waveform_csvs() | st.text(_CSV_ALPHABET).map(lambda s: ("t_ms,value\n" + s).encode()))
@example(data=b"t_ms,value\n007,0100\n010,0\n")  # leading zeros
@example(data=b"t_ms,value\r\n0,5\r\n10,6\r\n")  # CRLF
@example(data=b"t_ms,value\n0,5\n\n10,6\n")  # a blank line
@example(data=b"t_ms,value\n0,5\n10,6")  # no final newline
@example(data=b"t_ms,value\n0,5,10,6\n")  # two rows on one line
@example(data=b"t_ms,value\n0,5\n10,1024\n")  # a value past the ADC range
@example(data=b"t_ms,value\n0,5\n10,6\n10,7\n")  # a repeated t_ms
@example(data=b"t_ms,value\n0,5\n9223372036854775808,6\n")  # t_ms of 2**63
@example(data=b"t_ms,value\n0,5\n999999999999999999,6\n")  # 18 digits
@example(data=b"t_ms,value\n12345678,5\n123456789,6\n")  # 8 then 9 digits
@example(data=b"t_ms,value\n0,5\n9999999999999999,6\n")  # a 16-digit t_ms
@example(data=b"t_ms,value\n0,5\n12345678901234567,6\n")  # a 17-digit t_ms
@example(data=b"t_ms,value\n0000000012,0000000005\n")  # leading zeros over 8 bytes
@example(data=b"t_ms,value\n0,\n")  # an empty field
@example(data=b"t_ms,value\n0,5\n1:,6\n")  # `:`, the byte after `9`
@example(data=b"t_ms,value\n0,5\n1\x00,6\n")  # a NUL
@example(data=b"t_ms,value\n0,5\n" + b"0" * (synth._BLOCK + 40) + b"7,6\n")  # a line longer than the buffer
@example(data=b"t_ms,value\n" + b"".join(  # 9-16-digit fields, a look-back across each refill
    b"%d,%d\n" % (10**8 * k + k, k) for k in range(1, 40)) + b"1234567890123456,1\n")
@example(data=b"t_ms,value")  # the header alone, with no final newline
@example(data=b"t_ms,value\n" + b"".join(  # 7-byte rows: a word starting at each offset mod 8
    b"%d,%d\n" % (t, 100 + t) for t in range(10, 26)))
@example(data=b"t_ms,value\n" + b"".join(  # 16-byte rows: at a 64-byte block, four fill the
    b"%d,%d\n" % (10**9 + k, 1000 + k) for k in range(5)))  # buffer to its last word
@example(data=b"t_ms,value\n1,5\n" + b"".join(  # 9 to 16 digits beside short fields
    b"%d,%d\n" % (10**w + w, w) for w in range(8, 16)))
def test_numpy_path_equals_line_parser(tmp_path_factory, data):
    """Both readers agree, with blocks from the default size down to a
    byte, so that a block edge falls after nearly every line, and the
    numpy path reads every canonical file that the line parser accepts."""
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    lines = _read_or_message(lambda p: SampleColumns.of(_read_waveform_lines(p.read_bytes())), path)
    canonical = isinstance(lines, SampleColumns) and _CANONICAL.fullmatch(data) is not None
    taken = set()
    for block in synth._BLOCK, 64, 9, 1:
        with mock.patch.object(synth, "_BLOCK", block):
            fast = _read_or_message(read_waveform, path)
            taken.add(_read_canonical(io.BytesIO(data)) is not None)
        assert type(fast) is type(lines)
        assert fast == lines
    assert taken == {canonical}  # one reader at every block size, numpy's for a canonical file


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_fifo_reads_as_a_regular_file(tmp_path):
    """A pipe cannot seek, so it is read whole and then parsed as the same
    file's bytes are; canonical bytes and the line parser's alike."""
    samples, _ = synthesize(WaveformSpec(duration_ms=20000, sample_rate_hz=1000.0,
                                         noise_stddev=20.0, rng_seed=3))
    path = tmp_path / "wave.csv"
    write_waveform(samples, path)
    fifo = tmp_path / "wave.fifo"
    os.mkfifo(fifo)
    for data in path.read_bytes(), path.read_bytes().replace(b"\n", b"\r\n"):
        path.write_bytes(data)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            assert read_waveform(fifo) == read_waveform(path) == samples
        finally:
            writer.join()


class TestWakeScenario:
    def test_default_profile(self):
        scenario = make_wake_scenario(UserProfile(20, 90))
        segments = scenario.spec.segments()
        assert segments[0][1] == pytest.approx(81.9)  # midpoint of [81.0, 82.8]
        assert segments[1][1] == 150.0  # midpoint of the fixed band [101, 199]
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
        with pytest.raises(ValueError, match="already inside the satisfaction band"):
            make_wake_scenario(UserProfile(20, 140))
