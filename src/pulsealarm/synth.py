"""Synthetic pulse waveforms with known ground-truth beat times.

Each beat contributes a raised-cosine pulse centered on the true beat time,
on top of a flat baseline, optional sinusoidal baseline wander, optional
Gaussian noise, and optional stray pulses (the adversarial mid-amplitude
excursions a single-threshold detector falls for). Output values are
integer ADC counts clamped to [0, 1023], deterministic for a fixed seed.
All but the noise and the strays is built once per waveform shape and
kept, so a sweep of seeds over one shape pays only for what calls differ in.

A waveform CSV is columnar both ways: numpy writes a block of rows as one
byte matrix (write_waveform) and parses a block (read_waveform) at a time.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .detector import ADC_MAX, Sample, SampleColumns
from .engine import EngineConfig, Phase
from .errors import WaveformParseError, WaveformSpecError
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
        for name in ("baseline", "noise_stddev", "rng_seed"):
            if not getattr(self, name) >= 0:
                raise WaveformSpecError(name, "must be non-negative")
        if not self.baseline + self.pulse_amplitude <= ADC_MAX:
            raise WaveformSpecError(
                "pulse_amplitude",
                f"baseline + pulse_amplitude exceeds ADC maximum {ADC_MAX}",
            )
        segments = self.segments()
        if not segments or segments[0][0] != 0:
            raise WaveformSpecError("heart_rate_bpm", "schedule must start at 0 ms")
        bpm_limit = 60 * self.sample_rate_hz  # one beat per sample
        for start, bpm in segments:
            if not (math.isfinite(start) and 0 < bpm <= bpm_limit):
                raise WaveformSpecError(
                    "heart_rate_bpm",
                    f"segment ({start}, {bpm}) must be finite with bpm in (0, {bpm_limit:g}]",
                )
        max_bpm = max(bpm for _, bpm in segments)
        if not 0 < self.pulse_width_ms < 60000.0 / max_bpm:
            raise WaveformSpecError(
                "pulse_width_ms",
                f"must be in (0, {60000.0 / max_bpm:.1f}) ms, the shortest beat interval",
            )
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

    def beat_times(self) -> list[float]:
        """Beat times from 0 ms on. Each interval follows the rate of the last
        schedule segment starting at or before the beat that opens it."""
        return _beat_times(self.segments(), self.duration_ms)


def _beat_times(segments, duration_ms) -> list[float]:
    """WaveformSpec.beat_times of a schedule's segments and a duration."""
    beats = []
    t = 0.0
    i = 0
    while t < duration_ms:
        beats.append(t)
        while i + 1 < len(segments) and t >= segments[i + 1][0]:
            i += 1
        t += 60000.0 / segments[i][1]
    return beats


@dataclass(frozen=True)
class GroundTruth:
    beat_times_ms: tuple[float, ...]


# Noise is drawn, scaled and added this many doubles (32 KiB) at a time,
# through one slice that stays in cache, so the output block stays the only
# full-length allocation. Each slice continues the generator's stream where
# the last stopped, so no value depends on the slice size.
_NOISE_SLICE = 4096


def synthesize(spec: WaveformSpec) -> tuple[SampleColumns, GroundTruth]:
    """Generate the sample columns and their ground truth for a spec.

    A call copies its shape's base (see _base) into the float view of the
    one int64 block it allocates, stamps its strays, adds its noise, and
    rounds, clamps and casts the values in place to the counts. Its t_ms is
    the shape's read-only grid, shared by every result of the shape. One
    8n-byte block a call keeps the C heap's pages between calls (see
    README), where fresh ones cost page faults on the scale of the arithmetic."""
    period = 1000.0 / spec.sample_rate_hz
    grid, base, beats = _base(
        int(round(spec.duration_ms / period)), period, spec.baseline, spec.wander_amplitude,
        spec.wander_period_ms, spec.segments(), spec.duration_ms, spec.pulse_width_ms,
        spec.pulse_amplitude)
    n = grid.size
    out = np.empty(n, np.int64)
    values = out.view(np.float64)
    np.copyto(values, base)
    if spec.stray_pulses:
        # strays may overlap anything, and add.at adds a repeated index once
        # per window, in order
        np.add.at(values, *_pulses(
            grid, [(s.t_ms, s.width_ms, s.peak - spec.baseline) for s in spec.stray_pulses]))

    if spec.noise_stddev:
        rng = np.random.default_rng(spec.rng_seed)
        part = np.empty(min(n, _NOISE_SLICE))
        # a huge stddev overflows to ±inf, which the clip maps to the ADC bounds
        with np.errstate(over="ignore"):
            for a in range(0, n, _NOISE_SLICE):
                noise = part[: n - a]
                rng.standard_normal(out=noise)
                noise *= spec.noise_stddev  # normal(0, s, n) draws s * standard_normal
                values[a : a + noise.size] += noise

    np.round(values, out=values)
    np.clip(values, 0, ADC_MAX, out=values)
    np.copyto(out, values, casting="unsafe")  # each count overwrites the float it is cast from
    return SampleColumns._own(grid, out), GroundTruth(beats)


@functools.lru_cache(maxsize=1)
def _base(n, period, baseline, wander_amplitude, wander_period_ms, segments, duration_ms,
          pulse_width_ms, pulse_amplitude):
    """A shape's read-only int64 time grid, read-only float base (baseline,
    wander and every beat's pulse) and beat times: all that the noise, the
    strays and the seed leave alone. The last shape is kept. The base is
    built in the float grid's buffer, so that a miss adds only the two."""
    base = np.arange(n, dtype=np.float64)
    base *= period
    np.round(base, out=base)
    grid = base.astype(np.int64)
    base.fill(baseline)
    if wander_amplitude:  # each int64 time converts back to its float exactly
        base += wander_amplitude * np.sin(2.0 * math.pi * grid / wander_period_ms)
    beats = tuple(_beat_times(segments, duration_ms))
    # WaveformSpec keeps beat windows apart, so no index repeats
    idx, stamps = _pulses(grid, [(beat, pulse_width_ms, pulse_amplitude) for beat in beats])
    base[idx] += stamps
    grid.flags.writeable = base.flags.writeable = False
    return grid, base, beats


def _pulses(grid: np.ndarray, pulses: list) -> tuple[np.ndarray, np.ndarray]:
    """The sample indices and heights of raised-cosine pulses, given as
    (center, width, peak) triples, on an increasing int64 time grid, in one
    numpy pass: window after window, the samples within half a width of
    each center."""
    centers, widths, peaks = np.array(pulses, dtype=np.float64).reshape(-1, 3).T
    halves = widths / 2.0
    # a window's first time is at or after ceil(center - half), its last at
    # or before floor(center + half); clipped to [-1, last time + 1], which
    # selects the same samples, so that a far stray's bound casts to int64
    top = int(grid[-1]) + 1 if grid.size else 0
    lo = np.searchsorted(grid, np.clip(np.ceil(centers - halves), -1, top).astype(np.int64))
    hi = np.searchsorted(
        grid, np.clip(np.floor(centers + halves), -1, top).astype(np.int64), side="right")
    sizes = hi - lo
    pulse = np.repeat(np.arange(centers.size), sizes)
    idx = np.arange(pulse.size) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    return idx, peaks[pulse] * 0.5 * (
        1.0 + np.cos(math.pi * (grid[idx] - centers[pulse]) / halves[pulse]))


_HEADER = "t_ms,value\n"

# The writer formats this many rows at a time: a block's byte matrix and mask
# (up to 100 KiB each, at 25 bytes a row) and int64 quotient (32 KiB) stay under
# glibc's 128 KiB mmap threshold, so the heap a write uses is kept (see README).
_ROWS = 4096
_MARK = 0xFF  # a matrix cell left of a field's first digit: no digit, `,` or `\n`


def write_waveform(samples: Sequence[Sample], path) -> None:
    """Write samples as CSV: one `t_ms,value` header then one line per
    sample, each field as str(int) writes it.

    The rows are formatted by numpy, a block of _ROWS at a time, into one
    byte buffer per block that one write sends to the file."""
    columns = SampleColumns.of(samples)
    with open(path, "wb") as f:
        f.write(_HEADER.encode())
        for a in range(0, len(columns), _ROWS):
            f.write(_format_rows(columns.t_ms[a : a + _ROWS], columns.value[a : a + _ROWS]))


def _format_rows(t_ms: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The bytes of the rows `t,v\\n` of two non-empty int64 columns of
    non-negative integers, as a uint8 array.

    Row i of one byte matrix is line i: a column per digit of the block's
    widest t_ms, a `,`, a column per digit of its widest value, a `\\n`.
    Each field's columns are filled from its last digit up, one pass of
    x // 10 per column; past the first, a row whose x is 0 has no digit
    left and gets _MARK. The bytes that are not _MARK, in row order, are
    the lines."""
    t_width, v_width = (len(str(x.max())) for x in (t_ms, value))
    rows = np.empty((t_ms.size, t_width + v_width + 2), np.uint8)
    for x, width, last in ((t_ms, t_width, t_width - 1), (value, v_width, -2)):
        for k in range(width):
            # x // 10 by a scalar is a multiply and shift in numpy, ~4x
            # faster than np.divmod, whose remainder is a true division
            q = x // 10
            column = rows[:, last - k]
            np.subtract(x, q * 10, out=column, casting="unsafe")
            if k:
                column[x == 0] = _MARK
            x = q
    rows |= ord("0")  # a digit d becomes its byte; _MARK stays
    rows[:, t_width] = ord(",")
    rows[:, -1] = ord("\n")
    return rows[rows != _MARK]


def read_waveform(path) -> SampleColumns:
    """Read a waveform CSV back into sample columns, sample i from line i + 2.

    A canonical file, the header `t_ms,value` and then lines of 1-16 digits,
    a comma and 1-16 digits, each ending in `\\n`, is parsed by numpy in one
    pass, a block of lines at a time, each field folded from one or two
    64-bit words. Any other file, or a canonical one with a refused row, is
    read by the line parser, which raises the first line's WaveformParseError.
    An input that cannot seek, such as a pipe, is read whole first."""
    with open(path, "rb") as f:
        data = f if f.seekable() else io.BytesIO(f.read())
        if (columns := _read_canonical(data)) is None:
            data.seek(0)
            return SampleColumns.of(_read_waveform_lines(data.read()))
    return columns


# The file goes through one buffer of about this many bytes, which holds a
# block of whole lines at a time. At ~10 bytes a row, a block's int64
# temporaries (~52 KB each) stay in L2, and as the file is never held whole,
# glibc keeps the heap a read uses for the next one (see README).
_BLOCK = 1 << 15
# bytes before a block, two aligned words, so that both words folded for a
# field at its start, 8 and 16 bytes before its separator, lie in the buffer
_PAD = 16
# _MASK[s] keeps the low nibble, the digit, of the last s - 1 bytes of a little-endian
# word: the digits of a field that spans s bytes with its separator
_MASK = np.array([0x0F0F0F0F0F0F0F0F >> 8 * (8 - w) << 8 * (8 - w) for w in range(-1, 9)], np.uint64)
# _fold's steps, a multiplier, a shift and a mask each, and the operands
# below: all uint64, since numpy turns uint64 mixed with int64 into float64
_FOLD = [tuple(map(np.uint64, (10 ** (shift // 8) << shift | 1, shift, keep)))
         for shift, keep in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF))]
_3, _7, _8, _56, _E8 = map(np.uint64, (3, 7, 8, 56, 10**8))


def _fold(words: np.ndarray) -> np.ndarray:
    """The value of each word's 8 decimal digits, the first in its low byte,
    in place: each step adds every digit group, times its weight, into the
    next, for 4 two-digit, 2 four-digit and then 1 eight-digit value
    (Lemire's SWAR fold)."""
    for multiplier, shift, keep in _FOLD:
        words *= multiplier
        words >>= shift
        words &= keep
    return words


def _gather(words: np.ndarray, q: np.ndarray, right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """words[q] >> right | words[q + 1] << left << 8: the little-endian word
    that starts right // 8 bytes into words[q], from two gathers of aligned
    words. right is 0-56 and left is 56 - right, so that no single shift
    reaches 64, whose result numpy versions disagree on."""
    out = words[q]
    out >>= right
    after = words[1:][q]
    after <<= left
    after <<= _8
    out |= after
    return out


def _read_canonical(f) -> Optional[SampleColumns]:
    """The columns of the canonical CSV in the seekable binary file f, if
    Sample accepts its rows in strictly increasing time order, else None.
    16 digits cannot overflow int64.

    One pass reads the file through one buffer of whole 64-bit words, into
    one output sized from its length: a row is at least 4 bytes, so the
    body holds at most length // 4 rows, and a file that grew past them is
    refused. Blocks of whole lines are parsed, each block's partial last
    line carried to the buffer's front. A block is checked, then folded:
    each field is the digits in the 8 bytes before its separator, plus
    10**8 times the 8 bytes before those for a field of 9-16 digits; the
    _PAD bytes before the block keep both in the buffer. Each of those
    words is gathered from the buffer's aligned words, as numpy gathers
    from an unaligned view several times slower."""
    length = _PAD + max(_BLOCK, 34)  # 34: 16 digits, `,`, 16 digits, `\n`
    # whole words: a separator at byte i ends a word that spans aligned words
    # i // 8 - 1 and i // 8, so every word read lies in the buffer
    buf = bytearray(length + -length % 8)
    raw = np.frombuffer(buf, np.uint8)
    words = raw.view("<u8")
    body = memoryview(buf)[_PAD:]
    if f.read(len(_HEADER)) != _HEADER.encode():
        return None
    cap = max(f.seek(0, io.SEEK_END) - len(_HEADER), 0) // 4
    out = np.empty((2, cap), np.int64)
    f.seek(len(_HEADER))
    row = carry = 0
    while size := f.readinto(body[carry:]):
        end = _PAD + carry + size
        stop = buf.rfind(b"\n", _PAD, end) + 1 or _PAD  # the block ends after its last newline
        carry = end - stop
        if stop == _PAD:
            continue
        block = raw[_PAD:stop]
        ends = np.flatnonzero(block < ord("0"))  # the `,` or `\n` after each field
        spans = np.empty_like(ends)  # each field's digits and its separator
        spans[0] = ends[0] + 1
        np.subtract(ends[1:], ends[:-1], out=spans[1:])
        n = ends.size // 2
        # each pair of separators is `,\n`, read as one little-endian uint16,
        # and each field 1-16 digits, a span of 2-17
        if not (block.max() <= ord("9") and not ends.size % 2
                and (block[ends].view("<u2") == ord(",") | ord("\n") << 8).all()
                and 2 <= spans.min() and (widest := spans.max()) <= 17 and row + n <= cap):
            return None
        # a field's word, the 8 bytes before its separator at buffer byte
        # _PAD + e, starts right // 8 = e % 8 bytes into words[1:][e // 8], as
        # _PAD is two words, and its high word as far into words[e // 8]
        right = ends.view(np.uint64) & _7
        right <<= _3
        left = np.subtract(_56, right)
        q = np.right_shift(ends, 3, out=ends)
        fields = _gather(words[1:], q, right, left)
        fields &= _MASK.take(spans, mode="clip")
        _fold(fields)
        if widest > 9:  # a field of 1-8 digits, a span of 2-9, masks its high word to 0
            high = _gather(words, q, right, left)
            high &= _MASK.take(spans - 8, mode="clip")
            fields += _fold(high) * _E8
        out[0, row : row + n] = fields[0::2]
        out[1, row : row + n] = fields[1::2]
        row += n
        buf[_PAD : _PAD + carry] = buf[stop:end]
    if carry:  # no final newline, or a line longer than the buffer
        return None
    try:
        columns = SampleColumns._own(out[0, :row], out[1, :row])
    except ValueError:  # a value above the ADC range
        return None
    t = columns.t_ms
    return None if (t[1:] <= t[:-1]).any() else columns


def _read_waveform_lines(data: bytes) -> list[Sample]:
    """read_waveform for any file's bytes, split into lines as open() does:
    the first line that is not two integers Sample accepts, with a t_ms past
    the line before's, raises WaveformParseError; a non-UTF-8 byte its own."""
    samples, last = [], -1  # -1: below every t_ms that Sample accepts
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape") as f:
        header = f.readline()
        if header.strip() != _HEADER.strip():
            raise WaveformParseError(1, f"expected header {_HEADER.strip()!r}, got {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
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
            if t_ms <= last:
                raise WaveformParseError(lineno, f"t_ms={t_ms} does not advance past {last}")
            last = t_ms
    return samples


@dataclass(frozen=True)
class WakeScenario:
    """A full sleep-to-exercise run: the waveform to play, the engine setup,
    and the transition log the run is expected to produce."""

    spec: WaveformSpec
    alarm_time_ms: int
    engine_config: EngineConfig
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
    sleep_bpm = sleep_rate_range(profile.resting_bpm).midpoint()
    if band.contains(sleep_bpm):
        raise ValueError(
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
    transitions = [(Phase.ARMED, Phase.RINGING)]
    if band.contains(exercise_bpm):
        transitions.append((Phase.RINGING, Phase.STOPPED))
    return WakeScenario(
        spec=spec,
        alarm_time_ms=sleep_duration_ms,
        engine_config=engine_config,
        expected_transitions=tuple(transitions),
        expected_final_phase=transitions[-1][1],
    )
