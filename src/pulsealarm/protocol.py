"""Framed byte-stream transport for sensor samples.

Wire format, 9 bytes per frame, all multi-byte fields big-endian:

    offset 0  sync      0xAA
    offset 1  seq       modulo-256 frame counter
    offset 2  t_ms      4-byte unsigned timestamp
    offset 6  value     2-byte unsigned ADC count
    offset 8  checksum  XOR of bytes 1..7 (everything except sync)

The sync byte may legitimately occur inside payloads; the checksum, not
byte-stuffing, disambiguates. A frame is corrupt when its checksum fails
or its value is above ADC_MAX (1023), which Sample refuses. The decoder is
total over arbitrary input: corruption surfaces as outcomes, never
exceptions, and parsing resumes at the next plausible sync byte. A valid
frame is one object, a SampleOutcome: a Sample with the frame's seq.
One record layout, _WIRE, states the frame for the encoder and the decoder.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .detector import _COUNTS, ADC_MAX, Sample, SampleColumns, _build
from .errors import PulseAlarmError
from .synth import read_waveform

SYNC_BYTE = 0xAA
_WIRE = np.dtype([("sync", "u1"), ("seq", "u1"), ("t_ms", ">u4"), ("value", ">u2"), ("check", "u1")])
FRAME_LEN = _WIRE.itemsize  # 9


@dataclass(frozen=True, slots=True)
class SampleOutcome(Sample):
    """A valid frame: a Sample, checked as one, and the seq it came with."""

    seq: int

    @property
    def sample(self) -> Sample:  # the frame itself: perfbench's Session still reads .sample
        return self


@dataclass(frozen=True, slots=True)
class Gap:
    """The next valid frame's seq does not follow the last valid frame's."""


@dataclass(frozen=True, slots=True)
class CorruptFrame:
    """A sync byte led a frame that failed its checksum or ADC range."""


@dataclass(frozen=True, slots=True)
class Resync:
    skipped_bytes: int


ParseOutcome = Union[SampleOutcome, Gap, CorruptFrame, Resync]


def encode_frame(seq: int, sample: Sample) -> bytes:
    return encode_stream((sample,), seq)


class FrameDecoder:
    """Incremental frame parser; feed bytes in any chunking.

    Emits SampleOutcome for each valid frame, and each break marker where
    the stream resumes, before the frame or sync byte after the break: Gap
    before a frame whose seq does not follow the last valid frame's,
    CorruptFrame for a sync byte that leads a frame failing validation, and
    Resync, a regained sync, for a sync byte that ends a hunt, with the
    bytes skipped over all the hunt's feeds (a hunt still on at the end has
    none). So the outcomes, and their counts gaps, corrupt_frames and
    resyncs (serve's), depend only on the bytes fed, not on their split.

    feed decodes in two stages, as Langdale and Lemire parse JSON ("Parsing
    Gigabytes of JSON per Second", VLDB J. 2019), at a fixed cost per call
    however few frames it holds (README gives the timing). Stage 1 indexes
    the buffer once, in numpy: valid[i] where offset i starts a whole frame
    that passes its checks, and link[i] where the frame FRAME_LEN bytes on
    is valid too and its seq is one more. Stage 2 walks the buffer one step
    per break: bytes.find to the next sync byte (a Resync), one byte past a
    sync byte that leads no valid frame (a CorruptFrame), or a run of linked
    frames, a Gap first if its seq jumps, built by one _build call.
    """

    def __init__(self):
        self._buf = b""
        self._last_seq: int | None = None
        self._skipped = 0  # the bytes skipped by a hunt no sync byte has ended yet
        self.gaps = self.corrupt_frames = self.resyncs = 0

    def feed(self, data: bytes) -> list[ParseOutcome]:
        buf = self._buf + data
        raw = np.frombuffer(buf, np.uint8)
        n = max(len(buf) - FRAME_LEN + 1, 0)  # the offsets that start a whole frame
        m = max(n - FRAME_LEN, 0)  # the offsets with a whole frame after their own
        x = np.bitwise_xor.accumulate(raw)  # bytes 1-8 of the frame at i XOR to x[i + 8] ^ x[i]
        valid = (raw[:n] == SYNC_BYTE) & (raw[6 : 6 + n] <= ADC_MAX >> 8) & (x[8 : 8 + n] == x[:n])
        link = np.zeros(n, bool)  # false where no whole frame follows, so every run ends
        link[:m] = valid[FRAME_LEN:] & (raw[FRAME_LEN + 1 : FRAME_LEN + 1 + m] - raw[1 : 1 + m] == 1)
        out: list[ParseOutcome] = []
        i = 0
        while True:
            sync = buf.find(SYNC_BYTE, i)
            end = len(buf) if sync < 0 else sync  # no sync byte: hunt on in the next feed
            self._skipped += end - i
            i = end
            if sync >= 0 and self._skipped:  # the sync byte at i ends a hunt
                out.append(Resync(self._skipped))
                self.resyncs += 1
                self._skipped = 0
            if i >= n:
                break  # a partial frame, or none: wait for more bytes
            if not valid[i]:
                out.append(CorruptFrame())
                self.corrupt_frames += 1
                i += 1  # drop only the sync byte, rescan inside the frame
                continue
            if self._last_seq is not None and (buf[i + 1] - self._last_seq) % 256 != 1:
                out.append(Gap())
                self.gaps += 1
            k = 1 + int(link[i::FRAME_LEN].argmin())
            # a valid frame passes Sample's check: its t_ms is unsigned, its value <= ADC_MAX
            frames = np.frombuffer(buf, _WIRE, k, i)
            out.extend(_build(SampleOutcome, frames["t_ms"].tolist(),
                              _COUNTS.take(frames["value"]).tolist(), frames["seq"].tolist()))
            i += k * FRAME_LEN
            self._last_seq = buf[i - FRAME_LEN + 1]
        self._buf = buf[i:]
        return out


def encode_stream(samples: Sequence[Sample], start_seq: int = 0) -> bytes:
    """Encode an ordered sample stream with a sequential frame counter, seq
    counting up from start_seq modulo 256, in one numpy pass over _WIRE.
    A start_seq that is not an integer (an int or a numpy integer, as
    Sample takes) or not within one byte, or else the first t_ms that does
    not fit 4 bytes, raises ValueError."""
    if type(start_seq) is not int and not isinstance(start_seq, np.integer):
        raise ValueError(f"seq must be an integer, got {start_seq!r}")
    if not 0 <= start_seq <= 255:
        raise ValueError(f"seq must fit one byte, got {start_seq}")
    columns = SampleColumns.of(samples)
    t = columns.t_ms
    beyond = np.flatnonzero(t >= 2**32)
    if beyond.size:
        raise ValueError(f"t_ms must fit 4 bytes (below 2**32), got {t[beyond[0]]}")
    frames = np.empty(t.size, _WIRE)
    frames["sync"] = SYNC_BYTE
    frames["seq"] = (start_seq + np.arange(t.size)) % 256
    frames["t_ms"] = t
    frames["value"] = columns.value
    # the check byte is the XOR of bytes 1-7, the rule feed tests
    raw = frames.view(np.uint8).reshape(-1, FRAME_LEN)
    frames["check"] = np.bitwise_xor.reduce(raw[:, 1:8], axis=1)
    return frames.tobytes()


def replay_file(
    path, connect: Callable[[], Callable[[bytes], None]], speed: float = 0.0
) -> int:
    """Encode a waveform CSV in one pass, then send it into the sink
    `connect()` returns, the frames due at one time in one call.

    speed is a real-time multiplier: 1.0 paces frames at the recorded
    sample intervals, 2.0 twice as fast, 0 disables pacing entirely. Each
    frame has one due time, in seconds after the first frame, and waits for
    it on the monotonic clock, so a late wake-up delays one frame, not every
    frame after it. Unpaced, every frame is due at 0, and the whole stream
    is one call.
    Returns the number of frames sent. The whole file is read and checked,
    every frame encoded and the pacing checked against the longest sleep,
    before `connect` is called, so a refused file or speed opens no sink.
    """
    columns = read_waveform(path)
    try:
        data = encode_stream(columns)
    except ValueError as exc:  # only a t_ms can be refused; sample i is line i + 2
        raise PulseAlarmError(f"line {int(np.argmax(columns.t_ms >= 2**32)) + 2}: {exc}") from None
    t = columns.t_ms
    due = (t - t[:1]) / 1000.0 / speed if speed > 0 else np.zeros(t.size)
    # the first frame of each run of equal due times (every due time is >= 0), then the end
    firsts = np.flatnonzero(np.diff(due, prepend=-1.0)).tolist() + [t.size]
    due = due.tolist()
    span_s = due[-1] if due else 0.0
    longest_s = threading.TIMEOUT_MAX - time.monotonic()  # time.sleep's deadline bound
    if span_s > longest_s:
        raise PulseAlarmError(f"speed {speed:g}: the last frame would be due {span_s:g} s "
                              f"after the first, past the longest sleep of {longest_s:g} s")
    sink = connect()
    start = time.monotonic()
    for i, j in zip(firsts, firsts[1:]):
        delay = start + due[i] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sink(data[i * FRAME_LEN : j * FRAME_LEN])
    return len(due)
