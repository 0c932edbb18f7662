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
exceptions, and parsing resumes at the next plausible sync byte.

One wire layout, _FRAME for one frame and _WIRE for a block of frames,
serves the encoder and the decoder. The decoder checks frames one at a
time, or a run of at least _BULK_MIN buffered whole frames in one numpy
pass that builds their outcomes a field at a time, with the same outcomes
and counts. A pass stops at a frame that fails or whose seq jumps; the
frame-by-frame scan takes that frame, and after every break (Resync,
CorruptFrame, Gap) the next _BULK_RETRY frames.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .detector import ADC_MAX, Sample, SampleColumns, _build
from .errors import PulseAlarmError
from .synth import read_waveform

SYNC_BYTE = 0xAA
_FRAME = struct.Struct(">BBIHB")  # sync, seq, t_ms, value, checksum
FRAME_LEN = _FRAME.size  # 9
# _FRAME as a numpy record, for a block of frames at once
_WIRE = np.dtype([("sync", "u1"), ("seq", "u1"), ("t_ms", ">u4"), ("value", ">u2"), ("check", "u1")])
_BULK_MIN = 16
"""The fewest whole frames, buffered from the scan position, that
FrameDecoder checks in one numpy pass rather than one at a time. In recvs
of n frames through feed and Pipeline.push, as serve runs them, a pass per
recv took this share of the frame-by-frame scan's time (12 sets of 21
alternating runs, their medians averaged, raw time, Python 3.11, numpy
2.4, 2-core VM), so a pass pays off from about 14 frames, and at 16 it
won in every set:
    n              8     12    14    16    20    24    32
    pass / scan    1.36  1.07  1.03  0.87  0.76  0.72  0.63"""
_BULK_RETRY = 32
"""The frames in a row, valid and in seq, that the scan waits for after a
break (a Resync, CorruptFrame or Gap) before it tries a pass again. With
one break every D frames, each pass then ends D - _BULK_RETRY frames on,
and one that ends within about 14 loses to the scan. With one corrupt
frame every D frames, in 4096-byte chunks through feed and Pipeline.push,
a retry of 32 took this share of the time of a retry of 16 (16
alternating runs, median of the ratios, raw time, Python 3.11, numpy 2.4,
2-core VM):
    D              17    20    24    32    40    48    64
    32 / 16        0.76  0.69  0.83  0.97  1.27  1.28  1.22
A retry of 16 would charge a stream damaged every 17-30 frames a short
pass per corrupt frame; 32 keeps it on the scan, and charges such passes
only to D = 33-46."""


@dataclass(frozen=True, slots=True)
class SampleOutcome:
    seq: int
    sample: Sample


@dataclass(frozen=True, slots=True)
class Gap:
    """A valid frame's seq did not follow the last valid frame's."""


@dataclass(frozen=True, slots=True)
class CorruptFrame:
    """A sync byte led a frame that failed its checksum or ADC range."""


@dataclass(frozen=True, slots=True)
class Resync:
    skipped_bytes: int


ParseOutcome = Union[SampleOutcome, Gap, CorruptFrame, Resync]


def _checksum(seq: int, t_ms: int, value: int) -> int:
    """XOR of frame bytes 1-7, folded from the fields: the high and low
    halves of t_ms and value XOR to 16 bits, then its two bytes to one.
    The fields may be ints or integer arrays alike."""
    x = t_ms ^ (t_ms >> 16) ^ value
    return (seq ^ x ^ (x >> 8)) & 0xFF


def encode_frame(seq: int, sample: Sample) -> bytes:
    t_ms, value = sample.t_ms, sample.value
    _check_fields(seq, t_ms)
    return _FRAME.pack(SYNC_BYTE, seq, t_ms, value, _checksum(seq, t_ms, value))


def _check_fields(seq: int, t_ms: int) -> None:
    """Refuse a seq outside one byte and a t_ms that does not fit 4 bytes."""
    if not 0 <= seq <= 255:
        raise ValueError(f"seq must fit one byte, got {seq}")
    if t_ms >= 2**32:
        raise ValueError(f"t_ms must fit 4 bytes (below 2**32), got {t_ms}")


class FrameDecoder:
    """Incremental frame parser; feed bytes in any chunking.

    Emits SampleOutcome for each valid frame, Gap when the seq counter jumps,
    CorruptFrame when a sync byte leads a frame that fails validation, and
    Resync counting the bytes skipped to find a sync byte; gaps,
    corrupt_frames and resyncs count the last three.

    feed scans frame by frame, but where at least _BULK_MIN whole frames are
    buffered from the scan position it checks them in one numpy pass (see
    _decode_run) up to the first frame that fails or whose seq jumps. The
    scan takes that frame, so it alone emits CorruptFrame, Resync and Gap.
    After any of the three it tries a pass again at the start of the next
    feed or once _BULK_RETRY frames in a row have passed it valid and in
    seq, so that a densely damaged stream, which would end each pass within
    a frame or two, is not charged a pass per valid frame. The outcomes and
    counts are the frame-by-frame scan's at any chunking.
    """

    def __init__(self):
        self._buf = bytearray()
        self._last_seq: int | None = None
        self.gaps = self.corrupt_frames = self.resyncs = 0

    def feed(self, data: bytes) -> list[ParseOutcome]:
        self._buf.extend(data)
        out: list[ParseOutcome] = []
        buf = self._buf
        last_start = len(buf) - _BULK_MIN * FRAME_LEN  # _BULK_MIN whole frames from here on
        bulk_from = 0  # no pass before it: each break moves it _BULK_RETRY frames on
        i = 0
        while True:
            sync = buf.find(SYNC_BYTE, i)
            sync = len(buf) if sync < 0 else sync  # no sync byte: skip to the end
            if sync > i:
                out.append(Resync(sync - i))
                self.resyncs += 1
                bulk_from = sync + _BULK_RETRY * FRAME_LEN
            i = sync
            if len(buf) - i < FRAME_LEN:
                break  # a partial frame, or none: wait for more bytes
            if i <= last_start and i >= bulk_from:
                i = self._decode_run(buf, i, out)
                bulk_from = i + 1  # the scan takes the frame that ended the pass
                continue
            _, seq, t_ms, value, check = _FRAME.unpack_from(buf, i)
            if check != _checksum(seq, t_ms, value) or value > ADC_MAX:
                out.append(CorruptFrame())
                self.corrupt_frames += 1
                i += 1  # drop only the sync byte, rescan inside the frame
                bulk_from = i + _BULK_RETRY * FRAME_LEN
                continue
            out.append(SampleOutcome(seq, Sample(t_ms, value)))
            i += FRAME_LEN
            if self._last_seq is not None and (seq - self._last_seq) % 256 != 1:
                out.append(Gap())
                self.gaps += 1
                bulk_from = i + _BULK_RETRY * FRAME_LEN
            self._last_seq = seq
        del buf[:i]
        return out

    def _decode_run(self, buf: bytearray, i: int, out: list[ParseOutcome]) -> int:
        """The bulk pass over the whole frames from buf[i]: the leading run
        of valid frames whose seqs count up by one from _last_seq (from any
        seq at the start of a stream) becomes SampleOutcomes. _build makes
        their Samples and outcomes a field at a time: the mask below and the
        unsigned 4-byte t_ms already hold each row to Sample's rule. Returns
        the offset of the first frame that fails or jumps, or past the last
        whole frame."""
        n = (len(buf) - i) // FRAME_LEN
        block = buf[i : i + n * FRAME_LEN]  # a copy: a view of buf would block its resize
        raw = np.frombuffer(block, np.uint8).reshape(n, FRAME_LEN)
        frames = np.frombuffer(block, _WIRE)
        seq, t_ms, value = frames["seq"], frames["t_ms"], frames["value"]
        # the XOR of bytes 1-7 equals byte 8 where the XOR of bytes 1-8 is 0
        ok = (raw[:, 0] == SYNC_BYTE) & (value <= ADC_MAX) & (
            np.bitwise_xor.reduce(raw[:, 1:], axis=1) == 0
        )
        # and each seq follows the one before it (uint8 wraps), the first
        # one's (buf[i + 1]) the last delivered
        ok[1:] &= seq[1:] - seq[:-1] == 1
        ok[0] &= self._last_seq is None or (buf[i + 1] - self._last_seq) % 256 == 1
        k = n if ok.all() else int(ok.argmin())
        if not k:
            return i
        rows = _build(Sample, t_ms[:k].tolist(), value[:k].tolist())
        out.extend(_build(SampleOutcome, seq[:k].tolist(), rows))
        self._last_seq = int(seq[k - 1])
        return i + k * FRAME_LEN


def encode_stream(samples: Sequence[Sample], start_seq: int = 0) -> bytes:
    """Encode an ordered sample stream with a sequential frame counter:
    encode_frame over every row, seq counting up from start_seq modulo 256,
    in one numpy pass over the wire layout. A start_seq outside one byte,
    or else the first t_ms that does not fit 4 bytes, raises encode_frame's
    ValueError."""
    columns = SampleColumns.of(samples)
    t, v = columns.t_ms, columns.value
    beyond = np.flatnonzero(t >= 2**32)
    _check_fields(start_seq, int(t[beyond[0]]) if beyond.size else 0)
    frames = np.empty(t.size, _WIRE)
    frames["sync"] = SYNC_BYTE
    frames["seq"] = seq = (start_seq + np.arange(t.size)) % 256
    frames["t_ms"] = t
    frames["value"] = v
    frames["check"] = _checksum(seq, t, v)
    return frames.tobytes()


def replay_file(
    path, connect: Callable[[], Callable[[bytes], None]], speed: float = 0.0
) -> int:
    """Encode a waveform CSV frame by frame into the sink `connect()` returns.

    speed is a real-time multiplier: 1.0 paces frames at the recorded
    sample intervals, 2.0 twice as fast, 0 disables pacing entirely. Each
    frame has one due time, in seconds after the first frame (all 0 when
    unpaced), and waits for it on the monotonic clock, so a late wake-up
    delays one frame, not every frame after it.
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
    due = ((t - t[:1]) / 1000.0 / speed if speed > 0 else np.zeros(t.size)).tolist()
    span_s = due[-1] if due else 0.0
    longest_s = threading.TIMEOUT_MAX - time.monotonic()  # time.sleep's deadline bound
    if span_s > longest_s:
        raise PulseAlarmError(f"speed {speed:g}: the last frame would be due {span_s:g} s "
                              f"after the first, past the longest sleep of {longest_s:g} s")
    sink = connect()
    start = time.monotonic()
    for i, due_s in enumerate(due):
        delay = start + due_s - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sink(data[i * FRAME_LEN : (i + 1) * FRAME_LEN])
    return len(due)
