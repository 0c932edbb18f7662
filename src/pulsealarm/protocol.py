"""Framed byte-stream transport for sensor samples.

Wire format, 9 bytes per frame, all multi-byte fields big-endian:

    offset 0  sync      0xAA
    offset 1  seq       modulo-256 frame counter
    offset 2  t_ms      4-byte unsigned timestamp
    offset 6  value     2-byte unsigned ADC count
    offset 8  checksum  XOR of bytes 1..7 (everything except sync)

The sync byte may legitimately occur inside payloads; the checksum, not
byte-stuffing, disambiguates. A frame is corrupt when its checksum fails
or when Sample refuses its fields (a value above 1023). The decoder is
total over arbitrary input: corruption surfaces as outcomes, never
exceptions, and parsing resumes at the next plausible sync byte.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .detector import Sample
from .errors import PulseAlarmError, StreamOrderError
from .synth import read_waveform

SYNC_BYTE = 0xAA
_FRAME = struct.Struct(">BBIHB")  # sync, seq, t_ms, value, checksum
FRAME_LEN = _FRAME.size  # 9


@dataclass(frozen=True)
class SampleOutcome:
    seq: int
    sample: Sample


@dataclass(frozen=True)
class Gap:
    expected_seq: int
    got_seq: int


@dataclass(frozen=True)
class CorruptFrame:
    byte_offset: int


@dataclass(frozen=True)
class Resync:
    skipped_bytes: int


ParseOutcome = Union[SampleOutcome, Gap, CorruptFrame, Resync]


def _checksum(seq: int, t_ms: int, value: int) -> int:
    """XOR of frame bytes 1-7, folded from the fields: the high and low
    halves of t_ms and value XOR to 16 bits, then its two bytes to one."""
    x = t_ms ^ (t_ms >> 16) ^ value
    return (seq ^ x ^ (x >> 8)) & 0xFF


def encode_frame(seq: int, sample: Sample) -> bytes:
    if not 0 <= seq <= 255:
        raise ValueError(f"seq must fit one byte, got {seq}")
    if sample.t_ms >= 2**32:
        raise ValueError(f"t_ms must fit 4 bytes (below 2**32), got {sample.t_ms}")
    t_ms, value = sample.t_ms, sample.value
    return _FRAME.pack(SYNC_BYTE, seq, t_ms, value, _checksum(seq, t_ms, value))


class FrameDecoder:
    """Incremental frame parser; feed bytes in any chunking.

    Emits SampleOutcome for each checksum-valid frame, Gap when the seq
    counter jumps, CorruptFrame (with the frame's absolute byte offset)
    when a sync byte leads a frame that fails validation, and Resync
    counting bytes skipped while hunting for a sync byte.
    """

    def __init__(self):
        self._buf = bytearray()
        self._offset = 0  # absolute stream offset of _buf[0]
        self._last_seq: int | None = None

    def feed(self, data: bytes) -> list[ParseOutcome]:
        self._buf.extend(data)
        out: list[ParseOutcome] = []
        buf = self._buf
        i = 0
        while True:
            sync = buf.find(SYNC_BYTE, i)
            sync = len(buf) if sync < 0 else sync  # no sync byte: skip to the end
            if sync > i:
                out.append(Resync(sync - i))
            i = sync
            if len(buf) - i < FRAME_LEN:
                break  # a partial frame, or none: wait for more bytes
            _, seq, t_ms, value, check = _FRAME.unpack_from(buf, i)
            try:
                sample = check == _checksum(seq, t_ms, value) and Sample(t_ms, value)
            except ValueError:  # Sample refuses the fields
                sample = None
            if not sample:
                out.append(CorruptFrame(self._offset + i))
                i += 1  # drop only the sync byte, rescan inside the frame
                continue
            out.append(SampleOutcome(seq, sample))
            if self._last_seq is not None and (seq - self._last_seq) % 256 != 1:
                out.append(Gap((self._last_seq + 1) % 256, seq))
            self._last_seq = seq
            i += FRAME_LEN
        del buf[:i]
        self._offset += i
        return out


def encode_stream(samples: Sequence[Sample], start_seq: int = 0) -> bytes:
    """Encode an ordered sample stream with a sequential frame counter."""
    return b"".join(
        encode_frame((start_seq + i) % 256, s) for i, s in enumerate(samples)
    )


def replay_file(
    path, connect: Callable[[], Callable[[bytes], None]], speed: float = 0.0
) -> int:
    """Encode a waveform CSV frame by frame into the sink `connect()` returns.

    speed is a real-time multiplier: 1.0 paces frames at the recorded
    sample intervals, 2.0 twice as fast, 0 disables pacing entirely. Each
    frame waits for its own due time on the monotonic clock, so a late
    wake-up delays one frame, not every frame after it.
    Returns the number of frames sent. Every frame is encoded, and the
    whole file checked for time order and for encode_frame's limits, before
    `connect` is called, so a refused file opens no sink.
    """
    samples = read_waveform(path)
    frames = []
    for i, sample in enumerate(samples):
        if i and sample.t_ms <= samples[i - 1].t_ms:
            raise StreamOrderError(
                f"sample {i} at t_ms={sample.t_ms} does not advance past {samples[i - 1].t_ms}"
            )
        try:
            frames.append(encode_frame(i % 256, sample))
        except ValueError as exc:
            raise PulseAlarmError(f"sample {i}: {exc}") from None
    sink = connect()
    start = time.monotonic()
    for sample, frame in zip(samples, frames):
        if speed > 0:
            delay = start + (sample.t_ms - samples[0].t_ms) / 1000.0 / speed - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        sink(frame)
    return len(frames)
