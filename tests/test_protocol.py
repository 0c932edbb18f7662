import random
from dataclasses import astuple
from functools import reduce
from operator import xor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsealarm import (
    CorruptFrame,
    FrameDecoder,
    Gap,
    PulseAlarmError,
    Resync,
    Sample,
    SampleOutcome,
    StreamOrderError,
    WaveformSpec,
    encode_frame,
    encode_stream,
    replay_file,
    synthesize,
    write_waveform,
)
from pulsealarm.detector import ADC_MAX
from pulsealarm.protocol import FRAME_LEN

from oracle import reference_frame_scan


class TestEncodeFrame:
    def test_all_zero_frame(self):
        frame = encode_frame(0, Sample(0, 0))
        assert frame == bytes.fromhex("aa0000000000000000")

    def test_hand_checked_checksum(self):
        # payload 01 00 00 00 01 00 01, XOR = 01
        frame = encode_frame(1, Sample(1, 1))
        assert frame == bytes.fromhex("aa0100000001000101")

    def test_value_out_of_range(self):
        # 1024 exceeds the ADC bound; the sample type itself refuses it.
        with pytest.raises(ValueError):
            encode_frame(0, Sample(0, 1024))

    def test_seq_out_of_range(self):
        with pytest.raises(ValueError):
            encode_frame(256, Sample(0, 0))

    def test_time_beyond_frame_field(self):
        with pytest.raises(ValueError, match="t_ms must fit 4 bytes"):
            encode_frame(0, Sample(2**32, 0))

    def test_frame_length(self):
        assert len(encode_frame(7, Sample(123456, 1023))) == 9


class TestFeed:
    def frames(self, n, start_t=0):
        return [Sample(start_t + 10 * i, 100 + i) for i in range(n)]

    def test_three_valid_frames(self):
        data = encode_stream(self.frames(3))
        outcomes = FrameDecoder().feed(data)
        assert [o for o in outcomes if isinstance(o, SampleOutcome)] == [
            SampleOutcome(i, s) for i, s in enumerate(self.frames(3))
        ]
        assert not any(isinstance(o, (Gap, CorruptFrame, Resync)) for o in outcomes)

    def test_corrupt_middle_frame(self):
        samples = self.frames(3)
        raw = bytearray(encode_stream(samples))
        raw[17] ^= 0xFF  # checksum byte of the middle frame
        outcomes = FrameDecoder().feed(bytes(raw))
        kinds = [type(o) for o in outcomes]
        assert kinds == [SampleOutcome, CorruptFrame, Resync, SampleOutcome, Gap]
        assert outcomes[1] == CorruptFrame(9)
        assert outcomes[2] == Resync(8)
        assert outcomes[3].seq == 2
        assert outcomes[4] == Gap(1, 2)

    def test_garbage_without_sync(self):
        garbage = bytes(b for b in range(256) if b != 0xAA) * 4
        outcomes = FrameDecoder().feed(garbage)
        assert outcomes == [Resync(len(garbage))]

    def test_partial_frames_buffer_across_calls(self):
        data = encode_stream(self.frames(2))
        decoder = FrameDecoder()
        outcomes = []
        for i in range(len(data)):
            outcomes.extend(decoder.feed(data[i : i + 1]))
        assert [o.seq for o in outcomes if isinstance(o, SampleOutcome)] == [0, 1]

    def test_checksum_valid_but_value_too_big(self):
        # Sample refuses value 1024, so the frame is exactly one corrupt frame
        # however valid its checksum, and the frames around it still decode
        samples = self.frames(3)
        raw = bytearray(encode_stream(samples))
        raw[15:17] = (ADC_MAX + 1).to_bytes(2, "big")  # the middle frame's value
        raw[17] = reduce(xor, raw[10:17])  # its checksum, still valid
        outcomes = FrameDecoder().feed(bytes(raw))
        assert outcomes == [
            SampleOutcome(0, samples[0]), CorruptFrame(9), Resync(8), SampleOutcome(2, samples[2]),
            Gap(1, 2),
        ]

    def test_seq_wraps_mod_256(self):
        samples = [Sample(10 * i, 5) for i in range(300)]
        outcomes = FrameDecoder().feed(encode_stream(samples))
        assert not any(isinstance(o, Gap) for o in outcomes)

    def test_recovery_with_garbage_between_frames(self):
        rng = random.Random(1)
        samples = self.frames(20)
        chunks = []
        for i, s in enumerate(samples):
            chunks.append(encode_frame(i, s))
            junk = bytes(rng.choice([b for b in range(256) if b != 0xAA])
                         for _ in range(rng.randrange(0, 5)))
            chunks.append(junk)
        outcomes = FrameDecoder().feed(b"".join(chunks))
        got = [o.sample for o in outcomes if isinstance(o, SampleOutcome)]
        assert got == samples


@settings(max_examples=200)
@given(data=st.binary(max_size=400))
def test_feed_total_over_arbitrary_bytes(data):
    decoder = FrameDecoder()
    decoder.feed(data)
    decoder.feed(data[::-1])


@settings(max_examples=50)
@given(
    start_seq=st.integers(min_value=0, max_value=255),
    specs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=0, max_value=1023),
        ),
        max_size=30,
    ),
)
def test_round_trip_identity(start_seq, specs):
    samples = [Sample(t, v) for t, v in specs]
    outcomes = FrameDecoder().feed(encode_stream(samples, start_seq))
    assert [o.sample for o in outcomes if isinstance(o, SampleOutcome)] == samples
    assert not any(isinstance(o, (CorruptFrame, Resync)) for o in outcomes)


@settings(max_examples=200)
@given(
    seq=st.integers(0, 255),
    t_ms=st.integers(0, 2**32 - 1),
    value=st.integers(0, ADC_MAX),
)
@example(seq=0xAA, t_ms=0xAAAAAAAA, value=ADC_MAX)
@example(seq=255, t_ms=2**32 - 1, value=0)
def test_checksum_is_xor_of_payload_and_catches_any_bit_flip(seq, t_ms, value):
    frame = encode_frame(seq, Sample(t_ms, value))
    xor = 0
    for b in frame[1:8]:
        xor ^= b
    assert frame[8] == xor
    for bit in range(8, 8 * FRAME_LEN):
        damaged = bytearray(frame)
        damaged[bit // 8] ^= 1 << (bit % 8)
        outcomes = FrameDecoder().feed(bytes(damaged))
        assert not any(isinstance(o, SampleOutcome) for o in outcomes)


@st.composite
def _damaged_stream(draw):
    """Frames with random damage: flipped bytes, junk (rich in sync bytes),
    cut, repeated and skipped frames, and checksum-valid frames whose value
    exceeds the ADC bound."""
    byte = st.sampled_from([0xAA, 0x00, 0xFF]) | st.integers(0, 255)
    parts = []
    seq = draw(st.integers(0, 255))
    for _ in range(draw(st.integers(0, 40))):
        t_ms = draw(st.sampled_from([0xAAAAAAAA, 0xAA00AA]) | st.integers(0, 2**32 - 1))
        frame = bytearray(encode_frame(seq, Sample(t_ms, draw(st.integers(0, ADC_MAX)))))
        kind = draw(st.sampled_from(["frame", "frame", "flip", "junk", "cut", "repeat", "skip",
                                     "too_big"]))
        if kind == "flip":
            frame[draw(st.integers(0, len(frame) - 1))] ^= draw(st.integers(1, 255))
        elif kind == "junk":
            parts.append(bytes(draw(st.lists(byte, max_size=12))))
        elif kind == "cut":
            frame = frame[: draw(st.integers(1, len(frame) - 1))]
        elif kind == "repeat":
            parts.append(bytes(frame))
        elif kind == "too_big":
            frame[6] |= 0x04
            frame[8] = frame[1] ^ frame[2] ^ frame[3] ^ frame[4] ^ frame[5] ^ frame[6] ^ frame[7]
        parts.append(bytes(frame))
        seq = (seq + (2 if kind == "skip" else 1)) % 256
    return b"".join(parts)


@settings(max_examples=300, deadline=None)
@given(data=_damaged_stream(), size=st.sampled_from([1, 7, 4096]))
def test_feed_matches_reference_scan(data, size):
    chunks = [data[i : i + size] for i in range(0, len(data), size)]
    decoder = FrameDecoder()
    got = [(type(o).__name__, *astuple(o)) for chunk in chunks for o in decoder.feed(chunk)]
    assert got == reference_frame_scan(chunks)


class FakeClock:
    """Stands in for the time module inside pulsealarm.protocol: monotonic()
    reads `now`, and sleep(s) logs ("sleep", s) in `events` and advances
    `now` by s plus `overshoot`, as a late wake-up would."""

    def __init__(self, monkeypatch, overshoot=0.0):
        self.now = 0.0
        self.overshoot = overshoot
        self.events = []
        monkeypatch.setattr("pulsealarm.protocol.time", self)

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.events.append(("sleep", seconds))
        self.now += seconds + self.overshoot


class TestReplayFile:
    def test_round_trip_through_file(self, tmp_path):
        samples, _ = synthesize(WaveformSpec(duration_ms=10000))
        path = tmp_path / "wave.csv"
        write_waveform(samples, path)
        chunks = []
        sent = replay_file(path, lambda: chunks.append)
        assert sent == 1000
        data = b"".join(chunks)
        assert len(data) == 9 * 1000
        outcomes = FrameDecoder().feed(data)
        got = [o.sample for o in outcomes if isinstance(o, SampleOutcome)]
        assert got == samples
        assert not any(isinstance(o, Gap) for o in outcomes)

    def test_paced_at_recorded_intervals(self, tmp_path, monkeypatch):
        path = tmp_path / "wave.csv"
        path.write_text("t_ms,value\n0,300\n10,300\n30,300\n")
        clock = FakeClock(monkeypatch)
        assert replay_file(path, lambda: lambda frame: clock.events.append(("frame", frame[1])),
                           speed=2.0) == 3
        # twice real time: half of each recorded interval, none before frame 0
        assert clock.events == [
            ("frame", 0), ("sleep", pytest.approx(0.005)),
            ("frame", 1), ("sleep", pytest.approx(0.010)), ("frame", 2),
        ]

    def test_late_wake_ups_do_not_add_up(self, tmp_path, monkeypatch):
        path = tmp_path / "wave.csv"
        path.write_text("t_ms,value\n" + "".join(f"{10 * i},300\n" for i in range(101)))
        clock = FakeClock(monkeypatch, overshoot=0.001)
        sent_at = []
        replay_file(path, lambda: lambda frame: sent_at.append(clock.now), speed=2.0)
        # a 1000 ms span at twice real time: the last frame leaves at 0.5 s
        # plus one sleep's overshoot, not the overshoot of all 100 sleeps
        assert sent_at[0] == 0.0
        assert sent_at[-1] == pytest.approx(0.5 + 0.001)

    def test_non_monotone_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,value\n0,10\n10,10\n10,10\n")
        with pytest.raises(StreamOrderError):
            replay_file(path, lambda: pytest.fail("connected"))

    @pytest.mark.parametrize(
        "last_row,error",
        [("100,10", StreamOrderError), (f"{2**32},10", PulseAlarmError)],
        ids=["out-of-order", "beyond-frame-field"],
    )
    def test_bad_last_row_refused_before_any_frame(self, tmp_path, last_row, error):
        path = tmp_path / "bad.csv"
        rows = "".join(f"{10 * i},300\n" for i in range(500))
        path.write_text(f"t_ms,value\n{rows}{last_row}\n")
        with pytest.raises(error, match="sample 500"):
            replay_file(path, lambda: pytest.fail("connected"))
