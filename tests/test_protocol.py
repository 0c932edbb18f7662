import random
import re
import threading
from collections import Counter
from dataclasses import FrozenInstanceError, astuple
from functools import reduce
from itertools import product
from operator import xor

import numpy as np
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
    SampleColumns,
    SampleOutcome,
    WaveformParseError,
    WaveformSpec,
    encode_frame,
    encode_stream,
    replay_file,
    synthesize,
    write_waveform,
)
from pulsealarm.detector import ADC_MAX
from pulsealarm import protocol
from pulsealarm.protocol import FRAME_LEN, SYNC_BYTE

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

    @pytest.mark.parametrize(
        "seq",
        [3.5, 3.0, True, False, np.float64(3), np.bool_(True), "3"],
        ids=["float", "whole-float", "True", "False", "np.float64", "np.bool_", "str"],
    )
    def test_seq_not_an_integer(self, seq):
        # refused as Sample refuses a float or a bool field
        with pytest.raises(ValueError, match=f"^seq must be an integer, got {re.escape(repr(seq))}$"):
            encode_frame(seq, Sample(0, 0))
        with pytest.raises(ValueError, match="^seq must be an integer"):
            encode_stream([Sample(0, 0)], seq)

    @pytest.mark.parametrize("seq", [np.uint8(3), np.int64(3)], ids=["np.uint8", "np.int64"])
    def test_numpy_integer_seq(self, seq):
        assert encode_frame(seq, Sample(1, 1)) == bytes.fromhex("aa0300000001000103")
        assert encode_stream([Sample(1, 1)], seq) == encode_frame(3, Sample(1, 1))


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
        # each marker leads what comes after its break: the Resync the third
        # frame's sync byte, which ends the hunt, and the Gap that frame
        assert kinds == [SampleOutcome, CorruptFrame, Resync, Gap, SampleOutcome]
        assert outcomes[1] == CorruptFrame()
        assert outcomes[2] == Resync(8)
        assert outcomes[3] == Gap()
        assert outcomes[4].seq == 2

    def test_garbage_without_sync(self):
        # a hunt that no sync byte has ended regained no sync: no Resync yet;
        # the sync byte of the next feed's frame ends it, with every byte
        garbage = bytes(b for b in range(256) if b != 0xAA) * 4
        decoder = FrameDecoder()
        assert decoder.feed(garbage) == []
        assert decoder.resyncs == 0
        assert decoder.feed(encode_frame(0, Sample(5, 6))) == [Resync(len(garbage)),
                                                               SampleOutcome(0, Sample(5, 6))]
        assert decoder.resyncs == 1

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
            SampleOutcome(0, samples[0]), CorruptFrame(), Resync(8), Gap(),
            SampleOutcome(2, samples[2]),
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


def _assert_feed_matches_reference(chunks):
    """A fresh decoder fed chunks in order gives reference_frame_scan's
    outcomes, and counts its gaps, corrupt frames and resyncs; returns
    those three counts."""
    decoder = FrameDecoder()
    got = [(type(o).__name__, *astuple(o)) for chunk in chunks for o in decoder.feed(chunk)]
    expected = reference_frame_scan(chunks)
    assert got == expected
    kinds = Counter(outcome[0] for outcome in expected)
    counts = (decoder.gaps, decoder.corrupt_frames, decoder.resyncs)
    assert counts == (kinds["Gap"], kinds["CorruptFrame"], kinds["Resync"])
    return counts


def _frame(seq):
    """A valid frame at seq, with a sync byte in its payload (its value)."""
    return encode_frame(seq, Sample(10 * seq, SYNC_BYTE))


def _value_1024(seq):
    frame = bytearray(_frame(seq))
    frame[6:8] = (ADC_MAX + 1).to_bytes(2, "big")
    frame[8] = reduce(xor, frame[1:8])  # a valid check byte
    return bytes(frame)


# the decoder's small-scope tokens: each takes the next frame's seq and
# gives its bytes and the seq after it; a partial frame comes only last
_TOKENS = {
    "next frame": lambda seq: (_frame(seq), seq + 1),
    "seq jump": lambda seq: (_frame(seq + 2), seq + 3),
    "bad check byte": lambda seq: (_frame(seq)[:8] + bytes([_frame(seq)[8] ^ 1]), seq + 1),
    "value 1024": lambda seq: (_value_1024(seq), seq + 1),
    "lone sync byte": lambda seq: (bytes([SYNC_BYTE]), seq),
    "non-sync byte": lambda seq: (b"\0", seq),
    "partial frame": lambda seq: (_frame(seq)[:5], seq),
}


def decoder_small_scope(max_tokens):
    """Every stream of up to max_tokens of _TOKENS, fed whole and split into
    two feeds at every byte, decodes as reference_frame_scan does, and each
    split counts the gaps, corrupt frames and resyncs of the whole feed: an
    exhaustive search finds every defect of its size, where random draws
    only sample (Jackson, "Software Abstractions", MIT Press 2006).
    Returns the number of streams checked."""
    streams = 0
    for size in range(max_tokens + 1):
        for names in product(_TOKENS, repeat=size):
            if "partial frame" in names[:-1]:
                continue
            parts, seq = [], 0
            for name in names:
                part, seq = _TOKENS[name](seq)
                parts.append(part)
            data = b"".join(parts)
            whole = _assert_feed_matches_reference([data])
            for cut in range(len(data) + 1):
                assert _assert_feed_matches_reference([data[:cut], data[cut:]]) == whole, (names, cut)
            streams += 1
    return streams


def test_every_stream_of_three_tokens_decodes_alike_at_every_split():
    """The small-scope decoder check at 3 tokens: 1 + 7 + 6 * 7 + 6**2 * 7
    streams. CI runs it at 4 tokens, in tests/larger_scope.py."""
    assert decoder_small_scope(3) == 302


@settings(max_examples=200)
@given(data=st.binary(max_size=400))
@example(data=bytes(20) + b"\xaa" + bytes(3))  # a sync byte within a buffer's last 8 bytes
@example(data=b"\xaa" * 17)
def test_feed_total_over_arbitrary_bytes(data):
    """Arbitrary bytes, their sync bytes in any place, the last 8 bytes of a
    buffer included, decode as the reference does, a byte at a time and as
    one chunk followed by its reverse."""
    _assert_feed_matches_reference([data[i : i + 1] for i in range(len(data))])
    _assert_feed_matches_reference([data, data[::-1]])


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



@settings(max_examples=50)
@given(
    start_seq=st.integers(min_value=0, max_value=255),
    specs=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, ADC_MAX)), max_size=30
    ),
    cuts=st.lists(st.integers(0, 9 * 300), max_size=6),
)
@example(start_seq=250, specs=[(10 * i, i) for i in range(12)], cuts=[])  # seq wraps past 255
@example(start_seq=0, specs=[(i, i % (ADC_MAX + 1)) for i in range(300)], cuts=[1, 9, 1000])
def test_encode_stream_decodes_to_one_sample_per_row(start_seq, specs, cuts):
    """encode_stream, of a list or of columns alike, cut at any offsets,
    decodes in reference_frame_scan to one SampleOutcome per sample, seq
    counting up from start_seq modulo 256, and to nothing else."""
    samples = [Sample(t, v) for t, v in specs]
    data = encode_stream(samples, start_seq)
    assert encode_stream(SampleColumns.of(samples), start_seq) == data
    offsets = [0, *sorted({c % (len(data) + 1) for c in cuts}), len(data)]
    chunks = [data[a:b] for a, b in zip(offsets, offsets[1:])]
    assert reference_frame_scan(chunks) == [
        ("SampleOutcome", (start_seq + i) % 256, (t, v)) for i, (t, v) in enumerate(specs)
    ]


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


_BYTE = st.sampled_from([0xAA, 0x00, 0xFF]) | st.integers(0, 255)
_DAMAGE = ["flip", "junk", "cut", "repeat", "skip", "too_big"]


def _part(draw, seq, kinds):
    """A frame at seq, damaged by a kind drawn from kinds ("frame" leaves it
    whole): the bytes it adds to a stream, and the next frame's seq."""
    t_ms = draw(st.sampled_from([0xAAAAAAAA, 0xAA00AA]) | st.integers(0, 2**32 - 1))
    frame = bytearray(encode_frame(seq, Sample(t_ms, draw(st.integers(0, ADC_MAX)))))
    kind = draw(st.sampled_from(kinds))
    parts = []
    if kind == "flip":
        frame[draw(st.integers(0, len(frame) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "junk":
        parts.append(bytes(draw(st.lists(_BYTE, max_size=12))))
    elif kind == "cut":
        frame = frame[: draw(st.integers(1, len(frame) - 1))]
    elif kind == "repeat":
        parts.append(bytes(frame))
    elif kind == "too_big":
        frame[6] |= 0x04
        frame[8] = frame[1] ^ frame[2] ^ frame[3] ^ frame[4] ^ frame[5] ^ frame[6] ^ frame[7]
    parts.append(bytes(frame))
    return b"".join(parts), (seq + (2 if kind == "skip" else 1)) % 256


@st.composite
def _damaged_stream(draw):
    """Frames with random damage: flipped bytes, junk (rich in sync bytes),
    cut, repeated and skipped frames, and checksum-valid frames whose value
    exceeds the ADC bound."""
    parts = []
    seq = draw(st.integers(0, 255))
    for _ in range(draw(st.integers(0, 40))):
        part, seq = _part(draw, seq, ["frame", "frame", *_DAMAGE])
        parts.append(part)
    return b"".join(parts)


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

    def test_unpaced_sends_every_frame_in_order_without_sleeping(self, tmp_path, monkeypatch):
        """Unpaced, every frame is due at once, so the stream is one call."""
        path = tmp_path / "wave.csv"
        path.write_text("t_ms,value\n0,300\n10,300\n30,300\n")
        clock = FakeClock(monkeypatch)
        assert replay_file(path, lambda: lambda data: clock.events.append(("send", data)),
                           speed=0) == 3
        samples = [Sample(0, 300), Sample(10, 300), Sample(30, 300)]
        assert clock.events == [("send", b"".join(encode_frame(i, s) for i, s in enumerate(samples)))]

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

    def test_speed_bounded_by_the_longest_sleep(self, tmp_path, monkeypatch):
        """A speed that puts the last frame just inside TIMEOUT_MAX (the fake
        clock reads 0) sleeps that long; just outside, no sink is opened."""
        path = tmp_path / "wave.csv"
        path.write_text("t_ms,value\n0,300\n10,300\n")
        clock = FakeClock(monkeypatch)
        at_limit = 0.010 / threading.TIMEOUT_MAX
        assert replay_file(path, lambda: lambda frame: None, speed=at_limit * (1 + 1e-9)) == 2
        [(_, slept)] = clock.events
        assert slept <= threading.TIMEOUT_MAX
        assert slept == pytest.approx(threading.TIMEOUT_MAX)
        with pytest.raises(PulseAlarmError, match="past the longest sleep of"):
            replay_file(path, lambda: pytest.fail("connected"), speed=at_limit * (1 - 1e-9))

    def test_non_monotone_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,value\n0,10\n10,10\n10,10\n")
        with pytest.raises(WaveformParseError):
            replay_file(path, lambda: pytest.fail("connected"))

    @pytest.mark.parametrize(
        "last_row,error",
        [("100,10", WaveformParseError), (f"{2**32},10", PulseAlarmError)],
        ids=["out-of-order", "beyond-frame-field"],
    )
    def test_bad_last_row_refused_before_any_frame(self, tmp_path, last_row, error):
        path = tmp_path / "bad.csv"
        rows = "".join(f"{10 * i},300\n" for i in range(500))
        path.write_text(f"t_ms,value\n{rows}{last_row}\n")
        with pytest.raises(error, match="^line 502: "):
            replay_file(path, lambda: pytest.fail("connected"))


@st.composite
def _clean_runs(draw):
    """Runs of 0-300 clean frames, each followed by at most one damaged
    frame of _damaged_stream's kinds. A run may jump its seq at any frame,
    its first included, and it wraps from 255 to 0 when it passes 255."""
    rng = draw(st.randoms(use_true_random=False))
    parts = []
    seq = draw(st.sampled_from([200, 255]) | st.integers(0, 255))
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 300))
        jump_at = draw(st.none() | st.integers(0, max(n - 1, 0)))
        for i in range(n):
            if i == jump_at:
                seq = (seq + draw(st.integers(2, 256))) % 256
            parts.append(encode_frame(seq, Sample(rng.randrange(2**32), rng.randrange(ADC_MAX + 1))))
            seq = (seq + 1) % 256
        if draw(st.booleans()):
            part, seq = _part(draw, seq, _DAMAGE)
            parts.append(part)
    return b"".join(parts)


_RUN = [Sample(10 * i, i % (ADC_MAX + 1)) for i in range(400)]


@settings(max_examples=300, deadline=None)
@given(data=_damaged_stream(), size=st.sampled_from([1, 7, 9, 18, 144, 4096]))
# a run that jumps its seq at the first frame of a later feed
@example(data=encode_stream(_RUN[:32]) + encode_stream(_RUN[32:80], start_seq=40), size=144)
# a jump inside a run, and a run that wraps from 255 to 0
@example(data=encode_stream(_RUN[:40]) + encode_stream(_RUN[40:80], start_seq=50), size=4096)
@example(data=encode_stream(_RUN[:80], start_seq=200), size=4096)
def test_feed_matches_reference_scan(data, size):
    """Damaged streams decode as the reference does at every chunking: a
    frame or less per feed, a few frames and many; so do runs that jump
    their seq at a feed's first frame or inside a feed, or wrap from 255
    to 0."""
    _assert_feed_matches_reference([data[i : i + size] for i in range(0, len(data), size)])


@pytest.mark.parametrize(
    "sizes", [[1, 9, 10, 17, 18], [144, 287, 288, 289, 4096, 10**6]], ids=["bulk-min", "all-bulk"]
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bulk_pass_matches_reference_scan(sizes, data):
    """Long clean runs, each walked in one step as far as the feed holds
    them, decode as the reference does: at bulk-min the feeds cut every
    run to two frames or fewer, at all-bulk they hold 16 frames or more,
    up to the whole stream at once."""
    stream = data.draw(_clean_runs(), "stream")
    size = data.draw(st.sampled_from(sizes), "size")
    _assert_feed_matches_reference([stream[i : i + size] for i in range(0, len(stream), size)])


class _CountingIndex:
    """Stands in for numpy inside pulsealarm.protocol and counts the calls of
    np.bitwise_xor.accumulate, the prefix XOR that stage 1 of feed takes
    once over its buffer."""

    def __init__(self, monkeypatch):
        self.passes = 0
        self.bitwise_xor = self
        monkeypatch.setattr(protocol, "np", self)

    def __getattr__(self, name):
        return getattr(np, name)

    def accumulate(self, array):
        self.passes += 1
        return np.bitwise_xor.accumulate(array)


def test_dense_damage_is_not_charged_a_bulk_pass_per_frame(monkeypatch):
    """With every other frame corrupt, no run of valid frames lasts past a
    frame; feed still indexes its buffer once per call, not once per frame,
    and gives the reference's outcomes."""
    frames = [bytearray(encode_frame(i % 256, Sample(10 * i, 5))) for i in range(1000)]
    for frame in frames[1::2]:
        frame[8] ^= 0x01
    data = b"".join(frames)
    chunks = [data[i : i + 4096] for i in range(0, len(data), 4096)]
    index = _CountingIndex(monkeypatch)
    _assert_feed_matches_reference(chunks)
    assert index.passes == len(chunks)


def test_a_seq_jump_starts_a_bulk_pass(monkeypatch):
    """A run stops before a frame whose seq jumps: its Gap comes first, and
    that frame starts the next run, which takes the rest of the feed."""
    runs = []
    build = protocol._build
    monkeypatch.setattr(protocol, "_build",
                        lambda cls, *cols: (cls is Sample and runs.append(len(cols[0]))) or build(cls, *cols))
    data = encode_stream(_RUN[:200]) + encode_stream(_RUN[200:], start_seq=50)
    decoder = FrameDecoder()
    got = [(type(o).__name__, *astuple(o)) for o in decoder.feed(data)]
    assert got == reference_frame_scan([data])
    assert [i for i, o in enumerate(got) if o[0] == "Gap"] == [200]
    assert runs == [200, 200]


@pytest.mark.parametrize("size", [FRAME_LEN, 4096])
def test_feed_outcomes_are_exact_objects(size):
    """feed builds its SampleOutcomes and their Samples without running
    their constructors; each is still exactly what the constructors build:
    of its own type, with int fields, equal, hashed alike and frozen."""
    rng = random.Random(22)
    samples = [Sample(rng.randrange(2**32), rng.randrange(ADC_MAX + 1)) for _ in range(2000)]
    data = encode_stream(samples, start_seq=100)
    decoder = FrameDecoder()
    got = [o for i in range(0, len(data), size) for o in decoder.feed(data[i : i + size])]
    assert len(got) == len(samples)
    for i, (outcome, sample) in enumerate(zip(got, samples)):
        expected = SampleOutcome((100 + i) % 256, Sample(sample.t_ms, sample.value))
        assert type(outcome) is SampleOutcome and type(outcome.sample) is Sample
        assert type(outcome.seq) is type(outcome.sample.t_ms) is type(outcome.sample.value) is int
        assert outcome == expected and hash(outcome) == hash(expected)
        for obj, name in [(outcome, "seq"), (outcome, "sample"), (outcome.sample, "t_ms"),
                          (outcome.sample, "value")]:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 0)


@pytest.mark.parametrize("start_seq", [-1, 256, 300])
@pytest.mark.parametrize("samples", [[], [Sample(0, 0), Sample(10, 5)]], ids=["empty", "two"])
def test_encode_stream_refuses_start_seq_outside_one_byte(start_seq, samples):
    with pytest.raises(ValueError, match=f"^seq must fit one byte, got {start_seq}$"):
        encode_stream(samples, start_seq)


def test_encode_stream_refuses_the_first_time_beyond_the_frame_field():
    samples = [Sample(0, 0), Sample(2**32, 0), Sample(2**33, 0)]
    with pytest.raises(ValueError, match=rf"^t_ms must fit 4 bytes \(below 2\*\*32\), got {2**32}$"):
        encode_stream(samples)
