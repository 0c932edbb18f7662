"""Ledger accounting of the lossy channel, and the ledger check."""

import random

import pytest

from perfbench import inputs
from perfbench.workloads import ledger_check, recount
from pulsealarm import FrameDecoder, Sample, SampleOutcome, encode_frame, encode_stream
from pulsealarm.bench import match_beats
from pulsealarm.protocol import FRAME_LEN


@pytest.fixture(scope="module")
def stream():
    samples = [Sample(t, (t * 7) % 1024) for t in range(20_000)]
    return samples, encode_stream(samples)


def test_regions_tile_the_output(stream):
    _, frames = stream
    data, ledger = inputs.lossy_channel(frames, seed=5)
    offset = 0
    for region in ledger.regions:
        assert region.offset == offset
        offset += region.length
    assert offset == len(data)


def test_every_frame_accounted_once(stream):
    samples, frames = stream
    _, ledger = inputs.lossy_channel(frames, seed=5)
    seen = ledger.frames("intact") + ledger.frames("flipped") + list(ledger.dropped)
    assert sorted(seen) == list(range(len(samples)))
    # the channel's rates are large enough that every kind of damage occurs
    assert ledger.dropped and ledger.frames("flipped") and ledger.frames("garbage")


def test_region_contents(stream):
    _, frames = stream
    data, ledger = inputs.lossy_channel(frames, seed=5)
    for r in ledger.regions:
        got = data[r.offset : r.offset + r.length]
        if r.kind == "garbage":
            assert 1 <= r.length <= inputs.GARBAGE_MAX_LEN
            continue
        sent = frames[r.frame * FRAME_LEN : (r.frame + 1) * FRAME_LEN]
        differing = sum(a != b for a, b in zip(got, sent))
        assert differing == (0 if r.kind == "intact" else 1)


def test_seeded(stream):
    _, frames = stream
    assert inputs.lossy_channel(frames, 5) == inputs.lossy_channel(frames, 5)
    assert inputs.lossy_channel(frames, 5)[0] != inputs.lossy_channel(frames, 6)[0]


def _delivered(data):
    return [o for o in FrameDecoder().feed(data) if isinstance(o, SampleOutcome)]


def test_ledger_check_clean(stream):
    samples, frames = stream
    ledger = inputs.Ledger(
        tuple(inputs.Region("intact", k * FRAME_LEN, FRAME_LEN, k) for k in range(len(samples))),
        (),
    )
    tally = ledger_check(samples, ledger, _delivered(frames))
    assert tally == {"intact": len(samples), "delivered": len(samples), "missing": 0, "false_accepts": 0}


def test_ledger_check_counts_a_forged_frame(stream):
    samples, frames = stream
    head = frames[: 10 * FRAME_LEN]
    forged = encode_frame(10, Sample(999_999, 5))
    tail = frames[11 * FRAME_LEN : 12 * FRAME_LEN]
    data = head + forged + tail
    ledger = inputs.Ledger(
        tuple(inputs.Region("intact", k * FRAME_LEN, FRAME_LEN, k) for k in range(10))
        + (inputs.Region("garbage", 10 * FRAME_LEN, FRAME_LEN, -1),
           inputs.Region("intact", 11 * FRAME_LEN, FRAME_LEN, 11)),
        (10,),
    )
    tally = ledger_check(samples, ledger, _delivered(data))
    assert tally == {"intact": 11, "delivered": 11, "missing": 0, "false_accepts": 1}


def test_recount_agrees_with_match_beats():
    rng = random.Random(3)
    for _ in range(300):
        truth = sorted(rng.uniform(0, 5000) for _ in range(rng.randrange(0, 30)))
        detected = sorted(rng.randrange(0, 5000) for _ in range(rng.randrange(0, 30)))
        tolerance = rng.choice([10.0, 50.0, 100.0])
        assert recount(detected, truth, tolerance) == match_beats(detected, truth, tolerance)
