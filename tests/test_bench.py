import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsealarm import SchmittConfig, WaveformSpec, synthesize
from pulsealarm import bench
from pulsealarm.bench import bench_corpus, match_beats, place_strays


@pytest.mark.parametrize("seed", [3, 8])
def test_strays_placed_from_synthesized_truth(monkeypatch, seed):
    # Rows, and the specs of the waveforms behind them, equal those made
    # with strays placed between the beats of the synthesized base waveform,
    # as bench_corpus once did. The row totals alone barely depend on where
    # the strays land.
    base = WaveformSpec(duration_ms=10000, heart_rate_bpm=((0, 60), (4000, 110)))
    args = (base, [5, 10], [0.0, 6.0], 2, SchmittConfig(), 500, 510)

    def run():
        specs = []
        monkeypatch.setattr(
            bench, "synthesize", lambda spec: specs.append(spec) or synthesize(spec)
        )
        return bench_corpus(*args, seed=seed), specs

    rows, specs = run()
    truth_times = synthesize(base)[1].beat_times_ms
    place_strays = bench.place_strays
    monkeypatch.setattr(
        bench, "place_strays", lambda _, *rest: place_strays(truth_times, *rest)
    )
    assert run() == (rows, specs)
    assert any(row.naive_false for row in rows)


def test_match_skips_truth_beats_passed_over():
    # the detection at 2000 passes over the truth beats at 0 and 1000, which
    # no detection claims: no false beat, two missed
    assert match_beats([2000], [0, 1000, 2000], tolerance_ms=100) == (0, 2)


@pytest.mark.parametrize(
    "key,value,message",
    [
        pytest.param(key, value, message, id=f"{key}={value}")
        for key, value, message in [
            ("naive_threshold", 2000, r"naive_threshold must be in \[1, 1023\], got 2000"),
            ("naive_threshold", 0, r"naive_threshold must be in \[1, 1023\], got 0"),
            ("stray_peak", 2000, r"stray_peak must be in \[0, 1023\], got 2000"),
            ("stray_width_ms", -5, r"stray_width_ms must be positive and finite, got -5"),
            ("stray_width_ms", float("nan"), r"stray_width_ms must be positive and finite, got nan"),
            ("noise_levels", [0.0, -1], r"noise_levels must be finite and >= 0, got \[0.0, -1\]"),
            # not the rng_seed of the spec it reaches, numpy's TypeError on a
            # noisy cell, or the seed 1
            ("seed", -1, "seed must be a non-negative integer, got -1"),
            ("seed", 1.5, r"seed must be a non-negative integer, got 1\.5"),
            ("seed", True, "seed must be a non-negative integer, got True"),
        ]
    ],
)
def test_a_bad_setting_is_named_by_its_own_key(monkeypatch, key, value, message):
    # refused before any stray is placed or waveform synthesized, not under
    # the name of the SchmittConfig or WaveformSpec field the value would reach
    monkeypatch.setattr(bench, "place_strays", None)
    monkeypatch.setattr(bench, "synthesize", None)
    with pytest.raises(ValueError, match=f"^{message}$"):
        bench_corpus(WaveformSpec(duration_ms=1000), **{key: value})


def _place_strays_against_all(truth_times, count, peak, width_ms, rng, grid_ms):
    """place_strays with each draw tested against every placed stray."""
    if count == 0 or len(truth_times) < 2:
        return ()
    times = []
    for _ in range(count * 100):
        if len(times) == count:
            break
        k = rng.randrange(len(truth_times) - 1)
        ibi = truth_times[k + 1] - truth_times[k]
        t = grid_ms * round((truth_times[k] + rng.uniform(0.25 * ibi, 0.75 * ibi)) / grid_ms)
        if all(abs(t - other) >= width_ms for other in times):
            times.append(t)
    return tuple(bench.StrayPulse(t, peak, width_ms) for t in sorted(times))


@settings(max_examples=100)
@given(
    truth=st.lists(st.floats(200, 2000), min_size=0, max_size=12),
    count=st.integers(0, 80),
    width_ms=st.floats(1, 400),
    grid_ms=st.sampled_from([1.0, 4.0, 10.0]),
    seed=st.integers(0, 2**32),
)
def test_neighbour_overlap_test_places_the_same_strays(truth, count, width_ms, grid_ms, seed):
    truth_times = list(accumulate(truth, initial=0.0))
    args = (truth_times, count, 510, width_ms)
    assert place_strays(*args, random.Random(seed), grid_ms) == _place_strays_against_all(
        *args, random.Random(seed), grid_ms
    )


@pytest.mark.parametrize("count", [64, 1000, 100_000])
def test_more_strays_than_the_base_holds_refused_before_drawing(monkeypatch, count):
    # a 10 s base at 60 bpm has 9 beat intervals of 1000 ms, each of which
    # holds at most floor((500 + 1) / 80) + 1 = 7 strays: 63 in all
    monkeypatch.setattr(bench, "place_strays", None)
    with pytest.raises(ValueError, match=rf"^stray_counts: at most 63 strays of 80 ms fit .*, "
                                         rf"got \[0, {count}\]$"):
        bench_corpus(WaveformSpec(duration_ms=10000), [0, count], [0.0], 1)


def test_strays_the_draws_fall_short_of_refused():
    with pytest.raises(ValueError, match=r"^stray_counts: only 49 of 60 strays found room in 6000 draws"):
        bench_corpus(WaveformSpec(duration_ms=10000), [60], [0.0], 1)
