import pytest

from pulsealarm import SchmittConfig, WaveformSpec, synthesize
from pulsealarm import bench
from pulsealarm.bench import bench_corpus, match_beats


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
        ]
    ],
)
def test_a_bad_setting_is_named_by_its_own_key(monkeypatch, key, value, message):
    # refused before anything is synthesized, not under the name of the
    # SchmittConfig or WaveformSpec field the value would reach
    monkeypatch.setattr(bench, "synthesize", None)
    with pytest.raises(ValueError, match=f"^{message}$"):
        bench_corpus(WaveformSpec(duration_ms=1000), **{key: value})
