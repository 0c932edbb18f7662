"""Seeded inputs for the benchmark workloads.

Every input is a function of the workload seed alone. The program only
ever sees the generated inputs; the seed picks the noise realisation of the
wake scenario, the lossy channel's damage and the bench grid's strays.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from pulsealarm import (
    SchmittConfig,
    UserProfile,
    WaveformSpec,
    encode_stream,
    make_wake_scenario,
    read_waveform,
    synthesize,
    write_waveform,
)
from pulsealarm.protocol import FRAME_LEN, SYNC_BYTE

# The wake scenario: 30 s asleep, the alarm, 30 s of exercise, sampled at
# 1 kHz with ADC noise; three in-band readings in a row silence the alarm.
PROFILE = UserProfile(age_years=30, resting_bpm=60.0)
SLEEP_MS = 30_000
EXERCISE_MS = 30_000
SAMPLE_RATE_HZ = 1000.0
NOISE_STDDEV = 8.0
REQUIRED_STREAK = 3

# The lossy channel, per frame: dropped, or one byte flipped, and followed
# by a run of garbage in which sync bytes are common.
DROP_P = 0.005
FLIP_P = 0.005
GARBAGE_P = 0.005
GARBAGE_MAX_LEN = 32
GARBAGE_SYNC_P = 0.25

# The `pulsealarm bench` grid: stray count x noise level, 30 s at 1 kHz.
BENCH_BASE = WaveformSpec(duration_ms=30_000, sample_rate_hz=1000.0)
BENCH_STRAYS = (0, 10, 20)
BENCH_NOISE = (0.0, 4.0, 8.0)
BENCH_RUNS_PER_CELL = 1
BENCH_NAIVE_THRESHOLD = 500
BENCH_STRAY_PEAK = 510
BENCH_SCHMITT = SchmittConfig()


def wake_scenario(seed: int):
    return make_wake_scenario(
        PROFILE,
        sleep_duration_ms=SLEEP_MS,
        exercise_duration_ms=EXERCISE_MS,
        sample_rate_hz=SAMPLE_RATE_HZ,
        required_streak=REQUIRED_STREAK,
        noise_stddev=NOISE_STDDEV,
        rng_seed=seed,
    )


def run_config(scenario, csv_path: Path) -> dict:
    """The `pulsealarm run` config that replays csv_path as the scenario."""
    return {
        "profile": {
            "age_years": PROFILE.age_years,
            "resting_bpm": PROFILE.resting_bpm,
        },
        "input_path": str(csv_path),
        "alarm_time_ms": scenario.alarm_time_ms,
        "engine": {"required_streak": scenario.engine_config.required_streak},
        "expected_final_phase": scenario.expected_final_phase.value,
    }


@dataclass(frozen=True)
class CsvInput:
    scenario: object
    csv_path: Path
    config_path: Path
    sample_count: int


def build_csv(seed: int, workdir: Path, synth=synthesize) -> CsvInput:
    """Synthesize the wake scenario and write it as `pulsealarm run` input."""
    scenario = wake_scenario(seed)
    samples, _ = synth(scenario.spec)
    csv_path = workdir / "wake.csv"
    write_waveform(samples, csv_path)
    config_path = workdir / "run.json"
    config_path.write_text(json.dumps(run_config(scenario, csv_path)))
    return CsvInput(scenario, csv_path, config_path, len(samples))


@dataclass(frozen=True)
class Region:
    """One stretch of the channel's output: an intact or flipped frame
    (frame = its index in the sent stream) or garbage (frame = -1)."""

    kind: str
    offset: int
    length: int
    frame: int


@dataclass(frozen=True)
class Ledger:
    regions: tuple[Region, ...]
    dropped: tuple[int, ...]

    def frames(self, kind: str) -> list[int]:
        return [r.frame for r in self.regions if r.kind == kind]


def lossy_channel(frames: bytes, seed: int) -> tuple[bytes, Ledger]:
    """Damage a framed stream: drop frames, flip one byte of others, and
    insert garbage runs after some. Returns the bytes and their ledger."""
    rng = random.Random(seed)
    out = bytearray()
    regions: list[Region] = []
    dropped: list[int] = []
    for k in range(len(frames) // FRAME_LEN):
        frame = frames[k * FRAME_LEN : (k + 1) * FRAME_LEN]
        roll = rng.random()
        if roll < DROP_P:
            dropped.append(k)
        else:
            kind = "intact"
            if roll < DROP_P + FLIP_P:
                kind = "flipped"
                frame = bytearray(frame)
                frame[rng.randrange(FRAME_LEN)] ^= rng.randrange(1, 256)
            regions.append(Region(kind, len(out), FRAME_LEN, k))
            out += frame
        if rng.random() < GARBAGE_P:
            n = rng.randint(1, GARBAGE_MAX_LEN)
            garbage = bytes(
                SYNC_BYTE if rng.random() < GARBAGE_SYNC_P else rng.randrange(256)
                for _ in range(n)
            )
            regions.append(Region("garbage", len(out), n, -1))
            out += garbage
    return bytes(out), Ledger(tuple(regions), tuple(dropped))


@dataclass(frozen=True)
class WireInput:
    csv: CsvInput
    samples: list
    data: bytes
    ledger: Ledger


def build_wire(
    seed: int,
    workdir: Path,
    lossy: bool,
    synth=synthesize,
    read=read_waveform,
    encode=encode_stream,
) -> WireInput:
    """The wake scenario as `pulsealarm send` frames it: synthesize, write
    the CSV, read it back and encode it, then pass it through the channel."""
    csv = build_csv(seed, workdir, synth)
    samples = read(csv.csv_path)
    data = encode(samples)
    if lossy:
        data, ledger = lossy_channel(data, seed)
    else:
        intact = (Region("intact", k * FRAME_LEN, FRAME_LEN, k) for k in range(len(samples)))
        ledger = Ledger(tuple(intact), ())
    return WireInput(csv, samples, data, ledger)
