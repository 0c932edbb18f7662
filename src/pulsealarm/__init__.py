"""Streaming pulse detection and a heart-rate-gated alarm interrupt.

A software Schmitt trigger turns a noisy sampled pulse waveform into beat
events, a median estimator with a physiological plausibility filter turns
those into bpm readings, and an alarm state machine rings until a run of
valid readings lands inside the satisfaction band. Waveform synthesis, a
framed ingest protocol, and a CLI round out the toolkit.
"""

from .detector import (
    ADC_MAX,
    BeatDetector,
    BeatEvent,
    BpmEstimate,
    BpmEstimator,
    BpmStatus,
    Sample,
    SampleColumns,
    SchmittConfig,
    bpm_from_ibi,
    detect_beats,
    estimate_bpm,
    naive_detect_beats,
    plausibility_filter,
)
from .engine import (
    AlarmEngineState,
    ClockTick,
    EngineConfig,
    LogTransition,
    Phase,
    next_tick_ms,
    run_engine,
    step,
)
from .errors import (
    ConfigError,
    PulseAlarmError,
    StreamOrderError,
    WaveformParseError,
    WaveformSpecError,
)
from .physiology import (
    BandMode,
    BpmBand,
    UserProfile,
    max_heart_rate,
    moderate_exercise_band,
    satisfaction_band,
    sleep_rate_range,
)
from .pipeline import Pipeline, RunReport, StreamSession, run_pipeline
from .protocol import (
    CorruptFrame,
    FrameDecoder,
    Gap,
    Resync,
    SampleOutcome,
    encode_frame,
    encode_stream,
    replay_file,
)
from .synth import (
    GroundTruth,
    StrayPulse,
    WakeScenario,
    WaveformSpec,
    make_wake_scenario,
    read_waveform,
    synthesize,
    write_waveform,
)

__version__ = "0.1.0"
