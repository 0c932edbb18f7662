"""Alarm lifecycle state machine.

The engine arms on a scheduled time, rings indefinitely, and silences the
buzzer only after a configurable run of consecutive valid heart-rate
readings inside the satisfaction band: ring-until-satisfied. RINGING is the
latch the paper builds from a bistable circuit; only that in-band streak or
a Disarm leaves it. There is deliberately no snooze.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

from .detector import (
    PLAUSIBLE_MAX_BPM,
    PLAUSIBLE_MIN_BPM,
    BpmEstimate,
    BpmStatus,
)
from .errors import StateConflictError, StreamOrderError
from .physiology import FIXED_SATISFACTION_BAND, BpmBand


class Phase(enum.Enum):
    IDLE = "idle"
    ARMED = "armed"
    RINGING = "ringing"
    STOPPED = "stopped"


@dataclass(frozen=True)
class EngineConfig:
    satisfaction_band: BpmBand = FIXED_SATISFACTION_BAND
    required_streak: int = 3

    def __post_init__(self):
        band = self.satisfaction_band
        if band.low < PLAUSIBLE_MIN_BPM or band.high > PLAUSIBLE_MAX_BPM:
            raise ValueError(
                f"satisfaction_band {band} must lie within "
                f"[{PLAUSIBLE_MIN_BPM}, {PLAUSIBLE_MAX_BPM}]"
            )
        if not self.required_streak >= 1:  # rejects NaN too
            raise ValueError(
                f"required_streak must be >= 1, got {self.required_streak}"
            )


@dataclass(frozen=True)
class AlarmEngineState:
    config: EngineConfig
    phase: Phase = Phase.IDLE
    alarm_time_ms: Optional[int] = None
    in_band_streak: int = 0
    last_event_t_ms: Optional[int] = None


# Events, delivered in non-decreasing time order.

@dataclass(frozen=True)
class ClockTick:
    t_ms: int


@dataclass(frozen=True)
class BpmReading:
    estimate: BpmEstimate

    @property
    def t_ms(self) -> int:
        return self.estimate.t_ms


@dataclass(frozen=True)
class Disarm:
    t_ms: int


EngineEvent = Union[ClockTick, BpmReading, Disarm]


# Actions emitted by step(); BuzzerOn exactly on entry to RINGING,
# BuzzerOff exactly on exit.

@dataclass(frozen=True)
class BuzzerOn:
    t_ms: int


@dataclass(frozen=True)
class BuzzerOff:
    t_ms: int


@dataclass(frozen=True)
class LogTransition:
    t_ms: int
    from_phase: Phase
    to_phase: Phase
    trigger: str

    def to_record(self) -> dict:
        return {
            "kind": "transition",
            "t_ms": self.t_ms,
            "from": self.from_phase.value,
            "to": self.to_phase.value,
            "trigger": self.trigger,
        }


EngineAction = Union[BuzzerOn, BuzzerOff, LogTransition]


def initial_state(config: EngineConfig = EngineConfig()) -> AlarmEngineState:
    return AlarmEngineState(config=config)


def set_alarm(state: AlarmEngineState, clock_time_ms: int) -> AlarmEngineState:
    """Arm the alarm for a clock time. Only legal from IDLE or STOPPED;
    in particular the alarm cannot be re-set while it is ringing."""
    if state.phase not in (Phase.IDLE, Phase.STOPPED):
        raise StateConflictError(
            f"cannot set alarm while {state.phase.value}"
        )
    return replace(
        state, phase=Phase.ARMED, alarm_time_ms=clock_time_ms, in_band_streak=0
    )


def step(
    state: AlarmEngineState, event: EngineEvent
) -> tuple[AlarmEngineState, list[EngineAction]]:
    """Advance the state machine by one event.

    Deterministic; buzzer actions are derived purely from the phase change.
    Raises StreamOrderError if the event time moves backwards.
    """
    t = event.t_ms
    if state.last_event_t_ms is not None and t < state.last_event_t_ms:
        raise StreamOrderError(
            f"event at t_ms={t} precedes previous event at {state.last_event_t_ms}"
        )
    state = replace(state, last_event_t_ms=t)
    actions: list[EngineAction] = []

    if isinstance(event, Disarm):
        if state.phase is Phase.RINGING:
            actions.append(BuzzerOff(t))
        if state.phase is not Phase.IDLE:
            actions.append(LogTransition(t, state.phase, Phase.IDLE, "disarm"))
        return (
            replace(state, phase=Phase.IDLE, alarm_time_ms=None, in_band_streak=0),
            actions,
        )

    if isinstance(event, ClockTick):
        if (
            state.phase is Phase.ARMED
            and state.alarm_time_ms is not None
            and t >= state.alarm_time_ms
        ):
            actions.append(BuzzerOn(t))
            actions.append(LogTransition(t, Phase.ARMED, Phase.RINGING, "clock_tick"))
            return replace(state, phase=Phase.RINGING), actions
        return state, actions

    # BpmReading: only meaningful while ringing.
    if state.phase is not Phase.RINGING:
        return state, actions
    est = event.estimate
    in_band = est.status is BpmStatus.VALID and state.config.satisfaction_band.contains(
        est.bpm
    )
    if not in_band:
        return replace(state, in_band_streak=0), actions
    streak = state.in_band_streak + 1
    if streak >= state.config.required_streak:
        actions.append(BuzzerOff(t))
        actions.append(LogTransition(t, Phase.RINGING, Phase.STOPPED, "bpm_reading"))
        return replace(state, phase=Phase.STOPPED, in_band_streak=0), actions
    return replace(state, in_band_streak=streak), actions


def run_engine(
    events: Iterable[EngineEvent],
    config: EngineConfig = EngineConfig(),
    state: Optional[AlarmEngineState] = None,
) -> tuple[AlarmEngineState, list[LogTransition]]:
    """Fold step() over an ordered event stream.

    Returns the final state and the ordered transition log. Step errors
    are re-raised with the offending event's index.
    """
    if state is None:
        state = initial_state(config)
    log: list[LogTransition] = []
    for i, event in enumerate(events):
        try:
            state, actions = step(state, event)
        except StreamOrderError as exc:
            raise StreamOrderError(f"event {i}: {exc}") from exc
        log.extend(a for a in actions if isinstance(a, LogTransition))
    return state, log
