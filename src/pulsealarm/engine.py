"""Alarm lifecycle state machine.

The engine is built armed, AlarmEngineState(config, alarm_time_ms), and
goes ARMED -> RINGING -> STOPPED. It rings at the alarm time, indefinitely,
and stops only after a configurable run of consecutive valid heart-rate
readings inside the satisfaction band: ring-until-satisfied. RINGING is
the latch the paper builds from a bistable circuit, only that in-band
streak leaves it, and STOPPED is final. The buzzer sounds exactly while
the phase is RINGING, so step reports only the phase transitions. There
is deliberately no snooze.

step assumes events in time order; run_engine(events, state) folds step
from a state, which carries the engine config, and checks the order of
the batch it folds.

A ClockTick changes the state only at or after next_tick_ms, the alarm
time while ARMED and infinity after; step rings by that same rule. A
caller may skip every tick before it and get the states and transitions
of ticking at every sample.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Iterable, Union

from .detector import (
    PLAUSIBLE_MAX_BPM,
    PLAUSIBLE_MIN_BPM,
    BpmEstimate,
    BpmStatus,
)
from .errors import StreamOrderError
from .physiology import FIXED_SATISFACTION_BAND, BpmBand


class Phase(enum.Enum):
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
    alarm_time_ms: int
    phase: Phase = Phase.ARMED
    in_band_streak: int = 0


# Events. step() assumes non-decreasing time order; run_engine checks it.
# A reading is the estimator's BpmEstimate itself.

@dataclass(frozen=True)
class ClockTick:
    t_ms: int


EngineEvent = Union[ClockTick, BpmEstimate]


@dataclass(frozen=True)
class LogTransition:
    t_ms: int
    from_phase: Phase
    to_phase: Phase
    trigger: str


def next_tick_ms(state: AlarmEngineState) -> float:
    """The earliest time a ClockTick could change the state: the alarm time
    while ARMED, else infinity, as a tick changes nothing in other phases."""
    return state.alarm_time_ms if state.phase is Phase.ARMED else math.inf


def step(
    state: AlarmEngineState, event: EngineEvent
) -> tuple[AlarmEngineState, list[LogTransition]]:
    """Advance the state machine by one event, a ClockTick or a BpmEstimate.

    Deterministic. Returns the new state and a list of the zero or one
    transitions the event caused; the buzzer follows from them, on when
    RINGING is entered and off when it is left. Only the in-band streak
    leaves RINGING, and STOPPED is final. Order is assumed, not checked.
    A no-op returns the same state and [].
    """
    t = event.t_ms

    if isinstance(event, ClockTick):
        if t >= next_tick_ms(state):
            return replace(state, phase=Phase.RINGING), [
                LogTransition(t, Phase.ARMED, Phase.RINGING, "clock_tick")
            ]
        return state, []

    # A reading: only meaningful while ringing.
    if state.phase is not Phase.RINGING:
        return state, []
    in_band = event.status is BpmStatus.VALID and state.config.satisfaction_band.contains(
        event.bpm
    )
    if not in_band:  # resets the streak, a no-op if it is already 0
        return (replace(state, in_band_streak=0) if state.in_band_streak else state), []
    streak = state.in_band_streak + 1
    if streak >= state.config.required_streak:
        return replace(state, phase=Phase.STOPPED), [
            LogTransition(t, Phase.RINGING, Phase.STOPPED, "bpm_reading")
        ]
    return replace(state, in_band_streak=streak), []


def run_engine(
    events: Iterable[EngineEvent], state: AlarmEngineState
) -> tuple[AlarmEngineState, list[LogTransition]]:
    """Fold step() over an event stream from `state`, which carries the
    config; the engine's one order check.

    Returns the final state and the transitions step reported, in order.
    Raises StreamOrderError, with its index, at an event earlier than the
    last one; only the given events are compared, not the state's past.
    """
    log: list[LogTransition] = []
    last_t = -math.inf
    for i, event in enumerate(events):
        if event.t_ms < last_t:
            raise StreamOrderError(f"event {i}: t_ms={event.t_ms} precedes {last_t}")
        last_t = event.t_ms
        state, transitions = step(state, event)
        log.extend(transitions)
    return state, log
