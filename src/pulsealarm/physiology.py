"""Heart-rate formulas: age-predicted maximum, moderate-exercise band,
sleep-time depression, and the alarm's satisfaction band."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

MIN_AGE_YEARS = 1
MAX_AGE_YEARS = 120


@dataclass(frozen=True)
class UserProfile:
    age_years: int
    resting_bpm: float

    def __post_init__(self):
        hr_max = max_heart_rate(self.age_years)
        if not 0 < self.resting_bpm < hr_max:
            raise ValueError(f"resting_bpm must be in (0, {hr_max}), got {self.resting_bpm}")


@dataclass(frozen=True)
class BpmBand:
    low: float
    high: float

    def __post_init__(self):
        if not 0 <= self.low <= self.high:
            raise ValueError(f"band must satisfy 0 <= low <= high, got {self}")

    def contains(self, bpm: float) -> bool:
        return self.low <= bpm <= self.high

    def midpoint(self) -> float:
        return (self.low + self.high) / 2.0


class BandMode(enum.Enum):
    FIXED = "fixed"
    AGE_DERIVED = "age_derived"


# The band that silences the alarm in FIXED mode; endpoints inclusive,
# 100 and 200 excluded.
FIXED_SATISFACTION_BAND = BpmBand(101, 199)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def max_heart_rate(age_years: int) -> int:
    """Age-predicted maximum heart rate: 220 minus age."""
    if not MIN_AGE_YEARS <= age_years <= MAX_AGE_YEARS:
        raise ValueError(
            f"age_years must be in [{MIN_AGE_YEARS}, {MAX_AGE_YEARS}], got {age_years}"
        )
    return 220 - age_years


def moderate_exercise_band(age_years: int) -> BpmBand:
    """50-69% of the maximum heart rate, round-half-up to integer bpm."""
    hr_max = max_heart_rate(age_years)
    return BpmBand(_round_half_up(0.50 * hr_max), _round_half_up(0.69 * hr_max))


def sleep_rate_range(resting_bpm: float) -> BpmBand:
    """Heart rate while asleep: an 8-10% depression of the resting rate."""
    if resting_bpm <= 0:
        raise ValueError(f"resting_bpm must be positive, got {resting_bpm}")
    return BpmBand(resting_bpm * 0.90, resting_bpm * 0.92)


def satisfaction_band(
    profile: Optional[UserProfile] = None, mode: BandMode = BandMode.FIXED
) -> BpmBand:
    """The bpm band that interrupts the ringing alarm.

    FIXED mode returns [101, 199] regardless of profile. AGE_DERIVED takes
    the moderate-exercise band.
    """
    if mode is BandMode.FIXED:
        return FIXED_SATISFACTION_BAND
    if profile is None:
        raise ValueError("AGE_DERIVED satisfaction band requires a user profile")
    return moderate_exercise_band(profile.age_years)
