"""Exception types shared across the package."""


class PulseAlarmError(Exception):
    """Base class for all package-specific errors."""


class StreamOrderError(PulseAlarmError):
    """A stream delivered timestamps out of order."""


class WaveformSpecError(PulseAlarmError, ValueError):
    """A waveform specification field violates its invariant."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class WaveformParseError(PulseAlarmError):
    """A waveform CSV file contains a malformed line."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ConfigError(PulseAlarmError):
    """A CLI configuration file is invalid."""
