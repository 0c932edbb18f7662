"""Offline reference implementations used as test oracles.

Kept deliberately independent of the package's streaming code: these work
over fully buffered arrays in a single literal pass of the hysteresis
definition, so agreement with the streaming detector is meaningful.
"""


def offline_beat_scan(times, values, upper, lower, refractory_ms):
    """Brute-force hysteresis scan over a buffered waveform.

    Walks the whole arrays once: output goes high when a value reaches
    `upper` (recording a beat unless still inside the refractory window of
    the previous recorded beat) and re-arms when a value falls to `lower`.
    Returns the list of beat timestamps.
    """
    beats = []
    high = False
    last_beat = None
    for t, v in zip(times, values):
        if not high:
            if v >= upper:
                high = True
                if last_beat is None or t - last_beat >= refractory_ms:
                    beats.append(t)
                    last_beat = t
        else:
            if v <= lower:
                high = False
    return beats


def offline_crossing_scan(times, values, threshold):
    """Brute-force single-threshold scan over a buffered waveform.

    A beat at every sample that reaches `threshold` when the sample before
    it (if any) was below it. Returns the list of (t, ibi) pairs, ibi None
    for the first beat.
    """
    beats = []
    prev_value = None
    prev_beat = None
    for t, v in zip(times, values):
        if v >= threshold and (prev_value is None or prev_value < threshold):
            beats.append((t, None if prev_beat is None else t - prev_beat))
            prev_beat = t
        prev_value = v
    return beats
