"""Offline reference implementations used as test oracles.

Kept deliberately independent of the package's streaming code: the beat
scans work over fully buffered arrays in a single literal pass of the
hysteresis definition, the frame scan walks its bytes one at a time, the
synthesis stamps one pulse at a time, the CSV writer formats one row at a
time, and the report is one json.dumps per record, so agreement with the
streaming detector, the decoder, the one-pass synthesis, the block-wise
CSV writer and the directly formatted report is meaningful.
"""

import json
import math

import numpy as np


def reference_synthesize(spec):
    """A WaveformSpec's (t_ms, value) int64 arrays, one pulse at a time.

    Each beat, then each stray, adds its raised cosine to the float
    waveform over the samples within half its width of its center; noise
    is drawn with Generator.normal; the values are rounded and clamped to
    the ADC range.
    """
    period = 1000.0 / spec.sample_rate_hz
    n = int(round(spec.duration_ms / period))
    t_ms = np.round(np.arange(n) * period).astype(np.int64)
    times = t_ms.astype(np.float64)
    values = np.full(n, float(spec.baseline))
    if spec.wander_amplitude:
        values += spec.wander_amplitude * np.sin(2.0 * math.pi * times / spec.wander_period_ms)
    pulses = [(beat, spec.pulse_amplitude, spec.pulse_width_ms) for beat in spec.beat_times()]
    pulses += [(s.t_ms, s.peak - spec.baseline, s.width_ms) for s in spec.stray_pulses]
    for center, amplitude, width in pulses:
        half = width / 2.0
        lo = np.searchsorted(times, center - half, side="left")
        hi = np.searchsorted(times, center + half, side="right")
        window = times[lo:hi]
        values[lo:hi] += amplitude * 0.5 * (1.0 + np.cos(math.pi * (window - center) / half))
    if spec.noise_stddev:
        values += np.random.default_rng(spec.rng_seed).normal(0.0, spec.noise_stddev, n)
    return t_ms, np.clip(np.round(values), 0, 1023).astype(np.int64)


def reference_write_waveform(columns, path):
    """Write a SampleColumns as the waveform CSV, one row at a time through
    str.format: the header `t_ms,value`, then `t,v` per sample, each line
    ending in `\\n`."""
    with open(path, "w", newline="\n") as f:
        f.write("t_ms,value\n")
        f.writelines(map("{},{}\n".format, columns.t_ms.tolist(), columns.value.tolist()))


def reference_jsonl(report):
    """A RunReport's line-delimited records, each a dict through
    json.dumps(record, sort_keys=True): transitions, readings, then a summary."""
    records = [
        {
            "kind": "transition",
            "t_ms": t.t_ms,
            "from": t.from_phase.value,
            "to": t.to_phase.value,
            "trigger": t.trigger,
        }
        for t in report.transitions
    ]
    records.extend(
        {"kind": "reading", "t_ms": r.t_ms, "bpm": round(r.bpm, 4), "status": r.status.value}
        for r in report.readings
    )
    records.append(
        {
            "kind": "summary",
            "samples": report.sample_count,
            "beats": report.beat_count,
            **{status.value: n for status, n in report.status_counts().items()},
            "gaps": report.gap_count,
            "corrupt_frames": report.corrupt_count,
            "resyncs": report.resync_count,
            "final_phase": report.final_phase.value,
        }
    )
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


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


def reference_frame_scan(chunks, sync=0xAA, frame_len=9, adc_max=1023):
    """Byte-by-byte reference for the framed protocol's incremental decoder.

    Feeds `chunks` in order into one buffer, walking it a byte at a time.
    Each break marker comes where the stream resumes, before the frame or
    sync byte after the break: the non-sync bytes skipped since the last
    outcome, in this chunk and any before it, are one ("Resync", count),
    a regained sync, when the walk reaches a sync byte, and none if the
    chunks end first; a sync byte with fewer than `frame_len` bytes behind
    it waits for the next chunk; a frame whose XOR of bytes 1..7 differs
    from byte 8, or whose value exceeds `adc_max`, is ("CorruptFrame",) and
    only its sync byte is dropped; a valid frame is ("SampleOutcome", seq,
    (t_ms, value)), after ("Gap",) when seq does not follow the last valid
    one modulo 256. Returns the outcomes as tuples, the same for every
    split of the same bytes into chunks.
    """
    out = []
    buf = b""
    last_seq = None
    skipped = 0
    for chunk in chunks:
        buf += chunk
        i = 0
        while i < len(buf):
            if buf[i] != sync:
                skipped += 1
                i += 1
                continue
            if skipped:
                out.append(("Resync", skipped))
                skipped = 0
            if len(buf) - i < frame_len:
                break
            check = 0
            for b in buf[i + 1 : i + frame_len - 1]:
                check ^= b
            seq = buf[i + 1]
            t_ms = (buf[i + 2] << 24) | (buf[i + 3] << 16) | (buf[i + 4] << 8) | buf[i + 5]
            value = (buf[i + 6] << 8) | buf[i + 7]
            if check != buf[i + frame_len - 1] or value > adc_max:
                out.append(("CorruptFrame",))
                i += 1
                continue
            if last_seq is not None and (seq - last_seq) % 256 != 1:
                out.append(("Gap",))
            out.append(("SampleOutcome", seq, (t_ms, value)))
            last_seq = seq
            i += frame_len
        buf = buf[i:]
    return out
