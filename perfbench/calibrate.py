"""Machine-speed calibration for timings taken on a shared machine.

On a small shared VM the interpreter's speed swings by well over 1.5x
for seconds at a time as neighbours come and go, which moves raw wall
times far more than most code changes do. So each timed unit of work is
bracketed by a fixed pure-Python kernel, and its wall time is scaled by the
kernel's nominal time over its measured time: a timing then reads as on
a machine where the kernel takes exactly REF_NOMINAL_NS. The kernel is
benchmark code, so a change to the program moves the scaled time and a
change in the machine's speed mostly does not.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

KERNEL_N = 20_000
# The kernel's time on an uncontended core of a 2-core x86-64 VM with
# Python 3.11.
REF_NOMINAL_NS = 5_000_000
# A 1/50 kernel (about 0.1 ms) brackets each item of a long series of short
# timings, such as the 4096-byte chunks of a wire pass; each item is scaled
# by the median of the micro calibrations within WINDOW items of it.
MICRO_N = KERNEL_N // 50
MICRO_NOMINAL_NS = REF_NOMINAL_NS / 50
WINDOW = 3


class _Node:
    __slots__ = ("t", "value")

    def __init__(self, t, value):
        self.t = t
        self.value = value


def kernel(n: int = KERNEL_N) -> int:
    """Object creation, attribute reads, comparisons and container
    updates: the operations the pipeline spends its time on."""
    edges = []
    recent = {}
    prev = _Node(0, 0)
    for i in range(n):
        node = _Node(i, (i * 37) & 1023)
        if node.value >= 512 and prev.value < 512:
            edges.append(node.t)
        recent[i & 255] = node
        prev = node
    return len(edges) + len(recent)


def kernel_ns(n: int = KERNEL_N) -> int:
    start = perf_counter_ns()
    kernel(n)
    return perf_counter_ns() - start


def micro_ns() -> int:
    return kernel_ns(MICRO_N)


def rescale(raw_ns: list[int], calibrations: list[int]) -> list[float]:
    """Reference-ns times of a series: raw_ns[i] was timed between the
    micro calibrations calibrations[i] and calibrations[i + 1]."""
    return [
        ns * MICRO_NOMINAL_NS / statistics.median(calibrations[max(0, i - WINDOW) : i + WINDOW + 2])
        for i, ns in enumerate(raw_ns)
    ]


class Stopwatch:
    """Times calls in reference nanoseconds."""

    def __init__(self):
        kernel()  # warm up before the first bracket

    def scale(self) -> float:
        """REF_NOMINAL_NS over the kernel's time right now (< 1 when slow)."""
        return 2 * REF_NOMINAL_NS / (kernel_ns() + kernel_ns())

    def time(self, fn, *args, **kwargs):
        """(fn's result, its wall time in reference ns), bracketed by the
        full kernel before and after."""
        before = kernel_ns()
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        elapsed = perf_counter_ns() - start
        return result, elapsed * 2 * REF_NOMINAL_NS / (before + kernel_ns())
