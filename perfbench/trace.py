"""In-memory span aggregation for the traced benchmark run.

Spans are recorded only from benchmark code: `Tracer.patch` swaps a public
function of the program (a module attribute or a class method) for a
wrapper that times each call, and `Tracer.wrap` times a call the benchmark
makes itself. Spans are aggregated per name (calls, work units, total time
and the time covered by direct child spans), never stored one by one, so a
per-sample span costs a few counter updates.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional


@dataclass
class SpanStats:
    calls: int = 0
    units: int = 0
    total_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        """Time inside the span not covered by its direct child spans."""
        return self.total_ns - self.child_ns

    def per_unit(self, ns: int, scale: float) -> float:
        """ns spread over the span's work units, in ns/scale (1e3 for µs,
        1e6 for ms); 0.0 for a span that never ran."""
        return ns / self.units / scale if self.units else 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.missing: dict[str, str] = {}  # span name -> target the program lacks
        self._open: list[int] = []  # child time of each open span, innermost last
        self._undo: list[Callable[[], None]] = []

    def stats(self, name: str) -> SpanStats:
        return self.spans.setdefault(name, SpanStats())

    def wrap(
        self,
        name: str,
        fn: Callable,
        units: Optional[Callable] = None,
        after: Optional[Callable] = None,
        consume: bool = False,
    ) -> Callable:
        """Return fn timed as span `name`.

        units(args, result) gives the work units of one call (default 1).
        after(args, result) runs once the call is timed, for counters.
        consume=True drains a generator into a list inside the span, so the
        span covers the work and not just the generator's creation.
        """
        stats = self.stats(name)
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                elapsed = perf_counter_ns() - start
                stats.child_ns += open_spans.pop()
                stats.total_ns += elapsed
                stats.calls += 1
                if units is None:  # one unit per call, raising calls included
                    stats.units += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if units is not None:
                stats.units += units(args, result)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Replace owner.attr with its traced wrapper until `restore`.

        A target the program no longer has is recorded in `missing` and
        skipped, so a refactor that removes a span cannot crash the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing[name] = f"{getattr(owner, '__name__', owner)}.{attr}"
            self.stats(name)
            return
        setattr(owner, attr, self.wrap(name, original, **kwargs))
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def installed(self, patches):
        """Apply (owner, attr, name, kwargs) patches for the with-block."""
        try:
            for owner, attr, name, kwargs in patches:
                self.patch(owner, attr, name, **kwargs)
            yield self
        finally:
            self.restore()

    def absent(self) -> list[str]:
        """Span names that recorded no call."""
        return sorted(n for n, s in self.spans.items() if s.calls == 0)
