"""Span aggregation and self-time arithmetic of the tracer."""

import types

import pytest

from perfbench import trace
from perfbench.trace import Tracer


@pytest.fixture
def clock(monkeypatch):
    now = [0]

    def advance(ns):
        now[0] += ns

    monkeypatch.setattr(trace, "perf_counter_ns", lambda: now[0])
    return advance


def test_self_time_subtracts_direct_children(clock):
    tracer = Tracer()

    def leaf():
        clock(30)

    def middle():
        clock(5)
        leaf_traced()
        leaf_traced()
        clock(7)

    def top():
        clock(10)
        middle_traced()
        clock(20)

    leaf_traced = tracer.wrap("leaf", leaf)
    middle_traced = tracer.wrap("middle", middle)
    tracer.wrap("top", top)()

    leaf_s, middle_s, top_s = (tracer.stats(n) for n in ("leaf", "middle", "top"))
    assert (leaf_s.calls, leaf_s.total_ns, leaf_s.self_ns) == (2, 60, 60)
    assert (middle_s.total_ns, middle_s.child_ns, middle_s.self_ns) == (72, 60, 12)
    assert (top_s.total_ns, top_s.child_ns, top_s.self_ns) == (102, 72, 30)


def test_raising_call_still_closes_its_span(clock):
    tracer = Tracer()

    def boom():
        clock(4)
        raise ValueError

    def parent():
        clock(1)
        with pytest.raises(ValueError):
            boom_traced()

    boom_traced = tracer.wrap("boom", boom)
    tracer.wrap("parent", parent)()
    assert tracer.stats("boom").units == 1
    assert tracer.stats("parent").child_ns == 4
    assert tracer.stats("parent").self_ns == 1


def test_units_after_and_consume(clock):
    tracer = Tracer()
    seen = []

    def gen(items):
        for x in items:
            clock(2)
            yield x

    traced = tracer.wrap(
        "gen", gen, units=lambda a, r: len(a[0]), after=lambda a, r: seen.append(r), consume=True
    )
    assert traced([1, 2, 3]) == [1, 2, 3]
    s = tracer.stats("gen")
    assert (s.units, s.total_ns, seen) == (3, 6, [[1, 2, 3]])
    assert s.per_unit(s.total_ns, 1.0) == 2.0
    assert tracer.stats("never").per_unit(0, 1.0) == 0.0


def test_patch_restores_and_reports_missing_targets():
    module = types.SimpleNamespace(f=lambda x: x + 1, __name__="mod")
    original = module.f
    tracer = Tracer()
    with tracer.installed([(module, "f", "mod.f", {}), (module, "gone", "mod.gone", {})]):
        assert module.f is not original
        assert module.f(1) == 2
    assert module.f is original
    assert tracer.missing == {"mod.gone": "mod.gone"}
    assert tracer.absent() == ["mod.gone"]
    assert tracer.stats("mod.f").calls == 1


def test_patch_wraps_methods():
    class Thing:
        def add(self, x):
            return x * 2

    tracer = Tracer()
    with tracer.installed([(Thing, "add", "thing.add", {})]):
        assert Thing().add(4) == 8
    assert tracer.stats("thing.add").calls == 1
    assert Thing.add.__name__ == "add"
