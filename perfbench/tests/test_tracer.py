import types

import pytest

from tracer import Tracer, covered, layer_shares, self_times, summarize


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def nested_tracer():
    """a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]."""
    t = Tracer(clock=fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    with t.span("x.a", cell="op0"):
        with t.span("y.b"):
            pass
        with t.span("y.c"):
            with t.span("z.d"):
                pass
    return t


def test_self_time_subtracts_direct_children_only():
    t = nested_tracer()
    assert [s[0] for s in t.spans] == ["x.a", "y.b", "y.c", "z.d"]
    assert self_times(t.spans) == [3, 3, 3, 1]


def test_summary_and_shares_add_up_to_the_root():
    summary = summarize(nested_tracer().spans)
    assert summary["y.c"] == {"n": 1, "dur": 4, "self": 3}
    shares = layer_shares(summary)
    assert shares == pytest.approx({"x": 0.3, "y": 0.6, "z": 0.1})
    assert sum(shares.values()) == pytest.approx(1.0)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_spans_inherit_parent_and_cell():
    t = nested_tracer()
    parents = [s[3] for s in t.spans]
    assert parents == [-1, 0, 0, 2]
    assert {s[4] for s in t.spans} == {"op0"}


def test_wrap_records_span_counts_and_restores():
    mod = types.ModuleType("fake")
    mod.f = lambda x: x * 2
    original = mod.f
    t = Tracer()
    t.wrap(mod, "f", "layer.f", on_return=lambda c, r, a: c.update({"layer.out": r}))
    t.wrap(mod, "gone", "layer.gone")
    assert mod.f(3) == 6 and mod.f(4) == 8
    assert [s[0] for s in t.spans] == ["layer.f", "layer.f"]
    assert t.counters["layer.out"] == 14
    assert t.absent == ["fake.gone"]
    t.uninstall()
    assert mod.f is original


def test_wrapped_exception_still_closes_the_span():
    mod = types.ModuleType("fake")

    def boom():
        raise KeyError("x")

    mod.boom = boom
    t = Tracer()
    t.wrap(mod, "boom", "layer.boom")
    with pytest.raises(KeyError):
        mod.boom()
    assert t.spans[0][2] is not None and not t._stack
