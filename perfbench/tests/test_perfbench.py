"""Tests of the benchmark's own bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].
    t = spans.Tracer(clock=FakeClock(0, 1, 4, 5, 6, 8, 9, 10))
    outer = t.begin("ternary.outer")
    t.end(t.begin("function.a"))
    b = t.begin("function.b")
    t.end(t.begin("render.c"))
    t.end(b)
    t.end(outer)
    assert [s[spans.PARENT] for s in t.spans] == [-1, 0, 0, 2]
    assert spans.self_times(t.spans) == [3, 3, 2, 2]


def test_layer_metrics_charge_self_time_and_leave_the_rest_unattributed():
    t = spans.Tracer(clock=FakeClock(0, 10, 2, 5))
    t.end(t.begin("function.eval_exact"))
    t.end(t.begin("ternary.to_ternary"))
    out = spans.layer_metrics(t, traced_s=20)
    assert out["layer.function.self_s"] == 10
    assert out["layer.ternary.self_s"] == 3
    assert out["unattributed_s"] == 7


def test_wrapped_function_records_nested_spans_and_errors():
    t = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = spans.wrap(t, "ternary.inner", inner)
    traced_outer = spans.wrap(t, "function.outer", lambda x: traced_inner(x) + 1)
    assert traced_outer(1) == 2
    with pytest.raises(ValueError):
        traced_outer(-1)
    names = [(s[spans.NAME], s[spans.PARENT], s[spans.RAISED]) for s in t.spans]
    assert names == [("function.outer", -1, False), ("ternary.inner", 0, False),
                     ("function.outer", -1, True), ("ternary.inner", 2, True)]
    assert t.calls["ternary.inner"] == 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    samples = list(range(1, 101))
    value, pct, n = stats.tail(samples)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail(range(11)) == (0, 100.0 * 1 / 11, 11)


def test_failed_share_is_failed_over_attempted():
    assert stats.failed_share(34, 96) == 34 / 96
    assert stats.failed_share(0, 2718) == 0.0
    with pytest.raises(ValueError):
        stats.failed_share(0, 0)


def test_deep_eval_failures_count_each_op_once():
    passes = [
        {"status": ["", "render ValueError", "", ""], "digests": ["a", "b", "c", "d"]},
        {"status": ["", "render ValueError", "", ""], "digests": ["a", "b", "x", "d"]},
        {"status": ["", "render ValueError", "", ""], "digests": ["a", "b", "c", "d"]},
    ]
    # op 1 raised in every pass, op 2 changed in one, op 3 failed a check.
    failed, wrong = run._deep_failures(passes, {"3": "value outside its enclosure"})
    assert (failed, wrong) == (3, 2)
    assert run._deep_failures(passes[:1], {}) == (1, 0)
    assert stats.failed_share(failed, 4) == 3 / 4


def test_gauge_scales_to_the_reference_by_the_fastest_kernel():
    gauge = speed.Gauge()
    gauge.sample()
    assert len(gauge.samples) == 1 and gauge.samples[0] > 0
    # One sample in twenty may read far too fast; the 5th percentile skips it.
    gauge.samples = [speed.REFERENCE_S / 5] + [(2 + i / 100) * speed.REFERENCE_S
                                               for i in range(19)]
    assert gauge.factor() == pytest.approx(0.5, rel=0.01)


def test_generators_give_the_same_inputs_for_the_same_seed():
    assert inputs.deep_eval_points(7) == inputs.deep_eval_points(7)
    assert inputs.deep_eval_points(7) != inputs.deep_eval_points(8)
    assert inputs.tables_plan(7) == inputs.tables_plan(7)
    assert inputs.tables_plan(7) != inputs.tables_plan(8)


def test_deep_eval_points_are_stratified_with_full_periods():
    points = inputs.deep_eval_points(3)
    lo, hi = inputs.DEEP_LOG10_RANGE
    assert len(points) == round((hi - lo) * inputs.DEEP_POINTS_PER_DECADE)
    first_decade = 0
    for p in points:
        num, den = (int(c) for c in p["x"].split("/"))
        q_free = p["period"] + 1
        assert inputs.full_period_prime(q_free)
        assert den % q_free == 0 and den // q_free in (1, 3, 9)
        assert 0 < num < den and num % 3 and num % q_free
        first_decade += q_free < 10 ** (lo + 1)
    assert first_decade == inputs.DEEP_POINTS_PER_DECADE
