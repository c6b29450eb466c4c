"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ---------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(100)), 90) == 89
    assert stats.percentile(list(range(99)), 90) is None
    assert stats.percentile(list(range(1000)), 99) == 989


def test_p50_floor_and_order_independence():
    assert stats.percentile(list(range(19)), 50) is None
    assert stats.percentile(list(reversed(range(20))), 50) == 9


def test_percentile_outside_zero_to_hundred_is_refused():
    with pytest.raises(ValueError):
        stats.percentile([1, 2, 3], 100)


# -- self time on nested spans ----------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    own = tracer.self_times(parent, start, end)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(end[0] - start[0])


def test_tracer_sees_calls_made_inside_the_library():
    from twistlab import curve, gf
    from twistlab import autmap as autmap_mod

    original = autmap_mod.reduction_isomorphism
    t = tracer.Tracer()
    t.install()
    try:
        root = t.open_span(tracer.ROOT)
        F7 = gf.field_create(7)
        E = curve.WeierstrassCurve(F7, 0, 0, 0, 0, 3)
        isos = autmap_mod.find_isomorphisms(E, E, F7)
        t.close_span(root)
    finally:
        t.uninstall()
    assert autmap_mod.reduction_isomorphism is original
    m = t.metrics()
    assert m["autmap.find_isomorphisms.calls"] == 1
    assert m["autmap.find_isomorphisms.hit_ratio"] == 1.0
    # reached only through find_isomorphisms' own module-global lookup
    assert m["autmap.reduction_isomorphism.calls"] == 2
    assert m["autmap.CurveIsomorphism.calls"] >= len(isos)
    assert m["gf.mul.calls"] > 0
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + m["harness.self_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    names = [t.names[i] for i in t.name]
    parents = {t.names[t.name[t.parent[i]]] for i, n in enumerate(names)
               if n == "autmap.reduction_isomorphism"}
    assert parents == {"autmap.find_isomorphisms"}


def test_span_problems_name_unclosed_spans_and_extra_roots():
    t = tracer.Tracer()
    t.open_span(tracer.ROOT)
    t.open_span("gf.sqrt")  # never closed
    assert any("never closed" in p for p in t.problems())
    t = tracer.Tracer()
    t.close_span(t.open_span(tracer.ROOT))
    t.close_span(t.open_span("gf.sqrt"))  # a second root
    assert t.problems() == ["expected one root span at index 0, found roots at [0, 1]"]
    t = tracer.Tracer()
    root = t.open_span(tracer.ROOT)
    t.close_span(t.open_span("gf.sqrt"))
    t.close_span(root)
    assert t.problems() == []


def test_trace_accounting_is_checked_against_the_pass_clock():
    import run

    def traced(wall_s):
        t = dict.fromkeys((f"{layer}.self_s" for layer in tracer.LAYERS), 1.0)
        t["harness.self_s"] = 0.5
        return {"trace": t, "trace_problems": [], "wall_s": wall_s, "cpu_s": wall_s}

    passes = [{"cpu_s": 6.0}]
    layers, problems = run.per_layer(passes, [traced(6.5)])
    assert problems == []
    assert layers["trace.overhead_ratio"] == pytest.approx(6.5 / 6.0)
    _, problems = run.per_layer(passes, [traced(7.5)])
    assert problems and "7.500000" in problems[0]


# -- count-table predictor ---------------------------------------------------

@pytest.mark.parametrize("p, n, kind, count", [
    (2, 1, "j0", 3), (2, 2, "j0", 7), (2, 5, "j0", 3), (2, 4, "j0", 7),
    (3, 1, "j0", 4), (3, 2, "j0", 6), (3, 3, "j0", 4),
    (7, 1, "j0", 6), (5, 1, "j0", 2), (5, 2, "j0", 6), (2039, 1, "j0", 2),
    (5, 1, "j1728", 4), (7, 1, "j1728", 2), (7, 2, "j1728", 4),
    (2, 3, "generic", 2), (3, 3, "generic", 2), (11, 1, "generic", 2),
    (3, 2, "j1728", 2),
])
def test_expected_twist_count_table(p, n, kind, count):
    assert workloads.expected_twist_count(p, n, kind) == count


@pytest.mark.parametrize("p, coeffs, kind", [
    (5, (0, 0, 0, 0, 1), "j0"), (7, (0, 0, 0, 0, 3), "j0"),
    (13, (0, 0, 0, 0, 2), "j0"), (5, (0, 0, 0, 2, 0), "j1728"),
    (7, (0, 0, 0, 1, 0), "j1728"), (11, (0, 0, 0, 1, 1), "generic"),
    (2, (0, 0, 1, 0, 0), "j0"), (3, (0, 0, 0, -1, 0), "j0"),
])
def test_predictor_matches_the_library(p, coeffs, kind):
    from twistlab import autmap, curve, gf, twistcoh

    F = gf.field_create(p)
    G = autmap.automorphism_group(curve.WeierstrassCurve(F, *coeffs))
    classes = twistcoh.frobenius_classes(twistcoh.frobenius_action(G, F))
    assert len(classes) == workloads.expected_twist_count(p, 1, kind)
    assert G.order == workloads.expected_aut_order(p, kind)
