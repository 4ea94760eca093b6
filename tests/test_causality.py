import numpy as np
import pytest
from dataclasses import replace

from btzgeo.builder import dev_hat, extend_btz, strip_btz
from btzgeo.causality import (
    AbsentFiber,
    CausalPolyline,
    ChartPoint,
    CurveNode,
    DecompositionViolation,
    FiberPoint,
    StuckAtSingularity,
    btz_decomposition,
    cauchy_time_report,
    cross_face,
    develop,
    diamond_sample,
    fiber_hop_is_causal,
    point_from_json,
    segment_is_causal,
    trace_causal_curve,
    validate_polyline,
)
from btzgeo.minkowski import CausalOrder, causal_relation
from btzgeo.representations import builtin_examples

CENTER = np.array([1, 1, 1]) / 3.0


def test_point_validation():
    with pytest.raises(ValueError):
        ChartPoint(0, 1.0, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        ChartPoint(0, 1.0, np.array([1.2, -0.2, 0.0]))
    with pytest.raises(ValueError):
        ChartPoint(0, 0.0, CENTER)
    with pytest.raises(ValueError):
        FiberPoint("c1", -1.0)
    pt = ChartPoint(1, 2.0, CENTER)
    back = point_from_json(pt.to_json())
    assert (back.simplex, back.t) == (1, 2.0)
    assert np.array_equal(back.alpha, pt.alpha)
    fp = FiberPoint("c2", 0.5)
    assert point_from_json(fp.to_json()) == fp
    with pytest.raises(ValueError):
        point_from_json({"kind": "nope"})


def test_develop(gamma2_zero):
    st_ = gamma2_zero
    fib = st_.fibers["c1"]
    fp = FiberPoint("c1", 0.7)
    assert develop(st_, fp) == pytest.approx(
        fib.line_point + (st_.kappa + 0.7) * fib.line_direction
    )
    cp = ChartPoint(0, 1.3, CENTER)
    assert develop(st_, cp) == pytest.approx(
        dev_hat(st_.simplices[0], 1.3, CENTER, st_.kappa, st_.blend)
    )


def test_segment_is_causal_basics(gamma2_zero):
    st_ = gamma2_zero
    up = segment_is_causal(st_, 0, (1.0, CENTER), (1.5, CENTER))
    assert up
    assert not segment_is_causal(st_, 0, (1.0, CENTER), (1.0, CENTER))  # zero step
    assert not segment_is_causal(st_, 0, (1.5, CENTER), (1.0, CENTER))  # past
    side = np.array([0.8, 0.1, 0.1])
    assert not segment_is_causal(st_, 0, (1.0, CENTER), (1.0, side))  # spacelike


def test_cross_face_round_trip(gamma2_zero):
    st_ = gamma2_zero
    g = st_.triangulation.gluings[0]
    li, lpair = g.left
    sx = st_.simplices[li]
    alpha = np.zeros(3)
    alpha[sx.vertices.index(lpair[0])] = 0.6
    alpha[sx.vertices.index(lpair[1])] = 0.4
    facet = int(np.argmin(alpha))
    pt = ChartPoint(li, 1.1, alpha)
    other = cross_face(st_, pt, facet)
    assert other.simplex == g.right[0]
    assert other.t == pt.t
    assert np.isclose(other.alpha.sum(), 1.0)
    back = cross_face(st_, other, int(np.flatnonzero(other.alpha == 0.0)[0]))
    assert back.simplex == li
    assert back.alpha == pytest.approx(alpha, abs=1e-12)


def test_trace_vertical(gamma2_zero):
    start = ChartPoint(0, 0.2, CENTER)
    curve = trace_causal_curve(gamma2_zero, start, t_stop=2.0, steering="vertical")
    assert curve.strictly_increasing_t()
    assert curve.nodes[-1].point.t >= 2.0
    assert all(n.point.simplex == 0 for n in curve.nodes)
    assert all(np.array_equal(n.point.alpha, CENTER) for n in curve.nodes)
    assert validate_polyline(gamma2_zero, curve) == []


def test_trace_random_produces_valid_causal_curves(gamma2_zero, torus_zero):
    for st_ in (gamma2_zero, torus_zero):
        for seed in range(5):
            start = ChartPoint(0, 0.2, CENTER)
            curve = trace_causal_curve(
                st_, start, t_stop=3.0, steering="random", seed=seed
            )
            assert curve.strictly_increasing_t()
            assert curve.nodes[-1].point.t >= 3.0
            assert validate_polyline(st_, curve) == []
            btz_decomposition(st_, curve)  # must not raise


def test_trace_rejects_bad_steering(gamma2_zero):
    start = ChartPoint(0, 0.5, CENTER)
    with pytest.raises(ValueError):
        trace_causal_curve(gamma2_zero, start, t_stop=1.0, steering="sideways")
    with pytest.raises(StuckAtSingularity):
        trace_causal_curve(gamma2_zero, start, t_stop=1.0, steering="axis")
    with pytest.raises(StuckAtSingularity):
        trace_causal_curve(gamma2_zero, start, t_stop=1.0, steering="leave_axis")
    fiber = FiberPoint("c1", 0.5)
    with pytest.raises(StuckAtSingularity):
        trace_causal_curve(gamma2_zero, fiber, t_stop=2.0, steering="random")


def test_trace_axis(gamma2_zero):
    fiber = FiberPoint("c1", 0.5)
    curve = trace_causal_curve(gamma2_zero, fiber, t_stop=2.0, steering="axis")
    assert len(curve.nodes) == 2
    assert all(isinstance(n.point, FiberPoint) for n in curve.nodes)
    assert curve.nodes[-1].point.t == 2.0
    assert validate_polyline(gamma2_zero, curve) == []
    prefix, suffix = btz_decomposition(gamma2_zero, curve)
    assert len(prefix) == 2 and not suffix
    with pytest.raises(StuckAtSingularity):
        trace_causal_curve(gamma2_zero, fiber, t_stop=0.5, steering="axis")


def test_trace_leave_axis(gamma2_zero):
    fiber = FiberPoint("c1", 0.5)
    curve = trace_causal_curve(gamma2_zero, fiber, t_stop=3.0, steering="leave_axis")
    assert isinstance(curve.nodes[0].point, FiberPoint)
    assert isinstance(curve.nodes[1].point, ChartPoint)
    assert curve.strictly_increasing_t()
    assert validate_polyline(gamma2_zero, curve) == []
    prefix, suffix = btz_decomposition(gamma2_zero, curve)
    assert len(prefix) == 1 and len(suffix) == len(curve.nodes) - 1
    # no room below t_stop for a causal hop off the axis
    with pytest.raises(StuckAtSingularity):
        trace_causal_curve(
            gamma2_zero, fiber, t_stop=0.5 + 1e-9, steering="leave_axis"
        )


def test_fiber_hop_criterion(gamma2_zero):
    st_ = gamma2_zero
    pg = st_.fans["c1"]
    entry = pg.fan[0]
    sx = st_.simplices[entry.triangle]
    alpha = np.full(3, 0.1)
    alpha[sx.vertices.index(pg.base_vertex)] = 0.8
    fiber = FiberPoint("c1", 0.3)
    assert fiber_hop_is_causal(st_, fiber, ChartPoint(entry.triangle, 50.0, alpha))
    assert not fiber_hop_is_causal(st_, fiber, ChartPoint(entry.triangle, 0.3, alpha))


def test_validate_polyline_flags_bad_segments(gamma2_zero):
    # chart point before a fiber point is never causal
    nodes = [
        CurveNode(ChartPoint(0, 1.0, CENTER)),
        CurveNode(FiberPoint("c1", 2.0)),
    ]
    assert validate_polyline(gamma2_zero, CausalPolyline(nodes)) == [0]
    # backwards fiber arc
    nodes = [CurveNode(FiberPoint("c1", 2.0)), CurveNode(FiberPoint("c1", 1.0))]
    assert validate_polyline(gamma2_zero, CausalPolyline(nodes)) == [0]
    # fiber arc across distinct punctures
    nodes = [CurveNode(FiberPoint("c1", 1.0)), CurveNode(FiberPoint("c2", 2.0))]
    assert validate_polyline(gamma2_zero, CausalPolyline(nodes)) == [0]


def test_decomposition_violation():
    nodes = [
        CurveNode(ChartPoint(0, 1.0, CENTER)),
        CurveNode(FiberPoint("c1", 2.0)),
    ]
    with pytest.raises(DecompositionViolation):
        btz_decomposition(None, CausalPolyline(nodes))


def test_polyline_helpers():
    nodes = [
        CurveNode(ChartPoint(0, 0.5, CENTER)),
        CurveNode(ChartPoint(0, 1.5, CENTER)),
        CurveNode(ChartPoint(1, 1.5, CENTER), transition=True),
        CurveNode(ChartPoint(1, 2.5, CENTER)),
    ]
    curve = CausalPolyline(nodes, seed=7, steering="random")
    assert curve.strictly_increasing_t()
    assert curve.t_values() == [0.5, 1.5, 1.5, 2.5]
    assert curve.leaf_crossings(1.0) == 1
    assert curve.leaf_crossings(2.0) == 1
    assert curve.leaf_crossings(3.0) == 0
    d = curve.to_json()
    assert d["seed"] == 7 and len(d["nodes"]) == 4
    assert d["nodes"][2]["transition"] is True

    # a transition that jumps in t is not a valid same-point marker
    bad = CausalPolyline(
        [nodes[0], CurveNode(ChartPoint(1, 0.7, CENTER), transition=True)]
    )
    assert not bad.strictly_increasing_t()
    flat = CausalPolyline([nodes[1], CurveNode(ChartPoint(0, 1.5, CENTER))])
    assert not flat.strictly_increasing_t()


def test_cauchy_time_report_passes_and_replays(gamma2_zero):
    rep1 = cauchy_time_report(gamma2_zero, n_curves=25, seed=3)
    rep2 = cauchy_time_report(gamma2_zero, n_curves=25, seed=3)
    assert rep1 == rep2
    assert rep1["pass"] is True
    assert rep1["failures"] == 0
    assert len(rep1["curves"]) == 25
    for c in rep1["curves"]:
        assert c["monotone_t"] and c["decomposition_ok"]
        assert all(v == 1 for v in c["leaf_crossings"].values())


def test_cauchy_time_report_torus(torus_deformed):
    rep = cauchy_time_report(torus_deformed, n_curves=15, seed=5)
    assert rep["pass"] is True


def test_cauchy_time_report_catches_broken_leaves(examples):
    from btzgeo.builder import BuildSettings, build

    ex = examples["gamma2"]
    st_ = build(ex.deformed(25.0), ex.triangulation, BuildSettings(with_spears=False))
    broken = replace(st_, kappa=st_.kappa * 0.05)
    report = cauchy_time_report(broken, n_curves=40, seed=0)
    assert report["failures"] > 0
    assert report["pass"] is False


def test_diamond_sample_empty_when_unordered(gamma2_zero):
    p = ChartPoint(0, 2.0, CENTER)
    q = ChartPoint(0, 1.0, CENTER)
    out = diamond_sample(gamma2_zero, p, q, budget=64)
    assert out.kept == []
    assert "empty" in out.note


def test_diamond_sample_fiber_cases(gamma2_zero):
    arc = diamond_sample(gamma2_zero, FiberPoint("c1", 1.0), FiberPoint("c1", 2.0))
    assert arc.kept
    ts = [pt.t for pt in arc.kept]
    assert ts == sorted(ts)
    assert all(isinstance(pt, FiberPoint) and 1.0 < pt.t < 2.0 for pt in arc.kept)
    assert "axis" in arc.note

    other = diamond_sample(gamma2_zero, FiberPoint("c1", 1.0), FiberPoint("c2", 2.0))
    assert other.kept == []

    into_fiber = diamond_sample(
        gamma2_zero, ChartPoint(0, 1.0, CENTER), FiberPoint("c1", 2.0)
    )
    assert into_fiber.kept == []
    assert "no chart points" in into_fiber.note


def test_diamond_sample_chart_pair(gamma2_zero):
    st_ = gamma2_zero
    p = ChartPoint(0, 0.5, CENTER)
    q = ChartPoint(0, 2.5, CENTER)
    out = diamond_sample(st_, p, q, budget=512, seed=1)
    assert out.kept
    assert out.tried == 512
    dev_p, dev_q = develop(st_, p), develop(st_, q)
    orders = (CausalOrder.CHRONOLOGICAL, CausalOrder.CAUSAL_ONLY)
    for pt in out.kept:
        x = develop(st_, pt)
        assert causal_relation(dev_p, x) in orders
        assert causal_relation(x, dev_q) in orders
    # same stream, larger budget: the smaller sample is a strict prefix
    small = diamond_sample(st_, p, q, budget=256, seed=1)
    assert [pt.to_json() for pt in small.kept] == [
        pt.to_json() for pt in out.kept[: len(small.kept)]
    ]


def test_absent_and_unknown_fibers_are_rejected(torus_zero):
    chart = ChartPoint(0, 1.0, CENTER)
    for st_, puncture in ((strip_btz(torus_zero), "c1"), (torus_zero, "nowhere")):
        fiber = FiberPoint(puncture, 0.3)
        with pytest.raises(AbsentFiber):
            develop(st_, fiber)
        with pytest.raises(AbsentFiber):
            fiber_hop_is_causal(st_, fiber, chart)
        for steering in ("axis", "leave_axis"):
            with pytest.raises(AbsentFiber):
                trace_causal_curve(st_, fiber, t_stop=3.0, steering=steering)
        for p, q in ((fiber, chart), (chart, fiber)):
            with pytest.raises(AbsentFiber):
                diamond_sample(st_, p, q, budget=16)
    # re-attaching the fiber makes it traceable again
    extended, _ = extend_btz(strip_btz(torus_zero))
    curve = trace_causal_curve(
        extended, FiberPoint("c1", 0.3), t_stop=3.0, steering="leave_axis"
    )
    assert isinstance(curve.nodes[1].point, ChartPoint)


def test_diamond_sample_from_fiber(gamma2_zero):
    st_ = gamma2_zero
    p = FiberPoint("c1", 0.2)
    pg = st_.fans["c1"]
    entry = pg.fan[0]
    sx = st_.simplices[entry.triangle]
    alpha = np.full(3, 0.05)
    alpha[sx.vertices.index(pg.base_vertex)] = 0.9
    q = ChartPoint(entry.triangle, 60.0, alpha)
    out = diamond_sample(st_, p, q, budget=512, seed=2)
    assert out.kept
    for pt in out.kept:
        assert fiber_hop_is_causal(st_, p, pt)
