import math

import numpy as np
import pytest
from dataclasses import replace

from btzgeo.builder import dev_hat, dev_hat_jacobians, extend_btz, strip_btz
from btzgeo.causality import (
    AbsentFiber,
    CausalPolyline,
    ChartPoint,
    CurveNode,
    DecompositionViolation,
    FiberPoint,
    StuckAtSingularity,
    _clip_to_chart,
    _trace_lockstep,
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
from btzgeo.minkowski import CausalOrder, GeometryError, causal_relation, quadratic_form
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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ChartPoint(0, bad, CENTER)
        with pytest.raises(ValueError):
            FiberPoint("c1", bad)
    with pytest.raises(ValueError):
        ChartPoint(0, 1.0, np.array([math.nan, 0.5, 0.5]))
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
    for t_stop in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            trace_causal_curve(gamma2_zero, start, t_stop=t_stop)
    with pytest.raises(ValueError):
        trace_causal_curve(gamma2_zero, start, t_stop=1.0, max_steps=0)
    with pytest.raises(GeometryError, match="exhausted"):
        trace_causal_curve(gamma2_zero, start, t_stop=1.0, max_steps=2)


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


# Per-curve (nodes, rejected_proposals) of these two reports as the
# sequential one-curve-at-a-time tracer produced them.
PINNED_GAMMA2_ZERO_25_SEED3 = [
    (97, 166), (107, 172), (98, 150), (98, 168), (103, 177), (105, 185), (100, 170),
    (93, 177), (83, 290), (94, 166), (103, 193), (83, 271), (100, 169), (105, 178),
    (79, 321), (98, 155), (97, 188), (60, 358), (104, 168), (100, 233), (107, 177),
    (112, 223), (102, 168), (103, 168), (103, 182),
]
PINNED_TORUS_DEFORMED_15_SEED5 = [
    (97, 163), (99, 162), (97, 164), (95, 156), (103, 174), (69, 281), (95, 180),
    (109, 187), (102, 171), (104, 175), (102, 168), (100, 166), (106, 173), (101, 172),
    (106, 200),
]


@pytest.mark.parametrize("fixture, n_curves, seed, pinned", [
    ("gamma2_zero", 25, 3, PINNED_GAMMA2_ZERO_25_SEED3),
    ("torus_deformed", 15, 5, PINNED_TORUS_DEFORMED_15_SEED5),
])
def test_cauchy_time_report_matches_pinned_curves(request, fixture, n_curves, seed, pinned):
    rep = cauchy_time_report(request.getfixturevalue(fixture), n_curves=n_curves, seed=seed)
    assert [(c["nodes"], c["rejected_proposals"]) for c in rep["curves"]] == pinned


@pytest.mark.parametrize("lo, hi", [(-0.25, 1.0), (-0.25, 0.25), (-1.0, 1.0)])
def test_uniform_is_scaled_random_bit_for_bit(lo, hi):
    # The lockstep tracer reads its proposals from rng.random() buffers; the
    # traces stay those of per-proposal rng.uniform() draws only while numpy
    # keeps this identity.
    for seed in range(5):
        drawn = np.random.default_rng(seed).uniform(lo, hi, size=2000)
        scaled = lo + (hi - lo) * np.random.default_rng(seed).random(2000)
        assert np.array_equal(drawn, scaled)
        rng = np.random.default_rng(seed)
        scalars = [rng.uniform(lo, hi) for _ in range(50)]
        assert scalars == (lo + (hi - lo) * np.random.default_rng(seed).random(50)).tolist()


@pytest.mark.parametrize("kwargs", [
    {"n_curves": 0},
    {"n_curves": -1},
    {"t_start": 3.0, "t_stop": 2.0},
    {"t_start": 2.0, "t_stop": 2.0},
    {"t_start": math.nan},
    {"t_stop": math.nan},
    {"t_stop": math.inf},
    {"t_start": 0.0},
    {"t_start": -1.0, "t_stop": 2.0},
])
def test_cauchy_time_report_rejects_bad_input(gamma2_zero, kwargs):
    with pytest.raises(ValueError):
        cauchy_time_report(gamma2_zero, **kwargs)


@pytest.mark.parametrize(
    "fixture", ["gamma2_zero", "gamma2_deformed", "torus_zero", "torus_deformed"]
)
def test_lockstep_batch_matches_one_curve_traces(request, fixture):
    st_ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    starts = [
        ChartPoint(k % len(st_.simplices), 0.2 + 0.1 * k, rng.dirichlet(np.ones(3)))
        for k in range(6)
    ]
    seeds = [int(x) for x in rng.integers(2**32, size=len(starts))]
    batch = list(_trace_lockstep(st_, starts, seeds, t_stop=3.0))
    transitions = 0
    for start, seed, (nodes, rejected) in zip(starts, seeds, batch):
        alone = trace_causal_curve(st_, start, t_stop=3.0, seed=seed)
        assert [n.to_json() for n in alone.nodes] == [
            n.to_json() for n in [CurveNode(start)] + nodes
        ]
        assert alone.rejected_proposals == rejected
        transitions += sum(n.transition for n in nodes)
    assert transitions > 0  # the batch exercises face crossings


def _reference_clip(t0, dt, a0, a1):
    """Scalar clip of one chart step: (t1, a1, facet or None), or None if unusable."""
    t1 = t0 + dt
    if t1 <= 0:
        return None
    d = a1 - a0
    s_min, facet = 1.0, -1
    for i in range(3):
        if d[i] < 0 and a1[i] < 0 and a0[i] / -d[i] < s_min:
            s_min, facet = a0[i] / -d[i], i
    if facet < 0:
        return t1, a1, None
    if s_min < 1e-6:
        return None
    a1 = a0 + s_min * (a1 - a0)
    a1[facet] = 0.0
    t1 = t0 + s_min * dt
    if t1 <= 0 or sorted(a1)[1] < 1e-6:
        return None
    return t1, a1, facet


def test_clip_to_chart_matches_scalar_reference():
    rng = np.random.default_rng(4)
    a0 = rng.dirichlet(np.ones(3), size=(400, 1))
    a0[:100, 0, 0] = 1e-9  # stalls: a face hit at s < 1e-6
    # crossings that land near a corner, at each of the three corners
    a0[100:150, 0] = rng.permuted(np.tile([1 - 2e-7, 1e-7, 1e-7], (50, 1)), axis=1)
    a0[150:200, 0] = [0.5, 0.25, 0.25]  # two faces hit at once: a corner again
    a0 /= a0.sum(axis=-1, keepdims=True)
    da = rng.normal(size=(400, 4, 2)) * rng.choice([1e-3, 0.3, 2.0], size=(400, 4, 1))
    da[150:200, :, 1] = da[150:200, :, 0]
    t0 = np.broadcast_to(rng.uniform(0.1, 2.0, size=(400, 1)), (400, 4))
    dt = rng.uniform(-0.5, 1.0, size=(400, 4))
    a0 = np.broadcast_to(a0, (400, 4, 3))
    a1 = a0 + np.stack([-da[..., 0] - da[..., 1], da[..., 0], da[..., 1]], axis=-1)
    expect = [_reference_clip(t0[i], dt[i], a0[i], a1[i].copy()) for i in np.ndindex(dt.shape)]
    t1, usable, crossed, facet = _clip_to_chart(t0, dt, a0, a1)
    outcomes = set()
    for i, ref in zip(np.ndindex(dt.shape), expect):
        assert usable[i] == (ref is not None), i
        if ref is not None:
            assert (t1[i], a1[i].tolist()) == (ref[0], ref[1].tolist())
            assert (facet[i] if crossed[i] else None) == ref[2]
        outcomes.add("unusable" if ref is None else ("crossed" if crossed[i] else "inside"))
    assert outcomes == {"unusable", "crossed", "inside"}


def _sequential_trace(st_, start, t_stop, seed, alpha_step=0.4, cone_margin=1e-6,
                      band=1e-9):
    """Reference: the one-proposal-at-a-time random tracer, scalar throughout."""
    rng = np.random.default_rng(seed)
    nodes, rejected, cur = [CurveNode(start)], 0, start
    t_step = max((t_stop - cur.t) / 50.0, 1e-3)
    bias = rng.uniform(-1.0, 1.0, size=2)
    bias /= max(float(np.hypot(*bias)), 1e-12)
    scale = alpha_step

    def causal(t1, a1):
        t0, a0 = cur.t, cur.alpha
        step = np.array([t1 - t0, a1[1] - a0[1], a1[2] - a0[2]])
        s = np.linspace(0.0, 1.0, 3)
        ts = t0 + s * (t1 - t0)
        if not np.any(step) or np.any(ts <= 0):
            return False
        alphas = a0[None, :] + s[:, None] * (a1 - a0)[None, :]
        v = dev_hat_jacobians(st_.simplices[cur.simplex], ts, alphas, st_.kappa,
                              st_.blend) @ step
        bound = band * np.maximum(np.sum(v * v, axis=-1), 1.0) - cone_margin * v[:, 0] ** 2
        return bool(np.all((v[:, 0] > 0) & (quadratic_form(v) <= bound)))

    def attempt(dt, da):
        clipped = _reference_clip(cur.t, dt, cur.alpha, cur.alpha + np.array(
            [-da[0] - da[1], da[0], da[1]]))
        return clipped if clipped is not None and causal(*clipped[:2]) else None

    while cur.t < t_stop:
        accepted = None
        for k in range(8):
            if k % 4 == 3:
                dt = float(rng.uniform(-0.25, 0.25)) * t_step
                accepted = attempt(dt, rng.uniform(-1.0, 1.0, size=2) * alpha_step * t_step)
            else:
                dt = float(rng.uniform(-0.25, 1.0)) * t_step
                wobble = rng.uniform(-1.0, 1.0, size=2)
                accepted = attempt(dt, (0.7 * bias + 0.5 * wobble) * scale * max(dt, 0.0))
                scale = max(scale * 0.85, 0.02) if accepted is None else min(
                    scale * 1.25, 3.0 * alpha_step)
            if accepted is not None:
                break
            rejected += 1
        t1, alpha1, facet = accepted or (cur.t + t_step, cur.alpha, None)
        cur = ChartPoint(cur.simplex, t1, alpha1)
        nodes.append(CurveNode(cur))
        if facet is not None:
            cur = cross_face(st_, cur, facet)
            nodes.append(CurveNode(cur, transition=True))
    return nodes, rejected


def test_trace_matches_sequential_reference(gamma2_deformed, torus_zero):
    transitions = 0
    for st_ in (gamma2_deformed, torus_zero):
        for seed in range(3):
            start = ChartPoint(seed % len(st_.simplices), 0.2, np.array([0.5, 0.3, 0.2]))
            nodes, rejected = _sequential_trace(st_, start, 3.0, seed)
            curve = trace_causal_curve(st_, start, t_stop=3.0, seed=seed)
            assert [n.to_json() for n in curve.nodes] == [n.to_json() for n in nodes]
            assert curve.rejected_proposals == rejected
            transitions += sum(n.transition for n in nodes)
    assert transitions > 0


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
