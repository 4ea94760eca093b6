import hashlib
import math

import numpy as np
import pytest
from dataclasses import replace

from btzgeo.builder import (
    FaceMismatch, blend, blend_and_partials, chart_offsets, corner_residuals, dev_hat,
    dev_hat_jacobians, dev_hat_points, extend_btz, strip_btz, verify_face_equivariance,
)
from btzgeo import builder as builder_module
from btzgeo import causality
from btzgeo.causality import (
    AbsentFiber,
    CausalPolyline,
    ChartPoint,
    CurveNode,
    DecompositionViolation,
    FiberPoint,
    StuckAtSingularity,
    _clip_to_chart,
    _future_causal,
    _jacobians,
    _segments_are_causal,
    _tangents,
    _trace_lockstep,
    btz_decomposition,
    cauchy_time_report,
    cross_face,
    develop,
    fiber_hop_is_causal,
    segment_is_causal,
    trace_causal_curve,
    validate_polyline,
)
from btzgeo.minkowski import GeometryError, quadratic_form
from btzgeo.representations import builtin_examples
from btzgeo.serialize import canonical_dumps

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
    assert ChartPoint(1, 2.0, CENTER).to_json() == {
        "kind": "chart", "simplex": 1, "t": 2.0, "alpha": CENTER.tolist()}
    assert FiberPoint("c2", 0.5).to_json() == {"kind": "fiber", "puncture": "c2", "t": 0.5}


def test_develop(gamma2_zero):
    st_ = gamma2_zero
    fib = st_.fibers["c1"]
    fp = FiberPoint("c1", 0.7)
    assert develop(st_, fp) == pytest.approx(
        fib.line_point + (st_.kappa + 0.7) * fib.line_direction
    )
    cp = ChartPoint(0, 1.3, CENTER)
    assert develop(st_, cp) == pytest.approx(
        dev_hat(st_.charts[0][0], st_.charts[1][0], 1.3, CENTER, st_.kappa)
    )


def test_segment_is_causal_basics(gamma2_zero):
    st_ = gamma2_zero
    up = segment_is_causal(st_, 0, (1.0, CENTER), (1.5, CENTER))
    assert up
    assert not segment_is_causal(st_, 0, (1.0, CENTER), (1.0, CENTER))  # zero step
    assert not segment_is_causal(st_, 0, (1.5, CENTER), (1.0, CENTER))  # past
    side = np.array([0.8, 0.1, 0.1])
    assert not segment_is_causal(st_, 0, (1.0, CENTER), (1.0, side))  # spacelike
    # vertical and future-directed, so the tangent passes, but a sample is at t <= 0
    for t0, t1 in ((0.0, 1.0), (-1.0, 0.5), (-1.0, -0.2)):
        assert not segment_is_causal(st_, 0, (t0, CENTER), (t1, CENTER)), (t0, t1)


def test_cross_face_round_trip(request):
    # every facet of every simplex, so both sides of every gluing are crossed,
    # in one batched call there and one back
    for name in ("gamma2_zero", "gamma2_deformed", "torus_zero", "torus_deformed"):
        st_ = request.getfixturevalue(name)
        simplex, facet = (a.ravel() for a in np.indices((len(st_.triangulation.triangles), 3)))
        alpha = np.zeros((len(facet), 3))
        for row, f in zip(alpha, facet):
            row[[k for k in range(3) if k != f]] = (0.6, 0.4)
        t = np.full(len(facet), 1.1)
        other, other_alpha, bad = cross_face(st_, simplex, t, alpha, facet)
        assert not bad.any()
        assert np.array_equal(other, st_.triangulation.neighbour[simplex, facet])
        assert np.allclose(other_alpha.sum(axis=1), 1.0)
        back_facet = np.argmax(other_alpha == 0.0, axis=1)
        assert np.array_equal(back_facet, st_.triangulation.slot[simplex, facet, facet])
        back, back_alpha, bad = cross_face(st_, other, t, other_alpha, back_facet)
        assert not bad.any()
        assert np.array_equal(back, simplex)
        assert back_alpha == pytest.approx(alpha, abs=1e-12)


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


def test_trace_rejects_bad_steering(gamma2_zero, monkeypatch):
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
    monkeypatch.setattr(causality, "_MAX_STEPS", 2)
    with pytest.raises(GeometryError, match="exhausted 2 steps"):
        trace_causal_curve(gamma2_zero, start, t_stop=1.0)


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
    first = int(pg.triangles[0])
    alpha = np.full(3, 0.1)
    alpha[st_.triangulation.triangles[first].index(pg.base_vertex)] = 0.8
    fiber = FiberPoint("c1", 0.3)
    assert fiber_hop_is_causal(st_, fiber, ChartPoint(first, 50.0, alpha))
    assert not fiber_hop_is_causal(st_, fiber, ChartPoint(first, 0.3, alpha))


def _segment_by_segment(st_, curve):
    """validate_polyline's verdict on chart segments, one segment_is_causal call each."""
    bad = []
    for i, (a, b) in enumerate(zip(curve.nodes, curve.nodes[1:])):
        pa, pb = a.point, b.point
        if (not b.transition and isinstance(pa, ChartPoint) and isinstance(pb, ChartPoint)
                and (pa.simplex != pb.simplex or not segment_is_causal(
                    st_, pa.simplex, (pa.t, pa.alpha), (pb.t, pb.alpha)))):
            bad.append(i)
    return bad


@pytest.mark.parametrize(
    "fixture", ["gamma2_zero", "gamma2_deformed", "torus_zero", "torus_deformed"]
)
def test_validate_polyline_matches_segment_by_segment(fixture, request):
    st_ = request.getfixturevalue(fixture)
    for seed in range(3):
        curve = trace_causal_curve(
            st_, ChartPoint(0, 0.2, CENTER), t_stop=3.0, steering="random", seed=seed
        )
        assert validate_polyline(st_, curve) == _segment_by_segment(st_, curve) == []
        # tamper: run every other chart node backwards in time
        nodes = [
            replace(n, point=replace(n.point, t=5.0 - n.point.t)) if k % 2 else n
            for k, n in enumerate(curve.nodes)
        ]
        tampered = CausalPolyline(nodes)
        bad = validate_polyline(st_, tampered)
        assert bad and bad == _segment_by_segment(st_, tampered)


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


def _time_checks(t, transition, leaves) -> tuple[bool, list[int]]:
    """Whether node times t (n,) strictly increase, staying equal across the
    nodes flagged in transition (n,), and how often t crosses each leaf."""
    prev, nxt = t[:-1], t[1:]
    monotone = bool(np.all(np.where(transition[1:], nxt == prev, nxt > prev)))
    f = t - np.asarray(leaves, dtype=float)[:, None]
    return monotone, np.count_nonzero(f[:, :-1] * f[:, 1:] < 0, axis=1).tolist()


@pytest.mark.parametrize("t, transition", [
    ([0.5, 1.5, 1.5, 2.5], [False, False, True, False]),  # test_polyline_helpers' curve
    ([0.5, 0.7], [False, True]),  # a transition that jumps in t
    ([1.5, 1.5], [False, False]),  # a flat step that is no transition
    ([0.5, 1.0, 1.5], [False, False, False]),  # a node exactly on the leaf t = 1
    ([2.5, 1.5, 0.5], [False, False, False]),  # backwards
    ([0.7], [False]),
    ([], []),  # no nodes
])
def test_time_checks_match_polyline_helpers(t, transition):
    curve = CausalPolyline([CurveNode(ChartPoint(0, ti, CENTER), transition=tr)
                            for ti, tr in zip(t, transition)])
    leaves = [0.6, 1.0, 1.5, 2.0, 3.0]
    monotone, crossings = _time_checks(np.array(t), np.array(transition), leaves)
    assert monotone is curve.strictly_increasing_t()
    assert crossings == [curve.leaf_crossings(leaf) for leaf in leaves]
    assert _time_checks(np.array(t), np.array(transition), []) == (monotone, [])


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
    (114, 184), (102, 168), (103, 168), (103, 182),
]
PINNED_TORUS_DEFORMED_15_SEED5 = [
    (97, 163), (99, 162), (97, 164), (95, 156), (103, 174), (69, 281), (95, 180),
    (109, 187), (102, 171), (102, 169), (102, 168), (100, 166), (107, 177), (101, 172),
    (103, 196),
]


@pytest.mark.parametrize("fixture, n_curves, seed, pinned", [
    ("gamma2_zero", 25, 3, PINNED_GAMMA2_ZERO_25_SEED3),
    ("torus_deformed", 15, 5, PINNED_TORUS_DEFORMED_15_SEED5),
])
def test_cauchy_time_report_matches_pinned_curves(request, fixture, n_curves, seed, pinned):
    rep = cauchy_time_report(request.getfixturevalue(fixture), n_curves=n_curves, seed=seed)
    assert [(c["nodes"], c["rejected_proposals"]) for c in rep["curves"]] == pinned


# Per fixture, the sums of nodes and of rejected_proposals over the curves of
# cauchy_time_report(st, n_curves=100, seed=0), the size `btzgeo demo` runs.
PINNED_DEMO_SIZE_TOTALS = {
    "gamma2_zero": (9752, 20434),
    "gamma2_deformed": (9726, 20361),
    "torus_zero": (9842, 20257),
    "torus_deformed": (9796, 19808),
}


@pytest.mark.parametrize("fixture", sorted(PINNED_DEMO_SIZE_TOTALS))
def test_cauchy_time_report_matches_pinned_totals_at_demo_size(request, fixture):
    rep = cauchy_time_report(request.getfixturevalue(fixture), n_curves=100, seed=0)
    assert rep["pass"] is True
    totals = (sum(c["nodes"] for c in rep["curves"]),
              sum(c["rejected_proposals"] for c in rep["curves"]))
    assert totals == PINNED_DEMO_SIZE_TOTALS[fixture]


# The same sums for cauchy_time_report(st, n_curves=2, seed=7), the size of
# one op of the bench's cauchy_trace workload.
PINNED_BENCH_SIZE_TOTALS = {
    "gamma2_zero": (204, 340),
    "gamma2_deformed": (206, 339),
    "torus_zero": (199, 326),
    "torus_deformed": (201, 327),
}


@pytest.mark.parametrize("fixture", sorted(PINNED_BENCH_SIZE_TOTALS))
def test_cauchy_time_report_matches_pinned_totals_at_bench_size(request, fixture):
    rep = cauchy_time_report(request.getfixturevalue(fixture), n_curves=2, seed=7)
    assert rep["pass"] is True and all(c["pass"] for c in rep["curves"])
    totals = (sum(c["nodes"] for c in rep["curves"]),
              sum(c["rejected_proposals"] for c in rep["curves"]))
    assert totals == PINNED_BENCH_SIZE_TOTALS[fixture]


# sha256 of the canonical bytes of cauchy_time_report(st, n_curves=2, seed=7)
# and cauchy_time_report(st, n_curves=100, seed=0): every node count, rejection
# count, monotone_t and leaf_crossings entry of both sizes.
PINNED_REPORT_SHA256 = {
    "gamma2_zero": ("d29ceb7b5171e16b03b86bd741a5e8cd520963d6f1e9fc12449d240057007e18",
                    "0bf6bc9b5cae2a11507f7f1138f7ea55d3632db5f56641d507a218b43eaca1a3"),
    "gamma2_deformed": ("0cb6a52a46963c7ace76abb9185858b759087973222f06a0852a2e9fb1838d46",
                        "d5630c40427a02add7e7c07f3335e8baa3df66631b82bb44e88bcc2bd5f5f370"),
    "torus_zero": ("8d452684e06bb86a555379dc1a007e71ad15eabfa910d987d5376610c1658a59",
                   "f32b8d831f54479cc0a4c5c6d38a26e031cfcadb6163ff4cb112156332d46cbc"),
    "torus_deformed": ("c0d47bc23f8c18abead90e60676e5713b5a8ec288923791c2416c24ba2c02c2e",
                       "668db8f58fcd150a0a5b7384da48d138827a7a8190f5da1f4b3e4888886b647f"),
}


# sha256 of trace_causal_curve's whole node table, (simplex int64, t, alpha rows,
# transition) bytes in that order, from chart 1 at t = 0.2, alpha (0.02, 0.49,
# 0.49), to t_stop = 3.0 at seeds 3, 5 and 8, with each table's node and
# transition counts: the report pins read only t, transitions and counts, so
# these catch a node whose chart or alpha moves.
PINNED_NODE_TABLES = {
    "gamma2_zero": (
        ("382f265eabea2de78227cca5879361d99149d8be340b6442d05d6d5f6fe96a06", 105, 0),
        ("84661a6217d7071a34b01ee27f6f27952ae12e3ee52d634b24d18978180ce98c", 113, 1),
        ("c5ff18d2ee5ee09331e84882bd21032613814b8699ace40a6f5e3886d1327613", 185, 47)),
    "gamma2_deformed": (
        ("d9d3d61a06c12e7d813ab1d177687bbe7386325b16e2bbf136e9513c5a435dd9", 102, 0),
        ("602f63e473372457d536e3c2ed793a32d377ab7b10d7b5bf777b7a33ae24509a", 110, 1),
        ("34411aa654a6a198b866c928b0fd88617f75145af4e26a9fb30479665cc52f16", 183, 46)),
    "torus_zero": (
        ("4528982aa438c54a384cddc647be8e75bc0cb499f42c0c151bd2dafb99623fa8", 101, 0),
        ("d2b9fdbb684f3a2f44bf03f4f44f85094673011849a83e65057e8cc47d26bfc0", 115, 1),
        ("3ba4d2d99afba8cfb5c5b7039dd377b83b57465ad3615ba0945717bc2593f9e9", 154, 31)),
    "torus_deformed": (
        ("474a552aa9b518f09946171eae015915a4e97a78c6801098490db2ac44c3f55d", 98, 0),
        ("d306f98172deac667d3908b9a696dddbf6f1f9c0c19b6a803185f65ce99929c7", 116, 1),
        ("c5ec5c6381bb5009459eb216cdaef58ff109f085ef01603016587e97c8008f8f", 157, 32)),
}


@pytest.mark.parametrize("fixture", sorted(PINNED_NODE_TABLES))
def test_node_tables_are_pinned(request, fixture):
    st_ = request.getfixturevalue(fixture)
    start = ChartPoint(1, 0.2, np.array([0.02, 0.49, 0.49]))
    tables = []
    for seed in (3, 5, 8):
        nodes = trace_causal_curve(st_, start, 3.0, seed=seed).nodes
        digest = hashlib.sha256()
        for column in (np.array([n.point.simplex for n in nodes], dtype=np.int64),
                       np.array([n.point.t for n in nodes]),
                       np.array([n.point.alpha for n in nodes]),
                       np.array([n.transition for n in nodes])):
            digest.update(column.tobytes())
        tables.append((digest.hexdigest(), len(nodes), sum(n.transition for n in nodes)))
    assert tuple(tables) == PINNED_NODE_TABLES[fixture]


def _count_cross_face(monkeypatch):
    # the crossings handed to cross_face: (simplex, facet) per crossing
    seen = []
    kernel = causality.cross_face

    def counted(st_, simplex, t, alpha, facet):
        seen.extend(zip(np.asarray(simplex).tolist(), np.asarray(facet).tolist()))
        return kernel(st_, simplex, t, alpha, facet)
    monkeypatch.setattr(causality, "cross_face", counted)
    return seen


@pytest.mark.parametrize("fixture", sorted(PINNED_REPORT_SHA256))
def test_cauchy_time_report_bytes_are_pinned(request, fixture, monkeypatch):
    # every face of a reference build has a corner bound <= 1e-9, so no
    # crossing needs the developed check
    st_ = request.getfixturevalue(fixture)
    seen = _count_cross_face(monkeypatch)
    digests = tuple(
        hashlib.sha256(canonical_dumps(cauchy_time_report(st_, n_curves=n, seed=s)).encode())
        .hexdigest() for n, s in ((2, 7), (100, 0)))
    assert digests == PINNED_REPORT_SHA256[fixture]
    assert seen == []


def test_report_validates_no_chart_point_per_curve(gamma2_deformed, monkeypatch):
    # cauchy_time_report draws its starts into arrays and hands them to the
    # tracer as they are; it built and validated one ChartPoint per curve before
    post_init, calls = ChartPoint.__post_init__, []

    def counted(self):
        calls.append(self.simplex)
        post_init(self)
    monkeypatch.setattr(ChartPoint, "__post_init__", counted)
    assert cauchy_time_report(gamma2_deformed, n_curves=100, seed=0)["pass"] is True
    assert calls == []


def test_short_backward_step_is_not_causal(gamma2_deformed):
    # A clipped step of length ~2e-6 that goes back in t: an absolute band of
    # 1e-9 on Q(v) accepted it, and the report failed on the non-monotone curve.
    start = (1.4034952877835, [2.618532795559725e-06, 0.2345130128195352, 0.7654843686476691])
    end = (1.403495283932287, [0.0, 0.23451379787272328, 0.7654862021272766])
    assert not segment_is_causal(gamma2_deformed, 1, start, end)
    assert cauchy_time_report(gamma2_deformed, n_curves=2, seed=3757123044)["pass"] is True


# Kernel points of a 100-curve seed-0 report before the step tested only the
# samples its first-accept rule reads (mid and end of every start-passing proposal).
POINTS_AT_100_CURVES_BEFORE = {
    "gamma2_zero": 59847,
    "gamma2_deformed": 59628,
    "torus_zero": 60998,
    "torus_deformed": 61378,
}


def _count_kernel_work(monkeypatch):
    # lockstep passes (one _clip_to_chart call each), kernel calls and kernel points
    work = {"passes": 0, "calls": 0, "points": 0}
    clip, kernel = causality._clip_to_chart, causality.dev_hat_jacobians

    def step(*args):
        work["passes"] += 1
        return clip(*args)

    def call(*args):
        out = kernel(*args)
        work["calls"] += 1
        work["points"] += out[..., 0, 0].size
        return out
    monkeypatch.setattr(causality, "_clip_to_chart", step)
    monkeypatch.setattr(causality, "dev_hat_jacobians", call)
    return work


@pytest.mark.parametrize("fixture", sorted(PINNED_BENCH_SIZE_TOTALS))
def test_lockstep_carries_start_jacobians(request, fixture, monkeypatch):
    # A pass's one kernel call covers the later samples and the next pass's
    # starts; a failed candidate retries in the next pass, never in a second
    # call.  The only other call evaluates the first starts.
    st_ = request.getfixturevalue(fixture)
    work = _count_kernel_work(monkeypatch)
    rep = cauchy_time_report(st_, n_curves=2, seed=7)
    assert rep["pass"] is True and work["passes"] >= 50
    assert work["calls"] == work["passes"] + 1, work
    # at 100 curves only each curve's first untried start-passing proposal
    # has its later samples evaluated in a pass
    work.update(passes=0, calls=0, points=0)
    assert cauchy_time_report(st_, n_curves=100, seed=0)["pass"] is True
    assert work["calls"] == work["passes"] + 1, work
    assert work["points"] <= 0.4 * POINTS_AT_100_CURVES_BEFORE[fixture], work


def test_lockstep_takes_chart_offsets_once(gamma2_deformed, monkeypatch):
    # the spacetime took its chart offsets and corner residuals once, when it
    # was built: a report takes neither, and every kernel call reads the
    # spacetime's own offsets
    st_ = gamma2_deformed
    taken = []
    for name in ("chart_offsets", "corner_residuals"):
        def counted(*args, name=name, table=getattr(builder_module, name)):
            taken.append(name)
            return table(*args)
        monkeypatch.setattr(builder_module, name, counted)
    work = _count_kernel_work(monkeypatch)
    kernel = causality.dev_hat_jacobians

    def gathered(u, offsets, *args):
        assert u is st_.charts[0] and offsets is st_.offsets
        return kernel(u, offsets, *args)
    monkeypatch.setattr(causality, "dev_hat_jacobians", gathered)
    for n in (2, 100):
        work.update(passes=0, calls=0)
        assert cauchy_time_report(st_, n_curves=n, seed=7)["pass"] is True
        assert taken == [] and work["calls"] == work["passes"] + 1 >= 50, (taken, work)


def test_lockstep_retries_carry_fresh_start_jacobians(gamma2_deformed, monkeypatch):
    # One curve whose trace has a candidate failing at its midpoint, so the
    # curve holds and the next pass accepts a later proposal of the same draw,
    # vertical fallbacks and a face crossing: every start the tracer carries
    # into a pass, whether an accepted end, a folded crossing, a held start or
    # a fallback, has the bits of a fresh kernel call there.
    st_ = gamma2_deformed
    start_passes, later_samples = causality._start_passes, causality._later_samples
    passes = []  # per pass: the proposals' ends (t1, a1), then the later-sample call
    starts = []  # per pass: the carried start Jacobians and the start (t0, a0)

    def checked_start(start, t0, a0, t1, a1, margin):
        starts.append((start.copy(), t0.copy(), a0.copy()))
        passes.append([t1.copy(), a1.copy()])
        return start_passes(start, t0, a0, t1, a1, margin)

    def logged_later(st, simplex, t0, a0, t1, a1, margin, extra=()):
        out = later_samples(st, simplex, t0, a0, t1, a1, margin, extra)
        passes[-1].append((simplex, t0, a0, t1, a1, out[0]))
        return out
    monkeypatch.setattr(causality, "_start_passes", checked_start)
    monkeypatch.setattr(causality, "_later_samples", logged_later)
    curve = trace_causal_curve(st_, ChartPoint(1, 0.2, np.array([0.02, 0.49, 0.49])), 3.0,
                               seed=5)
    seen = {"mid_fails_then_later_accepted": 0, "fallback": 0, "held": 0,
            "crossing": sum(n.transition for n in curve.nodes)}
    for (ends, ends_a, cand), (again, again_a, retry) in zip(passes, passes[1:]):
        simplex, t0, a0, t1, a1, ok = cand
        if not len(t1):
            seen["fallback"] += 1  # no start-passing proposal: only the fallback start
            continue
        if ok[0]:
            continue
        # a held curve redraws the same proposals from the same start
        seen["held"] += 1
        assert again.tobytes() == ends.tobytes() and again_a.tobytes() == ends_a.tobytes()
        assert retry[1].tobytes() == t0.tobytes() and retry[2].tobytes() == a0.tobytes()
        if not (len(retry[3]) and retry[5][0]):
            continue

        def column(t_end, a_end):  # the proposal a candidate is
            return [k for k in range(8)
                    if ends[0, k] == t_end[0] and np.array_equal(ends_a[:, 0, k], a_end[:, 0])][0]
        assert column(retry[3], retry[4]) > column(t1, a1)
        mid = _jacobians(st_, simplex, t0 + 0.5 * (t1 - t0), a0 + 0.5 * (a1 - a0))
        seen["mid_fails_then_later_accepted"] += int(
            not _future_causal(_tangents(mid, t1 - t0, (a1 - a0)[1:]), 1e-6)[0])
    assert all(seen.values()), seen
    # a pass is a step of the curve unless it held the curve
    assert len(passes) == sum(not n.transition for n in curve.nodes[1:]) + seen["held"]
    # each pass starts from the curve's latest node, which is not followed by a
    # transition node, and a held pass from the same node again
    points = [a.point for a, b in zip(curve.nodes, curve.nodes[1:]) if not b.transition]
    k = 0
    for (start, t0, a0), (_, _, (_, _, _, t1, _, ok)) in zip(starts, passes):
        point = points[k]
        assert (t0.item(), a0.ravel().tolist()) == (point.t, point.alpha.tolist())
        fresh = _jacobians(st_, np.array([[point.simplex]]), t0, a0)
        assert start.tobytes() == fresh.tobytes()
        k += not (len(t1) and not ok[0])
    assert k == len(points)
    monkeypatch.undo()
    assert validate_polyline(st_, curve) == []


def _start_arrays(starts):
    """Chart points as the start arrays of _trace_lockstep: simplex, t and alpha rows."""
    return (np.array([p.simplex for p in starts]), np.array([p.t for p in starts]),
            np.array([p.alpha for p in starts]))


def _component_first(x):
    """A view of x with its trailing component axis moved first, as the tracer stores it."""
    return np.moveaxis(x, -1, 0)


def test_max_steps_counts_steps_per_curve(gamma2_deformed, monkeypatch):
    # _MAX_STEPS bounds each curve's completed steps, not the passes of a
    # batch: a held pass is not a step, so a curve whose retries make its
    # passes exceed the bound still finishes, and the first curve that needs
    # more steps raises the error its one-curve trace raises.
    st_ = gamma2_deformed
    rng = np.random.default_rng(11)
    starts = [ChartPoint(k % 2, 0.2, rng.dirichlet(np.ones(3))) for k in range(6)]
    seeds = [int(x) for x in rng.integers(2**32, size=len(starts))]
    full, nodes, rejected = _trace_lockstep(st_, *_start_arrays(starts), seeds, t_stop=3.0)
    ends = np.cumsum(nodes)
    # a curve's steps are its nodes that are neither its start nor a transition
    steps = [int(np.count_nonzero(~transition)) - 1
             for transition in np.split(full[3], ends[:-1])]
    work = _count_kernel_work(monkeypatch)
    passes = []
    for start, seed in zip(starts, seeds):
        work["passes"] = 0
        trace_causal_curve(st_, start, t_stop=3.0, seed=seed)
        passes.append(work["passes"])
    held = [i for i in range(len(starts)) if passes[i] > steps[i]]
    assert held, (steps, passes)
    retried = min(held, key=steps.__getitem__)
    limit = steps[retried]
    over = [i for i in range(len(starts)) if steps[i] > limit]
    assert over, steps
    monkeypatch.setattr(causality, "_MAX_STEPS", limit)
    # a batch of the curves that need no more steps, the retried one included,
    # finishes as in the full run
    fit = [i for i in range(len(starts)) if i not in over]
    table, sizes, rejections = _trace_lockstep(
        st_, *_start_arrays([starts[i] for i in fit]), [seeds[i] for i in fit], t_stop=3.0)
    rows = np.concatenate([np.arange(ends[i] - nodes[i], ends[i]) for i in fit])
    assert [x.tobytes() for x in table] == [x[rows].tobytes() for x in full]
    assert sizes.tolist() == nodes[fit].tolist()
    assert rejections.tolist() == rejected[fit].tolist()
    message = f"tracer exhausted {limit} steps below t_stop"
    with pytest.raises(GeometryError, match=message):
        _trace_lockstep(st_, *_start_arrays(starts), seeds, t_stop=3.0)
    with pytest.raises(GeometryError, match=message):
        trace_causal_curve(st_, starts[over[0]], t_stop=3.0, seed=seeds[over[0]])
    curve = trace_causal_curve(st_, starts[retried], t_stop=3.0, seed=seeds[retried])
    assert curve.nodes[-1].point.t >= 3.0 and passes[retried] > limit


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
    {"leaves": (math.nan,)},
    {"leaves": (0.5, math.inf)},
    {"leaves": (0.0,)},
    {"leaves": (1.0, -2.0)},
    {"leaves": ()},
    {"leaves": (9.0,)},
    {"leaves": (0.5, 4.0)},
    {"n_curves": True},
    {"n_curves": 2.5},
    {"n_curves": "3"},
    {"n_curves": np.bool_(True)},
    {"seed": 2.5},
    {"seed": False},
    {"seed": -1},
])
def test_cauchy_time_report_rejects_bad_input(gamma2_zero, kwargs):
    named = [k for k in ("n_curves", "seed") if k in kwargs]  # the error names the bad argument
    with pytest.raises(ValueError, match="|".join(named) or None):
        cauchy_time_report(gamma2_zero, **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"t_start": True},
    {"t_start": np.bool_(True)},
    {"t_stop": "4"},
    {"leaves": (1.5, None)},
    {"leaves": (True,)},
    {"leaves": 0.5},
    {"leaves": "1"},
])
def test_cauchy_time_report_rejects_non_real_times(gamma2_zero, kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        cauchy_time_report(gamma2_zero, **kwargs)


def test_cauchy_time_report_stores_floats(gamma2_zero):
    rep = cauchy_time_report(gamma2_zero, n_curves=2, seed=7, t_start=np.float64(0.2), t_stop=4,
                             leaves=[0.5, 1, np.int64(2)])
    assert rep == cauchy_time_report(gamma2_zero, n_curves=2, seed=7)
    assert type(rep["t_stop"]) is float and [type(x) for x in rep["leaves"]] == [float] * 3
    assert list(rep["curves"][0]["leaf_crossings"]) == ["0.5", "1.0", "2.0"]


@pytest.mark.parametrize("bad", [True, False, "1", None, 1j])
def test_points_and_t_stop_reject_non_real_times(gamma2_zero, bad):
    # the rule of cauchy_time_report: a bool or a non-real is a ValueError, not
    # a stored True or a raw TypeError from math.isfinite
    start = ChartPoint(0, 0.2, CENTER)
    with pytest.raises(ValueError, match="chart t must be a real number"):
        ChartPoint(0, bad, CENTER)
    with pytest.raises(ValueError, match="fiber t must be a real number"):
        FiberPoint("c1", bad)
    with pytest.raises(ValueError, match="t_stop must be a real number"):
        trace_causal_curve(gamma2_zero, start, t_stop=bad)


def test_points_store_times_as_floats(gamma2_zero):
    for t in (1, np.int64(1), np.float64(1.0), np.float32(1.0)):
        point = ChartPoint(0, t, CENTER)
        assert type(point.t) is float and point.to_json()["t"] == 1.0
        assert type(FiberPoint("c1", t).t) is float
    start = ChartPoint(0, 0.2, CENTER)
    curve = trace_causal_curve(gamma2_zero, start, t_stop=np.int64(1), seed=3)
    want = trace_causal_curve(gamma2_zero, start, t_stop=1.0, seed=3)
    assert [n.to_json() for n in curve.nodes] == [n.to_json() for n in want.nodes]
    assert type(curve.nodes[-1].point.t) is float


def test_cauchy_time_report_takes_numpy_integers(gamma2_zero):
    rep = cauchy_time_report(gamma2_zero, n_curves=np.int64(2), seed=np.uint32(7))
    assert rep == cauchy_time_report(gamma2_zero, n_curves=2, seed=7)
    assert type(rep["n_curves"]) is int and type(rep["seed"]) is int


@pytest.mark.parametrize(
    "fixture", ["gamma2_zero", "gamma2_deformed", "torus_zero", "torus_deformed"]
)
def test_lockstep_batch_matches_one_curve_traces(request, fixture):
    st_ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    starts = [
        ChartPoint(k % len(st_.triangulation.triangles), 0.2 + 0.1 * k, rng.dirichlet(np.ones(3)))
        for k in range(6)
    ]
    seeds = [int(x) for x in rng.integers(2**32, size=len(starts))]
    (simplex, t, alpha, transition), sizes, rejected = _trace_lockstep(
        st_, *_start_arrays(starts), seeds, t_stop=3.0)
    rows = np.split(np.arange(len(t)), np.cumsum(sizes)[:-1])  # each curve's, start first
    transitions = 0
    for start, seed, at, rej in zip(starts, seeds, rows, rejected.tolist()):
        nodes = [CurveNode(ChartPoint(int(simplex[i]), float(t[i]), alpha[i]),
                           transition=bool(transition[i])) for i in at]
        alone = trace_causal_curve(st_, start, t_stop=3.0, seed=seed)
        assert [n.to_json() for n in alone.nodes] == [n.to_json() for n in nodes]
        assert alone.rejected_proposals == rej
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
    assert _clip_outcomes(t0, dt, a0, a1) == {"unusable", "crossed", "inside"}
    # a batch with no negative end weight, so no step crosses; starts per row
    # as the tracer passes them
    a0 = 0.8 * rng.dirichlet(np.ones(3), size=(100, 1)) + 0.2 / 3
    da = rng.uniform(-0.03, 0.03, size=(100, 8, 2))
    a1 = a0 + np.stack([-da[..., 0] - da[..., 1], da[..., 0], da[..., 1]], axis=-1)
    t0, dt = rng.uniform(0.1, 2.0, size=(100, 1)), rng.uniform(-2.5, 1.0, size=(100, 8))
    assert not (a1 < 0).any()
    assert _clip_outcomes(t0, dt, a0, a1) == {"unusable", "inside"}


def _clip_outcomes(t0, dt, a0, a1):
    """_clip_to_chart against _reference_clip per step; the outcomes seen."""
    t0b, a0b = np.broadcast_to(t0, dt.shape), np.broadcast_to(a0, a1.shape)
    expect = [_reference_clip(t0b[i], dt[i], a0b[i], a1[i].copy()) for i in np.ndindex(dt.shape)]
    # the component-first view of a1 is clipped in place, so a1 reads the ends
    t1, usable, crossed, facet = _clip_to_chart(t0, dt, _component_first(a0), _component_first(a1))
    outcomes = set()
    for i, ref in zip(np.ndindex(dt.shape), expect):
        assert usable[i] == (ref is not None), i
        if ref is not None:
            assert (t1[i], a1[i].tolist()) == (ref[0], ref[1].tolist())
            assert (facet[i] if crossed[i] else None) == ref[2]
        outcomes.add("unusable" if ref is None else ("crossed" if crossed[i] else "inside"))
    return outcomes


def _sequential_trace(st_, start, t_stop, seed):
    """Reference: the one-proposal-at-a-time random tracer, scalar throughout."""
    alpha_step, cone_margin, band = 0.4, 1e-6, 1e-9
    rng = np.random.default_rng(seed)
    nodes, rejected, cur = [CurveNode(start)], 0, start
    t_step = max((t_stop - cur.t) / 50.0, 1e-3)
    offsets = chart_offsets(*st_.charts, st_.kappa)
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
        v = dev_hat_jacobians(st_.charts[0], offsets, cur.simplex, ts, alphas) @ step
        bound = band * np.sum(v * v, axis=-1) - cone_margin * v[:, 0] ** 2
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
            (nbr,), (alpha_new,), (bad,) = cross_face(
                st_, np.array([cur.simplex]), np.array([cur.t]), cur.alpha[None],
                np.array([facet]))
            assert not bad
            cur = ChartPoint(nbr, cur.t, alpha_new)
            nodes.append(CurveNode(cur, transition=True))
    return nodes, rejected


def test_trace_matches_sequential_reference(gamma2_deformed, torus_zero):
    transitions = 0
    for st_ in (gamma2_deformed, torus_zero):
        for seed in range(3):
            start = ChartPoint(seed % len(st_.charts[0]), 0.2, np.array([0.5, 0.3, 0.2]))
            nodes, rejected = _sequential_trace(st_, start, 3.0, seed)
            curve = trace_causal_curve(st_, start, t_stop=3.0, seed=seed)
            assert [n.to_json() for n in curve.nodes] == [n.to_json() for n in nodes]
            assert curve.rejected_proposals == rejected
            transitions += sum(n.transition for n in nodes)
    assert transitions > 0


def test_face_mismatch_is_caught(gamma2_zero):
    # one glued face, both of its table entries, moved off by a translation
    st_ = gamma2_zero
    tri = st_.triangulation
    assert verify_face_equivariance(st_) == st_.certification.equivariance_residual
    i, k = tri.left[0]
    nbr, back = tri.neighbour[i, k], tri.slot[i, k, k]
    m, b = st_.gluing
    b = b.copy()
    b[i, k, 1] += 1e-3
    b[nbr, back, 1] -= 1e-3
    broken = replace(st_, gluing=(m, b))
    with pytest.raises(FaceMismatch):
        verify_face_equivariance(broken)
    assert cauchy_time_report(st_, n_curves=20)["pass"]
    with pytest.raises(GeometryError,
                       match=f"mismatch between charts ({i} and {nbr}|{nbr} and {i})$"):
        cauchy_time_report(broken, n_curves=20)


def test_face_bound_above_tolerance_takes_the_developed_check(gamma2_zero, monkeypatch):
    # one glued face, both of its table entries, moved off by 5e-9: its corner
    # bound exceeds 1e-9, so its crossings go through cross_face, whose 1e-8
    # tolerance passes them, and the report keeps every byte
    st_ = gamma2_zero
    tri = st_.triangulation
    i, k = tri.left[0]
    nbr, back = tri.neighbour[i, k], tri.slot[i, k, k]
    m, b = st_.gluing
    b = b.copy()
    b[i, k, 1] += 5e-9
    b[nbr, back, 1] -= 5e-9
    shifted = replace(st_, gluing=(m, b))
    seen = _count_cross_face(monkeypatch)
    expect = cauchy_time_report(st_, n_curves=20)
    assert seen == [] and expect["pass"] is True
    assert cauchy_time_report(shifted, n_curves=20) == expect
    assert seen and set(seen) <= {(i, k), (nbr, back)}, seen


def test_face_bound_scales_the_corner_residual_by_t_plus_kappa(gamma2_zero, monkeypatch):
    # every corner decoration of chart 0 moved by 9e-10, so t du <= 1e-9 at
    # every crossing below t = 1.1 but (t + kappa) du > 1e-9 (kappa = 1): the
    # kappa term alone sends those crossings to cross_face, which passes them
    st_ = gamma2_zero
    u, p = st_.charts
    u = u.copy()
    u[0, :, 1] += 9e-10
    moved = replace(st_, charts=(u, p))
    assert st_.kappa == 1.0
    seen = _count_cross_face(monkeypatch)
    report = cauchy_time_report(moved, n_curves=40, t_stop=1.0, leaves=(0.5,))
    assert report["pass"] is True and seen


def test_starts_outside_the_charts_are_named(gamma2_zero):
    starts = [ChartPoint(1, 0.2, CENTER), ChartPoint(5, 0.2, CENTER), ChartPoint(2, 0.2, CENTER)]
    with pytest.raises(ValueError, match=r"^chart simplex 5 is outside \[0, 2\)$"):
        _trace_lockstep(gamma2_zero, *_start_arrays(starts), [0, 1, 2], 1.0)


def test_curves_time_checks_match_per_curve_checks():
    # one array pass over stacked curves gives _time_checks of each curve; no
    # node pair across two curves counts, though each such pair here goes
    # back in t and most cross leaves
    leaves = [0.5, 1.0, 2.0]
    t = [[0.2, 0.6, 1.2, 2.5], [0.3], [0.2, 0.7, 0.7, 0.4, 1.1], [0.3, 3.0], [0.1, 0.1]]
    transition = [[False] * 4, [False], [False, False, True, False, False], [False] * 2,
                  [False, True]]
    rng = np.random.default_rng(8)
    for size in (1, 2, 30, 60, 3):
        steps = rng.choice([-0.3, 0.0, 0.2, 0.5], size=size, p=[0.05, 0.15, 0.5, 0.3])
        t.append(0.1 + np.abs(np.cumsum(steps)))
        transition.append(np.r_[False, steps[1:] == 0.0] ^ (rng.random(size) < 0.05))
    t, transition = ([np.asarray(x, dtype=x_type) for x in xs]
                     for xs, x_type in ((t, float), (transition, bool)))
    monotone, counts = causality._curves_time_checks(
        np.concatenate(t), np.concatenate(transition), np.array([len(x) for x in t]), leaves)
    expect = [_time_checks(ti, tr, leaves) for ti, tr in zip(t, transition)]
    assert list(zip(monotone.tolist(), counts.tolist())) == expect
    assert expect[:5] == [(True, [1, 1, 1]), (True, [0, 0, 0]), (False, [3, 1, 0]),
                          (True, [1, 1, 1]), (True, [0, 0, 0])]


def test_cauchy_time_report_catches_broken_leaves(examples):
    from btzgeo.builder import BuildSettings, build

    ex = examples["gamma2"]
    st_ = build(ex.deformed(25.0), ex.triangulation, BuildSettings())
    broken = replace(st_, kappa=st_.kappa * 0.05)
    report = cauchy_time_report(broken, n_curves=40, seed=0)
    assert report["failures"] > 0
    assert report["pass"] is False


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
    # re-attaching the fiber makes it traceable again
    extended, _ = extend_btz(strip_btz(torus_zero))
    curve = trace_causal_curve(
        extended, FiberPoint("c1", 0.3), t_stop=3.0, steering="leave_axis"
    )
    assert isinstance(curve.nodes[1].point, ChartPoint)


FIXTURES = ["gamma2_zero", "gamma2_deformed", "torus_zero", "torus_deformed"]


def _kernel_points(st_, rng, n=60):
    """(simplex, t, alpha): random, plateau, seam, vertex and centre points of every chart."""
    seam = 2.0 / 3.0
    below = np.nextafter(seam, 0.0)
    corners = [(1.0, 0.0, 0.0), (0.8, 0.1, 0.1), (seam, 1.0 - seam, 0.0),
               (seam, 1.0 / 6.0, 1.0 / 6.0), (below, 0.1, 0.9 - below)]
    special = [np.roll(c, k) for c in corners for k in range(3)] + [CENTER]
    alpha = np.concatenate([rng.dirichlet(np.ones(3), size=n), special])
    n_charts = len(st_.charts[0])
    alpha = np.tile(alpha, (n_charts, 1))
    simplex = np.repeat(np.arange(n_charts), len(alpha) // n_charts)
    return simplex, rng.uniform(0.1, 4.0, size=len(alpha)), alpha


def _per_simplex_points(u, p, t, alpha, kappa):
    """dev_hat_points as it was before the charts were stacked: one chart, t (n,)."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(alpha, dtype=float)
    phi = blend(a)
    return (t[:, None] * phi + kappa * a) @ u + a @ p


def _per_simplex_jacobians(u, p, t, alpha, kappa):
    """dev_hat_jacobians as it was before the charts were stacked: one chart, t (n,)."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(alpha, dtype=float)
    phi, dphi = blend_and_partials(a)
    col_t = phi @ u
    d_a = dphi[:, :, 1] - dphi[:, :, 0]
    d_b = dphi[:, :, 2] - dphi[:, :, 0]
    col_a = t[:, None] * (d_a @ u) + kappa * (u[1] - u[0]) + (p[1] - p[0])
    col_b = t[:, None] * (d_b @ u) + kappa * (u[2] - u[0]) + (p[2] - p[0])
    return np.stack([col_t, col_a, col_b], axis=-1)


def _one_chart_at_a_time(kernel, st_, simplex, t, alpha):
    """A per-simplex kernel over broadcast (simplex, t, alpha), grouped by chart."""
    shape = np.broadcast_shapes(np.shape(simplex), np.shape(t), np.shape(alpha)[:-1])
    sim = np.broadcast_to(simplex, shape).ravel()
    t = np.broadcast_to(t, shape).ravel()
    alpha = np.broadcast_to(alpha, shape + (3,)).reshape(-1, 3)
    parts = {k: kernel(u, p, t[sim == k], alpha[sim == k], st_.kappa)
             for k, (u, p) in enumerate(zip(*st_.charts))}
    out = np.empty((len(sim),) + parts[0].shape[1:])
    for k, part in parts.items():
        out[sim == k] = part
    return out.reshape(shape + out.shape[1:])


@pytest.mark.parametrize("fixture", FIXTURES)
def test_stacked_kernels_bit_equal_to_per_simplex_kernels(request, fixture):
    st_ = request.getfixturevalue(fixture)
    u, p = st_.charts
    rng = np.random.default_rng(23)
    simplex, t, alpha = _kernel_points(st_, rng)
    n, lanes = len(t), 12
    charts = np.arange(len(u))
    cases = [
        (simplex, t, alpha),  # simplex (n,)
        (charts[:, None], t, alpha),  # (S, 1) against the whole grid
        # (L, 1) against (L, 8): one start per lane, 8 proposals each
        (simplex[:lanes, None], t[:lanes, None] + rng.uniform(0.0, 1.0, size=(lanes, 8)),
         alpha[rng.integers(n, size=(lanes, 8))]),
        # (S, 1, 1) x (T, 1) x (G, 3): t widens the batch, as in certification
        (charts[:, None, None], t[:lanes, None], alpha),
    ]

    def points(*args):
        return dev_hat_points(u, p, *args, st_.kappa)

    def jacobians(*args):
        return dev_hat_jacobians(u, st_.offsets, *args)

    for sim, ts, alphas in cases:
        for kernel, reference in ((points, _per_simplex_points),
                                  (jacobians, _per_simplex_jacobians)):
            got = kernel(sim, ts, alphas)
            want = _one_chart_at_a_time(reference, st_, sim, ts, alphas)
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(got).tobytes() == want.tobytes()
        dets = np.linalg.det(jacobians(sim, ts, alphas))
        assert dets.tobytes() == np.linalg.det(
            _one_chart_at_a_time(_per_simplex_jacobians, st_, sim, ts, alphas)).tobytes()
    # the broadcast call has the bytes of the flat call on repeated t and tiled alpha
    wide = jacobians(charts[:, None, None], t[:lanes, None], alpha)
    flat = jacobians(charts[:, None], np.repeat(t[:lanes], n), np.tile(alpha, (lanes, 1)))
    assert np.ascontiguousarray(wide).tobytes() == np.ascontiguousarray(flat).tobytes()
    # simplex (): one point of one chart
    for k in range(0, n, 7):
        args = (int(simplex[k]), float(t[k]), alpha[k])
        chart = u[args[0]], p[args[0]]
        assert dev_hat_points(u, p, *args, st_.kappa).tobytes() == _per_simplex_points(
            *chart, t[k:k + 1], alpha[k:k + 1], st_.kappa)[0].tobytes()
        assert np.ascontiguousarray(jacobians(*args)).tobytes() == (
            _per_simplex_jacobians(*chart, t[k:k + 1], alpha[k:k + 1], st_.kappa)[0]
            .tobytes())


@pytest.mark.parametrize("fixture", FIXTURES)
def test_precomputed_offsets_keep_kernel_bytes(request, fixture):
    # a spacetime derives its kernel tables on construction: read-only, with
    # the bits of chart_offsets and corner_residuals, and rebuilt by replace
    # after a change to kappa, charts or gluing, so the kernel reading the
    # offsets keeps the per-simplex reference's bytes at the new kappa
    st_ = request.getfixturevalue(fixture)
    (u, p), (m, b) = st_.charts, st_.gluing
    u, b = u.copy(), b.copy()
    u[0, :, 1] += 1e-3
    b[0, 0, 1] += 1e-3
    simplex, t, alpha = _kernel_points(st_, np.random.default_rng(24))
    for case, moved in ((st_, ()), (replace(st_, kappa=2.0 * st_.kappa), ("offsets",)),
                        (replace(st_, charts=(u, p)), ("offsets", "residuals")),
                        (replace(st_, gluing=(m, b)), ("residuals",))):
        for name, want in (("offsets", chart_offsets(*case.charts, case.kappa)),
                           ("residuals", corner_residuals(case))):
            got = getattr(case, name)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
            assert [x.shape for x in got] == [x.shape for x in want]
            assert not any(x.flags.writeable for x in got)
            assert (got is not getattr(st_, name)) is (case is not st_)
            same = [x.tobytes() for x in got] == [x.tobytes() for x in getattr(st_, name)]
            assert same is (name not in moved), (name, moved)
        with pytest.raises(ValueError, match="read-only"):
            case.offsets[0][0] = 0.0
        got = dev_hat_jacobians(case.charts[0], case.offsets, simplex, t, alpha)
        want = _one_chart_at_a_time(_per_simplex_jacobians, case, simplex, t, alpha)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fixture", FIXTURES)
def test_kernel_tangents_match_dev_hat_jacobians(request, fixture):
    st_ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(21)
    simplex, t, alpha = _kernel_points(st_, rng)
    step = rng.normal(size=(len(t), 3))
    v = _tangents(_jacobians(st_, simplex, t, alpha.T), step[:, 0], step[:, 1:].T).T
    for k, (u, p) in enumerate(zip(*st_.charts)):
        m = simplex == k
        jac = _per_simplex_jacobians(u, p, t[m], alpha[m], st_.kappa)
        scale = (np.abs(jac) @ np.abs(step[m])[:, :, None])[..., 0].max(axis=-1, keepdims=True)
        assert np.all(np.abs(v[m] - (jac @ step[m][:, :, None])[..., 0]) <= 1e-12 * scale)


def _unpruned(st_, simplex, t0, a0, t1, a1, margin):
    """Every sample of every segment evaluated, as before the start-sample pruning."""
    s = np.linspace(0.0, 1.0, 3)
    dt, d = t1 - t0, a1 - a0
    ts = t0[..., None] + s * dt[..., None]
    alphas = a0[..., None, :] + s[:, None] * d[..., None, :]
    v = _tangents(_jacobians(st_, simplex[..., None], ts, _component_first(alphas)),
                  dt[..., None], _component_first(d[..., None, 1:]))
    ok = ((dt != 0) | np.any(d[..., 1:] != 0, axis=-1)) & ~np.any(ts <= 0, axis=-1)
    return ok & np.all(_future_causal(v, margin), axis=-1), _future_causal(v, margin)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_kernel_broadcast_start_and_pruning_keep_decisions(request, fixture):
    st_ = request.getfixturevalue(fixture)

    def jacobians(simplex, t, alpha):
        return _jacobians(st_, simplex, t, _component_first(alpha))

    rng = np.random.default_rng(22)
    simplex, t, alpha = _kernel_points(st_, rng)
    lanes = len(t)
    # tracer-like proposals: dt of either sign, transverse moves across scales
    dt = rng.uniform(-0.25, 1.0, size=(lanes, 8)) * rng.choice([0.01, 0.1, 1.0], size=(lanes, 1))
    da = (rng.normal(size=(lanes, 8, 2)) * rng.choice([0.01, 0.3, 3.0], size=(lanes, 8, 1))
          * np.abs(dt)[..., None])
    t0, a0 = t[:, None], alpha[:, None, :]
    a1 = a0 + np.stack([-da[..., 0] - da[..., 1], da[..., 0], da[..., 1]], axis=-1)
    a0_first, a1_first = _component_first(a0), _component_first(a1)
    t1, _, _, _ = _clip_to_chart(np.broadcast_to(t0, dt.shape), dt,
                                 np.broadcast_to(a0_first, a1_first.shape), a1_first)
    for margin in (1e-6, 0.0):
        got = _segments_are_causal(st_, simplex[:, None], t0, a0_first, t1, a1_first,
                                   margin=margin)
        # the same start repeated per proposal: the same bits
        rep = [np.repeat(x, 8, axis=1) for x in (simplex[:, None], t0, a0)]
        assert np.array_equal(got, _segments_are_causal(st_, rep[0], rep[1],
                                                        _component_first(rep[2]), t1, a1_first,
                                                        margin=margin))
        da = _component_first((a1 - a0)[..., 1:])
        v_start = _tangents(jacobians(simplex[:, None], t0, a0), t1 - t0, da)
        v_rep = _tangents(jacobians(*rep), t1 - t0, da)
        assert v_start.tobytes() == v_rep.tobytes()
        # pruning after the start sample decides as testing every sample does
        expect, per_sample = _unpruned(st_, simplex[:, None], t0, a0, t1, a1, margin)
        assert np.array_equal(got, expect)
        start_only = per_sample[..., 0] & ~per_sample[..., 1:].all(axis=-1)
        assert got.any() and (~per_sample[..., 0]).any() and start_only.any()


def test_chart_indices_are_checked(gamma2_zero):
    st_ = gamma2_zero  # two charts
    with pytest.raises(ValueError):
        ChartPoint(-1, 1.0, CENTER)
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            ChartPoint(bad, 1.0, CENTER)
    pt = ChartPoint(np.int64(1), 1.0, CENTER)
    assert type(pt.simplex) is int and pt.to_json()["simplex"] == 1
    beyond, inside = ChartPoint(2, 1.0, CENTER), ChartPoint(1, 1.0, CENTER)
    curve = CausalPolyline([CurveNode(beyond), CurveNode(ChartPoint(2, 1.5, CENTER))])
    calls = [
        lambda: develop(st_, beyond),
        lambda: trace_causal_curve(st_, beyond, t_stop=2.0),
        lambda: validate_polyline(st_, curve),
        lambda: fiber_hop_is_causal(st_, FiberPoint("c1", 0.5), beyond),
        lambda: cross_face(st_, [beyond.simplex], [1.0], CENTER[None], [0]),
        lambda: segment_is_causal(st_, 2, (1.0, CENTER), (1.5, CENTER)),
        lambda: segment_is_causal(st_, -1, (1.0, CENTER), (1.5, CENTER)),
    ]
    calls += [lambda f=f: cross_face(st_, [inside.simplex], [1.0], CENTER[None], [f])
              for f in (-1, 3, 5)]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    with pytest.raises(TypeError):
        segment_is_causal(st_, 1.5, (1.0, CENTER), (1.5, CENTER))
    with pytest.raises(TypeError):
        cross_face(st_, [1.0], [1.0], CENTER[None], [0])
    # the last chart is still reachable
    assert segment_is_causal(st_, 1, (1.0, CENTER), (1.5, CENTER))
    assert np.array_equal(develop(st_, inside), dev_hat_points(
        *st_.charts, np.array([1]), np.array([1.0]), CENTER[None], st_.kappa)[0])
