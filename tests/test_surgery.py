import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btzgeo.builder import BuildSettings, build
from btzgeo.cli import _demo_profile
from btzgeo.minkowski import GeometryError
from btzgeo.models import TWO_PI, metric_btz
from btzgeo.surgery import (
    BoundaryProfile,
    CompletenessCertificate,
    ModelCurve,
    NotCausal,
    OnSeam,
    SurfaceGraph,
    Tangency,
    completeness_certificate,
    delta,
    divergence_check,
    extend_compact,
    extend_complete,
    fits_spear,
    induced_metric,
    intersection_count,
)


def _thetas(n=1000, seed=0):
    return np.random.default_rng(seed).uniform(0.0, TWO_PI, size=n)


def test_boundary_profile_values():
    p = BoundaryProfile(R=1.0, sin=(0.0, 0.3))  # 0.3 sin(2 theta)
    th = _thetas()
    assert p.value(th) == pytest.approx(0.3 * np.sin(2 * th))
    assert p.derivative(th) == pytest.approx(0.6 * np.cos(2 * th))
    assert p.value(0.0) == 0.0
    # bounds: grid value padded by Lipschitz slack
    assert 0.6 <= p.max_abs_derivative() <= 0.601
    assert -0.301 <= p.min_value() <= -0.3
    q = BoundaryProfile(R=2.0, const=1.5, cos=(0.2,))
    assert q.value(0.0) == pytest.approx(1.7)
    assert q.min_value() <= 1.3


def test_boundary_profile_validation_and_json():
    with pytest.raises(ValueError):
        BoundaryProfile(R=0.0)
    with pytest.raises(ValueError):
        BoundaryProfile(R=-1.0, const=2.0)
    for bad in (math.nan, math.inf):
        for kwargs in ({"R": bad}, {"R": 1.0, "const": bad}, {"R": 1.0, "cos": (0.1, bad)},
                       {"R": 1.0, "sin": (bad,)}, {"R": 1.0, "const": -bad}):
            with pytest.raises(ValueError, match="finite"):
                BoundaryProfile(**kwargs)
    p = BoundaryProfile(R=0.5, const=1.0, cos=(0.1, 0.0), sin=(0.0, 0.05))
    back = BoundaryProfile.from_json(p.to_json())
    assert back == p


def test_delta_formula_on_stubs():
    class Flat:
        def partials(self, r, theta):
            return np.zeros_like(np.asarray(r, dtype=float)), np.zeros_like(
                np.asarray(r, dtype=float)
            )

    class HalfSlope:
        def partials(self, r, theta):
            r = np.asarray(r, dtype=float)
            return 0.5 * np.ones_like(r), np.zeros_like(r)

    r = np.array([0.3, 1.0, 2.0])
    assert delta(Flat(), r, r) == pytest.approx(np.ones(3))
    assert delta(HalfSlope(), r, r) == pytest.approx(np.zeros(3))


def test_extend_complete_zero_profile():
    p = BoundaryProfile(R=1.0)
    sg = extend_complete(p)
    assert sg.M == 1.0
    assert sg.punctured
    r = np.linspace(0.05, 1.0, 50)
    assert sg.value(r, np.zeros_like(r)) == pytest.approx(1.0 / r - 1.0)
    assert np.all(delta(sg, r, np.zeros_like(r)) > 1.0)
    with pytest.raises(ValueError):
        sg.value(0.0, 0.0)  # puncture excluded
    with pytest.raises(ValueError):
        sg.value(1.5, 0.0)  # outside the disk


def test_extend_complete_delta_identity():
    p = BoundaryProfile(R=2.0, sin=(0.0, 0.3), cos=(0.1,))
    sg = extend_complete(p)
    rng = np.random.default_rng(1)
    r = sg.R * np.sqrt(rng.uniform(1e-6, 1.0, size=1000))
    th = rng.uniform(0, TWO_PI, size=1000)
    lhs = r**2 * delta(sg, r, th)
    rhs = r**2 + 2 * sg.M - p.derivative(th) ** 2
    assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(rhs).max()
    assert lhs.min() > 1.0  # spacelike with completeness margin


def test_extend_complete_sin_profile_slope_constant():
    sg = extend_complete(BoundaryProfile(R=1.0, sin=(1.0,)))
    assert 2.0 <= sg.M <= 2.01


def test_extend_complete_boundary_exact():
    p = BoundaryProfile(R=3.0, const=0.7, sin=(0.2, 0.1), cos=(0.3,))
    sg = extend_complete(p)
    th = np.linspace(0, TWO_PI, 257)
    assert np.array_equal(sg.value(np.full_like(th, p.R), th), p.value(th))


def test_extend_compact_zero_profile():
    p = BoundaryProfile(R=1.0)
    sg = extend_compact(p)
    assert not sg.punctured
    # inner core: constant height down to the axis, delta identically 1 off it
    r_in = np.linspace(0.0, 0.49, 20)
    assert np.all(sg.value(r_in, np.zeros_like(r_in)) == sg.M / p.R)
    assert np.all(delta(sg, r_in[1:], np.zeros_like(r_in[1:])) == 1.0)


def test_extend_compact_seam_and_boundary_exact():
    p = BoundaryProfile(R=0.8, sin=(0.0, 0.3))
    sg = extend_compact(p)
    th = np.linspace(0, TWO_PI, 64, endpoint=False)
    outer_at_seam = sg.value(np.full_like(th, p.R / 2), th)
    core = sg.value(np.full_like(th, p.R / 4), th)
    assert np.array_equal(outer_at_seam, core)
    assert np.array_equal(sg.value(np.full_like(th, p.R), th), p.value(th))


def test_extend_compact_spacelike_margin():
    p = BoundaryProfile(R=1.0, sin=(0.0, 0.3))
    sg = extend_compact(p, margin=1e-6)
    rng = np.random.default_rng(2)
    r = np.concatenate(
        [
            rng.uniform(0, p.R / 2 * 0.999, size=5000),
            rng.uniform(p.R / 2 * 1.001, p.R, size=5000),
        ]
    )
    th = rng.uniform(0, TWO_PI, size=len(r))
    assert float(np.min(delta(sg, r, th))) > 0


_COEF = st.floats(-1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 5.0), st.floats(-5.0, 5.0), st.lists(_COEF, max_size=3),
       st.lists(_COEF, max_size=3))
def test_caps_meet_their_closed_form_floors(R, const, cos, sin):
    # the compact cap has delta >= margin and the complete one delta r^2 >= 1
    # on a dense grid of the disk, up to rounding in delta and in the bound
    p = BoundaryProfile(R=R, const=const, cos=tuple(cos), sin=tuple(sin))
    margin = 1e-6
    compact, complete = extend_compact(p, margin=margin), extend_complete(p)
    top = max(0.0, const + sum(map(abs, cos)) + sum(map(abs, sin)))
    tol = 1e-12 * (1.0 + 8.0 * top / R + 2.0 * compact.M / R**2)
    outer = np.linspace(0.5, 1.0, 201)[1:]
    core = np.linspace(0.0, 0.5, 40, endpoint=False)[1:]
    rr, tt = np.meshgrid(R * np.concatenate([core, outer]),
                         np.linspace(0.0, TWO_PI, 192, endpoint=False), indexing="ij")
    assert float(delta(compact, rr, tt).min()) >= margin - tol
    assert float((delta(complete, rr, tt) * rr**2).min()) >= 1.0 - tol


def test_extend_compact_demo_slope_constants(examples):
    # M of the compact cap over the demo profile at three cocycle scales
    pinned = {
        "gamma2": (1.3500128282307, 1.6469192958460, 17.569258005183),
        "punctured_torus": (3.7204618163070, 4.7435095624284, 66.483683296452),
    }
    for name, ms in pinned.items():
        ex = examples[name]
        for scale, m in zip((0.0, 1.0, 25.0), ms):
            rep = ex.representation if scale == 0 else ex.deformed(scale)
            profile = _demo_profile(build(rep, ex.triangulation, BuildSettings()))
            assert extend_compact(profile).M == pytest.approx(m, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("margin", [math.nan, math.inf, 0.0, -1.0, 1.5])
def test_extend_compact_refuses_margin(margin):
    # the flat core has delta = 1, so no M gives a margin above 1
    with pytest.raises(ValueError, match="margin"):
        extend_compact(BoundaryProfile(R=1.0, sin=(0.3,)), margin=margin)


def test_extend_compact_meets_margin_one():
    # the largest margin the flat core allows is met on the annulus too
    sg = extend_compact(BoundaryProfile(R=1.0, const=0.5, sin=(0.3,)), margin=1.0)
    rr, tt = np.meshgrid(np.linspace(0.501, 1.0, 200), np.linspace(0.0, TWO_PI, 181))
    assert float(delta(sg, rr, tt).min()) >= 1.0 - 1e-12


def test_surface_graph_refuses_non_finite_slope_constant():
    p = BoundaryProfile(R=1.0)
    for m in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="slope constant M"):
            SurfaceGraph(profile=p, mode="complete", M=m)
    # a profile is admitted at any finite scale; the caps refuse the scales at
    # which M would overflow, naming the field and the slope constant
    huge = BoundaryProfile(R=0.1, const=1.0, sin=(1e200,))
    for extend in (extend_complete, extend_compact):
        with pytest.raises(ValueError, match="slope constant M"):
            extend(huge)
    # 8TR and R^2 (margin - 1) would overflow to inf and -inf
    with pytest.raises(ValueError, match="slope constant M"):
        extend_compact(BoundaryProfile(R=1e200, const=1e200))


def test_boundary_profile_refuses_bools_and_non_reals():
    for field in ("R", "const"):
        for bad in (True, False, "1", None):
            kwargs = {"R": 1.0, field: bad}
            with pytest.raises(ValueError, match=f"^{field} must be a real number"):
                BoundaryProfile(**kwargs)
    with pytest.raises(ValueError, match="^sin must be a real number"):
        BoundaryProfile(R=1.0, sin=(0.1, True))
    p = BoundaryProfile(R=2, const=1, cos=(np.float64(0.5),))
    assert [type(v) for v in (p.R, p.const, *p.cos)] == [float, float, float]
    assert BoundaryProfile.from_json(p.to_json()) == p


def test_surface_graph_validation():
    p = BoundaryProfile(R=1.0)
    with pytest.raises(ValueError):
        SurfaceGraph(profile=p, mode="weird", M=1.0)
    sg = SurfaceGraph(profile=p, mode="compact", M=1.0)
    with pytest.raises(ValueError):
        sg.value(-0.1, 0.0)


def test_partials_on_seam_rejected():
    sg = extend_compact(BoundaryProfile(R=1.0))
    with pytest.raises(OnSeam):
        sg.partials(0.5, 0.0)
    with pytest.raises(OnSeam):
        delta(sg, np.array([0.7, 0.5]), np.zeros(2))


def test_induced_metric_matches_definition():
    p = BoundaryProfile(R=1.0)
    sg = extend_complete(p)
    r = np.array([0.2, 0.5, 0.9])
    g = induced_metric(sg, r, np.zeros_like(r))
    for i, ri in enumerate(r):
        assert g[i] == pytest.approx(np.diag([1 + 2 * sg.M / ri**2, ri**2]))


def test_induced_metric_det_is_delta_r2():
    p = BoundaryProfile(R=2.0, sin=(0.0, 0.3), cos=(0.05,))
    for sg in (extend_complete(p), extend_compact(p)):
        rng = np.random.default_rng(3)
        r = sg.R * np.sqrt(rng.uniform(1e-4, 1.0, size=1000))
        r = r[np.abs(r - sg.R / 2) > 1e-3]
        th = rng.uniform(0, TWO_PI, size=len(r))
        g = induced_metric(sg, r, th)
        det = np.linalg.det(g)
        expect = delta(sg, r, th) * r**2
        assert np.abs(det - expect).max() < 1e-9 * np.maximum(1.0, np.abs(expect)).max()


def test_induced_metric_matches_ambient_pullback():
    p = BoundaryProfile(R=1.5, sin=(0.0, 0.3))
    sg = extend_complete(p)
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(50):
        r = rng.uniform(0.3, 1.4)
        th = rng.uniform(0, TWO_PI)

        def emb(rr, tt):
            return np.array([sg.value(rr, tt), rr, tt])

        j = np.column_stack(
            [
                (emb(r + h, th) - emb(r - h, th)) / (2 * h),
                (emb(r, th + h) - emb(r, th - h)) / (2 * h),
            ]
        )
        g_ambient = metric_btz(r)
        pullback = j.T @ g_ambient @ j
        assert np.abs(pullback - induced_metric(sg, r, th)).max() < 1e-6


def test_completeness_certificate():
    zero = extend_complete(BoundaryProfile(R=1.0))
    cert = completeness_certificate(zero)
    assert cert.conclusive
    assert cert.constant == pytest.approx(math.sqrt(2.0))

    wavy = extend_complete(BoundaryProfile(R=1.0, sin=(1.0,)))
    cert2 = completeness_certificate(wavy)
    assert cert2.conclusive
    assert cert2.constant >= math.sqrt(2.0) - 1e-12

    compact = extend_compact(BoundaryProfile(R=1.0))
    cert3 = completeness_certificate(compact)
    assert not cert3.conclusive
    assert cert3.constant is None
    assert "axis" in cert3.reason

    doomed = SurfaceGraph(profile=BoundaryProfile(R=1.0, sin=(2.0,)), mode="complete", M=0.1)
    assert not completeness_certificate(doomed).conclusive


def test_divergence_check():
    assert divergence_check(extend_complete(BoundaryProfile(R=1.0)))
    assert divergence_check(extend_complete(BoundaryProfile(R=2.0, sin=(0.5,))))
    assert not divergence_check(extend_compact(BoundaryProfile(R=1.0)))
    flat = SurfaceGraph(profile=BoundaryProfile(R=1.0), mode="complete", M=0.0)
    assert not divergence_check(flat)


def test_fits_spear():
    spear = SimpleNamespace(radius=1.0, ring_tau=0.5)
    good = extend_complete(BoundaryProfile(R=1.0, const=0.5))
    assert fits_spear(good, spear)["inside"]
    wide = extend_complete(BoundaryProfile(R=1.5, const=2.0))
    rep = fits_spear(wide, spear)
    assert not rep["radius_ok"] and not rep["inside"]
    low = extend_complete(BoundaryProfile(R=1.0, const=0.0))
    rep = fits_spear(low, spear)
    assert rep["radius_ok"] and not rep["boundary_on_shaft"]


def test_model_curve_validation():
    with pytest.raises(ValueError):
        ModelCurve(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        ModelCurve(np.zeros((4, 2)))
    vertical = ModelCurve([[0.0, 0.5, 1.0], [1.0, 0.5, 1.0]])
    vertical.validate_causal()
    rising = ModelCurve([[0.0, 0.2, 0.0], [1.0, 0.7, 0.1]])
    rising.validate_causal()

    backwards = ModelCurve([[1.0, 0.5, 0.0], [0.0, 0.5, 0.0]])
    with pytest.raises(NotCausal):
        backwards.validate_causal()
    sideways = ModelCurve([[0.0, 0.5, 0.0], [1.0, 0.5, 2.0]])
    with pytest.raises(NotCausal):
        sideways.validate_causal()
    spacelike = ModelCurve([[0.0, 0.1, 0.0], [0.1, 0.9, 0.0]])
    with pytest.raises(NotCausal):
        spacelike.validate_causal()
    # a short spacelike segment: the band is relative to its length
    short = ModelCurve([[0.0, 1.0, 0.0], [1e-6, 1.0, 1e-5]])
    with pytest.raises(NotCausal):
        short.validate_causal()


def test_intersection_vertical_ray_crosses_once():
    sg = extend_complete(BoundaryProfile(R=1.0))
    curve = ModelCurve(
        [[-2.0, 0.5, 0.0], [5.0, 0.5, 0.0]], extends_to_infinity=True
    )
    rep = intersection_count(sg, curve)
    assert rep.count == rep.prediction == 1
    assert rep.agree
    assert rep.exit_kind == "infinity"
    assert rep.min_gap > 0


def test_intersection_tail_rule():
    sg = extend_complete(BoundaryProfile(R=1.0))
    # polyline stays below the cap; the implied vertical tail crosses it
    below = ModelCurve([[-3.0, 0.5, 0.0], [-2.5, 0.5, 0.0]], extends_to_infinity=True)
    rep = intersection_count(sg, below)
    assert rep.count == 1 and rep.prediction == 1


def test_intersection_shaft_exit_below_boundary():
    sg = extend_complete(BoundaryProfile(R=1.0))
    curve = ModelCurve([[-1.0, 0.5, 0.0], [-0.1, 1.0, 0.0]])
    rep = intersection_count(sg, curve)
    assert rep.exit_kind == "shaft"
    assert rep.count == 0 and rep.prediction == 0
    assert rep.agree


def test_intersection_shaft_exit_above_boundary():
    sg = extend_complete(BoundaryProfile(R=1.0))
    curve = ModelCurve(
        [[-1.0, 0.25, 0.0], [4.0, 0.5, 0.0], [5.0, 1.0, 0.0]]
    )
    rep = intersection_count(sg, curve)
    assert rep.exit_kind == "shaft"
    assert rep.count == 1 and rep.prediction == 1


def test_intersection_axis_through_compact_cap():
    sg = extend_compact(BoundaryProfile(R=1.0))
    top = sg.M / sg.R
    curve = ModelCurve(
        [[-1.0, 0.0, 0.0], [top + 1.0, 0.0, 0.0]], extends_to_infinity=True
    )
    rep = intersection_count(sg, curve)
    assert rep.count == rep.prediction == 1


def test_intersection_tangency_raises():
    sg = extend_complete(BoundaryProfile(R=1.0))
    grazing = ModelCurve([[-1.0, 0.5, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(Tangency):
        intersection_count(sg, grazing)


def test_intersection_domain_errors():
    sg = extend_complete(BoundaryProfile(R=1.0))
    outside = ModelCurve([[0.0, 0.5, 0.0], [1.0, 1.5, 0.0]])
    with pytest.raises(ValueError):
        intersection_count(sg, outside)
    hits_axis = ModelCurve([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], extends_to_infinity=True)
    with pytest.raises(ValueError):
        intersection_count(sg, hits_axis)
    dangling = ModelCurve([[-1.0, 0.25, 0.0], [0.0, 0.5, 0.0]])
    with pytest.raises(GeometryError):
        intersection_count(sg, dangling)
    flat = SurfaceGraph(profile=BoundaryProfile(R=1.0), mode="complete", M=0.0)
    ray = ModelCurve([[1.0, 0.5, 0.0], [2.0, 0.5, 0.0]], extends_to_infinity=True)
    with pytest.raises(GeometryError):
        intersection_count(flat, ray)


def test_certificate_json():
    cert = CompletenessCertificate(True, 1.5, "ok")
    assert cert.to_json() == {"conclusive": True, "constant": 1.5, "reason": "ok"}
