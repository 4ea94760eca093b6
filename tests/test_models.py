import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from btzgeo.minkowski import (
    IsometryKind,
    classify_isometry,
    quadratic_form,
)
from btzgeo.models import (
    TWO_PI,
    ModelPoint,
    NotInImage,
    axis_deck_generator,
    btz_point,
    dev0,
    dev0_array,
    dev0_inverse,
    h_ell,
    holonomy_around_axis,
    in_image_dev0,
    metric_btz,
    parabolic_parameter,
)


def test_metric_btz_examples():
    g = metric_btz(btz_point(0, 1, 0))
    assert np.linalg.det(g) == pytest.approx(-1.0)
    assert np.linalg.det(metric_btz(btz_point(0, 0, 0))) == 0.0
    # the axis-parallel direction is lightlike
    e_tau = np.array([1.0, 0.0, 0.0])
    assert e_tau @ g @ e_tau == 0.0
    # determinant identity det = -r^2 at samples
    for r in (0.3, 1.7, 9.0):
        assert np.linalg.det(metric_btz(btz_point(0, r, 0))) == pytest.approx(-r * r)


def test_dev0_examples():
    assert dev0(btz_point(2.5, 0, 7.0)) == pytest.approx([2.5, 2.5, 0])
    assert dev0(btz_point(0, 1, 0)) == pytest.approx([0, -1, 0])


def _fd_pullback(f, coords, h=1e-5):
    """Finite-difference pullback of the Minkowski form through f at coords."""
    from btzgeo.minkowski import G

    cols = []
    for k in range(3):
        dp = np.array(coords, float)
        dm = np.array(coords, float)
        dp[k] += h
        dm[k] -= h
        cols.append((f(dp) - f(dm)) / (2 * h))
    j = np.stack(cols, axis=-1)
    return j.T @ G @ j


def test_dev0_metric_pullback():
    rng = np.random.default_rng(0)
    f = lambda c: dev0_array(c[0], c[1], c[2])
    for _ in range(100):
        tau, r, theta = rng.uniform(-2, 2), rng.uniform(0.2, 3), rng.uniform(-7, 7)
        got = _fd_pullback(f, (tau, r, theta))
        want = metric_btz(btz_point(tau, r, theta))
        assert np.abs(got - want).max() < 1e-6


def test_in_image_dev0_examples():
    assert in_image_dev0((1, 0, 0))
    assert not in_image_dev0((0, 1, 0))
    assert in_image_dev0((1, 1, 0))
    assert not in_image_dev0((1, 1, 0.5))


def test_dev0_inverse_round_trip():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10_000):
        tau, r, theta = rng.uniform(-5, 5), rng.uniform(1e-3, 5), rng.uniform(-9, 9)
        p = dev0_inverse(dev0(btz_point(tau, r, theta)))
        worst = max(worst, abs(p.coords[0] - tau), abs(p.coords[1] - r),
                    abs(r * (p.coords[2] - theta)))
    assert worst <= 1e-9 * 10  # scaled coordinates up to ~10
    with pytest.raises(NotInImage):
        dev0_inverse((0, 1, 0))


def test_h_ell_examples():
    p = btz_point(0.3, 1.2, 4.0)
    q = h_ell(1.0, p)
    assert q.coords == pytest.approx(p.coords)
    q = h_ell(2.0, btz_point(0, 2, math.pi))
    assert q.coords == pytest.approx((-1.5, 1.0, 2 * math.pi))


def test_h_ell_metric_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        ell = rng.uniform(0.3, 3.0)
        c = (rng.uniform(-2, 2), rng.uniform(0.3, 3), rng.uniform(-6, 6))
        f = lambda x: dev0_array(*(h_ell(ell, btz_point(*x)).coords))
        got = _fd_pullback(f, c)
        want = metric_btz(btz_point(*c))
        assert np.abs(got - want).max() < 1e-6


@given(st_.floats(0.25, 4.0), st_.floats(0.25, 4.0))
@settings(max_examples=100)
def test_h_ell_group_law(ell, m):
    p = btz_point(0.7, 1.3, 2.1)
    lhs = h_ell(ell, h_ell(m, p)).coords
    rhs = h_ell(ell * m, p).coords
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_holonomy_around_axis_btz():
    with pytest.raises(ValueError):
        holonomy_around_axis(math.pi)  # only the BTZ (alpha = 0) holonomy exists
    g = holonomy_around_axis(0.0)
    assert classify_isometry(g).kind is IsometryKind.PARABOLIC
    assert g.apply([1, 1, 0]) == pytest.approx([1, 1, 0], abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        tau, r, theta = rng.uniform(-3, 3), rng.uniform(0, 3), rng.uniform(-6, 6)
        lhs = g.apply(dev0(btz_point(tau, r, theta)))
        rhs = dev0(btz_point(tau, r, theta + TWO_PI))
        assert np.abs(lhs - rhs).max() < 1e-8


def test_axis_deck_generator_exponentiates():
    n = axis_deck_generator()
    assert np.abs(n @ n @ n).max() < 1e-15  # nilpotent of order 3
    s = TWO_PI
    exact = np.eye(3) + s * n + 0.5 * s * s * (n @ n)
    assert np.abs(exact - holonomy_around_axis(0.0).matrix).max() < 1e-12
    assert parabolic_parameter(holonomy_around_axis(0.0)) == pytest.approx(TWO_PI)


def test_model_point_validation():
    with pytest.raises(ValueError):
        ModelPoint(0.0, (0.0, -1.0, 0.0))
    with pytest.raises(ValueError):
        ModelPoint(-1.0, (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        ModelPoint(0.0, (math.nan, 1.0, 0.0))


def test_model_point_json_round_trip():
    p = btz_point(0.5, 1.5, 2.5, reduced=True)
    q = ModelPoint.from_json(p.to_json())
    assert q.alpha == p.alpha and q.coords == p.coords and q.reduced == p.reduced


def test_dev0_image_is_future_of_axis():
    # Q(dev0(p) - axis point) <= 0 exactly when the image point is causally
    # above; spot check the developing image lands in J+(Delta)
    rng = np.random.default_rng(4)
    for _ in range(200):
        tau, r, theta = rng.uniform(-3, 3), rng.uniform(0, 2), rng.uniform(-6, 6)
        q = dev0(btz_point(tau, r, theta))
        assert in_image_dev0(q)
        # the axis point (s, s, 0) with s = tau - r/2 realizes lightlike contact
        s = tau - r / 2
        d = q - np.array([s, s, 0.0])
        assert abs(quadratic_form(d)) <= 1e-9 * max(1.0, float(d @ d))
        assert d[0] >= 0
