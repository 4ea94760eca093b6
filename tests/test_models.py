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
    NotInImage,
    axis_deck_generator,
    dev0_array,
    dev0_inverse,
    h_ell_coords,
    holonomy_around_axis,
    in_image_dev0,
    metric_btz,
    parabolic_parameter,
)


def test_metric_btz_examples():
    g = metric_btz(1.0)
    assert np.linalg.det(g) == pytest.approx(-1.0)
    assert np.linalg.det(metric_btz(0.0)) == 0.0
    # the axis-parallel direction is lightlike
    e_tau = np.array([1.0, 0.0, 0.0])
    assert e_tau @ g @ e_tau == 0.0
    # determinant identity det = -r^2 at samples
    for r in (0.3, 1.7, 9.0):
        assert np.linalg.det(metric_btz(r)) == pytest.approx(-r * r)


def test_dev0_examples():
    assert dev0_array(2.5, 0, 7.0) == pytest.approx([2.5, 2.5, 0])
    assert dev0_array(0, 1, 0) == pytest.approx([0, -1, 0])


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
        want = metric_btz(r)
        assert np.abs(got - want).max() < 1e-6


def test_in_image_dev0_examples():
    assert in_image_dev0((1, 0, 0))
    assert not in_image_dev0((0, 1, 0))
    assert in_image_dev0((1, 1, 0))
    assert not in_image_dev0((1, 1, 0.5))
    batch = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 0.5)]
    assert in_image_dev0(batch).tolist() == [True, False, True, False]


def test_dev0_inverse_round_trip():
    rng = np.random.default_rng(1)
    tau, r, theta = rng.uniform((-5, 1e-3, -9), (5, 5, 9), size=(10_000, 3)).T
    q = dev0_array(tau, r, theta)
    tau_b, r_b, theta_b = dev0_inverse(q)
    worst = max(np.abs(tau_b - tau).max(), np.abs(r_b - r).max(),
                np.abs(r * (theta_b - theta)).max())
    assert worst <= 1e-9 * 10  # scaled coordinates up to ~10
    # axis points (r = 0, any theta) come back with r = theta = 0, the rest unchanged
    mixed = q[:20].copy()
    mixed[::2] = dev0_array(tau[:20:2], 0.0, theta[:20:2])
    mixed[0, 2] = 1e-13  # off the axis line but inside its tolerance band
    tau_m, r_m, theta_m = dev0_inverse(mixed)
    assert tau_m[::2].tolist() == tau[:20:2].tolist()
    assert not np.any(r_m[::2]) and not np.any(theta_m[::2])
    assert np.array_equal(np.column_stack([tau_m, r_m, theta_m])[1::2],
                          np.column_stack([tau_b, r_b, theta_b])[1:20:2])
    with pytest.raises(NotInImage):
        dev0_inverse((0, 1, 0))
    outside = q[:20].copy()
    outside[7] = (0, 1, 0)
    with pytest.raises(NotInImage):
        dev0_inverse(outside)


def test_h_ell_examples():
    p = (0.3, 1.2, 4.0)
    assert h_ell_coords(1.0, *p) == pytest.approx(p)
    assert h_ell_coords(2.0, 0, 2, math.pi) == pytest.approx((-1.5, 1.0, 2 * math.pi))
    for ell in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            h_ell_coords(ell, *p)


def test_h_ell_metric_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        ell = rng.uniform(0.3, 3.0)
        c = (rng.uniform(-2, 2), rng.uniform(0.3, 3), rng.uniform(-6, 6))
        f = lambda x: dev0_array(*h_ell_coords(ell, *x))
        got = _fd_pullback(f, c)
        want = metric_btz(c[1])
        assert np.abs(got - want).max() < 1e-6


@given(st_.floats(0.25, 4.0), st_.floats(0.25, 4.0))
@settings(max_examples=100)
def test_h_ell_group_law(ell, m):
    p = (0.7, 1.3, 2.1)
    lhs = h_ell_coords(ell, *h_ell_coords(m, *p))
    rhs = h_ell_coords(ell * m, *p)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_holonomy_around_axis_btz():
    g = holonomy_around_axis()
    assert classify_isometry(g).kind is IsometryKind.PARABOLIC
    assert g.apply([1, 1, 0]) == pytest.approx([1, 1, 0], abs=1e-12)
    rng = np.random.default_rng(3)
    tau, r, theta = rng.uniform((-3, 0, -6), (3, 3, 6), size=(1000, 3)).T
    lhs = dev0_array(tau, r, theta) @ g.matrix.T
    rhs = dev0_array(tau, r, theta + TWO_PI)
    assert np.abs(lhs - rhs).max() < 1e-8


def test_axis_deck_generator_exponentiates():
    n = axis_deck_generator()
    assert np.abs(n @ n @ n).max() < 1e-15  # nilpotent of order 3
    s = TWO_PI
    exact = np.eye(3) + s * n + 0.5 * s * s * (n @ n)
    assert np.abs(exact - holonomy_around_axis().matrix).max() < 1e-12
    assert parabolic_parameter(holonomy_around_axis()) == pytest.approx(TWO_PI)


def test_dev0_image_is_future_of_axis():
    # Q(dev0(p) - axis point) <= 0 exactly when the image point is causally
    # above; spot check the developing image lands in J+(Delta)
    rng = np.random.default_rng(4)
    for _ in range(200):
        tau, r, theta = rng.uniform(-3, 3), rng.uniform(0, 2), rng.uniform(-6, 6)
        q = dev0_array(tau, r, theta)
        assert in_image_dev0(q)
        # the axis point (s, s, 0) with s = tau - r/2 realizes lightlike contact
        s = tau - r / 2
        d = q - np.array([s, s, 0.0])
        assert abs(quadratic_form(d)) <= 1e-9 * max(1.0, float(d @ d))
        assert d[0] >= 0
