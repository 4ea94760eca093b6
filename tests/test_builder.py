import bisect
import copy
import hashlib
import itertools
import json
import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import btzgeo.builder as builder_module
from btzgeo.builder import (
    BARY_N,
    BLEND_THRESHOLD,
    T_COUNT,
    T_MIN,
    BuildSettings,
    DegenerateDecoration,
    FaceMismatch,
    KappaSearchExhausted,
    NonMonotoneAngles,
    SPEAR_FACTOR,
    PolyhedralSpacetime,
    PunctureGeometry,
    SpearNotFound,
    _GRID,
    _PLATEAU,
    _REPEATS,
    _ROWS,
    _blend_rows,
    _certify_once,
    _det3,
    _gram_min_eig,
    _in_fan_prisms,
    _kappa_samples,
    as_barycentric,
    barycentric_grid,
    blend,
    blend_and_partials,
    build,
    chart_offsets,
    choose_kappa,
    corner_residuals,
    decorate_charts,
    dev_hat,
    dev_hat_jacobians,
    dev_hat_points,
    export_mesh,
    find_spear,
    extend_btz,
    leaf_gram,
    mesh_data,
    p_map,
    puncture_geometry,
    minkowski_to_model,
    model_to_minkowski,
    strip_btz,
    verify_face_equivariance,
)
from btzgeo.minkowski import (
    G, LinearIsometry, causal_class, CausalClass, minkowski_inner, rotation_about_t,
)
from btzgeo.models import TWO_PI, axis_deck_generator, parabolic_parameter
from btzgeo.representations import (
    AffineRepresentation,
    InvalidTriangulation,
    NotAdmissible,
    cocycle_from_tangent_vector,
    tangent_cocycle_basis,
)
from btzgeo.serialize import canonical_dumps


# symmetric lightlike triple at angles 0, 120, 240 degrees
CONE_U = np.array([[1.0, math.cos(a), math.sin(a)]
                   for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)])


def _charts(u):
    """A one-chart stack (u, p = 0), each (1, 3, 3), through decorate_charts."""
    return decorate_charts([("x", "y", "z")], dict(zip("xyz", u)),
                           dict.fromkeys("xyz", np.zeros(3)))


def test_degenerate_decoration_rejected():
    # one batched det over the charts names the first bad triangle
    u = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
    dec_u = {**dict(zip("abc", CONE_U)), **dict(zip("xyz", u))}
    dec_p = dict.fromkeys("abcxyz", np.zeros(3))
    with pytest.raises(DegenerateDecoration, match="^triangle 1: corner vectors not a direct"):
        decorate_charts([("a", "b", "c"), ("x", "y", "z")], dec_u, dec_p)
    # an odd vertex order reverses a direct basis
    with pytest.raises(DegenerateDecoration, match="^triangle 0: "):
        decorate_charts([("b", "a", "c")], dec_u, dec_p)
    u_ok, _ = decorate_charts([("a", "b", "c")], dec_u, dec_p)
    assert np.array_equal(u_ok[0], CONE_U) and not u_ok.flags.writeable


def test_p_map_diagonal_and_corner():
    rng = np.random.default_rng(0)
    u, p = CONE_U, rng.normal(size=(3, 3))
    kappa = 2.5
    for _ in range(20):
        a = rng.dirichlet(np.ones(3))
        t = rng.uniform(0.1, 5.0)
        assert p_map(u, p, t, a, a, kappa) == pytest.approx((t + kappa) * (a @ u) + a @ p)
    corner = p_map(u, p, 1.5, (1, 0, 0), (1, 0, 0), kappa)
    assert corner == pytest.approx((1.5 + kappa) * u[0] + p[0])


def test_dev_linear_in_t_with_future_causal_direction():
    rng = np.random.default_rng(1)
    u, p = CONE_U, rng.normal(size=(3, 3))
    for _ in range(50):
        a = rng.dirichlet(np.ones(3))
        d1 = p_map(u, p, 2.0, a, a, 1.0) - p_map(u, p, 1.0, a, a, 1.0)
        d2 = p_map(u, p, 3.0, a, a, 1.0) - p_map(u, p, 2.0, a, a, 1.0)
        assert d1 == pytest.approx(d2)
        assert d1 == pytest.approx(a @ u)
        assert causal_class(d1) in (
            CausalClass.FUTURE_TIMELIKE,
            CausalClass.FUTURE_LIGHTLIKE,
        )


def test_dev_hat_plateau_affine():
    rng = np.random.default_rng(2)
    u, p = CONE_U, rng.normal(size=(3, 3))
    kappa = 3.0
    for _ in range(50):
        rest = rng.uniform(0, 1 - 2 / 3 - 1e-6)
        a = np.array([1.0 - rest, 0.0, 0.0])
        a[1] = rng.uniform(0, rest)
        a[2] = rest - a[1]
        t = rng.uniform(0.2, 4.0)
        expect = t * u[0] + kappa * (a @ u) + a @ p
        assert dev_hat(u, p, t, a, kappa) == pytest.approx(expect, abs=1e-12)


def test_dev_hat_barycenter_equals_dev():
    u, p = CONE_U, np.arange(9.0).reshape(3, 3) / 10
    center = np.array([1, 1, 1]) / 3
    assert dev_hat(u, p, 1.7, center, 2.0) == pytest.approx(
        p_map(u, p, 1.7, center, center, 2.0)
    )


def test_blend_vertices_and_permutations():
    assert blend((1.0, 0.0, 0.0)) == pytest.approx((1.0, 0.0, 0.0))
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a = rng.dirichlet(np.ones(3))
        fa = blend(a)
        for perm in itertools.permutations(range(3)):
            p = np.array(perm)
            assert blend(a[p]) == pytest.approx(fa[p], abs=1e-12)


def test_blend_preserves_edges_and_plateaus():
    # plateau: anything with a coordinate >= 2/3 maps to that vertex
    assert blend((0.7, 0.2, 0.1)) == pytest.approx((1.0, 0.0, 0.0))
    assert blend((0.1, 0.2, 0.7)) == pytest.approx((0.0, 0.0, 1.0))
    # edges (one zero coordinate) stay on the edge
    out = blend((0.4, 0.6, 0.0))
    assert out[2] == 0.0
    assert out.sum() == pytest.approx(1.0)


def blend_invert(phi, iters: int = 200) -> np.ndarray:
    """Inverse of the hexagon restriction: the alpha in H with phi(alpha) = phi."""
    f = as_barycentric(phi)
    if np.max(f) >= 1.0 - 1e-15:
        raise ValueError("vertices are not in the image of the open hexagon")

    def total(lam: float) -> float:
        y = lam * f
        return float(np.sum(BLEND_THRESHOLD * y / (1.0 + y)))

    lo, hi = 0.0, 1.0
    while total(hi) < 1.0:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if total(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi) * f
    return BLEND_THRESHOLD * y / (1.0 + y)


@hyp_settings(max_examples=200, deadline=None)
@given(
    st.floats(0.01, 0.65),
    st.floats(0.01, 0.65),
)
def test_blend_hexagon_bijection(a2, a3):
    a1 = 1.0 - a2 - a3
    if not (0.01 <= a1 <= 0.65):
        return
    alpha = np.array([a1, a2, a3])
    back = blend_invert(blend(alpha))
    assert back == pytest.approx(alpha, abs=1e-10)


def test_blend_differential_spectrum():
    rng = np.random.default_rng(4)
    pts = rng.dirichlet(np.ones(3), size=10_000)
    dphi = blend_and_partials(pts)[1]
    # restrict to the simplex tangent plane: directions e2-e1, e3-e1
    d_a = dphi[:, :, 1] - dphi[:, :, 0]
    d_b = dphi[:, :, 2] - dphi[:, :, 0]
    m = np.stack(
        [
            np.stack([d_a[:, 1], d_b[:, 1]], axis=-1),
            np.stack([d_a[:, 2], d_b[:, 2]], axis=-1),
        ],
        axis=-2,
    )
    eigs = np.linalg.eigvals(m)
    assert float(eigs.real.min()) >= -1e-9


def test_blend_partials_match_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(100):
        a = rng.dirichlet(np.ones(3))
        if a.max() > 0.6:  # stay away from the plateau seam
            continue
        dphi = blend_and_partials(a)[1]
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            fd = (blend_unnormalized(a + step) - blend_unnormalized(a - step)) / (2 * h)
            assert fd == pytest.approx(dphi[:, j], abs=1e-5)


def blend_unnormalized(a):
    # off-plateau branch of the blend formula, tolerant of sum != 1
    h = a / (BLEND_THRESHOLD - a)
    return h / h.sum()


def _masked_blend(a, threshold=2.0 / 3.0):
    """The blend and its partials as computed before blend_and_partials: the
    plateau rows masked out and the ramp evaluated on the rest only."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = len(a)
    phi, dphi = np.zeros_like(a), np.zeros((n, 3, 3))
    top = np.argmax(a, axis=1)
    plateau = a[np.arange(n), top] >= threshold
    phi[plateau, top[plateau]] = 1.0
    rest = ~plateau
    if np.any(rest):
        ar = a[rest]
        h = ar / (threshold - ar)
        hp = threshold / (threshold - ar) ** 2
        s = h.sum(axis=1, keepdims=True)
        phi[rest] = h / s
        term = np.einsum("nk,nj->nkj", h, hp) / (s**2)[:, :, None]
        diag = np.zeros_like(term)
        diag[:, np.arange(3), np.arange(3)] = hp / s
        dphi[rest] = diag - term
    return phi, dphi


def _blend_test_points():
    rng = np.random.default_rng(12)
    third, seam = 1.0 / 3.0, 2.0 / 3.0
    below, above = np.nextafter(seam, 0.0), np.nextafter(seam, 1.0)
    special = [
        (1.0, 0.0, 0.0), (third, third, third), (seam, third, 0.0), (seam, 0.0, third),
        (below, 1.0 - below, 0.0), (above, 1.0 - above, 0.0), (0.5, 0.5, 0.0),
        (0.7, 0.2, 0.1), (0.6, 0.2, 0.2), (0.0, 0.3, 0.7),
    ]
    special = [np.roll(p, k) for p in special for k in range(3)]
    return np.concatenate([rng.dirichlet(np.ones(3), size=200_000),
                           rng.dirichlet(np.full(3, 0.2), size=20_000), special])


def test_value_and_partials_bit_equal_to_masked_blend():
    pts = _blend_test_points()
    phi, dphi = blend_and_partials(pts)
    ref_phi, ref_dphi = _masked_blend(pts)
    assert phi.tobytes() == ref_phi.tobytes()
    assert dphi.tobytes() == ref_dphi.tobytes()
    assert blend(pts).tobytes() == phi.tobytes()
    # one point in, one point out; a stacked batch keeps its shape
    for row in pts[-30:]:
        one_phi, one_dphi = blend_and_partials(row)
        assert blend(row).shape == one_phi.shape == (3,) and one_dphi.shape == (3, 3)
        assert blend(row).tobytes() == _masked_blend(row)[0][0].tobytes()
    stacked = blend_and_partials(pts[-30:].reshape(10, 3, 3))
    assert stacked[0].shape == (10, 3, 3) and stacked[1].shape == (10, 3, 3, 3)
    assert stacked[0].tobytes() == phi[-30:].tobytes()
    assert stacked[1].tobytes() == dphi[-30:].tobytes()


@pytest.mark.parametrize("alpha", [(2.0 / 3.0, 1.0 / 3.0, 0.0), (1.0, 0.0, 0.0)])
def test_blend_raises_no_warning_on_plateau_edges(alpha, gamma2_zero):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, dphi = blend_and_partials(np.array(alpha))
        jac = dev_hat_jacobians(gamma2_zero.charts[0], gamma2_zero.offsets, 0, np.array([1.0]),
                                np.array([alpha]))
    assert phi.tolist() == [1.0, 0.0, 0.0] and not dphi.any()
    assert np.isfinite(jac).all()


def test_leaf_gram_hand_check_exact():
    g = leaf_gram(CONE_U, np.zeros((3, 3)), 1.0, 0.0)  # t + kappa = 1
    # exact analytic oracle: <u_i|u_j> = -1 + cos(dtheta) = -3/2 for i != j
    uu = Fraction(-3, 2)
    e11 = -2 * uu  # <u2-u1|u2-u1> = 0 - 2<u1|u2> + 0
    e12 = uu - uu - uu  # <u2-u1|u3-u1> = <u2|u3> - <u2|u1> - <u1|u3>
    oracle = [[e11, e12], [e12, e11]]
    assert oracle == [[3, Fraction(3, 2)], [Fraction(3, 2), 3]]
    assert np.abs(g - np.array(oracle, dtype=float)).max() < 1e-14
    assert np.all(np.linalg.eigvalsh(g) > 0)


def test_leaf_gram_scaling_and_degeneracy():
    rng = np.random.default_rng(6)
    u, p = CONE_U, np.zeros((3, 3))
    g1 = leaf_gram(u, p, 1.0, 1.0)  # t + kappa = 2
    g2 = leaf_gram(u, p, 3.0, 1.0)  # t + kappa = 4
    assert g2 == pytest.approx(4.0 * g1)
    # vectorized over t
    ts = rng.uniform(0.1, 5.0, size=7)
    gs = leaf_gram(u, p, ts, 0.5)
    assert gs.shape == (7, 2, 2)
    for t, g in zip(ts, gs):
        assert g == pytest.approx(leaf_gram(u, p, float(t), 0.5))
    # two (nearly) equal u rows cannot form a decorated simplex at all,
    # but the Gram formula itself degenerates: make e1 ~ 0 via tiny gap
    u = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1e-12], [1.0, -1.0, 0.0]])
    g11 = minkowski_inner(u[1] - u[0], u[1] - u[0])
    assert abs(g11) < 1e-20


def test_leaf_gram_broadcasts_over_charts(gamma2_deformed, torus_deformed):
    # one stacked call is bit-equal to one call per chart
    ts = np.geomspace(0.1, 10.0, 12)
    for st_ in (gamma2_deformed, torus_deformed):
        u, p = st_.charts
        stacked = leaf_gram(u, p, ts, st_.kappa)
        assert stacked.shape == (len(u), 12, 2, 2)
        for k in range(len(u)):
            assert stacked[k].tobytes() == leaf_gram(u[k], p[k], ts, st_.kappa).tobytes()
        assert leaf_gram(u, p, 1.5, st_.kappa).shape == (len(u), 2, 2)


def test_barycentric_grid_avoids_seams():
    grid = barycentric_grid(32)
    assert np.all(grid > 0)
    assert np.abs(grid.sum(axis=1) - 1).max() < 1e-12
    assert np.abs(grid - 2.0 / 3.0).min() > 1e-4


def test_kappa_sample_sets_are_computed_once():
    # the alpha grid and its t-free tables are read-only module constants; the
    # t values are computed once per t_max
    grid = barycentric_grid(BARY_N)
    assert _GRID.tobytes() == grid.tobytes()
    assert _ROWS.tobytes() == _blend_rows(grid).tobytes()
    assert np.array_equal(_PLATEAU, np.flatnonzero(grid.max(axis=1) >= BLEND_THRESHOLD))
    # the plateau points after their corner's first, one first per corner
    assert set(_PLATEAU.tolist()) - set(_REPEATS.tolist()) == {0, 22, 462}
    t_values = _kappa_samples(10.0)
    assert _kappa_samples(10.0) is t_values
    assert t_values.tobytes() == np.geomspace(T_MIN, 10.0, T_COUNT).tobytes()
    for table in (t_values, _GRID, _ROWS, _PLATEAU, _REPEATS):
        assert not table.flags.writeable


def test_choose_kappa_zero_cocycle_immediate():
    cert = choose_kappa(_charts(CONE_U))
    assert cert.doublings == 0
    assert cert.kappa == cert.kappa_initial == 1.0
    assert cert.min_gram_eigenvalue > cert.margin
    assert cert.min_jacobian_det > cert.margin


def test_choose_kappa_exhausts_on_indefinite_leaves(monkeypatch):
    # direct lightlike triple whose leaf plane is timelike: no kappa works
    u = np.array([[1.0, 1.0, 0.0], [5.0, 4.0, 3.0], [1.0, -1.0, 0.0]])
    monkeypatch.setattr(builder_module, "MAX_DOUBLINGS", 4)
    with pytest.raises(KappaSearchExhausted,
                       match=r"no kappa certified after 4 doublings \(5 passes\)") as exc:
        choose_kappa(_charts(u))
    assert "worst sample ('gram', 0, 10.0)" in str(exc.value)


def test_kappa_failure_names_lowest_jacobian_sample(monkeypatch):
    # a margin no sample clears: the last pass (kappa = 2) names the Jacobian
    # failure, at its argmin over every sample
    charts = _charts(CONE_U)
    monkeypatch.setattr(builder_module, "MAX_DOUBLINGS", 1)
    with pytest.raises(KappaSearchExhausted) as exc:
        choose_kappa(charts, BuildSettings(margin=1e6))
    samples = [(t, tuple(a.tolist())) for t in np.geomspace(T_MIN, 10.0, T_COUNT).tolist()
               for a in barycentric_grid(BARY_N)]
    ts = np.array([t for t, _ in samples])
    alphas = np.array([a for _, a in samples])
    dets = np.linalg.det(dev_hat_jacobians(charts[0], chart_offsets(*charts, 2.0), 0, ts, alphas))
    t, a = samples[int(np.argmin(dets))]
    assert f"worst sample ('jacobian', 0, {t!r}, {a!r})" in str(exc.value)


def _certify_once_per_sample(charts, kappa, t_values, grid, margin):
    """_certify_once as it was before the screened pass: the Jacobian of every
    chart x t x grid sample, each blended and given to LAPACK."""
    ts = np.repeat(t_values, len(grid))
    alphas = np.tile(grid, (len(t_values), 1))
    simplex = np.arange(len(charts[0]))[:, None]
    dets = np.linalg.det(dev_hat_jacobians(charts[0], chart_offsets(*charts, kappa), simplex, ts,
                                           alphas))
    eigs = _gram_min_eig(leaf_gram(*charts, t_values, kappa))
    min_det, min_eig = float(dets.min()), float(eigs.min())
    worst = None
    if min_det <= margin:
        s, k = np.unravel_index(np.argmin(dets), dets.shape)
        worst = ("jacobian", int(s), float(ts[k]), tuple(alphas[k].tolist()))
    elif min_eig <= margin:
        s, k = np.unravel_index(np.argmin(eigs), eigs.shape)
        worst = ("gram", int(s), float(t_values[k]))
    return min_det > margin and min_eig > margin, {
        "samples": dets.size,
        "min_jacobian_det": min_det,
        "min_gram_eigenvalue": min_eig,
        "worst": worst,
    }


def _pass_samples(cfg):
    """The t values and alpha grid that choose_kappa samples under cfg."""
    return np.geomspace(T_MIN, cfg.t_max, T_COUNT), barycentric_grid(BARY_N)


def _sweep_inputs(examples, rng, n):
    """n seeded (representation, example) pairs drawn as the build_sweep benchmark
    draws them: either builtin, with a coboundary, deformed(s) or a unit
    tangent-basis cocycle, s log-uniform in [0.1, 100]."""
    for k in range(n):
        ex = examples[("gamma2", "punctured_torus")[k % 2]]
        rep0 = ex.representation
        scale = float(np.exp(rng.uniform(math.log(0.1), math.log(100.0))))
        kind = k // 2 % 3
        if kind == 0:
            v = rng.normal(size=3)
            v *= 0.25 * scale / np.linalg.norm(v)
            rep = rep0.with_translations({g: v - lin.matrix @ v for g, lin in rep0.linear.items()})
        elif kind == 1:
            rep = ex.deformed(scale)
        else:
            basis = tangent_cocycle_basis(rep0)
            c = rng.normal(size=len(basis))
            c /= np.linalg.norm(c)
            rep = rep0.with_translations(cocycle_from_tangent_vector(
                rep0, {g: 0.25 * scale * sum(ci * b[g] for ci, b in zip(c, basis))
                       for g in basis[0]}))
        yield rep, ex


def _sweep_charts(examples, rng, n):
    """Stacked charts of n seeded inputs drawn by _sweep_inputs."""
    for rep, ex in _sweep_inputs(examples, rng, n):
        yield build(rep, ex.triangulation).charts


def test_screened_pass_equals_per_sample_pass(examples):
    # certified, failing and far-failing kappas, and p x 40, which moves the
    # minimum off the corner plateaus: the same (ok, stats), worst samples included;
    # then p x 1e4 and t_max = 1e4, which put the window's entry bound N far
    # from the builtins' scale (through kappa, and through t |a|)
    worst = []
    for cfg, n, scales in ((BuildSettings(), 12, (1.0, 40.0)), (BuildSettings(), 6, (1e4,)),
                           (BuildSettings(t_max=1e4), 6, (1.0, 1e4))):
        t_values, grid = _pass_samples(cfg)
        for u, p in _sweep_charts(examples, np.random.default_rng(31), n):
            for charts in ((u, scale * p) for scale in scales):
                kappa = choose_kappa(charts, cfg).kappa
                for k in (kappa, 0.5 * kappa, 1e-3):
                    got = _certify_once(charts, k, t_values, cfg.margin)
                    assert got == _certify_once_per_sample(charts, k, t_values, grid,
                                                           cfg.margin)
                    worst.append(got[1]["worst"])
    jacobian = [w for w in worst if w is not None and w[0] == "jacobian"]
    assert len(jacobian) >= 24
    assert any(max(w[3]) < BLEND_THRESHOLD for w in jacobian)  # off the plateaus


def test_screen_window_keeps_near_ties():
    # the corner plateaus of a symmetric chart share one determinant; with 1e-16
    # noise in p they differ by rounding, where the cofactor screen and LAPACK
    # can rank them differently, and LAPACK's ranking names the worst sample
    cfg = BuildSettings()
    t_values, grid = _pass_samples(cfg)
    rng = np.random.default_rng(32)
    reranked = 0
    for _ in range(40):
        theta = rng.uniform(0.0, 2 * math.pi)
        u = np.array([[[1.0, math.cos(a + theta), math.sin(a + theta)]
                       for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]])
        charts = (u, 1e-16 * rng.normal(size=(1, 3, 3)))
        jac = dev_hat_jacobians(charts[0], chart_offsets(*charts, 1.0), np.zeros((1, 1, 1), int),
                                t_values[:, None], grid)
        reranked += np.argmin(np.linalg.det(jac)) != np.argmin(_det3(jac))
        assert _certify_once(charts, 1.0, t_values, 1e9) == (
            _certify_once_per_sample(charts, 1.0, t_values, grid, 1e9))
    assert reranked > 0


def test_non_finite_sample_fails_the_pass(gamma2_zero):
    u, p = gamma2_zero.charts
    p = p.copy()
    p[1, 2] = np.nan
    cfg = BuildSettings()
    t_values, grid = _pass_samples(cfg)
    got = _certify_once((u, p), gamma2_zero.kappa, t_values, cfg.margin)
    assert not got[0] and math.isnan(got[1]["min_jacobian_det"])
    with np.errstate(invalid="ignore"):
        want = _certify_once_per_sample((u, p), gamma2_zero.kappa, t_values, grid,
                                        cfg.margin)
    assert repr(got) == repr(want)
    # no larger kappa changes a NaN, so the search stops after its first pass
    with pytest.raises(KappaSearchExhausted,
                       match=r"no kappa certified after 0 doublings \(1 pass\)"):
        choose_kappa((u, p), cfg)


def test_certification_passes_few_points_to_the_kernel(gamma2_zero, gamma2_deformed, torus_zero,
                                                      torus_deformed, monkeypatch):
    # the screen works from det J(t)'s coefficients; only its candidates reach
    # the chart kernel, not all 12,672 samples
    points = []

    def counted(*args):
        out = kernel(*args)
        points.append(out.size // 9)
        return out

    kernel = builder_module.dev_hat_jacobians
    monkeypatch.setattr(builder_module, "dev_hat_jacobians", counted)
    for st_ in (gamma2_zero, gamma2_deformed, torus_zero, torus_deformed):
        points.clear()
        cert = choose_kappa(st_.charts)
        assert cert.samples == 12_672 and cert.kappa == st_.kappa
        assert 1 <= sum(points) <= 64, points
        # at t_max = 1e4 the window follows each t's entry bound N(t); one bound
        # N at t_max sent 5,320-5,576 samples of each pass to the kernel
        points.clear()
        cert = choose_kappa(st_.charts, BuildSettings(t_max=1e4))
        assert cert.samples == 12_672 and cert.kappa == st_.kappa
        assert len(points) == cert.doublings + 1 and 1 <= min(points) <= max(points) <= 64, points


def test_huge_t_max_fails_the_search_without_warnings(examples, monkeypatch):
    # t_max = 1e80 overflows the leaf Gram into NaN on the first pass, which no
    # larger kappa changes: the search stops after that pass (it ran all 41
    # before), says that a sample is not finite, and no numpy warning escapes
    ex = examples["punctured_torus"]
    passes = []
    certify = builder_module._certify_once

    def counted(*args):
        passes.append(args[1])
        return certify(*args)
    monkeypatch.setattr(builder_module, "_certify_once", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(KappaSearchExhausted,
                           match=r"no kappa certified after 0 doublings \(1 pass\)") as exc:
            build(ex.representation, ex.triangulation, BuildSettings(t_max=1e80))
    assert "a sample is not finite" in str(exc.value)
    assert "min_gram_eigenvalue nan" in str(exc.value)
    assert len(passes) == 1, passes


def test_build_gamma2(gamma2_zero):
    st_ = gamma2_zero
    assert len(st_.triangulation.triangles) == 2
    assert set(st_.fibers) == {"c1", "c2", "c3"}
    assert set(st_.fans) == set(st_.spears) == set(st_.fibers)
    cert = st_.certification
    assert cert.samples >= 10_000
    assert cert.min_jacobian_det > 1e-6
    assert cert.min_gram_eigenvalue > 1e-6
    assert cert.equivariance_residual is not None
    assert cert.equivariance_residual <= 1e-8
    assert all(f.present for f in st_.fibers.values())


def test_build_torus(torus_zero):
    assert set(torus_zero.fibers) == {"c1"}
    assert torus_zero.certification.min_gram_eigenvalue > 1e-6


def test_build_rejects_inadmissible(examples):
    ex = examples["gamma2"]
    rep = ex.representation
    translations = {n: np.zeros(3) for n in rep.presentation.generator_names}
    translations["c1"] = np.array([1.0, 0.0, 0.0])
    with pytest.raises(NotAdmissible):
        build(rep.with_translations(translations), ex.triangulation)


def test_build_reads_each_cusp_once(examples, monkeypatch):
    # one admissibility pass and one word batch: a build classifies each
    # peripheral's linear part once and makes one evaluate call, the relator
    # and then the gluing table's sorted distinct words; the fans read the
    # peripheral holonomies from the letter table
    import btzgeo.minkowski as minkowski_module
    import btzgeo.representations as representations_module

    classified, batches = [], []
    classify, evaluate = minkowski_module.classify_isometry, AffineRepresentation.evaluate
    for module in (minkowski_module, representations_module):
        monkeypatch.setattr(module, "classify_isometry",
                            lambda m: classified.append(m) or classify(m))
    monkeypatch.setattr(AffineRepresentation, "evaluate",
                        lambda rep, words: batches.append(words) or evaluate(rep, words))
    for ex in examples.values():
        for rep in (ex.representation, ex.deformed(1.0)):
            classified.clear()
            batches.clear()
            build(rep, ex.triangulation)
            words = sorted({w for row in ex.triangulation.word for w in row})
            assert batches == [[rep.presentation.relator, *words]]
            assert len(classified) == len(rep.presentation.peripheral_names)


@pytest.mark.parametrize("name, entry, vertex", [
    ("gamma2", (0, 0), "inf"), ("gamma2", (0, 1), "0"), ("gamma2", (1, 2), "1"),
    ("punctured_torus", (0, 0), "-1"), ("punctured_torus", (0, 1), "inf"),
    ("punctured_torus", (1, 2), "1"),
])
def test_build_rejects_a_swapped_gluing_slot(examples, name, entry, vertex):
    # the two off-facet vertex slots of one (triangle, facet) entry swapped: the
    # decorations propagate, and the first glued edge that disagrees is named
    ex = examples[name]
    tri = copy.deepcopy(ex.triangulation)
    i, k = entry
    a, b = (j for j in range(3) if j != k)
    tri.slot[i, k, [a, b]] = tri.slot[i, k, [b, a]]
    message = f"decoration of vertex {vertex} is inconsistent across gluings"
    for rep in (ex.representation, ex.deformed(1.0)):
        with pytest.raises(InvalidTriangulation, match=f"^{re.escape(message)}$"):
            build(rep, tri)


def test_fan_geometry(gamma2_zero, gamma2_deformed):
    for st_ in (gamma2_zero, gamma2_deformed):
        for name, pg in st_.fans.items():
            thetas = np.array(pg.theta)
            assert len(thetas) == 2 * pg.r + 1
            assert np.all(np.diff(thetas) > 0)
            assert pg.Theta > 0
            assert pg.ell == pg.Theta / TWO_PI
            assert pg.holonomy_residual < 1e-7
            shifts = thetas[pg.r:] - thetas[: pg.r + 1]
            assert shifts.max() - shifts.min() <= 1e-8
            normalized = np.array(pg.theta_normalized)
            assert abs((normalized[pg.r] - normalized[0]) - TWO_PI) <= 1e-9
            # the frame is rotation_about_t's matrix, its exact inverse, and the
            # fan and prism tables as read-only arrays
            d = pg.line_direction
            frame = rotation_about_t(math.atan2(d[2], d[1]))
            assert pg.frame.tobytes() == frame.matrix.tobytes()
            assert pg.frame_inverse.tobytes() == (G @ frame.matrix.T @ G).tobytes()
            assert pg.triangles.shape == (2 * pg.r + 1,) and pg.corners.shape == (2 * pg.r + 1, 3)
            assert pg.prisms.shape == (pg.r, 3, 3) and not pg.singular.any()
            for table in (pg.frame, pg.frame_inverse, pg.triangles, pg.corners, pg.theta,
                          pg.prisms, pg.singular, pg.deck_generator):
                assert not table.flags.writeable


@pytest.mark.parametrize("fixture, residual", [("gamma2_zero", "3.000e+00"),
                                               ("torus_zero", "1.200e+01")])
def test_fan_period_off_the_holonomy_is_refused(request, fixture, residual):
    # c1's translation moved by (1, 0, 0) after the build: the fan still
    # closes with the built gluing, but its period is no longer c1's
    # holonomy (a letter table row) nor its inverse
    st_ = request.getfixturevalue(fixture)
    rep = st_.representation
    st2 = replace(st_, representation=rep.with_translations(
        {**rep.translations, "c1": rep.translations["c1"] + np.array([1.0, 0.0, 0.0])}))
    message = f"fan period around c1 is not the peripheral holonomy (residual {residual})"
    with pytest.raises(NonMonotoneAngles, match=f"^{re.escape(message)}$"):
        puncture_geometry(st2, "c1")


def test_fan_angle_advance_is_deformation_invariant(gamma2_zero, gamma2_deformed):
    for name in gamma2_zero.fans:
        assert gamma2_zero.fans[name].Theta == pytest.approx(
            gamma2_deformed.fans[name].Theta, abs=1e-8
        )


def test_fan_theta_matches_holonomy_parameter(torus_zero):
    pg = torus_zero.fans["c1"]
    hol = torus_zero.representation.linear["c1"]
    conj = LinearIsometry(pg.frame_inverse @ hol.matrix @ pg.frame)
    assert abs(parabolic_parameter(conj)) == pytest.approx(pg.Theta, abs=1e-8)


def test_model_round_trip(gamma2_zero):
    pg = gamma2_zero.fans["c1"]
    rng = np.random.default_rng(7)
    coords = rng.uniform((-1.0, 1e-3, -5.0), (3.0, 2.0, 5.0), size=(200, 3))
    x = model_to_minkowski(pg, coords)
    back = minkowski_to_model(pg, x)
    assert back.shape == (200, 3)
    assert back == pytest.approx(coords, abs=1e-8)
    for row, xi in zip(back, x):
        assert row.tobytes() == minkowski_to_model(pg, xi).tobytes()


def test_spears(gamma2_zero, torus_deformed):
    for st_ in (gamma2_zero, torus_deformed):
        for name, sp in st_.spears.items():
            assert sp.radius > 0
            assert sp.ell == st_.fans[name].ell
            assert sp.ring_tau == sp.vertex_tau + 0.5 * sp.radius


# Spear descriptors of the reference builds, recorded from the closed-form
# spear: (puncture, vertex_tau, radius, ell, samples = 3 per fan window).
REFERENCE_SPEARS = {
    "gamma2_zero": [
        ("c1", 3.141592653589793, 0.10504226244065072, 0.3183098861837907, 6),
        ("c2", 3.141592653589798, 0.10504226244065083, 0.3183098861837902, 6),
        ("c3", 1.5707963267948941, 0.21008452488130178, 0.6366197723675824, 6),
    ],
    "gamma2_deformed": [
        ("c1", 3.4969934454562788, 0.11515940117573126, 0.31830988618379064, 6),
        ("c2", 3.4969934454562845, 0.1151594011757313, 0.31830988618379, 6),
        ("c3", 1.7484967227281354, 0.23320720307244605, 0.6366197723675826, 6),
    ],
    "torus_zero": [("c1", 1.0471975511965974, 0.6302535746438991, 0.9549296585513724, 18)],
    "torus_deformed": [("c1", 1.1916867453973128, 0.7086013449974533, 0.9549296585513715, 18)],
}


# certification.to_json() of the reference builds, recorded with the per-simplex
# certification pass: (kappa, min_jacobian_det, min_gram_eigenvalue) and the
# face-equivariance corner bound (equivariance_residual = (t_max + kappa) du + dp,
# du, dp); every build certifies at once (doublings 0, kappa_initial = kappa)
# on 12672 samples
REFERENCE_CERTIFICATIONS = {
    "gamma2_zero": (1.0, 1.9999999999999982, 0.9243577472252533,
                    3.419486915845482e-14, 3.1086244689504383e-15, 0.0),
    "gamma2_deformed": (1.1131275856086498, 2.4339588072597063, 1.0871892516094137,
                        3.7155564447060273e-14, 3.1086244689504383e-15, 2.609024107869118e-15),
    "torus_zero": (1.0, 3.9999999999999885, 2.419999999999997,
                   1.1235457009206584e-13, 1.021405182655144e-14, 0.0),
    "torus_deformed": (1.137977016882451, 5.243674011824025, 2.997850690834214,
                       1.1558186469619986e-13, 1.021405182655144e-14, 1.817990202823694e-15),
}


@pytest.mark.parametrize("fixture", sorted(REFERENCE_CERTIFICATIONS))
def test_reference_certifications_are_pinned(fixture, request):
    kappa, det, eig, residual, du, dp = REFERENCE_CERTIFICATIONS[fixture]
    assert request.getfixturevalue(fixture).certification.to_json() == {
        "kappa": kappa, "kappa_initial": kappa, "doublings": 0, "samples": 12672,
        "min_jacobian_det": det, "min_gram_eigenvalue": eig, "margin": 1e-6,
        "equivariance_residual": residual, "equivariance_du": du, "equivariance_dp": dp,
    }


def _developed_face_mismatch(st_, t, edge_count=10):
    """The sampled face check the corner bound replaced: across every glued
    facet (both readings), the largest |x_left - (m x_right + b)| at time t
    over edge_count points of the edge, and the largest |x| developed."""
    tri = st_.triangulation
    i, k = np.nonzero(tri.neighbour >= 0)
    s = (np.arange(edge_count) + 0.5) / edge_count
    v = np.sort((k[:, None] + [1, 2]) % 3)
    ends = np.eye(3)[np.stack([v, np.take_along_axis(tri.slot[i, k], v, axis=1)], axis=1)]
    alpha = s[:, None] * ends[..., None, 0, :] + (1.0 - s)[:, None] * ends[..., None, 1, :]
    x = dev_hat_points(*st_.charts, np.stack([i, tri.neighbour[i, k]], axis=1)[..., None],
                       t, alpha, st_.kappa)
    m, b = st_.gluing
    right = np.einsum("gab,gsb->gsa", m[i, k], x[:, 1]) + b[i, k][:, None]
    return float(np.abs(x[:, 0] - right).max()), float(np.abs(x).max())


@pytest.mark.parametrize("fixture", sorted(REFERENCE_CERTIFICATIONS))
def test_corner_bound_covers_sampled_face_mismatch(fixture, request):
    # the developed mismatch at any t is within (t + kappa) du + dp, up to the
    # rounding of developing both points (a few ulps of |x|), also past t_max
    st_ = request.getfixturevalue(fixture)
    cert = st_.certification
    du, dp = corner_residuals(st_)
    assert (cert.equivariance_du, cert.equivariance_dp) == (float(du.max()), float(dp.max()))
    assert cert.equivariance_residual == (10.0 + st_.kappa) * cert.equivariance_du + \
        cert.equivariance_dp
    assert verify_face_equivariance(st_) == cert.equivariance_residual
    for t in [*np.geomspace(0.1, 10.0, 10), 1e3]:
        mismatch, size = _developed_face_mismatch(st_, t)
        bound = (t + st_.kappa) * cert.equivariance_du + cert.equivariance_dp
        assert mismatch <= bound + 4 * np.finfo(float).eps * size, (t, mismatch, bound)


def test_face_mismatch_names_its_corner(gamma2_deformed, torus_zero):
    # one reading of one glued facet moved: the error names that triangle and
    # facet and a corner of it, where the developed charts differ by the move
    for st_, (i, k), shift in ((gamma2_deformed, (0, 1), 1e-3), (torus_zero, (1, 2), 4e-4)):
        m, b = st_.gluing
        b = b.copy()
        b[i, k, 2] += shift
        broken = replace(st_, gluing=(m, b))
        with pytest.raises(FaceMismatch, match=rf"triangle {i}, facet {k}, slot \d") as err:
            verify_face_equivariance(broken)
        j = int(re.search(r"slot (\d)", str(err.value)).group(1))
        assert j != k
        n, jn = st_.triangulation.neighbour[i, k], st_.triangulation.slot[i, k, j]
        t = st_.settings.t_max
        x = dev_hat_points(*st_.charts, np.array([i, n]), t, np.eye(3)[[j, jn]], st_.kappa)
        assert np.abs(x[0] - (m[i, k] @ x[1] + b[i, k])).max() == pytest.approx(shift)


@pytest.mark.parametrize("fixture", sorted(REFERENCE_SPEARS))
def test_reference_spears_are_pinned(fixture, request):
    st_ = request.getfixturevalue(fixture)
    want = {
        name: {
            "puncture": name, "vertex_tau": tau, "radius": radius, "ell": ell,
            "samples": samples, "ring_tau": tau + 0.5 * radius,
            "head": "tau = vertex_tau + r/2 for 0 < r < radius",
            "shaft": "r = radius, tau >= ring_tau",
        }
        for name, tau, radius, ell, samples in REFERENCE_SPEARS[fixture]
    }
    assert {k: sp.to_json() for k, sp in st_.spears.items()} == want


# sha256 of the canonical bundle bytes (build(...).dumps()) of the builtins at
# deformed(scale), scale 0 being the zero cocycle; the bundles hold the fans'
# 2r + 1 angles, their holonomy residuals and the spear radii
REFERENCE_BUNDLE_SHA256 = {
    ("gamma2", 0.0): "34e50016830a904b2cdb4d97a6b0a29cb94f9968f554545395eccbc22229f088",
    ("gamma2", 1.0): "04892a80d4d66a397695364d43ebeb6c4cad5645a417224ba0c8e10f90d4cde7",
    ("gamma2", 25.0): "3527c9cc35dbceea170e3ef41b49e3e3577c88c737a1d8e0815b9d89c68dc66e",
    ("punctured_torus", 0.0): "932c38853005b237bcbcac16df9290c4eb523feed6392fd0d4ac86ca76d25ecd",
    ("punctured_torus", 1.0): "581b0c747d0dfe44b59745ea44bd1f97a5cb60720df283bc4e45e6a6d2ddb9c1",
    ("punctured_torus", 25.0): "6ff519a889f46c50122d5e8f9d2a80795ce003a15be9387d0d10d5587eb5904e",
}


@pytest.mark.parametrize("example, scale", sorted(REFERENCE_BUNDLE_SHA256))
def test_reference_bundle_bytes_are_pinned(examples, example, scale):
    ex = examples[example]
    rep = ex.deformed(scale) if scale else ex.representation
    text = build(rep, ex.triangulation).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_BUNDLE_SHA256[example, scale]


# sha256 of the concatenated canonical bundle bytes of 30 builds of
# _sweep_inputs(examples, np.random.default_rng(2024), 30): both builtins,
# coboundaries, deformed(s) and tangent-basis cocycles, s log-uniform in
# [0.1, 100], so bytes off the builtins' own scales are pinned too
SWEEP_BUNDLES_SHA256 = "d9038aec60d2983b60475663df13495fe87237ffbc9ba4a44124347b53eabcdf"


def test_sweep_bundle_bytes_are_pinned(examples):
    digest = hashlib.sha256()
    for rep, ex in _sweep_inputs(examples, np.random.default_rng(2024), 30):
        digest.update(build(rep, ex.triangulation).dumps().encode())
    assert digest.hexdigest() == SWEEP_BUNDLES_SHA256


def _prism_reference(pg, x):
    """One-point fan-prism membership: the per-sample loop body the array test replaced."""
    d = x - pg.anchor
    if minkowski_inner(d, pg.line_direction) >= 0:
        return False, (-1, math.nan, math.nan, math.nan)
    frame_inv = pg.frame_inverse
    w = frame_inv @ d
    theta = -w[2] / (w[0] - w[1])
    windows = pg.theta.tolist()
    lo, span = windows[0], windows[pg.r] - windows[0]
    lifted = lo + (theta - lo) % span
    n = min(max(bisect.bisect_right(windows, lifted) - 1, 0), pg.r - 1)
    m = np.column_stack([pg.line_direction, pg.corners[n] - pg.anchor,
                         pg.corners[n + 1] - pg.anchor])
    sn = (lifted - theta) * (pg.frame @ axis_deck_generator() @ frame_inv)
    t, a, b = np.linalg.solve(m, (np.eye(3) + sn + 0.5 * (sn @ sn)) @ d)
    inside = t > 1e-12 and a >= -1e-9 and b >= -1e-9 and a + b <= 1.0 / 3.0 + 1e-9
    return inside, (n, t, a, b)


@pytest.mark.parametrize("fixture", ["gamma2_deformed", "torus_zero"])
def test_fan_prisms_match_one_point_reference(fixture, request):
    st_ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    for name, sp in st_.spears.items():
        pg = st_.fans[name]
        # model points around the spear, plus ambient points on both sides
        # of the half-space in front of the axis
        model = np.column_stack([
            sp.vertex_tau + rng.uniform(-1.0, 3.0, 300) * sp.radius,
            rng.uniform(0.0, 3.0, 300) * sp.radius,
            rng.uniform(-10.0, 10.0, 300),
        ])
        x = np.vstack([model_to_minkowski(pg, model),
                       pg.anchor + rng.normal(size=(100, 3)) * st_.kappa])
        inside, info = _in_fan_prisms(pg, x)
        ref = [_prism_reference(pg, row) for row in x]
        assert inside.tolist() == [ok for ok, _ in ref]
        assert 0 < inside.sum() < len(x)
        np.testing.assert_allclose(info, [r for _, r in ref], rtol=1e-12, atol=1e-12)


def test_spear_samples_count_three_points_per_window(gamma2_zero, torus_zero):
    for st_ in (gamma2_zero, torus_zero):
        for name, sp in st_.spears.items():
            assert sp.samples == 3 * st_.fans[name].r
            assert type(sp.radius) is float


def test_spear_search_treats_singular_prism_as_outside(gamma2_zero):
    pg = gamma2_zero.fans["c1"]
    corners = pg.corners.copy()
    corners[1] = corners[0]
    broken = replace(gamma2_zero, fans={**gamma2_zero.fans, "c1": replace(pg, corners=corners)})
    with pytest.raises(SpearNotFound, match=r"\(window, t, a, b\) = \(0\.0, nan"):
        find_spear(broken, "c1")


def test_model_to_minkowski_array_matches_rows(gamma2_deformed):
    pg = gamma2_deformed.fans["c2"]
    rng = np.random.default_rng(11)
    pts = np.column_stack([
        rng.uniform(-1.0, 3.0, 40), rng.uniform(0.0, 2.0, 40), rng.uniform(-5.0, 5.0, 40)
    ])
    rows = np.array([model_to_minkowski(pg, tuple(p)) for p in pts])
    assert np.array_equal(model_to_minkowski(pg, pts), rows)
    assert model_to_minkowski(pg, pts[0]).shape == (3,)
    grid = model_to_minkowski(pg, pts.reshape(5, 8, 3))
    assert np.array_equal(grid.reshape(40, 3), rows)


def test_spear_search_fails_on_broken_fan(gamma2_zero):
    pg = gamma2_zero.fans["c1"]
    broken = replace(pg, anchor=pg.anchor + np.array([0.0, 100.0, 0.0]))
    st_ = replace(gamma2_zero, fans={**gamma2_zero.fans, "c1": broken})
    with pytest.raises(SpearNotFound):
        find_spear(st_, "c1")


def _ring_inside(st_, name, radius, n=2880):
    """Fan-prism membership of n angles on the head-cone ring of a spear at radius."""
    pg, sp = st_.fans[name], st_.spears[name]
    theta = pg.theta[0] / pg.ell + TWO_PI * (np.arange(n) + 0.5) / n
    ring = np.column_stack([np.full(n, sp.vertex_tau + 0.5 * radius), np.full(n, radius), theta])
    return _in_fan_prisms(pg, model_to_minkowski(pg, ring))[0]


def _assert_spears_tight(st_):
    # inside at every one of 2880 angles at the recorded radius, and outside
    # somewhere 1% beyond the exact bound R* = radius / SPEAR_FACTOR
    for name, sp in st_.spears.items():
        assert _ring_inside(st_, name, sp.radius).all(), name
        assert not _ring_inside(st_, name, 1.01 * sp.radius / SPEAR_FACTOR).all(), name


@pytest.mark.parametrize("example", ["gamma2", "punctured_torus"])
@pytest.mark.parametrize("scale", [0.0, 1.0, 10.0, 25.0])
def test_spear_ring_is_inside_at_every_angle(examples, example, scale):
    ex = examples[example]
    rep = ex.deformed(scale) if scale else ex.representation
    _assert_spears_tight(build(rep, ex.triangulation))


def test_spear_is_smaller_than_the_sampled_search_gave(examples):
    # a 16-angle search certified radius 0.37583 around c1 of gamma2 at
    # deformed(25); between its angles that ring leaves the fan prisms
    ex = examples["gamma2"]
    st_ = build(ex.deformed(25.0), ex.triangulation)
    assert not _ring_inside(st_, "c1", 0.37583).all()
    assert st_.spears["c1"].radius == pytest.approx(0.35797, abs=1e-5)


def test_spear_ring_is_inside_on_sweep_inputs(examples):
    for rep, ex in _sweep_inputs(examples, np.random.default_rng(17), 40):
        _assert_spears_tight(build(rep, ex.triangulation))


def _fake_prisms(rows):
    """An _in_fan_prisms stand-in whose 3 samples in every window, in order, have
    prism coordinates rows (3, 3) = (t, a, b) each."""
    def prisms(pg, x):
        window = np.repeat(np.arange(pg.r), 3)
        return np.ones(len(x), bool), np.column_stack([window, np.tile(rows, (pg.r, 1))])
    return prisms


# samples at u = (theta - mid) / width = -1/4, 0, 1/4 of each window, and the
# max (a + b) of their quadratics over -1/2 <= u <= 1/2
@pytest.mark.parametrize("rows, peak", [
    # linear a = 1/2 + u and constant t, b: the zero leading coefficients put
    # the maximum at an end, with no RuntimeWarning
    ([[1.0, 0.25, 0.25], [1.0, 0.5, 0.25], [1.0, 0.75, 0.25]], 1.25),
    # a = 0.6 + 0.2 u - 0.8 u^2 peaks at u = 1/8, between the samples
    ([[1.0, 0.5, 0.25], [1.0, 0.6, 0.25], [1.0, 0.6, 0.25]], 0.8625),
])
def test_spear_radius_is_the_quadratics_maximum(gamma2_zero, monkeypatch, rows, peak):
    monkeypatch.setattr(builder_module, "_in_fan_prisms", _fake_prisms(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = find_spear(gamma2_zero, "c1")
    assert sp.radius == pytest.approx(SPEAR_FACTOR / (3.0 * peak), rel=1e-12)


def test_spear_fails_where_t_dips_between_samples(gamma2_zero, monkeypatch):
    # t = 0.001 + 0.3 u + 1.984 u^2 is positive at the samples and the ends of
    # the window, and negative at its vertex u = -0.0756
    rows = [[0.05, 0.1, 0.1], [0.001, 0.1, 0.1], [0.2, 0.1, 0.1]]
    monkeypatch.setattr(builder_module, "_in_fan_prisms", _fake_prisms(rows))
    with pytest.raises(SpearNotFound, match=r"\(window, t, a, b\) = \(0\.0, -0\.010"):
        find_spear(gamma2_zero, "c1")


def test_spear_fails_on_a_sample_in_another_window(gamma2_zero, monkeypatch):
    # the middle sample of window 0 reported behind the axis (window -1)
    fake = _fake_prisms([[1.0, 0.1, 0.1]] * 3)

    def behind(pg, x):
        inside, info = fake(pg, x)
        info[1, 0] = -1.0
        return inside, info

    monkeypatch.setattr(builder_module, "_in_fan_prisms", behind)
    with pytest.raises(SpearNotFound, match=r"\(window, t, a, b\) = \(-1\.0, 1\.0, 0\.1, 0\.1\)"):
        find_spear(gamma2_zero, "c1")


def test_fan_walk_rejects_corrupt_decorations(gamma2_zero):
    # flip a corner vertex to the past cone: the fan walk around c3 reads the
    # decorations of the non-axis corners, which must point into the future side
    victim = next(
        v for v, c in gamma2_zero.triangulation.vertex_class.items() if c != "c3"
    )
    u = gamma2_zero.charts[0].copy()
    u[np.array(gamma2_zero.triangulation.triangles) == victim] *= -1.0
    st_ = replace(gamma2_zero, charts=(u, gamma2_zero.charts[1]))
    with pytest.raises(NonMonotoneAngles,
                       match=r"^fan direction does not point into the future side of the axis$"):
        puncture_geometry(st_, "c3")


def test_derived_tables_cannot_go_stale(gamma2_zero):
    # offsets and residuals derive from charts, kappa, gluing and triangulation
    # on construction, so those cannot be assigned; a replace copy rederives them
    u, p = gamma2_zero.charts
    for name, value in (("charts", (2.0 * u, p)), ("kappa", 2.0),
                        ("gluing", gamma2_zero.gluing), ("offsets", gamma2_zero.offsets),
                        ("triangulation", gamma2_zero.triangulation)):
        with pytest.raises(AttributeError, match=rf"^{name} of a constructed .*dataclasses\.replace$"):
            setattr(gamma2_zero, name, value)
    assert gamma2_zero.charts[0] is u and gamma2_zero.kappa == 1.0
    copy_ = replace(gamma2_zero, charts=(2.0 * u, p), kappa=3.0)
    for got, want in zip(copy_.offsets, chart_offsets(2.0 * u, p, 3.0)):
        assert np.array_equal(got, want)
    assert not np.array_equal(copy_.offsets[0], gamma2_zero.offsets[0])
    copy_.spears = {}  # build's own assignments stay allowed
    assert copy_.spears == {}


def _walk_reference(st_, puncture):
    """One-corner-at-a-time fan walk: the per-corner loop the stacked walk
    replaced.  Returns the 2r + 1 angles, or raises the walk's first error."""
    fiber, tri = st_.fibers[puncture], st_.triangulation
    orbit = {v for v, c in tri.vertex_class.items() if c == puncture}
    r = sum(v in orbit for t in tri.triangles for v in t)
    anchor = st_.kappa * fiber.line_direction + fiber.line_point
    d = fiber.line_direction
    frame = rotation_about_t(math.atan2(d[2], d[1])).matrix
    frame_inv = G @ frame.T @ G
    (m, b), (u, p) = st_.gluing, st_.charts
    deck_m, deck_b = np.eye(3), np.zeros(3)

    def angle(i, j):
        w = frame_inv @ (deck_m @ (st_.kappa * u[i, j] + p[i, j]) + deck_b - anchor)
        if w[0] - w[1] <= 0:
            raise NonMonotoneAngles(
                "fan direction does not point into the future side of the axis")
        return float(-w[2] / (w[0] - w[1]))

    i = min(n for n, t in enumerate(tri.triangles) if fiber.base_vertex in t)
    cur = tri.triangles[i].index(fiber.base_vertex)
    first = sorted(((angle(i, j), j) for j in range(3) if j != cur), key=lambda e: e[0])
    thetas, out = [th for th, _ in first], first[-1][1]
    for _ in range(2 * r - 1):
        k = 3 - cur - out
        nbr, entered, cur = int(tri.neighbour[i, k]), tri.slot[i, k, out], tri.slot[i, k, cur]
        if tri.triangles[nbr][cur] not in orbit:
            raise NonMonotoneAngles(
                f"fan walk left the vertex orbit of {puncture} at triangle {nbr}")
        if tri.word[i][k]:
            deck_m, deck_b = deck_m @ m[i, k], deck_m @ b[i, k] + deck_b
        i, out = nbr, 3 - cur - entered
        thetas.append(angle(i, out))
    return thetas


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


# outcomes each build's corrupted walks must include: angles, the first corner
# behind the axis, and (gamma2 only: the torus has one vertex orbit) leaving it
@pytest.mark.parametrize("fixture, outcomes", [
    ("gamma2_deformed", {"angles", "direction", "walk"}),
    ("torus_deformed", {"angles", "direction"}),
])
def test_fan_walk_matches_one_corner_reference(fixture, outcomes, request):
    # corners flipped to the past cone and permuted gluing slots: the stacked
    # walk gives the reference's angles bit for bit, or its first error in walk
    # order (the checks after the walk may still refuse a walk that passes)
    st0 = request.getfixturevalue(fixture)
    rng = np.random.default_rng(2)
    seen = set()
    for trial in range(80):
        u = st0.charts[0].copy()
        u[rng.random(u.shape[:2]) < 0.2] *= -1.0
        tri = st0.triangulation
        if trial % 2:
            tri = copy.copy(st0.triangulation)
            tri.slot = st0.triangulation.slot.copy()
            i, k = rng.integers(len(u)), rng.integers(3)
            tri.slot[i, k] = rng.permutation(3)
        st_ = replace(st0, charts=(u, st0.charts[1]), triangulation=tri)
        for name in st_.fibers:
            want = _outcome(_walk_reference, st_, name)
            got = _outcome(puncture_geometry, st_, name)
            if isinstance(got, PunctureGeometry):
                got = got.theta.tolist()
            elif isinstance(want, list) and got[0] == "NonMonotoneAngles":
                assert not got[1].startswith(("fan direction", "fan walk left")), got
                continue
            assert got == want
            seen.add(want[1].split()[1] if isinstance(want, tuple) else "angles")
    assert outcomes <= seen


def test_unknown_puncture_has_one_message(gamma2_zero):
    for fn in (puncture_geometry, find_spear):
        with pytest.raises(KeyError, match="unknown puncture zz"):
            fn(gamma2_zero, "zz")


def test_strip_extend_round_trip(gamma2_zero):
    stripped = strip_btz(gamma2_zero)
    assert not any(f.present for f in stripped.fibers.values())
    assert strip_btz(stripped).dumps() == stripped.dumps()
    back, report = extend_btz(stripped)
    assert all(v == "reattached" for v in report.values())
    assert back.dumps() == gamma2_zero.dumps()
    again, report2 = extend_btz(back)
    assert all(v == "already-present" for v in report2.values())
    assert again.dumps() == gamma2_zero.dumps()


def test_extend_btz_reattaches_from_the_certified_spears(monkeypatch, gamma2_zero,
                                                         gamma2_deformed, torus_zero,
                                                         torus_deformed):
    # every build certifies a spear per fiber, so re-extending searches no spear
    calls = []
    monkeypatch.setattr(builder_module, "find_spear", lambda *args: calls.append(args))
    for st_ in (gamma2_zero, gamma2_deformed, torus_zero, torus_deformed):
        assert set(st_.spears) == set(st_.fibers)
        restored, report = extend_btz(strip_btz(st_))
        assert set(report.values()) == {"reattached"}
        assert restored.dumps() == st_.dumps()
    assert calls == []


@pytest.mark.parametrize("fixture", sorted(REFERENCE_CERTIFICATIONS))
def test_bundle_round_trip(request, fixture):
    st_ = request.getfixturevalue(fixture)
    text = st_.dumps()
    import json

    back = PolyhedralSpacetime.from_json(json.loads(text))
    assert back.dumps() == text
    assert back.kappa == st_.kappa
    for mine, theirs in zip(back.charts, st_.charts):
        assert mine.tobytes() == theirs.tobytes()
    # the per-vertex decorations block reads every corner of the charts
    decorations = json.loads(text)["decorations"]
    for k, t in enumerate(st_.triangulation.triangles):
        for j, v in enumerate(t):
            assert decorations[v] == {"u": st_.charts[0][k, j].tolist(),
                                      "p": st_.charts[1][k, j].tolist()}


def test_bundle_fans_are_computed_on_load(gamma2_zero):
    import json

    d = json.loads(gamma2_zero.dumps())
    for fans in ({}, {k: v for k, v in d["fans"].items() if k != "c1"},
                 {**d["fans"], "c9": d["fans"]["c1"]}):
        with pytest.raises(ValueError, match="fans"):
            PolyhedralSpacetime.from_json({**d, "fans": fans})
    # stored fan values are derived: a tampered one differs from the rebuild's
    tampered = {**d, "fans": {k: {**v, "Theta": 1.0} for k, v in d["fans"].items()}}
    with pytest.raises(ValueError, match=r"^bundle\.fans\.c1\.Theta does not match"):
        PolyhedralSpacetime.from_json(tampered)


def test_bundle_kappa_must_match_its_certificate(gamma2_zero):
    # a tampered kappa is refused at load time, before any chart is used
    import json

    d = json.loads(gamma2_zero.dumps())
    for bad in (1e-3, 2.0 * d["kappa"], math.nan, math.inf, 0.0, -5.0):
        with pytest.raises(ValueError, match="kappa"):
            PolyhedralSpacetime.from_json({**d, "kappa": bad})
    for bad in (math.nan, math.inf, 0.0, -5.0):
        tampered = {**d, "kappa": bad, "certification": {**d["certification"], "kappa": bad}}
        with pytest.raises(ValueError, match="kappa"):
            PolyhedralSpacetime.from_json(tampered)
    # so are a foreign blend and a bundle version other than 1
    for key, bad in (("blend", {"name": "linear", "threshold": 0.25}),
                     ("blend", {**d["blend"], "threshold": 0.5}), ("blend", None),
                     ("version", 7), ("version", None)):
        with pytest.raises(ValueError, match=key):
            PolyhedralSpacetime.from_json({**d, key: bad})
    assert PolyhedralSpacetime.from_json(d).dumps() == gamma2_zero.dumps()


@pytest.mark.parametrize(
    "bad",
    [
        {"t_max": 0.1},
        {"margin": 0.0},
        {"equiv_tol": 0.0},
        {"t_max": 0.05},
        {"margin": -1.0},
        {"t_max": -1.0},
        {"margin": math.nan},
        {"t_max": math.inf},
        {"t_max": math.nan},
        {"equiv_tol": math.inf},
        {"equiv_tol": -1e-8},
    ],
)
def test_build_settings_range_rules(bad):
    # every certificate must rest on a non-empty sample set; the message
    # names the first offending key
    with pytest.raises(ValueError, match=next(iter(bad))):
        BuildSettings(**bad)


_DELETE = object()


def _tampered(d: dict, path: str, value) -> dict:
    """A deep copy of the JSON object d with the entry at a dotted key path
    replaced (deleted if value is _DELETE)."""
    out = copy.deepcopy(d)
    *head, last = path.split(".")
    node = out
    for key in head:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return out


def test_json_records_check_field_types(gamma2_zero):
    # bundle records are compared with the rebuild's JSON, types included, so
    # a mistyped field is refused even where its value is equal
    d = json.loads(gamma2_zero.dumps())
    for path, bad, named in (("fibers.c1.line_point", ["0.0", 0.0, 0.0], "fibers.c1.line_point.0"),
                             ("fibers.c1.puncture", 3, "fibers.c1.puncture"),
                             ("spears.c1.samples", True, "spears.c1.samples"),
                             ("spears.c1.radius", "0.1", "spears.c1.radius"),
                             ("certification.equivariance_residual", "0",
                              "certification.equivariance_residual"),
                             ("certification.doublings", False, "certification.doublings"),
                             ("kappa", 1, "kappa"), ("kappa", True, "kappa")):
        with pytest.raises(ValueError, match=rf"^bundle\.{re.escape(named)} does not match"):
            PolyhedralSpacetime.from_json(_tampered(d, path, bad))
    for cls, bad in ((BuildSettings, {"t_max": "10.0"}),
                     (BuildSettings, {"t_max": 10.0, "spline": 3})):
        with pytest.raises(ValueError):
            cls.from_json(bad)
    # integers are numbers: a float setting loads them as floats
    assert BuildSettings.from_json({"t_max": 10}).t_max == 10.0
    assert type(BuildSettings.from_json({"t_max": 10}).t_max) is float


@pytest.mark.parametrize("path, bad, named", [
    # each of these loaded before bundles were rebuilt on load
    ("kappa", 1e-3, "certification.kappa"),  # with the certificate's kappa, below
    ("spears.c1.radius", 1e6, "spears.c1.radius"),
    ("decorations", {}, "decorations.-1"),
    ("fans.c1.Theta", 1.0, "fans.c1.Theta"),
    ("fans.c2", _DELETE, "fans.c2"),
    ("fibers.c2", _DELETE, "fibers.c2"),
    ("spears.c9", {}, "spears.c9"),
    ("certification.samples", 7, "certification.samples"),
    ("settings.margin", 2e-6, "certification.margin"),  # a valid setting the build did not use
])
def test_bundle_loads_only_what_its_rebuild_writes(gamma2_zero, path, bad, named):
    d = json.loads(gamma2_zero.dumps())
    tampered = _tampered(d, path, bad)
    if path == "kappa":
        tampered["certification"]["kappa"] = bad
    with pytest.raises(ValueError, match=rf"^bundle\.{re.escape(named)} does not match"):
        PolyhedralSpacetime.from_json(tampered)


def test_bundle_input_blocks_are_type_checked(gamma2_zero):
    # the input blocks and the fibers' present flags are read, never coerced
    d = json.loads(gamma2_zero.dumps())
    for path, bad, named in (("triangulation.positions.0", "0.0", "triangulation.positions.0"),
                             ("triangulation.vertex_class.0", ["c2"],
                              "triangulation.vertex_class.0"),
                             ("triangulation.vertex_class", "x", "triangulation.vertex_class"),
                             ("representation.genus", "0", "representation.genus"),
                             ("representation.generators.c1.translation", ["0", 0, 0],
                              "representation.generators.c1.translation.0"),
                             ("fibers.c1.present", 1, "fibers.c1.present")):
        with pytest.raises(ValueError,
                           match=rf"^bundle\.{re.escape(named)} has the wrong JSON type"):
            PolyhedralSpacetime.from_json(_tampered(d, path, bad))
    for path, bad, message in (("representation.generators.c2", _DELETE, "is missing"),
                               ("settings.spline", 3, "is not a known key"),
                               ("representation.generators.c1.so12", [1], "has the wrong length")):
        with pytest.raises(ValueError, match=rf"^bundle\.{re.escape(path)} {message}"):
            PolyhedralSpacetime.from_json(_tampered(d, path, bad))


def test_bundle_fiber_flags_come_from_the_bundle(gamma2_zero):
    # present is the one recorded field no rebuild derives: a bundle with one
    # fiber stripped loads with exactly that fiber absent
    d = json.loads(gamma2_zero.dumps())
    d["fibers"]["c2"]["present"] = False
    text = canonical_dumps(d)
    loaded = PolyhedralSpacetime.from_json(json.loads(text))
    assert {k: f.present for k, f in loaded.fibers.items()} == {"c1": True, "c2": False,
                                                                 "c3": True}
    assert loaded.dumps() == text
    assert PolyhedralSpacetime.from_json(json.loads(strip_btz(gamma2_zero).dumps())).dumps() \
        == strip_btz(gamma2_zero).dumps()


def test_bundle_settings_are_validated(gamma2_zero):
    d = gamma2_zero.to_json()
    d["settings"]["t_max"] = 0.05
    with pytest.raises(ValueError, match="t_max"):
        PolyhedralSpacetime.from_json(d)


def test_mesh_counts_and_determinism(torus_zero, tmp_path):
    res = 4
    verts, faces = mesh_data(torus_zero, [1.0, 2.0], res)
    per_leaf = (res + 1) * (res + 2) // 2
    n_simplices = len(torus_zero.triangulation.triangles)
    assert verts.shape == (2 * n_simplices * per_leaf, 3)
    assert len(faces) == 2 * n_simplices * res * res
    assert max(max(f) for f in faces) == len(verts) - 1

    obj = tmp_path / "leaves.obj"
    assert export_mesh(torus_zero, [1.0, 2.0], res, obj) == (len(verts), len(faces))
    body = obj.read_text()
    assert export_mesh(torus_zero, [1.0, 2.0], res, obj) == (len(verts), len(faces))
    assert obj.read_text() == body
    assert body.count("\nv ") + body.startswith("v ") == len(verts)
    assert body.count("\nf ") == len(faces)
    # every v line is three plain floats, the vertex in (x, y, t) order
    rows = [line.split()[1:] for line in body.splitlines() if line.startswith("v ")]
    assert all(len(row) == 3 for row in rows)
    assert np.array_equal(np.array([[float(w) for w in row] for row in rows]),
                          verts[:, [1, 2, 0]])

    with pytest.raises(ValueError):
        mesh_data(torus_zero, [1.0], 0)
    with pytest.raises(ValueError, match=r"^resolution must be <= 256, got 257$"):
        mesh_data(torus_zero, [1.0], 257)
    with pytest.raises(ValueError):
        mesh_data(torus_zero, [], 3)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mesh_data(torus_zero, [bad, 1.0], 3)


@pytest.mark.parametrize("t_values, resolution, message", [
    ([True], 3, "t_values must be a real number, got True"),
    (["1.0"], 3, "t_values must be a real number, got '1.0'"),
    ([1.0], True, "resolution must be an integer, got True"),
    ([1.0], 2.5, "resolution must be an integer, got 2.5"),
    ([1.0], "3", "resolution must be an integer, got '3'"),
])
def test_mesh_data_refuses_non_numbers(torus_zero, t_values, resolution, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mesh_data(torus_zero, t_values, resolution)


def test_jacobian_matches_finite_differences(gamma2_deformed):
    st_ = gamma2_deformed
    u, p = (c[0] for c in st_.charts)
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(20):
        a = rng.dirichlet(np.ones(3))
        if a.max() > 0.6:
            continue
        t = rng.uniform(0.3, 3.0)
        jac = dev_hat_jacobians(st_.charts[0], st_.offsets, 0, t, a)

        def chart(tt, aa, bb):
            return dev_hat(u, p, tt, (1 - aa - bb, aa, bb), st_.kappa)

        fd_t = (chart(t + h, a[1], a[2]) - chart(t - h, a[1], a[2])) / (2 * h)
        fd_a = (chart(t, a[1] + h, a[2]) - chart(t, a[1] - h, a[2])) / (2 * h)
        fd_b = (chart(t, a[1], a[2] + h) - chart(t, a[1], a[2] - h)) / (2 * h)
        assert jac == pytest.approx(np.stack([fd_t, fd_a, fd_b], axis=-1), abs=1e-5)
