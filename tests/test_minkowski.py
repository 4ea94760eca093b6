import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from btzgeo.minkowski import (
    AffineIsometry,
    CausalClass,
    CausalOrder,
    InvalidIsometry,
    IsometryKind,
    LinearIsometry,
    NoFixedPoints,
    NotParabolic,
    boost_x,
    causal_class,
    causal_relation,
    classify_isometry,
    fixed_lightlike_direction,
    fixed_line,
    is_tangent,
    minkowski_inner,
    quadratic_form,
    rotation_about_t,
)
from btzgeo.representations import sl2_to_so12

SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


def parabolic_fixing_110() -> LinearIsometry:
    # image of the unipotent shear; its fixed lightlike direction is (1,1,0)
    m = sl2_to_so12(SHEAR)
    u = fixed_lightlike_direction(m)
    r = rotation_about_t(math.atan2(u[2], u[1]))
    return r.inverse() @ m @ r


def test_quadratic_form_values():
    assert quadratic_form((1, 0, 0)) == -1.0
    assert quadratic_form((0, 1, 0)) == 1.0
    assert quadratic_form((1, 1, 0)) == 0.0


def test_minkowski_inner_values():
    assert minkowski_inner((1, 1, 0), (1, 1, 0)) == 0.0
    assert minkowski_inner((1, 0, 0), (0, 1, 0)) == 0.0
    assert minkowski_inner((2, 1, 0), (1, 1, 0)) == -1.0


def test_inner_polarizes_form():
    rng = np.random.default_rng(0)
    for v in rng.normal(size=(50, 3)):
        assert minkowski_inner(v, v) == pytest.approx(quadratic_form(v))


def test_causal_class_examples():
    assert causal_class((2, 1, 0)) is CausalClass.FUTURE_TIMELIKE
    assert causal_class((0, 3, 4)) is CausalClass.SPACELIKE
    assert causal_class((-1, 1, 0)) is CausalClass.PAST_LIGHTLIKE
    assert causal_class((1, 1, 0)) is CausalClass.FUTURE_LIGHTLIKE
    assert causal_class((-2, 0, 1)) is CausalClass.PAST_TIMELIKE
    assert causal_class((0, 0, 0)) is CausalClass.ZERO
    # the lightlike band is relative: Q(v) / |v|^2 is about 0.1 at either length
    assert causal_class((1e-5, 0, 1.1e-5)) is CausalClass.SPACELIKE
    assert causal_class((1e5, 0, 1.1e5)) is CausalClass.SPACELIKE
    assert causal_class((1e-5, 0, 1e-5)) is CausalClass.FUTURE_LIGHTLIKE


def test_causal_relation_examples():
    o = (0, 0, 0)
    assert causal_relation(o, (1, 0, 0)) is CausalOrder.CHRONOLOGICAL
    assert causal_relation(o, (1, 1, 0)) is CausalOrder.CAUSAL_ONLY
    assert causal_relation(o, (0, 1, 0)) is CausalOrder.INCOMPARABLE
    assert causal_relation(o, o) is CausalOrder.EQUAL
    assert causal_relation(o, (-1, 0, 0)) is CausalOrder.INCOMPARABLE


coord = st_.integers(min_value=-50, max_value=50)
ivec = st_.tuples(coord, coord, coord)


def _le_exact(p, q):
    # integer arithmetic: q - p future causal without tolerance questions
    d = tuple(b - a for a, b in zip(p, q))
    return d[0] >= 0 and d[0] ** 2 - d[1] ** 2 - d[2] ** 2 >= 0


@given(ivec, ivec, ivec)
@settings(max_examples=300)
def test_causal_relation_transitive_on_lattice(p, q, r):
    if _le_exact(p, q) and _le_exact(q, r):
        assert _le_exact(p, r)
        rel = causal_relation(p, r)
        assert rel in (
            CausalOrder.CHRONOLOGICAL,
            CausalOrder.CAUSAL_ONLY,
            CausalOrder.EQUAL,
        )


def test_classify_identity_and_rotation():
    assert classify_isometry(LinearIsometry.identity()).kind is IsometryKind.IDENTITY
    c = classify_isometry(rotation_about_t(math.pi))
    assert c.kind is IsometryKind.ELLIPTIC
    assert c.angle == pytest.approx(math.pi)
    assert np.trace(rotation_about_t(math.pi).matrix) == pytest.approx(-1.0)


def test_classify_shear_image_parabolic():
    a = sl2_to_so12(SHEAR)
    assert classify_isometry(a).kind is IsometryKind.PARABOLIC
    n = a.matrix - np.eye(3)
    assert np.linalg.norm(n @ n) > 1e-6
    assert np.linalg.norm(n @ n @ n) < 1e-8


def test_classify_boost_hyperbolic():
    assert classify_isometry(boost_x(0.7)).kind is IsometryKind.HYPERBOLIC


def test_classification_conjugation_invariant():
    rng = np.random.default_rng(1)
    base = {
        IsometryKind.ELLIPTIC: rotation_about_t(0.9),
        IsometryKind.PARABOLIC: sl2_to_so12(SHEAR),
        IsometryKind.HYPERBOLIC: boost_x(0.4),
    }
    for _ in range(200):
        conj = rotation_about_t(rng.uniform(0, 2 * math.pi)) @ boost_x(rng.uniform(-1, 1))
        for kind, a in base.items():
            c = classify_isometry(conj @ a @ conj.inverse())
            assert c.kind is kind
            if kind is IsometryKind.ELLIPTIC:
                assert c.angle == pytest.approx(0.9, abs=1e-8)


def test_isometry_invariance_of_form():
    rng = np.random.default_rng(2)
    gens = [rotation_about_t(1.0), boost_x(0.5), sl2_to_so12(SHEAR)]
    for _ in range(500):
        a = LinearIsometry.identity()
        for k in rng.integers(0, 3, size=rng.integers(1, 9)):
            a = a @ gens[k]
        v = rng.normal(size=3) * 10
        assert abs(quadratic_form(a.apply(v)) - quadratic_form(v)) <= 1e-9 * max(
            1.0, float(v @ v)
        )


def test_linear_isometry_rejects_bad_matrices():
    with pytest.raises(InvalidIsometry):
        LinearIsometry(2 * np.eye(3))
    with pytest.raises(InvalidIsometry):
        LinearIsometry(np.diag([-1.0, -1.0, 1.0]))  # time reversal


def test_linear_isometry_refuses_entries_beyond_its_bound():
    # an entry above ISOMETRY_MAX_ENTRY = 1e100 is refused before any product,
    # so M^T G M, det M and the tolerance scale M^2 never overflow; 1e308
    # raised a raw OverflowError from the scale before
    c = 1e99  # a boost just inside the bound is still an isometry
    boost = np.array([[c, math.sqrt(c * c - 1.0), 0.0], [math.sqrt(c * c - 1.0), c, 0.0],
                      [0.0, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert LinearIsometry(boost).matrix[0, 0] == c
        for big in (2e100, 1e308, -1e308):
            m = np.eye(3)
            m[1, 2] = big
            with pytest.raises(InvalidIsometry, match="exceeds 1e\\+100"):
                LinearIsometry(m)


def test_fixed_lightlike_direction_examples():
    a = parabolic_fixing_110()
    u = fixed_lightlike_direction(a)
    assert u == pytest.approx([1, 1, 0], abs=1e-9)
    # conjugation equivariance
    r = rotation_about_t(0.8)
    u2 = fixed_lightlike_direction(r @ a @ r.inverse())
    expected = r.apply([1, 1, 0])
    assert u2 == pytest.approx(expected / expected[0], abs=1e-9)
    with pytest.raises(NotParabolic):
        fixed_lightlike_direction(rotation_about_t(1.0))


def test_is_tangent_examples():
    lin = parabolic_fixing_110()
    u = fixed_lightlike_direction(lin)
    assert is_tangent(AffineIsometry(lin, np.array([0.0, 0.0, 1.0])), u)
    assert not is_tangent(AffineIsometry(lin, np.array([1.0, 0.0, 0.0])), u)
    assert is_tangent(AffineIsometry(lin, np.array([1.0, 1.0, 0.0])), u)


def test_affine_group_laws():
    rng = np.random.default_rng(3)
    lin = parabolic_fixing_110()
    phi = AffineIsometry(lin, rng.normal(size=3))
    psi = AffineIsometry(rotation_about_t(0.3), rng.normal(size=3))
    p = rng.normal(size=3)
    assert AffineIsometry.identity().apply(p) == pytest.approx(p)
    assert phi.compose(psi).apply(p) == pytest.approx(phi.apply(psi.apply(p)))
    round_trip = phi.compose(phi.inverse())
    assert round_trip.linear.matrix == pytest.approx(np.eye(3), abs=1e-9)
    assert round_trip.translation == pytest.approx(np.zeros(3), abs=1e-9)
    ta = AffineIsometry(LinearIsometry.identity(), np.array([1.0, 2.0, 3.0]))
    tb = AffineIsometry(LinearIsometry.identity(), np.array([0.5, -1.0, 0.0]))
    assert ta.compose(tb).translation == pytest.approx([1.5, 1.0, 3.0])


def test_homomorphism_property_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a = AffineIsometry(rotation_about_t(rng.uniform(0, 6)), rng.normal(size=3))
        b = AffineIsometry(boost_x(rng.uniform(-1, 1)), rng.normal(size=3))
        p = rng.normal(size=3)
        assert a.compose(b).apply(p) == pytest.approx(a.apply(b.apply(p)), abs=1e-9)


def test_fixed_line_examples():
    lin = parabolic_fixing_110()
    point = fixed_line(AffineIsometry(lin, np.zeros(3)))
    assert point == pytest.approx(np.zeros(3), abs=1e-9)

    phi = AffineIsometry(lin, np.array([0.0, 0.0, 1.0]))
    point = fixed_line(phi)
    assert phi.apply(point) == pytest.approx(point, abs=1e-9)
    # minimum-norm representative is orthogonal to the line direction u
    direction = fixed_lightlike_direction(lin)
    assert direction == pytest.approx([1, 1, 0], abs=1e-9)
    assert abs(point @ direction) < 1e-9 * max(1.0, float(np.linalg.norm(point)))

    with pytest.raises(NoFixedPoints):
        fixed_line(AffineIsometry(lin, np.array([1.0, 0.0, 0.0])))


def test_fixed_line_iff_tangent():
    rng = np.random.default_rng(5)
    base = parabolic_fixing_110()
    for _ in range(300):
        conj = rotation_about_t(rng.uniform(0, 6)) @ boost_x(rng.uniform(-1, 1))
        lin = conj @ base @ conj.inverse()
        phi = AffineIsometry(lin, rng.normal(size=3))
        tangent = is_tangent(phi, fixed_lightlike_direction(lin))
        try:
            point = fixed_line(phi)
            found = True
            assert phi.apply(point) == pytest.approx(point, abs=1e-6)
        except NoFixedPoints:
            found = False
        assert found == tangent
