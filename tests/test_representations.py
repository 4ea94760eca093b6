import math
import re
import warnings

import numpy as np
import pytest

from btzgeo.minkowski import (
    G,
    ISOMETRY_MAX_ENTRY,
    InvalidIsometry,
    IsometryKind,
    LinearIsometry,
    classify_isometry,
    first_non_isometry,
    minkowski_inner,
)
from btzgeo.representations import (
    AffineRepresentation,
    Discreteness,
    NotUnimodular,
    SurfaceGroupPresentation,
    UnknownGenerator,
    boundary_to_lightlike,
    builtin_examples,
    check_admissible,
    cocycle_from_tangent_vector,
    invert_word,
    lightlike_to_boundary,
    parse_word,
    sl2_to_so12,
    tangent_cocycle_basis,
)


@pytest.fixture(scope="module")
def gamma2():
    return builtin_examples()["gamma2"]


@pytest.fixture(scope="module")
def torus():
    return builtin_examples()["punctured_torus"]


def test_presentation_requires_hyperbolic_type():
    with pytest.raises(ValueError):
        SurfaceGroupPresentation(genus=0, punctures=2)
    with pytest.raises(ValueError):
        SurfaceGroupPresentation(genus=1, punctures=0)
    p = SurfaceGroupPresentation(genus=0, punctures=3)
    assert p.generator_names == ["c1", "c2", "c3"]
    q = SurfaceGroupPresentation(genus=1, punctures=1)
    assert q.relator.split() == ["a1", "b1", "a1^-1", "b1^-1", "c1"]


def test_word_parsing():
    assert parse_word("a1 b1^-1 c1") == [("a1", 1), ("b1", -1), ("c1", 1)]
    assert invert_word("a1 b1^-1") == "b1 a1^-1"
    assert parse_word("") == []


def test_evaluate_word(gamma2):
    rep = gamma2.representation
    m, b = rep.evaluate(["", "c1 c1^-1", rep.presentation.relator])
    assert m.shape == (3, 3, 3) and b.shape == (3, 3)
    assert m[0].tobytes() == np.eye(3).tobytes() and b[0].tobytes() == np.zeros(3).tobytes()
    assert np.abs(m[1] - np.eye(3)).max() < 1e-12
    assert np.abs(m[2] - np.eye(3)).max() < 1e-9
    assert np.abs(b[2]).max() < 1e-9
    assert not m.flags.writeable and not b.flags.writeable
    assert rep.evaluate_linear("c1").matrix.tobytes() == rep.linear["c1"].matrix.tobytes()
    with pytest.raises(UnknownGenerator, match="^z1$"):
        rep.evaluate(["c1", "c2 z1^-1"])
    with pytest.raises(TypeError):
        rep.evaluate("c1")  # one word is a list of one word


def _chained_evaluate(rep, word):
    """rho(word) as (m, b) chained letter by letter from (I, 0) on the raw
    generator arrays: b <- m @ b_k + b, m <- m @ m_k, an inverse letter
    taking G m^T G and -(inv @ b)."""
    out_m, out_b = np.eye(3), np.zeros(3)
    for name, exp in parse_word(word):
        m, b = rep.linear[name].matrix, rep.translations[name]
        if exp != 1:
            m = G @ m.T @ G
            b = -(m @ b)
        out_b = out_m @ b + out_b
        out_m = out_m @ m
    return out_m, out_b


def test_evaluate_matches_chained_compose_bitwise(gamma2, torus, monkeypatch):
    # one batch of mixed lengths 0-8 has the bits of each word chained alone,
    # and its linear parts are validated in one call per batch
    import btzgeo.representations as representations_module

    rng = np.random.default_rng(5)
    validated = []
    monkeypatch.setattr(representations_module, "first_non_isometry",
                        lambda m: validated.append(len(m)) or first_non_isometry(m))
    for ex in (gamma2, torus):
        names = ex.representation.presentation.generator_names
        for scale in (0.0, 1.0, 30.0):
            rep = ex.representation.with_translations(
                {g: scale * rng.normal(size=3) for g in names})
            words = [" ".join(f"{names[i]}{'^-1' * int(e)}" for i, e in
                              zip(rng.integers(len(names), size=length),
                                  rng.integers(2, size=length)))
                     for length in rng.permutation(list(range(9)) * 12)]
            got_m, got_b = rep.evaluate(words)
            for word, m, b in zip(words, got_m, got_b):
                want_m, want_b = _chained_evaluate(rep, word)
                assert m.tobytes() == want_m.tobytes(), word
                assert b.tobytes() == want_b.tobytes(), word
    assert validated == [9 * 12] * 6


def test_word_product_that_overflows_names_the_word(torus):
    # a1 = b1 = boost(200) have entries of about 3.6e86, under the 1e100
    # bound, but the relator's products overflow: the engine refuses the
    # non-finite product and names its word, with no numpy warning
    boost = np.array([[math.cosh(200.0), math.sinh(200.0), 0.0],
                      [math.sinh(200.0), math.cosh(200.0), 0.0], [0.0, 0.0, 1.0]])
    rep = torus.representation
    linear = dict(rep.linear, a1=LinearIsometry(boost), b1=LinearIsometry(boost))
    huge = AffineRepresentation(rep.presentation, linear)
    message = f"^word {re.escape(repr(rep.presentation.relator))}: non-finite entries$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidIsometry, match=message):
            huge.evaluate(["a1", rep.presentation.relator, "a1 b1"])
        with pytest.raises(InvalidIsometry, match=message):
            check_admissible(huge)


def test_sl2_to_so12_basics():
    assert np.allclose(sl2_to_so12(np.eye(2)).matrix, np.eye(3))
    shear = sl2_to_so12(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert classify_isometry(shear).kind is IsometryKind.PARABOLIC
    with pytest.raises(NotUnimodular):
        sl2_to_so12(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_sl2_to_so12_caps_the_determinant_band():
    # the band 1e-9 M^2 around det 1 is capped at 0.5, so a singular matrix
    # with entries of 1e5 is refused before the division by its det; below
    # M of about 2.2e4 the cap changes nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in ([[1e5, 1e5], [1e5, 1e5]], [[3.2e4, 0.0], [0.0, 0.0]]):
            with pytest.raises(NotUnimodular, match=r"^det = 0\.0$"):
                sl2_to_so12(np.array(m))
        assert np.isfinite(sl2_to_so12(np.diag([1e5, 1e-5])).matrix).all()
        # det about 1.3 at M = 2e4, inside the band 0.4 and the cap
        sl2_to_so12(np.diag([2e4, 1.3 / 2e4]))
        # det about 1.6 at M = 1e5, inside the band 10 but not the cap
        with pytest.raises(NotUnimodular, match=r"^det = 1\.[56]"):
            sl2_to_so12(np.diag([1e5, 1.6e-5]))


def test_sl2_to_so12_refuses_entries_beyond_its_bound():
    # an entry above SL2_MAX_ENTRY, about 7.1e49, or a non-finite one is
    # NotUnimodular before any product; 1e308 raised a raw OverflowError from
    # the determinant check's scale before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # diag(a, 1/a) just inside the bound: its image's largest entry is (a^2 + a^-2) / 2
        image = sl2_to_so12(np.diag([7e49, 1 / 7e49]))
        assert np.abs(image.matrix).max() <= ISOMETRY_MAX_ENTRY
        for big in (1e50, 1e308, math.inf, math.nan):
            with pytest.raises(NotUnimodular, match="not finite or exceeds"):
                sl2_to_so12(np.array([[1.0, big], [0.0, 1.0]]))


def test_sl2_rotation_doubles_angle():
    for phi in (0.2, 0.9, 1.4):
        m = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        c = classify_isometry(sl2_to_so12(m))
        assert c.kind is IsometryKind.ELLIPTIC
        assert np.trace(sl2_to_so12(m).matrix) == pytest.approx(1 + 2 * math.cos(2 * phi))


def test_sl2_to_so12_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        # random SL(2, R) via Iwasawa-style product
        def rand_sl2():
            a = math.exp(rng.uniform(-1, 1))
            n = rng.uniform(-2, 2)
            phi = rng.uniform(0, 2 * math.pi)
            k = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            return np.diag([a, 1 / a]) @ np.array([[1, n], [0, 1]]) @ k

        m, n = rand_sl2(), rand_sl2()
        lhs = sl2_to_so12(m @ n).matrix
        rhs = sl2_to_so12(m).matrix @ sl2_to_so12(n).matrix
        assert np.abs(lhs - rhs).max() < 1e-9
    m = rand_sl2()
    assert np.allclose(sl2_to_so12(-m).matrix, sl2_to_so12(m).matrix)


def test_boundary_to_lightlike_examples():
    from btzgeo.minkowski import fixed_lightlike_direction

    u_inf = boundary_to_lightlike(math.inf)
    shear_fix = fixed_lightlike_direction(sl2_to_so12(np.array([[1.0, 1.0], [0.0, 1.0]])))
    assert u_inf == pytest.approx(shear_fix, abs=1e-9)

    u0 = boundary_to_lightlike(0.0)
    lower_fix = fixed_lightlike_direction(sl2_to_so12(np.array([[1.0, 0.0], [1.0, 1.0]])))
    assert u0 == pytest.approx(lower_fix, abs=1e-9)


def test_boundary_to_lightlike_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(300):
        xi = rng.uniform(-5, 5)
        a, b, c, d = 1.0, 2.0, 0.0, 1.0  # [[1,2],[0,1]]
        moved = (a * xi + b) / (c * xi + d)
        lhs = boundary_to_lightlike(moved)
        rhs = sl2_to_so12(np.array([[a, b], [c, d]])).matrix @ boundary_to_lightlike(xi)
        assert lhs == pytest.approx(rhs / rhs[0], abs=1e-9)
    assert lightlike_to_boundary(boundary_to_lightlike(3.7)) == pytest.approx(3.7)
    assert lightlike_to_boundary(boundary_to_lightlike(math.inf)) == math.inf


def test_check_admissible_builtin(gamma2):
    report = check_admissible(gamma2.representation)
    assert report.verdict
    assert report.relator_residual < 1e-9
    assert all(p.parabolic and p.tangent for p in report.peripheral)
    assert report.discreteness is Discreteness.CERTIFIED_BY_CONSTRUCTION


def test_check_admissible_non_tangent(gamma2):
    rep = gamma2.representation
    translations = {name: np.zeros(3) for name in rep.presentation.generator_names}
    translations["c1"] = np.array([1.0, 0.0, 0.0])  # not orthogonal to u(c1)
    report = check_admissible(rep.with_translations(translations))
    flags = {p.name: p.tangent for p in report.peripheral}
    assert flags["c1"] is False
    assert not report.verdict


def test_check_admissible_trivial_rep():
    pres = SurfaceGroupPresentation(genus=0, punctures=3)
    rep = AffineRepresentation(
        pres, {n: LinearIsometry(np.eye(3)) for n in pres.generator_names}
    )
    report = check_admissible(rep)
    assert report.relator_residual < 1e-12
    for cusp in report.peripheral:  # no direction and no point without a parabolic
        assert (cusp.parabolic, cusp.tangent, cusp.u, cusp.line_point) == (False, False, None, None)
    assert not report.verdict


@pytest.mark.parametrize("bad", [[1.0, 2.0], [[1.0], [2.0], [3.0]], 1.0, [0.0, math.nan, 0.0],
                                 [0.0, -math.inf, 0.0], [0.0, 1e200, 0.0]])
def test_representation_rejects_bad_translations(gamma2, bad):
    # evaluate composes the raw translations, so they are checked once here;
    # an entry beyond ISOMETRY_MAX_ENTRY is refused like a non-finite one
    with pytest.raises(ValueError, match="bad translation for c2"):
        gamma2.representation.with_translations({"c2": bad})


def test_builtin_gamma2_traces(gamma2):
    for name in ("c1", "c2", "c3"):
        assert abs(abs(np.trace(gamma2.representation.sl2[name])) - 2.0) < 1e-12
    tri = gamma2.triangulation
    assert len(tri.triangles) == 2
    assert set(tri.positions) == {"-1", "0", "1", "inf"}


def test_builtin_torus_commutator(torus):
    sl2 = torus.representation.sl2
    a, b = sl2["a1"], sl2["b1"]
    comm = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    assert np.trace(comm) == pytest.approx(-2.0)
    assert len(torus.triangulation.triangles) == 2


def test_zero_cocycle_tangent_everywhere(gamma2, torus):
    for ex in (gamma2, torus):
        report = check_admissible(ex.representation)
        for cusp in report.peripheral:
            assert abs(minkowski_inner(np.zeros(3), cusp.u)) == 0.0
        assert report.verdict


def test_peripheral_fixed_data(gamma2):
    # the report's one record per cusp carries the decoration data
    rep = gamma2.representation
    fixed = {c.name: c for c in check_admissible(rep).peripheral}
    # zero cocycle: fixed lines through the origin, minimum-norm point is 0
    for data in fixed.values():
        assert data.line_point == pytest.approx(np.zeros(3), abs=1e-9)
    # c1 fixes infinity in the upper half-plane picture
    assert fixed["c1"].u == pytest.approx(boundary_to_lightlike(math.inf), abs=1e-9)
    us = list(fixed.values())
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            assert np.abs(us[i].u - us[j].u).max() > 1e-6

    # a non-tangent cusp keeps its direction, reads tangent False and has no point
    translations = {n: np.zeros(3) for n in rep.presentation.generator_names}
    translations["c1"] = np.array([1.0, 0.0, 0.0])
    report = check_admissible(rep.with_translations(translations))
    c1 = report.peripheral[0]
    assert (c1.name, c1.parabolic, c1.tangent, c1.line_point) == ("c1", True, False, None)
    assert c1.u.tobytes() == fixed["c1"].u.tobytes()
    assert not report.verdict


def test_cocycle_extension(gamma2):
    rep = gamma2.representation
    zero = cocycle_from_tangent_vector(rep, {})
    assert all(np.abs(v).max() == 0.0 for v in zero.values())

    full = cocycle_from_tangent_vector(rep, dict(gamma2.nonzero_tangent))
    deformed = rep.with_translations(full)
    report = check_admissible(deformed)
    assert report.verdict
    _, (rel_b,) = deformed.evaluate([rep.presentation.relator])
    assert np.abs(rel_b).max() < 1e-9

    with pytest.raises(UnknownGenerator):
        cocycle_from_tangent_vector(rep, {"c3": np.zeros(3)})  # c3 is forced


def test_coboundary_is_translation_conjugation(gamma2):
    rep = gamma2.representation
    rng = np.random.default_rng(2)
    v = rng.normal(size=3)
    pres = rep.presentation
    assignment = {
        name: v - rep.linear[name].matrix @ v
        for name in pres.free_generator_names
    }
    full = cocycle_from_tangent_vector(rep, assignment)
    conj = rep.with_translations(full)
    for name in pres.generator_names:
        rhs_translation = v - rep.linear[name].matrix @ v  # T_v a T_v^-1 translation part
        assert conj.translations[name] == pytest.approx(rhs_translation, abs=1e-9)
        assert np.allclose(conj.linear[name].matrix, rep.linear[name].matrix)


def test_tangent_cocycle_basis(gamma2, torus):
    for ex in (gamma2, torus):
        rep = ex.representation
        basis = tangent_cocycle_basis(rep)
        assert basis  # deformation space is positive-dimensional
        for vec in basis:
            full = cocycle_from_tangent_vector(rep, vec)
            deformed = rep.with_translations(full)
            for cusp in check_admissible(rep).peripheral:
                tau = deformed.translations[cusp.name]
                assert abs(minkowski_inner(tau, cusp.u)) < 1e-8


def test_tangent_cocycle_basis_reads_only_linear_parts(gamma2):
    # the basis depends on rho alone: a non-tangent translation part, which
    # has no fixed line, gives the zero cocycle's basis bit for bit
    rep = gamma2.representation
    translations = {n: np.zeros(3) for n in rep.presentation.generator_names}
    translations["c1"] = np.array([1.0, 0.0, 0.0])
    got = tangent_cocycle_basis(rep.with_translations(translations))
    want = tangent_cocycle_basis(rep)
    assert [list(v) for v in got] == [list(v) for v in want]
    for g, w in zip(got, want):
        assert all(g[name].tobytes() == w[name].tobytes() for name in w)


def test_triangulation_validation(gamma2):
    tri = gamma2.triangulation
    d = tri.to_json()
    # malformed combinatorics is an input error; removing a gluing leaves an unglued edge
    import copy

    broken = copy.deepcopy(d)
    broken["gluings"] = broken["gluings"][:-1]
    from btzgeo.representations import IdealTriangulationData

    with pytest.raises(ValueError):
        IdealTriangulationData.from_json(broken)

    broken = copy.deepcopy(d)
    broken["vertex_class"].popitem()
    with pytest.raises(ValueError):
        IdealTriangulationData.from_json(broken)

    # an edge glued twice, an edge outside its triangle, a triangle out of range
    broken = copy.deepcopy(d)
    broken["gluings"].append(broken["gluings"][0])
    with pytest.raises(ValueError, match="glued exactly once"):
        IdealTriangulationData.from_json(broken)
    broken = copy.deepcopy(d)
    broken["gluings"][0]["left"] = [0, ["0", "1"]]
    with pytest.raises(ValueError, match="not in triangle 0"):
        IdealTriangulationData.from_json(broken)
    # either side of a gluing, with an index past every numpy integer too:
    # both sides are checked before the gluing table is written
    for side in ("left", "right"):
        for index in (2, -1, 2**70, -2**70):
            broken = copy.deepcopy(d)
            broken["gluings"][1][side] = [index, broken["gluings"][1][side][1]]
            with pytest.raises(ValueError, match=rf"^gluings\.1\.{side} references triangle "
                                                 f"{index}$"):
                IdealTriangulationData.from_json(broken)

    # a position is a finite number or "inf"
    for bad in (math.nan, -math.inf):
        broken = copy.deepcopy(d)
        broken["positions"]["0"] = bad
        with pytest.raises(ValueError, match="finite or inf"):
            IdealTriangulationData.from_json(broken)

    # a gluing side is [triangle, [name, name]] with two distinct names
    good = list(d["gluings"][0]["left"][1])
    for bad in ([0], [], None, "0", [0, ["a"]], [0, ["a", "b", "c"]], [0, [good[0]] * 2],
                [0, [1, 2]], [0, "ab"], ["0", good], [0.0, good], [True, good], [0, good, 1]):
        for key in ("left", "right"):
            broken = copy.deepcopy(d)
            broken["gluings"][0][key] = bad
            named = "not in triangle 0" if bad == [0, [good[0]] * 2] else rf"^gluings\.0\.{key}"
            with pytest.raises(ValueError, match=named):
                IdealTriangulationData.from_json(broken)
    # a gluing word is a JSON string, never coerced
    for bad in (5, None, ["a"]):
        broken = copy.deepcopy(d)
        broken["gluings"][0]["word"] = bad
        with pytest.raises(ValueError, match=r"^gluings\.0\.word has the wrong JSON type"):
            IdealTriangulationData.from_json(broken)
    # a triangle has exactly 3 distinct vertex names
    first = list(d["triangles"][0])
    for bad in (first + ["extra"], first[:2], first[:2] + first[:1], []):
        broken = copy.deepcopy(d)
        broken["triangles"][0] = bad
        broken["vertex_class"]["extra"] = broken["vertex_class"][first[0]]
        broken["positions"]["extra"] = 0.5
        named = "3 distinct" if len(bad) == 3 else r"^triangles\.0 has the wrong length"
        with pytest.raises(ValueError, match=named):
            IdealTriangulationData.from_json(broken)

    # round trip preserves content
    back = IdealTriangulationData.from_json(d)
    assert back.triangles == tri.triangles
    assert back.vertex_class == tri.vertex_class


def test_representation_json_round_trip(gamma2):
    rep = gamma2.deformed(1.0)
    back = AffineRepresentation.from_json(rep.to_json())
    for name in rep.presentation.generator_names:
        assert np.allclose(back.linear[name].matrix, rep.linear[name].matrix)
        assert np.allclose(back.translations[name], rep.translations[name])


@pytest.mark.parametrize(
    "fixture", ["gamma2_zero", "gamma2_deformed", "torus_zero", "torus_deformed"]
)
def test_sides_reverse_with_inverse_word(request, fixture):
    st_ = request.getfixturevalue(fixture)
    tri = st_.triangulation
    m, b = st_.gluing
    assert tri.neighbour.shape == (len(tri.triangles), 3)
    assert tri.slot.shape == (len(tri.triangles), 3, 3)
    for i, k in np.ndindex(tri.neighbour.shape):
        nbr, vmap, word = tri.neighbour[i, k], tri.slot[i, k], tri.word[i][k]
        assert sorted(vmap) == [0, 1, 2]
        back = vmap[k]  # slot k goes to the neighbour's facet slot
        assert tri.neighbour[nbr, back] == i
        assert np.array_equal(tri.slot[nbr, back][vmap], np.arange(3))
        assert tri.word[nbr][back] == invert_word(word)
        # each stacked isometry is the word's, bit for bit
        (iso_m, back_m), (iso_b, back_b) = st_.representation.evaluate([word, tri.word[nbr][back]])
        assert m[i, k].tobytes() == iso_m.tobytes()
        assert b[i, k].tobytes() == iso_b.tobytes()
        assert np.allclose(iso_m @ back_m, np.eye(3), atol=1e-12)
        assert np.allclose(iso_m @ back_b + iso_b, 0.0, atol=1e-12)
        # position(v) = word . position(map[v]), read on the chart decorations
        u, p = st_.charts
        for j in range(3):
            if j == k:
                continue
            assert np.allclose(u[i, j], iso_m @ u[nbr, vmap[j]], atol=1e-9)
            assert np.allclose(p[i, j], iso_m @ p[nbr, vmap[j]] + iso_b, atol=1e-9)
    # each gluing's left side carries its word
    for g, (i, k) in zip(tri.gluings, tri.left):
        assert i == g.left[0] and tri.triangles[i][k] not in g.left[1]
        assert tri.word[i][k] == g.word and tri.neighbour[i, k] == g.right[0]
