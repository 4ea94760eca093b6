"""Release acceptance checklist: ten end-to-end criteria at contractual tolerances.

One test per criterion, numbered to match the acceptance table in the README.
Each prints a ``criterion N (<name>): PASS|FAIL`` line (visible with ``-s`` or
on failure).  Tolerances and sample counts here are fixed contracts: do not
loosen them to make a failing build pass.
"""

import contextlib
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from io import StringIO
from time import perf_counter

import numpy as np
import pytest

from btzgeo.builder import (
    BuildSettings,
    PolyhedralSpacetime,
    build,
    extend_btz,
    leaf_gram,
    strip_btz,
)
from btzgeo.causality import cauchy_time_report
from btzgeo.cli import main
from btzgeo.minkowski import G, boost_x, rotation_about_t
from btzgeo.models import TWO_PI, dev0_array, h_ell_coords, metric_btz
from btzgeo.representations import builtin_examples, check_admissible
from btzgeo.surgery import (
    BoundaryProfile,
    ModelCurve,
    Tangency,
    delta,
    extend_compact,
    extend_complete,
    fits_spear,
    induced_metric,
    intersection_count,
)


@contextlib.contextmanager
def _criterion(n, name):
    try:
        yield
    except BaseException as exc:
        print(f"criterion {n} ({name}): FAIL [{type(exc).__name__}]")
        raise
    print(f"criterion {n} ({name}): PASS")


def _quadratic_form_batch(w):
    return -w[:, 0] ** 2 + w[:, 1] ** 2 + w[:, 2] ** 2


def _fd_pullback(f, coords, h=1e-5):
    cols = []
    for k in range(3):
        dp = np.array(coords, float)
        dm = np.array(coords, float)
        dp[k] += h
        dm[k] -= h
        cols.append((np.asarray(f(dp)) - np.asarray(f(dm))) / (2 * h))
    j = np.stack(cols, axis=-1)
    return j.T @ G @ j


def test_quadratic_form_invariance_under_random_isometry_words():
    # 1e5 random words of length <= 8 in builtin generators; the quadratic
    # form of a random vector must be preserved to 1e-9, in under 5 seconds.
    with _criterion(1, "isometry invariance"):
        pool = [
            rotation_about_t(0.7),
            rotation_about_t(-0.7),
            rotation_about_t(2.31),
            rotation_about_t(-2.31),
            boost_x(0.5),
            boost_x(-0.5),
            boost_x(0.21),
            boost_x(-0.21),
        ]
        gens = np.stack([g.matrix for g in pool])
        rng = np.random.default_rng(0)
        n = 100_000
        lengths = rng.integers(1, 9, size=n)
        letters = rng.integers(0, len(pool), size=(n, 8))
        v = rng.normal(size=(n, 3))
        t0 = perf_counter()
        mats = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
        for k in range(8):
            active = lengths > k
            mats[active] = mats[active] @ gens[letters[active, k]]
        av = np.einsum("nij,nj->ni", mats, v)
        worst = float(np.abs(_quadratic_form_batch(av) - _quadratic_form_batch(v)).max())
        elapsed = perf_counter() - t0
        assert worst <= 1e-9, f"form drift {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_model_metric_matches_developing_map_pullback():
    # Finite-difference pullback of the flat form through the developing map
    # must equal the model metric at 1e3 random points (h = 1e-5, tol 1e-6);
    # the rescaling maps preserve the metric, and ell = 1 is the identity.
    with _criterion(2, "model metric"):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            c = (rng.uniform(-2, 2), rng.uniform(0.3, 3), rng.uniform(-6, 6))
            got = _fd_pullback(lambda x: dev0_array(*x), c)
            want = metric_btz(c[1])
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst < 1e-6, f"pullback residual {worst:.3e}"

        worst = 0.0
        for _ in range(300):
            ell = rng.uniform(0.3, 3.0)
            c = (rng.uniform(-2, 2), rng.uniform(0.3, 3), rng.uniform(-6, 6))
            f = lambda x: dev0_array(*h_ell_coords(ell, *x))
            got = _fd_pullback(f, c)
            want = metric_btz(c[1])
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst < 1e-6, f"rescaling pullback residual {worst:.3e}"

        for _ in range(100):
            c = (rng.uniform(-2, 2), rng.uniform(0.3, 3), rng.uniform(-6, 6))
            assert h_ell_coords(1.0, *c) == c  # exact, not approximate


def test_genus_zero_example_admissibility_and_parabolicity():
    # The three-puncture example: relator residual < 1e-9, every peripheral
    # genuinely parabolic ((A-I)^3 ~ 0 but (A-I)^2 not), zero cocycle tangent
    # on all peripherals, all inside one second.
    with _criterion(3, "admissibility"):
        rep = builtin_examples()["gamma2"].representation
        t0 = perf_counter()
        report = check_admissible(rep)
        assert report.relator_residual < 1e-9
        assert report.verdict
        for check in report.peripheral:
            assert check.parabolic and check.tangent, check.name
            a = rep.evaluate_linear(check.name).matrix - np.eye(3)
            assert np.linalg.norm(a @ a @ a) < 1e-8, check.name
            assert np.linalg.norm(a @ a) > 1e-6, check.name
        elapsed = perf_counter() - t0
        assert len(report.peripheral) == 3
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_demo_builds_certify_immersion_and_fan_geometry():
    # Both builtin examples, zero and one nonzero tangent cocycle each: the
    # scale search terminates, certification clears 1e-6 margins at >= 1e4
    # samples with equivariance <= 1e-8, fan angles are strictly increasing
    # with constant period, and the normalized advance is 2*pi to 1e-9.
    # Each example (both cocycles together) must build in under 60 seconds.
    with _criterion(4, "demo builds"):
        exs = builtin_examples()
        for name in ("gamma2", "punctured_torus"):
            ex = exs[name]
            t0 = perf_counter()
            for rep in (ex.representation, ex.deformed(1.0)):
                st = build(rep, ex.triangulation, BuildSettings())
                cert = st.certification
                assert cert.samples >= 10_000, (name, cert.samples)
                assert cert.min_jacobian_det > 1e-6, (name, cert.min_jacobian_det)
                assert cert.min_gram_eigenvalue > 1e-6, (name, cert.min_gram_eigenvalue)
                assert cert.equivariance_residual is not None
                assert cert.equivariance_residual <= 1e-8, (name, cert.equivariance_residual)
                for pg in st.fans.values():
                    th = np.array(pg.theta)
                    assert len(th) == 2 * pg.r + 1
                    assert np.all(np.diff(th) > 0), (name, pg.puncture)
                    periods = th[pg.r:] - th[: pg.r + 1]
                    assert periods.max() - periods.min() <= 1e-8
                    thn = np.array(pg.theta_normalized)
                    advance = thn[pg.r:] - thn[: pg.r + 1]
                    assert np.abs(advance - TWO_PI).max() <= 1e-9
            elapsed = perf_counter() - t0
            assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"


def test_leaf_gram_matches_exact_hand_computation():
    # Symmetric lightlike triple at 0/120/240 degrees, t + kappa = 1: the
    # leaf Gram matrix is [[3, 3/2], [3/2, 3]] exactly.  The oracle is fully
    # independent: pairwise inner products of the frame vectors are
    # -1 + cos(dtheta) = -3/2, combined in exact rational arithmetic.
    with _criterion(5, "leaf Gram hand check"):
        angles = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
        u = np.array([[1.0, math.cos(a), math.sin(a)] for a in angles])
        uu = Fraction(-3, 2)  # <u_i | u_j> for i != j; <u_i | u_i> = 0
        e11 = -2 * uu  # <e1|e1> = <u2-u1|u2-u1> = -2<u2|u1>
        e12 = uu - uu - uu  # <u2|u3> - <u2|u1> - <u1|u3> + <u1|u1>
        oracle = [[e11, e12], [e12, e11]]
        assert oracle == [[3, Fraction(3, 2)], [Fraction(3, 2), 3]]
        g = leaf_gram(u, np.zeros((3, 3)), 1.0, 0.0)
        assert np.abs(g - np.array(oracle, dtype=float)).max() < 1e-14


def test_surgery_caps_spacelike_margins_and_metric_identities():
    # Boundary 0.3 sin(2 theta) on the unit disk.  Complete cap: delta r^2 >= 1
    # at 1e4 samples, boundary values bit-exact at r = R.  Compact cap: seam
    # values bit-exact at R/2, delta > 0 at 1e4 samples.  Both: det of the
    # induced metric equals delta r^2 to 1e-9 at 1e3 points and matches the
    # finite-difference ambient pullback to 1e-6.
    with _criterion(6, "surgery caps"):
        prof = BoundaryProfile(R=1.0, const=0.0, sin=(0.0, 0.3))
        rng = np.random.default_rng(3)

        sgc = extend_complete(prof)
        r = rng.uniform(1e-3, prof.R, size=10_000)
        th = rng.uniform(0, TWO_PI, size=10_000)
        assert float(np.min(delta(sgc, r, th) * r**2)) >= 1.0
        edge = rng.uniform(0, TWO_PI, size=256)
        assert np.array_equal(sgc.value(np.full_like(edge, prof.R), edge), prof.value(edge))

        sgk = extend_compact(prof)
        seam_th = rng.uniform(0, TWO_PI, size=256)
        at_seam = sgk.value(np.full_like(seam_th, prof.R / 2), seam_th)
        in_core = sgk.value(np.full_like(seam_th, prof.R / 4), seam_th)
        assert np.array_equal(at_seam, in_core)
        r = rng.uniform(1e-3, prof.R, size=10_000)
        r = r[np.abs(r - prof.R / 2) > 1e-9]  # crease itself has no derivative
        th = rng.uniform(0, TWO_PI, size=len(r))
        assert float(np.min(delta(sgk, r, th))) > 0.0

        for sg in (sgc, sgk):
            r = rng.uniform(0.05, prof.R * 0.999, size=1000)
            r = r[np.abs(r - prof.R / 2) > 1e-6]
            th = rng.uniform(0, TWO_PI, size=len(r))
            gm = induced_metric(sg, r, th)
            det = gm[..., 0, 0] * gm[..., 1, 1] - gm[..., 0, 1] ** 2
            assert float(np.abs(det - delta(sg, r, th) * r**2).max()) <= 1e-9

        h = 1e-5
        for sg in (sgc, sgk):
            worst = 0.0
            for _ in range(200):
                # r >= 0.2 keeps the central-difference truncation error of
                # the 1/r term an order of magnitude below the tolerance.
                rr = float(rng.uniform(0.2, prof.R - 3 * h))
                if abs(rr - prof.R / 2) < 3 * h:
                    rr += 6 * h
                tt = float(rng.uniform(0, TWO_PI))

                def embed(c):
                    return dev0_array(float(sg.value(c[0], c[1])), c[0], c[1])

                cols = []
                for k in range(2):
                    dp = np.array([rr, tt])
                    dm = np.array([rr, tt])
                    dp[k] += h
                    dm[k] -= h
                    cols.append((embed(dp) - embed(dm)) / (2 * h))
                j = np.stack(cols, axis=-1)
                got = j.T @ G @ j
                want = induced_metric(sg, rr, tt)
                worst = max(worst, float(np.abs(got - want).max()))
            assert worst <= 1e-6, f"{sg.mode} pullback residual {worst:.3e}"


def _random_cap_curve(rng, sp):
    """Future causal polyline inside the spear, starting on the head cone.

    Radius never decreases and each step obeys dr <= 2 dtau, so tau - r/2 is
    nondecreasing and the curve stays in the spear.  A step that would leave
    the disk is replaced by one landing exactly on the shaft wall.
    """
    big = sp.radius
    r = float(rng.uniform(0.08, 0.7)) * big
    th = float(rng.uniform(0.0, TWO_PI))
    tau = sp.vertex_tau + 0.5 * r
    pts = [(tau, r, th)]
    for _ in range(int(rng.integers(3, 12))):
        dtau = float(rng.uniform(0.05, 0.35)) * big
        dr = float(rng.uniform(0.0, 2.0)) * dtau
        hit_wall = r + dr >= 0.97 * big
        if hit_wall:
            dr = big - r
            dtau = max(dtau, 0.75 * dr)
        r_new = big if hit_wall else r + dr
        room = max(2.0 * dtau * dr - dr * dr, 0.0)
        dth = float(rng.uniform(-0.9, 0.9)) * math.sqrt(room) / max(r_new, 1e-9)
        tau += dtau
        th += dth
        pts.append((tau, r_new, th))
        if hit_wall:
            return ModelCurve(np.array(pts))
        r = r_new
    return ModelCurve(np.array(pts), extends_to_infinity=True)


def test_randomized_cap_crossings_match_prediction(gamma2_zero):
    # 200 randomized causal polylines per cap type inside a built spear: the
    # numeric crossing count must equal the predicted count in all non-tangent
    # cases, and tangency rejections must stay under 2 percent.
    with _criterion(7, "cap crossings"):
        sp = gamma2_zero.spears["c1"]
        amp = 0.1 * sp.radius
        prof = BoundaryProfile(R=sp.radius, const=sp.ring_tau + 2 * amp, sin=(0.0, amp))
        for cap in (extend_complete(prof), extend_compact(prof)):
            assert fits_spear(cap, sp)["inside"]
            rng = np.random.default_rng(7)
            tangent = 0
            agreed = 0
            for _ in range(200):
                curve = _random_cap_curve(rng, sp)
                assert curve.points[0][0] < cap.value(curve.points[0][1], curve.points[0][2])
                try:
                    rep = intersection_count(cap, curve)
                except Tangency:
                    tangent += 1
                    continue
                assert rep.agree, (cap.mode, rep)
                agreed += 1
            assert agreed + tangent == 200
            assert tangent < 4, f"{cap.mode}: {tangent} tangent rejections"


def test_traced_curves_monotone_single_leaf_crossings(gamma2_zero, torus_zero):
    # 100 traced curves per example: strictly increasing t, exactly one
    # crossing per sampled leaf, and no decomposition violations.
    with _criterion(8, "traced curves"):
        for st in (gamma2_zero, torus_zero):
            report = cauchy_time_report(st, n_curves=100, seed=0)
            assert report["failures"] == 0
            assert report["pass"]
            assert len(report["curves"]) == 100
            for curve in report["curves"]:
                assert curve["monotone_t"]
                assert curve["decomposition_ok"]
                assert all(n == 1 for n in curve["leaf_crossings"].values())
                assert curve["pass"]


def test_strip_extend_round_trip_exact(gamma2_zero, gamma2_deformed, torus_zero, torus_deformed):
    # Removing the singular fibers and re-extending must reproduce the fiber
    # set and the scale constant exactly (identical serialized bundles).
    with _criterion(9, "strip/extend round trip"):
        for st in (gamma2_zero, gamma2_deformed, torus_zero, torus_deformed):
            stripped = strip_btz(st)
            assert all(not f.present for f in stripped.fibers.values())
            restored, report = extend_btz(stripped)
            assert set(report) == set(st.fibers)
            assert all(v == "reattached" for v in report.values())
            assert restored.kappa == st.kappa
            assert set(restored.fibers) == set(st.fibers)
            for name, fib in st.fibers.items():
                got = restored.fibers[name]
                assert got.present
                assert np.array_equal(got.line_point, fib.line_point)
                assert np.array_equal(got.line_direction, fib.line_direction)
            assert restored.dumps() == st.dumps()


def _run_cli(argv):
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_build_and_reports_deterministic(tmp_path):
    # Building twice from the same inputs yields byte-identical bundles, and
    # every report embeds its seed and replays identically.
    with _criterion(10, "determinism"):
        ex = builtin_examples()["gamma2"]
        rep_path = tmp_path / "rep.json"
        tri_path = tmp_path / "tri.json"
        rep_path.write_text(json.dumps(ex.representation.to_json()))
        tri_path.write_text(json.dumps(ex.triangulation.to_json()))

        bundles = []
        for k in (1, 2):
            out = tmp_path / f"bundle{k}.json"
            code, _, _ = _run_cli(["build", str(rep_path), str(tri_path), "--out", str(out)])
            assert code == 0
            bundles.append(out.read_bytes())
        assert bundles[0] == bundles[1]

        bundle = tmp_path / "bundle1.json"
        st = PolyhedralSpacetime.from_json(json.loads(bundle.read_text()))
        sp = st.spears["c1"]
        profile = tmp_path / "profile.json"
        prof = BoundaryProfile(
            R=sp.radius, const=sp.ring_tau + 0.2 * sp.radius, sin=(0.0, 0.1 * sp.radius)
        )
        profile.write_text(json.dumps(prof.to_json()))

        commands = [
            ["validate", str(rep_path)],
            ["build", str(rep_path), str(tri_path), "--out", str(tmp_path / "b.json")],
            ["causal", str(bundle), "--curves", "20", "--seed", "5"],
            ["mesh", str(bundle), "--leaves", "0.5,1.0", "--resolution", "3",
             "--out", str(tmp_path / "leaves.obj")],
            ["surgery", str(bundle), str(profile), "--mode", "complete"],
        ]
        for argv in commands:
            first = _run_cli(argv)
            second = _run_cli(argv)
            assert first[0] == 0, (argv, first[2])
            assert second == first, argv
            assert '"seed"' in first[1], argv
        obj_once = (tmp_path / "leaves.obj").read_bytes()
        _run_cli(commands[3])
        assert (tmp_path / "leaves.obj").read_bytes() == obj_once
