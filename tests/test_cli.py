import contextlib
import dataclasses
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import btzgeo
from btzgeo import builder
from btzgeo.builder import BuildSettings
from btzgeo.cli import RunConfig, _demo_profile, _load_bundle, build_parser, load_config, main
from btzgeo.representations import RELATOR_TOL, check_admissible
from btzgeo.serialize import JsonRecord, canonical_dumps
from btzgeo.surgery import (
    IntersectionReport, completeness_certificate, extend_compact, extend_complete,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def cli_dir(tmp_path_factory, examples):
    d = tmp_path_factory.mktemp("cli")
    ex = examples["gamma2"]
    (d / "rep.json").write_text(canonical_dumps(ex.representation.to_json()))
    (d / "tri.json").write_text(canonical_dumps(ex.triangulation.to_json()))
    rep = ex.representation
    translations = {n: np.zeros(3) for n in rep.presentation.generator_names}
    translations["c1"] = np.array([1.0, 0.0, 0.0])
    (d / "bad-rep.json").write_text(
        canonical_dumps(rep.with_translations(translations).to_json())
    )
    (d / "broken.json").write_text("{ not json")
    return d


@pytest.fixture(scope="session")
def bundle_path(cli_dir):
    out = cli_dir / "bundle.json"
    code, stdout, stderr = run_cli(
        ["build", str(cli_dir / "rep.json"), str(cli_dir / "tri.json"),
         "--out", str(out)]
    )
    assert code == 0, stderr
    return out


@pytest.fixture(scope="session")
def profile_path(cli_dir, bundle_path):
    bundle = json.loads(bundle_path.read_text())
    spear = bundle["spears"]["c1"]
    profile = {
        "R": spear["radius"],
        "const": spear["ring_tau"] + 0.05 * spear["radius"],
        "cos": [],
        "sin": [0.0, 0.02 * spear["radius"]],
    }
    path = cli_dir / "profile.json"
    path.write_text(canonical_dumps(profile))
    return path


def _all_subclasses(cls):
    return {c for sub in cls.__subclasses__() for c in {sub} | _all_subclasses(sub)}


def test_json_records_give_the_asdict_json(gamma2_deformed):
    # every JsonRecord the demo writes, read field by field, gives the JSON of
    # the deep-copying dataclasses.asdict path it replaced
    st = gamma2_deformed
    profile = _demo_profile(st)
    records = [RunConfig(), st.settings, st.certification, *st.fibers.values(),
               *st.spears.values(), *st.triangulation.gluings, profile,
               *(completeness_certificate(sg)
                 for sg in (extend_complete(profile), extend_compact(profile)))]
    for record in records:
        legacy = {k: v.tolist() if isinstance(v, np.ndarray) else v
                  for k, v in dataclasses.asdict(record).items()}
        assert canonical_dumps(JsonRecord.to_json(record)) == canonical_dumps(legacy)
    # the demo writes no IntersectionReport; a new record type must join the list
    assert {type(r) for r in records} == _all_subclasses(JsonRecord) - {IntersectionReport}


def test_validate_ok(cli_dir, tmp_path):
    out_file = tmp_path / "report.json"
    code, stdout, stderr = run_cli(
        ["validate", str(cli_dir / "rep.json"), "--seed", "7",
         "--out", str(out_file)]
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "admissibility-report"
    assert report["report"]["verdict"] is True
    assert report["seed"] == 7
    assert out_file.read_text() == stdout


def test_validate_inadmissible_is_mathematical_failure(cli_dir):
    code, stdout, stderr = run_cli(["validate", str(cli_dir / "bad-rep.json")])
    assert code == 1
    report = json.loads(stdout)
    assert report["report"]["verdict"] is False
    assert report["report"]["peripheral"]["c1"]["tangent"] is False


def test_malformed_json_is_input_error(cli_dir):
    code, stdout, stderr = run_cli(["validate", str(cli_dir / "broken.json")])
    assert code == 2
    err = json.loads(stderr)
    assert err["category"] == "input-error"
    assert ":1:" in err["message"]  # location of the parse failure


def test_missing_file_is_input_error(cli_dir):
    code, _, stderr = run_cli(["validate", str(cli_dir / "no-such-file.json")])
    assert code == 2
    assert json.loads(stderr)["category"] == "input-error"


def test_build_report_and_determinism(cli_dir, bundle_path, tmp_path):
    out2 = tmp_path / "bundle2.json"
    code, stdout, _ = run_cli(
        ["build", str(cli_dir / "rep.json"), str(cli_dir / "tri.json"),
         "--out", str(out2)]
    )
    assert code == 0
    assert out2.read_bytes() == bundle_path.read_bytes()
    report = json.loads(stdout)
    assert report["kind"] == "build-report"
    assert set(report["spears"]) == {"c1", "c2", "c3"}
    cert = report["certification"]
    assert cert["min_jacobian_det"] > 1e-6
    assert cert["min_gram_eigenvalue"] > 1e-6
    assert cert["samples"] >= 10_000


def test_build_report_omits_normalized_by_default(cli_dir, tmp_path):
    out = tmp_path / "b.json"
    code, stdout, _ = run_cli(
        ["build", str(cli_dir / "rep.json"), str(cli_dir / "tri.json"),
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(stdout)
    # the normalized angles are in the bundle's fans block, not in the report
    assert all("Theta_normalized" not in fan and "theta_normalized" not in fan
               for fan in report["fans"].values())
    for fan in json.loads(out.read_text())["fans"].values():
        assert fan["Theta_normalized"] == pytest.approx(2 * np.pi)
        assert len(fan["theta_normalized"]) == 2 * fan["r"] + 1
    # the flag that copied them into the report is gone from build and the demo
    for argv in (["build", str(cli_dir / "rep.json"), str(cli_dir / "tri.json")],
                 ["demo", "gamma2"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--out", str(tmp_path / "out"), "--normalize-theta"])
        assert exc.value.code == 2 and not (tmp_path / "out").exists()


def test_config_unknown_key(cli_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nnot_a_key = 3\n")
    code, _, stderr = run_cli(
        ["validate", str(cli_dir / "rep.json"), "--config", str(cfg)]
    )
    assert code == 2
    msg = json.loads(stderr)["message"]
    assert "unknown config key" in msg
    assert f"{cfg}:2" in msg


def test_config_range_rules_cover_build_keys(cli_dir, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("t_max = 0.05\n")
    code, _, stderr = run_cli(
        ["build", str(cli_dir / "rep.json"), str(cli_dir / "tri.json"),
         "--config", str(cfg), "--out", str(tmp_path / "bundle.json")]
    )
    assert code == 2
    assert json.loads(stderr)["message"] == f"{cfg}:1: t_max must be > 0.1, got 0.05"


# keys that left the config and the bundle's settings block, with old values
_REMOVED_KEYS = (("spear_r_samples", 10), ("with_spears", False), ("fan_tol", 1e-8),
                 ("admissibility_tol", 1e-6), ("spear_max_shrinks", 25), ("t_min", 0.1),
                 ("max_doublings", 40), ("t_count", 12), ("bary_n", 32),
                 ("normalize_theta", False))


def test_config_refuses_removed_spear_keys(cli_dir, tmp_path):
    # the spear radius is exact, so the keys that tuned its sampled search are
    # gone; every build certifies its spears at one fan tolerance, and validate
    # and build share one relator gate, so the keys that set those are gone too;
    # the kappa sample set and search budget are module constants, and the
    # normalized angles are always in the bundle: build and the demo exit 2
    # before any stage runs, naming file, line and key
    cfg = tmp_path / "old.cfg"
    out, outdir = tmp_path / "bundle.json", tmp_path / "demo-out"
    for key, value in _REMOVED_KEYS:
        cfg.write_text(f"t_max = 10.0\n{key} = {str(value).lower()}\n")
        for argv in (["build", str(cli_dir / "rep.json"), str(cli_dir / "tri.json"),
                      "--out", str(out)], ["demo", "gamma2", "--out", str(outdir)]):
            code, stdout, stderr = run_cli(argv + ["--config", str(cfg)])
            assert code == 2 and stdout == "" and not out.exists() and not outdir.exists()
            assert json.loads(stderr)["message"] == f"{cfg}:2: unknown config key {key!r}"


def test_bundle_with_a_removed_settings_key_is_input_error(bundle_path, tmp_path):
    for key, value in _REMOVED_KEYS:
        bundle = json.loads(bundle_path.read_text())
        bundle["settings"][key] = value
        bad = tmp_path / "old-bundle.json"
        bad.write_text(canonical_dumps(bundle))
        with pytest.raises(ValueError, match=rf"^bundle\.settings\.{key} is not a known key"):
            _load_bundle(str(bad))
        code, _, stderr = run_cli(["causal", str(bad), "--curves", "1"])
        assert code == 2
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert error["message"].startswith(f"bundle.settings.{key} ")


def test_validate_and_build_share_the_relator_gate(cli_dir, examples, tmp_path):
    # gamma2 with tau(c3) = 1e-7 u, u the fixed lightlike direction of c3: the
    # cusps stay tangent but the relator residual is about 1e-7, so validate
    # and build both refuse it (validate once passed it at a looser setting)
    rep = examples["gamma2"].representation
    u = next(c.u for c in check_admissible(rep).peripheral if c.name == "c3")
    translations = {n: np.zeros(3) for n in rep.presentation.generator_names}
    translations["c3"] = 1e-7 * u
    path = tmp_path / "rep.json"
    path.write_text(canonical_dumps(rep.with_translations(translations).to_json()))
    code, stdout, _ = run_cli(["validate", str(path)])
    report = json.loads(stdout)["report"]
    assert code == 1 and report["verdict"] is False
    assert report["relator_residual"] > RELATOR_TOL
    assert all(c["tangent"] for c in report["peripheral"].values())
    out = tmp_path / "bundle.json"
    code, stdout, stderr = run_cli(["build", str(path), str(cli_dir / "tri.json"),
                                    "--out", str(out)])
    assert code == 1 and stdout == "" and not out.exists()
    assert json.loads(stderr)["error"] == "NotAdmissible"


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_library_bugs_are_not_input_errors(cli_dir, monkeypatch, error):
    # only GeometryError, OSError and ValueError are reported; anything else
    # is a bug in the program and propagates out of main
    def broken(*args):
        raise error("a bug")
    monkeypatch.setattr("btzgeo.cli.validate_report", broken)
    with pytest.raises(error, match="a bug"):
        run_cli(["validate", str(cli_dir / "rep.json")])


def _run_capped(argv):
    """The CLI in a subprocess whose address space is capped at 3 GiB, so that
    a regression fails on a MemoryError, not by filling the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
    env = {**os.environ, "PYTHONPATH": str(Path(btzgeo.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "btzgeo.cli", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=120)


@pytest.mark.parametrize("command, block, key, missing", [
    ("validate", (), "genus", "generators.a1"),
    ("build", (), "punctures", "generators.c4"),
    ("causal", ("representation",), "genus", "bundle.representation.generators.a1"),
])
def test_huge_generator_count_is_one_json_error(cli_dir, bundle_path, tmp_path, command, block,
                                               key, missing):
    # a genus or puncture count of 2**70, in rep.json or in a bundle, made the
    # reader build about 2**71 generator names: a MemoryError under a cap,
    # and without one the process was killed
    doc = json.loads((bundle_path if block else cli_dir / "rep.json").read_text())
    node = doc
    for name in block:
        node = node[name]
    node[key] = 2**70
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(json.dumps(doc))
    argv = {"validate": [str(bad)], "build": [str(bad), str(cli_dir / "tri.json")],
            "causal": [str(bad), "--curves", "1"]}[command]
    done = _run_capped([command, *argv, "--out", str(out)])
    assert done.returncode == 2 and done.stdout == "", done.stderr
    error = json.loads(done.stderr)  # exactly one object: trailing text fails the parse
    assert error["category"] == "input-error"
    assert error["message"].startswith(f"{missing} is missing: ") and str(2**70) in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("causal", "n_curves", 10**8, "n_curves must be <= 10000, got 100000000"),
    ("surgery", "surgery_samples", 10**10, "surgery_samples must be <= 1000000, got 10000000000"),
    ("mesh", "resolution", 10**5, "resolution must be <= 256, got 100000"),
    ("build", "bary_n", 10**5, "unknown config key 'bary_n'"),
    ("build", "t_count", 10**8, "unknown config key 't_count'"),
])
def test_huge_count_key_is_one_json_error(cli_dir, bundle_path, profile_path, tmp_path, command,
                                          key, value, message):
    # each of these counts sized a table that ended in a MemoryError traceback
    # under a cap; the counts the config keeps are bounded, the others are gone
    cfg, out = tmp_path / "huge.cfg", tmp_path / "out.json"
    cfg.write_text(f"{key} = {value}\n")
    argv = {"causal": [str(bundle_path)], "surgery": [str(bundle_path), str(profile_path)],
            "mesh": [str(bundle_path)],
            "build": [str(cli_dir / "rep.json"), str(cli_dir / "tri.json")]}[command]
    done = _run_capped([command, *argv, "--config", str(cfg), "--out", str(out)])
    assert done.returncode == 2 and done.stdout == "", done.stderr
    error = json.loads(done.stderr)  # exactly one object: trailing text fails the parse
    assert error["category"] == "input-error"
    assert error["message"] == f"{cfg}:1: {message}"
    assert not out.exists()


def test_constructor_errors_name_the_bundle_block(cli_dir, bundle_path, tmp_path):
    # the checks a triangulation or representation makes on construction name
    # their block in a bundle: as a key path where the message starts with a
    # key, else as a prefix; rep.json and tri.json keep the bare message
    def twice_glued(tri):
        tri["gluings"][2] = tri["gluings"][1]
        return "every edge must be glued exactly once"

    def nan_position(tri):
        tri["positions"]["0"] = math.nan
        return "positions must be finite or inf"

    def huge_translation(rep):
        rep["generators"]["c1"]["translation"] = [0.0, 1e200, 0.0]
        return "bad translation for c1"

    bundle = json.loads(bundle_path.read_text())
    out = tmp_path / "out.json"
    for block, tamper, prefix in (("triangulation", twice_glued, ": "),
                                  ("triangulation", nan_position, "."),
                                  ("representation", huge_translation, ": ")):
        single = json.loads((cli_dir / ("tri.json" if block == "triangulation"
                                        else "rep.json")).read_text())
        message = tamper(single)
        tampered = json.loads(json.dumps(bundle))
        tamper(tampered[block])
        (tmp_path / "in.json").write_text(json.dumps(single))
        (tmp_path / "bundle.json").write_text(json.dumps(tampered))
        inputs = [str(tmp_path / "in.json"), str(cli_dir / "tri.json")]
        if block == "triangulation":
            inputs = [str(cli_dir / "rep.json"), str(tmp_path / "in.json")]
        for argv, want in ((["build", *inputs], message),
                           (["causal", str(tmp_path / "bundle.json"), "--curves", "1"],
                            f"bundle.{block}{prefix}{message}")):
            code, stdout, stderr = run_cli(argv + ["--out", str(out)])
            assert code == 2 and stdout == "" and not out.exists(), stderr
            assert json.loads(stderr)["message"] == want


def test_config_rejects_non_finite_values(cli_dir, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("t_start = nan\n")
    code, _, stderr = run_cli(
        ["validate", str(cli_dir / "rep.json"), "--config", str(cfg)]
    )
    assert code == 2
    assert "t_start must be finite" in json.loads(stderr)["message"]


def test_bundle_with_bad_settings_is_input_error(bundle_path, tmp_path):
    bundle = json.loads(bundle_path.read_text())
    bundle["settings"]["t_max"] = 0.05
    bad = tmp_path / "bad-bundle.json"
    bad.write_text(canonical_dumps(bundle))
    code, _, stderr = run_cli(["causal", str(bad), "--curves", "1"])
    assert code == 2
    assert "t_max must be > 0.1" in json.loads(stderr)["message"]


def _tamper_fiber_present(bundle):
    bundle["fibers"]["c1"]["present"] = "false"  # a JSON string, not a boolean
    return "present"


def _tamper_spear_samples(bundle):
    bundle["spears"]["c1"]["samples"] = 2.7
    return "samples"


def _tamper_settings_t_max(bundle):
    bundle["settings"]["t_max"] = "10.0"  # a JSON string, not a number
    return "t_max"


def _tamper_fans(bundle):
    bundle["fans"] = {}
    return "fans"


@pytest.mark.parametrize("tamper", [_tamper_fiber_present, _tamper_spear_samples,
                                    _tamper_settings_t_max, _tamper_fans])
def test_bundle_with_mistyped_field_is_input_error(bundle_path, tmp_path, tamper):
    # bundle fields are checked against their JSON types, never coerced
    bundle = json.loads(bundle_path.read_text())
    key = tamper(bundle)
    bad = tmp_path / "bad-bundle.json"
    bad.write_text(canonical_dumps(bundle))
    code, stdout, stderr = run_cli(["causal", str(bad), "--curves", "1"])
    assert code == 2 and stdout == ""
    error = json.loads(stderr)
    assert error["error"] == "ValueError" and key in error["message"]


def test_causal_leaves_outside_the_run_are_input_error(bundle_path, tmp_path):
    cfg = tmp_path / "leaves.cfg"
    for leaves in ("9.0", ""):
        cfg.write_text(f"leaves = {leaves}\n")
        code, stdout, stderr = run_cli(
            ["causal", str(bundle_path), "--config", str(cfg), "--curves", "1"])
        assert code == 2 and stdout == ""
        assert "leaves" in json.loads(stderr)["message"]


def test_readme_config_block_matches_run_config(tmp_path):
    # the README key block is the only other copy of the --config schema
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Valid keys and\s+defaults:\s*```\n(.*?)```", readme, re.S)
    pairs = re.findall(r"(\w+)=(\S+)", block.group(1))
    assert [key for key, _ in pairs] == [f.name for f in dataclasses.fields(RunConfig)]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text("".join(f"{key}={raw}\n" for key, raw in pairs))
    assert load_config(str(cfg)) == RunConfig()
    # the range rules count the build keys and state each count's bound
    rules = " ".join(readme.split())
    first = re.search(r"the first (\d+) keys are the fields of `builder\.BuildSettings`", rules)
    assert int(first.group(1)) == len(dataclasses.fields(BuildSettings))
    for name, most in RunConfig._COUNTS.items():
        assert f"`{name} <= {most}`" in rules, name


def test_config_values_apply(cli_dir, bundle_path, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_curves = 5\nresolution = 2\nleaves = 0.8\nseed = 3\n")
    code, stdout, _ = run_cli(
        ["causal", str(bundle_path), "--config", str(cfg)]
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["n_curves"] == 5
    assert report["seed"] == 3
    assert len(report["curves"]) == 5
    assert report["leaves"] == [0.8]

    code, stdout, _ = run_cli(
        ["mesh", str(bundle_path), "--config", str(cfg),
         "--out", str(tmp_path / "m.obj")]
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["resolution"] == 2
    assert report["leaves"] == [0.8]


def test_causal_runs_reproduce(bundle_path, tmp_path):
    argv = ["causal", str(bundle_path), "--curves", "8", "--seed", "11"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["pass"] is True
    assert report["n_curves"] == 8


def test_causal_rejects_bad_curve_count(bundle_path):
    code, _, stderr = run_cli(["causal", str(bundle_path), "--curves", "0"])
    assert code == 2
    assert "curves" in json.loads(stderr)["message"]


@pytest.mark.parametrize("argv, message", [
    (["mesh", "--leaves=-1"], "--leaves: leaves must be finite and > 0, got (-1.0,)"),
    (["mesh", "--resolution", "0"], "--resolution: resolution must be >= 1"),
    (["causal", "--curves", "0"], "--curves: n_curves must be >= 1"),
    (["causal", "--seed", "-1"], "--seed: seed must be >= 0"),
    (["mesh", "--resolution", "100000"], "--resolution: resolution must be <= 256, got 100000"),
    (["causal", "--curves", "100000000"], "--curves: n_curves must be <= 10000, got 100000000"),
])
def test_flag_range_errors_name_the_flag(bundle_path, tmp_path, argv, message):
    out = tmp_path / "out.obj"
    code, stdout, stderr = run_cli([argv[0], str(bundle_path), *argv[1:], "--out", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    assert json.loads(stderr)["message"] == message


def test_surgery_complete(bundle_path, profile_path, tmp_path):
    out_file = tmp_path / "surgery.json"
    code, stdout, _ = run_cli(
        ["surgery", str(bundle_path), str(profile_path), "--out", str(out_file)]
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["mode"] == "complete"
    assert report["pass"] is True
    assert report["boundary_exact"] is True
    assert report["divergence_at_puncture"] is True
    assert report["delta"]["min_delta_r2"] >= 1.0
    assert report["certificate"]["conclusive"] is True
    assert report["certificate"]["constant"] >= np.sqrt(2) - 1e-12
    assert report["metric_det_residual"] <= 1e-9
    assert report["spear_fit"]["c1"]["inside"] is True
    assert out_file.read_text() == stdout


def test_surgery_compact(bundle_path, profile_path):
    code, stdout, _ = run_cli(
        ["surgery", str(bundle_path), str(profile_path), "--mode", "compact"]
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["mode"] == "compact"
    assert report["pass"] is True
    assert report["seam_exact"] is True
    assert report["boundary_exact"] is True
    assert np.isfinite(report["M"])
    assert report["delta"]["min"] > 0
    assert report["certificate"]["conclusive"] is False


def test_surgery_invalid_profile(bundle_path, tmp_path):
    bad = tmp_path / "bad-profile.json"
    for profile, expected in (('{"R": -1.0}', "finite"), ('{"R": NaN}', "finite"),
                              ('{"R": 0.1, "const": Infinity}', "finite"),
                              ('{"R": 0.1, "sin": [-Infinity]}', "finite"),
                              ('{"R": 0.1, "coss": [5.0]}', "coss is not a known key"),
                              ('{"cos": [5.0]}', "R is missing"),
                              ('{"R": 0.1, "sin": 1.0}', "sin has the wrong JSON type")):
        bad.write_text(profile)
        code, stdout, stderr = run_cli(["surgery", str(bundle_path), str(bad)])
        assert code == 2 and stdout == ""
        err = json.loads(stderr)
        assert err["category"] == "input-error" and expected in err["message"]


@pytest.mark.parametrize("mode", ["complete", "compact"])
def test_surgery_overflowing_profile_is_one_json_error(bundle_path, tmp_path, mode):
    # sup |tau^R'|^2 would overflow, so the caps refuse sin.0
    profile = tmp_path / "huge-profile.json"
    profile.write_text('{"R": 0.1, "const": 1.0, "sin": [1e200]}')
    code, stdout, stderr = run_cli(["surgery", str(bundle_path), str(profile), "--mode", mode])
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err["category"] == "input-error" and "slope constant M" in err["message"]


@pytest.mark.parametrize("mode", ["complete", "compact"])
@pytest.mark.parametrize("profile, field", [
    ('{"R": 1e-320}', "R"),  # was a divide-by-zero warning or OnSeam
    ('{"R": 0.1, "const": 1e308}', "const"),  # was an unnamed non-finite M
    ('{"R": 0.1, "cos": [0.5, -1e51]}', "cos.1"),
    ('{"R": 1e51, "const": 1.0}', "R"),
])
def test_surgery_profile_beyond_the_cap_scale_names_its_field(bundle_path, tmp_path, mode,
                                                              profile, field):
    path = tmp_path / "profile.json"
    path.write_text(profile)
    out = tmp_path / "report.json"
    code, stdout, stderr = run_cli(["surgery", str(bundle_path), str(path), "--mode", mode,
                                    "--out", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    err = json.loads(stderr)
    assert err["category"] == "input-error" and err["message"].startswith(f"{field} must be in [")


@pytest.mark.parametrize("mode", ["complete", "compact"])
def test_surgery_profile_at_the_cap_scale_has_finite_reports(bundle_path, tmp_path, mode):
    # the corners of the admitted range give a finite M and finite delta samples
    for profile in ({"R": 1e-50, "const": 1e50, "cos": [1e50, -1e50], "sin": [1e50] * 3},
                    {"R": 1e50, "const": 1e50, "cos": [1e50, -1e50], "sin": [1e50] * 3},
                    {"R": 1e-50, "const": -1e50, "cos": [], "sin": []}):
        path = tmp_path / "profile.json"
        path.write_text(canonical_dumps(profile))
        code, stdout, stderr = run_cli(["surgery", str(bundle_path), str(path), "--mode", mode])
        assert code in (0, 1) and stderr == ""
        report = json.loads(stdout)
        assert math.isfinite(report["M"]) and math.isfinite(report["delta"]["min"])


def test_surgery_margin_above_one_is_an_input_error(bundle_path, profile_path, tmp_path):
    # the compact cap's flat core has delta = 1, so no slope constant gives
    # more; the config refuses the margin when it loads, before any stage runs
    cfg = tmp_path / "margin.cfg"
    cfg.write_text("surgery_margin=2\n")
    message = f"{cfg}:1: surgery_margin must be in (0, 1], got 2.0"
    outdir = tmp_path / "demo-out"
    for argv in (["surgery", str(bundle_path), str(profile_path), "--mode", "compact",
                  "--out", str(tmp_path / "surgery.json")],
                 ["demo", "gamma2", "--out", str(outdir)]):
        code, stdout, stderr = run_cli(argv + ["--config", str(cfg)])
        assert code == 2 and stdout == "", argv
        assert json.loads(stderr)["message"] == message
    assert not (tmp_path / "surgery.json").exists() and not outdir.exists()
    with pytest.raises(ValueError, match="surgery_margin"):
        RunConfig(surgery_margin=1.5)
    assert RunConfig(surgery_margin=1.0).surgery_margin == 1.0


def test_bad_triangulation_shapes_are_one_json_error(cli_dir, tmp_path):
    tri = json.loads((cli_dir / "tri.json").read_text())
    short_side = json.loads(json.dumps(tri))
    short_side["gluings"][0]["left"] = [0]
    four_names = json.loads(json.dumps(tri))
    four_names["triangles"][0].append("extra")
    four_names["vertex_class"]["extra"] = four_names["vertex_class"][tri["triangles"][0][0]]
    four_names["positions"]["extra"] = 0.5
    for data in (short_side, four_names):
        path = tmp_path / "bad-tri.json"
        path.write_text(canonical_dumps(data))
        code, stdout, stderr = run_cli(
            ["build", str(cli_dir / "rep.json"), str(path), "--out", str(tmp_path / "b.json")])
        assert code == 2 and stdout == "" and "Traceback" not in stderr
        assert json.loads(stderr)["error"] == "ValueError"
        assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("key, error", [("so12", "InvalidIsometry"), ("sl2", "NotUnimodular")])
def test_overflowing_matrix_entry_is_one_json_error(cli_dir, bundle_path, tmp_path, key, error):
    # an so12 or sl2 entry of 1e308, in rep.json or in a bundle's representation,
    # exits 1 with one JSON error object under warnings-as-errors; the isometry
    # checks' scale (largest entry)^2 raised a raw OverflowError before
    rep = json.loads((cli_dir / "rep.json").read_text())
    rep["generators"]["c1"][key][0][1] = 1e308
    bundle = json.loads(bundle_path.read_text())
    bundle["representation"]["generators"]["c1"][key][0][1] = 1e308
    (tmp_path / "rep.json").write_text(json.dumps(rep))
    (tmp_path / "bundle.json").write_text(json.dumps(bundle))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["build", str(tmp_path / "rep.json"), str(cli_dir / "tri.json")],
                     ["causal", str(tmp_path / "bundle.json"), "--curves", "1"]):
            code, stdout, stderr = run_cli(argv + ["--out", str(out)])
            assert code == 1 and stdout == "", (argv, stderr)
            err = json.loads(stderr)  # exactly one object: trailing text fails the parse
            assert err["kind"] == "error" and err["error"] == error, err
            assert "exceeds" in err["message"] and not out.exists()


def test_overflowing_word_product_is_one_json_error(examples, torus_zero, tmp_path):
    # the punctured torus with a1 = b1 = boost(200): entries of about 3.6e86
    # pass the 1e100 bound, but the relator's products overflow; validate,
    # build and a bundle load each exit 1 with one JSON error naming the
    # relator, under warnings-as-errors, where a raw numpy warning ended them
    boost = [[math.cosh(200.0), math.sinh(200.0), 0.0],
             [math.sinh(200.0), math.cosh(200.0), 0.0], [0.0, 0.0, 1.0]]
    ex = examples["punctured_torus"]
    rep, bundle = ex.representation.to_json(), json.loads(torus_zero.dumps())
    for generators in (rep["generators"], bundle["representation"]["generators"]):
        for name in ("a1", "b1"):
            generators[name] = {"so12": boost, "translation": [0.0, 0.0, 0.0]}
    (tmp_path / "rep.json").write_text(json.dumps(rep))
    (tmp_path / "tri.json").write_text(json.dumps(ex.triangulation.to_json()))
    (tmp_path / "bundle.json").write_text(json.dumps(bundle))
    out = tmp_path / "out.json"
    relator = ex.representation.presentation.relator
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["validate", str(tmp_path / "rep.json")],
                     ["build", str(tmp_path / "rep.json"), str(tmp_path / "tri.json")],
                     ["causal", str(tmp_path / "bundle.json"), "--curves", "1"]):
            code, stdout, stderr = run_cli(argv + ["--out", str(out)])
            assert code == 1 and stdout == "", (argv, stderr)
            err = json.loads(stderr)  # exactly one object: trailing text fails the parse
            assert err["error"] == "InvalidIsometry", err
            assert err["message"] == f"word {relator!r}: non-finite entries", err
            assert not out.exists()


def _boost(x):
    c, s = math.cosh(x), math.sinh(x)
    return [[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("boosts, c1_translation, word, error", [
    # a1 = boost(60), entries of about 5.7e25: the relator is finite and not
    # admissible, and gluing 1's word a1^-4 overflows the 1e100 bound
    ({"a1": 60.0}, None, "a1^-1 a1^-1 a1^-1 a1^-1", "NotAdmissible"),
    # c1 moved off its tangent line, and gluing 1's word names no generator
    ({}, [1.0, 0.0, 0.0], "z9", "NotAdmissible"),
    # a1 = b1 = boost(200): the relator's products overflow, and so does the word
    ({"a1": 200.0, "b1": 200.0}, None, "a1^-1 a1^-1", "InvalidIsometry"),
    ({"a1": 200.0, "b1": 200.0}, None, "z9", "InvalidIsometry"),
], ids=["boost-60-long-word", "moved-c1-unknown-word", "boost-200-long-word",
        "boost-200-unknown-word"])
def test_build_reports_the_first_fault_of_a_multi_fault_input(examples, tmp_path, boosts,
                                                              c1_translation, word, error):
    # the order of build's errors: InvalidIsometry on the relator, then
    # NotAdmissible, then a gluing word's missing generator, then
    # InvalidIsometry on a gluing word; each input has two of these faults
    # and build exits 1 with one JSON error for the earlier one
    ex = examples["punctured_torus"]
    rep, tri = ex.representation.to_json(), ex.triangulation.to_json()
    for name, x in boosts.items():
        rep["generators"][name] = {"so12": _boost(x), "translation": [0.0, 0.0, 0.0]}
    if c1_translation is not None:
        rep["generators"]["c1"]["translation"] = c1_translation
    tri["gluings"][1]["word"] = word
    (tmp_path / "rep.json").write_text(json.dumps(rep))
    (tmp_path / "tri.json").write_text(json.dumps(tri))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(["build", str(tmp_path / "rep.json"),
                                        str(tmp_path / "tri.json"), "--out", str(out)])
    assert code == 1 and stdout == "", stderr
    err = json.loads(stderr)  # exactly one object: trailing text fails the parse
    assert err["error"] == error, err
    if error == "InvalidIsometry":
        relator = ex.representation.presentation.relator
        assert err["message"] == f"word {relator!r}: non-finite entries", err
    assert not out.exists()


@pytest.mark.parametrize("key, value, code, error, message", [
    ("sl2", [[1e5, 1e5], [1e5, 1e5]], 1, "NotUnimodular", "det = 0.0"),
    ("translation", [0.0, 1e200, 0.0], 2, "ValueError", "bad translation for c1"),
])
def test_singular_sl2_and_huge_translation_are_one_json_error(cli_dir, bundle_path, tmp_path,
                                                              key, value, code, error, message):
    # a singular sl2 with entries of 1e5 passed the det band 1e-9 M^2 and met a
    # division by det 0; a translation entry of 1e200 overflowed the norm of
    # the tangency check: in rep.json or in a bundle, each now exits with one
    # JSON error object under warnings-as-errors
    rep = json.loads((cli_dir / "rep.json").read_text())
    rep["generators"]["c1"][key] = value
    bundle = json.loads(bundle_path.read_text())
    bundle["representation"]["generators"]["c1"][key] = value
    (tmp_path / "rep.json").write_text(json.dumps(rep))
    (tmp_path / "bundle.json").write_text(json.dumps(bundle))
    out = tmp_path / "out.json"
    category = "mathematical-failure" if code == 1 else "input-error"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["build", str(tmp_path / "rep.json"), str(cli_dir / "tri.json")],
                     ["causal", str(tmp_path / "bundle.json"), "--curves", "1"]):
            got, stdout, stderr = run_cli(argv + ["--out", str(out)])
            assert got == code and stdout == "", (argv, stderr)
            err = json.loads(stderr)  # exactly one object: trailing text fails the parse
            assert (err["error"], err["category"]) == (error, category), err
            assert message in err["message"] and not out.exists()


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("index", [2**70, -2**70])
def test_huge_gluing_index_is_one_json_error(cli_dir, bundle_path, tmp_path, side, index):
    # a triangle index past every numpy integer on either side of a gluing, in
    # tri.json or in a bundle's triangulation, exits 2 naming the side by its
    # path in the file read; the right side's index was written into the
    # gluing table before its range check, which raised a raw OverflowError
    tri = json.loads((cli_dir / "tri.json").read_text())
    tri["gluings"][1][side][0] = index
    bundle = json.loads(bundle_path.read_text())
    bundle["triangulation"]["gluings"][1][side][0] = index
    (tmp_path / "tri.json").write_text(json.dumps(tri))
    (tmp_path / "bundle.json").write_text(json.dumps(bundle))
    out = tmp_path / "out.json"
    for argv, path in ((["build", str(cli_dir / "rep.json"), str(tmp_path / "tri.json")], ""),
                       (["causal", str(tmp_path / "bundle.json"), "--curves", "1"],
                        "bundle.triangulation.")):
        code, stdout, stderr = run_cli(argv + ["--out", str(out)])
        assert code == 2 and stdout == "", (argv, stderr)
        err = json.loads(stderr)  # exactly one object: trailing text fails the parse
        assert err["category"] == "input-error", err
        assert err["message"] == f"{path}gluings.1.{side} references triangle {index}"
        assert not out.exists()


def test_bundle_with_foreign_kappa_is_input_error(bundle_path, tmp_path):
    bundle = json.loads(bundle_path.read_text())
    bad = tmp_path / "bad-bundle.json"
    foreign = [("kappa", kappa) for kappa in (1e-3, math.nan, math.inf, 0.0, -5.0)]
    foreign += [("blend", {"name": "linear", "threshold": 0.25}), ("version", 7)]
    for key, value in foreign:
        bad.write_text(json.dumps({**bundle, key: value}))
        for argv in (["causal", str(bad), "--curves", "1"],
                     ["mesh", str(bad), "--out", str(tmp_path / "m.obj")]):
            code, stdout, stderr = run_cli(argv)
            assert code == 2 and stdout == ""
            assert key in json.loads(stderr)["message"]
    assert not (tmp_path / "m.obj").exists()


def test_bundle_with_a_consistent_foreign_kappa_is_input_error(bundle_path, tmp_path):
    # both kappa fields agree, so only the rebuild on load tells them from the
    # certified kappa
    bundle = json.loads(bundle_path.read_text())
    bundle["kappa"] = bundle["certification"]["kappa"] = 1e-3
    bad = tmp_path / "bad-bundle.json"
    bad.write_text(canonical_dumps(bundle))
    code, stdout, stderr = run_cli(["causal", str(bad), "--curves", "2"])
    assert code == 2 and stdout == ""
    error = json.loads(stderr)
    assert error["error"] == "ValueError"
    assert error["message"].startswith("bundle.certification.kappa ")


def test_bundle_with_an_uncertified_spear_is_input_error(bundle_path, tmp_path):
    # a spear radius the search never certified, and a profile that fits it
    bundle = json.loads(bundle_path.read_text())
    bundle["spears"]["c1"]["radius"] = 1e6
    bad = tmp_path / "bad-bundle.json"
    bad.write_text(canonical_dumps(bundle))
    profile = tmp_path / "wide-profile.json"
    profile.write_text(canonical_dumps({"R": 1e6, "const": 1e7, "cos": [], "sin": []}))
    code, stdout, stderr = run_cli(["surgery", str(bad), str(profile)])
    assert code == 2 and stdout == ""
    assert json.loads(stderr)["message"].startswith("bundle.spears.c1.radius ")


def _positions_as_strings(rep, tri):
    tri["positions"]["0"] = "0.0"
    return "positions.0 has the wrong JSON type"


def _positions_as_list(rep, tri):
    tri["positions"] = [1]
    return "positions has the wrong JSON type"


def _vertex_class_as_list(rep, tri):
    tri["vertex_class"]["0"] = ["c2"]
    return "vertex_class.0 has the wrong JSON type"


def _vertex_class_as_string(rep, tri):
    tri["vertex_class"] = "x"
    return "vertex_class has the wrong JSON type"


def _unknown_triangulation_key(rep, tri):
    tri["orientation"] = 1
    return "orientation is not a known key"


def _unknown_gluing_key(rep, tri):
    tri["gluings"][1]["twist"] = 0
    return "gluings.1.twist is not a known key"


def _genus_as_string(rep, tri):
    rep["genus"] = "0"
    return "genus has the wrong JSON type"


def _sl2_as_strings(rep, tri):
    rep["generators"]["c1"]["sl2"] = [[str(x) for x in row] for row in
                                      rep["generators"]["c1"]["sl2"]]
    return "generators.c1.sl2.0.0 has the wrong JSON type"


def _sl2_one_row(rep, tri):
    rep["generators"]["c1"]["sl2"] = [[1, 2]]
    return "generators.c1.sl2 has the wrong length"


def _so12_one_entry(rep, tri):
    rep["generators"]["c1"]["so12"] = [1]
    return "generators.c1.so12 has the wrong length"


def _translation_as_strings(rep, tri):
    rep["generators"]["c1"]["translation"] = ["0.0", "0.0", "0.0"]
    return "generators.c1.translation.0 has the wrong JSON type"


def _missing_generator(rep, tri):
    del rep["generators"]["c2"]
    return "generators.c2 is missing"


def _unknown_generator_key(rep, tri):
    rep["generators"]["c1"]["trace"] = 2.0
    return "generators.c1.trace is not a known key"


def _unknown_generator_in_word(rep, tri):
    tri["gluings"][0]["word"] = "x"
    return "gluings.0.word 'x': no generator 'x'"


@pytest.mark.parametrize("tamper", [_positions_as_strings, _positions_as_list,
                                    _vertex_class_as_list, _vertex_class_as_string,
                                    _unknown_triangulation_key, _unknown_gluing_key,
                                    _genus_as_string, _sl2_as_strings, _sl2_one_row,
                                    _so12_one_entry, _translation_as_strings,
                                    _missing_generator, _unknown_generator_key,
                                    _unknown_generator_in_word])
def test_build_inputs_are_type_checked(cli_dir, tmp_path, tamper):
    # input files are read against their schemas, never coerced: a wrong type,
    # a wrong shape, a missing or an unknown key is one input error naming its path
    rep = json.loads((cli_dir / "rep.json").read_text())
    tri = json.loads((cli_dir / "tri.json").read_text())
    expected = tamper(rep, tri)
    (tmp_path / "rep.json").write_text(canonical_dumps(rep))
    (tmp_path / "tri.json").write_text(canonical_dumps(tri))
    out = tmp_path / "b.json"
    code, stdout, stderr = run_cli(
        ["build", str(tmp_path / "rep.json"), str(tmp_path / "tri.json"), "--out", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    error = json.loads(stderr)
    assert error["error"] == "ValueError"
    assert error["message"].startswith(expected)


_DELETE = object()
_MUTANTS = ("x", None, True, [], {}, [1], 1.5, -1, math.nan)
# keys an input may leave out, objects whose keys the input chooses, and lists
# whose length the input chooses
_OPTIONAL = {"sl2", "so12", "translation", "const", "cos", "sin",
             *(f.name for f in dataclasses.fields(BuildSettings))}
_MAPS = {"vertex_class", "positions"}
_FREE_LENGTH = {"triangles", "gluings", "cos", "sin"}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _same_type(old, new, slot) -> bool:
    """Whether an input may hold ``new`` where it holds ``old`` in ``slot``: a
    position is a number or "inf", a number may stand for a float, a list keeps
    its length unless it is free, and any other value keeps its JSON type."""
    if slot == "positions":
        return _is_number(new) or new == "inf"
    if isinstance(old, float):
        return _is_number(new)
    if isinstance(old, list):
        return isinstance(new, list) and (slot in _FREE_LENGTH or len(new) == len(old)) \
            and (not old or not new or _same_type(old[0], new[0], slot))
    return type(new) is type(old)


def _mutations(doc) -> list:
    """(path, value, must be refused) for every single mutation of the JSON
    document ``doc``: each object gains an unknown key, and each key or list
    position is deleted or set to each of _MUTANTS.  In a list of one JSON
    type and in the generators, whose entries share one schema, only the first
    entry is mutated."""
    found = []

    def visit(node, path, slot):
        if isinstance(node, dict):
            found.append((path + ("unknown_key",), 1, True))
            items = list(node.items())
        elif isinstance(node, list):
            items = list(enumerate(node))
        else:
            return
        if slot == "generators" or isinstance(node, list) and len(set(map(type, node))) == 1:
            items = items[:1]  # the entries share one schema
        for key, old in items:
            held = slot if isinstance(key, int) or slot in _MAPS else key
            free = (key in _OPTIONAL or slot in _MAPS) if isinstance(node, dict) \
                else slot in _FREE_LENGTH
            found.append((path + (key,), _DELETE, not free))
            found.extend((path + (key,), new, not _same_type(old, new, held)) for new in _MUTANTS)
            visit(old, path + (key,), held)

    visit(doc, (), None)
    return found


def _mutated(doc, path, value):
    """A copy of the JSON document ``doc`` with ``path`` set to ``value`` or deleted."""
    out = json.loads(json.dumps(doc))
    *head, last = path
    node = out
    for key in head:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return out


def test_mutated_inputs_exit_with_one_typed_error(cli_dir, tmp_path):
    # every single mutation of gamma2's input files and of a bundle's input
    # blocks exits 0, 1 or 2 without a RuntimeWarning, a nonzero exit with
    # exactly one JSON error object; a wrong type or shape, a missing required
    # key or an unknown key exits 2.
    config = tmp_path / "fast.cfg"
    config.write_text("surgery_samples=50\nresolution=1\nleaves=1.0\n")
    fast = ["--config", str(config)]
    rep, tri, bundle = (tmp_path / name for name in ("rep.json", "tri.json", "bundle.json"))
    rep.write_bytes((cli_dir / "rep.json").read_bytes())
    tri.write_bytes((cli_dir / "tri.json").read_bytes())
    assert run_cli(["build", str(rep), str(tri), "--out", str(bundle), *fast])[0] == 0
    profile = tmp_path / "profile.json"
    profile.write_text(canonical_dumps(_demo_profile(_load_bundle(str(bundle))).to_json()))
    bundle_doc = json.loads(bundle.read_text())
    bad, out = tmp_path / "bad.json", str(tmp_path / "out.json")
    cases = [
        (json.loads(rep.read_text()), (), ["build", str(bad), str(tri), "--out", out]),
        (json.loads(tri.read_text()), (), ["build", str(rep), str(bad), "--out", out]),
        (json.loads(profile.read_text()), (), ["surgery", str(bundle), str(bad)]),
    ] + [
        (bundle_doc, (block,), ["mesh", str(bad), "--out", str(tmp_path / "m.obj")])
        for block in ("representation", "triangulation", "settings")
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for doc, block, argv in cases:
            node = doc
            for key in block:
                node = node[key]
            for path, value, refused in _mutations(node):
                bad.write_text(json.dumps(_mutated(doc, block + path, value)))
                code, stdout, stderr = run_cli(argv + fast)
                where = (".".join(map(str, block + path)), value)
                assert code in ((2,) if refused else (0, 1, 2)), (where, code, stderr)
                if code:
                    assert stdout == "" and json.loads(stderr)["kind"] == "error", where


# Per config value type: a wrong type, an empty, a non-finite and an
# out-of-range value.
_BAD_CONFIG_VALUES = {
    "int": ("1.5", "", "inf", "-1"),
    "float": ("x", "", "nan", "-1"),
    "tuple[float, ...]": ("a,b", "", "inf", "-1"),
}


def test_mutated_config_values_exit_with_one_typed_error(cli_dir, tmp_path):
    # each bad value of each RunConfig key exits 2 with one JSON error object
    # that names the config file, the line and the key
    cfg = tmp_path / "bad.cfg"
    for field in dataclasses.fields(RunConfig):
        for value in _BAD_CONFIG_VALUES[field.type]:
            cfg.write_text(f"# one bad value\nseed = 3\n{field.name} = {value}\n")
            code, stdout, stderr = run_cli(
                ["validate", str(cli_dir / "rep.json"), "--config", str(cfg)])
            message = json.loads(stderr)["message"]
            assert code == 2 and stdout == "", (field.name, value, message)
            assert message.startswith(f"{cfg}:3: ") and field.name in message, message


def test_mesh_counts(bundle_path, tmp_path):
    obj = tmp_path / "leaves.obj"
    code, stdout, _ = run_cli(
        ["mesh", str(bundle_path), "--leaves", "1.0,2.0", "--resolution", "3",
         "--out", str(obj)]
    )
    assert code == 0
    report = json.loads(stdout)
    n_simplices = 2
    assert report["vertices"] == 2 * n_simplices * (4 * 5) // 2
    assert report["faces"] == 2 * n_simplices * 9
    assert obj.exists()
    body1 = obj.read_bytes()
    run_cli(["mesh", str(bundle_path), "--leaves", "1.0,2.0", "--resolution", "3",
             "--out", str(obj)])
    assert obj.read_bytes() == body1


def test_mesh_json_output(bundle_path, tmp_path):
    out = tmp_path / "leaves.json"
    code, stdout, _ = run_cli(
        ["mesh", str(bundle_path), "--leaves", "1.5", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["format"] == "leaf-mesh"
    report = json.loads(stdout)
    # the --leaves override is the config the report records
    assert report["config"]["leaves"] == report["leaves"] == [1.5]
    # the report counts the written mesh
    assert len(payload["vertices"]) == report["vertices"]
    assert len(payload["faces"]) == report["faces"]


def test_mesh_requires_leaves(bundle_path, tmp_path, monkeypatch):
    def load(path):
        raise AssertionError("the bundle was loaded before --leaves was checked")
    monkeypatch.setattr("btzgeo.cli._load_bundle", load)
    out = tmp_path / "m.obj"
    for leaves in (",", "a,1", ""):
        code, stdout, stderr = run_cli(["mesh", str(bundle_path), "--leaves", leaves,
                                        "--out", str(out)])
        assert code == 2 and stdout == "" and not out.exists()
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert error["message"] == f"--leaves: leaves expects tuple[float, ...], got {leaves!r}"


def test_mesh_rejects_non_finite_leaves(bundle_path, tmp_path):
    obj = tmp_path / "m.obj"
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("leaves = nan,1.0\n")
    code, _, _ = run_cli(["mesh", str(bundle_path), "--leaves", "nan,1.0", "--out", str(obj)])
    assert code == 2
    assert not obj.exists()
    code, _, stderr = run_cli(["mesh", str(bundle_path), "--config", str(cfg), "--out", str(obj)])
    assert code == 2
    assert "leaves" in json.loads(stderr)["message"]
    assert not obj.exists()
    for bad in ((0.0,), (-1.0, 2.0), (float("inf"),)):
        with pytest.raises(ValueError, match="leaves"):
            RunConfig(leaves=bad)


def test_mesh_refuses_a_leaf_that_overflows(examples, tmp_path):
    # t = 1e308 is finite and > 0, but the torus's vertices overflow at it: no
    # file, and the error names the flag and the leaf, under warnings-as-errors too
    ex = examples["punctured_torus"]
    rep, tri, bundle = (tmp_path / f for f in ("rep.json", "tri.json", "bundle.json"))
    rep.write_text(canonical_dumps(ex.representation.to_json()))
    tri.write_text(canonical_dumps(ex.triangulation.to_json()))
    assert run_cli(["build", str(rep), str(tri), "--out", str(bundle)])[0] == 0
    for out in (tmp_path / "m.obj", tmp_path / "m.json"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, stderr = run_cli(["mesh", str(bundle), "--leaves", "1.0,1e308",
                                            "--out", str(out)])
        assert code == 2 and stdout == "" and not out.exists()
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert error["message"] == "--leaves: leaf t = 1e+308 develops vertices that are not finite"


def test_demo_full_pipeline(tmp_path):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("n_curves = 10\nsurgery_samples = 2000\n")
    outdir = tmp_path / "demo-out"
    code, stdout, stderr = run_cli(
        ["demo", "gamma2", "--out", str(outdir), "--config", str(cfg)]
    )
    assert code == 0, stderr
    assert "demo gamma2: summary" in stdout
    assert "FAIL" not in stdout
    for name in (
        "rep.json", "tri.json", "validate-report.json", "bundle.json",
        "build-report.json", "profile.json", "surgery-complete.json",
        "surgery-compact.json", "causal-report.json", "mesh-report.json",
        "leaves.obj",
    ):
        assert (outdir / name).exists(), name
    causal = json.loads((outdir / "causal-report.json").read_text())
    assert causal["pass"] is True and causal["n_curves"] == 10
    for mode in ("complete", "compact"):
        surgery = json.loads((outdir / f"surgery-{mode}.json").read_text())
        assert surgery["pass"] is True


def test_demo_failed_stage_is_one_row_and_one_error(tmp_path, monkeypatch):
    # an uncertifiable margin fails the build: the stage gets a FAIL row, the
    # error is one JSON object on stderr, and no later stage runs
    monkeypatch.setattr(builder, "MAX_DOUBLINGS", 1)
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("margin = 1e6\n")
    outdir = tmp_path / "demo-out"
    code, stdout, stderr = run_cli(
        ["demo", "gamma2", "--out", str(outdir), "--config", str(cfg)]
    )
    assert code == 1
    rows = stdout.splitlines()[1:]
    assert [row.split()[:2] for row in rows] == [["validate", "ok"], ["build", "FAIL(1)"]]
    error = json.loads(stderr)
    assert error["category"] == "mathematical-failure"
    assert error["error"] == "KappaSearchExhausted"
    assert error["message"].startswith("no kappa certified after 1 doublings (2 passes)")
    assert sorted(p.name for p in outdir.iterdir()) == ["rep.json", "tri.json",
                                                       "validate-report.json"]


def test_demo_unknown_name(tmp_path):
    code, _, stderr = run_cli(["demo", "nope", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown demo" in json.loads(stderr)["message"]


def test_public_names_resolve():
    import btzgeo

    assert len(set(btzgeo.__all__)) == len(btzgeo.__all__)
    for name in btzgeo.__all__:
        assert getattr(btzgeo, name) is not None, name


def test_parser_program_name():
    parser = build_parser()
    assert parser.prog == "btzgeo"
    args = parser.parse_args(["causal", "b.json", "--curves", "3"])
    assert args.command == "causal" and args.curves == 3
