"""Command line front end for the spacetime pipeline.

Subcommands wire the library stages together:

    validate  admissibility report for a representation file
    build     certified polyhedral spacetime bundle from rep + triangulation
    surgery   spacelike cap certificates (complete or compact) over a bundle
    causal    randomized causal-curve report on a bundle
    mesh      leaf meshes (OBJ or JSON) sampled from a bundle
    demo      full pipeline on a builtin example, with a summary table

Reports are JSON on stdout (scripts first); --out writes the primary artifact.
Every report embeds the effective config and seed so a run can be replayed.
Exit codes: 0 success, 1 mathematical failure (a certificate or verdict did
not hold), 2 input error (unparseable or out-of-range input).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .builder import (
    MAX_RESOLUTION,
    BuildSettings,
    PolyhedralSpacetime,
    build,
    export_mesh,
)
from .minkowski import GeometryError
from .models import TWO_PI
from .causality import MAX_CURVES, cauchy_time_report
from .representations import (
    AffineRepresentation,
    IdealTriangulationData,
    builtin_examples,
    check_admissible,
)
from .serialize import canonical_dumps, read_json
from .surgery import (
    BoundaryProfile,
    completeness_certificate,
    delta,
    divergence_check,
    extend_compact,
    extend_complete,
    fits_spear,
    induced_metric,
)

MAX_SURGERY_SAMPLES = 1_000_000  # surgery_report's delta samples (_delta_samples), 8 MB per array


@dataclasses.dataclass(frozen=True)
class RunConfig(BuildSettings):
    """Flat run configuration; every field is a valid --config key.

    The build keys and their range rules come from BuildSettings; this class
    adds the run keys, whose counts are bounded where their tables are
    allocated.  Seeds are recorded in every report this tool emits.
    """

    # causal tracing
    n_curves: int = 100
    t_start: float = 0.2
    t_stop: float = 4.0
    leaves: tuple[float, ...] = (0.5, 1.0, 2.0)
    # surgery certification sampling
    surgery_samples: int = 10_000
    surgery_margin: float = 1e-6
    # mesh export
    resolution: int = 8
    # global
    seed: int = 0

    _POSITIVE = BuildSettings._POSITIVE + ("t_start", "t_stop", "surgery_margin")
    # each count's upper bound, set where its tables are allocated
    _COUNTS = {"n_curves": MAX_CURVES, "surgery_samples": MAX_SURGERY_SAMPLES,
               "resolution": MAX_RESOLUTION}

    def __post_init__(self):
        super().__post_init__()
        for name, most in self._COUNTS.items():
            if (v := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
            if v > most:
                raise ValueError(f"{name} must be <= {most}, got {v!r}")
        if self.t_start >= self.t_stop:
            raise ValueError("t_start must be < t_stop")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.surgery_margin > 1:  # the compact cap's flat core has delta = 1
            raise ValueError(f"surgery_margin must be in (0, 1], got {self.surgery_margin!r}")
        leaves = tuple(float(x) for x in self.leaves)
        if not all(math.isfinite(x) and x > 0 for x in leaves):
            raise ValueError(f"leaves must be finite and > 0, got {leaves!r}")
        object.__setattr__(self, "leaves", leaves)

    def build_settings(self) -> BuildSettings:
        return BuildSettings(**{
            f.name: getattr(self, f.name) for f in dataclasses.fields(BuildSettings)
        })


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(field: dataclasses.Field, raw: str, where: str):
    """A config value as its field's type: int, float or (comma separated) a
    non-empty tuple of floats; a ValueError at ``where`` if it does not parse."""
    raw = raw.strip()
    try:
        if field.type in ("int", "float"):
            return int(raw) if field.type == "int" else float(raw)
        if values := tuple(float(x) for x in raw.split(",") if x.strip()):
            return values
    except ValueError:
        pass
    raise ValueError(f"{where}: {field.name} expects {field.type}, got {raw!r}")


def _with_flag(cfg: RunConfig, flag: str, **change) -> RunConfig:
    """cfg with the fields that a command line flag sets; a range error names the flag."""
    try:
        return dataclasses.replace(cfg, **change)
    except ValueError as e:
        raise ValueError(f"{flag}: {e}") from None


def load_config(path: str | None, seed: int | None = None) -> RunConfig:
    """Parse a flat key=value file (# comments allowed) into a RunConfig.

    Command line --seed overrides the file.
    """
    values: dict = {}
    lines: dict = {}  # key -> the line that set it
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key], lines[key] = _coerce(_FIELDS[key], raw, f"{path}:{lineno}"), lineno
    try:
        cfg = RunConfig(**values)
    except ValueError as e:  # each range rule's message names a key it checks
        key = next((k for k in re.findall(r"\w+", str(e)) if k in lines), None)
        raise ValueError(f"{path}:{lines[key]}: {e}" if key else str(e)) from None
    if seed is not None:
        cfg = _with_flag(cfg, "--seed", seed=seed)
    return cfg


def _load_json(path: str):
    try:
        return read_json(path)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e


def _emit(report: dict, code: int, out: str | None) -> int:
    text = canonical_dumps(report)
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)
    return code


def _load_bundle(path: str) -> PolyhedralSpacetime:
    return PolyhedralSpacetime.from_json(_load_json(path))


# ---------------------------------------------------------------------------
# subcommands: each cmd_* reads its arguments and files and hands them to a
# *_report function, (config, objects, paths) -> (report, exit code); so does the demo.


def validate_report(cfg: RunConfig, rep: AffineRepresentation, rep_path: str):
    report = check_admissible(rep)
    return {
        "kind": "admissibility-report",
        "input": rep_path,
        "config": cfg.to_json(),
        "seed": cfg.seed,
        "report": report.to_json(),
    }, 0 if report.verdict else 1


def cmd_validate(args) -> int:
    cfg = load_config(args.config, args.seed)
    rep = AffineRepresentation.from_json(_load_json(args.representation))
    return _emit(*validate_report(cfg, rep, args.representation), args.out)


def _fan_summary(st: PolyhedralSpacetime) -> dict:
    """Per puncture, the fan's corner count, ell, Theta and holonomy residual;
    the normalized angles are in the bundle's ``fans`` block."""
    return {puncture: {"corners": pg.r, "ell": pg.ell, "Theta": pg.Theta,
                       "holonomy_residual": pg.holonomy_residual}
            for puncture, pg in sorted(st.fans.items())}


def build_report(cfg: RunConfig, rep: AffineRepresentation, tri: IdealTriangulationData,
                 rep_path: str, tri_path: str, out: str):
    """Build, write the bundle to ``out`` and report on it."""
    st = build(rep, tri, cfg.build_settings())
    Path(out).write_text(st.dumps())
    return {
        "kind": "build-report",
        "inputs": {"representation": rep_path, "triangulation": tri_path},
        "out": out,
        "config": cfg.to_json(),
        "seed": cfg.seed,
        "certification": st.certification.to_json(),
        "fans": _fan_summary(st),
        "spears": {s.puncture: {"radius": s.radius, "vertex_tau": s.vertex_tau}
                   for s in st.spears.values()},
    }, 0


def cmd_build(args) -> int:
    cfg = load_config(args.config, args.seed)
    rep = AffineRepresentation.from_json(_load_json(args.representation))
    tri = IdealTriangulationData.from_json(_load_json(args.triangulation))
    return _emit(*build_report(cfg, rep, tri, args.representation, args.triangulation,
                               args.out), None)


def _delta_samples(sg, rng, n: int):
    # avoid r = 0 (complete mode) and stay inside the closed disk
    u = rng.uniform(1e-6, 1.0, size=n)
    r = sg.R * np.sqrt(u)
    if not sg.punctured:
        # exercise the flat core too, including tiny radii
        r[: n // 10] = sg.R * 1e-4 * u[: n // 10]
    theta = rng.uniform(0.0, TWO_PI, size=n)
    return r, theta, delta(sg, r, theta)


def surgery_report(cfg: RunConfig, st: PolyhedralSpacetime, profile: BoundaryProfile,
                   mode: str, bundle_path: str):
    if mode == "complete":
        sg = extend_complete(profile)
    else:
        sg = extend_compact(profile, margin=cfg.surgery_margin)

    rng = np.random.default_rng(cfg.seed)
    r, theta, d = _delta_samples(sg, rng, cfg.surgery_samples)
    det_resid = float(
        np.abs(np.linalg.det(induced_metric(sg, r[:1000], theta[:1000]))
               - d[:1000] * r[:1000] ** 2).max()
    )
    cert = completeness_certificate(sg)
    boundary = profile.value(theta[:100])
    boundary_exact = bool(
        np.array_equal(sg.value(np.full_like(boundary, sg.R), theta[:100]), boundary)
    )
    report = {
        "kind": "surgery-report",
        "input": bundle_path,
        "profile": profile.to_json(),
        "mode": sg.mode,
        "M": sg.M,
        "config": cfg.to_json(),
        "seed": cfg.seed,
        "delta": {
            "samples": cfg.surgery_samples,
            "min": float(d.min()),
            "mean": float(d.mean()),
            "min_delta_r2": float((d * r**2).min()),
        },
        "metric_det_residual": det_resid,
        "boundary_exact": boundary_exact,
        "certificate": cert.to_json(),
        "divergence_at_puncture": divergence_check(sg),
    }
    spacelike = bool(d.min() > 0)
    if sg.mode == "compact":
        thetas = TWO_PI * (np.arange(64) + 0.5) / 64
        seam = sg.value(np.full(64, sg.R / 2), thetas)
        core = sg.value(np.full(64, sg.R / 4), thetas)
        report["seam_exact"] = bool(np.array_equal(seam, core))
        ok = spacelike and report["seam_exact"] and boundary_exact
    else:
        ok = spacelike and cert.conclusive and report["divergence_at_puncture"] \
            and boundary_exact
    report["spear_fit"] = {p: fits_spear(sg, s) for p, s in sorted(st.spears.items())}
    report["pass"] = ok
    return report, 0 if ok else 1


def cmd_surgery(args) -> int:
    cfg = load_config(args.config, args.seed)
    profile = BoundaryProfile.from_json(_load_json(args.profile))
    st = _load_bundle(args.bundle)
    return _emit(*surgery_report(cfg, st, profile, args.mode, args.bundle), args.out)


def causal_report(cfg: RunConfig, st: PolyhedralSpacetime, bundle_path: str):
    report = cauchy_time_report(
        st,
        n_curves=cfg.n_curves,
        seed=cfg.seed,
        t_start=cfg.t_start,
        t_stop=cfg.t_stop,
        leaves=cfg.leaves,
    )
    report["input"] = bundle_path
    report["config"] = cfg.to_json()
    return report, 0 if report["pass"] else 1


def cmd_causal(args) -> int:
    cfg = load_config(args.config, args.seed)
    if args.curves is not None:
        cfg = _with_flag(cfg, "--curves", n_curves=args.curves)
    st = _load_bundle(args.bundle)
    return _emit(*causal_report(cfg, st, args.bundle), args.out)


def mesh_report(cfg: RunConfig, st: PolyhedralSpacetime, bundle_path: str, out: str):
    """Write the leaf meshes to ``out`` and report their counts."""
    vertices, faces = export_mesh(st, cfg.leaves, cfg.resolution, out)
    return {
        "kind": "mesh-report",
        "input": bundle_path,
        "out": out,
        "config": cfg.to_json(),
        "seed": cfg.seed,
        "leaves": list(cfg.leaves),
        "resolution": cfg.resolution,
        "vertices": vertices,
        "faces": faces,
    }, 0


def cmd_mesh(args) -> int:
    cfg = load_config(args.config, args.seed)
    if args.leaves is not None:
        cfg = _with_flag(cfg, "--leaves",
                         leaves=_coerce(_FIELDS["leaves"], args.leaves, "--leaves"))
    if args.resolution is not None:
        cfg = _with_flag(cfg, "--resolution", resolution=args.resolution)
    st = _load_bundle(args.bundle)
    try:
        report = mesh_report(cfg, st, args.bundle, args.out)
    except ValueError as e:  # the config is checked, so only a leaf can fail here
        if args.leaves is None:
            raise
        raise ValueError(f"--leaves: {e}") from None
    return _emit(*report, None)


def _demo_profile(st: PolyhedralSpacetime) -> BoundaryProfile:
    """A cap boundary that sits on the shaft of the first spear."""
    spear = st.spears[min(st.spears)]
    amp = 0.1 * spear.radius
    return BoundaryProfile(
        R=spear.radius,
        const=spear.ring_tau + 2 * amp,
        sin=(0.0, amp),
    )


def cmd_demo(args) -> int:
    """Every stage on one builtin example: the inputs are written and read back
    like any input file, the bundle is loaded once for the stages after build,
    and each stage's report goes to its file and one row of the summary."""
    cfg = load_config(args.config, args.seed)
    examples = builtin_examples()
    if args.name not in examples:
        raise ValueError(
            f"unknown demo {args.name!r}; available: {', '.join(sorted(examples))}"
        )
    ex = examples[args.name]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rep_path, tri_path, bundle = (str(outdir / f) for f in ("rep.json", "tri.json", "bundle.json"))
    Path(rep_path).write_text(canonical_dumps(ex.representation.to_json()))
    Path(tri_path).write_text(canonical_dumps(ex.triangulation.to_json()))
    rep = AffineRepresentation.from_json(_load_json(rep_path))
    tri = IdealTriangulationData.from_json(_load_json(tri_path))
    rows = []

    def stage(name: str, detail: str, report_name: str, run) -> int:
        try:
            report, code = run()
        except _ERRORS as e:
            code = _report_error(e)
        else:
            (outdir / report_name).write_text(canonical_dumps(report))
        rows.append((name, code, detail))
        return code

    code = stage("validate", f"report {outdir / 'validate-report.json'}", "validate-report.json",
                 lambda: validate_report(cfg, rep, rep_path))
    if code == 0:
        code = stage("build", f"bundle {bundle}", "build-report.json",
                     lambda: build_report(cfg, rep, tri, rep_path, tri_path, bundle))
    if code == 0:
        st = _load_bundle(bundle)
        profile = _demo_profile(st)
        (outdir / "profile.json").write_text(canonical_dumps(profile.to_json()))
        for mode in ("complete", "compact"):
            sub = stage(f"surgery[{mode}]", f"report {outdir}/surgery-{mode}.json",
                        f"surgery-{mode}.json",
                        lambda: surgery_report(cfg, st, profile, mode, bundle))
            code = code or sub
    if code == 0:
        code = stage("causal", f"report {outdir}/causal-report.json", "causal-report.json",
                     lambda: causal_report(cfg, st, bundle))
    if code == 0:
        mesh_path = outdir / "leaves.obj"
        code = stage("mesh", f"obj {mesh_path}", "mesh-report.json",
                     lambda: mesh_report(cfg, st, bundle, str(mesh_path)))

    width = max(len(r[0]) for r in rows)
    print(f"demo {args.name}: summary")
    for stage_name, rc, detail in rows:
        status = "ok" if rc == 0 else f"FAIL({rc})"
        print(f"  {stage_name:<{width}}  {status:<8} {detail}")
    return code


# ---------------------------------------------------------------------------
# parser


def _add_common(p, out):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
    p.add_argument("--out", default=out[0], help=out[1])


@functools.cache  # built once: building it is most of a call that fails early
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btzgeo",
        description="certified flat spacetimes from punctured-surface holonomy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="admissibility report for a representation file")
    p.add_argument("representation", help="representation JSON file")
    _add_common(p, out=(None, "also write the report here"))
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build", help="build and certify a spacetime bundle")
    p.add_argument("representation", help="representation JSON file")
    p.add_argument("triangulation", help="ideal triangulation JSON file")
    _add_common(p, out=("bundle.json", "bundle output path"))
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("surgery", help="certify a spacelike cap over a bundle")
    p.add_argument("bundle", help="spacetime bundle JSON file")
    p.add_argument("profile", help="boundary profile JSON file")
    p.add_argument("--mode", choices=("complete", "compact"), default="complete")
    _add_common(p, out=(None, "also write the report here"))
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("causal", help="randomized causal-curve report")
    p.add_argument("bundle", help="spacetime bundle JSON file")
    p.add_argument("--curves", type=int, default=None, help="number of traced curves")
    _add_common(p, out=(None, "also write the report here"))
    p.set_defaults(func=cmd_causal)

    p = sub.add_parser("mesh", help="export sampled leaf meshes")
    p.add_argument("bundle", help="spacetime bundle JSON file")
    p.add_argument("--leaves", default=None, help="comma separated leaf t values")
    p.add_argument("--resolution", type=int, default=None, help="barycentric subdivisions")
    _add_common(p, out=("mesh.obj", "mesh output path (.obj or .json)"))
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("demo", help="full pipeline on a builtin example")
    p.add_argument("name", help="builtin example name (see representations)")
    _add_common(p, out=("demo-out", "output directory"))
    p.set_defaults(func=cmd_demo)

    return parser


# exceptions a command reports as one JSON error object: GeometryError is a
# mathematical failure (exit 1), the rest input errors (exit 2); any other
# exception is a bug in the program and propagates as a traceback
_ERRORS = (GeometryError, OSError, ValueError)


def _report_error(e: Exception) -> int:
    """Write e to stderr as one JSON error object; returns its exit code."""
    code = 1 if isinstance(e, GeometryError) else 2
    sys.stderr.write(canonical_dumps({
        "kind": "error",
        "category": "mathematical-failure" if code == 1 else "input-error",
        "error": type(e).__name__,
        "message": str(e),
    }))
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as e:
        return _report_error(e)


if __name__ == "__main__":
    sys.exit(main())
