"""The three benchmark workloads, each driving btzgeo through its public API.

A workload sets itself up (``setup``), yields a deterministic stream of op
inputs from the workload seed (``inputs``), runs one op (``run``, the only
timed call) and checks one op's output (``check``, which returns a digest of
the output bytes or raises ``OutputError``).  ``replay`` re-runs one op
untimed, so run.py can require byte-identical output on a seeded sample.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

# Calls go through the module objects, so the tracer's wrappers see them.
from btzgeo import builder, causality, cli, representations
from btzgeo.serialize import canonical_dumps

EXAMPLES = ("gamma2", "punctured_torus")


class OutputError(Exception):
    """An op returned output that fails the workload's correctness check."""


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class Workload:
    """Defaults shared by the workloads."""

    group = 1  # ops per closed-loop step; the run stops only between steps
    replay_samples = 0

    def prepare(self, inp) -> None:
        """Untimed work before one op."""

    def replay(self, inp) -> str:
        return self.check(inp, self.run(inp))


class BuildSweep(Workload):
    """One fresh ``build`` plus ``dumps`` per op on a seeded, never repeated input.

    Ops rotate gamma2, punctured_torus, punctured_torus, so the median op is
    a punctured-torus build and the tail op a gamma2 build (three punctures,
    three spear searches).  The cocycle is drawn per op: a random coboundary
    (cohomology class zero), ``deformed(s)``, or a random unit combination of
    ``tangent_cocycle_basis`` at the same scale, with s log-uniform in
    [0.1, 100].  Every input has fresh random translations, so no input
    repeats and a result cache cannot win.
    """

    name = "build_sweep"
    replay_samples = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.examples = representations.builtin_examples()
        self.bases = {k: representations.tangent_cocycle_basis(e.representation)
                      for k, e in self.examples.items()}
        self.settings = builder.BuildSettings()
        for name in EXAMPLES:  # warm-up, one build per example
            ex = self.examples[name]
            builder.build(ex.representation, ex.triangulation, self.settings).dumps()

    def inputs(self):
        rng = np.random.default_rng([self.seed, 1])
        k = 0
        while True:
            name = EXAMPLES[0 if k % 3 == 0 else 1]
            kind = ("coboundary", "deformed", "basis")[int(rng.integers(3))]
            scale = float(np.exp(rng.uniform(math.log(0.1), math.log(100.0))))
            v = rng.normal(size=3)
            coef = rng.normal(size=8)
            ex = self.examples[name]
            rep0 = ex.representation
            if kind == "coboundary":
                v *= 0.25 * scale / np.linalg.norm(v)
                rep = rep0.with_translations(
                    {g: v - lin.matrix @ v for g, lin in rep0.linear.items()})
            elif kind == "deformed":
                rep = ex.deformed(scale)
            else:
                basis = self.bases[name]
                c = coef[: len(basis)] / np.linalg.norm(coef[: len(basis)])
                assign = {g: 0.25 * scale * sum(ci * b[g] for ci, b in zip(c, basis))
                          for g in basis[0]}
                rep = rep0.with_translations(
                    representations.cocycle_from_tangent_vector(rep0, assign))
            yield (name, kind, scale), (rep, ex.triangulation)
            k += 1

    def run(self, inp):
        rep, tri = inp
        st = builder.build(rep, tri, self.settings)
        return st, st.dumps()

    def check(self, inp, out) -> str:
        st, text = out
        cert = st.certification
        if not (cert.min_jacobian_det > cert.margin and cert.min_gram_eigenvalue > cert.margin):
            raise OutputError(f"certificate misses its margin: {cert}")
        if not cert.equivariance_residual <= self.settings.equiv_tol:
            raise OutputError(f"equivariance residual {cert.equivariance_residual}")
        punctures = set(st.representation.presentation.peripheral_names)
        if set(st.spears) != punctures:
            raise OutputError(f"spears {sorted(st.spears)} for punctures {sorted(punctures)}")
        return _digest(text.encode())


class CauchyTrace(Workload):
    """One seeded ``cauchy_time_report`` per op on the next reference spacetime.

    The four references (both examples, zero cocycle and ``deformed(1.0)``)
    are built during set-up, so ops exercise the causal tracer only.
    """

    name = "cauchy_trace"
    replay_samples = 2
    n_curves = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        examples = representations.builtin_examples()
        self.refs = []
        for name in EXAMPLES:
            ex = examples[name]
            for rep in (ex.representation, ex.deformed(1.0)):
                self.refs.append(builder.build(rep, ex.triangulation, builder.BuildSettings()))
        for st in self.refs:  # warm-up
            causality.cauchy_time_report(st, n_curves=1, seed=0)

    def inputs(self):
        rng = np.random.default_rng([self.seed, 2])
        k = self.seed % len(self.refs)
        while True:
            ref = k % len(self.refs)
            seed = int(rng.integers(2**32))
            yield (ref, seed), (self.refs[ref], seed)
            k += 1

    def run(self, inp):
        st, seed = inp
        return causality.cauchy_time_report(st, n_curves=self.n_curves, seed=seed)

    def check(self, inp, report) -> str:
        if not (report["pass"] and report["failures"] == 0):
            raise OutputError(f"cauchy report failed: {report['failures']} failures")
        if len(report["curves"]) != self.n_curves:
            raise OutputError(f"{len(report['curves'])} curves, asked for {self.n_curves}")
        return _digest(canonical_dumps(report).encode())


class Demo(Workload):
    """``btzgeo demo NAME --out DIR`` in-process with the default config.

    Ops alternate gamma2 and punctured_torus and run in pairs, so every run
    times both examples equally often.  Each op writes into a freshly created
    directory at one fixed path, which keeps the paths embedded in the
    reports, and hence the artifact bytes, equal across ops of one example.
    """

    name = "demo"
    group = 2
    artifacts = (
        "rep.json", "tri.json", "validate-report.json", "bundle.json",
        "build-report.json", "profile.json", "surgery-complete.json",
        "surgery-compact.json", "causal-report.json", "mesh-report.json",
        "leaves.obj",
    )
    passing_reports = ("surgery-complete.json", "surgery-compact.json", "causal-report.json")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "demo-out"
        self.warm_config = workdir / "warm-up.cfg"
        self.first_digest: dict[str, str] = {}

    def prepare(self, name) -> None:
        if self.out.exists():
            shutil.rmtree(self.out)

    def run(self, name, *extra: str) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(["demo", name, "--out", str(self.out), *extra])
        return code, buf.getvalue()

    def setup(self) -> None:
        # Warm-up: the whole pipeline on one example at a small curve count.
        self.warm_config.parent.mkdir(parents=True, exist_ok=True)
        self.warm_config.write_text("n_curves=1\nsurgery_samples=1000\n")
        name = EXAMPLES[self.seed % 2]
        self.prepare(name)
        code, text = self.run(name, "--config", str(self.warm_config))
        if code != 0:
            raise OutputError(f"warm-up demo exited {code}: {text}")

    def inputs(self):
        k = self.seed % 2
        while True:
            yield EXAMPLES[k % 2], EXAMPLES[k % 2]
            k += 1

    def check(self, name, out) -> str:
        code, text = out
        if code != 0:
            raise OutputError(f"demo {name} exited {code}: {text[-500:]}")
        chunks = []
        for art in self.artifacts:
            path = self.out / art
            if not path.is_file():
                raise OutputError(f"demo {name} did not write {art}")
            chunks.append(path.read_bytes())
        for art in self.passing_reports:
            if json.loads((self.out / art).read_text()).get("pass") is not True:
                raise OutputError(f"demo {name}: {art} does not pass")
        if not json.loads((self.out / "validate-report.json").read_text())["report"]["verdict"]:
            raise OutputError(f"demo {name}: representation not admissible")
        digest = _digest(*chunks)
        # Default config, fixed paths: every op of one example writes the same bytes.
        first = self.first_digest.setdefault(name, digest)
        if digest != first:
            raise OutputError(f"demo {name} artifacts differ between ops")
        return digest


WORKLOADS = {w.name: w for w in (BuildSweep, CauchyTrace, Demo)}
