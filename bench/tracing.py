"""Spans and work counts around the public functions of each btzgeo module.

The wrappers live here, not in the library: ``Tracer.installed()`` replaces
each function named in ``TRACED`` by a timing wrapper in every btzgeo module
namespace that holds it (so ``dev_hat_jacobians`` is also wrapped where
``causality`` imported it by name) and restores the originals on exit.

Each span records (name, start, end, parent span, op id) in memory.  A span's
self time is its duration minus the time its child spans cover.  Work counts
are read from the values the wrapped functions return, never from inside
the library.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import time
from array import array
from collections import Counter, defaultdict

# Layer (btzgeo module) -> public functions and methods whose calls are spans.
TRACED = {
    "representations": [
        "check_admissible",
        "AffineRepresentation.evaluate",
        "AffineRepresentation.from_json",
        "IdealTriangulationData.from_json",
    ],
    "builder": [
        "build",
        "choose_kappa",
        "verify_face_equivariance",
        "puncture_geometry",
        "find_spear",
        "dev_hat_jacobians",
        "mesh_data",
        "export_mesh",
        "PolyhedralSpacetime.dumps",
        "PolyhedralSpacetime.from_json",
    ],
    "models": ["dev0_array"],
    "minkowski": ["quadratic_form", "minkowski_inner"],
    "causality": [
        "cauchy_time_report",
        "trace_causal_curve",
        "segment_is_causal",
        "cross_face",
    ],
    "surgery": [
        "extend_complete",
        "extend_compact",
        "delta",
        "induced_metric",
        "completeness_certificate",
    ],
    "serialize": ["canonical_dumps", "read_json"],
    "cli": ["main"],
}
LAYERS = tuple(TRACED)
OP_SPAN = "bench.op"


def _choose_kappa(counts, args, result):
    counts["builder.kappa_doublings"] += result.doublings
    counts["builder.cert_samples"] += result.samples


def _find_spear(counts, args, result):
    # The search starts at radius kappa / ell and halves until certified.
    kappa = args[0].kappa
    counts["builder.spear_halvings"] += round(math.log2(kappa / result.ell / result.radius))
    counts["builder.spear_samples_final"] += result.samples


def _dev_hat_jacobians(counts, args, result):
    counts["builder.dev_hat_jacobians.points"] += len(result)


def _segment_is_causal(counts, args, result):
    counts["causality.segments_accepted"] += bool(result)


def _trace_causal_curve(counts, args, result):
    counts["causality.curves"] += 1
    counts["causality.nodes"] += len(result.nodes)
    counts["causality.rejected_proposals"] += result.rejected_proposals


def _canonical_dumps(counts, args, result):
    counts["serialize.canonical_dumps.bytes"] += len(result.encode())


def _read_json(counts, args, result):
    counts["serialize.read_json.bytes"] += os.path.getsize(args[0])


AFTER = {
    "builder.choose_kappa": _choose_kappa,
    "builder.find_spear": _find_spear,
    "builder.dev_hat_jacobians": _dev_hat_jacobians,
    "causality.segment_is_causal": _segment_is_causal,
    "causality.trace_causal_curve": _trace_causal_curve,
    "serialize.canonical_dumps": _canonical_dumps,
    "serialize.read_json": _read_json,
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.op = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _open(self, name: str) -> list:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        frame = [len(self.span_start), 0.0]
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(math.nan)
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        idx, covered = frame
        self.span_end[idx] = end
        self._stack.pop()
        dur = end - self.span_start[idx]
        self.self_s[name] += dur - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur

    @contextlib.contextmanager
    def op_span(self, op: int):
        """Root span of one benchmark op; the layer ``bench`` gets its self time."""
        self.op = op
        frame = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(OP_SPAN, frame)
            self.op = -1

    def wrap(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in TRACED for the duration of the block."""
        package = importlib.import_module("btzgeo")
        modules = [package] + [importlib.import_module(f"btzgeo.{m}") for m in LAYERS]
        undo = []
        try:
            for layer, names in TRACED.items():
                mod = importlib.import_module(f"btzgeo.{layer}")
                for qual in names:
                    name = f"{layer}.{qual}"
                    if "." in qual:
                        cls_name, meth = qual.split(".")
                        cls = getattr(mod, cls_name)
                        raw = cls.__dict__[meth]
                        if isinstance(raw, classmethod):
                            new = classmethod(self.wrap(name, raw.__func__))
                        else:
                            new = self.wrap(name, raw)
                        setattr(cls, meth, new)
                        undo.append((cls, meth, raw))
                        continue
                    fn = getattr(mod, qual)
                    new = self.wrap(name, fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, attr, new)
                                undo.append((m, attr, fn))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def per_op_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged over ``ops`` traced ops: name -> (value, unit)."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def n(name):
            return calls[name] / ops

        def ms(name):
            return 1e3 * self_s[name] / ops

        out: dict[str, tuple[float, str]] = {}
        for layer, names in TRACED.items():
            for qual in names:
                name = f"{layer}.{qual}"
                out[f"{name}.calls"] = (n(name), "count/op")
                out[f"{name}.self_ms"] = (ms(name), "ms/op")
        for key in (
            "builder.kappa_doublings", "builder.cert_samples",
            "builder.spear_halvings", "builder.spear_samples_final",
            "builder.dev_hat_jacobians.points", "causality.curves",
            "causality.nodes", "causality.rejected_proposals",
            "serialize.canonical_dumps.bytes", "serialize.read_json.bytes",
        ):
            out[key] = (counts[key] / ops, "count/op")
        seg = calls["causality.segment_is_causal"]
        out["causality.segment_accept_ratio"] = (
            counts["causality.segments_accepted"] / seg if seg else 0.0, "ratio")
        layer_ms = defaultdict(float)
        for name, s in self_s.items():
            layer_ms[name.split(".")[0]] += 1e3 * s / ops
        for layer in LAYERS + ("bench",):
            out[f"layer.{layer}.self_ms"] = (layer_ms[layer], "ms/op")
        return out

    def inclusive_share(self) -> dict[str, float]:
        """Per layer, the share of op time spent inside its outermost spans."""
        bit = {layer: 1 << i for i, layer in enumerate(LAYERS + ("bench",))}
        span_bit = [bit[name.split(".")[0]] for name in self.names]
        inside = array("q")  # per span: bits of the layers among its ancestors
        total = defaultdict(float)
        for i, (nid, parent) in enumerate(zip(self.span_name, self.span_parent)):
            above = 0 if parent < 0 else inside[parent] | span_bit[self.span_name[parent]]
            inside.append(above)
            if not above & span_bit[nid]:
                total[self.names[nid].split(".")[0]] += self.span_end[i] - self.span_start[i]
        ops_s = total.pop("bench", 0.0)
        return {layer: total[layer] / ops_s if ops_s else 0.0 for layer in LAYERS}

    def save(self, path) -> None:
        """Write every span as numpy arrays (names index the ``names`` table)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
