"""Causal curve tracing and time-function evidence on built spacetimes.

Points are either chart points (simplex index, time coordinate t, barycentric
alpha) or fiber points (puncture name, t) on a singular line.  A fiber point
develops to line_point + (kappa + t) * line_direction, which matches the
plateau limit of the charts, so t extends continuously to the fibers.

Curves are polylines of such points; a segment inside one chart is accepted
as future causal when the developed tangent J . (dt, da, db) is future causal
at sampled points along it.  Chart changes happen on shared faces and insert
a transition node: same manifold point, new coordinates, t unchanged.

The tracer deliberately proposes steps with all signs of dt; on a certified
build only dt > 0 proposals can be causal (t is a time function), so the
monotonicity check in the report is a real assertion, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import (
    PolyhedralSpacetime,
    dev_hat_jacobians,
    dev_hat_points,
    minkowski_to_model,
)
from .minkowski import GeometryError, quadratic_form
from .models import NotInImage


class StuckAtSingularity(GeometryError):
    """Requested motion from a singular fiber that no causal curve realizes."""


class DecompositionViolation(GeometryError):
    """A causal curve re-entered a singular fiber after leaving it."""


class AbsentFiber(GeometryError):
    """A fiber point on an unknown puncture or on a fiber marked absent."""


@dataclass(frozen=True)
class ChartPoint:
    simplex: int
    t: float
    alpha: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=float)
        if a.shape != (3,) or abs(float(a.sum()) - 1.0) > 1e-9 or np.any(a < -1e-12):
            raise ValueError(f"bad barycentric point {self.alpha}")
        if self.t <= 0:
            raise ValueError("chart t must be positive")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    def to_json(self) -> dict:
        return {
            "kind": "chart",
            "simplex": self.simplex,
            "t": self.t,
            "alpha": [float(x) for x in self.alpha],
        }


@dataclass(frozen=True)
class FiberPoint:
    puncture: str
    t: float

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("fiber t must be positive")

    def to_json(self) -> dict:
        return {"kind": "fiber", "puncture": self.puncture, "t": self.t}


def point_from_json(d):
    if d["kind"] == "chart":
        return ChartPoint(int(d["simplex"]), float(d["t"]), np.array(d["alpha"]))
    if d["kind"] == "fiber":
        return FiberPoint(d["puncture"], float(d["t"]))
    raise ValueError(f"unknown point kind {d['kind']!r}")


@dataclass(frozen=True)
class CurveNode:
    point: ChartPoint | FiberPoint
    transition: bool = False  # same manifold point as the previous node

    def to_json(self) -> dict:
        return {"point": self.point.to_json(), "transition": self.transition}


def _present_fiber(st: PolyhedralSpacetime, point: FiberPoint):
    """The singular fiber under ``point``; AbsentFiber unless it is present."""
    fib = st.fibers.get(point.puncture)
    if fib is None or not fib.present:
        raise AbsentFiber(f"no present fiber at puncture {point.puncture!r}")
    return fib


def develop(st: PolyhedralSpacetime, point) -> np.ndarray:
    """Developed position of a point in the fundamental frames."""
    if isinstance(point, FiberPoint):
        fib = _present_fiber(st, point)
        return fib.line_point + (st.kappa + point.t) * fib.line_direction
    sx = st.simplices[point.simplex]
    return dev_hat_points(
        sx, np.array([point.t]), point.alpha[None, :], st.kappa, st.blend
    )[0]


@dataclass
class CausalPolyline:
    """Traced causal curve: nodes plus the data needed to replay the trace."""

    nodes: list[CurveNode]
    seed: int | None = None
    steering: str | None = None
    rejected_proposals: int = 0

    @property
    def points(self):
        return [n.point for n in self.nodes]

    def t_values(self) -> list[float]:
        return [n.point.t for n in self.nodes]

    def leaf_crossings(self, leaf: float) -> int:
        f = [t - leaf for t in self.t_values()]
        return sum(1 for a, b in zip(f, f[1:]) if a * b < 0)

    def strictly_increasing_t(self) -> bool:
        for prev, node in zip(self.nodes, self.nodes[1:]):
            if node.transition:
                if node.point.t != prev.point.t:
                    return False
            elif node.point.t <= prev.point.t:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "nodes": [n.to_json() for n in self.nodes],
            "seed": self.seed,
            "steering": self.steering,
            "rejected_proposals": self.rejected_proposals,
        }


def segment_is_causal(
    st: PolyhedralSpacetime,
    simplex: int,
    start: tuple[float, np.ndarray],
    end: tuple[float, np.ndarray],
    band: float = 1e-9,
    margin: float = 0.0,
    samples: int = 3,
) -> bool:
    """Future-causal test for a straight chart segment at sampled tangents."""
    sx = st.simplices[simplex]
    t0, a0 = start
    t1, a1 = end
    step = np.array([t1 - t0, a1[1] - a0[1], a1[2] - a0[2]])
    if not np.any(step):
        return False
    s = np.linspace(0.0, 1.0, samples)
    ts = t0 + s * (t1 - t0)
    alphas = a0[None, :] + s[:, None] * (a1 - a0)[None, :]
    if np.any(ts <= 0):
        return False
    jac = dev_hat_jacobians(st.simplices[simplex], ts, alphas, st.kappa, st.blend)
    v = jac @ step
    q = quadratic_form(v)
    scale = np.sum(v * v, axis=-1)
    future = v[:, 0] > 0
    causal = q <= band * np.maximum(scale, 1.0) - margin * v[:, 0] ** 2
    return bool(np.all(future & causal))


def _facet_clip(alpha0: np.ndarray, alpha1: np.ndarray) -> tuple[float, int] | None:
    """First boundary hit of the straight barycentric path, or None if interior."""
    d = alpha1 - alpha0
    s_min, facet = 1.0, -1
    for i in range(3):
        if d[i] < 0 and alpha1[i] < 0:
            s = alpha0[i] / -d[i]
            if s < s_min:
                s_min, facet = s, i
    if facet < 0:
        return None
    return s_min, facet


def cross_face(
    st: PolyhedralSpacetime, point: ChartPoint, facet: int, tol: float = 1e-8
) -> ChartPoint:
    """Re-express a face point in the neighboring chart across facet ``facet``.

    The facet is the zero-weight slot; the shared edge is the other two
    vertices.  The developed positions must agree through the gluing word.
    """
    tri = st.triangulation
    sx = st.simplices[point.simplex]
    edge_names = [v for i, v in enumerate(sx.vertices) if i != facet]
    g, is_left = tri.gluing_at(point.simplex, frozenset(edge_names))
    if is_left:
        pair_from, (other_tri, pair_to) = g.left[1], g.right
        word = g.word
        forward = True
    else:
        pair_from, (other_tri, pair_to) = g.right[1], g.left
        word = g.word
        forward = False
    mapped = dict(zip(pair_from, pair_to))
    other_sx = st.simplices[other_tri]
    alpha_new = np.zeros(3)
    for name in edge_names:
        w = float(point.alpha[sx.vertices.index(name)])
        alpha_new[other_sx.vertices.index(mapped[name])] = w
    new_point = ChartPoint(other_tri, point.t, alpha_new)
    iso = st.representation.evaluate(word)
    x_left, x_right = (
        (develop(st, point), develop(st, new_point))
        if forward
        else (develop(st, new_point), develop(st, point))
    )
    err = float(np.abs(x_left - (iso.linear.matrix @ x_right + iso.translation)).max())
    if err > tol * max(1.0, float(np.abs(x_left).max())):
        raise GeometryError(
            f"face transition mismatch {err:.3e} between charts "
            f"{point.simplex} and {other_tri}"
        )
    return new_point


def _normalized_tau(st: PolyhedralSpacetime, puncture: str, point) -> tuple[float, float]:
    """(tau', r'/2) of a point in the normalized model around one fiber."""
    pg = st.fans.get(puncture)
    if pg is None:
        from .builder import puncture_geometry

        pg = puncture_geometry(st, puncture)
    if isinstance(point, FiberPoint):
        return (st.kappa + point.t) / pg.ell, 0.0
    tau, r, _ = minkowski_to_model(pg, develop(st, point))
    return tau, 0.5 * r


def fiber_hop_is_causal(
    st: PolyhedralSpacetime, fiber_pt: FiberPoint, chart_pt: ChartPoint,
    band: float = 1e-9,
) -> bool:
    """Singular causal test: the chart point must lie in J+ of the fiber point."""
    _present_fiber(st, fiber_pt)
    tau_f, _ = _normalized_tau(st, fiber_pt.puncture, fiber_pt)
    try:
        tau_x, half_r = _normalized_tau(st, fiber_pt.puncture, chart_pt)
    except NotInImage:
        return False
    return tau_x - half_r >= tau_f - band


def trace_causal_curve(
    st: PolyhedralSpacetime,
    start,
    t_stop: float,
    steering: str = "random",
    seed: int = 0,
    max_steps: int = 600,
    t_step: float | None = None,
    alpha_step: float = 0.4,
    cone_margin: float = 1e-6,
    band: float = 1e-9,
) -> CausalPolyline:
    """Trace a future causal polyline from ``start`` until t reaches t_stop.

    Steering policies: ``vertical`` follows the chart fibration upward;
    ``random`` tries causal steps with random transverse motion and all signs
    of dt, falling back to vertical when rejected; ``axis`` stays on a
    singular fiber; ``leave_axis`` starts on a fiber and hops into the
    adjacent chart fan as soon as a causal hop is found.

    ``alpha_step`` is the transverse slope: proposals move the barycentric
    point by at most alpha_step * dt per component, matching the linear
    opening of the causal cone in chart coordinates.
    """
    if steering not in ("vertical", "random", "axis", "leave_axis"):
        raise ValueError(f"unknown steering {steering!r}")
    rng = np.random.default_rng(seed)
    nodes = [CurveNode(start)]
    rejected = 0

    if isinstance(start, FiberPoint):
        _present_fiber(st, start)
        if steering == "axis":
            if t_stop <= start.t:
                raise StuckAtSingularity(
                    "singular fibers only move toward larger t"
                )
            nodes.append(CurveNode(FiberPoint(start.puncture, t_stop)))
            return CausalPolyline(nodes, seed=seed, steering=steering)
        if steering != "leave_axis":
            raise StuckAtSingularity(
                f"steering {steering!r} cannot move a fiber point; "
                "use 'axis' or 'leave_axis'"
            )
        pg = st.fans[start.puncture]
        entry = pg.fan[0]
        sx = st.simplices[entry.triangle]
        base_slot = sx.vertices.index(pg.base_vertex)
        alpha = np.full(3, 0.1)
        alpha[base_slot] = 0.8
        hop = None
        gap = t_stop - start.t
        for frac in (0.05, 0.1, 0.2, 0.4, 0.8):
            candidate = ChartPoint(entry.triangle, start.t + frac * gap, alpha)
            if fiber_hop_is_causal(st, start, candidate, band=band):
                hop = candidate
                break
            rejected += 1
        if hop is None:
            raise StuckAtSingularity(
                f"no causal hop off the fiber {start.puncture} below t_stop"
            )
        nodes.append(CurveNode(hop))
        steering_rest = "random"
        cur = hop
    elif isinstance(start, ChartPoint):
        if steering in ("axis", "leave_axis"):
            raise StuckAtSingularity(f"steering {steering!r} needs a fiber start")
        steering_rest = steering
        cur = start
    else:
        raise TypeError(f"unsupported start point {start!r}")

    if t_step is None:
        t_step = max((t_stop - cur.t) / 50.0, 1e-3)

    steps = 0
    # persistent transverse drift so traces genuinely wander across charts
    bias = rng.uniform(-1.0, 1.0, size=2)
    bias /= max(float(np.hypot(*bias)), 1e-12)
    # adaptive transverse scale: the causal cone width in barycentric units
    # varies a lot across the simplex, so learn it from accept/reject feedback
    scale = alpha_step
    def _try(dt, da):
        alpha1 = cur.alpha + np.array([-da[0] - da[1], da[0], da[1]])
        t1 = cur.t + dt
        if t1 <= 0:
            return None
        clip = _facet_clip(cur.alpha, alpha1)
        crossing = None
        if clip is not None:
            s, facet = clip
            if s < 1e-6:
                return None
            alpha1 = cur.alpha + s * (alpha1 - cur.alpha)
            alpha1[facet] = 0.0
            t1 = cur.t + s * dt
            if t1 <= 0:
                return None
            # reject if the clipped point is too close to a corner
            if sorted(alpha1)[1] < 1e-6:
                return None
            crossing = facet
        if not segment_is_causal(
            st, cur.simplex, (cur.t, cur.alpha), (t1, alpha1),
            band=band, margin=cone_margin,
        ):
            return None
        return t1, alpha1, crossing

    while cur.t < t_stop and steps < max_steps:
        steps += 1
        accepted = None
        if steering_rest == "random":
            for k in range(8):
                if k % 4 == 3:
                    # flat probe: transverse motion not tied to dt, so broken
                    # (non-spacelike) leaves are actually detectable
                    dt = float(rng.uniform(-0.25, 0.25)) * t_step
                    da = rng.uniform(-1.0, 1.0, size=2) * alpha_step * t_step
                    accepted = _try(dt, da)
                else:
                    dt = float(rng.uniform(-0.25, 1.0)) * t_step
                    da = (0.7 * bias + 0.5 * rng.uniform(-1.0, 1.0, size=2)) * scale * max(dt, 0.0)
                    accepted = _try(dt, da)
                    if accepted is None:
                        scale = max(scale * 0.85, 0.02)
                    else:
                        scale = min(scale * 1.25, 3.0 * alpha_step)
                if accepted is not None:
                    break
                rejected += 1
        if accepted is None:
            accepted = (cur.t + t_step, cur.alpha, None)
        t1, alpha1, crossing = accepted
        nxt = ChartPoint(cur.simplex, t1, alpha1)
        nodes.append(CurveNode(nxt))
        if crossing is not None:
            nxt = cross_face(st, nxt, crossing)
            nodes.append(CurveNode(nxt, transition=True))
        cur = nxt
    if cur.t < t_stop:
        raise GeometryError(f"tracer exhausted {max_steps} steps below t_stop")
    return CausalPolyline(nodes, seed=seed, steering=steering, rejected_proposals=rejected)


def validate_polyline(st: PolyhedralSpacetime, curve: CausalPolyline,
                      band: float = 1e-9) -> list[int]:
    """Indices of curve segments that fail the causal test (empty = valid)."""
    bad = []
    for i, (a, b) in enumerate(zip(curve.nodes, curve.nodes[1:])):
        if b.transition:
            continue
        pa, pb = a.point, b.point
        if isinstance(pa, FiberPoint) and isinstance(pb, FiberPoint):
            if pa.puncture != pb.puncture or pb.t <= pa.t:
                bad.append(i)
        elif isinstance(pa, FiberPoint):
            if not fiber_hop_is_causal(st, pa, pb, band=band):
                bad.append(i)
        elif isinstance(pb, FiberPoint):
            bad.append(i)  # chart points never causally precede fiber points
        else:
            if pa.simplex != pb.simplex or not segment_is_causal(
                st, pa.simplex, (pa.t, pa.alpha), (pb.t, pb.alpha), band=band
            ):
                bad.append(i)
    return bad


def btz_decomposition(
    st: PolyhedralSpacetime, curve: CausalPolyline
) -> tuple[list[CurveNode], list[CurveNode]]:
    """Split a causal curve into its singular prefix and regular suffix.

    Singular points have empty chronological past, so they can only appear as
    an initial segment; any later return raises DecompositionViolation.
    """
    prefix: list[CurveNode] = []
    suffix: list[CurveNode] = []
    for node in curve.nodes:
        if isinstance(node.point, FiberPoint):
            if suffix:
                raise DecompositionViolation(
                    "curve re-entered a singular fiber after regular points"
                )
            prefix.append(node)
        else:
            suffix.append(node)
    return prefix, suffix


def cauchy_time_report(
    st: PolyhedralSpacetime,
    n_curves: int = 100,
    seed: int = 0,
    t_start: float = 0.2,
    t_stop: float = 4.0,
    leaves: tuple[float, ...] = (0.5, 1.0, 2.0),
) -> dict:
    """Trace random causal curves and check t is a time function with Cauchy leaves.

    Each curve must have strictly increasing t, no decomposition violation,
    and cross each sampled leaf in (t_start, t_stop) exactly once.
    """
    rng = np.random.default_rng(seed)
    inner = [leaf for leaf in leaves if t_start < leaf < t_stop]
    curves = []
    failures = 0
    for k in range(n_curves):
        simplex = int(rng.integers(len(st.simplices)))
        alpha = 0.7 * rng.dirichlet(np.ones(3)) + 0.3 / 3.0
        start = ChartPoint(simplex, t_start, alpha)
        curve = trace_causal_curve(
            st, start, t_stop=t_stop, steering="random", seed=int(rng.integers(2**32))
        )
        monotone = curve.strictly_increasing_t()
        crossings = {repr(leaf): curve.leaf_crossings(leaf) for leaf in inner}
        try:
            btz_decomposition(st, curve)
            decomposition_ok = True
        except DecompositionViolation:
            decomposition_ok = False
        ok = monotone and decomposition_ok and all(c == 1 for c in crossings.values())
        failures += 0 if ok else 1
        curves.append(
            {
                "index": k,
                "nodes": len(curve.nodes),
                "rejected_proposals": curve.rejected_proposals,
                "monotone_t": monotone,
                "leaf_crossings": crossings,
                "decomposition_ok": decomposition_ok,
                "pass": ok,
            }
        )
    return {
        "kind": "cauchy-time-report",
        "seed": seed,
        "n_curves": n_curves,
        "t_start": t_start,
        "t_stop": t_stop,
        "leaves": list(leaves),
        "failures": failures,
        "pass": failures == 0,
        "curves": curves,
    }


@dataclass(frozen=True)
class DiamondSample:
    """Rejection-sampled points of a causal diamond J+(p) intersect J-(q).

    Heuristic evidence, not a decision procedure: chart points are compared in
    the fundamental developed frames only, so deck translates of the diamond
    are not explored.  Fiber endpoints use the exact singular criteria.
    """

    p: dict
    q: dict
    kept: list
    tried: int
    seed: int
    note: str

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "kept": [pt.to_json() for pt in self.kept],
            "tried": self.tried,
            "seed": self.seed,
            "note": self.note,
        }


def diamond_sample(
    st: PolyhedralSpacetime, p, q, budget: int = 512, seed: int = 0
) -> DiamondSample:
    from .minkowski import CausalOrder, causal_relation

    for x in (p, q):
        if isinstance(x, FiberPoint):
            _present_fiber(st, x)
    rng = np.random.default_rng(seed)
    kept = []
    note = "fundamental-frame heuristic; deck translates not explored"
    if isinstance(p, FiberPoint) and isinstance(q, FiberPoint):
        if p.puncture == q.puncture and q.t > p.t:
            ts = np.sort(rng.uniform(p.t, q.t, size=min(budget, 64)))
            kept = [FiberPoint(p.puncture, float(t)) for t in ts]
            note = "axis segment: the diamond of two fiber points is the fiber arc"
        return DiamondSample(p.to_json(), q.to_json(), kept, budget, seed, note)
    if isinstance(q, FiberPoint):
        note = "J-(fiber point) contains no chart points; empty sample"
        return DiamondSample(p.to_json(), q.to_json(), kept, budget, seed, note)

    x_q = develop(st, q)
    if q.t <= p.t:
        return DiamondSample(p.to_json(), q.to_json(), [], budget, seed,
                             "empty: q is not above p in time")
    for _ in range(budget):
        t = float(rng.uniform(p.t, q.t))
        alpha = rng.dirichlet(np.ones(3))
        x = ChartPoint(q.simplex, t, alpha)
        dev_x = develop(st, x)
        if isinstance(p, FiberPoint):
            above = fiber_hop_is_causal(st, p, x)
        else:
            rel = causal_relation(develop(st, p), dev_x)
            above = rel in (CausalOrder.CHRONOLOGICAL, CausalOrder.CAUSAL_ONLY)
        if not above:
            continue
        rel = causal_relation(dev_x, x_q)
        if rel in (CausalOrder.CHRONOLOGICAL, CausalOrder.CAUSAL_ONLY):
            kept.append(x)
    return DiamondSample(p.to_json(), q.to_json(), kept, budget, seed, note)
