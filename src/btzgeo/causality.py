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

Curves are traced in lockstep: each step evaluates the 8 proposals of every
live curve at once, with one Jacobian call per simplex, and face crossings
stay scalar.  Each curve still reads its own random stream in the order a
one-curve trace reads it (3 doubles per proposal, proposals in order until
the first accepted one), so a curve traced in a batch equals the same curve
traced alone, node for node.
"""

from __future__ import annotations

import math
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
        w = a.tolist()
        if (a.shape != (3,) or not all(map(math.isfinite, w))
                or abs(w[0] + w[1] + w[2] - 1.0) > 1e-9 or min(w) < -1e-12):
            raise ValueError(f"bad barycentric point {self.alpha}")
        if not (math.isfinite(self.t) and self.t > 0):
            raise ValueError("chart t must be finite and positive")
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
        if not (math.isfinite(self.t) and self.t > 0):
            raise ValueError("fiber t must be finite and positive")

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


def _segments_are_causal(
    st: PolyhedralSpacetime, simplex: np.ndarray, t0: np.ndarray, a0: np.ndarray,
    t1: np.ndarray, a1: np.ndarray, band: float = 1e-9, margin: float = 0.0,
    samples: int = 3,
) -> np.ndarray:
    """Future-causal test for straight chart segments at sampled tangents.

    Segment i runs from (t0[i], a0[i]) to (t1[i], a1[i]) in chart simplex[i];
    t arrays are (m,), barycentric arrays (m, 3).  One Jacobian call per
    distinct simplex; returns a bool array (m,).
    """
    step = np.stack([t1 - t0, a1[:, 1] - a0[:, 1], a1[:, 2] - a0[:, 2]], axis=-1)
    s = np.linspace(0.0, 1.0, samples)
    ts = t0[:, None] + s * (t1 - t0)[:, None]
    alphas = a0[:, None, :] + s[:, None] * (a1 - a0)[:, None, :]
    out = np.any(step, axis=1) & ~np.any(ts <= 0, axis=1)
    for k in np.flatnonzero(np.bincount(simplex[out])):
        m = out & (simplex == k)
        jac = dev_hat_jacobians(
            st.simplices[k], ts[m].ravel(), alphas[m].reshape(-1, 3), st.kappa, st.blend
        )
        v = (jac.reshape(-1, samples, 3, 3) @ step[m][:, None, :, None])[..., 0]
        q = quadratic_form(v)
        scale = np.sum(v * v, axis=-1)
        future = v[..., 0] > 0
        causal = q <= band * np.maximum(scale, 1.0) - margin * v[..., 0] ** 2
        out[m] = np.all(future & causal, axis=1)
    return out


def segment_is_causal(
    st: PolyhedralSpacetime,
    simplex: int,
    start: tuple[float, np.ndarray],
    end: tuple[float, np.ndarray],
    band: float = 1e-9,
    margin: float = 0.0,
    samples: int = 3,
) -> bool:
    """Future-causal test for one straight chart segment at sampled tangents."""
    (t0, a0), (t1, a1) = start, end
    return bool(_segments_are_causal(
        st, np.array([simplex]), np.array([t0], dtype=float),
        np.asarray(a0, dtype=float)[None, :], np.array([t1], dtype=float),
        np.asarray(a1, dtype=float)[None, :], band=band, margin=margin, samples=samples,
    )[0])


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


# Proposals 3 and 7 of each step are flat probes: transverse motion not tied
# to dt, so broken (non-spacelike) leaves are actually detectable.
_FLAT = np.array([False, False, False, True] * 2)
# Index into the adaptive-scale history that proposal k reads: how many of
# the non-flat proposals before it were rejected.
_SCALE_SLOT = np.array([0, 1, 2, 3, 3, 4, 5, 6])
_CHUNK = 120  # doubles drawn per refill of one curve's random buffer


def _clip_to_chart(t0, dt, a0, a1):
    """End points of proposed chart steps, cut at the first face they cross.

    A step moves (t0, a0) by dt to barycentric a1, which is clipped in place;
    arrays of any batch shape, barycentric ones with a trailing axis of 3.
    Returns (t1, usable, crossed, facet): the end times, the steps that stay
    usable (t > 0, not stalled on a face, not near a corner), those that end
    on a face, and that face's zero-weight slot, the lowest one on ties.
    """
    d = a1 - a0
    hits = np.divide(a0, -d, out=np.full(d.shape, np.inf), where=(d < 0) & (a1 < 0))
    facet = np.argmin(hits, axis=-1)
    s = hits.min(axis=-1)
    crossed = s < 1.0
    t1 = t0 + dt
    usable = (t1 > 0) & (~crossed | (s >= 1e-6))
    a1[crossed] = a0[crossed] + s[crossed][:, None] * (a1[crossed] - a0[crossed])
    a1[crossed, facet[crossed]] = 0.0
    t1[crossed] = t0[crossed] + s[crossed] * dt[crossed]
    lo, mid, hi = a1[..., 0], a1[..., 1], a1[..., 2]
    median = np.maximum(np.minimum(lo, mid), np.minimum(np.maximum(lo, mid), hi))
    usable &= ~crossed | (median >= 1e-6)
    return t1, usable, crossed, facet


def _trace_lockstep(
    st: PolyhedralSpacetime, starts: list[ChartPoint], seeds: list[int], t_stop: float,
    random: bool = True, max_steps: int = 600, t_step: float | None = None,
    alpha_step: float = 0.4, cone_margin: float = 1e-6, band: float = 1e-9,
):
    """Trace one causal curve per chart start in lockstep; see trace_causal_curve.

    Yields ``(nodes, rejected_proposals)`` per curve in start order, the start
    node itself excluded, and raises a curve's error where that curve comes
    up, so the first error raised is the lowest-index curve's.

    Curve i draws from ``default_rng(seeds[i])``: 2 doubles for its drift,
    then 3 per proposal.  A step evaluates all 8 proposals of every live
    curve, accepts the first causal one and advances the curve's stream past
    the proposals up to it, which is the stream a sequential loop consumes.
    Node rows stay compact until a curve's nodes are yielded.
    """
    n = len(starts)
    simplex = np.array([p.simplex for p in starts])
    t = np.array([float(p.t) for p in starts])
    alpha = np.array([p.alpha for p in starts])
    steps_t = (np.full(n, float(t_step)) if t_step is not None
               else np.maximum((t_stop - t) / 50.0, 1e-3))
    if random:
        rngs = [np.random.default_rng(seed) for seed in seeds]
        buf = np.array([rng.random(_CHUNK) for rng in rngs])
        # persistent transverse drift so traces genuinely wander across charts
        bias = -1.0 + 2.0 * buf[:, :2]
        bias /= np.maximum(np.hypot(bias[:, 0], bias[:, 1]), 1e-12)[:, None]
        cursor = np.full(n, 2)
    # adaptive transverse scale: the causal cone width in barycentric units
    # varies a lot across the simplex, so learn it from accept/reject feedback
    scale = np.full(n, alpha_step)
    rejected = np.zeros(n, dtype=int)
    errors: dict[int, Exception] = {}
    failed = np.zeros(n, dtype=bool)
    # traced nodes in trace order, (curve, simplex, transition) and (t, alpha)
    # per row; room for 128 nodes per curve before the tables grow
    tags = np.empty((128 * n, 3), dtype=np.int32)
    rows = np.empty((128 * n, 4))
    size = 0

    def record(curves, transition):
        nonlocal tags, rows, size
        end = size + curves.size
        if end > len(rows):
            tags = np.concatenate([tags, np.empty_like(tags)])
            rows = np.concatenate([rows, np.empty_like(rows)])
        tags[size:end, 0] = curves
        tags[size:end, 1] = simplex[curves]
        tags[size:end, 2] = transition
        rows[size:end, 0] = t[curves]
        rows[size:end, 1:] = alpha[curves]
        size = end

    live = np.flatnonzero(t < t_stop)
    for _ in range(max_steps):
        if live.size == 0:
            break
        cross_facet = np.full(live.size, -1)
        if not random:
            t[live] += steps_t[live]
        else:
            for i in live[cursor[live] + 24 > _CHUNK]:
                buf[i] = np.concatenate([buf[i, cursor[i]:], rngs[i].random(cursor[i])])
                cursor[i] = 0
            u = buf[live[:, None], cursor[live][:, None] + np.arange(24)]
            u = u.reshape(live.size, 8, 3)
            hist = np.empty((live.size, 7))  # scale after 0..6 rejections
            hist[:, 0] = scale[live]
            for j in range(1, 7):
                hist[:, j] = np.maximum(hist[:, j - 1] * 0.85, 0.02)
            sc = hist[:, _SCALE_SLOT]
            ts = steps_t[live][:, None]
            # uniform(lo, hi) is lo + (hi - lo) * random(), bit for bit
            dt = (-0.25 + np.where(_FLAT, 0.5, 1.25) * u[..., 0]) * ts
            wobble = -1.0 + 2.0 * u[..., 1:]
            da = np.where(
                _FLAT[:, None],
                wobble * alpha_step * ts[..., None],
                (0.7 * bias[live][:, None, :] + 0.5 * wobble) * sc[..., None]
                * np.maximum(dt, 0.0)[..., None],
            )
            t0 = np.broadcast_to(t[live][:, None], dt.shape)
            a0 = np.broadcast_to(alpha[live][:, None, :], dt.shape + (3,))
            a1 = a0 + np.stack([-da[..., 0] - da[..., 1], da[..., 0], da[..., 1]], axis=-1)
            t1, ok, crossed, facet = _clip_to_chart(t0, dt, a0, a1)
            ok[ok] = _segments_are_causal(
                st, np.broadcast_to(simplex[live][:, None], ok.shape)[ok],
                t0[ok], a0[ok], t1[ok], a1[ok], band=band, margin=cone_margin,
            )
            has = ok.any(axis=1)
            k = np.argmax(ok, axis=1)
            lane = np.arange(live.size)
            rejected[live] += np.where(has, k, 8)
            cursor[live] += 3 * np.where(has, k + 1, 8)
            sk = sc[lane, k]
            scale[live] = np.where(
                has, np.where(_FLAT[k], sk, np.minimum(sk * 1.25, 3.0 * alpha_step)), hist[:, 6]
            )
            t[live] = np.where(has, t1[lane, k], t[live] + steps_t[live])
            alpha[live] = np.where(has[:, None], a1[lane, k], alpha[live])
            cross_facet = np.where(has & crossed[lane, k], facet[lane, k], -1)
        record(live, False)
        moved = []
        for i, f in zip(live[cross_facet >= 0], cross_facet[cross_facet >= 0]):
            try:
                nxt = cross_face(st, ChartPoint(int(simplex[i]), float(t[i]), alpha[i]), int(f))
            except (GeometryError, ValueError) as exc:
                errors[int(i)] = exc
                failed[i] = True
                continue
            simplex[i] = nxt.simplex
            alpha[i] = nxt.alpha
            moved.append(i)
        record(np.array(moved, dtype=int), True)
        live = live[(t[live] < t_stop) & ~failed[live]]
    for i in live:
        errors[int(i)] = GeometryError(f"tracer exhausted {max_steps} steps below t_stop")

    tags, rows = tags[:size], rows[:size]
    for i in range(n):
        mine = tags[:, 0] == i
        nodes = [
            CurveNode(ChartPoint(sx, ti, a), transition=bool(tr))
            for (_, sx, tr), ti, a in zip(tags[mine].tolist(), rows[mine, 0].tolist(),
                                          rows[mine, 1:])
        ]
        if i in errors:
            raise errors[i]
        yield nodes, int(rejected[i])


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
    if not math.isfinite(t_stop):
        raise ValueError("t_stop must be finite")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
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

    ((rest, rest_rejected),) = _trace_lockstep(
        st, [cur], [seed], t_stop, random=steering_rest == "random",
        max_steps=max_steps, t_step=t_step, alpha_step=alpha_step,
        cone_margin=cone_margin, band=band,
    )
    return CausalPolyline(nodes + rest, seed=seed, steering=steering,
                          rejected_proposals=rejected + rest_rejected)


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
    and cross each sampled leaf in (t_start, t_stop) exactly once.  Starts
    and curve seeds are drawn up front from ``seed``; the curves are then
    traced in lockstep, each exactly as trace_causal_curve traces it alone.
    """
    if n_curves < 1:
        raise ValueError("n_curves must be >= 1")
    if not all(math.isfinite(x) and x > 0 for x in (t_start, t_stop)):
        raise ValueError("t_start and t_stop must be finite and > 0")
    if t_start >= t_stop:
        raise ValueError("t_start must be < t_stop")
    rng = np.random.default_rng(seed)
    inner = [leaf for leaf in leaves if t_start < leaf < t_stop]
    starts, seeds = [], []
    for _ in range(n_curves):
        simplex = int(rng.integers(len(st.simplices)))
        alpha = 0.7 * rng.dirichlet(np.ones(3)) + 0.3 / 3.0
        starts.append(ChartPoint(simplex, t_start, alpha))
        seeds.append(int(rng.integers(2**32)))
    curves = []
    failures = 0
    traces = _trace_lockstep(st, starts, seeds, t_stop)
    for k, (start, curve_seed, (nodes, rejected)) in enumerate(zip(starts, seeds, traces)):
        curve = CausalPolyline([CurveNode(start)] + nodes, seed=curve_seed,
                               steering="random", rejected_proposals=rejected)
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
