"""Causal curve tracing and time-function evidence on built spacetimes.

Points are either chart points (simplex index, time coordinate t, barycentric
alpha) or fiber points (puncture name, t) on a singular line.  A fiber point
develops to line_point + (kappa + t) * line_direction, which matches the
plateau limit of the charts, so t extends continuously to the fibers.

Curves are polylines of such points; a segment inside one chart is accepted
as future causal when the developed tangent J . (dt, da, db) is future causal
at sampled points along it.  Chart changes happen on shared faces and insert
a transition node: same manifold point, new coordinates, t unchanged.

Every causal test reads the one light-cone band LIGHTLIKE_TOL = 1e-9: v is
future causal when v_t > 0 and Q(v) <= 1e-9 |v|^2; a fiber hop needs the chart
point's tau - r/2 >= the fiber's tau - 1e-9.  Tracer constants: segments are
sampled at their start, midpoint and end; accepted tangents stay _CONE_MARGIN
= 1e-6 inside the cone; a curve steps (t_stop - start t) / _STEPS_PER_SPAN =
50 in t, at least _MIN_T_STEP = 1e-3, moving alpha by at most _ALPHA_STEP =
0.4 times dt per component, and fails after _MAX_STEPS = 600 completed steps
below t_stop, as does a face crossing off by more than 1e-8 (relative).

The tracer deliberately proposes steps with all signs of dt; on a certified
build only dt > 0 proposals can be causal (t is a time function), so the
monotonicity check in the report is a real assertion, not a tautology.

Curves are traced in lockstep over arrays of live-curve state, compressed as
curves finish (_trace_lockstep).  The tracer takes its starts as arrays of
chart indices, times and barycentric points, so a report validates no
ChartPoint per curve, and it stores barycentric and vector data component
first: the live alphas are (3, n), the carried start Jacobians (3, 3, n), and
a pass's proposal draws, clipped ends and developed tangents (3, n, 8), so
each component is a contiguous plane.  A pass clips its proposals to the
chart, cutting only those that cross a face, and screens all 8 proposals of
every live curve with the cone test at the start sample, against the start
Jacobians it carries.  One call of builder's stacked chart kernel, which keeps
its (..., 3) alpha interface, then takes the later samples of each curve's
first untried start-passing proposal and the next starts that its end does
not give.  A curve whose candidate fails stays put and retries from the
next proposal in the next pass, which redraws the same proposals
(_trace_lockstep).  Every decision and carried Jacobian keeps the bits of
testing each proposal in full and evaluating each start afresh.  Each pass
makes one kernel call, and one more evaluates the first starts; every call
reads the per-chart offsets that the spacetime derived on construction.  At 2
curves a pass's cost is almost all the fixed cost of numpy calls on tiny
arrays, so a pass builds its sample tables with direct concatenations, skips
scatters over empty index sets, and logs its nodes one record per pass and
kind: curve, chart, t and alpha arrays and one scalar transition flag.  The
tracer returns all curves' nodes, starts included, as one table sorted by
curve.  A curve that ended on a face moves to the neighbour chart's point
that the pass computed for its kernel call; the face's corner bound proves the
crossing good, and cross_face's developed check decides only where that bound
exceeds 1e-9, which it does on no reference build.  Each curve reads its own
random stream in the order a one-curve trace reads it (3 doubles per
proposal, proposals in order until the first accepted one), so a curve traced
in a batch equals the same curve traced alone, node for node.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .builder import PolyhedralSpacetime, dev_hat_jacobians, dev_hat_points, minkowski_to_model
from .minkowski import LIGHTLIKE_TOL, GeometryError
from .models import NotInImage
from .serialize import _real


class StuckAtSingularity(GeometryError):
    """Requested motion from a singular fiber that no causal curve realizes."""


class DecompositionViolation(GeometryError):
    """A causal curve re-entered a singular fiber after leaving it."""


class AbsentFiber(GeometryError):
    """A fiber point on an unknown puncture or on a fiber marked absent."""


def _index(value, bound: float = math.inf, what: str = "chart simplex"):
    """``value``, an int or an integer array, with every entry in [0, bound), so
    no negative index wraps in a gather; a ValueError names the first entry
    outside, and anything but integers is a TypeError."""
    v = np.asarray(value) if np.ndim(value) else int(operator.index(value))
    if np.ndim(v) and v.dtype.kind not in "iu":
        raise TypeError(f"{what} indices must be integers, got {v.dtype}")
    inside = (v >= 0) & (v < bound)
    if not np.all(inside):
        bad = int(v[~inside][0]) if np.ndim(v) else v
        raise ValueError(f"{what} {bad!r} is outside [0, {bound})")
    return v


@dataclass(frozen=True)
class ChartPoint:
    simplex: int
    t: float
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "simplex", _index(self.simplex))
        a = np.array(self.alpha, dtype=float)
        w = a.tolist()
        if (a.shape != (3,) or not all(map(math.isfinite, w))
                or abs(w[0] + w[1] + w[2] - 1.0) > 1e-9 or min(w) < -1e-12):
            raise ValueError(f"bad barycentric point {self.alpha}")
        t = _real("chart t", self.t)
        if not (math.isfinite(t) and t > 0):
            raise ValueError("chart t must be finite and positive")
        a.setflags(write=False)
        object.__setattr__(self, "t", t)
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
        t = _real("fiber t", self.t)
        if not (math.isfinite(t) and t > 0):
            raise ValueError("fiber t must be finite and positive")
        object.__setattr__(self, "t", t)

    def to_json(self) -> dict:
        return {"kind": "fiber", "puncture": self.puncture, "t": self.t}


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
    simplex = _index(point.simplex, len(st.triangulation.triangles))
    return dev_hat_points(*st.charts, simplex, point.t, point.alpha, st.kappa)


@dataclass
class CausalPolyline:
    """Traced causal curve: nodes plus the data needed to replay the trace."""

    nodes: list[CurveNode]
    seed: int | None = None
    steering: str | None = None
    rejected_proposals: int = 0

    def t_values(self) -> list[float]:
        return [n.point.t for n in self.nodes]

    def _times(self):
        return (np.array(self.t_values()), np.array([n.transition for n in self.nodes], bool),
                np.array([len(self.nodes)]))

    def leaf_crossings(self, leaf: float) -> int:
        return int(_curves_time_checks(*self._times(), [leaf])[1][0, 0])

    def strictly_increasing_t(self) -> bool:
        return bool(_curves_time_checks(*self._times(), [])[0][0])

    def to_json(self) -> dict:
        return {
            "nodes": [n.to_json() for n in self.nodes],
            "seed": self.seed,
            "steering": self.steering,
            "rejected_proposals": self.rejected_proposals,
        }


def _jacobians(st: PolyhedralSpacetime, simplex, t, alpha) -> np.ndarray:
    """dev_hat_jacobians at points alpha (3, ...), component first, returned component
    first too: (3, 3, ...) indexed [component, column], a view of the kernel's output."""
    jac = dev_hat_jacobians(st.charts[0], st.offsets, simplex, t,
                            alpha.transpose(*range(1, alpha.ndim), 0))
    return jac.transpose(-2, -1, *range(jac.ndim - 2))


def _tangents(jac, dt, da) -> np.ndarray:
    """Developed tangents (3, ...) of chart steps dt (...), da = (da_1, da_2) (2, ...),
    from component-first Jacobians jac (3, 3, ...)."""
    return dt * jac[:, 0] + da[0] * jac[:, 1] + da[1] * jac[:, 2]


def _future_causal(v: np.ndarray, margin: float) -> np.ndarray:
    """Future causal within the light-cone band, at least margin inside the cone;
    vectors v (3, ...), component first."""
    sq_t, sq_x, sq_y = v * v
    # Q(v) <= 1e-9 |v|^2 - margin v_t^2, each sum in the order quadratic_form and
    # numpy's sum over the last axis add (-a + b is b - a), so every verdict keeps its bits
    return (v[0] > 0) & (sq_x - sq_t + sq_y <= LIGHTLIKE_TOL * (sq_t + sq_x + sq_y)
                         - margin * sq_t)


def _start_passes(start, t0, a0, t1, a1, margin: float) -> np.ndarray:
    """The start test of straight chart segments from (t0, a0) to (t1, a1).

    A segment passes when its tangent is future causal at the start sample,
    where the component-first Jacobians are ``start`` (3, 3, ...), so a
    segment that does not move fails.  Callers check t > 0 along it.  The end
    arrays carry the batch shape, barycentric ones component first (3, ...);
    start arrays broadcast against them.
    """
    return _future_causal(_tangents(start, t1 - t0, a1[1:] - a0[1:]), margin)


def _later_samples(st: PolyhedralSpacetime, simplex, t0, a0, t1, a1, margin: float,
                   extra=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The test at the later samples (midpoint and end) of segments (m,).

    One kernel call evaluates those samples, the end being (t1, a1) itself,
    and the ``extra`` points, given as groups of (simplex, t, alpha) arrays;
    barycentric arrays are component first, a0 and a1 (3, m).  Returns whether
    each segment is future causal at both samples (m,), and the component-first
    Jacobians at each segment's end (3, 3, m) and at the extra points, in
    group order.
    """
    dt, d = t1 - t0, a1 - a0
    m = len(t0)
    # the tables by direct concatenations: a generator over zip costs about 1 us,
    # which at 2 curves is nearly 1% of a tracer pass
    xs, xt, xa = zip(*extra) if extra else ((), (), ())
    sx = np.concatenate((simplex, simplex, *xs))
    ts = np.concatenate((t0 + 0.5 * dt, t1, *xt))
    alphas = np.concatenate((a0 + 0.5 * d, a1, *xa), axis=1)
    jac = _jacobians(st, sx, ts, alphas)
    samples = jac[..., :2 * m].reshape(3, 3, 2, m)  # midpoints, then ends
    ok = _future_causal(_tangents(samples, dt, d[1:]), margin)
    return ok[0] & ok[1], samples[..., 1, :], jac[..., 2 * m:]


def _segments_are_causal(st: PolyhedralSpacetime, simplex, t0, a0, t1, a1,
                         margin: float = 0.0) -> np.ndarray:
    """Future-causal test for straight chart segments at sampled tangents.

    Segments run from (t0, a0) to (t1, a1) in chart ``simplex``; the end
    arrays carry the batch shape, barycentric ones component first (3, ...),
    and simplex and start arrays broadcast against them.  t must be > 0 at
    every sample.  The later samples are evaluated only where the start
    sample passes; all must pass.
    """
    ok = (_start_passes(_jacobians(st, simplex, t0, a0), t0, a0, t1, a1, margin)
          & ~((t0 <= 0) | (t0 + 0.5 * (t1 - t0) <= 0) | (t1 <= 0)))
    idx = np.nonzero(ok)
    at = (slice(None), *idx)
    ok[idx] = _later_samples(st, np.broadcast_to(simplex, ok.shape)[idx],
                             np.broadcast_to(t0, ok.shape)[idx], np.broadcast_to(a0, a1.shape)[at],
                             t1[idx], a1[at], margin)[0]
    return ok


def segment_is_causal(st: PolyhedralSpacetime, simplex: int, start: tuple[float, np.ndarray],
                      end: tuple[float, np.ndarray]) -> bool:
    """Future-causal test for one straight chart segment at sampled tangents."""
    t0, a0, t1, a1 = (np.asarray(x, dtype=float)[..., None] for x in (*start, *end))
    chart = np.array([_index(simplex, len(st.triangulation.triangles))])
    return bool(_segments_are_causal(st, chart, t0, a0, t1, a1)[0])


def _across(st: PolyhedralSpacetime, simplex, facet, alpha) -> tuple[np.ndarray, np.ndarray]:
    """The neighbour charts across facets (n,) and face points alpha (3, n) there."""
    alpha_new = np.zeros_like(alpha)
    alpha_new[st.triangulation.slot[simplex, facet].T, np.arange(alpha.shape[1])] = alpha
    return st.triangulation.neighbour[simplex, facet], alpha_new


def cross_face(st: PolyhedralSpacetime, simplex, t, alpha, facet
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-express face points in the neighbouring charts across their facets.

    Chart indices simplex (n,), times t (n,), barycentric points alpha (n, 3)
    and facets (n,), each the zero-weight slot of its point.  Returns the
    neighbour charts (n,), the points there (n, 3), t unchanged, and a mask
    (n,) of the crossings whose developed positions disagree through the
    gluing isometry by more than 1e-8 (relative).  The tracer calls it only
    for crossings that the face's corner bound does not prove (_trace_lockstep).
    """
    simplex, facet = _index(simplex, len(st.triangulation.triangles)), _index(facet, 3, "facet")
    alpha = np.asarray(alpha, dtype=float)
    nbr, alpha_new = _across(st, simplex, facet, alpha.T)
    alpha_new = alpha_new.T
    x, x_new = dev_hat_points(*st.charts, np.array([simplex, nbr]), t,
                              np.array([alpha, alpha_new]), st.kappa)
    m, b = st.gluing
    err = np.abs(x - ((m[simplex, facet] @ x_new[..., None])[..., 0] + b[simplex, facet]))
    return nbr, alpha_new, err.max(axis=-1) > 1e-8 * np.maximum(1.0, np.abs(x).max(axis=-1))


def _normalized_tau(st: PolyhedralSpacetime, puncture: str, point) -> tuple[float, float]:
    """(tau', r'/2) of a point in the normalized model around one fiber."""
    pg = st.fans[puncture]
    if isinstance(point, FiberPoint):
        return (st.kappa + point.t) / pg.ell, 0.0
    tau, r, _ = minkowski_to_model(pg, develop(st, point)).tolist()
    return tau, 0.5 * r


def fiber_hop_is_causal(st: PolyhedralSpacetime, fiber_pt: FiberPoint,
                        chart_pt: ChartPoint) -> bool:
    """Singular causal test: the chart point must lie in J+ of the fiber point."""
    _present_fiber(st, fiber_pt)
    tau_f, _ = _normalized_tau(st, fiber_pt.puncture, fiber_pt)
    try:
        tau_x, half_r = _normalized_tau(st, fiber_pt.puncture, chart_pt)
    except NotInImage:
        return False
    return tau_x - half_r >= tau_f - LIGHTLIKE_TOL


# Proposals 3 and 7 of each step are flat probes: transverse motion not tied
# to dt, so broken (non-spacelike) leaves are actually detectable.
_FLAT = np.arange(8) % 4 == 3
_PROBES = slice(3, 8, 4)  # the columns of _FLAT
_DT_SPAN = np.where(_FLAT, 0.5, 1.25)  # dt / t-step is uniform in [-0.25, -0.25 + span)
# Proposal k's scale factor, accumulated from the curve's scale: 0.85 per
# rejected non-flat proposal before it
_DECAY = np.where(np.roll(_FLAT, 1), 1.0, 0.85)
# the buffer offsets of each proposal's 3 draws, component first: (3, 1, 8)
_DRAWS = 3 * np.arange(8) + np.arange(3)[:, None, None]
_CHUNK = 480  # doubles per refill of a curve's random buffer: 20 passes, 0.38 MB at 100 curves
# the tracer's constants, described in the module docstring
_STEPS_PER_SPAN = 50.0
_MIN_T_STEP = 1e-3
_CONE_MARGIN = 1e-6
_ALPHA_STEP = 0.4
_MAX_STEPS = 600


def _rows(x, at):
    """x[..., *at] for an array x whose trailing axes are the batch's, each of
    full length or 1, as index arrays ``at`` index the batch: a length-1 axis
    is read at 0, so per-row starts (n, 1) and (3, n, 1) are read by row."""
    return x[(..., *(i if size > 1 else 0 * i for i, size in zip(at, x.shape[-len(at):])))]


def _clip_to_chart(t0, dt, a0, a1):
    """End points of proposed chart steps, cut at the first face they cross.

    A step moves (t0, a0) by dt to barycentric a1, which is clipped in place.
    dt and a1 carry the batch shape, a1 and a0 component first (3, ...); t0
    and a0 broadcast against them (per-row starts).  Returns (t1, usable,
    crossed, facet): the end times, the steps that stay usable (t > 0, not
    stalled on a face, not near a corner), those that end on a face, and that
    face's zero-weight slot, the lowest one on ties (else 0).  Only a step
    with a negative end weight can cross, so the face hits run on those steps
    alone and the cut on the crossing ones.
    """
    t1 = t0 + dt
    usable = t1 > 0
    crossed, facet = np.zeros(usable.shape, dtype=bool), np.zeros(usable.shape, dtype=np.intp)
    neg = a1 < 0
    if np.count_nonzero(neg):
        near = (neg[0] | neg[1] | neg[2]).nonzero()
        a0n, a1n = _rows(a0, near), a1[(slice(None), *near)]
        d = a1n - a0n
        hits = np.divide(a0n, -d, out=np.full(d.shape, np.inf), where=(d < 0) & (a1n < 0))
        s = np.minimum(np.minimum(hits[0], hits[1]), hits[2])
        cut = (s < 1.0).nonzero()[0]  # a0 / -d can round to 1.0, which stays inside
        at, s, k = tuple(i[cut] for i in near), s[cut], hits[:, cut].argmin(axis=0)
        # crossings end at s, on their face
        a_cut = a0n[:, cut] + s * d[:, cut]
        a_cut[k, np.arange(cut.size)] = 0.0
        lo, mid, hi = a_cut
        median = np.maximum(np.minimum(lo, mid), np.minimum(np.maximum(lo, mid), hi))
        usable[at] &= (s >= 1e-6) & (median >= 1e-6)
        t1[at] = _rows(t0, at) + s * dt[at]
        a1[(slice(None), *at)], crossed[at], facet[at] = a_cut, True, k
    return t1, usable, crossed, facet


def _trace_lockstep(st: PolyhedralSpacetime, simplex, t, alpha, seeds: list[int],
                    t_stop: float):
    """Trace one causal curve per chart start in lockstep; see trace_causal_curve.

    Starts are arrays: chart indices simplex (n,), times t (n,) and
    barycentric points alpha (n, 3), which callers have validated; only the
    chart indices are checked here.  Returns one node table for all curves,
    ``(simplex, t, alpha, transition)`` with alpha as rows (N, 3), stably
    sorted by curve, so each curve's nodes follow in trace order from its
    start node; the node count of each curve (n,); and the rejected proposals
    of each curve (n,).  If any curve failed, the lowest-index failed curve's
    error is raised instead, once every curve has been traced.

    Curve i draws from ``default_rng(seeds[i])``, _CHUNK doubles per refill
    into row i of a buffer that keeps all n rows as curves finish: 2 doubles
    for its drift, then 3 per proposal.  A pass draws all 8 proposals of
    every live curve with one gather from the buffer; a step accepts the
    first causal one and advances the curve's stream past the proposals up to
    it, which is the stream a sequential loop consumes.  The live state keeps
    barycentric and vector data component first, so every pass reads
    contiguous planes: alpha (3, n), the carried Jacobians (3, 3, n), and the
    draws, clipped ends and tangents of the proposal tables (3, n, 8).

    The start test is the cone test alone: a live curve has t > 0, and so do
    a usable proposal's midpoint and end.  One kernel call per pass takes the
    mid and end samples of each curve's first start-passing proposal after
    ``tried`` and the next starts that an accepted end does not give: a face
    crossing's point in the neighbour chart, or the vertical fallback of a
    curve with no such proposal left.  A curve whose candidate fails there
    does not step: it records the candidate in ``tried``, and its cursor,
    scale, drift, start and carried Jacobian stay as they are, so the next
    pass redraws the same 8 proposals bit for bit and tries the ones after
    it.  The accepted proposal's next start, or the fallback's, is carried
    into the next pass.  _MAX_STEPS counts each curve's steps: its passes
    but those that held it.

    An accepted candidate that ends on facet k of chart i moves to the
    neighbour point that the pass computed for its kernel call, once this
    bound proves the face transition good (verify_face_equivariance's
    argument).  On the facet alpha_k = phi_k = 0, alpha and phi are >= 0 and
    each sums to 1, and the neighbour point is alpha permuted by the slot
    table, so the developed point and the gluing's image of the neighbour's
    differ by sum_j (t phi_j + kappa alpha_j) du_j + alpha_j dp_j over j != k,
    du_j and dp_j being the corner residuals of (i, k).  In max norm that is
    at most (t + kappa) du_f + dp_f, with du_f and dp_f their largest entries.
    Where that bound is <= 1e-9, a tenth of cross_face's tolerance floor 1e-8
    (the rest covers rounding), the crossing is proved good; elsewhere, NaN
    included, cross_face's developed check decides.  The residuals are the
    spacetime's own (st.residuals, derived from its charts and gluing), never
    the certification record's, so a gluing replaced after certification is
    still caught.
    """
    n = len(seeds)
    simplex = _index(np.asarray(simplex), len(st.triangulation.triangles))
    # each glued face's largest corner residuals, from the charts and gluing themselves
    du, dp = (x.max(axis=-1) for x in st.residuals)
    t = np.array(t, dtype=float)
    alpha = np.array(np.transpose(alpha), dtype=float, order="C")  # (3, n)
    steps_t = np.maximum((t_stop - t) / _STEPS_PER_SPAN, _MIN_T_STEP)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    buf = np.empty((n, _CHUNK))  # per curve, read through ids
    for rng, row in zip(rngs, buf):
        rng.random(out=row)
    # persistent transverse drift so traces genuinely wander across charts
    bias = -1.0 + 2.0 * buf[:, :2].T
    drift = 0.7 * (bias / np.maximum(np.hypot(bias[0], bias[1]), 1e-12))  # (2, n)
    cursor = np.full(n, 2)
    # adaptive transverse scale: the causal cone width in barycentric units
    # varies a lot across the simplex, so learn it from accept/reject feedback
    scale = np.full(n, _ALPHA_STEP)
    decay = np.tile(_DECAY, (n, 1))  # column 0 takes each pass's scale
    rejected = np.zeros(n, dtype=int)  # per curve, not per row
    jac = np.ascontiguousarray(_jacobians(st, simplex, t, alpha))  # per start, (3, 3, n)
    ids = lane = np.arange(n)  # the curve of each state row, and the rows
    tried = np.full(n, -1)  # the proposal a held curve failed in the last pass, else -1
    holds = np.zeros(n, dtype=int)  # passes that held each curve
    passes, retrying = 0, False
    errors: dict[int, Exception] = {}
    # the nodes in trace order, starts first, one record per pass and kind: curve,
    # simplex, t, alpha, and one transition flag for the record's nodes
    log = []

    def record(lanes, transition):
        log.append((ids[lanes], simplex[lanes], t[lanes], alpha[:, lanes], transition))
    record(lane, False)

    keep = t < t_stop
    while True:
        if np.count_nonzero(keep) < keep.size:
            ids, simplex, t, steps_t, cursor, scale, decay, tried, holds = (
                x[keep] for x in (ids, simplex, t, steps_t, cursor, scale, decay, tried, holds))
            alpha, drift, jac = alpha[:, keep], drift[:, keep], jac[..., keep]
            lane = np.arange(ids.size)
        if ids.size == 0:
            break
        for i in (cursor > _CHUNK - 24).nonzero()[0]:
            row, used = buf[ids[i]], cursor[i]
            row[:_CHUNK - used] = row[used:]
            rngs[ids[i]].random(out=row[_CHUNK - used:])
            cursor[i] = 0
        u = buf.take((ids * _CHUNK + cursor)[:, None] + _DRAWS)  # (3, n, 8)
        # each proposal's scale: 0.85 per rejection, then never below 0.02
        decay[:, 0] = scale
        sc = np.multiply.accumulate(decay, axis=1)
        np.maximum(sc[:, 1:], 0.02, out=sc[:, 1:])
        ts = steps_t[:, None]
        # uniform(lo, hi) is lo + (hi - lo) * random(), bit for bit
        dt = (-0.25 + _DT_SPAN * u[0]) * ts
        wobble = -1.0 + 2.0 * u[1:]
        # the ends: rows 1 and 2 take the weight steps (da_1, da_2), the flat
        # probes' in their columns, row 0 takes -da_1 - da_2, then all add the start
        a1 = np.empty((3,) + dt.shape)
        np.multiply((drift[..., None] + 0.5 * wobble) * sc, np.maximum(dt, 0.0), out=a1[1:])
        a1[1:, :, _PROBES] = wobble[..., _PROBES] * _ALPHA_STEP * ts
        np.subtract(-a1[1], a1[2], out=a1[0])
        t0, a0 = t[:, None], alpha[..., None]
        a1 += a0
        t1, passing, crossed, facet = _clip_to_chart(t0, dt, a0, a1)
        any_crossed = np.count_nonzero(crossed)
        passing &= _start_passes(jac[..., None], t0, a0, t1, a1, _CONE_MARGIN)
        if retrying:  # a retry skips the proposals it tried
            passing &= np.arange(8) > tried[:, None]
            tried[:] = -1
        has, k = passing.any(axis=1), passing.argmax(axis=1)
        # each curve's first untried start-passing proposal, accepted in most
        # passes, and the vertical fallback of each curve without one
        first, lost = has.nonzero()[0], (~has).nonzero()[0]
        # one kernel call for the candidates' later samples and the next starts
        # that an accepted end does not give: the fallbacks', and on a face the
        # neighbour chart's point, which replaces the end as the next start
        cols = k[first]
        te, ae = t1[first, cols], a1[:, first, cols]
        extra = [(simplex[lost], t[lost] + steps_t[lost], alpha[:, lost])] if lost.size else []
        cross = crossed[first, cols].nonzero()[0] if any_crossed else first[:0]
        if cross.size:
            from_sx, from_facet = simplex[first[cross]], facet[first[cross], cols[cross]]
            nbr, face = _across(st, from_sx, from_facet, ae[:, cross])
            extra.append((nbr, te[cross], face))
        ok, nxt, fresh = _later_samples(st, simplex[first], t[first], alpha[:, first], te,
                                        ae, _CONE_MARGIN, extra)
        if cross.size:
            nxt[..., cross] = fresh[..., lost.size:]
        taken = ok.nonzero()[0]
        moved, took = first[taken], cols[taken]
        jac[..., moved] = nxt[..., taken]
        # a failed candidate holds its curve, which retries from the next proposal;
        # the other curves step
        retrying = taken.size < first.size
        go = lane
        if retrying:
            held = first[~ok]
            tried[held] = k[held]
            holds[held] += 1
            go = (tried < 0).nonzero()[0]
        # an accepted proposal's curve moves to its end, past the draws up to it
        # and a rejection per proposal before it; a fallback steps up in t, past all 8
        rejected[ids[moved]] += took
        cursor[moved] += 3 * took + 3
        sc_took = sc[moved, took]
        scale[moved] = np.where(_FLAT[took], sc_took,
                                np.minimum(sc_took * 1.25, 3.0 * _ALPHA_STEP))
        t[moved], alpha[:, moved] = te[taken], ae[:, taken]
        if lost.size:
            jac[..., lost] = fresh[..., :lost.size]
            rejected[ids[lost]] += 8
            cursor[lost] += 24
            scale[lost] = sc[lost, 7]
            t[lost] += steps_t[lost]
        passes += 1
        record(go, False)
        keep = t < t_stop
        acc = ok[cross]  # the accepted candidates that end on a face
        if np.count_nonzero(acc):
            crossing, sx, f = first[cross[acc]], from_sx[acc], from_facet[acc]
            nbr, face = nbr[acc], face[:, acc]
            # proved good where the face's corner bound at t is <= 1e-9; elsewhere,
            # NaN included, cross_face's developed check decides
            bad = ~((t[crossing] + st.kappa) * du[sx, f] + dp[sx, f] <= 1e-9)
            if bad.any():
                check = bad.nonzero()[0]
                bad[check] = cross_face(st, sx[check], t[crossing[check]],
                                        alpha[:, crossing[check]].T, f[check])[2]
            for i, j in zip(crossing[bad], nbr[bad]):
                errors[int(ids[i])] = GeometryError(
                    f"face transition mismatch between charts {simplex[i]} and {j}")
            keep[crossing[bad]] = False
            simplex[crossing[~bad]], alpha[:, crossing[~bad]] = nbr[~bad], face[:, ~bad]
            record(crossing[~bad], True)
        if passes >= _MAX_STEPS:  # no curve has made more steps than passes
            for i in (keep & (passes - holds >= _MAX_STEPS)).nonzero()[0]:
                errors[int(ids[i])] = GeometryError(
                    f"tracer exhausted {_MAX_STEPS} steps below t_stop")
                keep[i] = False

    if errors:
        raise errors[min(errors)]
    *columns, flags = zip(*log)
    curves, sxs, ts, alphas = (np.concatenate(x, axis=-1) for x in columns)
    transitions = np.repeat(flags, [x.size for x in columns[0]])
    order = np.argsort(curves, kind="stable")
    return ((sxs[order], ts[order], alphas[:, order].T, transitions[order]),
            np.bincount(curves, minlength=n), rejected)


def trace_causal_curve(st: PolyhedralSpacetime, start, t_stop: float, steering: str = "random",
                       seed: int = 0) -> CausalPolyline:
    """Trace a future causal polyline from ``start`` until t reaches t_stop.

    Steering policies: ``random`` tries causal steps with random transverse
    motion and all signs of dt, falling back to a vertical step when all are
    rejected; ``axis`` stays on a singular fiber; ``leave_axis`` starts on a
    fiber and hops into the adjacent chart fan as soon as a causal hop is
    found, then continues as ``random``.  Proposals move the barycentric point
    by at most _ALPHA_STEP * dt per component, matching the linear opening of
    the causal cone in chart coordinates.
    """
    if steering not in ("random", "axis", "leave_axis"):
        raise ValueError(f"unknown steering {steering!r}")
    t_stop = _real("t_stop", t_stop)
    if not math.isfinite(t_stop):
        raise ValueError("t_stop must be finite")
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
        first = int(pg.triangles[0])
        alpha = np.full(3, 0.1)
        alpha[st.triangulation.triangles[first].index(pg.base_vertex)] = 0.8
        hop = None
        gap = t_stop - start.t
        for frac in (0.05, 0.1, 0.2, 0.4, 0.8):
            candidate = ChartPoint(first, start.t + frac * gap, alpha)
            if fiber_hop_is_causal(st, start, candidate):
                hop = candidate
                break
            rejected += 1
        if hop is None:
            raise StuckAtSingularity(
                f"no causal hop off the fiber {start.puncture} below t_stop"
            )
        nodes.append(CurveNode(hop))
        cur = hop
    elif isinstance(start, ChartPoint):
        if steering in ("axis", "leave_axis"):
            raise StuckAtSingularity(f"steering {steering!r} needs a fiber start")
        cur = start
    else:
        raise TypeError(f"unsupported start point {start!r}")

    (sxs, ts, alphas, transitions), _, (rest_rejected,) = _trace_lockstep(
        st, [cur.simplex], [cur.t], cur.alpha[None], [seed], t_stop)
    # the table's first node is the start, cur itself
    nodes += [CurveNode(ChartPoint(sx, ti, a), transition=tr) for sx, ti, a, tr in
              zip(sxs[1:].tolist(), ts[1:].tolist(), alphas[1:], transitions[1:].tolist())]
    return CausalPolyline(nodes, seed=seed, steering=steering,
                          rejected_proposals=rejected + int(rest_rejected))


def validate_polyline(st: PolyhedralSpacetime, curve: CausalPolyline) -> list[int]:
    """Indices of curve segments that fail the causal test (empty = valid).

    Chart segments within one simplex go through one batched causal test.
    """
    bad = []
    charts = []  # (index, start, end) of the same-simplex chart segments
    for i, (a, b) in enumerate(zip(curve.nodes, curve.nodes[1:])):
        if b.transition:
            continue
        pa, pb = a.point, b.point
        if isinstance(pa, FiberPoint) and isinstance(pb, FiberPoint):
            if pa.puncture != pb.puncture or pb.t <= pa.t:
                bad.append(i)
        elif isinstance(pa, FiberPoint):
            if not fiber_hop_is_causal(st, pa, pb):
                bad.append(i)
        elif isinstance(pb, FiberPoint) or pa.simplex != pb.simplex:
            # chart points never causally precede fiber points, and a chart
            # segment stays inside one simplex
            bad.append(i)
        else:
            charts.append((i, pa, pb))
    if charts:
        index, starts, ends = zip(*charts)
        ok = _segments_are_causal(
            st, np.array([_index(p.simplex, len(st.triangulation.triangles)) for p in starts]),
            np.array([p.t for p in starts]), np.stack([p.alpha for p in starts], axis=-1),
            np.array([p.t for p in ends]), np.stack([p.alpha for p in ends], axis=-1))
        bad += [i for i, good in zip(index, ok) if not good]
    return sorted(bad)


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


def _curves_time_checks(t, transition, nodes, leaves) -> tuple[np.ndarray, np.ndarray]:
    """The time checks of curves stacked in one table, in one array pass.

    Node times t (N,) and transition flags (N,) hold the curves one after the
    other, nodes (n,) per curve; a node pair counts only inside one curve.
    Returns whether each curve's t strictly increases, staying equal across
    the nodes flagged in transition (n,), and how often it crosses each leaf
    (n, L).
    """
    f = t - np.asarray(leaves, dtype=float)[:, None]
    flags = np.concatenate([~np.where(transition[1:], t[1:] == t[:-1], t[1:] > t[:-1])[None],
                            f[:, :-1] * f[:, 1:] < 0])  # per pair: not monotone, leaf crossed
    # sums[:, j]: flagged pairs before node j; curve i owns the pairs of its nodes but the last;
    # the spare last column keeps index -1, the end of a lone empty curve, at 0
    sums = np.zeros((len(flags), len(t) + 1), dtype=np.intp)
    np.cumsum(flags, axis=1, out=sums[:, 1:len(t)])
    last = np.cumsum(nodes) - 1
    per_curve = sums[:, last] - sums[:, last - (nodes - 1)]
    return per_curve[0] == 0, per_curve[1:].T


MAX_CURVES = 10_000  # cauchy_time_report's per-curve tables, 38 MB of random buffers at most


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
    and cross each leaf exactly once; the leaves must be non-empty and lie
    strictly inside (t_start, t_stop), so every curve checks one.  t_start,
    t_stop and every leaf must be a real number other than a bool, and the
    report stores each as a float, so a leaf 2 is keyed '2.0'.  Starts
    and curve seeds are drawn up front from ``seed``; the curves are then
    traced in lockstep, each exactly as trace_causal_curve traces it alone.
    n_curves is an integer in [1, MAX_CURVES].
    """
    for name, value in (("n_curves", n_curves), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    n_curves, seed = int(n_curves), int(seed)
    if n_curves < 1:
        raise ValueError("n_curves must be >= 1")
    if n_curves > MAX_CURVES:
        raise ValueError(f"n_curves must be <= {MAX_CURVES}, got {n_curves!r}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    try:
        leaves = tuple(leaves)
    except TypeError:
        raise ValueError(f"leaves must be an iterable of numbers, got {leaves!r}") from None
    t_start, t_stop = _real("t_start", t_start), _real("t_stop", t_stop)
    leaves = tuple(_real("leaves", x) for x in leaves)
    if not all(math.isfinite(x) and x > 0 for x in (t_start, t_stop)):
        raise ValueError("t_start and t_stop must be finite and > 0")
    if t_start >= t_stop:
        raise ValueError("t_start must be < t_stop")
    if not leaves or not all(t_start < leaf < t_stop for leaf in leaves):
        raise ValueError(f"leaves must be non-empty and inside (t_start, t_stop), got {leaves!r}")
    rng = np.random.default_rng(seed)
    simplex, alpha, seeds = np.empty(n_curves, dtype=np.intp), np.empty((n_curves, 3)), []
    charts, ones = len(st.triangulation.triangles), np.ones(3)
    for i in range(n_curves):
        simplex[i] = rng.integers(charts)
        alpha[i] = rng.dirichlet(ones)
        seeds.append(int(rng.integers(2**32)))
    alpha *= 0.7
    alpha += 0.3 / 3.0
    (_, t, _, transition), nodes, rejected = _trace_lockstep(
        st, simplex, np.full(n_curves, t_start), alpha, seeds, t_stop)
    monotone, counts = _curves_time_checks(t, transition, nodes, leaves)
    curves = []
    for k, (size, mono, row, rej) in enumerate(
            zip(nodes.tolist(), monotone.tolist(), counts.tolist(), rejected.tolist())):
        crossings = {repr(leaf): c for leaf, c in zip(leaves, row)}
        curves.append(
            {
                "index": k,
                "nodes": size,
                "rejected_proposals": rej,
                "monotone_t": mono,
                "leaf_crossings": crossings,
                "decomposition_ok": True,  # the tracer emits regular (chart) nodes only
                "pass": mono and all(c == 1 for c in row),
            }
        )
    failures = sum(not c["pass"] for c in curves)
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
