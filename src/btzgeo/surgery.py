"""Spacelike cap surfaces inside a spear and causal-curve intersection counts.

Everything here lives in normalized model coordinates (tau, radial, angular)
of the quotient around one singular fiber: the spear is the region
tau - r/2 >= vertex_tau, r <= R.  A cap is the graph of a function
tau_Sigma(r, theta) over the disk r <= R matching a prescribed boundary
profile tau^R(theta) at r = R.  Two extensions are provided:

  * complete: tau = tau^R(theta) + M (1/r - 1/R), which diverges at the
    puncture and is metrically complete (delta >= C^2 / r^2 with C >= 1);
  * compact: tau = ((2r - R)/R)^2 tau^R(theta) + M (1/r - 1/R) on [R/2, R]
    and the constant M/R on [0, R/2], which caps the axis at finite height.

The spacelike condition is delta = 1 - 2 dtau/dr - ((1/r) dtau/dtheta)^2 > 0,
since the induced metric is delta dr^2 + ((1/r) tau_theta dr - r dtheta)^2
with determinant delta r^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .minkowski import LIGHTLIKE_TOL, GeometryError
from .models import TWO_PI
from .serialize import JsonRecord, _real

_GRID = 4096  # boundary-profile grid points behind min_value and max_abs_derivative
_THETAS = np.linspace(0.0, TWO_PI, _GRID, endpoint=False)
_TANGENCY_TOL = 1e-8  # a gap to the cap this small makes a crossing count undecidable
# A cap's largest terms are fourth powers of the profile's scale: delta holds
# M / r^2 and (tau^R' / r)^2, with M ~ D^2 and D <= sum (k+1)^2 |c_k|.  With
# R, 1 / R and every |coefficient| <= _CAP_SCALE, _CAP_SCALE^4 = 1e200 leaves a
# factor 1e108 for sample radii down to 1e-10 R and the weights of up to 1e14
# harmonics.
_CAP_SCALE = 1e50
_CAP_R_MIN = 1e-50


class OnSeam(GeometryError):
    """Derivative requested exactly on the non-smooth seam of a compact cap."""


class NotCausal(GeometryError):
    """A polyline segment is not future causal for the quotient metric."""


class Tangency(GeometryError):
    """The curve grazes the cap within tolerance; the count is not decidable."""


@dataclass(frozen=True)
class BoundaryProfile(JsonRecord):
    """Trigonometric polynomial boundary height tau^R(theta) at radius R.

    value = const + sum cos[k] cos((k+1) theta) + sum sin[k] sin((k+1) theta).
    Whether the circle actually sits on a given spear's shaft is a placement
    question (see fits_spear), not a validity one.
    """

    R: float
    const: float = 0.0
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "R", _real("R", self.R))
        object.__setattr__(self, "const", _real("const", self.const))
        object.__setattr__(self, "cos", tuple(_real("cos", c) for c in self.cos))
        object.__setattr__(self, "sin", tuple(_real("sin", c) for c in self.sin))
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError("R must be finite and > 0")
        if not all(map(math.isfinite, (self.const, *self.cos, *self.sin))):
            raise ValueError("const, cos and sin must be finite")

    def value(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.full_like(theta, self.const)
        for k, c in enumerate(self.cos):
            out = out + c * np.cos((k + 1) * theta)
        for k, c in enumerate(self.sin):
            out = out + c * np.sin((k + 1) * theta)
        return out if out.ndim else float(out)

    def derivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        for k, c in enumerate(self.cos):
            out = out - c * (k + 1) * np.sin((k + 1) * theta)
        for k, c in enumerate(self.sin):
            out = out + c * (k + 1) * np.cos((k + 1) * theta)
        return out if out.ndim else float(out)

    def _slack(self, power: int) -> float:
        # half a grid step times the Lipschitz bound sum (k+1)^power |c_k|
        lip = sum((k + 1) ** power * abs(c) for k, c in enumerate(self.cos)) + sum(
            (k + 1) ** power * abs(c) for k, c in enumerate(self.sin))
        return lip * (TWO_PI / _GRID) / 2.0

    def min_value(self) -> float:
        return float(self.value(_THETAS).min()) - self._slack(1)

    def max_abs_derivative(self) -> float:
        """Upper bound on sup |d tau^R / d theta| via dense grid plus Lipschitz slack."""
        return float(np.abs(self.derivative(_THETAS)).max()) + self._slack(2)


@dataclass(frozen=True)
class SurfaceGraph:
    """Graph surface tau = tau_Sigma(r, theta) over the (punctured) disk r <= R."""

    profile: BoundaryProfile
    mode: str  # "complete" or "compact"
    M: float

    def __post_init__(self):
        if self.mode not in ("complete", "compact"):
            raise ValueError("mode must be 'complete' or 'compact'")
        if not math.isfinite(self.M):
            raise ValueError(f"slope constant M must be finite, got {self.M!r}")

    @property
    def R(self) -> float:
        return self.profile.R

    @property
    def punctured(self) -> bool:
        return self.mode == "complete"

    def _check_domain(self, r) -> None:
        r = np.asarray(r, dtype=float)
        if np.any(r > self.R * (1 + 1e-12)):
            raise ValueError("radial coordinate outside the disk")
        if self.punctured and np.any(r <= 0):
            raise ValueError("complete cap is defined on the punctured disk only")
        if np.any(r < 0):
            raise ValueError("radial coordinate must be nonnegative")

    def value(self, r, theta):
        self._check_domain(r)
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if self.mode == "complete":
            out = self.profile.value(theta) + self.M * (1.0 / r - 1.0 / self.R)
        else:
            # Core constant written as the outer formula at r = R/2 so the
            # seam is continuous bit-for-bit, not just within rounding.
            core = self.M * (2.0 / self.R - 1.0 / self.R)
            out = np.where(
                r >= self.R / 2,
                ((2 * r - self.R) / self.R) ** 2 * self.profile.value(theta)
                + self.M * (1.0 / np.maximum(r, self.R / 4) - 1.0 / self.R),
                core,
            )
        return out if out.ndim else float(out)

    def partials(self, r, theta) -> tuple[np.ndarray, np.ndarray]:
        """(d tau / d r, d tau / d theta); raises OnSeam on the compact crease."""
        self._check_domain(r)
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if self.mode == "compact" and np.any(np.abs(r - self.R / 2) <= 1e-12 * self.R):
            raise OnSeam(f"derivative undefined on the seam r = {self.R / 2!r}")
        if self.mode == "complete":
            dr = np.broadcast_to(-self.M / r**2, np.broadcast_shapes(r.shape, theta.shape)).copy()
            dth = np.broadcast_to(self.profile.derivative(theta), dr.shape).copy()
        else:
            outer = r > self.R / 2
            s = (2 * r - self.R) / self.R
            dr = np.where(outer, (4 * s / self.R) * self.profile.value(theta)
                          - self.M / np.maximum(r, self.R / 4) ** 2, 0.0)
            dth = np.where(outer, s**2 * self.profile.derivative(theta), 0.0)
        if dr.ndim:
            return dr, dth
        return float(dr), float(dth)


def delta(sg: SurfaceGraph, r, theta):
    """Spacelike margin 1 - 2 dtau/dr - ((1/r) dtau/dtheta)^2; positive = spacelike."""
    dr, dth = sg.partials(r, theta)
    r = np.asarray(r, dtype=float)
    return 1.0 - 2.0 * np.asarray(dr) - (np.asarray(dth) / r) ** 2


def induced_metric(sg: SurfaceGraph, r, theta) -> np.ndarray:
    """First fundamental form in (r, theta) coordinates, shape (..., 2, 2).

    Equals delta dr^2 + ((1/r) tau_theta dr - r dtheta)^2, so the determinant
    is exactly delta r^2.
    """
    dr, dth = sg.partials(r, theta)
    r = np.asarray(r, dtype=float)
    dval = delta(sg, r, theta)
    g_rr = dval + (np.asarray(dth) / r) ** 2
    g_rt = -np.asarray(dth) * np.ones_like(g_rr)
    g_tt = r**2 * np.ones_like(g_rr)
    return np.stack(
        [np.stack([g_rr, g_rt], axis=-1), np.stack([g_rt, g_tt], axis=-1)], axis=-2
    )


def _check_cap_scale(profile: BoundaryProfile) -> None:
    """ValueError naming the first field of ``profile`` outside the caps' range:
    R in [_CAP_R_MIN, _CAP_SCALE] and |const|, |cos[k]|, |sin[k]| <= _CAP_SCALE,
    within which every cap has a finite M and finite margins delta at radii
    down to 1e-10 R."""
    fields = [("R", profile.R), ("const", profile.const),
              *((f"cos.{k}", c) for k, c in enumerate(profile.cos)),
              *((f"sin.{k}", c) for k, c in enumerate(profile.sin))]
    for name, value in fields:
        low = _CAP_R_MIN if name == "R" else -_CAP_SCALE
        if not low <= value <= _CAP_SCALE:
            raise ValueError(f"{name} must be in [{low!r}, {_CAP_SCALE!r}] for a cap, got "
                             f"{value!r}: beyond that the slope constant M or delta overflows")


def extend_complete(profile: BoundaryProfile) -> SurfaceGraph:
    """Complete spacelike cap over the punctured disk with the given boundary.

    M = 1 + sup |d tau^R / d theta|^2 gives delta = 1 + (2M - (tau^R')^2)/r^2,
    which is > 1/r^2 everywhere, hence spacelike and metrically complete.
    """
    _check_cap_scale(profile)
    d = profile.max_abs_derivative()
    return SurfaceGraph(profile=profile, mode="complete", M=1.0 + d * d)


def extend_compact(profile: BoundaryProfile, margin: float = 1e-6) -> SurfaceGraph:
    """Compact spacelike cap: quadratically damped boundary term plus constant
    core, with the slope constant M in closed form so that delta >= margin.

    On r in [R/2, R], with s = (2r - R)/R in [0, 1], the partials give
        delta = 1 - (8s/R) tau^R + (2M - s^4 tau^R'^2) / r^2.
    Take T = max(0, const + sum |cos| + sum |sin|) >= sup tau^R and
    D = max_abs_derivative() >= sup |tau^R'|.  If 2M >= D^2, then s <= 1 and
    r <= R give delta >= 1 - 8T/R + (2M - D^2)/R^2, which is >= margin once
    2M >= D^2 + 8TR + R^2 (margin - 1).  The flat core r < R/2 has delta = 1,
    so 0 < margin <= 1 and M = max(1 + D^2, (D^2 + 8TR + R^2 (margin - 1))/2)
    prove delta >= margin on the whole disk off the seam r = R/2.
    """
    if not 0 < margin <= 1:
        raise ValueError(f"margin must be in (0, 1], got {margin!r}")
    _check_cap_scale(profile)
    r, d = profile.R, profile.max_abs_derivative()
    top = max(0.0, profile.const + sum(map(abs, profile.cos)) + sum(map(abs, profile.sin)))
    m = max((d * d + 8.0 * top * r + r * r * (margin - 1.0)) / 2.0, 1.0 + d * d)
    return SurfaceGraph(profile=profile, mode="compact", M=m)


@dataclass(frozen=True)
class CompletenessCertificate(JsonRecord):
    conclusive: bool
    constant: float | None
    reason: str


def completeness_certificate(sg: SurfaceGraph) -> CompletenessCertificate:
    """Certify delta >= C^2 / r^2 with C > 0, which forces metric completeness.

    Any divergent path to the puncture then has length >= integral C/r dr,
    which diverges.  Conclusive only for complete-mode graphs; the compact cap
    reaches the axis at finite distance.
    """
    if sg.mode != "complete":
        return CompletenessCertificate(
            False, None, "compact cap reaches the axis at finite distance"
        )
    # r^2 delta = r^2 + 2M - (tau^R')^2; minimize the angular part analytically.
    sup_d = sg.profile.max_abs_derivative()
    floor = 2.0 * sg.M - sup_d * sup_d
    if floor <= 0:
        return CompletenessCertificate(False, None, "slope constant too small")
    c = math.sqrt(floor)
    return CompletenessCertificate(True, c, "delta >= C^2 / r^2 on the punctured disk")


def divergence_check(sg: SurfaceGraph) -> bool:
    """True when tau_Sigma tends to +infinity at the puncture (uniformly in theta).

    tau^R is a bounded trigonometric polynomial, so the complete cap's
    M (1/r - 1/R) decides it: it diverges exactly when M > 0.
    """
    return sg.mode == "complete" and sg.M > 0


def fits_spear(sg: SurfaceGraph, spear) -> dict:
    """Placement report of a cap against a spear descriptor (duck-typed:
    needs ``radius`` and ``ring_tau``).  The cap sits inside the spear when
    its disk is no wider than the spear and its boundary circle is on the
    shaft at or above the base ring.
    """
    radius_ok = sg.R <= spear.radius * (1 + 1e-12)
    boundary_ok = sg.profile.min_value() >= spear.ring_tau - 1e-12
    return {
        "radius_ok": bool(radius_ok),
        "boundary_on_shaft": bool(boundary_ok),
        "inside": bool(radius_ok and boundary_ok),
    }


@dataclass(frozen=True)
class ModelCurve:
    """Future causal polyline in normalized model coordinates (tau, r, theta).

    theta is unreduced (the curve may wind).  ``extends_to_infinity`` marks a
    curve whose final vertex continues as a vertical ray tau -> +infinity at
    fixed (r, theta); such curves are inextendible inside the spear without
    reaching the shaft wall.
    """

    points: np.ndarray
    extends_to_infinity: bool = False

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 2:
            raise ValueError("a curve needs at least two (tau, r, theta) vertices")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def validate_causal(self) -> None:
        """Segments must be future causal for -2 dtau dr + dr^2 + r^2 dtheta^2,
        within the light-cone band LIGHTLIKE_TOL |d|^2 of each step d."""
        p = self.points
        d = np.diff(p, axis=0)
        r_max = np.maximum(p[:-1, 1], p[1:, 1])
        q = -2.0 * d[:, 0] * d[:, 1] + d[:, 1] ** 2 + r_max**2 * d[:, 2] ** 2
        bad = np.where((q > LIGHTLIKE_TOL * np.sum(d * d, axis=1)) | (d[:, 0] <= 0))[0]
        if len(bad):
            i = int(bad[0])
            raise NotCausal(
                f"segment {i} is not future causal: interval {q[i]!r}, dtau {d[i, 0]!r}"
            )


@dataclass(frozen=True)
class IntersectionReport(JsonRecord):
    count: int
    prediction: int
    exit_kind: str  # "shaft" or "infinity"
    min_gap: float

    @property
    def agree(self) -> bool:
        return self.count == self.prediction


def intersection_count(sg: SurfaceGraph, curve: ModelCurve) -> IntersectionReport:
    """Count transversal crossings of the cap and compare with the causal prediction.

    The prediction is 1 exactly when the future end of the curve is in the
    causal future of the boundary circle: for a shaft exit that means leaving
    at or above the boundary profile at the exit angle (radial distance never
    decreases along future causal curves, so the circle's future meets the
    cylinder only vertically); for a curve running to tau = +infinity it is
    always 1, provided the cap diverges at the puncture in complete mode.
    """
    if sg.mode == "complete" and not divergence_check(sg):
        raise GeometryError("complete cap does not diverge; count is undefined")
    curve.validate_causal()
    pts = curve.points
    if np.any(pts[:, 1] > sg.R * (1 + 1e-9)):
        raise ValueError("curve leaves the disk r <= R")
    if sg.punctured and np.any(pts[:, 1] <= 0):
        raise ValueError("curve hits the puncture of a complete cap")

    # Refined gap samples f = tau_curve - tau_Sigma along every segment.
    fs = []
    for i in range(len(pts) - 1):
        s = np.linspace(0.0, 1.0, 33)  # 32 gap samples per segment
        if i > 0:
            s = s[1:]
        seg = pts[i][None, :] + s[:, None] * (pts[i + 1] - pts[i])[None, :]
        fs.append(seg[:, 0] - sg.value(seg[:, 1], np.mod(seg[:, 2], TWO_PI)))
    f = np.concatenate(fs)
    min_gap = float(np.abs(f).min())
    if min_gap <= _TANGENCY_TOL:
        raise Tangency(f"curve grazes the cap: smallest gap {min_gap!r}")
    count = int(np.sum(f[:-1] * f[1:] < 0))

    end = pts[-1]
    if curve.extends_to_infinity:
        exit_kind = "infinity"
        if f[-1] < 0:
            count += 1  # the implied vertical tail crosses the graph once
        prediction = 1
    elif abs(end[1] - sg.R) <= 1e-9 * sg.R:
        exit_kind = "shaft"
        boundary = float(sg.profile.value(np.mod(end[2], TWO_PI)))
        if abs(end[0] - boundary) <= _TANGENCY_TOL:
            raise Tangency("curve exits the shaft exactly on the boundary circle")
        prediction = 1 if end[0] > boundary else 0
    else:
        raise GeometryError(
            "curve is not inextendible: it ends strictly inside the spear"
        )
    return IntersectionReport(
        count=count, prediction=prediction, exit_kind=exit_kind, min_gap=min_gap
    )
