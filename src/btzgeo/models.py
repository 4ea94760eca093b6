"""Model singular spacetime: the extreme BTZ white hole.

Coordinates are (first, radial, angular) = (tau, r, theta) with metric
-2 dtau dr + dr^2 + r^2 dtheta^2.  ModelPoint records a cone angle alpha, but
the operations here cover the alpha = 0 model only.  Points live either on
the infinite branched cover (angular in R, ``reduced=False``) or on the
quotient where the angular coordinate is taken mod 2pi.

The developing map ``dev0`` identifies the regular part of the BTZ cover with
the open half-space {t > x} of Minkowski space; the deck transformation is a
parabolic fixing the lightlike line spanned by (1,1,0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .minkowski import GeometryError, LinearIsometry

TWO_PI = 2.0 * math.pi


class NotInImage(GeometryError):
    """Point is outside the image of the developing map."""


@dataclass(frozen=True)
class ModelPoint:
    """Point of a model spacetime; radial >= 0, alpha >= 0, finite coordinates."""

    alpha: float
    coords: tuple[float, float, float]  # (first, radial, angular)
    reduced: bool = False

    def __post_init__(self):
        a = float(self.alpha)
        c = tuple(float(v) for v in self.coords)
        if not (math.isfinite(a) and all(math.isfinite(v) for v in c)):
            raise ValueError("non-finite model point")
        if a < 0:
            raise ValueError("alpha must be >= 0")
        if c[1] < 0:
            raise ValueError("radial coordinate must be >= 0")
        if self.reduced and not (0.0 <= c[2] < TWO_PI):
            raise ValueError("reduced angular coordinate must lie in [0, 2pi)")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "coords", c)

    @property
    def first(self) -> float:
        return self.coords[0]

    @property
    def radial(self) -> float:
        return self.coords[1]

    @property
    def angular(self) -> float:
        return self.coords[2]

    @property
    def singular(self) -> bool:
        return self.coords[1] == 0.0

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "coords": list(self.coords), "reduced": self.reduced}

    @classmethod
    def from_json(cls, d) -> "ModelPoint":
        return cls(float(d["alpha"]), tuple(d["coords"]), bool(d["reduced"]))


def btz_point(tau: float, r: float, theta: float, reduced: bool = False) -> ModelPoint:
    return ModelPoint(0.0, (tau, r, theta), reduced)


def metric_btz(p: ModelPoint) -> np.ndarray:
    """Metric matrix of -2 dtau dr + dr^2 + r^2 dtheta^2 in the (tau, r, theta) basis."""
    if p.alpha != 0.0:
        raise ValueError("BTZ metric requires alpha = 0")
    r = p.radial
    return np.array([[0.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, r * r]])


def dev0(p: ModelPoint) -> np.ndarray:
    """Developing map of the BTZ branched cover into Minkowski space.

    (tau, r, theta) -> (tau + r theta^2/2, tau + r theta^2/2 - r, -r theta).
    """
    if p.alpha != 0.0:
        raise ValueError("dev0 is the BTZ developing map; alpha must be 0")
    tau, r, theta = p.coords
    lead = tau + 0.5 * r * theta * theta
    return np.array([lead, lead - r, -r * theta])


def dev0_array(tau, r, theta) -> np.ndarray:
    """Vectorized dev0 on coordinate arrays; returns shape (..., 3)."""
    tau, r, theta = np.broadcast_arrays(np.asarray(tau, float), np.asarray(r, float), np.asarray(theta, float))
    lead = tau + 0.5 * r * theta * theta
    return np.stack([lead, lead - r, -r * theta], axis=-1)


def in_image_dev0(q, tol: float = 1e-12) -> bool:
    """True when q is in the image {t > x} united with the axis {t = x, y = 0}."""
    q = np.asarray(q, dtype=float)
    gap = q[0] - q[1]
    scale = max(1.0, float(np.abs(q).max()))
    if gap > tol * scale:
        return True
    return abs(gap) <= tol * scale and abs(q[2]) <= tol * scale


def dev0_inverse(q, tol: float = 1e-12) -> ModelPoint:
    """Inverse of dev0 on its image: r = t - x, theta = -y/r, tau = t - r theta^2/2."""
    q = np.asarray(q, dtype=float)
    if not in_image_dev0(q, tol=tol):
        raise NotInImage(f"{q} is not in the developing image")
    r = q[0] - q[1]
    if r <= tol * max(1.0, float(np.abs(q).max())):
        return btz_point(q[0], 0.0, 0.0)
    theta = -q[2] / r
    tau = q[0] - 0.5 * r * theta * theta
    return btz_point(tau, r, theta)


def h_ell(ell: float, p: ModelPoint) -> ModelPoint:
    """Hyperbolic model isometry of the BTZ cover.

    (tau, r, theta) -> (ell tau - ((ell^2-1)/(2 ell)) r, r/ell, ell theta), ell > 0.
    Only defined on the cover: it does not descend to the 2pi-reduced quotient
    unless ell = 1.
    """
    if ell <= 0:
        raise ValueError("ell must be positive")
    if p.alpha != 0.0:
        raise ValueError("h_ell acts on the BTZ cover")
    if p.reduced:
        raise ValueError("h_ell acts on the branched cover (reduced=False)")
    tau, r, theta = p.coords
    return btz_point(ell * tau - ((ell * ell - 1.0) / (2.0 * ell)) * r, r / ell, ell * theta)


def h_ell_coords(ell: float, tau, r, theta):
    """Vectorized h_ell on raw coordinate arrays."""
    tau = np.asarray(tau, float)
    r = np.asarray(r, float)
    theta = np.asarray(theta, float)
    return ell * tau - ((ell * ell - 1.0) / (2.0 * ell)) * r, r / ell, ell * theta


def holonomy_around_axis(alpha: float) -> LinearIsometry:
    """Holonomy of the BTZ developing map around the singular axis (alpha = 0).

    The parabolic g with g . dev0(tau, r, theta) = dev0(tau, r, theta + 2pi),
    obtained by solving the exact linear system on three independent image points.
    """
    if alpha != 0:
        raise ValueError("holonomy_around_axis is the BTZ holonomy; alpha must be 0")
    pts = [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0)]
    before = np.column_stack([dev0(btz_point(*p)) for p in pts])
    after = np.column_stack([dev0(btz_point(t, r, th + TWO_PI)) for (t, r, th) in pts])
    g = after @ np.linalg.inv(before)
    return LinearIsometry(g)


def parabolic_parameter(m: LinearIsometry, frame_generator: np.ndarray | None = None,
                        tol: float = 1e-9) -> float:
    """Parameter s with m = exp(s N), N the axis-holonomy generator scaled to s=2pi.

    ``frame_generator`` defaults to log(holonomy_around_axis(0))/2pi.  Raises
    NotParabolic (via GeometryError) if m is not on that one-parameter group.
    """
    if frame_generator is None:
        frame_generator = axis_deck_generator()
    n0 = frame_generator
    a = m.matrix - np.eye(3)
    loga = a - 0.5 * (a @ a)  # exact log for 3-step nilpotent A - I
    denom = float(np.sum(n0 * n0))
    s = float(np.sum(n0 * loga)) / denom
    # Certify: exp(s N) must reproduce m.
    sn = s * n0
    recon = np.eye(3) + sn + 0.5 * (sn @ sn)
    if float(np.abs(recon - m.matrix).max()) > tol * max(1.0, float(np.abs(m.matrix).max())):
        raise GeometryError("matrix is not on the axis deck one-parameter group")
    return s


_AXIS_DECK_GEN: np.ndarray | None = None


def axis_deck_generator() -> np.ndarray:
    """log(holonomy_around_axis(0)) / 2pi, cached."""
    global _AXIS_DECK_GEN
    if _AXIS_DECK_GEN is None:
        g = holonomy_around_axis(0.0).matrix - np.eye(3)
        _AXIS_DECK_GEN = (g - 0.5 * (g @ g)) / TWO_PI
        _AXIS_DECK_GEN.setflags(write=False)
    return _AXIS_DECK_GEN
