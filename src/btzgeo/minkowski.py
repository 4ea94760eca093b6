"""Linear algebra of the flat Lorentzian plane of signature (-,+,+).

Vectors are triples (t, x, y) with quadratic form Q(v) = -t^2 + x^2 + y^2.
Linear isometries are the orthochronous special orthogonal matrices of Q
(3x3, M^T G M = G with G = diag(-1,1,1), det M = 1, M[0,0] > 0), checked by
one validator over stacked matrices; an affine isometry x -> M x + b is the
pair of arrays (M, b), and words in a representation's generators are
evaluated as such pairs by ``AffineRepresentation.evaluate``.  Everything
here is plain numpy; tolerances are module constants shared by the whole
package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Signature matrix of the quadratic form.
G = np.diag([-1.0, 1.0, 1.0])
G.setflags(write=False)

ISOMETRY_TOL = 1e-9
# The largest entry M an isometry takes: below it M^T G M (entries <= 3 M^2)
# and det M (<= 8 M^3 through LU with partial pivoting) stay finite.
ISOMETRY_MAX_ENTRY = 1e100
LIGHTLIKE_TOL = 1e-9  # the package's one light-cone band: |Q(v)| <= LIGHTLIKE_TOL |v|^2
TRACE_BAND = 1e-7
TANGENT_TOL = 1e-9
FIXED_LINE_TOL = 1e-9


class GeometryError(Exception):
    """Base class for mathematical failures in this package."""


class InvalidIsometry(GeometryError):
    """Matrix failed the isometry/orientation checks."""


class NotParabolic(GeometryError):
    """Operation requires a parabolic linear part."""


class NoFixedPoints(GeometryError):
    """Affine isometry has no fixed points."""


def _as_vec(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


class CausalClass(enum.Enum):
    ZERO = "zero"
    SPACELIKE = "spacelike"
    FUTURE_TIMELIKE = "future_timelike"
    PAST_TIMELIKE = "past_timelike"
    FUTURE_LIGHTLIKE = "future_lightlike"
    PAST_LIGHTLIKE = "past_lightlike"


class CausalOrder(enum.Enum):
    """Outcome of an order query `p ? q`; the reverse order is the caller's swap."""

    EQUAL = "equal"
    CHRONOLOGICAL = "chronological"  # p << q, strict timelike future
    CAUSAL_ONLY = "causal_only"      # p <= q but not p << q
    INCOMPARABLE = "incomparable"


def quadratic_form(v) -> float:
    """Q(v) = -t^2 + x^2 + y^2."""
    a = np.asarray(v, dtype=float)
    return float(-a[..., 0] ** 2 + a[..., 1] ** 2 + a[..., 2] ** 2) if a.ndim == 1 else (
        -a[..., 0] ** 2 + a[..., 1] ** 2 + a[..., 2] ** 2
    )


def minkowski_inner(u, v):
    """Polarization <u|v> = -u_t v_t + u_x v_x + u_y v_y."""
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    res = -a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]
    return float(res) if np.ndim(res) == 0 else res


def causal_class(v) -> CausalClass:
    """Classify v by sign of Q(v) and of t; |Q(v)| <= LIGHTLIKE_TOL |v|^2 is lightlike."""
    a = _as_vec(v)
    n2 = float(a @ a)
    if math.sqrt(n2) <= LIGHTLIKE_TOL:
        return CausalClass.ZERO
    q = quadratic_form(a)
    if abs(q) <= LIGHTLIKE_TOL * n2:
        return CausalClass.FUTURE_LIGHTLIKE if a[0] > 0 else CausalClass.PAST_LIGHTLIKE
    if q > 0:
        return CausalClass.SPACELIKE
    return CausalClass.FUTURE_TIMELIKE if a[0] > 0 else CausalClass.PAST_TIMELIKE


def causal_relation(p, q) -> CausalOrder:
    """Order of p against q in Minkowski space: classify q - p."""
    cls = causal_class(_as_vec(q) - _as_vec(p))
    if cls is CausalClass.ZERO:
        return CausalOrder.EQUAL
    if cls is CausalClass.FUTURE_TIMELIKE:
        return CausalOrder.CHRONOLOGICAL
    if cls is CausalClass.FUTURE_LIGHTLIKE:
        return CausalOrder.CAUSAL_ONLY
    return CausalOrder.INCOMPARABLE


def first_non_isometry(m: np.ndarray) -> tuple[int, str] | None:
    """(index, reason) of the first of W stacked matrices (W, 3, 3) that is
    not an orthochronous special linear isometry, or None.

    The checks, in order: finite entries, entries within ISOMETRY_MAX_ENTRY,
    M^T G M = G and det M = 1 within tolerances scaled by max(1, M^2), M the
    largest entry, and M[0,0] > 0.  Only matrices that pass the first two
    are squared or multiplied, so no check overflows."""
    largest = np.abs(m).max(axis=(1, 2), initial=0.0)  # NaN and inf propagate
    finite = np.isfinite(largest)
    bounded = largest <= ISOMETRY_MAX_ENTRY
    if not bounded.all():
        m = np.where(bounded[:, None, None], m, np.eye(3))
    scale = np.maximum(1.0, np.where(bounded, largest, 1.0) ** 2)
    checks = (finite, bounded,
              np.abs(m.transpose(0, 2, 1) @ G @ m - G).max(axis=(1, 2)) <= ISOMETRY_TOL * scale,
              np.abs(np.linalg.det(m) - 1.0) <= 1e-6 * scale, m[:, 0, 0] > 0)
    passed = checks[1] & checks[2] & checks[3] & checks[4]  # bounded entries are finite
    if passed.all():
        return None
    i = int(np.argmin(passed))
    reasons = ("non-finite entries",
               f"entry magnitude {float(largest[i])!r} exceeds {ISOMETRY_MAX_ENTRY!r}",
               "M^T G M != G", "det != 1", "time orientation reversed (M[0,0] <= 0)")
    return i, next(reason for ok, reason in zip(checks, reasons) if not ok[i])


@dataclass(frozen=True, eq=False)
class LinearIsometry:
    """Orthochronous special linear isometry; validity is checked at
    construction by first_non_isometry, so an entry beyond ISOMETRY_MAX_ENTRY
    is refused before any product is taken.  Equality and hash are identity."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InvalidIsometry(f"expected 3x3 matrix, got {m.shape}")
        if (bad := first_non_isometry(m[None])) is not None:
            raise InvalidIsometry(bad[1])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def to_json(self) -> list:
        return [[float(x) for x in row] for row in self.matrix]


class IsometryKind(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class IsometryClassification:
    kind: IsometryKind
    angle: float | None = None  # set for elliptic only


def classify_isometry(m: LinearIsometry) -> IsometryClassification:
    """Classify by trace: 1+2cos(angle) elliptic, 3 parabolic/identity, >3 hyperbolic.

    Inside the ambiguous band |trace-3| <= TRACE_BAND the call is resolved by
    norms: identity when ||A-I|| is tiny, parabolic when ||(A-I)^2|| is
    macroscopic, else a near-identity elliptic.  Boundary cases at the scale of
    the band itself are inherently ambiguous in floating point.
    """
    a = m.matrix
    tr = float(np.trace(a))
    n = a - np.eye(3)
    if tr > 3.0 + TRACE_BAND:
        return IsometryClassification(IsometryKind.HYPERBOLIC)
    if abs(tr - 3.0) <= TRACE_BAND:
        norm_n = float(np.linalg.norm(n))
        if norm_n <= ISOMETRY_TOL:
            return IsometryClassification(IsometryKind.IDENTITY)
        if float(np.linalg.norm(n @ n)) > 1e-6 * max(1.0, norm_n):
            return IsometryClassification(IsometryKind.PARABOLIC)
        angle = math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0)))
        return IsometryClassification(IsometryKind.ELLIPTIC, angle=angle)
    angle = math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0)))
    return IsometryClassification(IsometryKind.ELLIPTIC, angle=angle)


def fixed_lightlike_direction(m: LinearIsometry) -> np.ndarray:
    """Future lightlike eigenvector of a parabolic, normalized to t component 1,
    from one SVD and without classifying m: NotParabolic when the kernel of
    A - I is not a lightlike line."""
    n = m.matrix - np.eye(3)
    # The eigenspace for eigenvalue 1 is the kernel of A - I (rank 2 for parabolics).
    _, _, vt = np.linalg.svd(n)
    u = vt[-1]
    if abs(u[0]) < 1e-12:
        raise NotParabolic("degenerate fixed direction")
    u = u / u[0]
    q = quadratic_form(u)
    if abs(q) > 1e-6 * max(1.0, float(u @ u)):
        raise NotParabolic("fixed direction is not lightlike")
    return u


def is_tangent(tau: np.ndarray, u: np.ndarray) -> bool:
    """True when the translation part tau is Minkowski-orthogonal to the
    parabolic fixed direction u of the linear part."""
    scale = max(1.0, float(np.linalg.norm(tau)) * float(np.linalg.norm(u)))
    return abs(minkowski_inner(tau, u)) <= TANGENT_TOL * scale


def fixed_line(linear: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Minimum-Euclidean-norm point of the fixed line of x -> A x + tau, A =
    linear a parabolic and tau tangent; the line's direction is the fixed
    lightlike vector.

    Solves (A - I) x = -tau.  Raises NoFixedPoints when the system is
    inconsistent (non-tangent part).
    """
    n = linear - np.eye(3)
    x0, *_ = np.linalg.lstsq(n, -tau, rcond=None)
    resid = float(np.linalg.norm(n @ x0 + tau))
    if resid > FIXED_LINE_TOL * max(1.0, float(np.linalg.norm(tau))):
        raise NoFixedPoints(f"no fixed points (residual {resid:.3e})")
    return x0


def rotation_about_t(theta: float) -> LinearIsometry:
    """Rotation of the spacelike plane by theta, fixing the t axis."""
    c, s = math.cos(theta), math.sin(theta)
    return LinearIsometry(np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]]))


def boost_x(chi: float) -> LinearIsometry:
    """Boost of rapidity chi in the (t, x) plane."""
    ch, sh = math.cosh(chi), math.sinh(chi)
    return LinearIsometry(np.array([[ch, sh, 0], [sh, ch, 0], [0, 0, 1.0]]))
