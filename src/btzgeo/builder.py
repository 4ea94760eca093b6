"""Polyhedral globally hyperbolic spacetimes from decorated ideal triangulations.

Each ideal triangle of the input triangulation is decorated at its corners
with a future lightlike vector u and a base point p coming from the puncture
data of an admissible representation.  The chart over a triangle is

    P(t, alpha, beta) = t (alpha . u) + kappa (beta . u) + beta . p

and the actual developing chart blends the two simplex slots through the one
hexagonal blend phi, the rational ramp ``blend``: dev_hat(t, alpha) =
P(t, phi(alpha), alpha).  For kappa large enough the map is an
orientation-preserving immersion with spacelike constant-t leaves; a sampled
certification record stores the margins achieved.

Around each puncture the charts assemble into a fan of half-planes attached
to a lightlike axis; walking the fan gives strictly increasing angles whose
period Theta is the rotational part of the peripheral holonomy.  A spear
neighborhood (cone head plus cylindrical shaft around the axis) is certified
inside the fan prisms in closed form, one prism solve per fan window, which is
what licenses detaching and re-attaching the singular fibers.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .minkowski import G, GeometryError, minkowski_inner
from .models import TWO_PI, axis_deck_generator, dev0_array, dev0_inverse, h_ell_coords
from .representations import (
    AffineRepresentation,
    IdealTriangulationData,
    InvalidTriangulation,
    NotAdmissible,
    PeripheralCheck,
    check_admissible,
    lightlike_to_boundary,
    parse_word,
)
from .serialize import JsonRecord, _real, canonical_dumps, json_mismatch, read

BLEND_THRESHOLD = 2.0 / 3.0
_BLEND_BELOW = float(np.nextafter(BLEND_THRESHOLD, 0.0))  # largest ramp argument


class DegenerateDecoration(GeometryError):
    """Corner lightlike vectors of a triangle are (nearly) linearly dependent."""


class KappaSearchExhausted(GeometryError):
    """Doubling search for kappa ran out before certification succeeded."""


class FaceMismatch(GeometryError):
    """Glued faces disagree beyond tolerance: decoration or gluing data is wrong.
    The message names the worst corner as (triangle, facet, slot)."""


class NonMonotoneAngles(GeometryError):
    """Puncture fan angles failed strict monotonicity or periodicity."""


class SpearNotFound(GeometryError):
    """A fan window breaks the sign conditions of a spear inside its prism."""


def as_barycentric(alpha, tol: float = 1e-12) -> np.ndarray:
    a = np.asarray(alpha, dtype=float)
    if a.shape != (3,) or np.any(a < -tol) or abs(float(a.sum()) - 1.0) > tol:
        raise ValueError(f"not a barycentric point: {alpha}")
    return a


def _blend_pieces(alpha):
    """phi (..., 3) and the pieces its partials reuse: h, sum h, gap, plateau mask
    (..., 1).  The ramp runs on alpha clamped below 2/3, so every entry is
    finite; the plateau rows (seams alpha_i = 2/3 included) then get e_i, which
    is their row of the alpha >= 2/3 mask, as only one weight of a point can
    reach 2/3; plateau is None if no row is on one."""
    a = np.asarray(alpha, dtype=float)
    ac = np.minimum(a, _BLEND_BELOW)
    gap = BLEND_THRESHOLD - ac
    h = ac / gap
    s = (h[..., 0] + h[..., 1] + h[..., 2])[..., None]
    phi = h / s
    plateau = None
    if np.count_nonzero(corner := a >= BLEND_THRESHOLD):
        plateau = (corner[..., 0] | corner[..., 1] | corner[..., 2])[..., None]
        np.copyto(phi, corner, where=plateau)
    return phi, h, s, gap, plateau


def blend(alpha) -> np.ndarray:
    """The hexagon blend phi (..., 3) of points alpha (..., 3): the simplex
    self-map built from the ramp h(x) = x / (2/3 - x).

    phi = e_i on the corner plateau alpha_i >= 2/3; elsewhere phi_i
    proportional to h(alpha_i), renormalized to sum 1.  The ramp vanishes at 0
    (edges are preserved), diverges at 2/3 (continuity with the plateau), and
    the normalized map restricts to a bijection from the open hexagon
    {all alpha_i < 2/3} onto the simplex minus its vertices.
    """
    return _blend_pieces(alpha)[0]


def blend_and_partials(alpha) -> tuple[np.ndarray, np.ndarray]:
    """phi (..., 3) and its unconstrained partials d phi_k / d alpha_j (..., 3, 3),
    zero on the plateaus.  The seams alpha_i = 2/3 take the plateau branch
    (one-sided value), so callers sampling derivatives stay off the seams."""
    phi, h, s, gap, plateau = _blend_pieces(alpha)
    hp = BLEND_THRESHOLD / gap**2
    # d(h_k/S)/da_j = delta_kj hp_j / S - h_k hp_j / S^2, as 0 - term so zeros stay +0
    dphi = h[..., :, None] * hp[..., None, :] / (s**2)[..., None]
    np.subtract(0.0, dphi, out=dphi)
    diagonal = dphi.reshape(dphi.shape[:-2] + (9,))[..., ::4]  # a writeable view
    diagonal += hp / s
    if plateau is not None:
        np.copyto(dphi, 0.0, where=plateau[..., None])
    return phi, dphi


def p_map(u, p, t: float, alpha, beta, kappa: float) -> np.ndarray:
    """The ruled chart of one chart's corners u, p (3, 3): t-scaled alpha slot
    over u, affine beta slot over (kappa u + p)."""
    a = as_barycentric(alpha)
    b = as_barycentric(beta)
    return (t * a + kappa * b) @ u + b @ p


def dev_hat(u, p, t: float, alpha, kappa: float) -> np.ndarray:
    a = as_barycentric(alpha)
    return p_map(u, p, t, blend(a), a, kappa)


def decorate_charts(triangles, dec_u: dict[str, np.ndarray],
                    dec_p: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Corner decorations u, p of every triangle in vertex order, stacked as two
    read-only (S, 3, 3) arrays; DegenerateDecoration unless each u triple is a
    direct basis.  u rows are future lightlike (t component 1 at base corners,
    group translates elsewhere)."""
    u = np.array([[dec_u[v] for v in t] for t in triangles], dtype=float)
    p = np.array([[dec_p[v] for v in t] for t in triangles], dtype=float)
    dets = np.linalg.det(u)
    bad = np.flatnonzero(dets <= 1e-9)
    if bad.size:
        raise DegenerateDecoration(f"triangle {bad[0]}: corner vectors not a direct basis "
                                   f"(det={float(dets[bad[0]])!r})")
    u.setflags(write=False)
    p.setflags(write=False)
    return u, p


def dev_hat_points(u, p, simplex, t, alpha, kappa: float) -> np.ndarray:
    """dev_hat over stacked charts u, p (S, 3, 3) at scale kappa: points
    (..., 3), P(t, phi(alpha), alpha) with the module's blend phi; the chart
    index array ``simplex`` broadcasts against t (...) and alpha (..., 3)."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(alpha, dtype=float)
    row = (t[..., None] * blend(a) + kappa * a)[..., None, :]
    return (row @ u[simplex] + a[..., None, :] @ p[simplex])[..., 0, :]


def _blend_rows(alpha) -> np.ndarray:
    """The rows (..., 3, 3) that dev_hat_jacobians multiplies by u: phi, d phi/da
    and d phi/db, alpha = (1-a-b, a, b)."""
    phi, dphi = blend_and_partials(alpha)
    rows = np.empty(dphi.shape)  # phi, then d phi/da and d phi/db written transposed
    rows[..., 0, :] = phi
    np.subtract(dphi[..., 1:], dphi[..., :1], out=rows[..., 1:, :].swapaxes(-1, -2))
    return rows


def chart_offsets(u, p, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """The per-chart offsets kappa (u_k - u_0) and p_k - p_0, k = 1, 2, of stacked
    charts u, p (S, 3, 3): two (S, 2, 3) arrays, the terms dev_hat_jacobians adds
    to its d/da and d/db columns."""
    return kappa * (u[:, 1:] - u[:, :1]), p[:, 1:] - p[:, :1]


def dev_hat_jacobians(u, offsets, simplex, t, alpha) -> np.ndarray:
    """Jacobians of dev_hat in chart coordinates (t, a, b), alpha = (1-a-b, a, b).

    Stacked charts u (S, 3, 3) and their offsets chart_offsets(u, p, kappa),
    the only way p and kappa enter: a built spacetime holds them as
    ``offsets``.  Chart indices ``simplex`` as in dev_hat_points; t
    broadcasts against the batch shape of simplex and alpha and may widen it,
    so (S, 1, 1) charts x (T, 1) times x (G, 3) alphas give (S, T, G, 3, 3)
    from one blend evaluation per alpha.  Returns (..., 3, 3) with columns
    (d/dt, d/da, d/db): rows phi, d phi/da, d phi/db times u, then the last
    two x t, + kappa (u_k - u_0), + (p_k - p_0), in that order, so every entry
    has the same bits however the batch broadcasts.
    """
    t = np.asarray(t, dtype=float)
    jt = _blend_rows(alpha) @ u[simplex]
    if t.shape != jt.shape[:-2]:
        # copy the t-free products along t's axes into a buffer with the batch
        # axes innermost, so the t passes below run long inner loops
        batch = np.broadcast(jt[..., 0, 0], t).shape
        wide = np.empty((3, 3) + batch).transpose(tuple(range(2, len(batch) + 2)) + (0, 1))
        wide[...] = jt
        jt = wide
    du, dp = offsets
    ab = jt[..., 1:, :]  # the d/da and d/db rows, a view
    ab *= t[..., None, None]
    ab += du[simplex]
    ab += dp[simplex]
    return jt.swapaxes(-1, -2)


def leaf_gram(u, p, t, kappa: float) -> np.ndarray:
    """Inner-product matrix of the constant-t leaf edges; independent of alpha.

    e_k = (t + kappa)(u_{k+1} - u_1) + p_{k+1} - p_1.  Spacelike leaf means
    positive definite.  Charts u, p (..., 3, 3), one or stacked, times t of
    any shape: returns (charts..., t..., 2, 2).
    """
    t = np.asarray(t, dtype=float)
    s = (t + kappa)[..., None]
    lead = np.shape(u)[:-2] + (1,) * t.ndim + (3,)  # chart axes, then t's

    def edge(k):
        return (s * (u[..., k, :] - u[..., 0, :]).reshape(lead)
                + (p[..., k, :] - p[..., 0, :]).reshape(lead))

    e1, e2 = edge(1), edge(2)
    g11 = minkowski_inner(e1, e1)
    g12 = minkowski_inner(e1, e2)
    g22 = minkowski_inner(e2, e2)
    out = np.stack(
        [np.stack([g11, g12], axis=-1), np.stack([g12, g22], axis=-1)], axis=-2
    )
    return out


def _gram_min_eig(g: np.ndarray) -> np.ndarray:
    tr = g[..., 0, 0] + g[..., 1, 1]
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    disc = np.sqrt(np.maximum((0.5 * tr) ** 2 - det, 0.0))
    return 0.5 * tr - disc


@dataclass(frozen=True)
class BuildSettings(JsonRecord):
    """Sampling and tolerance knobs; defaults meet the certification contracts.

    The kappa certificate samples t_count values of t in [t_min, t_max] and
    the bary_n alpha grid.  Face equivariance is not sampled: equiv_tol bounds
    its corner bound at t_max (verify_face_equivariance).  Every certificate
    must rest on a non-empty sample set, so counts are >= 1, tolerances finite
    and > 0 and t_min < t_max; anything else is a ValueError.  No setting
    skips a certificate: every build certifies a fan and a spear per puncture.
    """

    margin: float = 1e-6
    max_doublings: int = 40
    t_min: float = 0.1
    t_max: float = 10.0
    t_count: int = 12
    bary_n: int = 32
    equiv_tol: float = 1e-8

    # range rules; subclasses with more keys extend these tuples
    _POSITIVE = ("margin", "t_min", "t_max", "equiv_tol")
    _COUNTS = ("max_doublings", "t_count", "bary_n")

    def __post_init__(self):
        for name in self._POSITIVE:
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        for name in self._COUNTS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.t_min >= self.t_max:
            raise ValueError("t_min must be < t_max")


@dataclass(frozen=True)
class CertificationRecord(JsonRecord):
    """Sampled immersion/spacelike-leaf certificate for the chosen kappa, and
    the face-equivariance bound (verify_face_equivariance).

    ``equivariance_du`` and ``equivariance_dp`` are the largest corner
    residuals |u_j - m u'_j| and |p_j - m p'_j - b| (max norm) over every
    glued facet; the glued charts then differ by at most
    (t + kappa) du + dp at every t > 0, and ``equivariance_residual`` is that
    bound at t = t_max.
    """

    kappa: float
    kappa_initial: float
    doublings: int
    samples: int
    min_jacobian_det: float
    min_gram_eigenvalue: float
    margin: float
    equivariance_residual: float | None = None
    equivariance_du: float | None = None
    equivariance_dp: float | None = None


def barycentric_grid(n: int) -> np.ndarray:
    """Interior simplex grid with asymmetric half-cell offsets.

    Offsets (0.5, 0.25) keep every coordinate (including the dependent first
    one) away from the blend seams at 2/3 and from the boundary.
    """
    a2, a3 = np.meshgrid((np.arange(n) + 0.5) / n, (np.arange(n) + 0.25) / n, indexing="ij")
    pts = np.stack([1.0 - a2 - a3, a2, a3], axis=-1).reshape(-1, 3)
    return pts[pts[:, 0] > 0.0]


@functools.lru_cache(maxsize=16)
def _kappa_samples(t_min: float, t_max: float, t_count: int, bary_n: int):
    """choose_kappa's sample sets, read-only and computed once per settings
    values: t_count values of t in [t_min, t_max], geometric, and the grid."""
    t_values, grid = np.geomspace(t_min, t_max, t_count), barycentric_grid(bary_n)
    t_values.setflags(write=False)
    grid.setflags(write=False)
    return t_values, grid


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinants of (..., 3, 3) matrices by cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(m, (-2, -1), (0, 1))
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# The screen is within E(t) of LAPACK on every sample at t.  Take one sample,
# the Jacobian J that dev_hat_jacobians gives it, D its LU determinant (sign
# times exp of the summed log pivots) and P = c0 + t (c1 + t c2) its screen value.
# - c, a1 and a2 are rows @ u with the bits of J's t-free products, and J's
#   last two columns are (t a + kappa du) + dp, rounded three times; the
#   screen's columns are exactly t a + b, b = kappa du + dp rounded once.  So
#   every entry of J, and of the screen's matrix, is at most
#   N(t) = max(|c|, t |a| + |kappa du| + |dp|) up to a few ulps (max norms
#   over every chart and alpha), and the two differ by at most 4 ulps of N(t).
# - D is within 3e-12 N(t)^3 of det J anywhere in the double range, and within
#   1e-14 N(t)^3 at chart scales.  The 4-ulp entries move the determinant by
#   at most 9 x 4 x 2^-52 N x 2 N^2 < 2e-14 N(t)^3 (cofactors are at most 2 N^2).
# - The exact matrix's determinant is exactly c2 t^2 + c1 t + c0 of the exact
#   coefficients.  Each coefficient is a cofactor sum of entries whose
#   products, scaled by t^2, t or 1, are at most N(t)^3; rounding the four
#   sums and Horner's rule costs under 1e-13 N(t)^3.
# So |P - D| <= E(t) < 3.2e-12 N(t)^3.  If D is smallest at sample m, at t_m,
# and P at k, at t_k: P_m <= D_m + E(t_m) <= D_k + E(t_m) <= P_k + E(t_k) + E(t_m).
# So m, and every sample tied with it, lies within E(t) + E(t_k) of the
# smallest screen value, t being its own time; the window
# 1e-10 (N(t)^3 + N(t_k)^3) keeps them with a reserve of 31.
_SCREEN_WINDOW = 1e-10


@functools.lru_cache(maxsize=16)
def _grid_tables(grid_bytes: bytes):
    """A certification grid's t-free tables, read-only and computed once per grid
    content: its blend rows (G, 3, 3), its corner plateau points
    (which LAPACK skips after the first t) and those after their corner's
    first (which it skips at the first t too)."""
    grid = np.frombuffer(grid_bytes).reshape(-1, 3)
    plateau = np.flatnonzero(grid.max(axis=1) >= BLEND_THRESHOLD)
    _, first = np.unique(grid[plateau].argmax(axis=1), return_index=True)
    tables = _blend_rows(grid), plateau, np.delete(plateau, first)
    for table in tables:
        table.setflags(write=False)
    return tables


def _certify_once(charts, kappa, t_values, grid, margin):
    """One certification pass over every chart x t x grid sample; returns (ok, stats).

    det J(t) = c2 t^2 + c1 t + c0 per (chart, alpha): J's d/dt column c = phi . u
    is t-free, and its other two columns are a_k t + b_k, with a_k the alpha
    partials' rows times u and b_k = kappa (u_k - u_0) + (p_k - p_0).  One
    rows @ u product (the blend rows cached per grid) gives c, a1 and a2; the
    coefficients are the cofactor determinants of [c; a1 t + b1; a2 t + b2]
    expanded in its last two rows, so c0 = det J(0).  The screen
    c0 + t (c1 + t c2) covers all S x T x G samples, and LAPACK's LU
    determinant confirms the minimum on the samples at t within
    _SCREEN_WINDOW x (N(t)^3 + N(t_k)^3) of the smallest screen value, at t_k
    (N(t) bounds every Jacobian entry at t), their Jacobians from one flat
    dev_hat_jacobians call, which has the bits of any broadcast call.  A
    corner plateau has one Jacobian per (chart, corner) at every t, so LAPACK
    sees only its first sample.  The candidates stay in flat
    (chart, t, alpha) order, which keeps argmin's first-occurrence rule:
    ``min_jacobian_det`` and ``worst`` are those of LAPACK on every sample, bit
    for bit.  If a screen value is not finite, LAPACK runs on every sample.
    Overflow and NaN fail the pass through its minima, never as numpy warnings.

    ``worst`` names the lowest Jacobian sample if the Jacobian fails the
    margin, else the lowest leaf-Gram sample if that fails, else None, which on
    a failed pass means that a minimum is NaN.
    """
    u, p = charts
    rows, plateau, repeats = _grid_tables(grid.tobytes())
    with np.errstate(over="ignore", invalid="ignore"):
        j = rows @ u[:, None]  # (S, G, 3, 3), rows c, a1, a2
        du, dp = chart_offsets(u, p, kappa)
        b = (du + dp)[:, None]  # (S, 1, 2, 3)
        # the determinants of [c; a1; a2], [c; a1; b2], [c; b1; a2] and [c; b1; b2],
        # in a buffer whose 3 x 3 entries are contiguous planes for _det3
        m = np.empty((3, 3, 4) + j.shape[:-2]).transpose(2, 3, 4, 0, 1)
        m[:] = j
        m[1, ..., 2, :] = b[..., 1, :]
        m[2, ..., 1, :] = b[..., 0, :]
        m[3, ..., 1:, :] = b
        c2, c1, c1b, c0 = _det3(m)[:, :, None]  # (S, 1, G) each
        c1 += c1b
        t = t_values[:, None]
        screen = c1 + t * c2
        screen *= t
        screen += c0  # (S, T, G)
        if np.isfinite(screen).all():
            # N(t) per t value, and its cube at the smallest screen value's t
            n = np.maximum(np.abs(j[..., 0, :]).max(), t_values * np.abs(j[..., 1:, :]).max()
                           + np.abs(du).max() + np.abs(dp).max())
            n3 = n * n * n
            low = np.unravel_index(screen.argmin(), screen.shape)
            keep = screen <= screen[low] + _SCREEN_WINDOW * (n3[:, None] + n3[low[1]])
            keep[:, 1:, plateau] = False
            keep[:, 0, repeats] = False
            candidates = np.flatnonzero(keep)
        else:
            candidates = np.arange(screen.size)
        s, i, g = np.unravel_index(candidates, screen.shape)
        dets = np.linalg.det(dev_hat_jacobians(u, (du, dp), s, t_values[i], grid[g]))
        eigs = _gram_min_eig(leaf_gram(u, p, t_values, kappa))
    min_det, min_eig = float(dets.min()), float(eigs.min())
    worst = None
    if min_det <= margin:
        k = np.argmin(dets)
        worst = ("jacobian", int(s[k]), float(t_values[i[k]]), tuple(grid[g[k]].tolist()))
    elif min_eig <= margin:
        s, k = np.unravel_index(np.argmin(eigs), eigs.shape)
        worst = ("gram", int(s), float(t_values[k]))
    return min_det > margin and min_eig > margin, {
        "samples": screen.size,
        "min_jacobian_det": min_det,
        "min_gram_eigenvalue": min_eig,
        "worst": worst,
    }


def choose_kappa(charts, settings: BuildSettings = BuildSettings()) -> CertificationRecord:
    """Doubling search for kappa with a sampled certificate over the stacked
    charts (u, p).

    Starts at 1 + max corner ||p|| and doubles until, on the whole sample
    grid, the chart Jacobian determinant and the smallest leaf-Gram eigenvalue
    both clear the margin.  The grid is every chart x t_count values of t in
    [t_min, t_max] x the bary_n alpha grid: 2 x 12 x 528 = 12,672 samples on
    the builtins.  Each pass screens every sample's determinant from the three
    coefficients of det J(t), a quadratic in t, per (chart, alpha), and LAPACK
    confirms the smallest on the few Jacobians the screen leaves (_certify_once);
    the record is the one that one LAPACK determinant per sample gives.  It is
    a sampled statement: t outside the samples, and t beyond [t_min, t_max],
    are not proved.  A pass with a NaN minimum (a NaN sample, or t_max so
    large that the leaf Gram overflows) ends the search, as no larger kappa
    changes it, and the error says that a sample is not finite.
    """
    kappa0 = 1.0 + max((float(np.linalg.norm(row)) for row in charts[1].reshape(-1, 3)),
                       default=0.0)
    t_values, grid = _kappa_samples(settings.t_min, settings.t_max, settings.t_count,
                                    settings.bary_n)
    kappa = kappa0
    for doubling in range(settings.max_doublings + 1):
        ok, stats = _certify_once(charts, kappa, t_values, grid, settings.margin)
        if ok:
            return CertificationRecord(
                kappa=kappa,
                kappa_initial=kappa0,
                doublings=doubling,
                samples=stats["samples"],
                min_jacobian_det=stats["min_jacobian_det"],
                min_gram_eigenvalue=stats["min_gram_eigenvalue"],
                margin=settings.margin,
            )
        minima = stats["min_jacobian_det"], stats["min_gram_eigenvalue"]
        not_finite = math.isnan(minima[0]) or math.isnan(minima[1])
        if not_finite:
            break  # a NaN in p, or an overflow that a larger kappa only makes worse
        kappa *= 2.0
    worst = (f"a sample is not finite (min_jacobian_det {minima[0]!r}, "
             f"min_gram_eigenvalue {minima[1]!r})" if not_finite else
             f"worst sample {stats['worst']}")
    passes = f"{doubling + 1} pass" + ("es" if doubling else "")
    raise KappaSearchExhausted(
        f"no kappa certified after {doubling} doublings ({passes}) from {kappa0}; {worst}"
    )


@dataclass(frozen=True)
class SingularFiber(JsonRecord):
    """One puncture's singular line: base vertex, supporting lightlike line, holonomy."""

    puncture: str
    base_vertex: str
    line_point: np.ndarray
    line_direction: np.ndarray
    present: bool = True


@dataclass(frozen=True)
class PunctureGeometry:
    """Developed fan around one puncture in axis-adapted coordinates.

    The fan is three read-only arrays over its 2r + 1 entries, two periods
    plus one: ``triangles`` the triangle each entry's corner lies in,
    ``corners`` (2r + 1, 3) the corner points kappa u + p moved into the
    cover, and ``theta`` their strictly increasing angles.  Theta is the
    holonomy angle advance per period.  ell = Theta / 2pi is the hyperbolic
    rescaling that normalizes the period to 2pi.  ``frame`` is the rotation
    about the t axis that takes the (t, x) plane to the axis direction;
    ``frame_inverse`` is its exact inverse G frame^T G.

    The prism tables that _in_fan_prisms reads are derived from the fields on
    construction (so ``replace`` rebuilds them): ``prisms`` (r, 3, 3) with
    columns (axis direction, corner n - anchor, corner n + 1 - anchor) per
    window n, the identity where that matrix is ``singular`` (r,)
    (determinant exactly 0); ``deck_generator`` the axis deck generator in the
    ambient frame, frame N frame^-1.
    """

    puncture: str
    base_vertex: str
    frame: np.ndarray
    frame_inverse: np.ndarray
    line_point: np.ndarray
    line_direction: np.ndarray
    anchor: np.ndarray
    triangles: np.ndarray
    corners: np.ndarray
    theta: np.ndarray
    r: int
    Theta: float
    ell: float
    holonomy_residual: float
    prisms: np.ndarray = field(init=False, repr=False, compare=False)
    singular: np.ndarray = field(init=False, repr=False, compare=False)
    deck_generator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        corners = self.corners[: self.r + 1] - self.anchor
        prisms = np.empty((self.r, 3, 3))
        prisms[..., 0] = self.line_direction
        prisms[..., 1], prisms[..., 2] = corners[:-1], corners[1:]
        singular = np.linalg.det(prisms) == 0.0
        prisms[singular] = np.eye(3)
        deck_generator = self.frame @ axis_deck_generator() @ self.frame_inverse
        for name, table in (("prisms", prisms), ("singular", singular),
                            ("deck_generator", deck_generator)):
            object.__setattr__(self, name, table)
        for table in (self.frame, self.frame_inverse, self.triangles, self.corners, self.theta,
                      prisms, singular, deck_generator):
            table.setflags(write=False)

    @property
    def theta_normalized(self) -> tuple[float, ...]:
        return tuple(v / self.ell for v in self.theta.tolist())

    def to_json(self) -> dict:
        return {
            "puncture": self.puncture,
            "base_vertex": self.base_vertex,
            "r": self.r,
            "theta": self.theta.tolist(),
            "Theta": self.Theta,
            "ell": self.ell,
            "theta_normalized": list(self.theta_normalized),
            "Theta_normalized": TWO_PI,
            "holonomy_residual": self.holonomy_residual,
        }


@dataclass(frozen=True)
class SpearDescriptor(JsonRecord):
    """Certified spear around a singular fiber, in normalized axis coordinates.

    The vertex sits on the axis; the head is the cone piece
    tau = vertex_tau + r/2 over 0 < r < R, the shaft is the cylinder r = R
    from tau = vertex_tau + R/2 upward.  R is 0.99 times the exact largest radius
    in the fan prisms (find_spear); ``samples`` counts its prism solves, 3 per window.
    """

    puncture: str
    vertex_tau: float
    radius: float
    ell: float
    samples: int

    @property
    def ring_tau(self) -> float:
        return self.vertex_tau + 0.5 * self.radius

    def contains(self, point, tol: float = 1e-12) -> bool:
        tau, r, _ = point
        return r <= self.radius + tol and tau - 0.5 * r >= self.vertex_tau - tol

    def to_json(self) -> dict:
        return {
            **super().to_json(),
            "ring_tau": self.ring_tau,
            "head": "tau = vertex_tau + r/2 for 0 < r < radius",
            "shaft": "r = radius, tau >= ring_tau",
        }


# JSON schema of a bundle's envelope.  The input blocks are read by their own
# from_json; every other value is derived and compared with the rebuild's.
_BUNDLE = {
    "format": "spacetime-bundle",
    "version": 1,
    "fibers": {str: {**{f.name: object for f in fields(SingularFiber)}, "present": bool}},
    **dict.fromkeys(("representation", "triangulation", "settings", "decorations", "kappa",
                     "blend", "certification", "fans", "spears"), object),
}


# the fields a PolyhedralSpacetime's derived tables are computed from, and the tables
_DERIVED_FROM = frozenset({"charts", "kappa", "gluing", "triangulation", "offsets", "residuals"})


@dataclass
class PolyhedralSpacetime:
    """A built spacetime: decorated charts, kappa, fibers, certificates.

    ``charts`` holds the corner decorations (u, p) of the triangles as two
    (S, 3, 3) arrays in vertex order, the only copy; the bundle's per-vertex
    ``decorations`` block is read off them.

    Two read-only tables are derived from the fields on construction, so
    ``replace`` rebuilds them: ``offsets``, chart_offsets(u, p, kappa), which
    dev_hat_jacobians takes, and ``residuals``, corner_residuals of the charts
    and gluing, which verify_face_equivariance and the tracer's face bound
    read.  So the fields they derive from, and the tables themselves, cannot
    be assigned once constructed: a copy with new ones is a ``replace``.
    """

    representation: AffineRepresentation
    triangulation: IdealTriangulationData
    gluing: tuple[np.ndarray, np.ndarray]  # gluing_isometries, not serialized
    charts: tuple[np.ndarray, np.ndarray]  # decorate_charts
    kappa: float
    fibers: dict[str, SingularFiber]
    certification: CertificationRecord
    settings: BuildSettings
    fans: dict[str, PunctureGeometry] = field(default_factory=dict)
    spears: dict[str, SpearDescriptor] = field(default_factory=dict)
    offsets: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    residuals: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.offsets = chart_offsets(*self.charts, self.kappa)
        self.residuals = corner_residuals(self)
        for table in (*self.offsets, *self.residuals):
            table.setflags(write=False)

    def __setattr__(self, name, value):
        if name in _DERIVED_FROM and "residuals" in self.__dict__:
            raise AttributeError(f"{name} of a constructed PolyhedralSpacetime cannot be "
                                 "assigned, since offsets and residuals derive from it; "
                                 "use dataclasses.replace")
        object.__setattr__(self, name, value)

    def to_json(self) -> dict:
        u, p = self.charts
        # vertex -> a (triangle, slot) it sits at; all its corners hold the same bits
        corner = {v: (i, j) for i, t in enumerate(self.triangulation.triangles)
                  for j, v in enumerate(t)}
        return {
            "format": "spacetime-bundle",
            "version": 1,
            "representation": self.representation.to_json(),
            "triangulation": self.triangulation.to_json(),
            "decorations": {
                v: {"u": [float(x) for x in u[c]], "p": [float(x) for x in p[c]]}
                for v, c in sorted(corner.items())
            },
            "kappa": self.kappa,
            "blend": {"name": "rational-ramp", "threshold": BLEND_THRESHOLD},
            "certification": self.certification.to_json(),
            "fibers": {k: f.to_json() for k, f in sorted(self.fibers.items())},
            "fans": {k: f.to_json() for k, f in sorted(self.fans.items())},
            "spears": {k: s.to_json() for k, s in sorted(self.spears.items())},
            "settings": self.settings.to_json(),
        }

    def dumps(self) -> str:
        return canonical_dumps(self.to_json())

    @classmethod
    def from_json(cls, d) -> "PolyhedralSpacetime":
        """Rebuild a bundle from its representation, triangulation and settings,
        with each fiber's ``present`` flag taken from the bundle.  Every other
        field is derived, so the bundle must match the rebuild's JSON exactly;
        else a ValueError names the first field that differs."""
        read(d, _BUNDLE, "bundle")
        st = build(AffineRepresentation.from_json(d["representation"], "bundle.representation"),
                   IdealTriangulationData.from_json(d["triangulation"], "bundle.triangulation"),
                   BuildSettings.from_json(d["settings"], "bundle.settings"))
        for name, fiber in st.fibers.items():
            if name in d["fibers"]:
                st.fibers[name] = replace(fiber, present=d["fibers"][name]["present"])
        path = json_mismatch(d, json.loads(st.dumps()), "bundle")
        if path:
            raise ValueError(f"{path} does not match the bundle's rebuild")
        return st


def gluing_isometries(rep: AffineRepresentation, tri: IdealTriangulationData):
    """The gluing table's side words as stacked isometries x = m @ x' + b,
    m (S, 3, 3, 3) and b (S, 3, 3), each distinct word evaluated once; a word
    with a generator the representation lacks is a ValueError."""
    for i, g in enumerate(tri.gluings):
        if missing := sorted({name for name, _ in parse_word(g.word)} - set(rep.linear)):
            raise ValueError(f"gluings.{i}.word {g.word!r}: no generator {missing[0]!r} "
                             "in the representation")
    isos = {w: rep.evaluate(w) for w in {w for row in tri.word for w in row}}
    return (np.array([[isos[w].linear.matrix for w in row] for row in tri.word]),
            np.array([[isos[w].translation for w in row] for row in tri.word]))


def decorate_vertices(
    cusps: tuple[PeripheralCheck, ...], tri: IdealTriangulationData,
    gluing: tuple[np.ndarray, np.ndarray],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], dict[str, str]]:
    """Assign (u, p) to every triangulation vertex, equivariantly.

    Base vertices (one per puncture, located at the fixed boundary point of
    their peripheral) carry (u, line_point) of their cusp's record in
    ``cusps``, the peripheral records of an admissible check_admissible
    report; the rest is propagated through the gluing isometries.  Revisits
    must agree, which pins the input convention: gluing words multiply
    positions on the left.  Returns the decorations and the base vertex
    chosen per puncture.
    """
    base_of: dict[str, str] = {}
    dec_u: dict[str, np.ndarray] = {}
    dec_p: dict[str, np.ndarray] = {}
    for cusp in cusps:
        xi = lightlike_to_boundary(cusp.u)
        candidates = sorted(
            v for v, cls_ in tri.vertex_class.items()
            if cls_ == cusp.name and _boundary_close(tri.positions[v], xi)
        )
        if not candidates:
            raise InvalidTriangulation(
                f"puncture {cusp.name}: no vertex at its fixed boundary point {xi!r}"
            )
        base_of[cusp.name] = v = candidates[0]
        dec_u[v], dec_p[v] = cusp.u, cusp.line_point

    # Identification edges: (target vertex, source vertex, m, b) meaning
    # decoration(target) = m . decoration(source) + b, per glued facet and slot.
    m, b = gluing
    edges = [(tri.triangles[i][j], tri.triangles[n][tri.slot[i, k, j]], m[i, k], b[i, k])
             for (i, k), n in np.ndenumerate(tri.neighbour) for j in range(3) if j != k]

    frontier = sorted(dec_u)
    while frontier:
        nxt = []
        for target, source, m_e, b_e in edges:
            if source in frontier and target not in dec_u:
                dec_u[target] = m_e @ dec_u[source]
                dec_p[target] = m_e @ dec_p[source] + b_e
                nxt.append(target)
        frontier = nxt
    missing = set(tri.vertex_class) - set(dec_u)
    if missing:
        raise InvalidTriangulation(
            f"vertices unreachable from base points: {sorted(missing)}"
        )
    # every glued edge at once, over (triangle i, facet k, slot j != k): the
    # decorations (u, p) of vertex j against (m u', m p' + b) from the neighbour
    up = np.array([[[dec[v] for v in t] for t in tri.triangles] for dec in (dec_u, dec_p)])
    new = (m @ up[:, tri.neighbour[..., None], tri.slot].swapaxes(-1, -2)).swapaxes(-1, -2)
    new[1] += b[:, :, None]
    scale = 1e-8 * np.maximum(1.0, np.abs(new).max(axis=(0, -1)))
    bad = (np.abs(new - up[:, :, None]).max(axis=-1) > scale).any(axis=0) & ~np.eye(3, dtype=bool)
    if bad.any():  # the first failing edge in (i, k, j) order
        i, _, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise InvalidTriangulation(
            f"decoration of vertex {tri.triangles[i][j]} is inconsistent across gluings")
    return dec_u, dec_p, base_of


def _boundary_close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


def corner_residuals(st: PolyhedralSpacetime) -> tuple[np.ndarray, np.ndarray]:
    """Largest entries |u_j - m u'_s(j)| and |p_j - m p'_s(j) - b|, (S, 3, 3)
    over (triangle, facet k, slot j): the corner decorations against the
    neighbour's across facet k, through the gluing x = m x' + b, with s =
    slot[i, k] (0 at j = k, where the facet has no corner)."""
    tri, (u, p), (m, b) = st.triangulation, st.charts, st.gluing
    across = (tri.neighbour[..., None], tri.slot)
    du = u[:, None] - (m @ u[across].swapaxes(-1, -2)).swapaxes(-1, -2)
    dp = p[:, None] - (m @ p[across].swapaxes(-1, -2)).swapaxes(-1, -2) - b[:, :, None]
    off_facet = ~np.eye(3, dtype=bool)
    return (np.where(off_facet, np.abs(du).max(axis=-1), 0.0),
            np.where(off_facet, np.abs(dp).max(axis=-1), 0.0))


def verify_face_equivariance(st: PolyhedralSpacetime) -> float:
    """Bound at t = t_max on dev_hat's mismatch across glued faces; raises FaceMismatch.

    On facet k, alpha_k = phi_k = 0, phi is permutation-equivariant and alpha
    and phi each sum to 1, so at (t, alpha) the two charts differ by
    sum_j (t phi_j + kappa alpha_j) du_j + alpha_j dp_j, j != k, with du_j
    and dp_j the corner residuals ``st.residuals``: at most
    (t + kappa) max|du| + max|dp| at every t > 0, exactly, with no sampling.
    FaceMismatch names the corner with the largest share of the bound.
    """
    du, dp = st.residuals
    scale = st.settings.t_max + st.kappa
    bound = scale * float(du.max()) + float(dp.max())
    if not bound <= st.settings.equiv_tol:  # NaN fails too
        i, k, j = np.unravel_index(np.argmax(scale * du + dp), du.shape)
        raise FaceMismatch(f"glued faces disagree by up to {bound:.3e} at t = "
                           f"{st.settings.t_max!r}; worst corner: triangle {i}, facet {k}, "
                           f"slot {j} (|du| {du[i, k, j]:.3e}, |dp| {dp[i, k, j]:.3e})")
    return bound


def build(
    rep: AffineRepresentation,
    tri: IdealTriangulationData,
    settings: BuildSettings = BuildSettings(),
) -> PolyhedralSpacetime:
    """Full pipeline: admissibility gate, decoration, kappa, verification."""
    report = check_admissible(rep)
    if not report.verdict:
        raise NotAdmissible(report)
    gluing = gluing_isometries(rep, tri)
    dec_u, dec_p, base_of = decorate_vertices(report.peripheral, tri, gluing)
    charts = decorate_charts(tri.triangles, dec_u, dec_p)
    cert = choose_kappa(charts, settings)
    fibers = {c.name: SingularFiber(c.name, base_of[c.name], line_point=c.line_point,
                                    line_direction=c.u) for c in report.peripheral}
    st = PolyhedralSpacetime(
        representation=rep,
        triangulation=tri,
        gluing=gluing,
        charts=charts,
        kappa=cert.kappa,
        fibers=fibers,
        certification=cert,
        settings=settings,
    )
    du, dp = st.residuals
    st.certification = replace(cert, equivariance_residual=verify_face_equivariance(st),
                               equivariance_du=float(du.max()), equivariance_dp=float(dp.max()))
    st.fans = {name: puncture_geometry(st, name) for name in fibers}
    st.spears = {name: find_spear(st, name) for name in fibers}
    return st


def _known_puncture(st: PolyhedralSpacetime, puncture: str) -> None:
    """The check puncture_geometry and find_spear share: a KeyError naming a
    puncture that has no fiber."""
    if puncture not in st.fibers:
        raise KeyError(f"unknown puncture {puncture}")


def _fan_corners(v: np.ndarray, deck_m: np.ndarray, deck_b: np.ndarray,
                 frame_inv: np.ndarray, anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fan corners q = deck_m v + deck_b (k, 3) of the corner points v = kappa
    u + p (k, 3) under their deck isometries (k, 3, 3), (k, 3), and the angles
    (k,) of the directions q - anchor in the rotated standard frame.  Both
    products are stacked (k, 3, 3) @ (k, 3, 1), so each row's arithmetic is
    that of a one-vector product.  Raises NonMonotoneAngles if a direction
    does not point into the future side of the axis."""
    q = (deck_m @ v[:, :, None])[:, :, 0] + deck_b
    w = (frame_inv @ (q - anchor)[:, :, None])[:, :, 0]
    gap = w[:, 0] - w[:, 1]
    if (gap <= 0).any():
        raise NonMonotoneAngles("fan direction does not point into the future side of the axis")
    return q, -w[:, 2] / gap


FAN_TOL = 1e-8  # bound on the spread of a fan's period shifts; 10x it on its holonomy residual


def puncture_geometry(st: PolyhedralSpacetime, puncture: str) -> PunctureGeometry:
    """Fan of half-planes around one singular fiber with strictly increasing angles.

    Walks the gluing table around the puncture: the first triangle gives its
    two non-base corners ordered by angle, each of the 2r - 1 crossings the
    new corner of the triangle entered.  The walk always leaves through the
    most recent corner, so the stored vertex order of triangles is irrelevant.
    Corner decorations map to axis-adapted angles over two periods; Theta is
    the holonomy advance per period and ell = Theta / 2pi normalizes it to 2pi.
    The walk records each entered corner and its deck isometry (products
    taken in walk order); one stacked pass after it develops those corners,
    and the first error in walk order is the one raised.
    """
    _known_puncture(st, puncture)
    fiber = st.fibers[puncture]
    tri = st.triangulation
    base = fiber.base_vertex
    orbit = {v for v, c in tri.vertex_class.items() if c == puncture}
    r = sum(1 for t in tri.triangles for v in t if v in orbit)
    anchor = st.kappa * fiber.line_direction + fiber.line_point
    angle = math.atan2(fiber.line_direction[2], fiber.line_direction[1])
    c, s = math.cos(angle), math.sin(angle)
    frame = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    frame_inv = G @ frame.T @ G  # the exact inverse of an isometry
    m, b = st.gluing
    corner = st.kappa * st.charts[0] + st.charts[1]  # kappa u + p, (S, 3, 3)
    neighbour, slot = tri.neighbour.tolist(), tri.slot.tolist()

    # the walk runs in vertex slots: cur is the puncture's, out the corner it
    # leaves through, and the facet crossed is the third slot
    start = min(i for i, t in enumerate(tri.triangles) if base in t)
    cur_tri, cur = start_state = start, tri.triangles[start].index(base)
    # entry n of the fan is corner slots[n] of triangle tris[n], moved by deck n
    tris, slots = [start, start], [j for j in range(3) if j != cur]
    deck_m, deck_b = np.empty((2 * r + 1, 3, 3)), np.empty((2 * r + 1, 3))
    deck_m[:2], deck_b[:2] = np.eye(3), 0.0
    q, theta = _fan_corners(corner[tris, slots], deck_m[:2], deck_b[:2], frame_inv, anchor)
    if theta[1] < theta[0]:
        slots, q, theta = slots[::-1], q[::-1], theta[::-1]
    out = slots[1]
    for crossing in range(1, 2 * r):
        i, k = cur_tri, 3 - cur - out
        cur_tri = neighbour[i][k]
        entered, cur = slot[i][k][out], slot[i][k][cur]
        if tri.triangles[cur_tri][cur] not in orbit:
            if crossing > 1:  # a corner entered earlier that fails is the first error
                _fan_corners(corner[tris[2:], slots[2:]], deck_m[2:crossing + 1],
                             deck_b[2:crossing + 1], frame_inv, anchor)
            raise NonMonotoneAngles(
                f"fan walk left the vertex orbit of {puncture} at triangle {cur_tri}"
            )
        if tri.word[i][k]:
            deck_m[crossing + 1] = deck_m[crossing] @ m[i, k]
            deck_b[crossing + 1] = deck_m[crossing] @ b[i, k] + deck_b[crossing]
        else:
            deck_m[crossing + 1], deck_b[crossing + 1] = deck_m[crossing], deck_b[crossing]
        if crossing == r:
            period_m, period_b, period_state = deck_m[r + 1], deck_b[r + 1], (cur_tri, cur)
        out = 3 - cur - entered
        tris.append(cur_tri)
        slots.append(out)
    walked = _fan_corners(corner[tris[2:], slots[2:]], deck_m[2:], deck_b[2:], frame_inv, anchor)
    q, theta = np.concatenate([q, walked[0]]), np.concatenate([theta, walked[1]])

    if not (theta[1:] > theta[:-1]).all():  # as diff > 0, for every float
        raise NonMonotoneAngles(
            f"fan angles around {puncture} are not strictly increasing"
        )
    # After r crossings the walk must close up on the starting corner.
    if period_state != start_state:
        raise NonMonotoneAngles(
            f"fan walk around {puncture} did not close after {r} corners"
        )
    thetas = theta.tolist()
    Theta = thetas[r] - thetas[0]
    shifts = [thetas[n + r] - thetas[n] for n in range(len(thetas) - r)]
    if max(shifts) - min(shifts) > FAN_TOL:
        raise NonMonotoneAngles(
            f"fan period around {puncture} is not constant: "
            f"spread {max(shifts) - min(shifts):.3e}"
        )
    # The period must be the peripheral holonomy or its inverse (G m^T G, -(m^-1 b)).
    rep = st.representation
    hol_m, hol_b = rep.linear[puncture].matrix, rep.translations[puncture]
    inv_m = G @ hol_m.T @ G
    residual = min(max(float(np.abs(h_m - period_m).max()), float(np.abs(h_b - period_b).max()))
                   for h_m, h_b in ((hol_m, hol_b), (inv_m, -(inv_m @ hol_b))))
    scale = max(1.0, float(np.abs(period_m).max()))
    if residual > 10 * FAN_TOL * scale:
        raise NonMonotoneAngles(
            f"fan period around {puncture} is not the peripheral holonomy "
            f"(residual {residual:.3e})"
        )
    return PunctureGeometry(
        puncture=puncture,
        base_vertex=base,
        frame=frame,
        frame_inverse=frame_inv,
        line_point=fiber.line_point,
        line_direction=fiber.line_direction,
        anchor=anchor,
        triangles=np.array(tris),
        corners=q,
        theta=theta,
        r=r,
        Theta=Theta,
        ell=Theta / TWO_PI,
        holonomy_residual=residual,
    )


def model_to_minkowski(pg: PunctureGeometry, point) -> np.ndarray:
    """Normalized axis coordinates (..., 3) of (tau, r, theta) -> Minkowski points (..., 3)."""
    q = np.asarray(point, dtype=float)
    x = dev0_array(*h_ell_coords(pg.ell, q[..., 0], q[..., 1], q[..., 2]))
    return x @ pg.frame.T + pg.line_point


def minkowski_to_model(pg: PunctureGeometry, x) -> np.ndarray:
    """Ambient Minkowski points (..., 3) in J+(axis) -> normalized axis coordinates (..., 3).

    The frame is applied as stacked matrix-vector products, so each point's
    arithmetic is that of a one-point call.
    """
    d = np.asarray(x, dtype=float) - pg.line_point
    w = (pg.frame_inverse @ d[..., None])[..., 0]
    return np.stack(h_ell_coords(1.0 / pg.ell, *dev0_inverse(w, tol=1e-9)), axis=-1)


def _in_fan_prisms(pg: PunctureGeometry, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which ambient points x (m, 3) lie in the fan prism of their angle window.

    A point in front of the axis gets its angle lifted into the first period,
    is moved there by the matching deck shift, and is solved for prism
    coordinates (t, a, b) over the window's corner anchors (the prism tables
    of ``pg``).  Returns inside (m,) and info (m, 4) = (window, t, a, b); the
    window is -1 behind the axis and (t, a, b) is NaN there or where the
    window's prism is singular, and both count as outside.
    """
    d = x - pg.anchor
    w = d @ pg.frame_inverse.T
    gap = w[:, 0] - w[:, 1]
    front = gap > 0
    theta = -w[:, 2] / np.where(front, gap, 1.0)
    lo, span = pg.theta[0], pg.theta[pg.r] - pg.theta[0]
    lifted = lo + (theta - lo) % span
    n = np.minimum(np.maximum(np.searchsorted(pg.theta, lifted, side="right") - 1, 0), pg.r - 1)
    sn = (lifted - theta)[:, None, None] * pg.deck_generator
    deck = np.eye(3) + sn + 0.5 * (sn @ sn)
    info = np.empty((len(x), 4))
    info[:, 0] = np.where(front, n, -1)
    tab = info[:, 1:]
    tab[:] = np.linalg.solve(pg.prisms[n], deck @ d[:, :, None])[:, :, 0]
    tab[~front | pg.singular[n]] = np.nan
    t, a, b = tab.T
    # NaN fails every comparison, so undefined coordinates are outside
    inside = (t > 1e-12) & (a >= -1e-9) & (b >= -1e-9) & (a + b <= 1.0 / 3.0 + 1e-9)
    return inside, info


SPEAR_FACTOR = 0.99  # the recorded spear radius over R*; the rest covers rounding
# where find_spear evaluates each window's fitted quadratics: u = -1/4, 0, 1/4
# (the samples) and the window ends; the quadratics' vertices follow
_SPEAR_U = np.array([-0.25, 0.0, 0.25, -0.5, 0.5])
_SPEAR_U.setflags(write=False)


def find_spear(st: PolyhedralSpacetime, puncture: str) -> SpearDescriptor:
    """The spear of radius SPEAR_FACTOR * R*, R* the exact largest radius whose
    head cone lies in the fan prisms at every angle.

    The vertex is the developed start of the fiber (tau = kappa / ell).  On the
    head cone tau = vertex_tau + r/2 the prism coordinates (t, a, b) at angle
    theta are r B(theta), B quadratic on each fan window (so is dev0; the deck
    shift and the prism solve are linear), fitted from one _in_fan_prisms call
    at r = 1 and 3 angles per window; ``samples`` counts them.  Where t > 0,
    a >= 0 and b >= 0 (in the band _in_fan_prisms uses) at the window ends and
    the quadratics' vertices, they hold on the closed window, and a + b <= 1/3
    for r <= R* = 1 / (3 max (B_a + B_b)).  The rest of the spear is head-cone
    points plus positive multiples of the axis direction, which keep prism
    points inside.  A sample in another window (the fit keeps its index exact)
    or a broken sign condition raises SpearNotFound naming its (tau, r, theta)
    and (window, t, a, b).
    """
    _known_puncture(st, puncture)
    pg = st.fans[puncture]
    r = pg.r
    vertex_tau = TWO_PI / pg.Theta * st.kappa
    ends = pg.theta[: r + 1] / pg.ell
    mid, width = 0.5 * (ends[:-1] + ends[1:]), ends[1:] - ends[:-1]
    pts = np.empty((r, 3, 3))
    pts[..., 0], pts[..., 1] = vertex_tau + 0.5, 1.0
    pts[..., 2] = mid[:, None] + width[:, None] * _SPEAR_U[:3]
    _, info = _in_fan_prisms(pg, model_to_minkowski(pg, pts.reshape(-1, 3)))
    b1, b2, b3 = info.reshape(r, 3, 4).swapaxes(0, 1)
    # (window, t, a, b) = c0 + c1 u + c2 u^2, u = (theta - mid) / width in [-1/2, 1/2]
    c0, c1, c2 = b2, 2.0 * (b3 - b1), 8.0 * (b1 - 2.0 * b2 + b3)
    # the vertices of t, a, b and a + b, clipped to the window
    q1, q2 = (np.concatenate([c[:, 1:], c[:, 2:3] + c[:, 3:]], axis=1) for c in (c1, c2))
    u = np.empty((r, 9))
    u[:, :5], u[:, 5:] = _SPEAR_U, 0.5
    np.divide(-q1, 2.0 * q2, out=u[:, 5:], where=q2 != 0.0)
    np.minimum(np.maximum(u[:, 5:], -0.5), 0.5, out=u[:, 5:])
    tab = c0[:, None] + (c1[:, None] + c2[:, None] * u[..., None]) * u[..., None]
    window, t, a, b = tab.transpose(2, 0, 1)
    ok = (window == np.arange(r)[:, None]) & (t > 1e-12) & (a >= -1e-9) & (b >= -1e-9)
    if not ok.all():
        n, k = np.argwhere(~ok)[0]
        raise SpearNotFound(f"no spear radius certified around {puncture}: at (tau, r, theta) = "
                            f"{(vertex_tau + 0.5, 1.0, float(mid[n] + u[n, k] * width[n]))}, "
                            f"(window, t, a, b) = {tuple(tab[n, k].tolist())}")
    return SpearDescriptor(puncture, vertex_tau, float(SPEAR_FACTOR / (3.0 * (a + b).max())),
                           pg.ell, samples=3 * r)


def strip_btz(st: PolyhedralSpacetime) -> PolyhedralSpacetime:
    """Mark every singular fiber absent; charts then cover only radial > 0."""
    out = copy.copy(st)
    out.fibers = {k: replace(f, present=False) for k, f in st.fibers.items()}
    return out


def extend_btz(st: PolyhedralSpacetime) -> tuple[PolyhedralSpacetime, dict[str, str]]:
    """Re-attach every absent fiber; report per puncture.  The build certified a
    spear on each fiber's fan at this kappa, and that spear licenses it."""
    out = copy.copy(st)
    out.fibers = {k: replace(f, present=True) for k, f in st.fibers.items()}
    return out, {k: "already-present" if f.present else "reattached"
                 for k, f in st.fibers.items()}


def mesh_data(st: PolyhedralSpacetime, t_values, resolution: int):
    """Sampled leaf meshes: vertices (n, 3) and triangular faces (m, 3), deterministic.
    A resolution that is not an integer, or a t value that is not a real
    number (bools and strings included), is a ValueError; so is a leaf whose
    vertices overflow (t near the largest float), which the message names."""
    if isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    t_values = [_real("t_values", t) for t in t_values]
    if not t_values or not all(math.isfinite(t) and t > 0 for t in t_values):
        raise ValueError("t values must be finite, positive and non-empty")
    res = int(resolution)
    ij = [(i, j) for i in range(res + 1) for j in range(res + 1 - i)]
    index_of = {key: n for n, key in enumerate(ij)}
    bary = np.array([(i / res, j / res, (res - i - j) / res) for i, j in ij])
    cell = []  # faces of one leaf triangle, in local vertex indices
    for i in range(res):
        for j in range(res - i):
            a, b, c = index_of[(i, j)], index_of[(i + 1, j)], index_of[(i, j + 1)]
            cell.append((a, b, c))
            if i + j < res - 1:
                cell.append((b, index_of[(i + 1, j + 1)], c))
    # one kernel call over leaf x simplex x grid point, in that order
    n_charts = len(st.triangulation.triangles)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        verts = dev_hat_points(*st.charts, np.arange(n_charts)[:, None],
                               np.array(t_values)[:, None, None], bary, st.kappa)
    finite = np.isfinite(verts).reshape(len(t_values), -1).all(axis=1)
    if not finite.all():
        t = t_values[int(np.argmin(finite))]
        raise ValueError(f"leaf t = {t!r} develops vertices that are not finite")
    faces = [tuple(k * len(bary) + v for v in f)
             for k in range(len(t_values) * n_charts) for f in cell]
    return verts.reshape(-1, 3), faces


def export_mesh(st: PolyhedralSpacetime, t_values, resolution: int, path) -> tuple[int, int]:
    """Write the sampled leaves as OBJ (``.obj``) or JSON (anything else);
    returns the vertex and face counts written."""
    from pathlib import Path

    verts, faces = mesh_data(st, t_values, resolution)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".obj":
        lines = ["# polyhedral spacetime leaves (x y t per vertex)"]
        lines += [f"v {x!r} {y!r} {t!r}" for t, x, y in verts.tolist()]
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
        path.write_text("\n".join(lines) + "\n")
    else:
        payload = {
            "format": "leaf-mesh",
            "t_values": [float(t) for t in t_values],
            "resolution": int(resolution),
            "vertices": [[float(c) for c in v] for v in verts],
            "faces": [list(f) for f in faces],
        }
        path.write_text(canonical_dumps(payload))
    return len(verts), len(faces)
