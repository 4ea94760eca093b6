"""Surface group presentations and their affine Lorentzian representations.

A punctured-surface group has generators a1, b1, ..., ag, bg, c1, ..., cs and
the single relator [a1,b1]...[ag,bg] c1...cs.  A representation assigns each
generator a linear isometry of the Minkowski plane and a translation part; the
translation parts form a cocycle: tau(gh) = tau(g) + rho(g) tau(h).  Its one
word engine, ``AffineRepresentation.evaluate``, takes a list of words and
returns their images as stacked arrays (m, b), x -> m x + b, with one
isometry check per batch.  A build makes one such call, over the relator and
its gluing table's words; the peripheral holonomies its fans check are rows
of the representation's letter table, validated when it was made.

Admissibility, the gate for the spacetime builder, requires: relator residual
at float precision; every peripheral image parabolic; every peripheral
translation part tangent (Minkowski-orthogonal to the fixed lightlike
direction of its linear part).  check_admissible keeps one record per cusp,
which also carries what the builder decorates the cusp with: the fixed
lightlike direction u and a point of the affine image's fixed line.
Discreteness has no desk-scale algorithm and is only certified for the
builtin examples, which come from classical arithmetic groups.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .minkowski import (
    G,
    ISOMETRY_MAX_ENTRY,
    GeometryError,
    InvalidIsometry,
    IsometryKind,
    LinearIsometry,
    classify_isometry,
    first_non_isometry,
    fixed_lightlike_direction,
    fixed_line,
    is_tangent,
    minkowski_inner,
)
from .serialize import Default, JsonRecord, constructing, read

RELATOR_TOL = 1e-9

# JSON schemas of a representation, its generator entry and a triangulation;
# the generator names a representation needs depend on its genus and punctures.
_REPRESENTATION = {"genus": int, "punctures": int, "generators": {str: object}}
_GENERATOR = {
    "sl2": Default(((float,) * 2,) * 2, None),
    "so12": Default(((float,) * 3,) * 3, None),
    "translation": Default((float,) * 3, (0.0, 0.0, 0.0)),
}
_SIDE = (int, (str, str))
_TRIANGULATION = {
    "triangles": [(str, str, str)],
    "gluings": [{"left": _SIDE, "right": _SIDE, "word": str}],
    "vertex_class": {str: str},
    "positions": {str: {float, "inf"}},
}


class UnknownGenerator(GeometryError):
    """Word uses a generator the representation does not define."""


class NotUnimodular(GeometryError):
    """2x2 matrix is not in SL(2, R)."""


class NotAdmissible(GeometryError):
    """Representation failed the admissibility gate."""

    def __init__(self, report: "AdmissibilityReport"):
        super().__init__(f"representation not admissible: {report.summary()}")
        self.report = report


SL2_MAX_ENTRY = math.sqrt(ISOMETRY_MAX_ENTRY / 2)  # see sl2_to_so12

# sl2(R) basis orthonormal for the form Q(X) = -det(X) of signature (-,+,+):
# E0 timelike (rotation generator), E1 and E2 spacelike.
SL2_BASIS = (
    np.array([[0.0, -1.0], [1.0, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
)


def _sl2_coords(x: np.ndarray) -> np.ndarray:
    """Coordinates of a traceless 2x2 matrix in the SL2_BASIS frame."""
    a, b, c = x[0, 0], x[0, 1], x[1, 0]
    return np.array([0.5 * (c - b), a, 0.5 * (b + c)])


def sl2_to_so12(m) -> LinearIsometry:
    """Adjoint action of SL(2,R) on sl2, expressed in the fixed orthonormal basis.

    The basis (E0, E1, E2) above is pinned for bit-reproducibility; the kernel
    is {+-I} and the image is the orthochronous group.  A matrix with an entry
    beyond SL2_MAX_ENTRY = sqrt(ISOMETRY_MAX_ENTRY / 2), about 7.1e49, in
    absolute value, or a non-finite one, is NotUnimodular before any product is
    taken: below it the determinant stays finite, and at det 1 the image's
    entries, at most 2 M^2, stay within ISOMETRY_MAX_ENTRY.  det must then be
    within min(0.5, 1e-9 max(1, M^2)) of 1: the relative band covers the
    rounding of det, and the cap keeps det 0 out of it once M^2 > 5e8.
    """
    m = np.asarray(m, dtype=float)
    largest = float(np.abs(m).max())
    if not largest <= SL2_MAX_ENTRY:
        raise NotUnimodular(
            f"entry magnitude {largest!r} is not finite or exceeds {SL2_MAX_ENTRY!r}")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if not abs(det - 1.0) <= min(0.5, 1e-9 * max(1.0, largest ** 2)):
        raise NotUnimodular(f"det = {float(det)!r}")
    minv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    cols = [_sl2_coords(m @ e @ minv) for e in SL2_BASIS]
    return LinearIsometry(np.column_stack(cols))


def boundary_to_lightlike(xi: float) -> np.ndarray:
    """Boundary point of the upper half-plane -> future lightlike vector, t = 1.

    xi = infinity maps to (1, 0, -1); finite xi to (1, 2xi, 1-xi^2)/(1+xi^2)
    componentwise on the spatial slots.  Equivariant for the Moebius action
    through sl2_to_so12 up to positive scale.
    """
    if math.isinf(xi):
        return np.array([1.0, 0.0, -1.0])
    d = 1.0 + xi * xi
    return np.array([1.0, 2.0 * xi / d, (1.0 - xi * xi) / d])


def lightlike_to_boundary(u) -> float:
    """Inverse of boundary_to_lightlike on t-normalized future lightlike vectors."""
    u = np.asarray(u, dtype=float)
    v = u / u[0]
    if abs(1.0 + v[2]) < 1e-12:
        return math.inf
    return float(v[1] / (1.0 + v[2]))


@dataclass(frozen=True)
class SurfaceGroupPresentation:
    """Genus g, s punctures, negative Euler characteristic 2 - 2g - s < 0."""

    genus: int
    punctures: int

    def __post_init__(self):
        if self.genus < 0 or self.punctures < 1:
            raise ValueError("need genus >= 0 and at least one puncture")
        if 2 - 2 * self.genus - self.punctures >= 0:
            raise ValueError("Euler characteristic must be negative")

    @property
    def generator_names(self) -> list[str]:
        return list(self._generator_names)

    @functools.cached_property
    def _generator_names(self) -> tuple[str, ...]:
        """Made once, so representations share their translations' keys."""
        return tuple(self.iter_generator_names())

    def iter_generator_names(self):
        """a1, b1, ..., ag, bg, c1, ..., cs, one name at a time."""
        yield from (f"{x}{i}" for i in range(1, self.genus + 1) for x in "ab")
        yield from (f"c{j}" for j in range(1, self.punctures + 1))

    @property
    def peripheral_names(self) -> list[str]:
        return [f"c{j}" for j in range(1, self.punctures + 1)]

    @functools.cached_property
    def letters(self) -> dict[str, int]:
        """Letter -> row of a representation's letter table (0 is the identity)."""
        names = self.generator_names
        return {**{name: k for k, name in enumerate(names, 1)},
                **{f"{name}^-1": k for k, name in enumerate(names, len(names) + 1)}}

    @property
    def free_generator_names(self) -> list[str]:
        """All generators except the last peripheral, which the relator forces."""
        return self.generator_names[:-1]

    @property
    def relator(self) -> str:
        parts = []
        for i in range(1, self.genus + 1):
            parts += [f"a{i}", f"b{i}", f"a{i}^-1", f"b{i}^-1"]
        parts += self.peripheral_names
        return " ".join(parts)


def parse_word(word: str) -> list[tuple[str, int]]:
    """Split a whitespace-separated word into (generator, +-1) letters."""
    letters = []
    for tok in word.split():
        if tok.endswith("^-1"):
            letters.append((tok[:-3], -1))
        else:
            letters.append((tok, 1))
    return letters


def invert_word(word: str) -> str:
    return " ".join(
        (name if e == -1 else f"{name}^-1") for name, e in reversed(parse_word(word))
    )


@functools.lru_cache(maxsize=16)
def _letter_images(linear: tuple[LinearIsometry, ...]) -> np.ndarray:
    """I, the linear parts and their inverses G m^T G, stacked read-only and
    shared by representations that differ only in their translations."""
    mats = [g.matrix for g in linear]
    images = np.array([np.eye(3), *mats, *(G @ m.T @ G for m in mats)])
    images.setflags(write=False)
    return images


@dataclass(frozen=True)
class AffineRepresentation:
    """Generator images: linear parts (validated isometries) and translation
    parts (read-only arrays), and the letter table derived from them, indexed
    by ``presentation.letters``: ``images`` (2m + 1, 3, 3) and ``shifts``
    (2m + 1, 3), row 0 the identity (I, 0), rows 1..m the generators (m, b)
    and rows m + 1..2m their inverses (G m^T G, -(G m^T G) b).  Frozen, so
    the table cannot go stale."""

    presentation: SurfaceGroupPresentation
    linear: dict[str, LinearIsometry]
    translations: dict[str, np.ndarray] = field(default_factory=dict)
    sl2: dict[str, np.ndarray] | None = None
    discreteness_certified: bool = False
    images: np.ndarray = field(init=False, repr=False, compare=False)
    shifts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = self.presentation.generator_names
        trs = [np.array(self.translations.get(name, np.zeros(3)), dtype=float) for name in names]
        for name, v in zip(names, trs):
            # the bound of an isometry's entries, so no norm of a translation overflows
            if v.shape != (3,) or not np.abs(v).max() <= ISOMETRY_MAX_ENTRY:
                raise ValueError(f"bad translation for {name}")
        if self.sl2 is not None:
            for name, m in self.sl2.items():
                img = sl2_to_so12(m)
                if np.abs(img.matrix - self.linear[name].matrix).max() > 1e-8:
                    raise ValueError(f"sl2 lift of {name} disagrees with its so12 image")
        images = _letter_images(tuple(self.linear[name] for name in names))
        shifts = np.array([np.zeros(3), *trs,
                           *(-(inv @ b) for inv, b in zip(images[len(names) + 1:], trs))])
        shifts.setflags(write=False)
        # the translation parts are views of the generators' rows
        object.__setattr__(self, "translations", dict(zip(names, shifts[1:len(names) + 1])))
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "shifts", shifts)

    def evaluate(self, words: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """rho(w), x -> m x + b, of each of W words as read-only stacked arrays
        m (W, 3, 3) and b (W, 3), with rho(xy) = rho(x) rho(y).

        L stacked steps b <- m @ b_k + b, m <- m @ m_k run from (I, 0), L the
        longest word's length; shorter words are padded in front with row 0,
        which keeps (I, 0), so each product has its own letters' chained bits.
        One first_non_isometry call validates the W products (an overflow is
        not finite) and InvalidIsometry names the first failing word.
        """
        if isinstance(words, str):
            raise TypeError("evaluate takes a list of words, not one str")
        try:
            rows = [[self.presentation.letters[tok] for tok in word.split()] for word in words]
        except KeyError as e:
            raise UnknownGenerator(parse_word(e.args[0])[0][0]) from None
        n = max(map(len, rows), default=0)
        index = np.array([[0] * (n - len(r)) + r for r in rows], np.intp).reshape(len(rows), n)
        out_m, out_b = self.images[[0] * len(rows)], self.shifts[[0] * len(rows)]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in index.T:
                out_b = (out_m @ self.shifts[k][..., None])[..., 0] + out_b
                out_m = out_m @ self.images[k]
        if (bad := first_non_isometry(out_m)) is not None:
            raise InvalidIsometry(f"word {words[bad[0]]!r}: {bad[1]}")
        out_m.setflags(write=False)
        out_b.setflags(write=False)
        return out_m, out_b

    def evaluate_linear(self, word: str) -> LinearIsometry:
        return LinearIsometry(self.evaluate([word])[0][0])

    def with_translations(self, translations: dict[str, np.ndarray]) -> "AffineRepresentation":
        """The same linear parts, shared, with new translation parts."""
        return AffineRepresentation(self.presentation, self.linear, translations, sl2=self.sl2,
                                    discreteness_certified=self.discreteness_certified)

    def to_json(self) -> dict:
        gens = {}
        for name in self.presentation.generator_names:
            entry = {
                "so12": self.linear[name].to_json(),
                "translation": [float(x) for x in self.translations[name]],
            }
            if self.sl2 is not None and name in self.sl2:
                entry["sl2"] = [[float(x) for x in row] for row in self.sl2[name]]
            gens[name] = entry
        return {
            "genus": self.presentation.genus,
            "punctures": self.presentation.punctures,
            "generators": gens,
        }

    @classmethod
    def from_json(cls, d, path: str = "") -> "AffineRepresentation":
        """Read a representation; when both are given, the so12 image is the
        linear part and must agree with the sl2 lift.  Fewer generators than
        2 genus + punctures is a ValueError naming the first missing one,
        found before any list of names is built, so a huge genus or puncture
        count costs no memory."""
        d = read(d, _REPRESENTATION, path)
        with constructing(path, _REPRESENTATION):
            pres = SurfaceGroupPresentation(d["genus"], d["punctures"])
        at = f"{path}.generators" if path else "generators"
        if (need := 2 * pres.genus + pres.punctures) > (got := len(d["generators"])):
            missing = next(n for n in pres.iter_generator_names() if n not in d["generators"])
            raise ValueError(f"{at}.{missing} is missing: genus {pres.genus} and punctures "
                             f"{pres.punctures} need {need} generators, got {got}")
        gens = read(d["generators"], dict.fromkeys(pres.generator_names, _GENERATOR), at)
        linear = {}
        for name, g in gens.items():
            if g["so12"] is None and g["sl2"] is None:
                raise ValueError(f"{at}.{name} needs an sl2 or so12 matrix")
            linear[name] = (sl2_to_so12(g["sl2"]) if g["so12"] is None
                            else LinearIsometry(g["so12"]))
        sl2 = {name: np.array(g["sl2"]) for name, g in gens.items() if g["sl2"] is not None}
        with constructing(path, _REPRESENTATION):
            return cls(pres, linear, {name: g["translation"] for name, g in gens.items()},
                       sl2=sl2 or None)


class Discreteness(enum.Enum):
    CERTIFIED_BY_CONSTRUCTION = "certified_by_construction"
    NOT_CHECKED = "not_checked"


@dataclass(frozen=True)
class PeripheralCheck:
    """One cusp's record: whether its linear part is parabolic and its
    translation tangent; u, the fixed lightlike direction (t component 1),
    where parabolic; and line_point, the minimum-norm point of the fixed line
    u spans, where the cusp is admissible (parabolic and tangent)."""

    name: str
    parabolic: bool
    tangent: bool
    u: np.ndarray | None
    line_point: np.ndarray | None


@dataclass(frozen=True)
class AdmissibilityReport:
    relator_residual: float
    peripheral: tuple[PeripheralCheck, ...]
    discreteness: Discreteness
    verdict: bool

    def summary(self) -> str:
        bad = [p.name for p in self.peripheral if not (p.parabolic and p.tangent)]
        return (
            f"relator residual {self.relator_residual:.3e}; "
            f"non-admissible peripherals {bad or 'none'}; "
            f"discreteness {self.discreteness.value}"
        )

    def to_json(self) -> dict:
        return {
            "relator_residual": self.relator_residual,
            "peripheral": {
                p.name: {
                    "parabolic": p.parabolic,
                    "tangent": p.tangent,
                    "fixed_direction": None if p.u is None else [float(x) for x in p.u],
                }
                for p in self.peripheral
            },
            "discreteness": self.discreteness.value,
            "verdict": self.verdict,
        }


def check_admissible(rep: AffineRepresentation) -> AdmissibilityReport:
    """The admissibility report of rep, its relator evaluated alone: the
    report of validate.  build evaluates the relator in its one word batch
    and hands the row to admissibility_report, the same core."""
    (rel_m,), (rel_b,) = rep.evaluate([rep.presentation.relator])
    return admissibility_report(rep, rel_m, rel_b)


def admissibility_report(rep: AffineRepresentation, rel_m: np.ndarray,
                         rel_b: np.ndarray) -> AdmissibilityReport:
    """Relator residual, discreteness status and one record per peripheral,
    given the relator's image x -> rel_m x + rel_b: each peripheral's linear
    part is classified once.  The relator residual must be <= RELATOR_TOL, the
    one gate of validate, build and every bundle load."""
    residual = float(np.abs(rel_m - np.eye(3)).max() + np.abs(rel_b).max())
    checks = []
    for name in rep.presentation.peripheral_names:
        linear, tau = rep.linear[name], rep.translations[name]
        u = point = None
        if parab := classify_isometry(linear).kind is IsometryKind.PARABOLIC:
            u = fixed_lightlike_direction(linear)
        if tangent := parab and is_tangent(tau, u):
            point = fixed_line(linear.matrix, tau)
        checks.append(PeripheralCheck(name, parab, tangent, u, point))
    verdict = residual <= RELATOR_TOL and all(p.parabolic and p.tangent for p in checks)
    disc = (
        Discreteness.CERTIFIED_BY_CONSTRUCTION
        if rep.discreteness_certified
        else Discreteness.NOT_CHECKED
    )
    return AdmissibilityReport(residual, tuple(checks), disc, verdict)


def cocycle_from_tangent_vector(
    rep: AffineRepresentation, assignment: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Extend translation parts given on the free generators to all generators.

    The last peripheral is forced by the relator: with relator w c_s = 1,
    tau(c_s) = translation of (rho(w))^{-1} evaluated with the partial cocycle.
    """
    pres = rep.presentation
    free = pres.free_generator_names
    unknown = set(assignment) - set(free)
    if unknown:
        raise UnknownGenerator(f"assignment on non-free generators {sorted(unknown)}")
    partial = {name: np.array(assignment.get(name, np.zeros(3)), dtype=float) for name in free}
    last = pres.peripheral_names[-1]
    partial[last] = np.zeros(3)
    tmp = rep.with_translations(partial)
    prefix_tokens = pres.relator.split()
    # Relator is "<prefix> c_s"; drop the final letter.
    prefix = " ".join(prefix_tokens[:-1])
    (m,), (b,) = tmp.evaluate([prefix])
    partial[last] = -((G @ m.T @ G) @ b)
    return partial


def tangent_cocycle_basis(rep: AffineRepresentation) -> list[dict[str, np.ndarray]]:
    """Basis of translation cocycles tangent at every peripheral.

    Variables are the translations of the free generators; constraints are one
    linear tangency condition per peripheral (the forced last peripheral
    depends linearly on the variables).  The kernel is extracted by SVD with a
    deterministic sign convention.  Only the linear parts are read, so the
    basis is that of the zero cocycle whatever the translations are.
    """
    pres = rep.presentation
    free = pres.free_generator_names
    us = [fixed_lightlike_direction(rep.linear[name]) for name in pres.peripheral_names]
    dim = 3 * len(free)

    def tangency_values(vec: np.ndarray) -> np.ndarray:
        assignment = {
            name: vec[3 * i: 3 * i + 3] for i, name in enumerate(free)
        }
        full = cocycle_from_tangent_vector(rep, assignment)
        return np.array(
            [minkowski_inner(full[name], u) for name, u in zip(pres.peripheral_names, us)]
        )

    rows = np.column_stack([tangency_values(e) for e in np.eye(dim)])
    _, svals, vt = np.linalg.svd(rows)
    tol = 1e-9 * max(1.0, float(svals[0]) if len(svals) else 1.0)
    rank = int(np.sum(svals > tol))
    basis = []
    for v in vt[rank:]:
        lead = v[np.argmax(np.abs(v) > 1e-12)]
        if lead < 0:
            v = -v
        basis.append({name: v[3 * i: 3 * i + 3].copy() for i, name in enumerate(free)})
    return basis


@dataclass(frozen=True)
class Gluing(JsonRecord):
    """Edge pairing: left edge (triangle index, ordered vertex pair), right likewise.

    Convention: position(left vertex k) = word . position(right vertex k) under
    the Moebius action of the word's linear part, for k = 0, 1; in the
    universal cover the left fundamental simplex is adjacent to the right
    simplex translated by the word.  Seen from the right edge the same
    pairing reads with the inverse word; the gluing table of
    ``IdealTriangulationData`` holds both readings.
    """

    left: tuple[int, tuple[str, str]]
    right: tuple[int, tuple[str, str]]
    word: str


class InvalidTriangulation(GeometryError):
    """Geometric inconsistency of an ideal triangulation; malformed data is ValueError."""


@dataclass
class IdealTriangulationData:
    """Ideal triangulation of the quotient surface, one fundamental copy per triangle.

    ``positions`` places each vertex on the boundary of the upper half-plane
    (math.inf allowed); ``vertex_class`` sends each vertex to the peripheral
    generator of its puncture.  Every undirected triangle edge is glued
    exactly once.

    The gluing table reads each gluing from both sides, by (triangle i, facet
    k), the edge opposite vertex slot k: across it lie triangle neighbour[i, k]
    and its slot slot[i, k, j] of each vertex slot j (slot k: its facet), with
    position(vertex j) = word[i][k] . position(neighbour vertex slot[i, k, j]).
    Left sides take the gluing's word, right sides the inverse; ``left`` (G, 2)
    holds the (triangle, facet) of each gluing's left side.
    """

    triangles: list[tuple[str, str, str]]
    gluings: list[Gluing]
    vertex_class: dict[str, str]
    positions: dict[str, float]
    neighbour: np.ndarray = field(init=False, repr=False, compare=False)  # (S, 3)
    slot: np.ndarray = field(init=False, repr=False, compare=False)  # (S, 3, 3)
    word: list[list[str]] = field(init=False, repr=False, compare=False)
    left: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(len(t) == 3 == len(set(t)) for t in self.triangles):
            raise ValueError("every triangle needs 3 distinct vertex names")
        verts = {v for t in self.triangles for v in t}
        if set(self.vertex_class) != verts or set(self.positions) != verts:
            raise ValueError("vertex_class/positions must cover the triangle vertices")
        if not all(math.isfinite(x) or x == math.inf for x in self.positions.values()):
            raise ValueError("positions must be finite or inf")
        n = len(self.triangles)
        self.neighbour, self.slot = np.full((n, 3), -1), np.zeros((n, 3, 3), dtype=int)
        self.word, self.left = [[""] * 3 for _ in range(n)], np.zeros((len(self.gluings), 2), int)

        def facet(g_i, side) -> int:
            tri, pair = getattr(self.gluings[g_i], side)
            if not 0 <= tri < n:
                raise ValueError(f"gluings.{g_i}.{side} references triangle {tri}")
            if len(set(pair)) != 2 or not set(pair) <= set(self.triangles[tri]):
                raise ValueError(f"gluings.{g_i}.{side}: edge {pair} not in triangle {tri}")
            return 3 - sum(map(self.triangles[tri].index, pair))

        # both sides of every gluing are checked before any table entry is written
        facets = [(facet(g_i, "left"), facet(g_i, "right")) for g_i in range(len(self.gluings))]
        for g_i, (g, (k_left, k_right)) in enumerate(zip(self.gluings, facets)):
            self.left[g_i] = g.left[0], k_left
            for (tri, pair), k, (nbr, nbr_pair), k_nbr, word in (
                (g.left, k_left, g.right, k_right, g.word),
                (g.right, k_right, g.left, k_left, invert_word(g.word)),
            ):
                if self.neighbour[tri, k] >= 0:
                    raise ValueError("every edge must be glued exactly once")
                self.neighbour[tri, k], self.word[tri][k] = nbr, word
                self.slot[tri, k, k] = k_nbr
                for v, w in zip(pair, nbr_pair):
                    self.slot[tri, k, self.triangles[tri].index(v)] = self.triangles[nbr].index(w)
        if (self.neighbour < 0).any():
            raise ValueError("every edge must be glued exactly once")

    def to_json(self) -> dict:
        return {
            "triangles": [list(t) for t in self.triangles],
            "gluings": [g.to_json() for g in self.gluings],
            "vertex_class": dict(self.vertex_class),
            "positions": {
                k: ("inf" if math.isinf(v) else float(v)) for k, v in self.positions.items()
            },
        }

    @classmethod
    def from_json(cls, d, path: str = "") -> "IdealTriangulationData":
        d = read(d, _TRIANGULATION, path)
        with constructing(path, _TRIANGULATION):
            return cls(d["triangles"], [Gluing(**g) for g in d["gluings"]], d["vertex_class"],
                       {k: math.inf if v == "inf" else v for k, v in d["positions"].items()})


@dataclass(frozen=True)
class BuiltinExample:
    """A certified admissible representation with triangulation and a tangent deformation."""

    name: str
    representation: AffineRepresentation
    triangulation: IdealTriangulationData

    @functools.cached_property
    def nonzero_tangent(self) -> dict[str, np.ndarray]:
        """A quarter of the first tangent_cocycle_basis vector, computed on first use."""
        return {k: 0.25 * v for k, v in tangent_cocycle_basis(self.representation)[0].items()}

    def deformed(self, scale: float = 1.0) -> AffineRepresentation:
        """Representation with the nonzero tangent cocycle installed (scaled)."""
        assignment = {k: scale * v for k, v in self.nonzero_tangent.items()}
        full = cocycle_from_tangent_vector(self.representation, assignment)
        return self.representation.with_translations(full)


def _gamma2_example() -> BuiltinExample:
    pres = SurfaceGroupPresentation(genus=0, punctures=3)
    c1 = np.array([[1.0, 2.0], [0.0, 1.0]])   # fixes infinity
    c2 = np.array([[1.0, 0.0], [-2.0, 1.0]])  # fixes 0
    c3 = np.linalg.inv(c1 @ c2)               # fixes 1, trace -2
    sl2 = {"c1": c1, "c2": c2, "c3": c3}
    rep = AffineRepresentation(
        pres,
        {k: sl2_to_so12(v) for k, v in sl2.items()},
        sl2=sl2,
        discreteness_certified=True,
    )
    tri = IdealTriangulationData(
        triangles=[("0", "-1", "inf"), ("1", "0", "inf")],
        gluings=[
            Gluing((0, ("0", "inf")), (1, ("0", "inf")), ""),
            Gluing((0, ("-1", "inf")), (1, ("1", "inf")), "c1^-1"),
            Gluing((1, ("1", "0")), (0, ("-1", "0")), "c2^-1"),
        ],
        vertex_class={"inf": "c1", "0": "c2", "1": "c3", "-1": "c3"},
        positions={"inf": math.inf, "0": 0.0, "1": 1.0, "-1": -1.0},
    )
    return BuiltinExample("gamma2", rep, tri)


def _punctured_torus_example() -> BuiltinExample:
    pres = SurfaceGroupPresentation(genus=1, punctures=1)
    a = np.array([[1.0, 1.0], [1.0, 2.0]])
    b = np.array([[1.0, -1.0], [-1.0, 2.0]])
    comm = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    c1 = np.linalg.inv(comm)  # parabolic fixing 0, trace -2
    sl2 = {"a1": a, "b1": b, "c1": c1}
    rep = AffineRepresentation(
        pres,
        {k: sl2_to_so12(v) for k, v in sl2.items()},
        sl2=sl2,
        discreteness_certified=True,
    )
    tri = IdealTriangulationData(
        triangles=[("0", "-1", "inf"), ("1", "0", "inf")],
        gluings=[
            Gluing((0, ("0", "inf")), (1, ("0", "inf")), ""),
            Gluing((0, ("-1", "inf")), (1, ("0", "1")), "a1^-1"),
            Gluing((1, ("1", "inf")), (0, ("0", "-1")), "b1^-1"),
        ],
        vertex_class={"inf": "c1", "0": "c1", "1": "c1", "-1": "c1"},
        positions={"inf": math.inf, "0": 0.0, "1": 1.0, "-1": -1.0},
    )
    return BuiltinExample("punctured_torus", rep, tri)


def builtin_examples() -> dict[str, BuiltinExample]:
    """The two shipped demos: the thrice-punctured sphere and the once-punctured torus."""
    g2 = _gamma2_example()
    t1 = _punctured_torus_example()
    return {g2.name: g2, t1.name: t1}
