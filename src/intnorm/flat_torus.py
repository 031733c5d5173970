"""Flat tori as rank-2 lattices: exact intersection numbers, stable norms,
and a geodesic crossing oracle in the universal cover.

A flat torus is the plane modulo the lattice spanned by e1 and e2.  An
integer homology class (a, b) embeds as the vector a*e1 + b*e2; its stable
norm is the Euclidean length of that vector, and the algebraic intersection
number of (a, b) with (c, d) is the integer a*d - b*c.  The supremum of
|intersection| / (length * length) over nonzero classes equals
1/covolume, attained along directions realizing the covolume; the
searches below certify that on concrete lattices by exhaustive
enumeration, and ``crossing_count_oracle`` reproduces each intersection
number by literally counting transversal crossings of straight
representatives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    CutoffTooSmallError,
    DegenerateInputError,
    DomainError,
    EmptySearchError,
    RetrySignal,
)

# Relative slack when comparing squared lengths against an enumeration
# cutoff, so classes sitting exactly on the boundary are kept.
_CUTOFF_SLACK = 1e-12

# Parameter-space tolerance around the base-point seam of a closed
# geodesic; crossings this close to the seam trigger a retry.
SEAM_TOLERANCE = 1e-9

_MAX_ENUM_CELLS = 8_000_000


class IntegerClass(NamedTuple):
    """Integer homology class a*[e1] + b*[e2]."""

    a: int
    b: int

    def is_primitive(self) -> bool:
        return math.gcd(self.a, self.b) == 1


class RealClass(NamedTuple):
    """Real homology class x*[e1] + y*[e2]."""

    x: float
    y: float


@dataclass(frozen=True)
class CrossingReport:
    """Outcome of a crossing oracle run: transversal crossings of two
    closed geodesics (or arcs), with per-crossing signs and positions in
    a fundamental domain."""

    count: int
    signs: tuple[int, ...]
    positions: tuple[tuple[float, float], ...]

    def uniform_sign(self) -> int:
        """The common sign of all crossings, 0 if there are none.

        Raises ValueError if the signs are mixed.
        """
        if not self.signs:
            return 0
        first = self.signs[0]
        if any(s != first for s in self.signs):
            raise ValueError("mixed crossing signs")
        return first


def _as_float_pair(name: str, value) -> tuple[float, float]:
    try:
        x, y = value
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a pair of numbers") from exc
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return x, y


@dataclass(frozen=True)
class Lattice:
    """Rank-2 lattice spanned by the column vectors e1 and e2.

    ``exact`` optionally carries the basis entries as Fractions
    (populated by :meth:`from_string`); when present, squared lengths of
    integer classes can be compared exactly, which the searches use to
    break floating-point ties.
    """

    e1: tuple[float, float]
    e2: tuple[float, float]
    exact: Optional[tuple[Fraction, Fraction, Fraction, Fraction]] = None

    def __post_init__(self):
        object.__setattr__(self, "e1", _as_float_pair("e1", self.e1))
        object.__setattr__(self, "e2", _as_float_pair("e2", self.e2))
        det = self.det
        if det == 0.0 or not math.isfinite(det):
            # floats are exact rationals, so this tells a dependent basis
            # from a determinant that underflows or overflows
            (e1x, e1y), (e2x, e2y) = self.e1, self.e2
            if Fraction(e1x) * Fraction(e2y) == Fraction(e1y) * Fraction(e2x):
                raise DegenerateInputError(
                    "basis vectors are linearly dependent")
            raise DomainError(f"determinant of the basis {self.e1}, "
                              f"{self.e2} is outside the range of double "
                              "precision")

    @classmethod
    def from_string(cls, text: str) -> "Lattice":
        """Parse 'e1x,e1y,e2x,e2y' where entries are decimal or rational
        strings such as '1', '0.5' or '-3/7'."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise DomainError(
                f"expected four comma-separated entries, got {text!r}")
        try:
            vals = tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"unparsable lattice entry in {text!r}") from exc
        return cls(e1=(float(vals[0]), float(vals[1])),
                   e2=(float(vals[2]), float(vals[3])),
                   exact=vals)

    @property
    def det(self) -> float:
        return self.e1[0] * self.e2[1] - self.e1[1] * self.e2[0]

    @property
    def covolume(self) -> float:
        return abs(self.det)

    @property
    def orientation(self) -> int:
        """+1 if (e1, e2) is positively oriented in the plane, else -1."""
        return 1 if self.det > 0 else -1

    def basis_matrix(self) -> np.ndarray:
        """2x2 matrix with e1 and e2 as columns."""
        return np.array([[self.e1[0], self.e2[0]],
                         [self.e1[1], self.e2[1]]], dtype=float)

    def embed(self, cls) -> tuple[float, float]:
        """Plane vector of the class (a, b) |-> a*e1 + b*e2."""
        a, b = cls
        return (a * self.e1[0] + b * self.e2[0],
                a * self.e1[1] + b * self.e2[1])

    def length_sq_exact(self, cls) -> Optional[Fraction]:
        """Exact squared length of an integer class, or None when the
        basis was not given in exact form."""
        if self.exact is None:
            return None
        a, b = (operator.index(cls[0]), operator.index(cls[1]))
        e1x, e1y, e2x, e2y = self.exact
        g11 = e1x * e1x + e1y * e1y
        g12 = e1x * e2x + e1y * e2y
        g22 = e2x * e2x + e2y * e2y
        return g11 * a * a + 2 * g12 * a * b + g22 * b * b


def intersection_number(u, v) -> int:
    """Algebraic intersection number a*d - b*c of (a, b) and (c, d),
    computed in exact integer arithmetic."""
    a, b = (operator.index(u[0]), operator.index(u[1]))
    c, d = (operator.index(v[0]), operator.index(v[1]))
    return a * d - b * c


def class_length(lat: Lattice, cls) -> float:
    """Stable norm of a homology class: the Euclidean length of its
    embedded vector.  Accepts integer or real classes."""
    x, y = lat.embed(cls)
    return math.hypot(x, y)


def k_real(lat: Lattice) -> float:
    """Supremum of |intersection| / (length * length) over real classes;
    equals 1/covolume on a flat torus."""
    return 1.0 / lat.covolume


def reduced_basis(lat: Lattice) -> tuple[IntegerClass, IntegerClass]:
    """Lagrange-reduced basis of the lattice, as integer coefficient pairs
    (c1, c2) in the original basis, normalized so the embedded vectors
    satisfy |v1| <= |v2| and <v1, v2> <= 0."""
    v1 = np.array(lat.e1, dtype=float)
    v2 = np.array(lat.e2, dtype=float)
    c1, c2 = (1, 0), (0, 1)
    if v1 @ v1 > v2 @ v2:
        v1, v2, c1, c2 = v2, v1, c2, c1
    for _ in range(64):
        norm_sq = float(v1 @ v1)
        if not 0.0 < norm_sq < math.inf:
            raise DomainError(f"squared length {norm_sq} of a basis vector "
                              "is outside the range of double precision")
        mu = round((v1 @ v2) / norm_sq)
        if mu:
            v2 = v2 - mu * v1
            c2 = (c2[0] - mu * c1[0], c2[1] - mu * c1[1])
        if v2 @ v2 >= v1 @ v1:
            break
        v1, v2, c1, c2 = v2, v1, c2, c1
    else:
        raise DomainError("basis reduction did not converge")
    if v1 @ v2 > 0:
        c2 = (-c2[0], -c2[1])
    return IntegerClass(*c1), IntegerClass(*c2)


def enumerate_classes(lat: Lattice, cutoff: float, *,
                      primitive_only: bool = False,
                      canonical: bool = False
                      ) -> tuple[np.ndarray, np.ndarray]:
    """All nonzero integer classes of length <= cutoff, with their lengths.

    Exhaustive by construction: the coefficient box is certified by
    Cauchy-Schwarz against the dual basis, so no class of length below the
    cutoff can fall outside it.  ``canonical`` keeps one representative of
    each {v, -v} pair (a > 0, or a == 0 and b > 0).  Classes come back
    sorted lexicographically.
    """
    cutoff = float(cutoff)
    if not math.isfinite(cutoff) or cutoff <= 0.0:
        raise DomainError(f"cutoff must be positive and finite, got {cutoff!r}")
    e1x, e1y = lat.e1
    e2x, e2y = lat.e2
    covol = lat.covolume
    # |a| <= |v| * |e2| / covolume and |b| <= |v| * |e1| / covolume
    amax = int(math.ceil(cutoff * math.hypot(e2x, e2y) / covol * (1 + 1e-9)))
    bmax = int(math.ceil(cutoff * math.hypot(e1x, e1y) / covol * (1 + 1e-9)))
    cells = (2 * amax + 1) * (2 * bmax + 1)
    if cells > _MAX_ENUM_CELLS:
        raise DomainError(
            f"enumeration box with {cells} cells is too large; "
            "reduce the cutoff or use a better-conditioned basis")
    a = np.arange(-amax, amax + 1, dtype=np.int64)
    b = np.arange(-bmax, bmax + 1, dtype=np.int64)
    A, B = np.meshgrid(a, b, indexing="ij")
    A = A.ravel()
    B = B.ravel()
    vx = A * e1x + B * e2x
    vy = A * e1y + B * e2y
    lsq = vx * vx + vy * vy
    keep = (lsq > 0.0) & (lsq <= (cutoff * (1.0 + _CUTOFF_SLACK)) ** 2)
    if canonical:
        keep &= (A > 0) | ((A == 0) & (B > 0))
    if primitive_only:
        keep &= np.gcd(np.abs(A), np.abs(B)) == 1
    A, B, lsq = A[keep], B[keep], lsq[keep]
    order = np.lexsort((B, A))
    classes = np.stack([A[order], B[order]], axis=1)
    return classes, np.sqrt(lsq[order])


def systole(lat: Lattice) -> float:
    """Length of the shortest nonzero integer class, certified by
    exhaustive enumeration inside a radius that provably contains it."""
    c1, _ = reduced_basis(lat)
    radius = class_length(lat, c1)
    _, lengths = enumerate_classes(lat, radius)
    return float(lengths.min())


def torus_diameter(lat: Lattice) -> float:
    """Diameter of the flat torus: the circumradius of the Voronoi cell
    of the lattice, read off the two Delaunay triangles spanned by a
    reduced basis and its short diagonal."""
    c1, c2 = reduced_basis(lat)
    b1 = np.array(lat.embed(c1))
    b2 = np.array(lat.embed(c2))
    diag = b1 + b2
    return max(_circumradius(b1, diag), _circumradius(b2, diag))


def _circumradius(p: np.ndarray, q: np.ndarray) -> float:
    # circumradius of the triangle (0, p, q)
    a = float(np.hypot(*(p - q)))
    b = float(np.hypot(*q))
    c = float(np.hypot(*p))
    area2 = abs(p[0] * q[1] - p[1] * q[0])
    return a * b * c / (2.0 * area2)


class RatioResult(NamedTuple):
    ratio: float
    pair: tuple[IntegerClass, IntegerClass]


class MinProductResult(NamedTuple):
    pair: tuple[IntegerClass, IntegerClass]
    product: float


class NormComparison(NamedTuple):
    stable: float
    l2: float
    two_sided_ok: bool


def _pairwise_tables(classes: np.ndarray, lengths: np.ndarray):
    a = classes[:, 0]
    b = classes[:, 1]
    inter = np.abs(a[:, None] * b[None, :] - b[:, None] * a[None, :])
    len_prod = lengths[:, None] * lengths[None, :]
    return inter, len_prod


def _refine_pair_choice(lat: Lattice, classes: np.ndarray,
                        candidates: np.ndarray, inter: np.ndarray,
                        maximize_ratio: bool) -> tuple[int, int]:
    """Pick one (i, j) among float-tied candidates.  With an exact basis
    the squared objective is compared in rational arithmetic; remaining
    ties go to the lexicographically smallest pair of classes."""
    entries = [tuple(ij) for ij in candidates]
    if lat.exact is not None and len(entries) > 1:
        def key_exact(ij):
            i, j = ij
            lsq = (lat.length_sq_exact(classes[i]) *
                   lat.length_sq_exact(classes[j]))
            n = int(inter[i, j])
            # ratio^2 = n^2 / lsq ; product^2 = lsq
            return Fraction(n * n) / lsq if maximize_ratio else lsq
        best = max(entries, key=key_exact) if maximize_ratio else \
            min(entries, key=key_exact)
        best_val = key_exact(best)
        entries = [ij for ij in entries if key_exact(ij) == best_val]
    entries.sort(key=lambda ij: (tuple(classes[ij[0]]), tuple(classes[ij[1]])))
    return entries[0]


def best_ratio_search(lat: Lattice, cutoff: float) -> RatioResult:
    """Maximize |intersection| / (length * length) over primitive classes
    of length <= cutoff.  Never exceeds k_real(lat); reaches it on square
    and hexagonal lattices."""
    classes, lengths = enumerate_classes(lat, cutoff, primitive_only=True,
                                         canonical=True)
    if classes.shape[0] == 0:
        raise EmptySearchError(
            f"no primitive classes of length <= {cutoff}; "
            "the cutoff sits below the systole")
    inter, len_prod = _pairwise_tables(classes, lengths)
    ratio = inter / len_prod
    best = float(ratio.max())
    candidates = np.argwhere(ratio >= best * (1.0 - 1e-14))
    i, j = _refine_pair_choice(lat, classes, candidates, inter,
                               maximize_ratio=True)
    pair = (IntegerClass(*map(int, classes[i])),
            IntegerClass(*map(int, classes[j])))
    return RatioResult(ratio=best, pair=pair)


def min_length_product(lat: Lattice, n: int, cutoff: float) -> MinProductResult:
    """Minimize length(u) * length(v) over classes of length <= cutoff
    subject to |intersection(u, v)| = n."""
    n = operator.index(n)
    if n == 0:
        raise DegenerateInputError(
            "n = 0 is degenerate: parallel classes realize it trivially")
    if n < 0:
        raise DomainError(f"n must be positive, got {n}")
    classes, lengths = enumerate_classes(lat, cutoff, canonical=True)
    if classes.shape[0] == 0:
        raise EmptySearchError(
            f"no classes of length <= {cutoff}; cutoff below the systole")
    inter, len_prod = _pairwise_tables(classes, lengths)
    mask = inter == n
    if not mask.any():
        raise CutoffTooSmallError(
            f"no pair with |intersection| = {n} inside cutoff {cutoff}")
    masked = np.where(mask, len_prod, np.inf)
    best = float(masked.min())
    candidates = np.argwhere(masked <= best * (1.0 + 1e-14))
    i, j = _refine_pair_choice(lat, classes, candidates, inter,
                               maximize_ratio=False)
    pair = (IntegerClass(*map(int, classes[i])),
            IntegerClass(*map(int, classes[j])))
    return MinProductResult(pair=pair, product=best)


@dataclass(frozen=True)
class SegmentBoundReport:
    """Maximum of |intersection| * systole^2 / (length * length) over the
    enumerated primitive pairs, against its two theoretical ceilings: the
    universal constant 9 from the segment-cutting argument, and the sharp
    angle bound systole^2 / covolume."""

    systole: float
    pairs_checked: int
    max_normalized: float
    argmax_pair: tuple[IntegerClass, IntegerClass]
    nine_bound_ok: bool
    sine_bound: float
    sine_bound_ok: bool


def segment_bound_check(lat: Lattice, cutoff: float) -> SegmentBoundReport:
    """Evaluate the normalized intersection bound over all primitive pairs
    of length <= cutoff."""
    classes, lengths = enumerate_classes(lat, cutoff, primitive_only=True,
                                         canonical=True)
    if classes.shape[0] == 0:
        raise EmptySearchError(
            f"no primitive classes of length <= {cutoff}")
    l1 = systole(lat)
    inter, len_prod = _pairwise_tables(classes, lengths)
    normalized = inter * (l1 * l1) / len_prod
    best = float(normalized.max())
    i, j = np.unravel_index(int(np.argmax(normalized)), normalized.shape)
    count = classes.shape[0]
    sine_bound = l1 * l1 / lat.covolume
    return SegmentBoundReport(
        systole=l1,
        pairs_checked=count * (count - 1) // 2,
        max_normalized=best,
        argmax_pair=(IntegerClass(*map(int, classes[i])),
                     IntegerClass(*map(int, classes[j]))),
        nine_bound_ok=best <= 9.0 * (1.0 + 1e-12),
        sine_bound=sine_bound,
        sine_bound_ok=best <= sine_bound * (1.0 + 1e-12),
    )


def norm_comparison_report(lat: Lattice, h) -> NormComparison:
    """Compare the stable norm of a real class h = x*e1 + y*e2 with the L2
    norm |alpha| * sqrt(V) of the harmonic form alpha.dx Poincare dual to
    it, whose periods B^T alpha = (Int(h, e1), Int(h, e2)) = (-y, x),
    checking stable/sqrt(V) <= l2 <= k_real * sqrt(V) * stable.  Both
    inequalities are equalities here, which is what makes the flat torus
    the extremal case."""
    x, y = _as_float_pair("h", h)
    v = lat.covolume
    stable = class_length(lat, (x, y))
    alpha = np.linalg.solve(lat.basis_matrix().T, (-y, x))
    l2 = math.hypot(*alpha) * math.sqrt(v)
    lower = stable / math.sqrt(v)
    upper = k_real(lat) * math.sqrt(v) * stable
    tol = 1e-12
    ok = (lower <= l2 * (1.0 + tol)) and (l2 <= upper * (1.0 + tol))
    return NormComparison(stable=stable, l2=l2, two_sided_ok=ok)


def crossing_count_oracle(lat: Lattice, u, v, offset) -> CrossingReport:
    """Count transversal crossings of straight closed geodesics in the
    classes u and v on the torus, by brute force in the universal cover.

    The u-geodesic is the segment from the origin to its embedded vector;
    the v-geodesic starts at ``offset``.  The oracle intersects the
    u-segment with every lattice translate of the v-segment inside a
    certified window and reports count, signs and crossing positions.  It
    never consults the intersection formula, which is the point: the
    expected outcome is count = |a*d - b*c| with every sign equal to
    sign(a*d - b*c).

    Raises RetrySignal when a crossing falls within SEAM_TOLERANCE of a
    base-point seam; the caller should re-randomize the offset.
    """
    a, b = (operator.index(u[0]), operator.index(u[1]))
    c, d = (operator.index(v[0]), operator.index(v[1]))
    if (a, b) == (0, 0) or (c, d) == (0, 0):
        raise DegenerateInputError("classes must be nonzero")
    if a * d - b * c == 0:
        raise DegenerateInputError(
            f"classes {(a, b)} and {(c, d)} are proportional")
    ox, oy = _as_float_pair("offset", offset)

    U = np.array(lat.embed((a, b)), dtype=float)
    V = np.array(lat.embed((c, d)), dtype=float)
    e1 = np.array(lat.e1)
    e2 = np.array(lat.e2)

    # certified lattice-translate window from bounding boxes
    box_a = np.array([np.minimum(0.0, U), np.maximum(0.0, U)])
    start_b = np.array([ox, oy])
    box_b = np.array([start_b + np.minimum(0.0, V),
                      start_b + np.maximum(0.0, V)])
    diff_lo = box_a[0] - box_b[1]
    diff_hi = box_a[1] - box_b[0]
    corners = np.array([[diff_lo[0], diff_lo[1]], [diff_lo[0], diff_hi[1]],
                        [diff_hi[0], diff_lo[1]], [diff_hi[0], diff_hi[1]]])
    det = lat.det
    ii = (corners[:, 0] * e2[1] - corners[:, 1] * e2[0]) / det
    jj = (-corners[:, 0] * e1[1] + corners[:, 1] * e1[0]) / det
    ilo, ihi = int(math.floor(ii.min() - 1e-9)), int(math.ceil(ii.max() + 1e-9))
    jlo, jhi = int(math.floor(jj.min() - 1e-9)), int(math.ceil(jj.max() + 1e-9))
    gi = np.arange(ilo, ihi + 1)
    gj = np.arange(jlo, jhi + 1)
    GI, GJ = np.meshgrid(gi, gj, indexing="ij")
    lam = (GI.ravel()[:, None] * e1[None, :]
           + GJ.ravel()[:, None] * e2[None, :])

    rhs = start_b[None, :] + lam
    cross_uv = U[0] * V[1] - U[1] * V[0]
    det_m = -cross_uv
    t = (-V[1] * rhs[:, 0] + V[0] * rhs[:, 1]) / det_m
    s = (-U[1] * rhs[:, 0] + U[0] * rhs[:, 1]) / det_m

    tol = SEAM_TOLERANCE
    near_t = (np.abs(t) <= tol) | (np.abs(t - 1.0) <= tol)
    near_s = (np.abs(s) <= tol) | (np.abs(s - 1.0) <= tol)
    in_t = (t > -tol) & (t < 1.0 + tol)
    in_s = (s > -tol) & (s < 1.0 + tol)
    if ((near_t & in_s) | (near_s & in_t)).any():
        raise RetrySignal("crossing within tolerance of a base-point seam")

    hit = (t > tol) & (t < 1.0 - tol) & (s > tol) & (s < 1.0 - tol)
    count = int(hit.sum())
    sign = lat.orientation * (1 if cross_uv > 0 else -1)

    th = t[hit]
    # reduce t*U to the fundamental domain in basis coordinates
    fa = np.mod(th * a, 1.0)
    fb = np.mod(th * b, 1.0)
    px = fa * e1[0] + fb * e2[0]
    py = fa * e1[1] + fb * e2[1]
    order = np.argsort(th)
    positions = tuple((float(px[k]), float(py[k])) for k in order)
    return CrossingReport(count=count, signs=(sign,) * count,
                          positions=positions)


def count_crossings(lat: Lattice, u, v, rng, *,
                    max_tries: int = 8) -> CrossingReport:
    """Run the torus crossing oracle with a random base-point offset,
    re-randomizing on RetrySignal up to ``max_tries`` times."""
    last = None
    for _ in range(max_tries):
        frac = rng.random(2)
        offset = (frac[0] * lat.e1[0] + frac[1] * lat.e2[0],
                  frac[0] * lat.e1[1] + frac[1] * lat.e2[1])
        try:
            return crossing_count_oracle(lat, u, v, offset)
        except RetrySignal as exc:
            last = exc
    raise RetrySignal(
        f"no seam-free offset found in {max_tries} tries") from last
