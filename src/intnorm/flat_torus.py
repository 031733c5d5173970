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

The enumeration box is taken in the Lagrange-reduced basis, so it holds
a bounded multiple of the N classes it returns.  No search builds an
N x N table.  Pair by pair, |Int(u, v)| / (|u| |v|) =
|sin(angle(u, v))| / covolume, so ``best_ratio_search`` and
``segment_bound_check`` sort the directions by angle and evaluate only
the pairs near perpendicular: O(N log N) time and O(N) memory.
``min_length_product`` finds the shortest partners of each class in its
Bezout coset: O(N).  Each returns what the full table would, float bits
and tie-broken pairs included.
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

# Most cells an enumeration box may hold, and most candidate pairs a
# search may evaluate: each costs tens of bytes of int64 and float64
# arrays, a few hundred MB at the bound.
_MAX_ENUM_CELLS = 8_000_000
_MAX_SEARCH_PAIRS = 4_000_000

# Largest coefficient of an enumerated class in the given basis: products
# of two stay below 2**62, so intersection numbers are exact in int64.
_MAX_COEFFICIENT = 2 ** 31

_EPS = 2.0 ** -52


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


def _check_squared_length(cls: tuple[int, int], v: np.ndarray) -> None:
    """Refuse the vector of a class when its squared length leaves the
    range of double precision, checked in Python floats, which overflow
    to inf without a warning."""
    x, y = float(v[0]), float(v[1])
    sq = x * x + y * y
    if not 0.0 < sq < math.inf:
        name = {(1, 0): "e1", (0, 1): "e2"}.get(cls, f"the class {cls}")
        raise DomainError(f"squared length {sq!r} of {name} = ({x!r}, {y!r}) "
                          "is outside the range of double precision")


def reduced_basis(lat: Lattice) -> tuple[IntegerClass, IntegerClass]:
    """Lagrange-reduced basis of the lattice, as integer coefficient pairs
    (c1, c2) in the original basis, normalized so the embedded vectors
    satisfy |v1| <= |v2| and <v1, v2> <= 0.

    Raises DomainError when the squared length of a basis vector, or of a
    vector met on the way, leaves the range of double precision, or when
    a reduction step overflows it."""
    v1 = np.array(lat.e1, dtype=float)
    v2 = np.array(lat.e2, dtype=float)
    c1, c2 = (1, 0), (0, 1)
    _check_squared_length(c1, v1)
    _check_squared_length(c2, v2)
    if v1 @ v1 > v2 @ v2:
        v1, v2, c1, c2 = v2, v1, c2, c1
    for _ in range(64):
        mu = float(v1 @ v2) / float(v1 @ v1)
        if not math.isfinite(mu):
            raise DomainError(f"the basis {lat.e1}, {lat.e2} is too skewed "
                              "to reduce in double precision")
        mu = round(mu)
        if mu:
            v2 = v2 - mu * v1
            c2 = (c2[0] - mu * c1[0], c2[1] - mu * c1[1])
            _check_squared_length(c2, v2)
        if v2 @ v2 >= v1 @ v1:
            break
        v1, v2, c1, c2 = v2, v1, c2, c1
    else:
        raise DomainError("basis reduction did not converge")
    if v1 @ v2 > 0:
        c2 = (-c2[0], -c2[1])
    return IntegerClass(*c1), IntegerClass(*c2)


def _reach(lat: Lattice, cutoff: float) -> float:
    """A radius holding every class whose computed length passes the
    cutoff.  Lengths are computed in the given basis, with a relative
    rounding error up to a few eps * |e1| * |e2| / covolume."""
    skew = math.hypot(*lat.e1) / lat.covolume * math.hypot(*lat.e2)
    return cutoff * (1.0 + 1e-9 + 16.0 * _EPS * skew)


def enumerate_classes(lat: Lattice, cutoff: float, *,
                      primitive_only: bool = False,
                      canonical: bool = False
                      ) -> tuple[np.ndarray, np.ndarray]:
    """All nonzero integer classes of length <= cutoff, with their lengths.

    Exhaustive by construction.  The coefficient box is taken in the
    Lagrange-reduced basis (r1, r2): a class p*r1 + q*r2 of length |v| has
    |p| <= |v| * |r2| / covolume and |q| <= |v| * |r1| / covolume
    (Cauchy-Schwarz against the dual basis), so no class of length below
    the cutoff can fall outside the box, and the box holds a bounded
    multiple of the class count however skewed the given basis is.  The
    classes are mapped back to coefficients (a, b) in the given basis, and
    their lengths are computed from a*e1 + b*e2.  ``canonical`` keeps one
    representative of each {v, -v} pair (a > 0, or a == 0 and b > 0).
    Classes come back sorted lexicographically by (a, b).

    Raises DomainError when the box holds more than 8M cells, or when a
    coefficient in the given basis could exceed 2**31, past which
    intersection numbers would overflow int64.
    """
    cutoff = float(cutoff)
    if not math.isfinite(cutoff) or cutoff <= 0.0:
        raise DomainError(f"cutoff must be positive and finite, got {cutoff!r}")
    c1, c2 = reduced_basis(lat)
    reach = _reach(lat, cutoff) / lat.covolume
    # clipped so that an infinite reach still gives an integer, and a refusal
    pmax, qmax = (math.ceil(min(reach * class_length(lat, c), _MAX_ENUM_CELLS))
                  for c in (c2, c1))
    cells = (2 * pmax + 1) * (2 * qmax + 1)
    if cells > _MAX_ENUM_CELLS:
        raise DomainError(
            f"enumeration box with {cells} cells is too large; "
            "reduce the cutoff")
    (a1, b1), (a2, b2) = c1, c2
    coefficient = max(pmax * abs(a1) + qmax * abs(a2),
                      pmax * abs(b1) + qmax * abs(b2))
    if coefficient > _MAX_COEFFICIENT:
        raise DomainError(
            f"classes of length {cutoff} reach coefficient {coefficient} in "
            f"the given basis, beyond {_MAX_COEFFICIENT}; use a "
            "better-conditioned basis")
    P, Q = np.meshgrid(np.arange(-pmax, pmax + 1, dtype=np.int64),
                       np.arange(-qmax, qmax + 1, dtype=np.int64),
                       indexing="ij")
    A = (P * a1 + Q * a2).ravel()
    B = (P * b1 + Q * b2).ravel()
    e1x, e1y = lat.e1
    e2x, e2y = lat.e2
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


def _intersections(classes: np.ndarray, i: np.ndarray,
                   j: np.ndarray) -> np.ndarray:
    a, b = classes[:, 0], classes[:, 1]
    return np.abs(a[i] * b[j] - b[i] * a[j])


def _distinct_pairs(count: int, i: np.ndarray,
                    j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs (min, max) of two index arrays, without i == j,
    in lexicographic order."""
    keep = i != j
    key = np.unique(np.minimum(i, j)[keep] * count + np.maximum(i, j)[keep])
    return key // count, key % count


def _near_perpendicular_pairs(lat: Lattice, classes: np.ndarray,
                              lengths: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j in lexicographic order, holding every pair
    of canonical primitive classes whose |Int| / (l_i * l_j) can come
    within the searches' 1e-14 tie band of the largest.

    |Int(u, v)| / (|u| |v|) = |sin(angle(u, v))| / covolume, so the pairs
    near the maximum are the pairs nearest to perpendicular.  The
    directions are sorted by angle mod pi.  The two classes on either side
    of each class's perpendicular give a lower bound on the maximum; every
    pair within the angle from perpendicular that this bound leaves open
    is kept, widened for the tie band and for the rounding of the lengths
    and angles, which grows with the skew of the given basis.  O(N log N)
    time and O(N) memory, with a few pairs per class.  Raises DomainError
    past 4M candidate pairs, which only a badly skewed given basis with a
    large cutoff reaches.
    """
    count = classes.shape[0]
    if count == 1:
        # the one class paired with itself, as the full table has it
        return np.zeros(1, np.int64), np.zeros(1, np.int64)
    a, b = classes[:, 0], classes[:, 1]
    (e1x, e1y), (e2x, e2y) = lat.e1, lat.e2
    angle = np.arctan2(a * e1y + b * e2y, a * e1x + b * e2x) % np.pi
    order = np.argsort(angle)
    ring = np.concatenate((angle[order] - np.pi, angle[order],
                           angle[order] + np.pi))
    normal = angle + np.pi / 2
    every = np.arange(count)
    at = np.searchsorted(ring, normal)
    i = np.concatenate((every, every))
    j = order[np.concatenate((at - 1, at)) % count]
    best = float((_intersections(classes, i, j)
                  / (lengths[i] * lengths[j])).max())
    e1, e2 = math.hypot(e1x, e1y), math.hypot(e2x, e2y)
    kappa = float(((np.abs(a) * e1 + np.abs(b) * e2) / lengths).max())
    err = 32.0 * _EPS * (kappa + e1 / lat.covolume * e2 + 2.0)
    sine = best * lat.covolume * (1.0 - 1e-14 - err)
    cosine = math.sqrt(max(0.0, (1.0 - sine) * (1.0 + sine)))
    width = min(math.asin(min(cosine, 1.0)) + err, math.pi / 2)
    lo = np.searchsorted(ring, normal - width, side="left")
    sizes = np.searchsorted(ring, normal + width, side="right") - lo
    total = int(sizes.sum())
    if total > _MAX_SEARCH_PAIRS:
        raise DomainError(
            f"the search would evaluate {total} candidate pairs; reduce "
            "the cutoff or use a better-conditioned basis")
    owner = np.repeat(every, sizes)
    step = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return _distinct_pairs(count, owner, order[(lo[owner] + step) % count])


def _inverse_mod(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise s in [0, m) with s*x = 1 (mod m), for coprime x and
    m >= 1, by the extended Euclidean algorithm."""
    r0, r1 = x % m, m
    s0, s1 = np.ones_like(m), np.zeros_like(m)
    while r1.any():
        live = r1 != 0
        quot = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - quot * r1, 0)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - quot * s1, 0)
    return s0 % m


def _shortest_coset_pairs(lat: Lattice, classes: np.ndarray, n: int,
                          cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j in lexicographic order, of canonical
    classes with |Int| = n, holding every such pair whose length product
    is within the 1e-14 tie band of the smallest.

    The work is done in coefficients of the reduced basis, where the
    numbers stay small and |Int| is unchanged.  For u with g = gcd(u)
    dividing n, the v with Int(u, v) = n form the coset v0 + k*u/g, v0
    from Bezout's identity, and |v|^2 = h^2 + |u/g|^2 * (k - k0)^2 about
    the projection k0 of the origin.  For a fixed u the shortest members
    give the smallest products.  The next member out is longer in |v|^2
    by a share of at least (|u|/(g*reach))^2, which the 8M-cell guard
    keeps above 4e-7, far beyond the tie band; so the four members about
    k0 are tried and kept when they are enumerated classes.  Each pair is
    found from the class u with Int(u, v) = +n.  O(N) time and memory.
    """
    count = classes.shape[0]
    reach = _reach(lat, cutoff)
    c1, c2 = reduced_basis(lat)
    (r1x, r1y), (r2x, r2y) = lat.embed(c1), lat.embed(c2)
    covol = abs(r1x * r2y - r1y * r2x)
    none = np.zeros(0, np.int64)
    if n > reach / covol * reach:  # |Int(u, v)| <= |u| |v| / covolume
        return none, none
    det = c1[0] * c2[1] - c1[1] * c2[0]
    a, b = classes[:, 0], classes[:, 1]
    p = det * (c2[1] * a - c2[0] * b)
    q = det * (c1[0] * b - c1[1] * a)
    g = np.gcd(p, q)
    # the partners of u lie at distance h = n * covolume / |u| from 0
    norm = np.hypot(p * r1x + q * r2x, p * r1y + q * r2y)
    sel = np.flatnonzero((n % g == 0) & (n * covol <= reach * norm))
    x, y, m = p[sel] // g[sel], q[sel] // g[sel], n // g[sel]
    span = norm[sel] / g[sel]
    # x*d0 - y*c0 = m
    flat = y == 0
    modulus = np.where(flat, 1, np.abs(y))
    d0 = np.where(flat, m * x,
                  (m % modulus) * _inverse_mod(x, modulus) % modulus)
    c0 = np.where(flat, 0, (x * d0 - m) // np.where(flat, 1, y))
    k0 = -((c0 * r1x + d0 * r2x) * ((x * r1x + y * r2x) / span)
           + (c0 * r1y + d0 * r2y) * ((x * r1y + y * r2y) / span)) / span
    k = np.floor(k0).astype(np.int64)[:, None] + np.arange(-1, 3)
    vc = (c0[:, None] + k * x[:, None]).ravel()
    vd = (d0[:, None] + k * y[:, None]).ravel()
    # look the members up among the classes
    pm, qm = int(np.abs(p).max()), int(np.abs(q).max())
    keys = (p + pm) * (2 * qm + 1) + (q + qm)
    order = np.argsort(keys)
    keys = keys[order]
    inside = (np.abs(vc) <= pm) & (np.abs(vd) <= qm)
    key = np.where(inside, (vc + pm) * (2 * qm + 1) + (vd + qm), -1)
    at = np.minimum(np.searchsorted(keys, key), count - 1)
    found = inside & (keys[at] == key)
    return _distinct_pairs(count, np.repeat(sel, 4)[found], order[at][found])


def _refine_pair_choice(lat: Lattice, classes: np.ndarray,
                        first: np.ndarray, second: np.ndarray,
                        inter: np.ndarray,
                        maximize_ratio: bool) -> tuple[int, int]:
    """Pick one pair among float-tied candidates, given as index arrays
    into the lexicographically sorted classes with first < second.  With
    an exact basis the squared objective is compared in rational
    arithmetic; remaining ties go to the lexicographically smallest pair
    of classes."""
    entries = list(zip(first.tolist(), second.tolist(), inter.tolist()))
    if lat.exact is not None and len(entries) > 1:
        # squared lengths in integers, over the common denominator of the
        # Gram matrix; one scale for every pair keeps the order and ties
        e1x, e1y, e2x, e2y = lat.exact
        gram = (e1x * e1x + e1y * e1y, e1x * e2x + e1y * e2y,
                e2x * e2x + e2y * e2y)
        scale = math.lcm(*(g.denominator for g in gram))
        g11, g12, g22 = (int(g * scale) for g in gram)

        def lsq(k):
            a, b = classes[k].tolist()
            return g11 * a * a + 2 * g12 * a * b + g22 * b * b

        def key_exact(entry):
            i, j, n = entry
            product = lsq(i) * lsq(j)
            # ratio^2 = n^2 / product ; length product^2 = product
            return Fraction(n * n, product) if maximize_ratio else product
        keys = [key_exact(e) for e in entries]
        best = max(keys) if maximize_ratio else min(keys)
        entries = [e for e, key in zip(entries, keys) if key == best]
    i, j, _ = min(entries)
    return i, j


def _class_pair(classes: np.ndarray, i: int,
                j: int) -> tuple[IntegerClass, IntegerClass]:
    return (IntegerClass(*map(int, classes[i])),
            IntegerClass(*map(int, classes[j])))


def best_ratio_search(lat: Lattice, cutoff: float) -> RatioResult:
    """Maximize |intersection| / (length * length) over primitive classes
    of length <= cutoff.  Never exceeds k_real(lat); reaches it on square
    and hexagonal lattices.

    Only the pairs nearest to perpendicular are evaluated (see
    ``_near_perpendicular_pairs``): O(N log N) time and O(N) memory in the
    number N of classes.  The ratio, its 1e-14 tie band and the tie-break
    are those of the full N x N table.
    """
    classes, lengths = enumerate_classes(lat, cutoff, primitive_only=True,
                                         canonical=True)
    if classes.shape[0] == 0:
        raise EmptySearchError(
            f"no primitive classes of length <= {cutoff}; "
            "the cutoff sits below the systole")
    i, j = _near_perpendicular_pairs(lat, classes, lengths)
    inter = _intersections(classes, i, j)
    ratio = inter / (lengths[i] * lengths[j])
    best = float(ratio.max())
    tied = ratio >= best * (1.0 - 1e-14)
    i, j = _refine_pair_choice(lat, classes, i[tied], j[tied], inter[tied],
                               maximize_ratio=True)
    return RatioResult(ratio=best, pair=_class_pair(classes, i, j))


def min_length_product(lat: Lattice, n: int, cutoff: float) -> MinProductResult:
    """Minimize length(u) * length(v) over classes of length <= cutoff
    subject to |intersection(u, v)| = n.

    Only the shortest partners of each class are evaluated, found in
    Bezout cosets (see ``_shortest_coset_pairs``): O(N) time and memory
    in the number N of classes.  The product, its 1e-14 tie band and the
    tie-break are those of the full N x N table.
    """
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
    i, j = _shortest_coset_pairs(lat, classes, n, cutoff)
    if i.size == 0:
        raise CutoffTooSmallError(
            f"no pair with |intersection| = {n} inside cutoff {cutoff}")
    product = lengths[i] * lengths[j]
    best = float(product.min())
    tied = product <= best * (1.0 + 1e-14)
    i, j = _refine_pair_choice(lat, classes, i[tied], j[tied],
                               np.full(int(tied.sum()), n),
                               maximize_ratio=False)
    return MinProductResult(pair=_class_pair(classes, i, j), product=best)


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
    of length <= cutoff.

    The maximum lies among the pairs nearest to perpendicular (see
    ``_near_perpendicular_pairs``), so only those are evaluated: O(N log N)
    time and O(N) memory.  ``pairs_checked`` counts the pairs the search
    covers, N * (N - 1) / 2, and ``argmax_pair`` is the first maximum in
    lexicographic order, as in the full N x N table.
    """
    classes, lengths = enumerate_classes(lat, cutoff, primitive_only=True,
                                         canonical=True)
    if classes.shape[0] == 0:
        raise EmptySearchError(
            f"no primitive classes of length <= {cutoff}")
    l1 = systole(lat)
    i, j = _near_perpendicular_pairs(lat, classes, lengths)
    normalized = (_intersections(classes, i, j) * (l1 * l1)
                  / (lengths[i] * lengths[j]))
    k = int(np.argmax(normalized))
    best = float(normalized[k])
    count = classes.shape[0]
    sine_bound = l1 * l1 / lat.covolume
    return SegmentBoundReport(
        systole=l1,
        pairs_checked=count * (count - 1) // 2,
        max_normalized=best,
        argmax_pair=_class_pair(classes, int(i[k]), int(j[k])),
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
