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

``crossing_count_oracle`` tries only the lattice translates in the
crossing parallelogram, scanned by rows in lattice coordinates: about
|a| + |c| + |Int(u, v)| of them, however skewed the basis.  Its domain is
stated and enforced: that sum at most MAX_CROSSING_CANDIDATES, over a
call or a batch, and crossings that double precision can place on the
segments (a rounding bound on the segment parameters of at most 1),
which rules out classes very long against their intersection number and
offsets far from the origin.  A pair with a crossing at a seam is
flagged in its ``CrossingBatch``; ``retry_flagged``, the retry driver of
both oracles, retries it up to MAX_RETRIES times and leaves it flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .errors import (
    CutoffTooSmallError,
    DegenerateInputError,
    DomainError,
    EmptySearchError,
    RetrySignal,
    integer,
    real,
)

if TYPE_CHECKING:  # fractions is imported where an exact basis needs it
    from fractions import Fraction

# Relative slack when comparing squared lengths against an enumeration
# cutoff, so classes sitting exactly on the boundary are kept.
_CUTOFF_SLACK = 1e-12

# Parameter-space tolerance around the base-point seam of a closed
# geodesic; crossings this close to the seam trigger a retry, with a new
# random base point (see retry_flagged).
SEAM_TOLERANCE = 1e-9

# Domain of the crossing oracle: the most |a| + |c| + |Int(u, v)| of a
# call, or of a batch summed, about the number of translates it tries.  A
# crossing costs about 0.01-0.03 us and 10 bytes, and a row of the crossing
# parallelogram about 0.015 us, so MAX_CROSSING_CANDIDATES keeps one call
# under about 0.1 s and 30 MB (measured, see crossing_batch).
MAX_CROSSING_CANDIDATES = 2_480_000

# Rows that the crossing oracles solve at once (see _solve_rows): on the
# collar (pair, translate) rows, on the torus rows of the crossing
# parallelograms and then their translates.  A chunk takes each row's pair
# from the row's number, so a call's temporaries are those of one chunk:
# a tracemalloc peak of 1.3 MB for the 2,696,757 rows of a thin pair at
# MAX_CROSSING_CANDIDATES, where 65,536 rows took 5.8 MB.  The torus keeps
# one row index per translate of a chunk of rows, 8 bytes each, and takes
# each translate's i, j and pair from it, so one row of 2,479,999
# translates peaks at 24 MB, and a batch of 2 or 4 pairs of one row each
# at 25 MB (Intel Xeon, 2 vCPUs, numpy 2.4).
ROW_CHUNK = 16_384

# Most cells an enumeration box may hold, and most candidate pairs a
# search may evaluate: each costs tens of bytes of int64 and float64
# arrays, a few hundred MB at the bound.
_MAX_ENUM_CELLS = 8_000_000
_MAX_SEARCH_PAIRS = 4_000_000

# Largest coefficient of an enumerated class in the given basis: products
# of two stay below 2**62, so intersection numbers are exact in int64.
_MAX_COEFFICIENT = 2 ** 31

_EPS = 2.0 ** -52
_TINY = 2.0 ** -1022  # the smallest normal double; below it 1/x overflows


class IntegerClass(NamedTuple):
    """Integer homology class a*[e1] + b*[e2]."""

    a: int
    b: int


class RealClass(NamedTuple):
    """Real homology class x*[e1] + y*[e2]."""

    x: float
    y: float


@dataclass(frozen=True)
class CrossingReport:
    """Outcome of a crossing oracle run: the number of transversal
    crossings of two closed geodesics (or arcs), and the sign of each."""

    count: int
    signs: tuple[int, ...]

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


# Why a pair of a CrossingBatch needs a retry, with the RetrySignal
# message of each reason.
OVERLAP, GRAZE, SEAM = 1, 2, 3
_RETRY_MESSAGES = {OVERLAP: "overlapping geodesic lifts",
                   GRAZE: "crossing grazes the collar boundary",
                   SEAM: "crossing within tolerance of a base-point seam"}


class CrossingBatch(NamedTuple):
    """Crossings of n pairs, as found by a batched crossing oracle:
    ``crossing_batch`` for closed geodesics on a flat torus,
    ``cylinder.crossing_batch_cyl`` for arcs across a collar.

    Pair i crosses with the int8 signs signs[offsets[i]:offsets[i + 1]]:
    on the torus one sign for every crossing, on the collar the signs in
    the order of the deck translates, which is the order of the crossings
    along the core, one way or the other.  retry[i] is 0, or SEAM
    (torus), OVERLAP or GRAZE (collar) where the one-pair oracle raises
    RetrySignal on pair i; the crossings of such a pair mean nothing.

    Both oracles build it with one row driver, ``_solve_rows``: pair i
    has a run of rows, and solve(r, i) is handed each chunk of ROW_CHUNK
    rows as the index r of each row within its pair's run and the rows'
    pairs i, None for a batch of one pair, whose constants broadcast
    (see ``_rows``).  It returns its items in row order, as pieces
    (pair, hit_pairs, signs, code): each item's pair, the hits' pairs,
    their int8 signs and each item's retry code, or None where no item
    is flagged.  A pair counts its hits in hit_pairs, keeps their signs
    in row order and takes the code of its first flagged item.  A batch
    of one pair has None as pair and hit_pairs and counts its signs.
    """

    offsets: np.ndarray
    signs: np.ndarray
    retry: np.ndarray

    def report(self, i: int) -> CrossingReport:
        """The crossings of pair i, or RetrySignal if it is flagged."""
        if self.retry[i]:
            raise RetrySignal(_RETRY_MESSAGES[int(self.retry[i])])
        lo, hi = self.offsets[i:i + 2].tolist()
        n, signs = hi - lo, self.signs[lo:hi]
        # one sign throughout, as on the torus, is repeated, not converted
        if n and signs[:1].tobytes() * n == signs.tobytes():
            return CrossingReport(n, tuple(signs[:1].tolist()) * n)
        return CrossingReport(n, tuple(signs.tolist()))

    def with_pair(self, i: int, one: CrossingBatch) -> CrossingBatch:
        """Pair i replaced by the one pair of ``one``."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        offsets, retry = self.offsets.copy(), self.retry.copy()
        offsets[i + 1:] += one.offsets[1] - (hi - lo)
        retry[i] = one.retry[0]
        return CrossingBatch(offsets, np.concatenate(
            (self.signs[:lo], one.signs, self.signs[hi:])), retry)


# Retries of a flagged pair after its first try, for both oracles.
MAX_RETRIES = 8


def retry_flagged(batch: CrossingBatch, resolve) -> CrossingBatch:
    """The retry driver of both crossing oracles: each flagged pair i of
    the batch, in pair order, is replaced by resolve(i), its batch of one
    under a fresh perturbation, until that is not flagged or MAX_RETRIES
    are spent.  A pair still flagged then keeps the flag of its last try,
    so that ``report`` raises RetrySignal for it."""
    for i in batch.retry.nonzero()[0].tolist():
        for _ in range(MAX_RETRIES):
            batch = batch.with_pair(i, resolve(i))
            if not batch.retry[i]:
                break
    return batch


def _rows(value, i):
    """A per-pair value at the rows of pairs i, or, for i None, the one
    pair's own value, which broadcasts into every row."""
    return value if i is None else value[i]


def _flag_first(retry: np.ndarray, pair: np.ndarray | None,
                code: np.ndarray) -> None:
    """Give each pair not flagged yet the code of its first flagged item;
    the items run in order of pair and row, and pair is None where they
    all belong to the one pair of the batch."""
    if pair is None:
        pair = np.zeros(len(code), dtype=np.intp)
    rows = np.flatnonzero(code)
    p, lead = np.unique(pair[rows], return_index=True)
    c = code[rows[lead]]
    fresh = retry[p] == 0
    retry[p[fresh]] = c[fresh]


def _solve_rows(runs: np.ndarray, solve) -> CrossingBatch:
    """The row driver of both crossing oracles: the CrossingBatch of the
    pairs whose runs of rows have the int64 lengths runs, each chunk
    solved by solve as ``CrossingBatch`` states."""
    count = len(runs)
    retry = np.zeros(count, dtype=np.int8)
    # an empty first piece, so that a call without rows joins int8 signs
    signs = [np.zeros(0, dtype=np.int8)]
    if count == 1:
        ends, total = None, int(runs[0])
    else:
        ends, total = runs.cumsum(), int(runs.sum())
        starts, counts = ends - runs, np.zeros(count, dtype=np.int64)
    for lo in range(0, total, ROW_CHUNK):
        r = np.arange(lo, min(lo + ROW_CHUNK, total))
        i = None if ends is None else ends.searchsorted(r, side="right")
        for pair, hit_pairs, hit_signs, code in solve(
                r if i is None else r - starts[i], i):
            if code is not None:
                _flag_first(retry, pair, code)
            if hit_pairs is not None:
                counts += np.bincount(hit_pairs, minlength=count)
            signs.append(hit_signs)
    signs = np.concatenate(signs)
    offsets = np.zeros(count + 1, dtype=np.int64)
    offsets[1:] = len(signs) if ends is None else counts.cumsum()
    return CrossingBatch(offsets, signs, retry)


def _pair(name: str, value, check=real) -> tuple:
    """The two entries of ``value``, each through ``check``."""
    try:
        x, y = value
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a pair of numbers, "
                          f"got {value!r}") from None
    return check(name, x), check(name, y)


@dataclass(frozen=True)
class Lattice:
    """Rank-2 lattice spanned by the column vectors e1 and e2.

    ``exact`` optionally carries the basis entries as Fractions
    (populated by :meth:`from_string`); when present, the searches break
    floating-point ties by comparing squared lengths exactly, in the
    integer Gram form of the basis.
    """

    e1: tuple[float, float]
    e2: tuple[float, float]
    exact: Optional[tuple[Fraction, Fraction, Fraction, Fraction]] = None

    def __post_init__(self):
        object.__setattr__(self, "e1", _pair("e1", self.e1))
        object.__setattr__(self, "e2", _pair("e2", self.e2))
        normal = _TINY <= abs(self.det) < math.inf
        if self.exact is not None or not normal:
            # in exact rationals, those given or the floats, this tells a
            # dependent basis from a determinant out of range; given
            # entries can round to a dependent (1/3) or zero (1e-400) float
            from fractions import Fraction

            e1x, e1y, e2x, e2y = map(Fraction,
                                     self.exact or (*self.e1, *self.e2))
            if e1x * e2y == e1y * e2x:
                raise DegenerateInputError(
                    "basis vectors are linearly dependent")
        if not normal:
            raise DomainError(f"determinant of the basis {self.e1}, "
                              f"{self.e2} is outside the normal range of "
                              "double precision")

    @classmethod
    def from_string(cls, text: str) -> "Lattice":
        """Parse 'e1x,e1y,e2x,e2y' where entries are decimal or rational
        strings such as '1', '0.5' or '-3/7'."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise DomainError(
                f"expected four comma-separated entries, got {text!r}")
        from fractions import Fraction

        try:
            vals = tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"unparsable lattice entry in {text!r}") from exc
        return cls(e1=vals[:2], e2=vals[2:], exact=vals)

    @property
    def det(self) -> float:
        return self.e1[0] * self.e2[1] - self.e1[1] * self.e2[0]

    @property
    def covolume(self) -> float:
        return abs(self.det)

    def embed(self, cls) -> tuple[float, float]:
        """Plane vector of the class (a, b) |-> a*e1 + b*e2.  In plain
        operators, so that equal-shape arrays a and b give arrays."""
        a, b = cls
        return (a * self.e1[0] + b * self.e2[0],
                a * self.e1[1] + b * self.e2[1])


def intersection_number(u, v) -> int:
    """Algebraic intersection number a*d - b*c of (a, b) and (c, d),
    computed in exact integer arithmetic."""
    (a, b), (c, d) = _pair("u", u, integer), _pair("v", v, integer)
    return a * d - b * c


def class_length(lat: Lattice, cls) -> float:
    """Stable norm of a homology class: the Euclidean length of its
    embedded vector.  Accepts integer or real classes."""
    x, y = lat.embed(_pair("class", cls))
    return math.hypot(x, y)


def k_real(lat: Lattice) -> float:
    """Supremum of |intersection| / (length * length) over real classes;
    equals 1/covolume on a flat torus."""
    return 1.0 / lat.covolume


def _check_squared_length(cls: tuple[int, int], v: np.ndarray) -> None:
    """Refuse the vector of a class when its squared length leaves the
    normal range of double precision, checked in Python floats, which
    overflow to inf without a warning."""
    x, y = float(v[0]), float(v[1])
    sq = x * x + y * y
    if not _TINY <= sq < math.inf:
        name = {(1, 0): "e1", (0, 1): "e2"}.get(cls, f"the class {cls}")
        raise DomainError(f"squared length {sq!r} of {name} = ({x!r}, {y!r}) "
                          "is outside the normal range of double precision")


def reduced_basis(lat: Lattice) -> tuple[IntegerClass, IntegerClass]:
    """Lagrange-reduced basis of the lattice, as integer coefficient pairs
    (c1, c2) in the original basis, normalized so the embedded vectors
    satisfy |v1| <= |v2| and <v1, v2> <= 0.

    Raises DomainError when the squared length of a basis vector, or of a
    vector met on the way, leaves the normal range of double precision.
    Inside it |mu| <= |v2| / |v1| < 2**1024 stays finite."""
    v1 = np.array(lat.e1, dtype=float)
    v2 = np.array(lat.e2, dtype=float)
    c1, c2 = (1, 0), (0, 1)
    _check_squared_length(c1, v1)
    _check_squared_length(c2, v2)
    if v1 @ v1 > v2 @ v2:
        v1, v2, c1, c2 = v2, v1, c2, c1
    for _ in range(64):
        mu = round(float(v1 @ v2) / float(v1 @ v1))
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


def _skew(lat: Lattice) -> float:
    """|e1| |e2| / covolume: computed lengths are off by a few eps times it."""
    return math.hypot(*lat.e1) / lat.covolume * math.hypot(*lat.e2)


def within_rounding(lat: Lattice, value: float, bound: float) -> bool:
    """value <= bound up to the rounding of lengths, ratios and norms
    computed in the basis of lat: the one tolerance of their verdicts."""
    return value <= bound * (1.0 + (1e-12 + 64.0 * _EPS * _skew(lat)))


def _reach(lat: Lattice, cutoff: float) -> float:
    """A radius holding every class whose computed length passes cutoff."""
    return cutoff * (1.0 + 1e-9 + 16.0 * _EPS * _skew(lat))


def enumerate_classes(lat: Lattice, cutoff: float, *,
                      primitive_only: bool = False
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The canonical nonzero integer classes of length <= cutoff, with their
    lengths: one class of each {v, -v} pair, the one with a > 0, or a == 0
    and b > 0.

    Exhaustive by construction.  The coefficient box is taken in the
    Lagrange-reduced basis (r1, r2): a class p*r1 + q*r2 of length |v| has
    |p| <= |v| * |r2| / covolume and |q| <= |v| * |r1| / covolume
    (Cauchy-Schwarz against the dual basis), so no class of length below
    the cutoff can fall outside the box, and the box holds a bounded
    multiple of the class count however skewed the given basis is.  The
    classes are mapped back to coefficients (a, b) in the given basis, and
    their lengths are computed from a*e1 + b*e2, where v and -v have the
    same length bit for bit.  Classes come back sorted lexicographically
    by (a, b).

    Raises DomainError when the box holds more than 8M cells, or when a
    coefficient in the given basis could exceed 2**31, past which
    intersection numbers would overflow int64.
    """
    cutoff = real("cutoff", cutoff, positive=True)
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
    vx, vy = lat.embed((A, B))
    lsq = vx * vx + vy * vy
    keep = ((lsq > 0.0) & (lsq <= (cutoff * (1.0 + _CUTOFF_SLACK)) ** 2)
            & ((A > 0) | ((A == 0) & (B > 0))))
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
    reduced basis and its short diagonal.  Raises DomainError where the
    circumradius overflows."""
    c1, c2 = reduced_basis(lat)
    b1 = np.array(lat.embed(c1))
    b2 = np.array(lat.embed(c2))
    diag = b1 + b2
    diameter = max(_circumradius(b1, diag), _circumradius(b2, diag))
    if not math.isfinite(diameter):
        raise DomainError(f"diameter of the basis {lat.e1}, {lat.e2} is "
                          "outside the range of double precision")
    return diameter


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
    key = np.sort(np.minimum(i, j)[keep] * count + np.maximum(i, j)[keep])
    first = np.ones(key.size, bool)  # the first key of each run of equals
    first[1:] = key[1:] != key[:-1]
    key = key[first]
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
    of each class's perpendicular give a lower bound on the maximum; the
    pair that sets it, and every pair within the angle from perpendicular
    that it leaves open, are kept, widened for the tie band and for the
    rounding of the lengths and angles, which grows with the skew of the
    given basis (a bound past 1/covolume leaves only that).  O(N log N)
    time and O(N) memory, with a few pairs per class.  Raises DomainError
    past 4M candidate pairs, which only a badly skewed given basis with a
    large cutoff reaches.
    """
    count = classes.shape[0]
    if count == 1:
        # the one class paired with itself, as the full table has it
        return np.zeros(1, np.int64), np.zeros(1, np.int64)
    a, b = classes[:, 0], classes[:, 1]
    x, y = lat.embed((a, b))
    angle = np.arctan2(y, x) % np.pi
    order = np.argsort(angle)
    ring = np.concatenate((angle[order] - np.pi, angle[order],
                           angle[order] + np.pi))
    normal = angle + np.pi / 2
    every = np.arange(count)
    at = np.searchsorted(ring, normal)
    i = np.concatenate((every, every))
    j = order[np.concatenate((at - 1, at)) % count]
    ratios = _intersections(classes, i, j) / (lengths[i] * lengths[j])
    k = int(ratios.argmax())
    best = float(ratios[k])
    e1, e2 = math.hypot(*lat.e1), math.hypot(*lat.e2)
    kappa = float(((np.abs(a) * e1 + np.abs(b) * e2) / lengths).max())
    err = 32.0 * _EPS * (kappa + _skew(lat) + 2.0)
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
    return _distinct_pairs(count, np.append(owner, i[k]), np.append(
        order[(lo[owner] + step) % count], j[k]))


def _perpendicular_search(lat: Lattice, cutoff: float, empty: str) -> tuple:
    """The shared pass of the ratio and segment searches: the canonical
    primitive classes of length <= cutoff, their lengths, and the index
    pairs i, j near perpendicular with their |Int|.  Raises
    EmptySearchError(empty) when there is no such class."""
    classes, lengths = enumerate_classes(lat, cutoff, primitive_only=True)
    if classes.shape[0] == 0:
        raise EmptySearchError(empty)
    i, j = _near_perpendicular_pairs(lat, classes, lengths)
    return classes, lengths, i, j, _intersections(classes, i, j)


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
        from fractions import Fraction

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
    classes, lengths, i, j, inter = _perpendicular_search(
        lat, cutoff, f"no primitive classes of length <= {cutoff}; "
        "the cutoff sits below the systole")
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
    n = integer("n", n, 0)
    if n == 0:
        raise DegenerateInputError(
            "n = 0 is degenerate: parallel classes realize it trivially")
    classes, lengths = enumerate_classes(lat, cutoff)
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
    classes, lengths, i, j, inter = _perpendicular_search(
        lat, cutoff, f"no primitive classes of length <= {cutoff}")
    l1 = float(lengths.min())  # the systole: the shortest class is primitive
    normalized = inter * (l1 * l1) / (lengths[i] * lengths[j])
    k = int(np.argmax(normalized))
    best = float(normalized[k])
    count = classes.shape[0]
    sine_bound = l1 * l1 / lat.covolume
    return SegmentBoundReport(
        systole=l1,
        pairs_checked=count * (count - 1) // 2,
        max_normalized=best,
        argmax_pair=_class_pair(classes, int(i[k]), int(j[k])),
        nine_bound_ok=within_rounding(lat, best, 9.0),
        sine_bound=sine_bound,
        sine_bound_ok=within_rounding(lat, best, sine_bound),
    )


def norm_comparison_report(lat: Lattice, h) -> NormComparison:
    """Compare the stable norm of a real class h = x*e1 + y*e2 with the L2
    norm |alpha| * sqrt(V) of the harmonic form alpha.dx Poincare dual to
    it, whose periods B^T alpha = (Int(h, e1), Int(h, e2)) = (-y, x),
    checking stable/sqrt(V) <= l2 <= k_real * sqrt(V) * stable.  Both
    inequalities are equalities here, which is what makes the flat torus
    the extremal case."""
    x, y = _pair("h", h)
    v = lat.covolume
    stable = class_length(lat, (x, y))
    alpha = np.linalg.solve(np.array([lat.e1, lat.e2]), (-y, x))
    l2 = math.hypot(*alpha) * math.sqrt(v)
    lower = stable / math.sqrt(v)
    upper = k_real(lat) * math.sqrt(v) * stable
    ok = within_rounding(lat, lower, l2) and within_rounding(lat, l2, upper)
    return NormComparison(stable=stable, l2=l2, two_sided_ok=ok)


def _parallelogram(lat: Lattice, u, v, offset) -> tuple:
    """Check one pair against the oracle's domain and return its constants
    in one tuple: the first row i of its crossing parallelogram, the row
    count, the sign of its crossings, o1, o2, its two slabs (p, q, A, B)
    interleaved, the coefficients of t and s, and |a| + |c| + |n|.

    In lattice coordinates the two segments meet at t*u - s*v = (i, j) + o,
    o the offset in the basis.  With n = a*d - b*c, x = i + o1 and
    y = j + o2, that is t*n = d*x - c*y and s*n = b*x - a*y, so the
    translates form a parallelogram of area |n| over about |a| + |c| rows
    of i.  Row x meets it where y runs from (p*x - A)/q to (p*x - B)/q in
    both slabs (p, q) = (d, c) and (b, a), A and B being n*lo and n*hi in
    the order that the sign of q gives.  A slab with q = 0 only repeats
    the row range and is left out, with infinite limits.  The margin in
    lo = -margin and hi = 1 + margin is SEAM_TOLERANCE plus a bound on the
    rounding of the t and s that the oracle computes in the plane, and of
    the limits computed here: 32 eps * k^2 / (|n| * covolume), where k
    bounds the lengths met on the way, as ``_reach`` bounds the rounding
    of class lengths.  Rows number at most (|a| + |c|) * (1 + 2 * margin)
    + 1.  Raises DomainError when |a| + |c| + |n| exceeds
    MAX_CROSSING_CANDIDATES, or when the rounding bound exceeds 1, past
    which the computed t and s say nothing of where a crossing lies.
    """
    (a, b), (c, d) = _pair("u", u, integer), _pair("v", v, integer)
    if (a, b) == (0, 0) or (c, d) == (0, 0):
        raise DegenerateInputError("classes must be nonzero")
    n = a * d - b * c
    if n == 0:
        raise DegenerateInputError(
            f"classes {(a, b)} and {(c, d)} are proportional")
    ox, oy = _pair("offset", offset)
    (e1x, e1y), (e2x, e2y), det = lat.e1, lat.e2, lat.det
    o1 = (ox * e2y - oy * e2x) / det
    o2 = (-ox * e1y + oy * e1x) / det
    if abs(a) + abs(c) + abs(n) > MAX_CROSSING_CANDIDATES:
        raise DomainError(
            f"the crossing oracle would try about |a| + |c| + |Int| = "
            f"{abs(a) + abs(c) + abs(n)} translates for {(a, b)} and "
            f"{(c, d)}, beyond its bound of {MAX_CROSSING_CANDIDATES}; use "
            "shorter classes")
    try:
        k = ((abs(a) + abs(c) + abs(o1) + 1.0) * math.hypot(e1x, e1y)
             + (abs(b) + abs(d) + abs(o2) + 1.0) * math.hypot(e2x, e2y))
    except OverflowError:  # a coefficient past the range of a double
        k = math.inf
    rounding = 32.0 * _EPS * k / abs(det) * k / abs(n)
    if not rounding <= 1.0:
        raise DomainError(
            f"crossings of {(a, b)} and {(c, d)} from the offset {(ox, oy)} "
            f"are known only to within {rounding:.3g} of the segments' "
            "length in double precision; use shorter classes, a "
            "better-conditioned basis or an offset nearer the origin")
    lo = -(SEAM_TOLERANCE + rounding)
    hi = 1.0 + SEAM_TOLERANCE + rounding
    ilo = math.ceil(min(lo * a, hi * a) - max(lo * c, hi * c) - o1)
    ihi = math.floor(max(lo * a, hi * a) - min(lo * c, hi * c) - o1)
    low, high = sorted((n * lo, n * hi))
    (tp, tq, ta, tb), (sp, sq, sa, sb) = [
        (p, q, *((low, high) if q < 0 else (high, low))) if q else
        (0, 1, math.inf, -math.inf) for p, q in ((d, c), (b, a))]
    # the translate of the v-segment by i*e1 + j*e2 meets the u-line at
    # t*U = offset + i*e1 + j*e2 + s*V
    ux, uy = lat.embed((a, b))
    vx, vy = lat.embed((c, d))
    cross_uv = ux * vy - uy * vx
    return (ilo, max(ihi - ilo + 1, 0),
            1 if (det > 0) == (cross_uv > 0) else -1, o1, o2, tp, sp, tq,
            sq, ta, sa, tb, sb, ox, oy, -vy, -uy, vx, ux, -cross_uv,
            abs(a) + abs(c) + abs(n))


def crossing_count_oracle(lat: Lattice, u, v, offset) -> CrossingReport:
    """Count transversal crossings of straight closed geodesics in the
    classes u and v on the torus, by brute force in the universal cover.

    The u-geodesic is the segment from the origin to its embedded vector;
    the v-geodesic starts at ``offset``.  The oracle solves
    t*U = offset + lambda + s*V for every lattice translate lambda of the
    v-segment that can cross the u-segment and reports the number of
    crossings and the sign of each.  It never consults the intersection
    formula, which is the point: the expected outcome is
    count = |a*d - b*c| with every sign equal to sign(a*d - b*c).  The
    translates tried are those of the crossing parallelogram, widened in
    t and s by SEAM_TOLERANCE plus a rounding bound (see
    ``_parallelogram``): |Int| + O(|a| + |c|) of them.  The call is
    ``crossing_batch`` on one pair, which states the domain; a seam
    raises RetrySignal, and the caller should re-randomize the offset.

    Not exported: only the benchmark under bench/ calls it.
    """
    return crossing_batch(lat, [u], [v], [offset]).report(0)


def crossing_batch(lat: Lattice, u, v, offsets) -> CrossingBatch:
    """The oracle of ``crossing_count_oracle`` on n pairs at once, given
    as n-long sequences of pairs such as (n, 2) arrays, and its one gate.
    The rows of all parallelograms, and then each chunk's translates, are
    solved by ``_solve_rows``, ROW_CHUNK at a time, with the one-pair
    oracle's float expressions.  A seam is flagged per pair as SEAM.

    Before any row is built, the first pair that fails a check of
    ``_parallelogram`` is refused (DegenerateInputError for classes that
    are zero or proportional, DomainError past the domain), and then a
    sum of |a| + |c| + |Int| past MAX_CROSSING_CANDIDATES = 2,480,000.
    The domain of a pair is that sum at most the bound, and a rounding
    bound on t and s of at most 1.  At the bound, on the square lattice,
    one row with |Int| = 2,479,999 took 0.03 s and a tracemalloc peak of
    24 MB, four pairs of one row 0.06-0.07 s and 25 MB, and 2,696,757 rows
    with |Int| = 1 took 0.04 s and 1.3 MB (Intel Xeon, 2 vCPUs, numpy 2.4).
    """
    par = np.array([_parallelogram(lat, *pair)
                    for pair in zip(u, v, offsets)], dtype=float)
    par = par.reshape(-1, 21)
    if par[:, 20].sum() > MAX_CROSSING_CANDIDATES:
        raise DomainError(f"{int(par[:, 20].sum())} candidate translates of "
                          f"a batch exceed the bound {MAX_CROSSING_CANDIDATES}")
    tol = SEAM_TOLERANCE
    sign = par[:, 2].astype(np.int8)
    # a batch of one pair has no pair index: its constants are floats,
    # broadcast into every row
    cols = par[0].tolist() if len(par) == 1 else par.T

    def solve(r, pair):
        i0, o1, o2, tp, sp, tq, sq, ta, sa, tb, sb = [
            _rows(c, pair) for c in (cols[0], *cols[3:13])]
        i = r + i0
        x = i + o1
        tpx, spx = tp * x, sp * x
        first = np.ceil(np.maximum((tpx - ta) / tq, (spx - sa) / sq) - o2)
        sizes = np.floor(np.minimum((tpx - tb) / tq, (spx - sb) / sq)
                         - o2) - first + 1.0
        sizes = np.maximum(sizes, 0.0).astype(np.int64)
        # translate t lies in row[t], at j = skip[row[t]] + t
        row = np.arange(len(sizes)).repeat(sizes)
        skip = first - (sizes.cumsum() - sizes)
        for lo in range(0, len(row), ROW_CHUNK):
            k = row[lo:lo + ROW_CHUNK]
            p = None if pair is None else pair[k]
            ii, jj = i[k], skip[k] + np.arange(lo, lo + len(k), dtype=float)
            ox, oy, nvy, nuy, vx, ux, det_m = [_rows(c, p)
                                               for c in cols[13:20]]
            rx, ry = lat.embed((ii, jj))
            rx += ox
            ry += oy
            ts = np.empty((2, len(ii)))  # t and s, tested as rows
            np.divide(nvy * rx + vx * ry, det_m, out=ts[0])
            np.divide(nuy * rx + ux * ry, det_m, out=ts[1])
            hit = (ts > tol) & (ts < 1.0 - tol)
            hit = hit[0] & hit[1]
            # a parameter within tol of 0 or 1 is no hit, so only the
            # misses can lie at a seam
            miss = ~hit
            ts = ts[:, miss]
            near = (np.abs(ts) <= tol) | (np.abs(ts - 1.0) <= tol)
            inside = (ts > -tol) & (ts < 1.0 + tol)
            seam = (near[0] & inside[1]) | (near[1] & inside[0])
            code = None
            if np.count_nonzero(seam):
                code = np.zeros(len(ii), dtype=np.int8)
                code[miss] = seam * SEAM
            p_hit = None if p is None else p[hit]
            yield p, p_hit, (sign.repeat(np.count_nonzero(hit))
                             if p is None else sign[p_hit]), code

    return _solve_rows(par[:, 1].astype(np.int64), solve)


def random_offset(lat: Lattice, rng) -> tuple[float, float]:
    """frac1*e1 + frac2*e2 from two uniforms of rng."""
    return lat.embed(rng.random(2).tolist())


def count_crossings_batch(lat: Lattice, u, v, offsets,
                          rng) -> CrossingBatch:
    """``crossing_batch`` with every pair flagged at a seam retried from a
    fresh ``random_offset`` of rng by ``retry_flagged``."""
    return retry_flagged(
        crossing_batch(lat, u, v, offsets),
        lambda i: crossing_batch(lat, u[i:i + 1], v[i:i + 1],
                                 [random_offset(lat, rng)]))


def count_crossings(lat: Lattice, u, v, rng) -> CrossingReport:
    """Run the torus crossing oracle with a random base-point offset,
    re-randomized at a seam up to MAX_RETRIES times, and then RetrySignal:
    two uniforms of rng per try, the first included."""
    return count_crossings_batch(lat, [u], [v], [random_offset(lat, rng)],
                                 rng).report(0)
