"""Reference flat-torus searches over dense N x N pair tables.

The enumeration box is taken in the given basis, certified by
Cauchy-Schwarz against its dual basis, and every search builds the full
table of |intersection| and length products over the enumerated classes.
Memory grows with the square of the class count, so this is for small
cutoffs only.  The tests require the O(N) searches of
``intnorm.flat_torus`` to return exactly what these return, float bits
and tie-broken pairs included.

``crossing_count_oracle_box`` is the crossing oracle over the Cartesian
bounding-box window of lattice translates, which holds far more
translates than crossings and grows without bound on a skewed basis; the
tests require the oracle's report, or its RetrySignal, to be the same.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional

import numpy as np

from intnorm import (
    CrossingReport,
    CutoffTooSmallError,
    DegenerateInputError,
    DomainError,
    EmptySearchError,
    IntegerClass,
    Lattice,
    RetrySignal,
    systole,
)
from intnorm.flat_torus import SEAM_TOLERANCE, MinProductResult, \
    RatioResult, SegmentBoundReport, _pair

_CUTOFF_SLACK = 1e-12
_MAX_ENUM_CELLS = 8_000_000


def enumerate_classes_box(lat: Lattice, cutoff: float, *,
                          primitive_only: bool = False,
                          canonical: bool = False
                          ) -> tuple[np.ndarray, np.ndarray]:
    """All nonzero integer classes of length <= cutoff, with their
    lengths, from a coefficient box in the given basis."""
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


def length_sq_exact(lat: Lattice, cls) -> Optional[Fraction]:
    """Exact squared length of an integer class, or None when the basis
    was not given in exact form."""
    if lat.exact is None:
        return None
    a, b = (operator.index(cls[0]), operator.index(cls[1]))
    e1x, e1y, e2x, e2y = lat.exact
    g11 = e1x * e1x + e1y * e1y
    g12 = e1x * e2x + e1y * e2y
    g22 = e2x * e2x + e2y * e2y
    return g11 * a * a + 2 * g12 * a * b + g22 * b * b


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
            lsq = (length_sq_exact(lat, classes[i]) *
                   length_sq_exact(lat, classes[j]))
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
    of length <= cutoff."""
    classes, lengths = enumerate_classes_box(lat, cutoff, primitive_only=True,
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
    classes, lengths = enumerate_classes_box(lat, cutoff, canonical=True)
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


def segment_bound_check(lat: Lattice, cutoff: float) -> SegmentBoundReport:
    """Evaluate the normalized intersection bound over all primitive pairs
    of length <= cutoff."""
    classes, lengths = enumerate_classes_box(lat, cutoff, primitive_only=True,
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


def crossing_count_oracle_box(lat: Lattice, u, v, offset) -> CrossingReport:
    """Count transversal crossings of straight closed geodesics in the
    classes u and v on the torus, by brute force in the universal cover.

    The u-geodesic is the segment from the origin to its embedded vector;
    the v-geodesic starts at ``offset``.  The oracle intersects the
    u-segment with every lattice translate of the v-segment inside a
    certified window and reports the number of crossings and the sign of
    each.  It never consults the intersection formula, which is the point:
    the expected outcome is count = |a*d - b*c| with every sign equal to
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
    ox, oy = _pair("offset", offset)

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
    sign = (1 if lat.det > 0 else -1) * (1 if cross_uv > 0 else -1)
    return CrossingReport(count=count, signs=(sign,) * count)
