"""Reference flat-torus searches over dense N x N pair tables.

The enumeration box is taken in the given basis, certified by
Cauchy-Schwarz against its dual basis, and every search builds the full
table of |intersection| and length products over the enumerated classes.
Memory grows with the square of the class count, so this is for small
cutoffs only.  The tests require the O(N) searches of
``intnorm.flat_torus`` to return exactly what these return, float bits
and tie-broken pairs included.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from intnorm import (
    CutoffTooSmallError,
    DegenerateInputError,
    DomainError,
    EmptySearchError,
    IntegerClass,
    Lattice,
    systole,
)
from intnorm.flat_torus import MinProductResult, RatioResult, \
    SegmentBoundReport

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
