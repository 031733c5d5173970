"""Tour of the flat-torus machinery.

A flat torus is the plane modulo a rank-2 lattice.  Every closed geodesic
is a straight line, every homology class has an obvious shortest
representative, and the intersection-to-length ratio can be computed
exactly: its supremum is 1/covolume.  This script walks through the
searches that certify that on concrete lattices, and cross-checks the
intersection formula against a literal crossing count.

Run:  python3 demos/flat_torus_tour.py
"""

import math

import numpy as np

from intnorm import (
    Lattice,
    best_ratio_search,
    count_crossings,
    enumerate_classes,
    intersection_number,
    k_real,
    min_length_product,
    norm_comparison_report,
    segment_bound_check,
    systole,
    torus_diameter,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


# -- two classical lattices -------------------------------------------------

square = Lattice((1.0, 0.0), (0.0, 1.0))
hexagonal = Lattice.from_string("1,0,1/2,0.86602540378443865")

show("Square and hexagonal lattices")
for name, lat in (("square", square), ("hexagonal", hexagonal)):
    print(f"{name:10s}  covolume {lat.covolume:.6f}   systole "
          f"{systole(lat):.6f}   diameter {torus_diameter(lat):.6f}   "
          f"1/covolume {k_real(lat):.6f}")

# -- the ratio search reaches 1/covolume ------------------------------------

show("Supremum of |Int| / (length * length)")
for name, lat in (("square", square), ("hexagonal", hexagonal)):
    res = best_ratio_search(lat, cutoff=10.0)
    u, v = res.pair
    print(f"{name:10s}  best ratio {res.ratio:.12f} "
          f"attained by {tuple(u)} x {tuple(v)} "
          f"(Int = {intersection_number(u, v)})")
print("on the hexagonal lattice the value is 2/sqrt(3) =",
      f"{2 / math.sqrt(3):.12f}")

# -- certified enumeration ----------------------------------------------------

show("Certified class enumeration (square lattice, cutoff 2.5)")
classes, lengths = enumerate_classes(square, 2.5)
print(f"{classes.shape[0]} canonical classes; shortest few:")
order = np.argsort(lengths)[:6]
for i in order:
    print(f"  {tuple(int(x) for x in classes[i])}  length {lengths[i]:.6f}")

# -- the crossing oracle vs the algebraic formula ----------------------------

show("Crossing oracle vs a*d - b*c")
rng = np.random.default_rng(0)
skew = Lattice((1.0, 0.15), (-0.2, 1.1))
for u, v in (((3, 1), (1, 2)), ((2, -1), (1, 3)), ((5, 2), (-1, 1))):
    n = intersection_number(u, v)
    rep = count_crossings(skew, u, v, rng)
    print(f"  {u} x {v}: formula {n:+d}, oracle counted {rep.count} "
          f"crossings, all with sign {rep.uniform_sign():+d}")

# -- minimal length products --------------------------------------------------

show("Shortest pair with a prescribed intersection number")
for n in (1, 2, 3):
    res = min_length_product(square, n, cutoff=10.0)
    u, v = res.pair
    print(f"  |Int| = {n}: length product {res.product:.6f} "
          f"at {tuple(u)} x {tuple(v)}")

# -- segment bound and norm comparison ---------------------------------------

show("Normalized bound and the two-sided norm comparison")
rep = segment_bound_check(skew, cutoff=10.0)
print(f"  max |Int| * systole^2 / (len*len) = {rep.max_normalized:.6f} "
      f"over {rep.pairs_checked} pairs (<= 9: {rep.nine_bound_ok}, "
      f"<= systole^2/covolume = {rep.sine_bound:.6f}: {rep.sine_bound_ok})")
nc = norm_comparison_report(skew, (2.0, -1.0))
print(f"  class (2, -1): stable norm {nc.stable:.6f}, harmonic L2 norm "
      f"{nc.l2:.6f}, two-sided comparison tight: {nc.two_sided_ok}")
