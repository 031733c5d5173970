"""Arcs crossing a hyperbolic cylinder: windings, crossings, twists.

Around every short closed geodesic of a hyperbolic surface sits an
embedded collar whose half-width cl(l) = arsinh(1/sinh(l/2)) blows up as
the core shrinks.  An arc crossing that collar is summarized by one real
number — its winding — and two arcs must cross each other a number of
times pinned by the difference (or sum) of their windings.  This script
builds collars, checks the window and sign rule against the crossing
oracle, applies Dehn twists, and runs the rewinding move that trades
large windings for boundary loops.

Run:  python3 demos/cylinder_windings.py
"""

import numpy as np

from intnorm import (
    ArcSpec,
    arc_length,
    count_crossings_cyl,
    dehn_twist_winding,
    intersection_bounds,
    make_collar,
    rewind_suite_check,
    winding_from_endpoints,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


# -- collars around short geodesics ------------------------------------------

show("Shrunk collars (half-width cl(l) - 1.3)")
for core in (0.05, 0.1, 0.2):
    cyl = make_collar(core, "shrunk")
    print(f"  core {core:5.2f}: half-width {cyl.half_width:.6f}, "
          f"boundary circle {cyl.boundary_circle_length():.6f}")

cyl = make_collar(0.2, "shrunk")

# -- windings -----------------------------------------------------------------

show("Winding numbers from endpoint positions")
for t_in, t_out in ((0.05, 0.57), (0.12, 0.12), (0.05, -0.15)):
    w = winding_from_endpoints(cyl, t_in, t_out)
    print(f"  entry {t_in:5.2f} -> unwrapped exit {t_out:5.2f}: "
          f"winding {w:+.3f}")

# -- the window and sign rule vs the oracle -----------------------------------

show("Crossing window vs the crossing oracle")
rng = np.random.default_rng(1)
pairs = (
    (ArcSpec(0.03, 0.0, 1), ArcSpec(0.11, 2.5, 1)),
    (ArcSpec(0.02, -3.4, 1), ArcSpec(0.15, 1.3, 1)),
    (ArcSpec(0.05, 1.2, 1), ArcSpec(0.17, 0.8, -1)),
)
for arc1, arc2 in pairs:
    same = arc1.crossing_sign == arc2.crossing_sign
    lo, hi, sign = intersection_bounds(arc1.winding, arc2.winding, same)
    rep = count_crossings_cyl(cyl, arc1, arc2, rng)
    side = "same side" if same else "opposite sides"
    print(f"  windings {arc1.winding:+.1f}, {arc2.winding:+.1f} "
          f"({side}): predicted count in [{lo}, {hi}] with sign "
          f"{arc1.crossing_sign * sign:+d}; oracle found {rep.count} "
          f"crossings {tuple(rep.signs)}")

show("Arc lengths dominate both the width and the advance")
for wind in (0.0, 2.6, -5.0):
    arc = ArcSpec(0.0, wind, 1)
    print(f"  winding {wind:+.1f}: length {arc_length(cyl, arc):.6f} "
          f">= max(2w = {2 * cyl.half_width:.6f}, "
          f"|winding|*l = {abs(wind) * cyl.core_length:.6f})")

# -- Dehn twists ----------------------------------------------------------------

show("Dehn twists shift windings by the crossing sign")
for c, eps, z in ((2.3, 1, -2.3), (0.5, -1, 2.0), (1.7, 1, 3.0)):
    print(f"  winding {c:+.2f}, crossing sign {eps:+d}, twist order "
          f"{z:+.2f} -> {dehn_twist_winding(c, eps, z):+.2f}")

# -- rewinding ------------------------------------------------------------------

show("Rewinding two families against each other")
for gammas, deltas in (((3.4, 3.9), (7.2, 7.8)),
                       ((0.2, 0.7), (0.1, 0.9)),
                       ((2.2,), (7.3,))):
    rep = rewind_suite_check(list(gammas), list(deltas), same_side=True)
    lead = "gamma" if rep.gamma_leads else "delta"
    print(f"  gamma {gammas} / delta {deltas}  (cells m = {rep.m_gamma}, "
          f"{rep.m_delta}; {lead} leads)")
    print(f"    -> gamma {tuple(round(v, 3) for v in rep.gamma_rewound)}, "
          f"delta {tuple(round(v, 3) for v in rep.delta_rewound)}, "
          f"all guarantees hold: {rep.ok}")
