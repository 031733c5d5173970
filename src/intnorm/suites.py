"""Verification suites: every closed-form statement in the library is
re-checked here against brute force, exact arithmetic, or extended
precision, over seeded random samples and dense grids.

The three suites (torus, cylinder, bounds) return structured reports with
an explicit list of violations; an empty list means every check passed.
All randomness is drawn from named Philox streams keyed by one seed, so a
fixed seed reproduces the identical report byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import bounds as bounds_mod
from . import cylinder as cyl_mod
from . import flat_torus as torus_mod
from .errors import DomainError, GeometryError, RejectedInputError, RetrySignal
from .seeding import named_stream


@dataclass(frozen=True)
class CheckOutcome:
    """One named check: how many cases ran and how many failed."""

    name: str
    cases: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple[CheckOutcome, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_MAX_REPORTED = 25


def _cap(violations: Sequence[str]) -> tuple[str, ...]:
    vs = list(violations)
    if len(vs) > _MAX_REPORTED:
        extra = len(vs) - _MAX_REPORTED
        vs = vs[:_MAX_REPORTED] + [f"... and {extra} more"]
    return tuple(vs)


# ---------------------------------------------------------------------------
# flat torus


def random_lattice(rng) -> torus_mod.Lattice:
    """Random well-conditioned lattice: side lengths within a factor e of
    1, basis angle bounded away from 0 and pi, random overall rotation,
    and either orientation."""
    r1 = math.exp(rng.uniform(-0.5, 0.5))
    r2 = math.exp(rng.uniform(-0.5, 0.5))
    theta = rng.uniform(math.pi / 6.0, 5.0 * math.pi / 6.0)
    rot = rng.uniform(0.0, 2.0 * math.pi)
    flip = -1.0 if rng.random() < 0.5 else 1.0
    e1 = (r1 * math.cos(rot), r1 * math.sin(rot))
    e2 = (flip * r2 * math.cos(rot + theta), flip * r2 * math.sin(rot + theta))
    return torus_mod.Lattice(e1, e2)


def _random_primitive_class(lat: torus_mod.Lattice, rng,
                            max_len: float = 15.0) -> torus_mod.IntegerClass:
    for _ in range(10_000):
        a = int(rng.integers(-8, 9))
        b = int(rng.integers(-8, 9))
        if a == 0 and b == 0:
            continue
        g = math.gcd(a, b)
        cls = torus_mod.IntegerClass(a // g, b // g)
        if torus_mod.class_length(lat, cls) <= max_len:
            return cls
    raise GeometryError("failed to sample a short primitive class")


def torus_suite(seed: int, *, lattices: int = 20, oracle_pairs: int = 500,
                norm_pairs: int = 100,
                cutoff_multiple: float = 30.0) -> SuiteReport:
    """All flat-torus invariants: exact ratio value, oracle equivalence,
    segment bound, norm comparison, intersection-form algebra, and scale
    equivariance."""
    rng_lat = named_stream(seed, "torus.lattices")
    rng_oracle = named_stream(seed, "torus.oracle")
    rng_norm = named_stream(seed, "torus.norm")
    rng_alg = named_stream(seed, "torus.algebra")

    lats = [random_lattice(rng_lat) for _ in range(lattices)]
    square = torus_mod.Lattice((1.0, 0.0), (0.0, 1.0))
    hexagonal = torus_mod.Lattice((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))

    checks: list[CheckOutcome] = []
    violations: list[str] = []

    # ratio value: the search never exceeds k_real, and attains it on the
    # square and hexagonal lattices
    vs: list[str] = []
    cases = 0
    for lat in lats + [square, hexagonal]:
        cases += 1
        k = torus_mod.k_real(lat)
        res = torus_mod.best_ratio_search(
            lat, cutoff_multiple * torus_mod.systole(lat))
        if res.ratio > k * (1.0 + 1e-12):
            vs.append(f"search ratio {res.ratio!r} exceeds k_real {k!r} "
                      f"for basis {lat.e1}, {lat.e2}")
    for name, lat in (("square", square), ("hexagonal", hexagonal)):
        cases += 1
        k = torus_mod.k_real(lat)
        res = torus_mod.best_ratio_search(
            lat, cutoff_multiple * torus_mod.systole(lat))
        if abs(res.ratio - k) > 1e-12 * k:
            vs.append(f"search ratio {res.ratio!r} misses k_real {k!r} "
                      f"on the {name} lattice")
    checks.append(CheckOutcome("ratio_value", cases, len(vs)))
    violations += vs

    # oracle equivalence: straight-line crossing counts match |a*d - b*c|
    vs = []
    per_lat = max(1, oracle_pairs // len(lats))
    cases = 0
    for lat in lats:
        for _ in range(per_lat):
            if cases >= oracle_pairs:
                break
            u = _random_primitive_class(lat, rng_oracle)
            v = _random_primitive_class(lat, rng_oracle)
            n = torus_mod.intersection_number(u, v)
            if n == 0:
                continue
            cases += 1
            try:
                rep = torus_mod.count_crossings(lat, u, v, rng_oracle)
            except RetrySignal as exc:
                vs.append(f"oracle stuck on {tuple(u)} x {tuple(v)}: {exc}")
                continue
            if rep.count != abs(n):
                vs.append(f"oracle count {rep.count} != |Int| = {abs(n)} "
                          f"for {tuple(u)} x {tuple(v)} on basis "
                          f"{lat.e1}, {lat.e2}")
                continue
            # the oracle gives every crossing one sign, so only that sign
            # is compared
            expected = 1 if n > 0 else -1
            sign = rep.uniform_sign()
            if sign != expected:
                vs.append(f"oracle sign {sign} != sign(Int) = {expected} "
                          f"for {tuple(u)} x {tuple(v)}")
    checks.append(CheckOutcome("oracle_equivalence", cases, len(vs)))
    violations += vs

    # segment bound: |Int| * l1^2 / (len*len) <= 9, and <= l1^2/covolume
    vs = []
    for lat in lats:
        rep = torus_mod.segment_bound_check(
            lat, cutoff_multiple * torus_mod.systole(lat))
        if not rep.nine_bound_ok:
            vs.append(f"segment bound 9 violated: max {rep.max_normalized!r} "
                      f"at {rep.argmax_pair} on basis {lat.e1}, {lat.e2}")
        if not rep.sine_bound_ok:
            vs.append(f"angle bound violated: max {rep.max_normalized!r} > "
                      f"{rep.sine_bound!r} on basis {lat.e1}, {lat.e2}")
    checks.append(CheckOutcome("segment_bound", len(lats), len(vs)))
    violations += vs

    # two-sided norm comparison on random real classes
    vs = []
    cases = 0
    while cases < norm_pairs:
        lat = lats[cases % len(lats)]
        h = torus_mod.RealClass(rng_norm.uniform(-5.0, 5.0),
                                rng_norm.uniform(-5.0, 5.0))
        if abs(h.x) + abs(h.y) < 1e-3:
            continue
        cases += 1
        rep = torus_mod.norm_comparison_report(lat, h)
        if not rep.two_sided_ok:
            vs.append(f"norm comparison failed for class {tuple(h)} on "
                      f"basis {lat.e1}, {lat.e2}: stable={rep.stable!r}, "
                      f"l2={rep.l2!r}")
    checks.append(CheckOutcome("norm_comparison", cases, len(vs)))
    violations += vs

    # the intersection form is antisymmetric and bilinear (exact integers)
    vs = []
    cases = 400
    for _ in range(cases):
        u, v, w = (torus_mod.IntegerClass(int(rng_alg.integers(-9, 10)),
                                          int(rng_alg.integers(-9, 10)))
                   for _ in range(3))
        if (torus_mod.intersection_number(u, v)
                != -torus_mod.intersection_number(v, u)):
            vs.append(f"antisymmetry failed on {tuple(u)}, {tuple(v)}")
        uv = torus_mod.IntegerClass(u.a + v.a, u.b + v.b)
        if (torus_mod.intersection_number(uv, w)
                != torus_mod.intersection_number(u, w)
                + torus_mod.intersection_number(v, w)):
            vs.append(f"bilinearity failed on {tuple(u)}, {tuple(v)}, "
                      f"{tuple(w)}")
    checks.append(CheckOutcome("intersection_algebra", cases, len(vs)))
    violations += vs

    # scaling the lattice by 2 scales lengths by 2 and ratios by 1/4
    vs = []
    for lat in lats[:3]:
        big = torus_mod.Lattice((2.0 * lat.e1[0], 2.0 * lat.e1[1]),
                                (2.0 * lat.e2[0], 2.0 * lat.e2[1]))
        sys_small = torus_mod.systole(lat)
        if abs(torus_mod.systole(big) - 2.0 * sys_small) > 1e-12 * sys_small:
            vs.append(f"systole not doubled for basis {lat.e1}, {lat.e2}")
        if (abs(torus_mod.torus_diameter(big)
                - 2.0 * torus_mod.torus_diameter(lat))
                > 1e-12 * torus_mod.torus_diameter(lat)):
            vs.append(f"diameter not doubled for basis {lat.e1}, {lat.e2}")
        r_small = torus_mod.best_ratio_search(lat, 20.0 * sys_small).ratio
        r_big = torus_mod.best_ratio_search(big, 40.0 * sys_small).ratio
        if abs(r_big - 0.25 * r_small) > 1e-12 * r_small:
            vs.append(f"ratio not quartered for basis {lat.e1}, {lat.e2}")
    checks.append(CheckOutcome("scale_equivariance", 3, len(vs)))
    violations += vs

    return SuiteReport(suite="torus", seed=seed, checks=tuple(checks),
                       violations=_cap(violations))


# ---------------------------------------------------------------------------
# cylinder


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a winding-versus-oracle sweep on one cylinder."""

    core_length: float
    samples: int
    violations: tuple[str, ...]
    max_count: int
    records: Optional[tuple[dict, ...]] = None


def lemma_sweep(core_length: float, samples: int, rng, *,
                mode: str = "shrunk", first_sign: int = 1,
                collect_records: bool = False) -> SweepResult:
    """Sample random arc pairs on one cylinder and confront the oracle
    count and signs with the winding-number window and sign rule.

    The first arc crosses with sign ``first_sign`` (the stated window/sign
    rule is for +1; with -1 every crossing sign flips); the second arc
    enters from the same or the opposite side, alternating randomly.
    Each sample also checks the arc-length lower bounds
    max(2*half_width, |winding|*core_length).
    """
    cyl = cyl_mod.make_collar(core_length, mode)
    floor_len = 2.0 * cyl.half_width
    violations: list[str] = []
    records: list[dict] = []
    max_count = 0
    for _ in range(samples):
        c_wind = rng.uniform(-8.0, 8.0)
        d_wind = rng.uniform(-8.0, 8.0)
        same_side = bool(rng.random() < 0.5)
        t1 = rng.uniform(0.0, core_length)
        t2 = rng.uniform(0.0, core_length)
        eps1 = first_sign
        eps2 = eps1 if same_side else -eps1
        arc1 = cyl_mod.ArcSpec(t1, c_wind, eps1)
        arc2 = cyl_mod.ArcSpec(t2, d_wind, eps2)
        wb = cyl_mod.intersection_bounds(c_wind, d_wind, same_side)
        label = (f"(c={c_wind!r}, d={d_wind!r}, "
                 f"{'same' if same_side else 'opposite'}, eps1={eps1})")
        ok = True
        try:
            rep = cyl_mod.count_crossings_cyl(cyl, arc1, arc2, rng)
        except RetrySignal as exc:
            violations.append(f"oracle stuck at {label}: {exc}")
            ok = False
            rep = None
        if rep is not None:
            max_count = max(max_count, rep.count)
            if not wb.lo <= rep.count <= wb.hi:
                violations.append(
                    f"count {rep.count} outside [{wb.lo}, {wb.hi}] at {label}")
                ok = False
            expected = eps1 * wb.sign
            if rep.count and expected != 0:
                if any(s != expected for s in rep.signs):
                    violations.append(
                        f"signs {rep.signs} not uniformly {expected} "
                        f"at {label}")
                    ok = False
        for arc in (arc1, arc2):
            length = cyl_mod.arc_length(cyl, arc)
            lower = max(floor_len, abs(arc.winding) * core_length)
            if length < lower - 1e-9:
                violations.append(
                    f"arc length {length!r} below floor {lower!r} at {label}")
                ok = False
        if collect_records:
            records.append({
                "c_wind": c_wind, "d_wind": d_wind,
                "same_side": same_side,
                "entry_1": t1, "entry_2": t2,
                "first_sign": eps1,
                "count": None if rep is None else rep.count,
                "window": [wb.lo, wb.hi],
                "expected_sign": eps1 * wb.sign,
                "signs": None if rep is None else list(rep.signs),
                "ok": ok,
            })
    return SweepResult(core_length=core_length, samples=samples,
                       violations=tuple(violations), max_count=max_count,
                       records=tuple(records) if collect_records else None)


def _sample_family(rng, m: int, count: int = 2) -> tuple[float, ...]:
    """Windings whose minimal absolute value has floor m, with pairwise
    gaps below 1; mixed signs are exercised when m = 0."""
    if m == 0:
        center = rng.uniform(-0.5, 0.5)
        return tuple(center + rng.uniform(-0.49, 0.49) for _ in range(count))
    sigma = 1.0 if rng.random() < 0.5 else -1.0
    u_lo = rng.uniform(0.0, 0.01)
    return tuple(sigma * (m + u_lo + rng.uniform(0.0, 0.98))
                 for _ in range(count))


def cylinder_suite(seed: int, *, samples: int = 10_000,
                   core_lengths: Sequence[float] = (0.05, 0.1, 0.2),
                   flipped_samples: int = 1_000,
                   twist_samples: int = 2_000,
                   rewind_m_max: int = 12,
                   rewind_per_cell: int = 50) -> SuiteReport:
    """All cylinder invariants: the winding window and sign rule against
    the crossing oracle (both crossing conventions), Dehn twist algebra,
    the exhaustive rewind grid, and the collar-constant inequalities."""
    rng_sweep = named_stream(seed, "cylinder.sweep")
    rng_flip = named_stream(seed, "cylinder.flipped")
    rng_twist = named_stream(seed, "cylinder.twist")
    rng_rewind = named_stream(seed, "cylinder.rewind")

    checks: list[CheckOutcome] = []
    violations: list[str] = []

    # main sweep, first arc crossing positively
    vs: list[str] = []
    share = samples // len(core_lengths)
    cases = 0
    for i, length in enumerate(core_lengths):
        n = share if i < len(core_lengths) - 1 else samples - share * i
        res = lemma_sweep(length, n, rng_sweep)
        cases += n
        vs.extend(f"[core {length}] {v}" for v in res.violations)
    checks.append(CheckOutcome("winding_window_and_sign", cases, len(vs)))
    violations += vs

    # flipped convention: first arc crossing negatively
    vs = []
    res = lemma_sweep(0.1, flipped_samples, rng_flip, first_sign=-1)
    vs.extend(f"[flipped] {v}" for v in res.violations)
    checks.append(CheckOutcome("flipped_sign_convention",
                               flipped_samples, len(vs)))
    violations += vs

    # Dehn twist algebra: exact inversion on dyadic inputs, and agreement
    # of the winding formula with the coordinate map
    vs = []
    for _ in range(twist_samples):
        c = int(rng_twist.integers(-8192, 8193)) / 1024.0
        z = int(rng_twist.integers(-12288, 12289)) / 1024.0
        eps = 1 if rng_twist.random() < 0.5 else -1
        back = cyl_mod.dehn_twist_winding(
            cyl_mod.dehn_twist_winding(c, eps, z), eps, -z)
        if back != c:
            vs.append(f"twist inversion not exact: {c} -> {back}")
    for _ in range(500):
        length = 0.2
        tcyl = cyl_mod.make_collar(length, "shrunk")
        w = tcyl.half_width
        c = rng_twist.uniform(-6.0, 6.0)
        z = rng_twist.uniform(-6.0, 6.0)
        eps = 1 if rng_twist.random() < 0.5 else -1
        t_in = rng_twist.uniform(0.0, length)
        t_out = t_in + c * length
        in2, _ = cyl_mod.dehn_twist_map(tcyl, z, t_in, -eps * w)
        out2, _ = cyl_mod.dehn_twist_map(tcyl, z, t_out, eps * w)
        direct = cyl_mod.dehn_twist_winding(c, eps, z)
        if abs((out2 - in2) / length - direct) > 1e-9:
            vs.append(
                f"twist coordinate map disagrees with winding formula at "
                f"(c={c!r}, z={z!r}, eps={eps})")
    checks.append(CheckOutcome("dehn_twist_algebra",
                               twist_samples + 500, len(vs)))
    violations += vs

    # exhaustive rewind grid over (m_gamma, m_delta) cells and both sides
    vs = []
    cases = 0
    for m_g in range(rewind_m_max + 1):
        for m_d in range(rewind_m_max + 1):
            for same_side in (True, False):
                for _ in range(rewind_per_cell):
                    g = _sample_family(rng_rewind, m_g)
                    d = _sample_family(rng_rewind, m_d)
                    cases += 1
                    try:
                        rep = cyl_mod.rewind_suite_check(g, d, same_side)
                    except RejectedInputError as exc:
                        vs.append(f"sampler broke a precondition at cell "
                                  f"({m_g}, {m_d}): {exc}")
                        continue
                    if not rep.ok:
                        vs.extend(
                            f"cell ({m_g}, {m_d}, "
                            f"{'same' if same_side else 'opposite'}): {v}"
                            for v in rep.violations)
    checks.append(CheckOutcome("rewind_grid", cases, len(vs)))
    violations += vs

    # collar-constant inequalities on the cylinder's working range
    grid = tuple(0.01 + (0.25 - 0.01) * i / 999.0 for i in range(1000))
    rep = bounds_mod.collar_constants_check(grid)
    checks.append(CheckOutcome("collar_constants",
                               rep.points_checked + rep.mono_points_checked,
                               len(rep.violations)))
    violations += list(rep.violations)

    return SuiteReport(suite="cylinder", seed=seed, checks=tuple(checks),
                       violations=_cap(violations))


# ---------------------------------------------------------------------------
# bounds


def bounds_suite(seed: int, *, genus_max: int = 20,
                 grid_points: int = 50) -> SuiteReport:
    """All bound-formula invariants: double-versus-extended agreement,
    ordering across the (genus, l1) grid, the general-bound sandwich on
    random parameters, profile monotonicity and limits, and the collar
    constants on their full ranges."""
    rng = named_stream(seed, "bounds.params")
    checks: list[CheckOutcome] = []
    violations: list[str] = []

    # double vs extended evaluation
    vs: list[str] = []
    anchors = ((2, 0.1), (3, 0.1), (2, 1e-3), (5, 0.01), (20, 0.25))
    for s, l1 in anchors:
        db = bounds_mod.hyperbolic_bounds(s, l1)
        ex = bounds_mod.hyperbolic_bounds(s, l1, extended=True)
        for field in ("lower", "upper", "collar_rate"):
            d = getattr(db, field)
            e = getattr(ex, field)
            if abs(d - e) > 1e-6 * abs(e):
                vs.append(f"{field}({s}, {l1}) drifts from extended "
                          f"precision: {d!r} vs {e!r}")
    checks.append(CheckOutcome("extended_precision_agreement",
                               len(anchors) * 3, len(vs)))
    violations += vs

    # ordering across the grid, and monotonicity in the genus
    vs = []
    grid = bounds_mod.parse_grid(f"1e-4:0.25:{grid_points}", geometric=True)
    cases = 0
    for s in range(2, genus_max + 1):
        for l1 in grid:
            hb = bounds_mod.hyperbolic_bounds(s, l1)
            cases += 1
            if not hb.lower < hb.collar_rate:
                vs.append(f"lower {hb.lower!r} not below the collar rate "
                          f"{hb.collar_rate!r} at (s={s}, l1={l1})")
    for l1 in (0.1, 0.01):
        values = [bounds_mod.hyperbolic_bounds(s, l1).lower
                  for s in range(2, genus_max + 1)]
        cases += len(values)
        if any(a <= b for a, b in zip(values, values[1:])):
            vs.append(f"lower bound not strictly decreasing in the "
                      f"genus at l1={l1}")
    checks.append(CheckOutcome("bound_ordering", cases, len(vs)))
    violations += vs

    # general bounds on random admissible parameters
    vs = []
    cases = 100
    for _ in range(cases):
        genus = int(rng.integers(1, 6))
        l1 = math.exp(rng.uniform(-3.0, 0.5))
        diameter = 0.5 * l1 * math.exp(rng.uniform(0.01, 2.0))
        volume = math.exp(rng.uniform(-1.0, 3.0))
        try:
            p = bounds_mod.SurfaceParams(genus=genus, l1=l1,
                                         diameter=diameter, volume=volume)
            rep = bounds_mod.full_bound_report(p)
        except (DomainError, GeometryError) as exc:
            vs.append(f"admissible parameters rejected: genus={genus}, "
                      f"l1={l1!r}, D={diameter!r}, V={volume!r}: {exc}")
            continue
        if not (rep.inv_vol > 0 and rep.lower_l1d > 0
                and rep.upper_l1sq > 0):
            vs.append(f"non-positive general bound at genus={genus}, "
                      f"l1={l1!r}")
        if rep.lower_l1d > rep.upper_l1sq * (1 + 1e-12):
            vs.append(f"general sandwich violated at l1={l1!r}, "
                      f"D={diameter!r}")
        if genus >= 2 and rep.hyp_lower is None:
            vs.append(f"hyperbolic fields missing at genus {genus}")
    checks.append(CheckOutcome("general_bounds_sandwich", cases, len(vs)))
    violations += vs

    # asymptotic profiles: tails monotone with the stated limits, full
    # lower profile monotone, all anchored to extended precision
    vs = []
    profile_grid = bounds_mod.parse_grid("1e-2:1e-12:51", geometric=True)
    rows = bounds_mod.asymptotic_profile(2, profile_grid)
    for a, b in zip(rows, rows[1:]):
        if not a.lower_profile_tail < b.lower_profile_tail:
            vs.append(f"lower tail profile not increasing between "
                      f"l1={a.l1!r} and {b.l1!r}")
        if not a.upper_profile_tail < b.upper_profile_tail:
            vs.append(f"upper tail profile not increasing between "
                      f"l1={a.l1!r} and {b.l1!r}")
        if not a.lower_profile < b.lower_profile:
            vs.append(f"full lower profile not increasing between "
                      f"l1={a.l1!r} and {b.l1!r}")
    last = rows[-1]
    if abs(last.lower_profile_tail - 0.25) > 0.10 * 0.25:
        vs.append(f"lower tail profile {last.lower_profile_tail!r} at "
                  f"l1=1e-12 not within 10% of 0.25")
    if abs(last.upper_profile_tail - 18.0) > 0.05 * 18.0:
        vs.append(f"upper tail profile {last.upper_profile_tail!r} at "
                  f"l1=1e-12 not within 5% of 18")
    for s, l1 in ((2, 1e-3), (3, 1e-4)):
        (row,) = bounds_mod.asymptotic_profile(s, (l1,))
        (ex,) = bounds_mod.asymptotic_profile(s, (l1,), extended=True)
        for field in ("lower_profile", "upper_profile",
                      "lower_profile_tail", "upper_profile_tail"):
            d, e = getattr(row, field), getattr(ex, field)
            if abs(d - e) > 1e-9 * e:
                vs.append(f"{field} at (s={s}, l1={l1}) drifts from "
                          "extended precision")
    checks.append(CheckOutcome("asymptotic_profiles",
                               len(rows) + 2, len(vs)))
    violations += vs

    # collar constants on the default full ranges
    rep = bounds_mod.collar_constants_check()
    checks.append(CheckOutcome("collar_constants",
                               rep.points_checked + rep.mono_points_checked,
                               len(rep.violations)))
    violations += list(rep.violations)

    return SuiteReport(suite="bounds", seed=seed, checks=tuple(checks),
                       violations=_cap(violations))


# ---------------------------------------------------------------------------
# front door


SUITES = {
    "torus": torus_suite,
    "cylinder": cylinder_suite,
    "bounds": bounds_suite,
}


def run_suites(name: str, seed: int) -> tuple[SuiteReport, ...]:
    """Run one named suite, or all of them."""
    if name == "all":
        return tuple(SUITES[key](seed) for key in ("torus", "cylinder",
                                                   "bounds"))
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; expected torus, cylinder, bounds, "
            "or all")
    return (SUITES[name](seed),)
