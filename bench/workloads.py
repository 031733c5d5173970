"""The four benchmark workloads: seeded input generators, bodies and
output checks.

Each workload has a generator ``make_<name>(seed)`` that builds its
inputs from the seed alone, and ``units_<name>(inputs)`` that splits one
run of its body into short units of work.  The worker times every unit
separately, so one slow moment of the machine spoils one unit's time
rather than the whole body's.  Units call into intnorm, check every
output and fold it into an ``Outcome``.  They look functions up on their
modules at call time, so a tracer installed on those modules sees every
call.  ``units_<name>`` is called afresh for each run of the body, which
restarts the random streams the oracles draw from.

An ``Outcome`` counts the operations attempted and the failures among
them (an oracle count outside its window or with the wrong or mixed
sign, an oracle still stuck after its retries, a refused input, a verify
violation, a broken output invariant), and keeps a digest of every
output, which must repeat exactly for a given seed.  Failures are counted
and never abort a body.  Inputs in a known-defect range are marked: a
failure there is counted apart, in ``known_failed``, as a measurement of
the defect.  A failure anywhere else counts in ``failed``, is
``unexpected`` and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from intnorm import bounds, cylinder, flat_torus, hyptrig
from intnorm.errors import GeometryError, RetrySignal

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
VERIFY_TIMEOUT_S = 100.0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    known_failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    _hash: object = field(default_factory=hashlib.sha256)

    def record(self, output) -> None:
        """Fold one output into the digest."""
        self._hash.update(repr(output).encode())
        self._hash.update(b"\n")

    def record_floats(self, values) -> None:
        """Fold numbers into the digest by their exact float64 bits;
        cheaper than ``record`` for the many outputs of fast functions."""
        self._hash.update(array("d", values).tobytes())

    def check(self, ok: bool, what: str, *args,
              known_defect: bool = False) -> None:
        """Count one checked operation.  ``what`` describes a failure; it
        is %-formatted with ``args`` only when the check fails, so that
        checks in tight loops cost little."""
        self.attempted += 1
        if ok:
            return
        if known_defect:
            self.known_failed += 1
        else:
            self.failed += 1
            self.unexpected.append(what % args if args else what)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _chunks(items: list, size: int):
    return [items[i:i + size] for i in range(0, len(items), size)]


# ---------------------------------------------------------------------------
# verify_all: the verify command as users run it


def make_verify_all(seed: int) -> dict:
    return {"argv": ["verify", "--suite", "all", "--seed", str(seed)]}


def _verify(argv: list[str], spans_path: str | None, out: Outcome) -> None:
    if spans_path is None:
        cmd = [sys.executable, "-m", "intnorm", *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_traced.py"),
               spans_path, *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=VERIFY_TIMEOUT_S, check=False)
    out.record(proc.stdout)
    try:
        report = json.loads(proc.stdout)
        suites = report["results"]["suites"]
    except (ValueError, KeyError, TypeError):
        out.check(False, f"verify exited {proc.returncode} without a "
                         f"report: {proc.stderr[-300:]!r}")
        return
    for suite in suites:
        for chk in suite["checks"]:
            out.attempted += chk["cases"]
            out.failed += chk["failures"]
            if chk["failures"]:
                out.unexpected.append(
                    f"{suite['suite']}.{chk['name']}: {chk['failures']} "
                    "failures")
    out.check(proc.returncode == 0 and not report["violations"],
              f"verify exited {proc.returncode} with "
              f"{len(report['violations'])} violations")


def units_verify_all(inputs: dict, spans_path: str | None = None) -> list:
    """One unit: ``intnorm verify`` in a subprocess, traced through
    cli_traced.py into ``spans_path`` when one is given."""
    return [partial(_verify, inputs["argv"], spans_path)]


# ---------------------------------------------------------------------------
# torus_large: dense pair searches and long crossing counts


HEXAGONAL = (1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0)
SQUARE = (1.0, 0.0, 0.0, 1.0)
# Covolume 1, yet the enumeration box at cutoff 16 has 9.9M cells, so the
# cell guard refuses it although its reduced basis is benign.
REFUSED = "1,0,10000.5,1"


def _cutoff_for(basis, classes: int) -> float:
    """Cutoff whose disc holds about ``classes`` canonical primitive
    classes: 3 c^2 / (pi * covolume) of them."""
    covol = abs(basis[0] * basis[3] - basis[1] * basis[2])
    return math.sqrt(classes * math.pi * covol / 3.0)


def _cutoff_for_all(basis, classes: int) -> float:
    """Cutoff whose disc holds about ``classes`` canonical classes,
    primitive or not: pi c^2 / (2 * covolume) of them."""
    covol = abs(basis[0] * basis[3] - basis[1] * basis[2])
    return math.sqrt(2.0 * classes * covol / math.pi)


def _random_basis(rng) -> tuple[float, float, float, float]:
    # well conditioned: sides within e^0.5 of 1, angle in [pi/6, 5pi/6]
    r1, r2 = np.exp(rng.uniform(-0.5, 0.5, 2))
    theta = rng.uniform(math.pi / 6.0, 5.0 * math.pi / 6.0)
    rot = rng.uniform(0.0, 2.0 * math.pi)
    flip = -1.0 if rng.random() < 0.5 else 1.0
    return (float(r1 * math.cos(rot)), float(r1 * math.sin(rot)),
            float(flip * r2 * math.cos(rot + theta)),
            float(flip * r2 * math.sin(rot + theta)))


def _primitive_pairs(rng, count: int, reach: int):
    pairs = []
    while len(pairs) < count:
        a, b, c, d = (int(x) for x in rng.integers(-reach, reach + 1, 4))
        if math.gcd(a, b) != 1 or math.gcd(c, d) != 1 or a * d == b * c:
            continue
        pairs.append(((a, b), (c, d)))
    return pairs


def make_torus_large(seed: int) -> dict:
    rng = _rng(seed, 2)
    randoms = [_random_basis(rng) for _ in range(3)]
    # moderately skewed: its box is about 400 times its class count
    skewed = (1.0, 0.0, float(rng.uniform(90.0, 110.0)),
              float(rng.uniform(0.9, 1.1)))
    searches = [("hexagonal", HEXAGONAL, _cutoff_for(HEXAGONAL, 4000), True),
                ("square", SQUARE, _cutoff_for(SQUARE, 1600), True),
                ("skewed", skewed, _cutoff_for(skewed, 1500), False)]
    searches += [(f"random{i}", b, _cutoff_for(b, 1200), False)
                 for i, b in enumerate(randoms)]
    products = [("hexagonal", HEXAGONAL, n, _cutoff_for_all(HEXAGONAL, 1600))
                for n in (1, 3, 8)]
    products += [("random0", randoms[0], n, _cutoff_for_all(randoms[0], 1000))
                 for n in (1, 2)]
    crossings = [(name, basis, _primitive_pairs(rng, 40, 48))
                 for name, basis, _, _ in searches if name != "skewed"]
    return {"searches": searches, "products": products,
            "crossings": crossings, "oracle_seed": int(rng.integers(2**32))}


def _lattice(basis) -> flat_torus.Lattice:
    return flat_torus.Lattice(basis[:2], basis[2:])


def _ratio_search(name: str, lat, cutoff: float, exact: bool,
                  known_defect: bool, out: Outcome) -> None:
    k = flat_torus.k_real(lat)
    try:
        res = flat_torus.best_ratio_search(lat, cutoff)
    except GeometryError as exc:
        out.record(("refused", name, str(exc)))
        out.check(False, f"{name}: ratio search refused: {exc}",
                  known_defect=known_defect)
        return
    out.record((name, res.ratio, res.pair))
    ok = res.ratio <= k * (1.0 + 1e-12)
    if exact:
        ok = ok and abs(res.ratio - k) <= 1e-12 * k
    out.check(ok, f"{name}: ratio {res.ratio!r} vs k_real {k!r}",
              known_defect=known_defect)


def _segment_check(name: str, lat, cutoff: float, known_defect: bool,
                   out: Outcome) -> None:
    try:
        seg = flat_torus.segment_bound_check(lat, cutoff)
    except GeometryError as exc:
        out.record(("refused", name, str(exc)))
        out.check(False, f"{name}: segment check refused: {exc}",
                  known_defect=known_defect)
        return
    out.record((name, seg))
    out.check(seg.nine_bound_ok and seg.sine_bound_ok,
              f"{name}: segment bound broken at {seg.argmax_pair}",
              known_defect=known_defect)


def _min_product(name: str, lat, n: int, cutoff: float, out: Outcome) -> None:
    try:
        res = flat_torus.min_length_product(lat, n, cutoff)
    except GeometryError as exc:
        out.record(("refused", name, n, str(exc)))
        out.check(False, f"{name}: min product n={n} refused: {exc}")
        return
    out.record((name, n, res))
    u, v = res.pair
    out.check(abs(flat_torus.intersection_number(u, v)) == n
              and res.product >= n * lat.covolume * (1.0 - 1e-12),
              f"{name}: min product {res.product!r} for n={n}")


def _torus_crossings(name: str, lat, pairs, rng, out: Outcome) -> None:
    for u, v in pairs:
        n = u[0] * v[1] - u[1] * v[0]
        try:
            rep = flat_torus.count_crossings(lat, u, v, rng)
        except RetrySignal as exc:
            out.record(("stuck", name, u, v))
            out.check(False, f"{name}: oracle stuck on {u} x {v}: {exc}")
            continue
        out.record((rep.count, rep.signs[:1]))
        sign = 1 if n > 0 else -1
        out.check(rep.count == abs(n) and all(s == sign for s in rep.signs),
                  "%s: oracle count %d for |Int| %d", name, rep.count, abs(n))


def units_torus_large(inputs: dict) -> list:
    units = []
    searches = [(name, _lattice(basis), cutoff, exact, False)
                for name, basis, cutoff, exact in inputs["searches"]]
    searches.append(("refused", flat_torus.Lattice.from_string(REFUSED),
                     16.0, False, True))
    for name, lat, cutoff, exact, defect in searches:
        units.append(partial(_ratio_search, name, lat, cutoff, exact, defect))
        units.append(partial(_segment_check, name, lat, cutoff, defect))
    for name, basis, n, cutoff in inputs["products"]:
        units.append(partial(_min_product, name, _lattice(basis), n, cutoff))
    rng = _rng(inputs["oracle_seed"], 0)
    for name, basis, pairs in inputs["crossings"]:
        lat = _lattice(basis)
        units += [partial(_torus_crossings, name, lat, chunk, rng)
                  for chunk in _chunks(pairs, 20)]
    return units


# ---------------------------------------------------------------------------
# cylinder_deep: the half-plane oracle at large windings


CORES = (0.05, 0.1, 0.2)
# The known-defect range: at core 0.2, windings past 64 put the half-plane
# lift where it loses its digits, and the oracle miscounts or stays stuck.
# A failure of a pair outside that range is unexpected.
DEFECT_CORE = 0.2
DEFECT_WINDING = 64
MAX_WINDING = 128
PAIRS_PER_CORE = 250


def make_cylinder_deep(seed: int) -> dict:
    rng = _rng(seed, 3)
    n = PAIRS_PER_CORE
    pairs = {}
    for core in CORES:
        # stratified |winding|: each unit interval of [0, 128) about equally
        # often, so the work per run hardly depends on the seed
        strata = np.resize(np.arange(MAX_WINDING), 2 * n)
        mags = rng.permutation(strata) + rng.random(2 * n)
        signs = np.where(rng.random(2 * n) < 0.5, -1.0, 1.0)
        winds = (mags * signs).reshape(n, 2)
        same = rng.permutation(np.arange(n) % 2 == 0)
        first = rng.permutation(np.where(np.arange(n) % 4 < 2, 1, -1))
        entries = rng.uniform(0.0, core, (n, 2))
        pairs[core] = [
            (float(entries[i, 0]), float(winds[i, 0]), int(first[i]),
             float(entries[i, 1]), float(winds[i, 1]),
             int(first[i] if same[i] else -first[i]))
            for i in range(n)]
    return {"pairs": pairs, "jitter_seed": int(rng.integers(2**32))}


def _cylinder_pairs(core: float, pairs, rng, out: Outcome) -> None:
    cm = cylinder
    cyl = cm.make_collar(core, "shrunk")
    for t1, c, eps1, t2, d, eps2 in pairs:
        defect = core == DEFECT_CORE and max(abs(c), abs(d)) > DEFECT_WINDING
        arc1 = cm.ArcSpec(t1, c, eps1)
        arc2 = cm.ArcSpec(t2, d, eps2)
        wb = cm.intersection_bounds(c, d, eps1 == eps2)
        label = f"core {core}: ({c!r}, {d!r}, eps {eps1}/{eps2})"
        try:
            rep = cm.count_crossings_cyl(cyl, arc1, arc2, rng)
        except RetrySignal:
            out.record(("stuck", label))
            out.check(False, "oracle stuck at %s", label,
                      known_defect=defect)
            continue
        out.record((rep.count, rep.signs))
        expected = eps1 * wb.sign
        ok = wb.lo <= rep.count <= wb.hi and \
            all(s == expected for s in rep.signs)
        out.check(ok, "count %d, signs %s vs [%d, %d] sign %d at %s",
                  rep.count, set(rep.signs), wb.lo, wb.hi, expected, label,
                  known_defect=defect)


def units_cylinder_deep(inputs: dict) -> list:
    rng = _rng(inputs["jitter_seed"], 0)
    return [partial(_cylinder_pairs, core, chunk, rng)
            for core in CORES for chunk in _chunks(inputs["pairs"][core], 25)]


# ---------------------------------------------------------------------------
# bounds_grid: closed forms in float64 and in 50-digit arithmetic


GENERA = (2, 3, 5, 8, 13, 20)


def make_bounds_grid(seed: int) -> dict:
    rng = _rng(seed, 4)
    lo = 1e-7 * math.exp(rng.uniform(0.0, 1.0))
    hi = 0.9 - 0.1 * rng.random()
    grid = bounds.parse_grid(f"{lo!r}:{hi!r}:3000", geometric=True)
    params = []
    for _ in range(4000):
        l1 = math.exp(rng.uniform(-6.0, 0.4))
        params.append((int(rng.integers(1, 21)), l1,
                       0.5 * l1 * math.exp(rng.uniform(0.01, 3.0)),
                       math.exp(rng.uniform(-1.0, 5.0))))
    return {
        "grid": grid,
        "ext_grid": grid[::60],
        "collar": tuple(sorted(rng.uniform(1e-4, 0.25, 20000).tolist())),
        "mono": tuple(sorted(rng.uniform(1e-4, hyptrig.TWO_ARSINH_ONE,
                                         20000).tolist())),
        "params": params,
        "scalars": [tuple(r) for r in rng.uniform(0.0, 1.0, (6000, 4))
                    .tolist()],
    }


def _agrees(d: float, e, rel: float = 1e-9) -> bool:
    return abs(d - float(e)) <= rel * abs(float(e))


def _bound_grid(s: int, grid, out: Outcome) -> None:
    values = []
    for l1 in grid:
        hb = bounds.hyperbolic_bounds(s, l1)
        values += hb
        out.check(hb.lower < hb.upper and hb.lower < hb.collar_rate,
                  "bound ordering at s=%d, l1=%r", s, l1)
    out.record_floats(values)


def _profile(s: int, grid, out: Outcome) -> None:
    rows = bounds.asymptotic_profile(s, grid)
    out.record(rows[-1])
    for row in rows:
        out.check(row.lower < row.upper and row.lower < row.collar_rate,
                  "profile ordering at s=%d, l1=%r", s, row.l1)


def _extended_profile(s: int, grid, out: Outcome) -> None:
    rows = bounds.asymptotic_profile(s, grid, extended=True)
    for l1, row in zip(grid, rows):
        hb = bounds.hyperbolic_bounds(s, l1)
        out.record(row)
        out.check(all(_agrees(getattr(hb, f), getattr(row, f))
                      for f in ("lower", "upper", "collar_rate")),
                  "double vs extended at s=%d, l1=%r", s, l1)


def _collar_check(collar, mono, out: Outcome) -> None:
    rep = bounds.collar_constants_check(collar, mono)
    out.record(rep)
    out.check(rep.ok, f"collar constants: {rep.violations[:3]}")


def _bound_reports(params, out: Outcome) -> None:
    values = []
    for genus, l1, diameter, volume in params:
        try:
            r = bounds.full_bound_report(
                bounds.SurfaceParams(genus, l1, diameter, volume))
        except GeometryError as exc:
            out.record(("refused", genus, l1))
            out.check(False, f"admissible parameters refused: {exc}")
            continue
        # the hyperbolic fields are None outside the hyperbolic regime
        values += [math.nan if v is None else v for v in vars(r).values()]
        out.check(r.lower_l1d <= r.upper_l1sq * (1.0 + 1e-12)
                  and (genus < 2 or r.hyp_lower < r.hyp_upper),
                  "bound report at genus=%d, l1=%r", genus, l1)
    out.record_floats(values)


def _scalar_args(row):
    length = 1e-4 + 1.7 * row[0]
    width = 0.05 + 4.0 * row[1]
    dt = 10.0 * (row[2] - 0.5)
    p1 = (4.0 * row[3] - 2.0, 2.0 * row[0] - 1.0)
    # keep the points apart, where acosh is well conditioned
    p2 = (p1[0] + 0.1 + 2.0 * row[2], 2.0 * row[1] - 1.0)
    return length, width, dt, p1, p2


def _scalars(rows, extended_every: int, out: Outcome) -> None:
    ht = hyptrig
    outputs = []
    for i, row in enumerate(rows):
        length, width, dt, p1, p2 = _scalar_args(row)
        values = (ht.collar_width(length),
                  ht.crossing_arc_length(width, dt),
                  ht.boundary_length(length, width),
                  ht.fermi_distance(p1, p2))
        outputs += values
        out.check(values[1] >= max(2.0 * width, abs(dt)) * (1.0 - 1e-12),
                  "crossing arc %r below its floor", values[1])
        if i % extended_every == 0:
            ext = (ht.collar_width(length, extended=True),
                   ht.crossing_arc_length(width, dt, extended=True),
                   ht.boundary_length(length, width, extended=True),
                   ht.fermi_distance(p1, p2, extended=True))
            out.check(all(_agrees(d, e) for d, e in zip(values, ext)),
                      "hyptrig double vs extended at %r", row)
    out.record_floats(outputs)


def units_bounds_grid(inputs: dict) -> list:
    units = []
    for s in GENERA:
        units += [partial(_bound_grid, s, chunk)
                  for chunk in _chunks(inputs["grid"], 1000)]
        units.append(partial(_profile, s, inputs["grid"]))
        units.append(partial(_extended_profile, s, inputs["ext_grid"]))
    units.append(partial(_collar_check, inputs["collar"], inputs["mono"]))
    units += [partial(_bound_reports, chunk)
              for chunk in _chunks(inputs["params"], 1000)]
    units += [partial(_scalars, chunk, 25)
              for chunk in _chunks(inputs["scalars"], 1000)]
    return units


MAKERS = {"verify_all": make_verify_all, "torus_large": make_torus_large,
          "cylinder_deep": make_cylinder_deep,
          "bounds_grid": make_bounds_grid}

UNITS = {"verify_all": units_verify_all, "torus_large": units_torus_large,
         "cylinder_deep": units_cylinder_deep,
         "bounds_grid": units_bounds_grid}

# The probe of speed.py that follows each workload's speed best.
PROBE = {"verify_all": "loop", "torus_large": "loop",
         "cylinder_deep": "calls", "bounds_grid": "calls"}


def inputs_digest(inputs: dict) -> str:
    """Digest of generated inputs, for the determinism self-test."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()
