"""Self-test of the benchmark.

Usage, from the root of a checkout:  python3 bench/selftest.py

Checks that
* traced calls return exactly what untraced calls return: every
  workload's body gives the same results digest both ways, single calls
  of each traced function compare equal, and uninstalling the tracer puts
  the original functions back;
* the top-level spans of a traced body account for its wall time: the
  benchmark's own share (``bench.body.self_s`` over the body time less
  the speed probes) stays within ``BODY_SELF_LIMIT``;
* each input generator is deterministic for a given seed, and another
  seed gives other inputs;
* every per-layer metric of BENCHMARK.json is produced, and belongs to a
  layer of layers.json by its name prefix (or by its ``by_name`` entry),
  whose workloads and end-to-end metrics BENCHMARK.json declares.
Prints one line per check and exits 1 if any failed.
"""

import json
import math
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7
# Largest share of a traced body spent outside intnorm's public functions.
# verify_all pays the start-up of its CLI process there (about 0.1 of the
# body); bounds_grid makes some 50,000 calls of functions that take a few
# microseconds, so the loops and checks around them weigh (about 0.11).
# The other two workloads measure under 0.025.
BODY_SELF_LIMIT = {"verify_all": 0.2, "torus_large": 0.05,
                   "cylinder_deep": 0.05, "bounds_grid": 0.15}
failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def outcome(call) -> str:
    """What a call returns, or which exception it raises."""
    try:
        return repr(call())
    except Exception as exc:  # the exception must pass through unchanged
        return f"raised {type(exc).__name__}: {exc}"


def sample_calls():
    """One call of each traced library function, with fixed arguments."""
    from intnorm import bounds, cylinder, flat_torus, hyptrig, suites
    hexagonal = flat_torus.Lattice((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))
    cyl = cylinder.make_collar(0.1, "shrunk")
    arc1 = cylinder.ArcSpec(0.01, 3.3, 1)
    arc2 = cylinder.ArcSpec(0.07, -20.6, -1)
    return [
        lambda: flat_torus.enumerate_classes(hexagonal, 6.0)[0].tolist(),
        lambda: flat_torus.best_ratio_search(hexagonal, 8.0),
        lambda: flat_torus.segment_bound_check(hexagonal, 8.0),
        lambda: flat_torus.min_length_product(hexagonal, 3, 8.0),
        lambda: flat_torus.systole(hexagonal),
        lambda: flat_torus.count_crossings(hexagonal, (3, 1), (1, 2),
                                           np.random.default_rng(0)),
        lambda: flat_torus.crossing_count_oracle(hexagonal, (5, 2), (1, 3),
                                                 (0.1, 0.2)),
        lambda: cylinder.count_crossings_cyl(cyl, arc1, arc2,
                                             np.random.default_rng(1)),
        lambda: cylinder.crossing_count_oracle_cyl(cyl, arc1, arc2),
        lambda: cylinder.rewind_suite_check((2.3, 2.9), (5.1, 5.5), True),
        lambda: cylinder.make_collar(0.2, "shrunk"),
        lambda: cylinder.arc_length(cyl, arc2),
        lambda: cylinder.intersection_bounds(3.3, -20.6, False),
        lambda: cylinder.halfplane_to_fermi(0.3, 1.7),
        lambda: hyptrig.collar_width(0.1),
        lambda: hyptrig.collar_width(0.1, extended=True),
        lambda: hyptrig.crossing_arc_length(1.5, 0.7),
        lambda: hyptrig.boundary_length(0.1, 2.0),
        lambda: hyptrig.fermi_distance((0.0, 0.5), (1.0, -0.2)),
        lambda: bounds.hyperbolic_bounds(3, 0.05),
        lambda: bounds.hyperbolic_bounds(3, 0.05, extended=True),
        lambda: bounds.asymptotic_profile(2, (1e-3, 1e-2)),
        lambda: bounds.collar_constants_check((0.01, 0.1), (0.5, 1.0)),
        lambda: bounds.full_bound_report(bounds.SurfaceParams(2, 0.1, 3.0,
                                                              12.0)),
        lambda: suites.lemma_sweep(0.1, 20, np.random.default_rng(2)),
    ]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH_DIR, "layers.json")) as fh:
        layer_map = json.load(fh)

    # generators: same seed, same inputs; another seed, other inputs
    for name, make in workloads.MAKERS.items():
        a = workloads.inputs_digest(make(SEED))
        b = workloads.inputs_digest(make(SEED))
        c = workloads.inputs_digest(make(SEED + 1))
        check(a == b and a != c, f"{name}: generator deterministic per seed")

    # single calls: traced results equal untraced results
    calls = sample_calls()
    plain = [outcome(f) for f in calls]
    modules = [m for m in list(sys.modules) if m.startswith("intnorm")]
    originals = {(m, name): getattr(sys.modules[m], name)
                 for m in modules for name in dir(sys.modules[m])}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [outcome(f) for f in calls]
        spans = tracer.take()
    finally:
        tracer.uninstall()
    check(plain == wrapped, "single calls: traced results equal untraced")
    seen = {s[0] for s in spans}
    # the CLI and whole suites run in the verify_all body below
    traced_names = {f"{layer}.{f}" for layer, names in tracing.TRACED.items()
                    for f in names if layer != "cli"} | {"hyptrig.extended"}
    traced_names -= {"suites.torus_suite", "suites.cylinder_suite",
                     "suites.bounds_suite"}
    check(traced_names <= seen,
          f"single calls: every traced function seen; missing "
          f"{sorted(traced_names - seen)}")
    restored = all(getattr(sys.modules[m], name) is value
                   for (m, name), value in originals.items())
    check(restored, "uninstall restores every original function")

    # bodies: same digest traced and untraced; the layers account for
    # the traced body time
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "selftest-spans.marshal")
    per_layer = {m["name"] for m in spec["per_layer"]}
    produced = set()
    for name, make in workloads.MAKERS.items():
        inputs = make(SEED)
        untraced, _, _, _ = worker._iteration(name, inputs, False, spans_path)
        traced, _, _, spans = worker._iteration(name, inputs, True,
                                                spans_path)
        check(untraced.digest == traced.digest
              and (untraced.attempted, untraced.failed,
                   untraced.known_failed)
              == (traced.attempted, traced.failed, traced.known_failed),
              f"{name}: traced body gives the untraced results")
        metrics = tracing.layer_metrics(spans)
        calibration = sum(s[2] - s[1] for s in spans
                          if s[0] == "bench.calibrate")
        body = spans[0][2] - spans[0][1] - calibration
        share = metrics["bench.body.self_s"] / body
        check(share <= BODY_SELF_LIMIT[name],
              f"{name}: layer spans account for the traced body of "
              f"{body:.3f} s; the benchmark's own share is {share:.3f} "
              f"(limit {BODY_SELF_LIMIT[name]})")
        produced |= set(metrics)
    if os.path.exists(spans_path):
        os.remove(spans_path)
    produced |= {"import.numpy_s", "import.mpmath_s", "import.intnorm_s",
                 "trace.overhead_s"}
    check(per_layer <= produced,
          "every per-layer metric is produced; missing "
          f"{sorted(per_layer - produced)}")
    layers = layer_map["layers"]
    owner = {m: layer_map["by_name"].get(m, m.split(".")[0])
             for m in per_layer}
    check(set(owner.values()) == set(layers),
          "each per-layer metric belongs to a layer of layers.json, and "
          f"each layer has metrics: {sorted(set(owner.values()) ^ set(layers))}")
    workload_names = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    named = {(k, w) for entry in layers.values()
             for k in ("on", "not_on") for w in entry[k]}
    named |= {("also_moves", w) for entry in layers.values()
              for ws in entry.get("also_moves", {}).values() for w in ws}
    moved = {m for entry in layers.values()
             for m in entry["moves"] + list(entry.get("also_moves", {}))}
    check({w for _, w in named} <= workload_names and moved <= end_to_end
          and set(layer_map["computed"]) <= per_layer,
          "layers.json names only declared workloads and metrics")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
