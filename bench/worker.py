"""Run one workload in this process and print what was measured.

Usage: python3 worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR

Started by run.py, one process per workload so that its peak RSS is the
workload's own.  Generates the inputs from the seed, then runs the body
in a closed loop (one client; each run of the body starts when the
previous one ends) until SECONDS have passed and at least
``MIN_ITERATIONS`` ran.  With TRACE=1 the runs alternate untraced and
traced, so the traced numbers and the tracing overhead come from the same
process.  The last line of standard output is one JSON object.

The body time reported, ``wall_ref_s``, is taken at the reference speed
of speed.py: the workload's speed probe runs before every unit of work
and after the last, each unit's time is brought to reference speed by the
probes around it, and the medians over the runs are summed over the
units.
"""

from __future__ import annotations

import json
import marshal
import os
import statistics
import sys
import time
import traceback

import mpmath
import numpy as np

import intnorm
import tracing
import workloads
from speed import PROBES, at_reference

MIN_ITERATIONS = 3
# Start no run of the body that would end past this many seconds.
HARD_LIMIT_S = 120.0
MAX_REPORTED = 10


def _iteration(name: str, inputs: dict, traced: bool, spans_path: str):
    """One run of the body: (outcome, unit times, probe times, spans or
    None).  The workload's speed probe runs before each unit and after the
    last one."""
    probe = PROBES[workloads.PROBE[name]][0]
    outcome = workloads.Outcome()
    tracer = None
    if traced and name == "verify_all":
        units = workloads.units_verify_all(inputs, spans_path)
    else:
        units = workloads.UNITS[name](inputs)
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
    clock = time.perf_counter
    times = []
    cals = [probe()]
    start = cals[0][0]
    try:
        for unit in units:
            t0 = clock()
            try:
                unit(outcome)
            except Exception:  # a crashed unit is a failure; the body goes on
                outcome.check(False, "unit raised:\n"
                              + traceback.format_exc(limit=4))
            times.append(clock() - t0)
            cals.append(probe())
    finally:
        end = clock()
        if tracer is not None:
            tracer.uninstall()
    cal_times = [b - a for a, b in cals]
    if not traced:
        return outcome, times, cal_times, None
    if tracer is not None:
        inner = tracer.take()
    else:
        try:
            # written by cli_traced.py in this run, so safe to unmarshal
            with open(spans_path, "rb") as fh:
                inner = marshal.load(fh)
        except (OSError, ValueError, EOFError, TypeError):
            inner = []
            outcome.check(False, "traced verify wrote no spans")
    inner += [["bench.calibrate", a, b, -1, None] for a, b in cals]
    # the benchmark's own span encloses the body; its self time is the
    # time spent outside intnorm's public functions and the calibration
    spans = [["bench.body", start, end, -1, None]] + [
        [n, s, e, p + 1 if p >= 0 else 0, x] for n, s, e, p, x in inner]
    return outcome, times, cal_times, spans


def best_units_sum(runs: list[list[float]]) -> float:
    """Sum over units of each unit's best time across the runs."""
    return sum(min(unit) for unit in zip(*runs))


def reference_time(runs: list[list[float]], cals: list[list[float]],
                   ref_s: float) -> float:
    """Body time at reference speed: for each unit the median over the
    runs of its time at reference speed, summed over the units."""
    ref = [[at_reference(u, c[i], c[i + 1], ref_s)
            for i, u in enumerate(run)] for run, c in zip(runs, cals)]
    return sum(statistics.median(unit) for unit in zip(*ref))


def main() -> int:
    name, seed, seconds, trace, out_dir = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    inputs = workloads.MAKERS[name](seed)
    spans_path = os.path.join(out_dir, f"verify-spans-{seed}.marshal")

    runs: list[list[float]] = []
    traced_runs: list[list[float]] = []
    cals: list[list[float]] = []
    traced_cals: list[list[float]] = []
    layers: list[dict] = []
    first_spans: list[list] = []
    attempted = failed = known_failed = 0
    unexpected: list[str] = []
    digests: set[str] = set()
    begin = time.perf_counter()
    while True:
        traced = trace and len(traced_runs) < len(runs)
        outcome, times, cal_times, spans = _iteration(name, inputs, traced,
                                                      spans_path)
        attempted += outcome.attempted
        failed += outcome.failed
        known_failed += outcome.known_failed
        unexpected += [u for u in outcome.unexpected[:MAX_REPORTED]
                       if u not in unexpected]
        digests.add(outcome.digest)
        if traced:
            traced_runs.append(times)
            traced_cals.append(cal_times)
            layers.append(tracing.layer_metrics(spans))
            if not first_spans:
                first_spans = spans
        else:
            runs.append(times)
            cals.append(cal_times)
        per_run = statistics.median(sum(t) for t in runs + traced_runs)
        ends_at = time.perf_counter() - begin + per_run
        enough = len(runs) >= MIN_ITERATIONS and \
            (not trace or len(traced_runs) >= MIN_ITERATIONS)
        if (enough and ends_at > seconds) or ends_at > HARD_LIMIT_S:
            break

    if first_spans:
        # the spans of the first traced run stay in memory while measuring
        # and are written once, here; they share one run id
        path = os.path.join(out_dir, f"spans-{name}-{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": f"{name}-{seed}",
                       "fields": ["name", "start", "end", "parent", "extra"],
                       "spans": first_spans}, fh, separators=(",", ":"))
        if os.path.exists(spans_path):
            os.remove(spans_path)

    ref_s = PROBES[workloads.PROBE[name]][1]
    result = {
        "wall_ref_s": reference_time(runs, cals, ref_s),
        "traced_wall_ref_s": (reference_time(traced_runs, traced_cals, ref_s)
                              if traced_runs else None),
        "best_units_s": best_units_sum(runs),
        "cal_median_s": statistics.median(c for run in cals for c in run),
        "unit_times": runs,
        "cal_times": cals,
        "traced_unit_times": traced_runs,
        "attempted": attempted,
        "failed": failed,
        "known_failed": known_failed,
        "unexpected": unexpected[:MAX_REPORTED],
        "digests": sorted(digests),
        "layers": tracing.median_metrics(layers) if layers else None,
        "intnorm_path": os.path.dirname(os.path.abspath(intnorm.__file__)),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "mpmath": mpmath.__version__,
                     "intnorm": intnorm.__version__},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
