"""intnorm benchmark: run one workload, check its outputs, print metrics.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each in
turn.  The inputs come from the seed alone.  With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end metric
of BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric.
Its ``failed`` counts the unexpected failures only; failures in the
known-defect ranges of workloads.py are measured by ``ok_share``.
A summary with units goes to standard error, and the full result, the
spans and the results digests go to ``.bench_out/``.

Set-up time is measured first: fresh interpreters that import intnorm,
each timed against a reference interpreter start between them (see
measure_setup).  Then the workload runs in a worker process of its own
(worker.py), whose peak RSS is read from wait4.  NumPy and BLAS get
one thread (see _child_env).  The benchmark exits 2 without a result when the
checkout holds no intnorm sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 11
WORKER_TIMEOUT_S = 170.0
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import mpmath\n"
    "t2 = time.perf_counter()\n"
    "import intnorm\n"
    "t3 = time.perf_counter()\n"
    "import os, sys\n"
    "sys.stdout.write(f'{t1 - t0} {t2 - t1} {t3 - t2}')\n"
    "sys.stdout.flush()\n"
    "os._exit(0)\n")
# A fixed interpreter start that imports standard-library modules only,
# a mix of Python code and C extensions like the import of intnorm.
BASELINE_SNIPPET = (
    "import argparse, asyncio, csv, decimal, email.parser, fractions, "
    "http.client, json, logging, sqlite3, ssl, statistics, unittest, "
    "xml.etree.ElementTree")
# BASELINE_SNIPPET's start time on an Intel Xeon, 2 vCPUs, Python 3.11,
# with the host quiet; only the scale of setup_s depends on it.
BASELINE_REF_S = 0.12


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    # One BLAS thread, whatever the core count: intnorm makes no BLAS
    # call that threads would speed up, and starting BLAS threads is about
    # a third of the numpy import, so with nproc threads setup_s would
    # follow the CPUs the host grants the run rather than the program.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _timed_start(cmd: list[str], env: dict) -> tuple[float, str]:
    """Run an interpreter to its end: (wall time, its standard output)."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{cmd[-1][:60]!r} failed:\n{proc.stderr}")
    return elapsed, proc.stdout


def measure_setup(env: dict) -> dict:
    """Time from starting a fresh interpreter to ``import intnorm``
    returning, with the numpy, mpmath and intnorm shares of the import.

    The speed of a shared host swings by a third over tens of seconds, and
    a Python loop does not follow how it slows interpreter start-up.  So
    every start that imports intnorm lies between two starts of
    BASELINE_SNIPPET, and setup_s is the median ratio of the one to the
    mean of the two, times the baseline's quiet time BASELINE_REF_S.  The
    raw median is returned too, and the import shares are raw medians.
    """
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    baseline = [sys.executable, "-c", BASELINE_SNIPPET]
    # the first runs compile bytecode, which users pay once only
    _timed_start(cmd, env)
    base = [_timed_start(baseline, env)[0]]
    totals, ratios, parts = [], [], []
    for _ in range(SETUP_RUNS):
        elapsed, out = _timed_start(cmd, env)
        base.append(_timed_start(baseline, env)[0])
        totals.append(elapsed)
        ratios.append(elapsed / (0.5 * (base[-2] + base[-1])))
        parts.append([float(x) for x in out.split()])
    return {"setup_s": statistics.median(ratios) * BASELINE_REF_S,
            "setup_raw_s": statistics.median(totals),
            "baseline_s": statistics.median(base),
            "import.numpy_s": statistics.median(p[0] for p in parts),
            "import.mpmath_s": statistics.median(p[1] for p in parts),
            "import.intnorm_s": statistics.median(p[2] for p in parts)}


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               env: dict, out_dir: str) -> tuple[dict, float]:
    """Run the workload in its own process: (its result, peak RSS in MB)."""
    stem = os.path.join(out_dir, f"worker-{workload}-{seed}-{int(trace)}")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload,
           str(seed), repr(seconds), "1" if trace else "0", out_dir]
    with open(stem + ".out", "w") as out, open(stem + ".err", "w") as err:
        # a session of its own, so that the worker and any verify process
        # it started can be stopped together
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        reaped = False
        try:
            while not reaped:
                # wait4 gives the rusage of this child and its reaped
                # children, so verify's CLI processes count too
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                reaped = pid != 0
                if not reaped and time.monotonic() > deadline:
                    raise BenchError(
                        f"worker exceeded {WORKER_TIMEOUT_S} s")
                time.sleep(0.0 if reaped else 0.01)
        finally:
            if not reaped:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stem + ".out") as fh:
        lines = fh.read().splitlines()
    if proc.returncode != 0 or not lines:
        with open(stem + ".err") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def _code_id(root: str) -> str:
    """Digest of the intnorm and benchmark sources, so stored results
    digests are only compared between runs of the same code."""
    h = hashlib.sha256()
    for folder in (os.path.join(root, "src", "intnorm"), BENCH_DIR):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _check_stored_digest(out_dir: str, root: str, workload: str, seed: int,
                         digest: str) -> bool:
    """The results digest of a workload and seed must repeat across runs
    of the same code; the first run stores it."""
    path = os.path.join(out_dir, "digests", _code_id(root),
                        f"{workload}-{seed}.txt")
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip() == digest
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(digest + "\n")
    return True


def machine_info(root: str) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "ram_mb": None, "git_sha": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo") as fh:
            info["ram_mb"] = int(fh.readline().split()[1]) // 1024
    except (OSError, ValueError, IndexError):
        pass
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        info["git_sha"] = proc.stdout.strip() or None
    return info


def run_workload(spec: dict, root: str, workload: str, seed: int,
                 seconds: float, trace: bool) -> dict:
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = _child_env(root)
    setup = measure_setup(env)
    res, peak_rss_mb = run_worker(workload, seed, seconds, trace, env,
                                  out_dir)
    src = os.path.realpath(os.path.join(root, "src", "intnorm"))
    if os.path.realpath(res["intnorm_path"]) != src:
        raise BenchError(f"imported intnorm from {res['intnorm_path']}, "
                         f"not from {src}")
    digest_ok = len(res["digests"]) == 1 and _check_stored_digest(
        out_dir, root, workload, seed, res["digests"][0])
    correct = digest_ok and not res["unexpected"]

    wall_ref_s = res["wall_ref_s"]
    # fail_share covers every failed check, the known-defect ranges too;
    # the result's "failed" counts only the unexpected failures, each of
    # which makes the run incorrect
    failed_all = res["failed"] + res["known_failed"]
    fail_share = failed_all / res["attempted"] if res["attempted"] else 1.0
    if trace:
        values = dict(res["layers"])
        values.update({k: v for k, v in setup.items()
                       if k.startswith("import.")})
        values["trace.overhead_s"] = res["traced_wall_ref_s"] - wall_ref_s
        declared = spec["per_layer"]
    else:
        values = {"setup_s": setup["setup_s"], "wall_ref_s": wall_ref_s,
                  "peak_rss_mb": peak_rss_mb, "ok_share": 1.0 - fail_share}
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "result": result, "fail_share": fail_share,
              "setup": setup,
              "best_units_s": res["best_units_s"],
              "cal_median_s": res["cal_median_s"],
              "unit_times": res["unit_times"], "cal_times": res["cal_times"],
              "traced_unit_times": res["traced_unit_times"],
              "unexpected": res["unexpected"], "digests": res["digests"],
              "machine": machine_info(root), "versions": res["versions"]}
    with open(os.path.join(out_dir, f"result-{workload}-{seed}-"
                                    f"{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {workload} seed={seed} trace={int(trace)}: "
          f"{len(res['unit_times'])} untraced and "
          f"{len(res['traced_unit_times'])} traced runs of "
          f"{len(res['unit_times'][0])} units, correct={correct}",
          file=sys.stderr)
    if not trace:
        print(f"#   setup_s {setup['setup_s']:.4f} s | wall_ref_s "
              f"{wall_ref_s:.4f} s | peak_rss_mb {peak_rss_mb:.1f} MB | "
              f"fail_share {fail_share:.6f} "
              f"({failed_all}/{res['attempted']}; {res['known_failed']} "
              f"in known-defect ranges)", file=sys.stderr)
        print(f"#   raw body time {res['best_units_s']:.4f} s (best per unit);"
              f" speed probe median {res['cal_median_s'] * 1e3:.2f} ms;"
              f" raw set-up {setup['setup_raw_s']:.4f} s, baseline start "
              f"{setup['baseline_s']:.4f} s", file=sys.stderr)
    for line in res["unexpected"]:
        print(f"#   unexpected failure: {line}", file=sys.stderr)
    if not digest_ok:
        print("#   results digest differs between iterations or runs",
              file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the finally blocks, which stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "intnorm",
                                           "__init__.py")):
            raise BenchError(f"no intnorm sources under {root}/src; run "
                             "from the root of a checkout")
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"expected one of {names} or all")
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("seed must be >= 0 and seconds > 0")
        for workload in chosen:
            result = run_workload(spec, root, workload, args.seed,
                                  args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
