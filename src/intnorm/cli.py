"""Command-line frontend.

Four subcommands tie the library together:

* ``torus``    — exact ratio search and crossing checks on a flat torus;
* ``cylinder`` — winding-window-versus-oracle sweep on one hyperbolic
  cylinder, optionally on explicit arc pairs from a JSON file;
* ``bounds``   — bound and profile tables over a systole grid;
* ``verify``   — the full verification suites.

Reports are JSON (or CSV for the tabular sweeps) with the fixed top-level
shape {command, inputs, results, violations, timing_ms, version}.  A
fixed seed makes the report byte-identical across runs: wall-clock timing
is therefore printed to stderr only and serialized as null.  Exit status:
0 on success, 1 when any violation was found, 2 on usage or input errors,
which print one ``intnorm: error:`` line to stderr.  The lines on stderr
are best-effort: a closed stderr changes neither stdout nor the exit
status.

``main(argv)`` runs one command and returns its exit status; it never
ends the process, so the tests call it in process.  ``run(argv)`` is the
process entry of ``python -m intnorm`` and of the ``intnorm`` console
script: it ends the process through ``os._exit`` once the report is
written, which skips the interpreter's teardown.  A module that only some
commands need (``csv`` here, ``fractions`` and mpmath in the library) is
imported where it is used.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import stat
import sys
import time
from typing import NoReturn, Optional

import numpy as np

from . import __version__, cylinder
from .bounds import asymptotic_profile, parse_grid
from .cylinder import ArcSpec, count_crossings_cyl_batch, make_collar
from .errors import DomainError, GeometryError, RetrySignal, quote
from .flat_torus import Lattice, RealClass, best_ratio_search, k_real, \
    norm_comparison_report, segment_bound_check, systole, torus_diameter
from .hyptrig import EXTENDED_DPS
from .seeding import check_seed, named_stream
from .suites import lemma_sweep, norm_violations, ordering_violations, \
    ratio_violations, run_suites, segment_violations, window_violations

_PROFILE_COLUMNS = ("l1", "hyp_lower", "hyp_upper", "collar_rate",
                    "lower_profile", "upper_profile",
                    "lower_profile_tail", "upper_profile_tail")

_RECORD_COLUMNS = ("c_wind", "d_wind", "same_side", "entry_1", "entry_2",
                   "first_sign", "count", "window_lo", "window_hi",
                   "expected_sign", "signs", "ok")


# Most samples of one cylinder sweep.  A sample costs about 55 us, 1 KB
# of peak RSS and 450 bytes of JSON, so a sweep at the bound takes about
# 1.2 s and 62 MB and writes 9 MB (Intel Xeon, 2 vCPUs).
MAX_SAMPLES = 20_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # the one error line of every bad input
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every random stream (default 0)")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json",
                        help="csv is available for the tabular sweeps "
                             "(bounds, cylinder without --arcs-json)")
    common.add_argument("--output", default=None,
                        help="write the report to this path instead of "
                             "stdout")

    parser = _Parser(
        prog="intnorm",
        description="Intersection-to-length ratios: exact flat-torus "
                    "searches, hyperbolic cylinder crossing oracles, and "
                    "closed-form bound tables.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("torus", parents=[common],
                       help="ratio search and crossing checks on a flat "
                            "torus")
    t.add_argument("--lattice", required=True, metavar="A,B,C,D",
                   help="basis vectors e1=(A,B), e2=(C,D); decimal or "
                        "rational entries")
    t.add_argument("--cutoff", type=float, default=None,
                   help="length cutoff for the class search (default "
                        "30 * systole)")

    c = sub.add_parser("cylinder", parents=[common],
                       help="winding-window sweep against the crossing "
                            "oracle")
    c.add_argument("--core-length", type=float, required=True,
                   dest="core_length")
    c.add_argument("--samples", type=int, default=1000)
    c.add_argument("--mode", choices=("full", "shrunk"), default="shrunk")
    c.add_argument("--arcs-json", dest="arcs_json", default=None,
                   help="JSON file with explicit arc pairs to check: "
                        '{"pairs": [{"arc1": [entry_t, winding, sign], '
                        '"arc2": [...]}, ...]}')

    b = sub.add_parser("bounds", parents=[common],
                       help="bound and asymptotic-profile table over a "
                            "systole grid")
    b.add_argument("--genus", type=int, required=True)
    b.add_argument("--l1-grid", dest="l1_grid", required=True,
                   metavar="LO:HI:STEPS")
    b.add_argument("--geometric", action="store_true",
                   help="space the grid geometrically")
    b.add_argument("--precision", choices=("double", "extended"),
                   default="double",
                   help="extended evaluates the bound formulas in "
                        f"{EXTENDED_DPS}-digit arithmetic")

    v = sub.add_parser("verify", parents=[common],
                       help="run the verification suites")
    v.add_argument("--suite", choices=("all", "torus", "cylinder",
                                       "bounds"), default="all")
    return parser


def _common_inputs(args) -> dict:
    return {"seed": args.seed, "format": args.fmt}


def run_torus(args) -> tuple[dict, Optional[tuple]]:
    lat = Lattice.from_string(args.lattice)
    sys_len = systole(lat)
    cutoff = args.cutoff if args.cutoff is not None else 30.0 * sys_len
    best = best_ratio_search(lat, cutoff)
    seg = segment_bound_check(lat, cutoff)

    violations = ratio_violations(lat, best.ratio) + segment_violations(seg)
    norms = []
    for cls in best.pair:
        h = RealClass(float(cls.a), float(cls.b))
        rep = norm_comparison_report(lat, h)
        norms.append({"cls": [cls.a, cls.b], "stable": rep.stable,
                      "l2": rep.l2, "two_sided_ok": rep.two_sided_ok})
        violations += norm_violations(h, rep)

    report = {
        "command": "torus",
        "inputs": {**_common_inputs(args), "lattice": args.lattice,
                   "cutoff": args.cutoff},
        "results": {
            "covolume": lat.covolume,
            "k_real": k_real(lat),
            "systole": sys_len,
            "diameter": torus_diameter(lat),
            "cutoff_used": cutoff,
            "best_ratio": best.ratio,
            "argmax_pair": [[best.pair[0].a, best.pair[0].b],
                            [best.pair[1].a, best.pair[1].b]],
            "segment_bound": {
                "pairs_checked": seg.pairs_checked,
                "max_normalized": seg.max_normalized,
                "argmax_pair": [list(seg.argmax_pair[0]),
                                list(seg.argmax_pair[1])],
                "nine_bound_ok": seg.nine_bound_ok,
                "sine_bound": seg.sine_bound,
                "sine_bound_ok": seg.sine_bound_ok,
            },
            "norm_comparison": norms,
        },
        "violations": violations,
    }
    return report, None


def run_cylinder(args) -> tuple[dict, Optional[tuple]]:
    if args.fmt == "csv" and args.arcs_json is not None:
        raise DomainError("csv output holds the sweep's samples only, not "
                          "the pairs of --arcs-json; use --format json")
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise DomainError(f"need 1 to {MAX_SAMPLES} samples, "
                          f"got {quote(args.samples)}")
    cyl = make_collar(args.core_length, args.mode)
    rng = named_stream(args.seed, "cli.cylinder")
    res = lemma_sweep(args.core_length, args.samples, rng, mode=args.mode,
                      collect_records=True)
    violations = list(res.violations)

    pair_reports = []
    if args.arcs_json is not None:
        try:
            with open(args.arcs_json, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(
                f"cannot read arc pairs from {args.arcs_json}: "
                f"{exc}") from None
        pairs = doc.get("pairs") if isinstance(doc, dict) else None
        if not isinstance(pairs, list):
            raise DomainError(f"cannot read arc pairs from {args.arcs_json}: "
                              'expected {"pairs": [...]}')
        arcs = []
        for item in pairs:
            where = f"arc pair #{len(arcs)}"
            if not (isinstance(item, dict)
                    and {"arc1", "arc2"} <= item.keys()):
                raise DomainError(f'{where}: expected {{"arc1": [...], '
                                  '"arc2": [...]}')
            for key in ("arc1", "arc2"):
                if not (isinstance(item[key], list) and len(item[key]) == 3):
                    raise DomainError(
                        f"{where}: {key} must be [entry_t, winding, "
                        f"crossing_sign], got {quote(item[key])}")
            try:  # ArcSpec checks the numbers of each arc
                arcs.append((ArcSpec(*item["arc1"]), ArcSpec(*item["arc2"])))
            except GeometryError as exc:
                raise DomainError(f"{where}: {exc}") from None
        # entry_t, winding and crossing sign, each of shape (2, pairs)
        entry_t, winding, sign = np.array(
            [[(a.entry_t, a.winding, a.crossing_sign) for a in pair]
             for pair in arcs]).reshape(-1, 2, 3).T
        first_sign = sign[0].astype(np.int64)
        try:
            # a pair that needs a retry is solved again on its own, in
            # file order, its jitters drawn from a child stream of the
            # sweep's
            batch = count_crossings_cyl_batch(cyl, entry_t, winding, sign,
                                              rng.spawn(1)[0])
        except GeometryError as exc:
            if exc.pair is None:  # a rule of the whole call
                raise
            raise DomainError(f"arc pair #{exc.pair}: {exc}") from None
        # inside the oracle's domain no window leaves int64
        wb = cylinder.intersection_bounds(*winding, sign[0] == sign[1])
        for i, vs in window_violations(batch, wb, first_sign).items():
            if batch.retry[i]:  # the first pair still stuck is refused
                raise RetrySignal(f"arc pair #{i}: oracle {vs[0]}")
            violations += [f"pair #{i}: {v}" for v in vs]
        for i, (arc1, arc2) in enumerate(arcs):
            rep = batch.report(i)
            pair_reports.append({
                "arc1": [arc1.entry_t, arc1.winding, arc1.crossing_sign],
                "arc2": [arc2.entry_t, arc2.winding, arc2.crossing_sign],
                "same_side": arc1.crossing_sign == arc2.crossing_sign,
                "count": rep.count,
                "signs": list(rep.signs),
                "window": [int(wb.lo[i]), int(wb.hi[i])],
                "expected_sign": int(first_sign[i] * wb.sign[i]),
            })

    records = res.records
    report = {
        "command": "cylinder",
        "inputs": {**_common_inputs(args),
                   "core_length": args.core_length,
                   "samples": args.samples, "mode": args.mode,
                   "arcs_json": args.arcs_json},
        "results": {
            "core_length": cyl.core_length,
            "half_width": cyl.half_width,
            "boundary_circle": cyl.boundary_circle_length(),
            "samples": res.samples,
            "max_count": res.max_count,
            "records": records,
            "pairs": pair_reports,
        },
        "violations": violations,
    }
    if args.fmt != "csv":  # the rows are built for csv output only
        return report, None
    return report, (_RECORD_COLUMNS, [
        (r["c_wind"], r["d_wind"], r["same_side"], r["entry_1"],
         r["entry_2"], r["first_sign"],
         "" if r["count"] is None else r["count"],
         r["window"][0], r["window"][1], r["expected_sign"],
         "" if r["signs"] is None else "|".join(str(s) for s in r["signs"]),
         r["ok"])
        for r in records])


def run_bounds(args) -> tuple[dict, Optional[tuple]]:
    grid = parse_grid(args.l1_grid, geometric=args.geometric)
    rows = asymptotic_profile(args.genus, grid,
                              extended=args.precision == "extended")
    violations = [v for row in rows
                  for v in ordering_violations(args.genus, row.l1, row)]
    table = [list(row) for row in rows]
    report = {
        "command": "bounds",
        "inputs": {**_common_inputs(args), "genus": args.genus,
                   "l1_grid": args.l1_grid, "geometric": args.geometric,
                   "precision": args.precision},
        "results": {"columns": list(_PROFILE_COLUMNS), "rows": table},
        "violations": violations,
    }
    return report, (_PROFILE_COLUMNS, table)


def run_verify(args) -> tuple[dict, Optional[tuple]]:
    reports = run_suites(args.suite, args.seed)
    suites_out = []
    violations: list[str] = []
    for rep in reports:
        suites_out.append({
            "suite": rep.suite,
            "checks": [{"name": c.name, "cases": c.cases,
                        "failures": c.failures} for c in rep.checks],
            "violations": list(rep.violations),
        })
        violations.extend(f"[{rep.suite}] {v}" for v in rep.violations)
    report = {
        "command": "verify",
        "inputs": {**_common_inputs(args), "suite": args.suite},
        "results": {"suites": suites_out},
        "violations": violations,
    }
    return report, None


_RUNNERS = {
    "torus": run_torus,
    "cylinder": run_cylinder,
    "bounds": run_bounds,
    "verify": run_verify,
}


def _write(report: dict, csv_data, fmt: str, fh) -> None:
    if fmt == "csv":
        import csv

        header, rows = csv_data
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
        # joined in blocks: a write per piece, as json.dump makes, costs
        # more than the encoding when stdout is a pipe
        while block := "".join(itertools.islice(pieces, 1 << 12)):
            fh.write(block)
        fh.write("\n")


def _emit(report: dict, csv_data, args) -> None:
    """Write the report piece by piece to stdout or to --output, without
    ever holding its whole text.

    A report holds only dicts with str keys, lists, tuples, str, int,
    float, bool and None (the tests walk every command's report), so its
    encoding cannot fail once writing has begun.  A regular file whose
    writing fails all the same is removed, so that no partial report is
    left; a symlink, a device or a pipe that --output names is kept.
    """
    if not args.output:
        if sys.stdout is None:  # closed before the start
            raise DomainError("standard output was closed")
        try:
            _write(report, csv_data, args.fmt, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the rest, and the interpreter's last flush, go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise DomainError("standard output was closed") from None
        return
    try:
        fh = open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write the report to {args.output}: "
                          f"{exc}") from None
    written = None
    try:
        with fh:
            written = os.fstat(fh.fileno())
            _write(report, csv_data, args.fmt, fh)
    except BaseException as exc:
        # only the regular file just written, named by the path itself:
        # never a symlink, nor the device or pipe one names
        with contextlib.suppress(OSError):
            if written is not None and stat.S_ISREG(written.st_mode) \
                    and os.path.samestat(os.lstat(args.output), written):
                os.remove(args.output)
        if isinstance(exc, OSError):
            raise DomainError(f"cannot write the report to {args.output}: "
                              f"{exc}") from None
        raise


def _note(line: str) -> None:
    """Print one line to stderr, best-effort.  A stderr closed before the
    start is None (and ``print`` would write to stdout instead), and one
    closed later fails its writes: either way the line is dropped, so
    that it changes neither stdout nor the exit status."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        check_seed(args.seed)
        if args.fmt == "csv" and args.command not in ("bounds", "cylinder"):
            raise DomainError(
                f"csv output is only available for tabular sweeps "
                f"(bounds, cylinder), not {args.command!r}")
        report, csv_data = _RUNNERS[args.command](args)
        report["timing_ms"] = None
        report["version"] = __version__
        _emit(report, csv_data, args)
    except (GeometryError, RetrySignal) as exc:
        _note(f"intnorm: error: {exc}")
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    _note(f"# intnorm {args.command}: {elapsed_ms:.1f} ms")
    return 1 if report["violations"] else 0


def run(argv=None) -> NoReturn:
    """``main(argv)``, then the process ends with its status through
    ``os._exit``, once stdout and stderr are flushed.  argparse's
    ``SystemExit`` (``--help``, ``--version``) and Ctrl-C leave as they
    would from ``main``."""
    status = main(argv)
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            with contextlib.suppress(OSError):
                stream.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
