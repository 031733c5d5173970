"""Span tracing of intnorm's public functions, applied from outside.

``Tracer.install()`` replaces each traced function by a timing wrapper in
every loaded ``intnorm`` module that holds a reference to it, and in the
module-level dicts that map names to it.  A function imported with
``from .hyptrig import collar_width`` lives on in the globals of
``cylinder`` and ``bounds`` as well, and calls between modules go through
those globals; ``run_suites`` calls the suites through ``suites.SUITES``.
Patching only the defining module would miss those calls.
``Tracer.uninstall()`` puts the originals back.  The wrappers return
exactly what the wrapped function returns and let its exceptions through.

A span is ``[name, start, end, parent, extra]``: ``parent`` indexes the
enclosing span in the same list (-1 at top level) and ``extra`` holds a
count measured at that boundary (classes enumerated, deck translates
tried, RSS rise of a pair search), or None.  Spans stay in memory; the
caller writes them out when its run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import resource
import statistics
import sys
import time

# Public functions timed per layer, by module.
TRACED = {
    "cli": ("main",),
    "suites": ("torus_suite", "cylinder_suite", "bounds_suite",
               "lemma_sweep"),
    "flat_torus": ("enumerate_classes", "best_ratio_search",
                   "segment_bound_check", "min_length_product", "systole",
                   "count_crossings", "crossing_count_oracle"),
    "cylinder": ("count_crossings_cyl", "crossing_count_oracle_cyl",
                 "rewind_suite_check", "make_collar", "arc_length",
                 "intersection_bounds", "halfplane_to_fermi"),
    "hyptrig": ("collar_width", "crossing_arc_length", "boundary_length",
                "fermi_distance"),
    "bounds": ("hyperbolic_bounds", "asymptotic_profile",
               "collar_constants_check", "full_bound_report"),
}

# The searches that build dense N x N pair tables.
PAIR_SEARCHES = ("flat_torus.best_ratio_search",
                 "flat_torus.segment_bound_check",
                 "flat_torus.min_length_product")

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def _rss_mb() -> float:
    """Current resident set size of this process, in MB."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _oracle_translates(args, kwargs) -> int:
    # the oracle tries deck translates |k| <= ceil(|w1| + |w2|) + pad
    arc1, arc2 = args[1], args[2]
    pad = kwargs.get("window_pad", 2)
    window = math.ceil(abs(arc1.winding) + abs(arc2.winding)) + pad
    return 2 * window + 1


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"intnorm.{m}") for m in TRACED]
        holders = [mod for name, mod in sorted(sys.modules.items())
                   if name == "intnorm" or name.startswith("intnorm.")]
        # module-level tables of functions, such as suites.SUITES
        tables = [value for holder in holders
                  for value in vars(holder).values() if type(value) is dict]
        for layer, mod in zip(TRACED, modules):
            for fname in TRACED[layer]:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for holder in holders:
                    if getattr(holder, fname, None) is original:
                        self._patches.append((holder, fname, original))
                        setattr(holder, fname, wrapper)
                for table in tables:
                    for key, value in table.items():
                        if value is original:
                            self._patches.append((table, key, original))
                            table[key] = wrapper

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if type(holder) is dict:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        tracer = self
        extended_name = "hyptrig.extended" if name.startswith("hyptrig.") \
            else None
        is_search = name in PAIR_SEARCHES
        is_oracle = name == "cylinder.crossing_count_oracle_cyl"
        is_enum = name == "flat_torus.enumerate_classes"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the span covers the wrapper too, so that its own cost is
            # charged to the traced function and not to the caller
            start = clock()
            spans = tracer.spans
            stack = tracer._stack
            span_name = name
            if extended_name and kwargs.get("extended"):
                span_name = extended_name
            extra = None
            if is_oracle:
                extra = _oracle_translates(args, kwargs)
            elif is_search:
                rss_before = _rss_mb()
            rec = [span_name, start, 0.0, stack[-1] if stack else -1, extra]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if is_enum:
                rec[4] = len(result[0])
            elif is_search:
                rec[4] = _peak_rss_mb() - rss_before
            return result

        return traced


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one traced iteration.

    For every traced name: ``<name>.calls`` and ``<name>.self_s`` (span
    time minus the time of its child spans), plus the counts measured at
    the boundaries.  ``bench.body`` is the benchmark's own span around one
    iteration, so the self times of all spans add up to its wall time.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict[str, float] = {}
    for layer, names in TRACED.items():
        for fname in names:
            out[f"{layer}.{fname}.calls"] = 0
            out[f"{layer}.{fname}.self_s"] = 0.0
    for name in ("hyptrig.extended", "bench.body"):
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    classes = translates = oracle_in_count = 0
    pairs = table_bytes = 0
    rss_step = 0.0
    count_us: list[float] = []
    for i, (name, start, end, parent, extra) in enumerate(spans):
        dur = end - start
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[i]
        if name == "flat_torus.enumerate_classes" and extra is not None:
            classes += extra
            if parent >= 0 and spans[parent][0] in PAIR_SEARCHES:
                pairs += extra * (extra - 1) // 2
                table_bytes = max(table_bytes, extra * extra * 8)
        elif name in PAIR_SEARCHES and extra is not None:
            rss_step = max(rss_step, extra)
        elif name == "cylinder.crossing_count_oracle_cyl":
            translates += extra
            if parent >= 0 and spans[parent][0] == \
                    "cylinder.count_crossings_cyl":
                oracle_in_count += 1
        elif name == "cylinder.count_crossings_cyl":
            count_us.append(dur * 1e6)
    counts = out["cylinder.count_crossings_cyl.calls"]
    out.update({
        "flat_torus.enumerate_classes.classes": classes,
        "flat_torus.pairs_searched": pairs,
        "flat_torus.pair_table_bytes": table_bytes,
        "flat_torus.search.peak_rss_step_mb": rss_step,
        "cylinder.translates": translates,
        "cylinder.oracle_attempts_per_count":
            oracle_in_count / counts if counts else 0.0,
        "cylinder.count_crossings_cyl.p50_us": _quantile(count_us, 50),
        "cylinder.count_crossings_cyl.p99_us": _quantile(count_us, 99),
    })
    return out


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced iterations (the lower one
    for an even count, so that a value is always one measured)."""
    return {key: statistics.median_low(m[key] for m in per_iteration)
            for key in per_iteration[0]}
