"""The fault table of ``intnorm verify``.

Each row plants one fault in the library, a monkeypatched function or
constant, and names the one check of ``verify --suite all --seed 1`` that
must catch it, with a pattern that each of its reported violations
matches.  Every check is the only one to fail in at least one row, so each
can fail on its own: a check that no fault fails alone would be dead
code.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import intnorm
from intnorm.cli import main
from intnorm.suites import _BOUNDS_CHECKS, _CYLINDER_CHECKS, _TORUS_CHECKS

# The checks of verify, in report order.
CHECKS = [name for table in (_TORUS_CHECKS, _CYLINDER_CHECKS, _BOUNDS_CHECKS)
          for name, _ in table]


def _scaled(module, name, factor):
    """The fault: ``module.name`` returns ``factor`` times its value."""
    def fault(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: factor * real(*args))
    return fault


def _searched_lengths_low(monkeypatch):
    # the primitive classes that the searches enumerate, not the classes
    # that systole takes its length from, which systole_and_diameter sees
    real = intnorm.flat_torus.enumerate_classes

    def low(*args, **kwargs):
        classes, lengths = real(*args, **kwargs)
        if kwargs.get("primitive_only"):
            lengths = 0.99 * lengths
        return classes, lengths
    monkeypatch.setattr(intnorm.flat_torus, "enumerate_classes", low)


def _intersections_high(monkeypatch):
    real = intnorm.flat_torus._intersections
    monkeypatch.setattr(intnorm.flat_torus, "_intersections",
                        lambda *args: real(*args) + 1)


def _systole_power(monkeypatch):
    # the systole off in its degree under scaling: exact on the square and
    # hexagonal lattices, whose systole is 1, so that only scaling sees it
    real = intnorm.flat_torus.systole
    monkeypatch.setattr(intnorm.flat_torus, "systole",
                        lambda lat: real(lat) ** 1.01)


def _every_other_candidate(monkeypatch):
    # the perpendicular search drops every other candidate pair
    real = intnorm.flat_torus._near_perpendicular_pairs
    monkeypatch.setattr(intnorm.flat_torus, "_near_perpendicular_pairs",
                        lambda *args: tuple(x[::2] for x in real(*args)))


def _first_torus_batch(alter):
    """The fault: the first batch that the torus oracle solves, which is
    the first lattice's batch of oracle_equivalence, is altered."""
    def fault(monkeypatch):
        real, calls = intnorm.flat_torus.crossing_batch, []

        def altered(*args):
            calls.append(args)
            batch = real(*args)
            return alter(batch) if len(calls) == 1 else batch
        monkeypatch.setattr(intnorm.flat_torus, "crossing_batch", altered)
    return fault


def _one_extra_crossing(batch):
    # the first pair crosses once more, with its own sign
    return batch._replace(offsets=batch.offsets + (batch.offsets > 0),
                          signs=np.insert(batch.signs, 0, batch.signs[0]))


def _first_pair_flipped(batch):
    signs = batch.signs.copy()
    signs[:batch.offsets[1]] *= -1
    return batch._replace(signs=signs)


def _first_arcs_crossing(sign):
    """The fault: the collar oracle takes every first arc to cross with
    ``sign``, whatever the sample asked."""
    def fault(monkeypatch):
        real = intnorm.cylinder._fermi_arcs

        def forced(cyl, entry_t, winding, crossing_sign):
            crossing_sign = crossing_sign.copy()
            crossing_sign[0] = sign
            return real(cyl, entry_t, winding, crossing_sign)
        monkeypatch.setattr(intnorm.cylinder, "_fermi_arcs", forced)
    return fault


def _shift_off_by_one(lead_offset, gap_offset):
    """The fault: ``rewind_shift`` off by one in one of its two terms."""
    def shift(m_lead, m_trail, leads):
        s = max(m_lead - 1 + lead_offset, 0)
        if not leads:
            s += max(m_trail - m_lead - 2 + gap_offset, 0)
        return s

    def fault(monkeypatch):
        monkeypatch.setattr(intnorm.cylinder, "rewind_shift", shift)
    return fault


def _double_lower_high(monkeypatch):
    # the scalar double-precision path only: arrays and extended precision
    # keep the true lower bound
    real = intnorm.bounds._hyperbolic_terms

    def high(s, l1, extended):
        lower, *rest = real(s, l1, extended)
        if not extended and not isinstance(l1, np.ndarray):
            lower *= 1.01
        return (lower, *rest)
    monkeypatch.setattr(intnorm.bounds, "_hyperbolic_terms", high)


def _genus_inverted(monkeypatch):
    # (s - 1) replaced by 1/(s - 1) in the lower bound, in both precisions
    real = intnorm.bounds._hyperbolic

    def inverted(m, s, l1):
        lower, *rest = real(m, s, l1)
        return (lower * (s - 1) ** 2, *rest)
    monkeypatch.setattr(intnorm.bounds, "_hyperbolic", inverted)


def _shrink_margin_wide(monkeypatch):
    monkeypatch.setattr(intnorm.bounds, "SHRINK_MARGIN", 1.5)


# A fault, the one check that must fail, its exact number of failures
# where the fault pins it (None elsewhere), and a pattern that each of its
# reported violations matches (re.search).
FAULTS = [
    pytest.param(_scaled(intnorm.flat_torus, "k_real", 1.01), "ratio_value",
                 None, "k_real", id="k_real-x1.01"),
    pytest.param(_searched_lengths_low, "ratio_value", None, "k_real",
                 id="searched-lengths-x0.99"),
    pytest.param(_intersections_high, "ratio_value", None, "k_real",
                 id="searched-Int-plus-1"),
    # one pair of the first lattice is altered: one failure, one violation
    pytest.param(_first_torus_batch(_one_extra_crossing),
                 "oracle_equivalence", 1,
                 r"^\[torus\] oracle .*outside window",
                 id="one-extra-crossing"),
    pytest.param(_first_torus_batch(_first_pair_flipped),
                 "oracle_equivalence", 1,
                 r"^\[torus\] oracle .*not uniformly",
                 id="first-pair-flipped"),
    pytest.param(_scaled(intnorm.flat_torus, "class_length", 1.01),
                 "norm_comparison", None, "norm comparison failed",
                 id="class_length-x1.01"),
    pytest.param(_systole_power, "scale_equivariance", None,
                 "systole not doubled", id="systole-to-the-1.01"),
    # the square and the hexagonal lattice lose pairs of their tie bands
    pytest.param(_every_other_candidate, "search_completeness", 2,
                 r"^\[torus\] pair search misses \d+ of \d+ pairs",
                 id="every-other-candidate-pair"),
    # the square lattice misses its systole, the hexagonal one its systole
    # and Hermite's equality; both miss their diameters
    pytest.param(_scaled(intnorm.flat_torus, "systole", 1.01),
                 "systole_and_diameter", 3, r"^\[torus\] systole",
                 id="systole-x1.01"),
    pytest.param(_scaled(intnorm.flat_torus, "torus_diameter", 1.01),
                 "systole_and_diameter", 2, r"^\[torus\] diameter",
                 id="diameter-x1.01"),
    pytest.param(_first_arcs_crossing(-1), "winding_window_and_sign", None,
                 r"\[core ", id="first-arcs-cross-negatively"),
    pytest.param(_first_arcs_crossing(1), "flipped_sign_convention", None,
                 r"\[flipped\] ", id="first-arcs-cross-positively"),
    *(pytest.param(_shift_off_by_one(lead, gap), "rewind_grid", None,
                   r"cell \(", id=f"rewind_shift-lead{lead:+d}-gap{gap:+d}")
      for lead, gap in ((1, 0), (-1, 0), (0, 1), (0, -1))),
    pytest.param(_double_lower_high, "extended_precision_agreement", None,
                 "drifts from extended precision", id="double-lower-x1.01"),
    pytest.param(_genus_inverted, "bound_ordering", None,
                 "not strictly decreasing in the genus",
                 id="lower-over-1/(s-1)"),
    pytest.param(_scaled(intnorm.bounds, "_collar_width", 1.01),
                 "asymptotic_profiles", None, "upper tail profile",
                 id="collar_width-x1.01"),
    pytest.param(_shrink_margin_wide, "collar_constants", None,
                 "boundary circle", id="SHRINK_MARGIN-1.5"),
]


@pytest.mark.parametrize("fault, check, count, pattern", FAULTS)
def test_each_fault_fails_exactly_its_check(monkeypatch, capsys, fault,
                                            check, count, pattern):
    fault(monkeypatch)
    assert main(["verify", "--suite", "all", "--seed", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    failures = {c["name"]: c["failures"]
                for s in doc["results"]["suites"] for c in s["checks"]}
    assert failures[check] > 0
    assert failures == {**dict.fromkeys(failures, 0), check: failures[check]}
    if count is not None:
        assert failures[check] == count
        assert len(doc["violations"]) == count
    shown = [v for v in doc["violations"] if "] ... and " not in v]
    assert shown and all(re.search(pattern, v) for v in shown)


def test_every_check_is_the_only_one_to_fail_in_some_row():
    assert {row.values[1] for row in FAULTS} == set(CHECKS)


def test_the_readme_names_the_checks_that_verify_runs():
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    count, names = re.search(r"The suites run (\d+) checks: (.*?)\.\s",
                             readme, re.DOTALL).groups()
    assert int(count) == len(CHECKS)
    assert re.findall(r"`(\w+)`", names) == CHECKS
