"""End-to-end command-line tests, run in process through ``cli.main``.

Each report must carry the fixed top-level shape {command, inputs,
results, violations, timing_ms, version}, exit 0/1/2, and be
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import subprocess
import sys
import tracemalloc

import pytest

import intnorm
import intnorm.cli
from intnorm.cli import _PROFILE_COLUMNS, _RECORD_COLUMNS, main
from test_faults import _scaled, off_anchors

TOP_LEVEL_KEYS = {"command", "inputs", "results", "violations",
                  "timing_ms", "version"}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def refusal(capsys, argv) -> str:
    """The one error line of a command line that main refuses with 2."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("intnorm: error: ")
    assert err.count("\n") == 1
    return err


# -------------------------------------------------------------------- torus

def test_torus_unit_square(capsys):
    code, doc = run_json(capsys, ["torus", "--lattice", "1,0,0,1"])
    assert code == 0
    assert set(doc) == TOP_LEVEL_KEYS
    assert doc["command"] == "torus"
    assert doc["timing_ms"] is None
    assert doc["version"] == intnorm.__version__
    assert doc["violations"] == []
    res = doc["results"]
    assert res["best_ratio"] == pytest.approx(1.0, rel=1e-12)
    assert res["covolume"] == pytest.approx(1.0)
    assert res["k_real"] == pytest.approx(1.0)
    assert res["systole"] == pytest.approx(1.0)
    assert res["segment_bound"]["nine_bound_ok"] is True
    assert res["segment_bound"]["sine_bound_ok"] is True
    for entry in res["norm_comparison"]:
        assert entry["two_sided_ok"] is True


def test_torus_skewed_basis_of_a_benign_lattice(capsys):
    # covolume 1; the enumeration box in this basis would hold 37.8M cells
    code, doc = run_json(capsys, ["torus", "--lattice", "1,0,10000.5,1",
                                  "--cutoff", "16"])
    assert code == 0
    res = doc["results"]
    assert res["covolume"] == 1.0
    assert res["best_ratio"] <= res["k_real"] * (1 + 1e-12)
    assert res["segment_bound"]["sine_bound_ok"] is True


def test_torus_at_cutoff_150_stays_small(tmp_path):
    # about 24.8k primitive classes: one dense table would be 4.9 GB.  The
    # child reports its own peak, VmHWM, which starts afresh at exec; on
    # Linux its ru_maxrss would carry the peak of this test process.
    script = ("import sys\n"
              "from intnorm.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "with open('/proc/self/status') as f:\n"
              "    print(code, *[line.split()[1] for line in f\n"
              "                  if line.startswith('VmHWM:')])\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "torus", "--lattice",
         "1,0,1/2,0.8660254037844386", "--cutoff", "150",
         "--output", str(tmp_path / "torus.json")],
        capture_output=True, text=True, check=True)
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kb < 200 * 1024


def test_precision_flag_belongs_to_bounds_only(capsys):
    _, doc = run_json(capsys, ["torus", "--lattice", "1,0,0,1"])
    assert "precision" not in doc["inputs"]
    err = refusal(capsys, ["torus", "--lattice", "1,0,0,1",
                           "--precision", "extended"])
    assert "unrecognized arguments: --precision extended" in err


def test_torus_hexagonal_decimal_basis(capsys):
    code, doc = run_json(capsys, ["torus", "--lattice",
                                  "1,0,0.5,0.8660254", "--cutoff", "10"])
    assert code == 0
    assert doc["results"]["best_ratio"] == pytest.approx(1.154701,
                                                         abs=1e-5)
    assert doc["inputs"]["cutoff"] == 10.0


@pytest.mark.parametrize("argv, digest", [
    # an exact hexagonal basis: many pairs tie, and the tie-break decides
    (["--lattice", "1,0,1/2,0.8660254037844386", "--cutoff", "20"],
     "a2910e77ebfde05a8a9202d35d181c978bf17116defb94a57f4a520620401539"),
    # a skewed basis at the default cutoff
    (["--lattice", "1,0,1/3,1"],
     "e2e5a7fa20f3e618bf70ba1381609e84d965f886e015c9e593993643a27504e3"),
    # about 99k classes, each row of the enumeration cut to the disc
    (["--lattice", "1,0,1/2,0.8660254037844386", "--cutoff", "300"],
     "7865f11638fe23429af844ce1582f8de41fd6c168f1edae9b3a7721aa3f843e8"),
    # a basis whose box in the given basis holds 38M cells
    (["--lattice", "1,0,10000.5,1"],
     "d1b068de131b1b2497891e7fb144d59e66fc67472184dc21b2704ff68ef413f8"),
])
def test_torus_report_is_pinned(capsys, argv, digest):
    """The whole torus report, byte for byte: a change in a ratio bit, a
    tie-broken pair, a norm or a segment bound changes it."""
    assert main(["torus"] + argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_torus_rejects_degenerate_lattice(capsys):
    code = main(["torus", "--lattice", "1,0,2,0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_torus_has_no_csv_form(capsys):
    code = main(["torus", "--lattice", "1,0,0,1", "--format", "csv"])
    assert code == 2


@pytest.mark.parametrize("argv, work", [
    (["verify", "--suite", "all"], "run_suites"),
    (["torus", "--lattice", "1,0,0,1"], "best_ratio_search"),
])
def test_csv_is_refused_before_the_work(monkeypatch, capsys, argv, work):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before the csv refusal")

    monkeypatch.setattr(intnorm.cli, work, refuse)
    assert main(argv + ["--format", "csv"]) == 2
    assert "csv output is only available" in capsys.readouterr().err


def test_torus_output_file(tmp_path, capsys):
    target = tmp_path / "torus.json"
    code = main(["torus", "--lattice", "1,0,0,1",
                 "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "torus"


# ----------------------------------------------------------------- cylinder

def test_cylinder_small_sweep(capsys):
    code, doc = run_json(capsys, ["cylinder", "--core-length", "0.2",
                                  "--samples", "200", "--seed", "42"])
    assert code == 0
    assert set(doc) == TOP_LEVEL_KEYS
    assert doc["violations"] == []
    res = doc["results"]
    assert res["samples"] == 200
    assert len(res["records"]) == 200
    assert res["half_width"] == pytest.approx(1.6965651211176617, rel=1e-12)
    for rec in res["records"]:
        assert rec["ok"] is True
        assert rec["window"][0] <= rec["count"] <= rec["window"][1]


def test_cylinder_sweep_output_is_pinned(tmp_path, capsys):
    """The results of a 1000-sample sweep, pinned by digest in JSON and
    in CSV: a change in the stream, a count, a sign or the formatting of
    a number changes them."""
    argv = ["cylinder", "--core-length", "0.2", "--samples", "1000",
            "--seed", "42"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    results = json.dumps(doc["results"], sort_keys=True).encode()
    assert hashlib.sha256(results).hexdigest() == (
        "619e6567dcd99486145d90fbe63e6dc62451bfd50984cf51c487d92a21306df4")
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--format", "csv", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3a1f3ead427a1aad1619c041e9ccf24a0351c989fe68f10a57b4ae4097d1493c")


def test_cylinder_rejects_long_core_in_shrunk_mode(capsys):
    assert main(["cylinder", "--core-length", "0.3"]) == 2
    assert "error" in capsys.readouterr().err


def test_cylinder_full_mode_accepts_long_core(capsys):
    code, doc = run_json(capsys, ["cylinder", "--core-length", "0.3",
                                  "--samples", "50", "--mode", "full"])
    assert code == 0
    assert doc["violations"] == []


def test_cylinder_rejects_zero_samples(capsys):
    assert main(["cylinder", "--core-length", "0.2",
                 "--samples", "0"]) == 2


def test_cylinder_samples_past_the_bound_are_refused_before_any_work(
        monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep began before the sample refusal")

    for work in ("make_collar", "named_stream", "lemma_sweep"):
        monkeypatch.setattr(intnorm.cli, work, refuse)
    tracemalloc.start()
    try:
        code = main(["cylinder", "--core-length", "0.2", "--samples",
                     str(intnorm.cli.MAX_SAMPLES + 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"intnorm: error: need 1 to {intnorm.cli.MAX_SAMPLES} "
                   f"samples, got {intnorm.cli.MAX_SAMPLES + 1}\n")


def test_cylinder_samples_up_to_a_patched_bound(monkeypatch, capsys):
    monkeypatch.setattr(intnorm.cli, "MAX_SAMPLES", 5)
    argv = ["cylinder", "--core-length", "0.2", "--samples"]
    code, doc = run_json(capsys, argv + ["5"])
    assert code == 0
    assert len(doc["results"]["records"]) == 5
    assert main(argv + ["6"]) == 2
    assert capsys.readouterr().err.startswith("intnorm: error:")


def test_cylinder_arc_batch_past_its_translate_bound_exits_2(
        monkeypatch, tmp_path, capsys):
    """Perpendicular first arcs 0.4 core lengths past the second arcs'
    entries try exactly n translates against a second winding n, so the
    file holds 20 + 30 + 40 = 90; the one-sample sweep tries at most 17."""
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": [
        {"arc1": [0.11, 0.0, 1], "arc2": [0.03, float(n), 1]}
        for n in (20, 30, 40)]}))
    argv = ["cylinder", "--core-length", "0.2", "--samples", "1",
            "--arcs-json", str(path)]
    monkeypatch.setattr(intnorm.cylinder, "MAX_TRANSLATES", 90)
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert [p["count"] for p in doc["results"]["pairs"]] == [20, 30, 40]
    monkeypatch.setattr(intnorm.cylinder, "MAX_TRANSLATES", 89)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("intnorm: error: 90 deck translates to try exceed the "
                   "oracle's bound 89\n")


def test_cylinder_collar_too_thin_for_the_graze_tolerance_exits_2(capsys):
    """At half-width 6.1e-7 the oracle's absolute graze tolerance leaves
    samples stuck whatever their jitter, which read as violations."""
    assert refusal(capsys, ["cylinder", "--core-length", "30", "--mode",
                            "full", "--samples", "20000"]) \
        == ("intnorm: error: half-width 6.118046410036707e-07 is below "
            "the oracle's bound 0.001\n")


def test_cylinder_explicit_arc_pairs(tmp_path, capsys):
    spec = {"pairs": [{"arc1": [0.03, 0.0, 1], "arc2": [0.11, 2.5, 1]},
                      {"arc1": [0.05, 1.2, 1], "arc2": [0.15, -0.7, -1]}]}
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(capsys, ["cylinder", "--core-length", "0.2",
                                  "--samples", "1",
                                  "--arcs-json", str(path)])
    assert code == 0
    pairs = doc["results"]["pairs"]
    assert len(pairs) == 2
    first = pairs[0]
    assert first["same_side"] is True
    assert first["window"] == [2, 3]
    assert first["count"] == 2
    assert all(s == first["expected_sign"] for s in first["signs"])
    second = pairs[1]
    assert second["same_side"] is False
    assert second["window"] == [0, 1]


# Arc pairs pinned by the digest of their results: both sides, both signs
# of the first arc, counts at both ends of their windows, pairs that do
# not cross, and windings near +-8.
PINNED_PAIRS = [
    {"arc1": [0.03, 0.0, 1], "arc2": [0.11, 2.5, 1]},
    {"arc1": [0.05, 1.2, 1], "arc2": [0.03, -0.7, -1]},
    {"arc1": [0.07, -7.9, -1], "arc2": [0.03, 7.6, -1]},
    {"arc1": [0.12, 7.95, -1], "arc2": [0.02, 7.3, 1]},
    {"arc1": [0.03, 0.0, 1], "arc2": [0.11, 0.0, 1]},
    {"arc1": [0.19, -7.99, 1], "arc2": [0.01, 7.97, -1]},
]

# Two pairs that graze the collar boundary under the tolerances of
# test_arc_pairs_keep_their_retries_pinned, between two that do not.
RETRIED_PAIRS = [
    {"arc1": [0.03, 0.0, 1], "arc2": [0.11, 2.5, 1]},
    {"arc1": [0.179, -0.5, 1], "arc2": [0.194, -6.08, -1]},
    {"arc1": [0.05, 1.2, 1], "arc2": [0.15, -0.7, -1]},
    {"arc1": [0.195, -3.71, -1], "arc2": [0.159, -1.82, 1]},
]


def _pairs_digest(tmp_path, capsys, pairs):
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": pairs}))
    code, doc = run_json(capsys, ["cylinder", "--core-length", "0.2",
                                  "--samples", "1", "--seed", "1",
                                  "--arcs-json", str(path)])
    assert code == 0
    assert doc["violations"] == []
    results = json.dumps(doc["results"]["pairs"], sort_keys=True).encode()
    return doc["results"]["pairs"], hashlib.sha256(results).hexdigest()


def test_arc_pairs_output_is_pinned(tmp_path, capsys):
    pairs, digest = _pairs_digest(tmp_path, capsys, PINNED_PAIRS)
    assert [(p["count"], p["window"]) for p in pairs] == [
        (2, [2, 3]), (1, [0, 1]), (16, [15, 16]), (15, [15, 16]),
        (0, [0, 1]), (0, [0, 1])]
    assert digest == (
        "4cde485ae2adbd6b63bdc1f2d523314e2108b6856a90b971ee11ebc3ce1c7b2e")


def test_arc_pairs_keep_their_retries_pinned(monkeypatch, tmp_path, capsys):
    """Pairs flagged for a retry are solved again in file order, each
    drawing its jitter from the stream, and then judged with the rest."""
    monkeypatch.setattr(intnorm.cylinder, "S_TOLERANCE", 0.02)
    monkeypatch.setattr(intnorm.cylinder, "JITTER_SCALE", 0.01)
    cyl = intnorm.make_collar(0.2, "shrunk")
    retried = []
    for item in RETRIED_PAIRS:
        try:
            intnorm.cylinder.crossing_count_oracle_cyl(
                cyl, *(intnorm.ArcSpec(*item[k]) for k in ("arc1", "arc2")))
        except intnorm.RetrySignal:
            retried.append(item)
    assert retried == RETRIED_PAIRS[1::2]
    pairs, digest = _pairs_digest(tmp_path, capsys, RETRIED_PAIRS)
    assert [p["count"] for p in pairs] == [2, 6, 0, 5]
    assert digest == (
        "f8cc7512f4865687fbe163b72a4be0c14f3bebbee420a6b2dc587e910e52331f")


@pytest.mark.parametrize("arc1,arc2,advance", [
    # finite windings whose sum is not, refused for their core advance
    ([0.03, 1e308, 1], [0.11, 1e308, -1], "2.0000000000000002e+307 of "
                                          "winding 1e+308"),
    ([0.01, 1e300, 1], [0.02, 1.5, 1], "2e+299 of winding 1e+300"),
])
def test_cylinder_arc_pair_whose_window_overflows_exits_2(
        arc1, arc2, advance, tmp_path, capsys):
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": [{"arc1": arc1, "arc2": arc2}]}))
    assert refusal(capsys, ["cylinder", "--core-length", "0.2",
                            "--samples", "1", "--arcs-json", str(path)]) \
        == (f"intnorm: error: arc pair #0: core advance {advance} exceeds "
            "the oracle's bound 400.0\n")


def test_cylinder_arc_pair_still_stuck_exits_2(monkeypatch, tmp_path,
                                               capsys):
    """Under a graze tolerance this wide and a jitter this small the
    second pair grazes the collar boundary on every retry; the error line
    names it and the reason of its flag."""
    monkeypatch.setattr(intnorm.cylinder, "S_TOLERANCE", 0.02)
    monkeypatch.setattr(intnorm.cylinder, "JITTER_SCALE", 1e-12)
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": RETRIED_PAIRS[:2]}))
    assert refusal(capsys, ["cylinder", "--core-length", "0.2",
                            "--samples", "1", "--arcs-json", str(path)]) \
        == ("intnorm: error: arc pair #1: oracle stuck (crossing grazes the "
            "collar boundary)\n")


def test_cylinder_arc_pair_past_the_translate_bound_exits_2(tmp_path,
                                                            capsys):
    # core advance 100 is inside the oracle's bound, 2e6 translates are not
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": [{"arc1": [0.0, 1e6, 1],
                                           "arc2": [5e-5, -1e6, 1]}]}))
    assert main(["cylinder", "--core-length", "1e-4", "--samples", "1",
                 "--arcs-json", str(path)]) == 2
    assert "translates" in capsys.readouterr().err


@pytest.mark.parametrize("core, mode, pairs, line", [
    # an entry outside [0, l) on the second pair
    ("0.1", "shrunk", [{"arc1": [0.03, 0.5, 1], "arc2": [0.02, 0.5, -1]},
                       {"arc1": [0.5, 1.5, 1], "arc2": [0.02, 0.5, -1]}],
     "arc pair #1: entry_t must lie in [0, 0.1), got 0.5"),
    # a core advance past the oracle's bound
    ("0.1", "shrunk", [{"arc1": [0.03, 5000.0, 1], "arc2": [0.02, 0.5, -1]}],
     "arc pair #0: core advance 500.0 of winding 5000.0 exceeds the "
     "oracle's bound 400.0"),
    # more translates than the oracle's bound, summed over pairs that
    # are each inside it: no one pair is named
    ("1e-6", "full", [{"arc1": [0.0, 1.0, 1], "arc2": [0.0, 2.5, 1]},
                      {"arc1": [0.0, 3e5, 1], "arc2": [0.0, 300000.5, 1]},
                      {"arc1": [0.0, 3e5, 1], "arc2": [0.0, 300000.5, 1]}],
     "1200006 deck translates to try exceed the oracle's bound 1000000"),
    # an entry outside [0, l) before a pair of identical arcs: the first
    # pair in file order names the error, whatever rule each breaks
    ("0.1", "shrunk", [{"arc1": [0.5, 1.0, 1], "arc2": [0.02, 2, -1]},
                       {"arc1": [0.01, 1.5, 1], "arc2": [0.01, 1.5, 1]}],
     "arc pair #0: entry_t must lie in [0, 0.1), got 0.5"),
    # the first pair refused names the error, whatever rule it breaks
    ("0.2", "shrunk", [{"arc1": [0.03, 0.5, 1], "arc2": [0.11, 2.5, 1]},
                       {"arc1": [0.03, 3000.0, 1], "arc2": [0.11, 0.5, 1]},
                       {"arc1": [0.3, 0.5, 1], "arc2": [0.11, 2.5, 1]}],
     "arc pair #1: core advance 600.0 of winding 3000.0 exceeds the "
     "oracle's bound 400.0"),
])
def test_cylinder_arc_pair_outside_the_oracle_domain_is_named(
        core, mode, pairs, line, tmp_path, capsys):
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": pairs}))
    assert refusal(capsys, ["cylinder", "--core-length", core, "--mode",
                            mode, "--samples", "1", "--arcs-json",
                            str(path)]) == f"intnorm: error: {line}\n"


def test_cylinder_csv_refuses_arc_pairs(tmp_path, capsys):
    """The csv table holds the sweep's samples only: pairs asked for with
    --arcs-json would be dropped without a word, so the command is
    refused before any work."""
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": PINNED_PAIRS}))
    assert "--arcs-json" in refusal(
        capsys, ["cylinder", "--core-length", "0.2", "--samples", "2",
                 "--format", "csv", "--arcs-json", str(path)])


@pytest.mark.parametrize("doc, line", [
    ({"pairs": {"a": 1}},
     'cannot read arc pairs from {}: expected {{"pairs": [...]}}'),
    ([1], 'cannot read arc pairs from {}: expected {{"pairs": [...]}}'),
    ({"pairs": [[0.03, 0.5, 1]]},
     'arc pair #0: expected {{"arc1": [...], "arc2": [...]}}'),
    ({"pairs": [{"arc1": [0.03, 0.5, 1], "arc2": [0.11, 2.5, 1]},
                {"arc1": [0.03, 0.5, 1, 7], "arc2": [0.11, 2.5, 1]}]},
     "arc pair #1: arc1 must be [entry_t, winding, crossing_sign], got "
     "[0.03, 0.5, 1, 7]"),
    ({"pairs": [{"arc1": [0.03, 0.5, 1], "arc2": 0.11}]},
     "arc pair #0: arc2 must be [entry_t, winding, crossing_sign], got "
     "0.11"),
], ids=["pairs-object", "list", "pair-list", "arc-of-four", "arc-number"])
def test_cylinder_arc_file_of_the_wrong_shape_names_the_shape(
        doc, line, tmp_path, capsys):
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps(doc))
    assert refusal(capsys, ["cylinder", "--core-length", "0.2",
                            "--samples", "1", "--arcs-json", str(path)]) \
        == f"intnorm: error: {line.format(path)}\n"


def test_cylinder_malformed_arc_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"pairs": [{"arc1": [0.1]}]}))
    assert main(["cylinder", "--core-length", "0.2", "--samples", "1",
                 "--arcs-json", str(path)]) == 2
    assert main(["cylinder", "--core-length", "0.2", "--samples", "1",
                 "--arcs-json", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("spec", [
    {"pairs": 5},
    # a crossing sign that is not a JSON number equal to 1 or -1
    {"pairs": [{"arc1": [0.03, 0.0, 1.9], "arc2": [0.11, 2.5, 1]}]},
    {"pairs": [{"arc1": [0.03, 0.0, True], "arc2": [0.11, 2.5, 1]}]},
    {"pairs": [{"arc1": [0.03, 0.0, 1], "arc2": [0.11, 2.5, "1"]}]},
    # an entry or a winding that is not a JSON number
    {"pairs": [{"arc1": [True, 0.0, 1], "arc2": [0.11, 2.5, 1]}]},
    {"pairs": [{"arc1": [0.03, 0.0, 1], "arc2": [0.11, True, 1]}]},
    {"pairs": [{"arc1": [0.03, "0.5", 1], "arc2": [0.11, 2.5, 1]}]},
    {"pairs": [{"arc1": [0.03, 10 ** 400, 1], "arc2": [0.11, 2.5, 1]}]},
])
def test_cylinder_arc_file_with_wrong_types_exits_2(spec, tmp_path, capsys):
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps(spec))
    refusal(capsys, ["cylinder", "--core-length", "0.2", "--samples", "1",
                     "--arcs-json", str(path)])


def test_cylinder_csv_table(capsys):
    code = main(["cylinder", "--core-length", "0.2", "--samples", "25",
                 "--seed", "7", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(_RECORD_COLUMNS)
    assert len(lines) == 26


# ------------------------------------------------------------------- bounds

def test_bounds_geometric_grid(capsys):
    code, doc = run_json(capsys, ["bounds", "--genus", "2",
                                  "--l1-grid", "1e-4:0.25:50",
                                  "--geometric"])
    assert code == 0
    res = doc["results"]
    assert res["columns"] == list(_PROFILE_COLUMNS)
    assert len(res["rows"]) == 50
    assert doc["violations"] == []
    first = dict(zip(res["columns"], res["rows"][0]))
    assert first["l1"] == pytest.approx(1e-4, rel=1e-12)
    assert first["hyp_lower"] < first["hyp_upper"]


def test_bounds_arithmetic_grid(capsys):
    code, doc = run_json(capsys, ["bounds", "--genus", "2",
                                  "--l1-grid", "1e-4:0.25:50"])
    assert code == 0
    rows = doc["results"]["rows"]
    assert len(rows) == 50
    assert rows[-1][0] == pytest.approx(0.25)


def test_bounds_rejects_genus_one(capsys):
    assert main(["bounds", "--genus", "1",
                 "--l1-grid", "1e-4:0.25:50"]) == 2


def test_bounds_grid_past_double_range_is_refused_by_its_text(capsys):
    # 0.9 / 1e-310 overflows: no nan point reaches the bounds
    err = refusal(capsys, ["bounds", "--genus", "2", "--l1-grid",
                           "1e-310:0.9:3", "--geometric"])
    assert err == ("intnorm: error: grid '1e-310:0.9:3' cannot be built: "
                   "hi / lo leaves the range of doubles\n")


def test_bounds_rejects_grid_reaching_one(capsys):
    assert main(["bounds", "--genus", "2", "--l1-grid", "0.5:2:3"]) == 2


def test_bounds_csv_table(capsys):
    code = main(["bounds", "--genus", "3", "--l1-grid", "1e-3:0.2:5",
                 "--geometric", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(_PROFILE_COLUMNS)
    assert len(lines) == 6


@pytest.mark.parametrize("precision, fmt, digest", [
    ("double", "json",
     "4c70df990debe471a26d1d73c99af258b121ad3dac7392c6c30e6a0de05bac35"),
    ("double", "csv",
     "4973d68c47e78f0e67cf93a710165b931cc146b62c63fa3e819bd3ccc291fba6"),
    ("extended", "json",
     "bfd07d83c0ced3543d41eff8cb2af7c996fa832e27f69f1673c84638f72bfbba"),
    ("extended", "csv",
     "c82c69a09d2d781beb16ced08768c7d9febe81471f7119277a350b6ac7fbc42f"),
])
def test_bounds_table_is_pinned(capsys, precision, fmt, digest):
    """A 500-row table from 1e-9 to 0.9, byte for byte in each precision
    and format: a change in any bit of a bound or profile changes it."""
    assert main(["bounds", "--genus", "3", "--l1-grid", "1e-9:0.9:500",
                 "--geometric", "--precision", precision,
                 "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_bounds_extended_precision_close_to_double(capsys):
    _, double = run_json(capsys, ["bounds", "--genus", "2",
                                  "--l1-grid", "1e-3:0.1:4",
                                  "--geometric"])
    _, extended = run_json(capsys, ["bounds", "--genus", "2",
                                    "--l1-grid", "1e-3:0.1:4",
                                    "--geometric",
                                    "--precision", "extended"])
    for dr, er in zip(double["results"]["rows"],
                      extended["results"]["rows"]):
        for dv, ev in zip(dr, er):
            assert dv == pytest.approx(ev, rel=1e-6)


# ------------------------------------------------------------------- verify

def test_verify_bounds_suite_reproducible(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", "--suite", "bounds", "--seed", "1",
                 "--output", str(out1)]) == 0
    assert main(["verify", "--suite", "bounds", "--seed", "1",
                 "--output", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    doc = json.loads(b1)
    assert doc["violations"] == []
    (suite,) = doc["results"]["suites"]
    assert suite["suite"] == "bounds"
    assert all(c["failures"] == 0 for c in suite["checks"])


# The checks of each suite, in report order.
VERIFY_CHECKS = {
    "torus": ["ratio_value", "oracle_equivalence", "norm_comparison",
              "scale_equivariance", "search_completeness",
              "systole_and_diameter"],
    "cylinder": ["winding_window_and_sign", "flipped_sign_convention",
                 "rewind_grid"],
    "bounds": ["extended_precision_agreement", "bound_ordering",
               "asymptotic_profiles", "collar_constants"],
}


def test_verify_all_runs_the_pinned_checks(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "all", "--seed", "1"])
    assert code == 0
    suites = doc["results"]["suites"]
    assert {s["suite"]: [c["name"] for c in s["checks"]]
            for s in suites} == VERIFY_CHECKS
    assert all(s["violations"] == [] for s in suites)
    # the report holds names and integers only, so it is pinned exactly
    assert {s["suite"]: {c["name"]: (c["cases"], c["failures"])
                         for c in s["checks"]} for s in suites} == {
        "torus": {"ratio_value": (24, 0), "oracle_equivalence": (485, 0),
                  "norm_comparison": (100, 0), "scale_equivariance": (3, 0),
                  "search_completeness": (2, 0),
                  "systole_and_diameter": (8, 0)},
        "cylinder": {"winding_window_and_sign": (10000, 0),
                     "flipped_sign_convention": (1000, 0),
                     "rewind_grid": (728, 0)},
        "bounds": {"extended_precision_agreement": (15, 0),
                   "bound_ordering": (988, 0),
                   "asymptotic_profiles": (53, 0),
                   "collar_constants": (2000, 0)},
    }


def test_verify_all_output_is_pinned(capsys):
    """The whole report of verify --seed 1, byte for byte.  A change that
    alters the report on purpose updates the digest and says why."""
    assert main(["verify", "--suite", "all", "--seed", "1"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "19dd3cff83a182df41eacd5f523c2a8e7d70438709a493c5f5497c9116508212")


@pytest.fixture
def shifted_windows(monkeypatch):
    """Every winding window one too high, in the suites and the CLI."""
    real = intnorm.cylinder.intersection_bounds

    def shifted(c_wind, d_wind, same_side):
        wb = real(c_wind, d_wind, same_side)
        return wb._replace(lo=wb.lo + 1, hi=wb.hi + 1)

    monkeypatch.setattr(intnorm.cylinder, "intersection_bounds", shifted)


def test_verify_reports_failing_checks_and_caps_violations(shifted_windows,
                                                           tmp_path):
    out = tmp_path / "cylinder.json"
    assert main(["verify", "--suite", "cylinder", "--seed", "1",
                 "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    (suite,) = doc["results"]["suites"]
    failures = {c["name"]: c["failures"] for c in suite["checks"]}
    assert failures["winding_window_and_sign"] > 0
    assert failures["flipped_sign_convention"] > 0
    assert failures["rewind_grid"] == 0
    violations = suite["violations"]
    assert len(violations) == 26
    assert violations[-1] == (f"... and {sum(failures.values()) - 25} "
                              "more")
    assert doc["violations"] == [f"[cylinder] {v}" for v in violations]


def test_cylinder_arc_pair_outside_its_window_is_a_violation(
        shifted_windows, tmp_path, capsys):
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": [{"arc1": [0.03, 0.0, 1],
                                           "arc2": [0.11, 2.5, 1]}]}))
    code, doc = run_json(capsys, ["cylinder", "--core-length", "0.2",
                                  "--samples", "1",
                                  "--arcs-json", str(path)])
    assert code == 1
    assert "pair #0: count 2 outside window [3, 4]" in doc["violations"]


@pytest.fixture
def flipped_signs(monkeypatch):
    """Every window's sign flipped, in the suites and the CLI."""
    real = intnorm.cylinder.intersection_bounds

    def flipped(c_wind, d_wind, same_side):
        wb = real(c_wind, d_wind, same_side)
        return wb._replace(sign=-wb.sign)

    monkeypatch.setattr(intnorm.cylinder, "intersection_bounds", flipped)


def test_verify_reports_crossings_of_the_wrong_sign(flipped_signs, tmp_path):
    out = tmp_path / "cylinder.json"
    assert main(["verify", "--suite", "cylinder", "--seed", "1",
                 "--output", str(out)]) == 1
    (suite,) = json.loads(out.read_text())["results"]["suites"]
    failures = {c["name"]: c["failures"] for c in suite["checks"]}
    assert failures["winding_window_and_sign"] > 0
    assert failures["flipped_sign_convention"] > 0
    assert all("not uniformly" in v for v in suite["violations"][:-1])


def test_cylinder_arc_pair_of_the_wrong_sign_is_a_violation(
        flipped_signs, tmp_path, capsys):
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": PINNED_PAIRS}))
    code, doc = run_json(capsys, ["cylinder", "--core-length", "0.2",
                                  "--samples", "1",
                                  "--arcs-json", str(path)])
    assert code == 1
    assert "pair #0: signs (1, 1) not uniformly -1" in doc["violations"]
    # pairs without crossings carry no sign to get wrong
    assert not any(v.startswith(("pair #4", "pair #5"))
                   for v in doc["violations"])


def test_verify_unknown_suite_is_a_usage_error(capsys):
    err = refusal(capsys, ["verify", "--suite", "nonsense"])
    assert "argument --suite: invalid choice: 'nonsense'" in err


def test_missing_subcommand_is_a_usage_error(capsys):
    err = refusal(capsys, [])
    assert "the following arguments are required: command" in err


@pytest.mark.parametrize("argv, message", [
    (["torus", "--lattice", "1,0,0,1", "--cutoff", "1/3"],
     "argument --cutoff: invalid float value: '1/3'"),
    (["bounds", "--genus", "2.5", "--l1-grid", "0.1:0.5:3"],
     "argument --genus: invalid int value: '2.5'"),
    (["torus"], "the following arguments are required: --lattice"),
    (["cylinder", "--core-length", "0.2", "--mode", "half"],
     "argument --mode: invalid choice: 'half'"),
    (["frob"], "argument command: invalid choice: 'frob'"),
    (["verify", "--frob"], "unrecognized arguments: --frob"),
])
def test_parser_errors_are_one_error_line(argv, message, capsys):
    # no usage block, and main returns 2 rather than raising SystemExit
    err = refusal(capsys, argv)
    assert message in err
    assert "usage:" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert intnorm.__version__ in capsys.readouterr().out


# ------------------------------------------------------------ input errors

@pytest.mark.parametrize("argv", [
    ["cylinder", "--core-length", "2000", "--mode", "full", "--samples", "1"],
    ["bounds", "--genus", "2", "--l1-grid", "1e-320:0.5:3"],
    ["verify", "--suite", "bounds", "--output", "/nonexistent/dir/x.json"],
    ["torus", "--lattice", "1,0,0,1e-300"],
    ["cylinder", "--core-length", "1e-200", "--mode", "full",
     "--samples", "3"],
    ["torus", "--lattice", "1e-170,0,0,1e-170"],
    ["torus", "--lattice", "1e200,0,0,1e200"],
    ["torus", "--lattice", "1e200,0,0,1e-200"],
    ["torus", "--lattice", "1e-160,0,1e150,1"],
    # a subnormal determinant, whose inverse overflows
    ["torus", "--lattice", "1e-160,0,0,1e-160"],
    ["torus", "--lattice", "1e-155,0,0,1e-155"],
    # independent entries, one of which underflows to 0.0 as a float
    ["torus", "--lattice", "1,0,0,1e-400"],
    ["bounds", "--genus", "2", "--l1-grid", "1e-320:0.5:3",
     "--precision", "extended"],
    # a genus past the range of a float, in double and extended precision
    ["bounds", "--genus", str(10 ** 400), "--l1-grid", "1e-4:0.25:3"],
    ["bounds", "--genus", str(10 ** 400), "--l1-grid", "1e-4:0.25:3",
     "--precision", "extended"],
])
def test_out_of_range_input_exits_2_without_traceback(argv):
    proc = subprocess.run([sys.executable, "-m", "intnorm", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    # the error line is all that reaches stderr: no warning, no traceback
    assert proc.stderr.startswith("intnorm: error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    # an upper bound that overflows to inf, which is not JSON
    ["bounds", "--genus", str(10 ** 306), "--l1-grid", "1e-4:0.1:2"],
    # a systole whose half rounds to 0
    ["bounds", "--genus", "2", "--l1-grid", "5e-324:1e-300:2"],
    # a grid past its step bound, refused before it is built
    ["bounds", "--genus", "2", "--l1-grid", "1e-4:0.1:100000000000"],
])
def test_bounds_past_double_precision_exit_2_with_one_error_line(argv,
                                                                 capsys):
    refusal(capsys, argv)


@pytest.mark.parametrize("argv", [
    # a basis entry past the range of double precision
    ["torus", "--lattice", "1e400,0,0,1"],
    # a diameter whose circumradius overflows while it forms a*b*c
    ["torus", "--lattice", "1e150,0,0,1e150"],
])
def test_torus_past_double_precision_exits_2_with_one_error_line(argv,
                                                                 capsys):
    refusal(capsys, argv)


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("argv", [
    ["torus", "--lattice", "1,0,0,1"],
    ["cylinder", "--core-length", "0.2", "--samples", "1"],
    ["bounds", "--genus", "2", "--l1-grid", "0.1:0.5:3"],
    ["verify", "--suite", "bounds"],
])
def test_a_seed_past_64_unsigned_bits_is_refused_before_the_work(
        monkeypatch, capsys, argv, seed):
    def refuse(args):
        raise AssertionError(f"{argv[0]} ran before the seed was checked")

    monkeypatch.setitem(intnorm.cli._RUNNERS, argv[0], refuse)
    assert main(argv + ["--seed", seed]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("intnorm: error: seed must fit in 64 unsigned bits, "
                   f"got {seed}\n")


_HUGE = str(10 ** 2999)


@pytest.mark.parametrize("argv, name", [
    (["verify", "--seed", _HUGE], "seed must fit in 64 unsigned bits, got "),
    (["bounds", "--genus", "-" + _HUGE, "--l1-grid", "0.1:0.2:2"],
     "genus must be >= 2, got -"),
    (["cylinder", "--core-length", "0.2", "--samples", _HUGE],
     "samples, got "),
    (["bounds", "--genus", str(10 ** 400), "--l1-grid", "0.1:0.2:2"],
     "hyperbolic bounds at s="),
], ids=["seed", "genus", "samples", "genus-past-double"])
def test_a_huge_integer_is_quoted_short_in_its_error_line(argv, name,
                                                          capsys):
    # a 3,000-digit number is quoted, not echoed whole
    err = refusal(capsys, argv)
    assert name in err
    assert len(err) < 200


@pytest.mark.parametrize("length", ["0", "-1", "nan"])
def test_a_core_length_that_is_not_positive_is_named_as_such(length,
                                                             capsys):
    err = refusal(capsys, ["cylinder", f"--core-length={length}"])
    assert err == ("intnorm: error: core_length must be a positive finite "
                   f"real, got {float(length)!r}\n")


@pytest.mark.parametrize("argv, keep", [
    # the reader takes 10 bytes of a report of about 450 KB and goes
    (["cylinder", "--core-length", "0.2", "--samples", "1000"], 10),
    # the reader is gone before the report is written: it fits the
    # buffer of stdout, so only the last flush meets the closed pipe
    (["torus", "--lattice", "1,0,0,1"], 0),
])
def test_a_closed_stdout_exits_2_with_one_error_line(argv, keep):
    proc = subprocess.Popen([sys.executable, "-m", "intnorm", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.read(keep)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "intnorm: error: standard output was closed\n"


# ------------------------------------------------------------------ writing

def _json_native(value) -> bool:
    """Whether json's encoder takes value as it stands, as it takes a
    subclass of float such as numpy.float64, but not numpy's integers."""
    if isinstance(value, dict):
        return all(isinstance(k, str) and _json_native(v)
                   for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(map(_json_native, value))
    return value is None or isinstance(value, (str, int, float))


@pytest.mark.parametrize("argv", [
    ["torus", "--lattice", "1,0,1/2,0.8660254037844386"],
    ["cylinder", "--core-length", "0.2", "--samples", "300"],
    ["cylinder", "--core-length", "0.2", "--samples", "300", "--format",
     "csv"],
    ["bounds", "--genus", "3", "--l1-grid", "1e-9:0.9:20", "--geometric"],
    ["bounds", "--genus", "3", "--l1-grid", "1e-9:0.9:20", "--precision",
     "extended", "--format", "csv"],
    ["verify", "--suite", "all", "--seed", "1"],
])
def test_reports_hold_only_json_types(monkeypatch, tmp_path, argv):
    """A report is encoded while it is written, so nothing in it may be
    a type the encoder refuses (a numpy integer, say) once it has begun."""
    arcs = tmp_path / "arcs.json"
    arcs.write_text(json.dumps({"pairs": PINNED_PAIRS + RETRIED_PAIRS}))
    if argv[0] == "cylinder" and "csv" not in argv:  # csv holds no pairs
        argv = argv + ["--arcs-json", str(arcs)]
    emitted = []
    monkeypatch.setattr(intnorm.cli, "_emit",
                        lambda *args: emitted.append(args[:2]))
    assert main(argv) == 0
    ((report, csv_data),) = emitted
    assert _json_native(report)
    assert csv_data is None or _json_native(csv_data)


def test_a_failed_write_leaves_no_partial_report(monkeypatch, tmp_path,
                                                 capsys):
    def disk_full(report, csv_data, fmt, fh):
        fh.write('{\n  "command": "bounds"')
        fh.flush()
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(intnorm.cli, "_write", disk_full)
    out = tmp_path / "bounds.json"
    out.write_text("an earlier report")
    assert main(["bounds", "--genus", "2", "--l1-grid", "1e-3:0.1:3",
                 "--output", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("intnorm: error: cannot write the report")
    assert err.count("\n") == 1


@pytest.mark.parametrize("target", ["/dev/full", "earlier.json"])
def test_a_failed_write_through_a_symlink_keeps_the_link_and_its_target(
        monkeypatch, tmp_path, capsys, target):
    # /dev/full fails the write itself; a regular target fails in _write,
    # and stays, as open truncated it
    if target == "earlier.json":
        (tmp_path / target).write_text("an earlier report")

        def disk_full(report, csv_data, fmt, fh):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(intnorm.cli, "_write", disk_full)
    link = tmp_path / "out"
    link.symlink_to(target)
    assert main(["verify", "--suite", "bounds", "--seed", "1",
                 "--output", str(link)]) == 2
    assert link.is_symlink() and link.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"intnorm: error: cannot write the report to "
                          f"{link}: ")
    assert err.count("\n") == 1


def test_a_report_is_written_without_its_whole_text(tmp_path):
    """The report is encoded and written in blocks: the memory it takes
    stays a fraction of its text, where one json.dumps string took three
    times the text."""
    record = {"c_wind": -3.25, "d_wind": 7.5, "same_side": True,
              "entry_1": 0.125, "entry_2": 0.0625, "first_sign": 1,
              "count": 9, "window": [8, 10], "expected_sign": -1,
              "signs": [1, -1, 1], "ok": True}
    report = {"results": {"records": [dict(record) for _ in range(5000)]}}
    args = intnorm.cli.build_parser().parse_args(
        ["verify", "--output", str(tmp_path / "r.json")])
    tracemalloc.start()
    try:
        intnorm.cli._emit(report, None, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "r.json").read_text()
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert peak < len(text) / 4


def test_cylinder_identical_arcs_exit_2(tmp_path, capsys):
    # refused by the oracle's batch, which names the pair
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": [
        {"arc1": [0.03, 0.0, 1], "arc2": [0.11, 2.5, 1]},
        {"arc1": [0.05, 1.2, 1], "arc2": [0.07, 1.2, -1]},
        {"arc1": [0.05, 1.2, 1], "arc2": [0.05, 1.2, 1]}]}))
    assert main(["cylinder", "--core-length", "0.2", "--samples", "1",
                 "--arcs-json", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "intnorm: error: arc pair #2: arcs are identical\n")


def _ratio_above_k_real(monkeypatch):
    real = intnorm.flat_torus.best_ratio_search

    def above(*args):
        res = real(*args)
        return res._replace(ratio=res.ratio * 1.01)
    for module in (intnorm.flat_torus, intnorm.cli):
        monkeypatch.setattr(module, "best_ratio_search", above)


def _segment_above_the_sine_bound(monkeypatch):
    real = intnorm.flat_torus.segment_bound_check

    def above(*args):
        rep = real(*args)
        # the report of a maximum 1% above the sine bound, and below 9
        return dataclasses.replace(rep, max_normalized=1.01 * rep.sine_bound,
                                   sine_bound_ok=False)
    for module in (intnorm.flat_torus, intnorm.cli):
        monkeypatch.setattr(module, "segment_bound_check", above)


def _l2_one_percent_off(monkeypatch):
    real = intnorm.flat_torus.norm_comparison_report

    def off(*args):
        rep = real(*args)
        # both sides are equalities on a flat torus, so 1% breaks one
        return rep._replace(l2=rep.l2 * 1.01, two_sided_ok=False)
    for module in (intnorm.flat_torus, intnorm.cli):
        monkeypatch.setattr(module, "norm_comparison_report", off)


def _lower_above_the_collar_rate(monkeypatch):
    # off the anchors of the bounds suite, where the lower bound is
    # compared with a literal
    real = intnorm.bounds._hyperbolic_terms

    def above(s, l1, extended):
        lower, upper, rate, *rest = real(s, l1, extended)
        return (off_anchors(s, l1, lower, 2.0 * rate), upper, rate, *rest)
    monkeypatch.setattr(intnorm.bounds, "_hyperbolic_terms", above)


_HEXAGONAL = "1,0,1/2,0.8660254037844386"


# A fault, the suite and check it must fail, and a command on an input
# that the check shares (its violations then start as the check's do) or
# not (then only their words agree).
@pytest.mark.parametrize("fault, suite, check, argv, shared", [
    (_ratio_above_k_real, "torus", "ratio_value",
     ["torus", "--lattice", _HEXAGONAL], True),
    (_l2_one_percent_off, "torus", "norm_comparison",
     ["torus", "--lattice", _HEXAGONAL], False),
    (_lower_above_the_collar_rate, "bounds", "bound_ordering",
     ["bounds", "--genus", "2", "--l1-grid", "1e-4:0.25:50", "--geometric"],
     True),
])
def test_verify_and_the_command_share_each_verdict(monkeypatch, tmp_path,
                                                   capsys, fault, suite,
                                                   check, argv, shared):
    """One library call returns a faulty value: only the matching check
    fails, and the command reports the violation in the suites' words."""
    fault(monkeypatch)
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", suite, "--seed", "1",
                 "--output", str(out)]) == 1
    (report,) = json.loads(out.read_text())["results"]["suites"]
    failures = {c["name"]: c["failures"] for c in report["checks"]}
    assert failures[check] > 0
    assert failures == {**dict.fromkeys(failures, 0), check: failures[check]}
    code, doc = run_json(capsys, argv)
    assert code == 1
    assert doc["violations"]

    # the words of a violation, with its numbers left out
    def words(text):
        return re.sub(r"-?\d+(\.\d+)?(e[+-]?\d+)?", "#", text)
    suite_words = {words(v) for v in report["violations"]
                   if not v.startswith("... and")}
    assert all(any(s.startswith(words(v)) for s in suite_words)
               for v in doc["violations"])
    if shared:  # the suite reports its first 25
        assert all(any(s.startswith(v) for s in report["violations"])
                   for v in doc["violations"][:25])


def test_the_torus_command_alone_judges_the_segment_bound(monkeypatch,
                                                          capsys):
    """No check of verify runs segment_violations, which ratio_value
    implies; the command still reports a maximum above the sine bound."""
    _segment_above_the_sine_bound(monkeypatch)
    code, doc = run_json(capsys, ["torus", "--lattice", _HEXAGONAL])
    assert code == 1
    (violation,) = doc["violations"]
    assert violation.startswith("angle bound violated: max ")


# Skewed bases of well-conditioned lattices: the ratio, the segment
# maximum and the norms computed in them carry rounding errors up to about
# 4e-11, past a fixed tolerance of 1e-12.  With that tolerance 13 of the 60
# sweep bases printed 12 ratio, 12 angle-bound and 23 norm lines.
_SKEWED = ["1,0,1000.3,0.001", "1,0,1000.3,0.01"]
_SWEEP = [f"1,0,{k + f!r},{h}" for k in (10, 100, 1000, 10000, 100000)
          for f in (0.3, 0.5, 0.7) for h in ("1", "0.1", "0.01", "0.0001")]


@pytest.mark.parametrize("lattices", [_SKEWED, _SWEEP],
                         ids=["repro", "sweep"])
def test_a_skewed_basis_has_no_violations(capsys, lattices):
    failing = {}
    for lattice in lattices:
        code, doc = run_json(capsys, ["torus", "--lattice", lattice])
        if code or doc["violations"]:
            failing[lattice] = doc["violations"]
    assert failing == {}


@pytest.mark.parametrize("lattice", _SKEWED)
@pytest.mark.parametrize("fault", [
    _ratio_above_k_real, _l2_one_percent_off,
    _scaled(intnorm.flat_torus, "class_length", 1.01)])
def test_a_skewed_basis_still_fails_a_fault(monkeypatch, capsys, fault,
                                            lattice):
    fault(monkeypatch)
    code, doc = run_json(capsys, ["torus", "--lattice", lattice])
    assert code == 1
    assert doc["violations"]
