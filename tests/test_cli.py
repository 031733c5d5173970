"""End-to-end command-line tests, run in process through ``cli.main``.

Each report must carry the fixed top-level shape {command, inputs,
results, violations, timing_ms, version}, exit 0/1/2, and be
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import intnorm
from intnorm.cli import _PROFILE_COLUMNS, _RECORD_COLUMNS, main

TOP_LEVEL_KEYS = {"command", "inputs", "results", "violations",
                  "timing_ms", "version"}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


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
    # about 24.8k primitive classes: one dense table would be 4.9 GB
    script = ("import resource, sys\n"
              "from intnorm.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, resource.getrusage(resource.RUSAGE_SELF)"
              ".ru_maxrss)\n")
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
    with pytest.raises(SystemExit) as exc:
        main(["torus", "--lattice", "1,0,0,1", "--precision", "extended"])
    assert exc.value.code == 2


def test_torus_hexagonal_decimal_basis(capsys):
    code, doc = run_json(capsys, ["torus", "--lattice",
                                  "1,0,0.5,0.8660254", "--cutoff", "10"])
    assert code == 0
    assert doc["results"]["best_ratio"] == pytest.approx(1.154701,
                                                         abs=1e-5)
    assert doc["inputs"]["cutoff"] == 10.0


def test_torus_rejects_degenerate_lattice(capsys):
    code = main(["torus", "--lattice", "1,0,2,0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_torus_has_no_csv_form(capsys):
    code = main(["torus", "--lattice", "1,0,0,1", "--format", "csv"])
    assert code == 2


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


def test_cylinder_arc_pair_past_the_translate_bound_exits_2(tmp_path,
                                                            capsys):
    # core advance 100 is inside the oracle's bound, 2e6 translates are not
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"pairs": [{"arc1": [0.0, 1e6, 1],
                                           "arc2": [5e-5, -1e6, 1]}]}))
    assert main(["cylinder", "--core-length", "1e-4", "--samples", "1",
                 "--arcs-json", str(path)]) == 2
    assert "translates" in capsys.readouterr().err


def test_cylinder_malformed_arc_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"pairs": [{"arc1": [0.1]}]}))
    assert main(["cylinder", "--core-length", "0.2", "--samples", "1",
                 "--arcs-json", str(path)]) == 2
    assert main(["cylinder", "--core-length", "0.2", "--samples", "1",
                 "--arcs-json", str(tmp_path / "missing.json")]) == 2


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


def test_bounds_rejects_grid_reaching_one(capsys):
    assert main(["bounds", "--genus", "2", "--l1-grid", "0.5:2:3"]) == 2


def test_bounds_csv_table(capsys):
    code = main(["bounds", "--genus", "3", "--l1-grid", "1e-3:0.2:5",
                 "--geometric", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(_PROFILE_COLUMNS)
    assert len(lines) == 6


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


def test_verify_unknown_suite_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


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
    ["bounds", "--genus", "2", "--l1-grid", "1e-320:0.5:3",
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
