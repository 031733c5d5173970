"""The process entry ``cli.run``, run in fresh interpreters.

``python -m intnorm`` and the ``intnorm`` console script end the process
through ``os._exit`` once the report is written.  Each case must leave
the exit status, and the stdout bytes or the written file, that
``cli.main`` leaves in process.
"""

from __future__ import annotations

import inspect
import pathlib
import re
import subprocess
import sys

import pytest

import intnorm
import intnorm.flat_torus
from intnorm.cli import main
from test_faults import _scaled

ROOT = pathlib.Path(__file__).resolve().parents[1]

# k_real one percent high, then the entry: verify fails ratio_value
K_REAL_FAULT = """
import sys
import intnorm.cli
import intnorm.flat_torus as torus
real = torus.k_real
torus.k_real = lambda *args: 1.01 * real(*args)
intnorm.cli.run(sys.argv[1:])
"""


def in_process(capsys, argv) -> tuple[int, bytes, str]:
    """(exit status, stdout bytes, stderr) of ``main(argv)``."""
    try:
        status = main(argv)
    except SystemExit as exc:  # --help and --version
        status = exc.code
    out, err = capsys.readouterr()
    return status, out.encode(), err


@pytest.mark.parametrize("argv, fault, status", [
    (["verify", "--suite", "bounds", "--seed", "1"], False, 0),
    (["verify", "--suite", "torus"], True, 1),
    (["torus", "--lattice", "1,0,0"], False, 2),
    (["cylinder", "--core-length", "0.2", "--samples", "50", "--format",
      "csv"], False, 0),
    (["--help"], False, 0),
    (["verify", "--help"], False, 0),
    (["--version"], False, 0),
])
def test_the_entry_exits_as_main_returns(monkeypatch, capsys, argv, fault,
                                         status):
    # argparse wraps --help to the width of the terminal
    monkeypatch.setenv("COLUMNS", "80")
    entry = ["-c", K_REAL_FAULT] if fault else ["-m", "intnorm"]
    proc = subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True)
    if fault:
        _scaled(intnorm.flat_torus, "k_real", 1.01)(monkeypatch)
    main_status, main_out, main_err = in_process(capsys, argv)
    assert (main_status, main_out) == (status, proc.stdout)
    assert proc.returncode == status
    err = proc.stderr.decode()
    if status == 2 or argv[-1] in ("--help", "--version"):
        assert err == main_err
    else:  # the timing line, whose time differs
        assert re.fullmatch(rf"# intnorm {argv[0]}: \d+\.\d ms\n", err)


def test_the_entry_writes_the_output_file_of_main(tmp_path, capsys):
    argv = ["verify", "--suite", "bounds", "--seed", "1", "--output"]
    proc = subprocess.run(
        [sys.executable, "-m", "intnorm", *argv, str(tmp_path / "a.json")],
        capture_output=True)
    assert main(argv + [str(tmp_path / "b.json")]) == 0
    assert capsys.readouterr().out == ""
    assert proc.returncode == 0
    assert proc.stdout == b""
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("argv, status", [
    (["verify", "--suite", "bounds", "--seed", "1"], 0),
    (["torus", "--lattice", "1,0,0"], 2),
])
def test_a_closed_stderr_keeps_the_exit_status(capsys, argv, status):
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m intnorm "$@" 2>&-', sys.executable,
         *argv], stdout=subprocess.PIPE)
    assert proc.returncode == status
    assert proc.stdout == in_process(capsys, argv)[1]


def test_a_stdout_closed_before_the_start_exits_2_with_one_error_line():
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m intnorm torus --lattice 1,0,0,1 >&-',
         sys.executable], stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr == b"intnorm: error: standard output was closed\n"


@pytest.mark.parametrize("module", ["intnorm", "intnorm.cli"])
def test_import_leaves_out_what_only_some_commands_use(module):
    """mpmath serves the extended precision only, fractions (which loads
    decimal) exact lattices only, csv the CSV reports only."""
    script = (f"import sys, {module}; print(sorted(sys.modules.keys() & "
              "{'mpmath', 'fractions', 'decimal', 'csv'}))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--seed", "1"],
    ["torus", "--lattice", "1,0,0,1"],
    ["cylinder", "--core-length", "0.2", "--samples", "10"],
    ["bounds", "--genus", "2", "--l1-grid", "1e-4:0.25:5"],
])
def test_a_command_in_double_precision_leaves_out_mpmath(argv):
    """verify compares the bounds with literal 60-digit values, so no
    command loads mpmath short of ``bounds --precision extended``."""
    script = ("import sys, intnorm.cli; status = intnorm.cli.main("
              "sys.argv[1:]); print(status, 'mpmath' in sys.modules, "
              "file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, check=True)
    assert proc.stderr.splitlines()[-1] == "0 False"


# the intnorm modules that a first use of the package loads: none for the
# package itself, then a name's home module and the modules it imports
@pytest.mark.parametrize("statement, modules", [
    ("import intnorm", set()),
    ("from intnorm import Lattice", {"errors", "flat_torus"}),
    ("from intnorm import hyperbolic_bounds", {"bounds", "errors",
                                               "hyptrig"}),
    ("from intnorm import count_crossings_cyl", {"cylinder", "errors",
                                                 "flat_torus", "hyptrig"}),
    ("from intnorm import named_stream", {"errors", "seeding"}),
    ("from intnorm import DomainError", {"errors"}),
    ("import intnorm; intnorm.cylinder", {"cylinder", "errors",
                                          "flat_torus", "hyptrig"}),
    ("from intnorm import run_suites", {"bounds", "cylinder", "errors",
                                        "flat_torus", "hyptrig", "seeding",
                                        "suites"}),
])
def test_a_name_loads_only_its_home_module_and_what_that_imports(statement,
                                                                 modules):
    script = (f"import sys; {statement}; print(sorted(m for m in "
              "sys.modules if m.startswith('intnorm.')), "
              "'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    loaded = sorted(f"intnorm.{m}" for m in modules)
    # errors is the one module that needs no numpy
    assert proc.stdout == f"{loaded} {bool(modules - {'errors'})}\n"


def test_dir_lists_every_name_and_submodule_before_any_is_loaded():
    script = ("import sys, intnorm; listed = dir(intnorm); print(sorted("
              "m for m in sys.modules if m.startswith('intnorm.')), "
              "set(intnorm.__all__ + list(intnorm._EXPORTS)) <= set(listed),"
              " 'cylinder' in listed)")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[] True True\n"


def test_the_star_import_binds_every_name_to_its_home_object():
    namespace = {}
    exec("from intnorm import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == len(intnorm.__all__) == 52
    assert sorted(namespace) == intnorm.__all__
    assert set(intnorm.__all__) <= set(dir(intnorm))
    for name, value in namespace.items():
        home = sys.modules[f"intnorm.{intnorm._HOME[name]}"]
        assert value is getattr(home, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        intnorm.no_such_name  # noqa: B018
    assert getattr(intnorm, "no_such_name", None) is None
    assert intnorm.cylinder is sys.modules["intnorm.cylinder"]


def test_the_console_script_is_the_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"intnorm": "intnorm.cli:run"}
