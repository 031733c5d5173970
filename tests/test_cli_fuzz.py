"""A fuzz test over the argument grammar of the four subcommands.

Each example builds one command line from extreme tokens (nan, +-inf,
+-0, subnormals, values past double range, integers past 64 bits,
rationals, skewed bases, malformed grids and arc files) and runs it
through ``cli.main`` in process.  Sizes stay below the guards: at most
50 samples, at most 200 grid steps, and the default or a small cutoff.

Every command line must end in exit 0, 1 or 2 with no exception, argparse's
refusals included.  Exit 2 prints exactly one error line and nothing else.
A report on stdout is strict JSON: no NaN, no Infinity.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from intnorm.cli import main

# each also passes through argparse's float() or int(), or Fraction()
EXTREMES = ["nan", "-nan", "inf", "-inf", "0", "-0", "0.0", "-0.0",
            "1e-320", "5e-324", "1e308", "-1e308", "1e400", "-1e400",
            "1e150", str(2 ** 63), str(-2 ** 63), str(10 ** 400), "1/3",
            "1/0", "-3/7", "", "x"]
PLAIN = ["1", "-1", "0.5", "2", "0.2", "0.9", "1e-9", "0.8660254037844386"]
# bases: square, hexagonal, skewed, dependent and out of range, among them
# subnormal determinants and an entry whose float underflows
LATTICES = ["1,0,0,1", "1,0,1/2,0.8660254037844386", "1,0,10000.5,1",
            "1,0,1e8,1", "1,0,1/3,1", "1e-3,0,0,1", "-3/7,1,2,1e-9",
            "1e150,0,0,1", "1e-150,0,0,1e-150", "1,2,2,4", "1,0,0",
            "1e150,0,0,1e150", "1e400,0,0,1", "1e-170,0,0,1e-170",
            "1,1e-300,1,0", "1e-160,0,0,1e-160", "1e-155,0,0,1e-155",
            "1,0,0,1e-400"]
CORES = ["0.2", "0.1", "0.01", "0.24", "0.3", "1", "1e-9", "1e-10", "2000"]
CUTOFFS = ["0", "-1", "nan", "inf", "-inf", "1e-320", "1e400", "0.5", "1",
           "3", "1/3"]
INTEGERS = ["0", "1", "2", "3", "-1", str(2 ** 63), str(2 ** 64 - 1),
            str(2 ** 64), str(10 ** 400), "1.5", "nan", "1e3", ""]
SEEDS = ["0", "1", "-1", str(2 ** 64 - 1), str(2 ** 64), str(10 ** 400),
         "1.5", "nan"]


def real(plain=PLAIN):
    """A plain token or an extreme one, about evenly."""
    return st.one_of(st.sampled_from(plain), st.sampled_from(EXTREMES))


ERROR = re.compile(r"intnorm: error: ")


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@st.composite
def lattice(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(LATTICES))
    return ",".join(draw(st.lists(real(), min_size=4, max_size=4)))


@st.composite
def grid(draw):
    ends = real(["1e-9", "0.001", "0.1", "0.5", "0.9", "0.99"])
    steps = st.sampled_from(["1", "2", "3", "50", "200", "0", "-1", "x"])
    if draw(st.integers(0, 9)) == 0:  # malformed
        return draw(st.sampled_from(["1:2", "a:b:c", "0.1:0.5:", "::",
                                     "0.1:0.5:3:4", "0.1:0.5:1e2"]))
    return f"{draw(ends)}:{draw(ends)}:{draw(steps)}"


@st.composite
def arc(draw):
    number = st.one_of(
        st.sampled_from([0.0, 0.03, 0.11, -0.01, 0.5, 2.5, -7.9, 1e308,
                         1e6, 5e-324, float("nan"), float("inf"), 10 ** 400,
                         2 ** 63, True, None, "0.1", 1, -1, 0, 1.0, 2]),
        st.floats(-8.0, 8.0))
    return draw(st.lists(number, min_size=2, max_size=4))


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["torus", "cylinder", "bounds",
                                    "verify"]))
    args = [command]
    if command == "torus":
        args += ["--lattice", draw(lattice())]
        if draw(st.integers(0, 2)) == 0:
            args += ["--cutoff", draw(st.sampled_from(CUTOFFS))]
    elif command == "cylinder":
        args += ["--core-length", draw(real(CORES)),
                 "--samples", draw(st.sampled_from(
                     ["0", "1", "20", "50", "-1", "x", str(10 ** 400)])),
                 "--mode", draw(st.sampled_from(["full", "shrunk"]))]
    elif command == "bounds":
        args += ["--genus", draw(st.one_of(st.sampled_from(["2", "3"]),
                                           st.sampled_from(INTEGERS))),
                 "--l1-grid", draw(grid()),
                 "--precision", draw(st.sampled_from(["double",
                                                      "extended"]))]
        if draw(st.booleans()):
            args.append("--geometric")
    else:
        # the bounds suite runs in milliseconds; the others are refused
        # at the seed, before their work, or given in csv
        args += ["--suite", "bounds"]
    if draw(st.booleans()):
        args += ["--seed", draw(st.one_of(st.just("7"),
                                          st.sampled_from(SEEDS)))]
    if draw(st.integers(0, 4)) == 0:
        args += ["--format", "csv"]
    return args


def _run(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@given(args=argv(), pairs=st.one_of(st.none(), st.lists(
    st.fixed_dictionaries({"arc1": arc(), "arc2": arc()}), max_size=3)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_command_line_exits_0_1_or_2_with_one_error_line(args, pairs):
    path = None
    if pairs is not None and args[0] == "cylinder":
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump({"pairs": pairs}, fh)
        args = args + ["--arcs-json", path]
    try:
        code, out, err = _run(args)
    finally:
        if path is not None:
            os.remove(path)
    assert code in (0, 1, 2), (args, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert ERROR.match(err) and err.count("\n") == 1, (args, err)
    elif "--format" not in args:
        json.loads(out, parse_constant=_refuse_constant)
