"""The public surface is what the library and the demos use, and the
benchmark's tracer still finds every function it wraps.

A function in ``intnorm.__all__`` that only the benchmark or the tests
call belongs in its module, not in the package's exports; a function,
class, method or constant that only the tests read is dead code; a
keyword that no caller passes is a mode nobody runs.  A name that
``bench/tracing.py`` traces and the library drops would break
``bench/run.py --trace 1`` without a failing test, and one that it wraps
but no longer reaches would read 0 in every run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import intnorm
from intnorm import suites

ROOT = Path(__file__).resolve().parent.parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _paths(*dirs: str):
    for d in dirs:
        yield from (ROOT / d).rglob("*.py")


def _nodes(*dirs: str):
    for path in _paths(*dirs):
        yield from ast.walk(_tree(path))


def _public_functions() -> list[str]:
    functions = [name for name in intnorm.__all__
                 if inspect.isfunction(getattr(intnorm, name))]
    assert {"run_suites", "best_ratio_search"} <= set(functions)
    return functions


def _reads(*dirs: str) -> dict[str, set[tuple[Path, str | None]]]:
    """Each name read in the files under dirs, as a name or an attribute:
    a call, or a table that callers go through, not an import or a
    string; with the file and the module-level definition, if any, that
    reads it."""
    reads = {}
    for path in _paths(*dirs):
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Name) and type(node.ctx) is ast.Load:
                    name = node.id
                else:
                    continue
                reads.setdefault(name, set()).add(
                    (path, getattr(top, "name", None)))
    return reads


def test_every_public_function_is_used_outside_the_tests():
    # a use is a read in the library or the demos, outside the module
    # that defines the function; the benchmark alone is not
    used = {name: {path for path, _ in where}
            for name, where in _reads("src", "demos").items()}
    home = {name: Path(inspect.getsourcefile(getattr(intnorm, name))).resolve()
            for name in _public_functions()}
    assert [name for name in home
            if not used.get(name, set()) - {home[name]}] == []


def test_every_definition_is_read_outside_itself():
    # a module-level function or class of the library that the library,
    # the demos and the benchmark read only in its own body, if at all,
    # is dead code: the tests alone do not keep it
    reads = _reads("src", "demos", "bench")
    dead = [f"{path.stem}.{top.name}" for path in _paths("src")
            for top in _tree(path).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and not (top.name.startswith("__") and top.name.endswith("__"))
            and not reads.get(top.name, set()) - {(path, top.name)}]
    assert dead == []


def test_every_method_is_read():
    # a method or property of a library class that the library, the demos
    # and the benchmark never read is dead code as well; an override of a
    # base class's method, such as cli._Parser.error, is called by the
    # base class
    reads = _reads("src", "demos", "bench")
    methods = [(path, top, node.name) for path in _paths("src")
               for top in _tree(path).body if isinstance(top, ast.ClassDef)
               for node in top.body if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__")
                        and node.name.endswith("__"))]
    assert {"report", "det", "from_string"} <= {n for _, _, n in methods}

    def overrides(path, top, name):
        cls = getattr(importlib.import_module(f"intnorm.{path.stem}"),
                      top.name)
        return any(hasattr(base, name) for base in cls.__mro__[1:])

    assert [f"{path.stem}.{top.name}.{name}" for path, top, name in methods
            if name not in reads and not overrides(path, top, name)] == []


def test_every_module_constant_is_read():
    # a name assigned at module level in the library that the library,
    # the demos and the benchmark never read is dead code too
    reads = _reads("src", "demos", "bench")
    names = [(path, target.id) for path in _paths("src")
             for top in _tree(path).body
             if isinstance(top, (ast.Assign, ast.AnnAssign))
             for node in (top.targets if isinstance(top, ast.Assign)
                          else [top.target])
             for target in ast.walk(node) if isinstance(target, ast.Name)
             and not (target.id.startswith("__")
                      and target.id.endswith("__"))]
    assert {"ROW_CHUNK", "SEAM", "MAX_TRANSLATES"} <= {n for _, n in names}
    assert [f"{path.stem}.{name}" for path, name in names
            if name not in reads] == []


def test_every_public_keyword_is_passed():
    # (callee, keyword) of every call that passes a keyword by name
    passed = set()
    for node in _nodes("src", "demos", "bench"):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            passed.update((callee, k.arg) for k in node.keywords if k.arg)
    unpassed = [
        f"{name}({p.name}=)" for name in _public_functions()
        for p in inspect.signature(getattr(intnorm, name)).parameters.values()
        if p.kind is p.KEYWORD_ONLY and (name, p.name) not in passed]
    assert unpassed == []


def test_every_traced_name_resolves():
    (traced,) = [ast.literal_eval(node.value)
                 for node in _tree(ROOT / "bench" / "tracing.py").body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["TRACED"]]
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"intnorm.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_the_tracer_times_the_suites_and_puts_every_original_back():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "intnorm" or name.startswith("intnorm.")}
    originals = {(name, attr): value for name, mod in modules.items()
                 for attr, value in vars(mod).items() if callable(value)}
    tables = dict(suites.SUITES)
    plain = suites.run_suites("bounds", 1) + suites.run_suites("torus", 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = (suites.run_suites("bounds", 1)
                  + suites.run_suites("torus", 1))
        seen = {span[0] for span in tracer.take()}
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {"suites.bounds_suite", "suites.torus_suite",
            "bounds.asymptotic_profile",
            "flat_torus.enumerate_classes"} <= seen
    assert suites.SUITES == tables
    assert all(getattr(modules[name], attr) is value
               for (name, attr), value in originals.items())
