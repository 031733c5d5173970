"""The public surface is what the library and the demos use, and the
benchmark's tracer still finds every function it wraps.

A function in ``intnorm.__all__`` that only the benchmark or the tests
call belongs in its module, not in the package's exports; a keyword that
no caller passes is a mode nobody runs.  A name that ``bench/tracing.py``
traces and the library drops would break ``bench/run.py --trace 1``
without a failing test.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import intnorm

ROOT = Path(__file__).resolve().parent.parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _nodes(*dirs: str):
    for d in dirs:
        for path in (ROOT / d).rglob("*.py"):
            yield from ast.walk(_tree(path))


def _public_functions() -> list[str]:
    functions = [name for name in intnorm.__all__
                 if inspect.isfunction(getattr(intnorm, name))]
    assert len(functions) > 30
    return functions


def test_every_public_function_is_used_outside_the_tests():
    # a use is a name or attribute read in the library or the demos: a
    # call, or a table such as suites.SUITES that callers go through;
    # imports and strings are not, and the benchmark alone is not
    used = set()
    for node in _nodes("src", "demos"):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert [name for name in _public_functions() if name not in used] == []


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
