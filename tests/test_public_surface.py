"""The public surface is what the library, the demos and the benchmark
use, and the benchmark's tracer still finds every function it wraps.

A function in ``intnorm.__all__`` that only tests call belongs beside
those tests; a name that ``bench/tracing.py`` traces and the library
drops would break ``bench/run.py --trace 1`` without a failing test.
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


def test_every_public_function_is_used_outside_the_tests():
    # a use is a name or attribute read: a call, or a table such as
    # suites.SUITES that callers go through; imports and strings are not
    used = set()
    for d in ("src", "demos", "bench"):
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    functions = [name for name in intnorm.__all__
                 if inspect.isfunction(getattr(intnorm, name))]
    assert len(functions) > 30
    assert [name for name in functions if name not in used] == []


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
