"""Every module of the package uses each name it imports and defines
each name it exports.

An import kept for something outside the module (a tool that looks the
name up there) must say so on its line: ``# noqa: F401`` followed by the
reason.  ``__init__.py`` is exempt, since re-exporting is its job.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dyadlab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
NOQA = re.compile(r"#\s*noqa:\s*F401\b\s*(\S.*)?$")


def unused_imports(source: str) -> list[str]:
    """Imported names the module never reads, except exempted lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used:
                continue
            exempt = [NOQA.search(lines[i - 1]) for i in {node.lineno, alias.lineno}]
            if not any(m and m.group(1) for m in exempt):
                unused.append(f"line {alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_defines_every_export(module):
    # a deleted function whose name stays in __all__ breaks `import *` only
    mod = importlib.import_module(f"dyadlab.{module[:-3]}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_checker_flags_unused_and_honours_reasoned_noqa():
    src = (
        "import json\n"
        "import numpy as np\n"
        "from fractions import Fraction  # noqa: F401\n"
        "from .haar import (  # noqa: F401  looked up here by a tracer\n"
        "    analyze,\n"
        "    haar_coefficient,\n"
        ")\n"
        "def f(g):\n"
        "    return np.zeros(analyze(g))\n"
    )
    assert unused_imports(src) == ["line 1: json", "line 3: Fraction"]


def test_benchmark_tracer_finds_every_name_it_wraps():
    # bench/tracer.py wraps package functions by name; deleting or renaming
    # one must fail here, not only in the benchmark's own tests
    from dyadlab import haar

    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "bench"))
    analyze = haar.analyze
    tracer = Tracer()
    try:
        tracer.enable()
        assert haar.analyze is not analyze
    finally:
        tracer.disable()
    assert haar.analyze is analyze
