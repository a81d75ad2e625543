"""The module graph of the package: which sibling modules each module imports.

The referees of :mod:`quadlsq.oracle` (the exact rational pipeline, the
normal equations, the direct minimax elimination and the monomial check)
reach the paper's numbers by other routes than the triangular pipeline of
:mod:`quadlsq.system`, and they import nothing from it either: a threshold
or helper that the pipeline changes cannot move a referee with it.  The
base modules (``basis``, ``ddouble``, ``errors``) import no sibling, and
``analysis`` imports nothing from ``minimax``.

Each module file except ``__init__`` is read with :mod:`ast`, and every
import of a sibling counts, at module level or inside a function, in any
of the forms ``from .x import y``, ``from . import x``,
``from quadlsq.x import y``, ``from quadlsq import x`` and
``import quadlsq.x``.
"""

import ast
from pathlib import Path

import pytest

import quadlsq

PACKAGE = Path(quadlsq.__file__).parent

_BASE = {"basis", "ddouble", "errors"}

#: The sibling modules each module imports, exactly.
GRAPH = {
    "basis": set(),
    "ddouble": set(),
    "errors": set(),
    "system": _BASE,
    "analysis": {"basis", "errors", "system"},
    "minimax": {"analysis", "system"},
    "oracle": _BASE | {"analysis"},
    "nodes": _BASE,
    "poly": {"basis", "ddouble"},
    "cli": {"analysis", "basis", "errors", "nodes", "system"},
}


def sibling_imports(source, package="quadlsq"):
    """The names of the sibling modules that a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith(package + "."))
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if not parts or parts[0] != package:
                    continue
                parts = parts[1:]
            elif node.level > 1:
                continue
            # ``from . import x`` and ``from quadlsq import x`` name modules
            found.update(parts[:1] or (alias.name for alias in node.names))
    return found


def module_sources(directory):
    """{module name: source} for the package's module files in ``directory``,
    ``__init__`` left out."""
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(Path(directory).glob("*.py")) if path.stem != "__init__"}


def test_the_table_names_every_module():
    assert set(module_sources(PACKAGE)) == set(GRAPH)


@pytest.mark.parametrize("module", sorted(GRAPH))
def test_imports(module):
    assert sibling_imports(module_sources(PACKAGE)[module]) == GRAPH[module]


def test_the_referee_imports_nothing_from_the_pipeline():
    assert "system" not in GRAPH["oracle"]
    assert "minimax" not in GRAPH["analysis"]
    assert all(not GRAPH[base] for base in _BASE)


def test_the_table_has_no_cycle():
    done = set()
    while len(done) < len(GRAPH):
        ready = {m for m in GRAPH if m not in done and GRAPH[m] <= done}
        assert ready, f"an import cycle among {sorted(set(GRAPH) - done)}"
        done |= ready


@pytest.mark.parametrize("source, want", [
    ("from .system import x", {"system"}),
    ("from .system.sub import x", {"system"}),
    ("from . import system, basis", {"system", "basis"}),
    ("from quadlsq.system import x", {"system"}),
    ("from quadlsq import system", {"system"}),
    ("import quadlsq.system", {"system"}),
    ("import quadlsq.system as s, math", {"system"}),
    ("def f():\n    from .system import x\n", {"system"}),
    ("class C:\n    def f(self):\n        import quadlsq.system\n", {"system"}),
    ("if True:\n    from .system import x\n", {"system"}),
    ("import quadlsq", set()),
    ("import quadlsqx.system", set()),
    ("from quadlsqx.system import x", set()),
    ("from .. import system", set()),
    ("import math\nfrom functools import partial", set()),
])
def test_sibling_imports_reads_every_form(source, want):
    assert sibling_imports(source) == want
