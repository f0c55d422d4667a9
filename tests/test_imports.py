"""Every module-level import of the package is used.

A deleted function can leave its imports behind; this walks each module's
syntax tree, so it needs no linter installed.  Exempt: `__future__`
imports, names listed in `__all__`, and imports marked `# noqa: F401` (the
names the benchmark tracer wraps in a module's namespace).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lorentzroots

MODULES = sorted(Path(lorentzroots.__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each module-level import that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {e.value for e in node.value.elts}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported:
                out.append((node.lineno, name))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .lattice import Lattice, gram_matrix, norm\n"
              "from .lattice import pair  # noqa: F401\n"
              "from .errors import DomainError\n"
              "__all__ = ['DomainError']\n"
              "def f(lat: Lattice, x):\n"
              "    return norm(lat, x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "gram_matrix")]


# Standard modules the package needs anyway; Python 3.10 to 3.13 start without
# most of them under -S, where `site` preloads nothing.
_NEEDED = ("__future__, argparse, json, fractions, heapq, re, math, functools, itertools, "
           "operator, enum, importlib")


def test_importing_the_cli_loads_no_other_module():
    # dataclasses (which loads inspect), typing or importlib.resources would
    # cost a CLI run more than its computation
    code = (f"import sys, {_NEEDED}; before = set(sys.modules); import lorentzroots.cli; "
            "print(sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(lorentzroots.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    added = ast.literal_eval(out)
    assert "lorentzroots.cli" in added
    assert [m for m in added if m.split(".")[0] != "lorentzroots"] == []
