"""Every import in the package is used, and every lazy export resolves.

No linter ships with the project, so a deletion can leave an import behind
unnoticed.  This parses each module and requires each name an import binds
to be read in the scope that imports it: the module for a top-level import,
the function for an import inside a function (the CLI imports what each
subcommand runs there).  An import statement carrying ``# noqa: F401`` is
exempt.  The package's ``__init__`` imports no submodule; it maps each
public name to its module, and a misspelled entry would fail only when
first used, so each entry is checked here.
"""
import ast
import importlib
from pathlib import Path

import pytest

import doubleline

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "doubleline"
MODULES = sorted(PACKAGE.glob("*.py"))
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scope_imports(scope):
    """The import statements that bind names in this scope, not in a nested one."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    out = []
    for scope in (node for node in ast.walk(tree) if isinstance(node, SCOPES)):
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for stmt in _scope_imports(scope):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[stmt.lineno - 1: stmt.end_lineno]):
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    out.append((stmt.lineno, bound))
    return [f"line {lineno}: {bound}" for lineno, bound in sorted(out)]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom .geometry import unit, polygon_area\nunit(math.pi)\n") == [
        "line 2: polygon_area"
    ]
    assert unused_imports("from .dl import (  # noqa: F401\n    NETWORK_KEY,\n)\n") == []


def test_the_check_sees_an_unused_import_in_a_function():
    source = (
        "def f():\n"
        "    from .dl import read_record, fix_mode\n"
        "    if True:\n"
        "        from .svg import save_svg\n"
        "    return read_record\n"
        "def g():\n"
        "    return fix_mode\n"
    )
    assert unused_imports(source) == ["line 2: fix_mode", "line 4: save_svg"]
    assert unused_imports("def f():\n    import math\n    return lambda: math.pi\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_lazy_export_names_an_attribute_of_its_module():
    missing = [f"{module}.{name}" for module, names in doubleline._EXPORTS.items()
               for name in names if not hasattr(importlib.import_module(f"doubleline.{module}"), name)]
    assert missing == []
