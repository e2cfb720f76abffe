"""Every import in the package is used, every constant and private helper is read, and every lazy export resolves.

No linter ships with the project, so a deletion can leave an import behind
unnoticed.  This parses each module and requires each name an import binds
to be read in the scope that imports it: the module for a top-level import,
the function for an import inside a function (the CLI imports what each
subcommand runs there).  An import statement carrying ``# noqa: F401`` is
exempt.  Likewise every module-level UPPER_CASE constant must be read
somewhere in the package, and every top-level ``_private`` function
somewhere outside its own body: what only tests or nothing reads is dead.
The package's ``__init__`` imports no submodule; it maps each public name
to its module, and a misspelled entry would fail only when first used, so
each entry is checked here.
"""
import ast
import importlib
import re
from collections import Counter
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


def _reads(node) -> Counter:
    """How often each name is read under a node, as a bare name or as an attribute."""
    return Counter([n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
                   + [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)])


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE constants that no module reads, and top-level _private functions
    that nothing reads outside their own body, as "module.name"."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = sum((_reads(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [f"{module}.{n.id}" for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", n.id) and not read[n.id]]
            elif isinstance(node, ast.FunctionDef) and re.fullmatch(r"_[^_].*", node.name):
                if read[node.name] == _reads(node)[node.name]:
                    out.append(f"{module}.{node.name}")
    return out


def test_the_check_sees_an_unread_constant_and_private_function():
    sources = {
        "a": "TOL = 1e-9\nDEAD = 1\n_x: int = 0\ndef _used():\n    return TOL\ndef _dead(n):\n    return _dead(n - 1)\n",
        "b": "from . import a\ndef f():\n    return a._used()\n",
    }
    assert unread_definitions(sources) == ["a.DEAD", "a._dead"]


def test_every_constant_and_private_function_is_read():
    assert unread_definitions({path.stem: path.read_text() for path in MODULES}) == []


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
