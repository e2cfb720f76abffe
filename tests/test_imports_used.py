"""Every module-level import in the package is used, or marked as a re-export.

No linter ships with the project, so a deletion can leave an import behind
unnoticed.  This parses each module (``__init__`` re-exports by design) and
requires each name a top-level import binds to be read somewhere in the
module, unless the import statement carries ``# noqa: F401``.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "doubleline"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[stmt.lineno - 1: stmt.end_lineno]):
            continue
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                out.append(f"line {stmt.lineno}: {bound}")
    return out


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom .geometry import unit, polygon_area\nunit(math.pi)\n") == [
        "line 2: polygon_area"
    ]
    assert unused_imports("from .dl import (  # noqa: F401\n    NETWORK_KEY,\n)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
