"""The benchmark workloads use only names and keywords the package has.

The workloads look program functions up at call time, so a removed name or
parameter would otherwise show only as a failed benchmark run.  The file
is parsed, not imported.
"""
import ast
import importlib
import inspect
from pathlib import Path

import doubleline

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _resolve(node):
    """The package object an attribute chain on `dl`, `pkg()` or `mod("...")` names, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not names:
        return None
    if isinstance(node, ast.Name) and node.id == "dl":
        owner = doubleline
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pkg":
        owner = doubleline
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "mod":
        owner = importlib.import_module(f"doubleline.{node.args[0].value}")
    else:
        return None
    path = owner.__name__
    for name in reversed(names):
        path += f".{name}"
        assert hasattr(owner, name), f"{path} (workloads.py line {node.lineno}) does not exist"
        owner = getattr(owner, name)
    return owner


def test_workloads_use_existing_names_and_keywords():
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    names = calls = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _resolve(node) is not None:
            names += 1
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        target = _resolve(node.func)
        if target is None:
            continue
        calls += 1
        params = inspect.signature(target).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for kw in node.keywords:
            if kw.arg is not None:
                assert kw.arg in params, f"{target.__qualname__} takes no keyword {kw.arg!r} (line {node.lineno})"
    assert names >= 30 and calls >= 20
