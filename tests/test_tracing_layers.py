"""The benchmark tracer's layer table names functions that exist."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the tracer only reports a name it cannot find, so a renamed function
    # would silently drop its layer from every trace
    tracing = load_tracing()
    refs = [ref for refs in tracing.LAYERS.values() for ref in refs] + list(tracing.COUNT_ONLY.values())
    assert refs
    for ref in refs:
        home, attr = ref.split(":")
        owner = importlib.import_module(f"doubleline.{home}")
        for name in attr.split("."):
            assert hasattr(owner, name), ref
            owner = getattr(owner, name)
        assert callable(owner), ref
