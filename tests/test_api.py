"""The public API is each module's __all__, and the benchmark tracer's names resolve."""

import importlib.util
import inspect
from pathlib import Path

import sepkit as sk

MODULES = ("criterion", "decompose", "linalg", "pairs", "search", "states")


def test_package_exports_exactly_the_module_apis():
    """sepkit re-exports each module's __all__ and, besides its submodules,
    nothing else public."""
    declared = {name for mod in MODULES for name in getattr(sk, mod).__all__}
    public = {name for name in dir(sk)
              if not name.startswith("_") and not inspect.ismodule(getattr(sk, name))}
    assert public == declared
    for mod in MODULES:
        for name in getattr(sk, mod).__all__:
            assert getattr(sk, name) is getattr(getattr(sk, mod), name)


def test_traced_names_resolve():
    """Every (module, attribute) the benchmark tracer wraps exists, so removing
    one fails here and not only in a traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for mod, attr, _label, _folded in tracing.WRAPPED:
        assert callable(getattr(getattr(sk, mod), attr)), (mod, attr)
