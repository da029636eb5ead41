"""Guards for the tooling that reaches into the package from outside."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve(monkeypatch):
    # perfbench/tracer.py wraps package attributes by dotted path; a renamed
    # or deleted target would only fail once a traced benchmark run starts
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, path, _ in tracer.TARGETS:
        module, *attrs = path.split(".")
        owner = importlib.import_module(f"leaklab.{module}")
        for attr in attrs:
            assert hasattr(owner, attr), f"{name}: leaklab.{path} does not exist"
            owner = getattr(owner, attr)
        assert callable(owner), f"{name}: leaklab.{path} is not callable"


def test_all_exports_resolve():
    # every name a leaklab module exports must exist, so deleting an API
    # leaves no stale __all__ entry behind
    package = Path(importlib.import_module("leaklab").__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert "leakage" in modules
    for name in modules:
        module = importlib.import_module(f"leaklab.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"leaklab.{name}.__all__ names missing {attr!r}"
