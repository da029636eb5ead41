"""Guards for the tooling that reaches into the package from outside."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import leaklab

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(leaklab.__file__).resolve().parents[1]


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


TRACED_SOLVE = """
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
names = ("adversary", "analysis", "cli", "codec", "crypto", "galois", "leakage",
         "probability", "simplexopt")
modules = {name: importlib.import_module("leaklab." + name) for name in names}
tracer = tracer_module.Tracer()
tracer.install(modules)
prob = modules["probability"]
p_kz = prob.joint_from_channel(prob.Pmf.uniform(2), prob.ChannelMatrix.bsc(0.1))
modules["analysis"].r_mu(p_kz, 0.4, opts=modules["simplexopt"].SolverOptions(dense_points=5))
print(json.dumps(tracer.metrics()))
"""


def test_tracer_hooks_the_minimizer():
    # the tracer rewraps the objective passed to simplexopt.minimize_blocks
    # as its first argument; a signature change would otherwise show only
    # in a traced benchmark run.  Installing patches the package, so it runs
    # in a child process.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_SOLVE, str(TRACER)],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout)
    assert metrics["simplexopt.objective.points"] > 0
    assert metrics["simplexopt.objective.calls"] > 0
    assert metrics["simplexopt.dense.calls"] == 1
    assert metrics["simplexopt.adam.calls"] == 0
