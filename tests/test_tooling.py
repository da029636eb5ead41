"""Guards for the tooling that reaches into the package from outside."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import leaklab
from leaklab import (
    adversary, analysis, cli, codec, crypto, galois, leakage, probability, simplexopt,
)
from leaklab.adversary import TableEncoder, adversary_joint, scalar_quantizer_encoder
from leaklab.codec import UniversalCode, build_universal_code
from leaklab.crypto import Cryptosystem, check_structural_properties
from leaklab.galois import FieldSpec, random_affine
from leaklab.leakage import build_gamma_kernel
from leaklab.probability import (
    ChannelMatrix,
    Pmf,
    TableCapError,
    all_sequences,
    joint_from_channel,
    product_law,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
README = Path(__file__).resolve().parents[1] / "README.md"
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
analysis, prob, simplexopt = modules["analysis"], modules["probability"], modules["simplexopt"]
traced_minimize = analysis.minimize_blocks
received = []  # the number of values each objective call returned


def counting_minimize(f, shapes, params):
    def counted(blocks, rows):
        values = f(blocks, rows)
        received.append(len(values))
        return values

    return traced_minimize(counted, shapes, params)


analysis.minimize_blocks = counting_minimize
if sys.argv[2] == "dense":
    # three binary levels in one many-problem dense solve, whose 5 x 5
    # global meshes share one call
    p_kz = prob.joint_from_channel(prob.Pmf.uniform(2), prob.ChannelMatrix.bsc(0.1))
    simplexopt.DENSE_POINTS = 5
    analysis._r_mu_levels(p_kz, [0.0, 0.4, 1.0])
else:
    # three ternary levels in one many-problem Adam solve
    w = prob.ChannelMatrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    p_kz = prob.joint_from_channel(prob.Pmf([0.4, 0.35, 0.25]), w)
    simplexopt.N_STARTS, simplexopt.ADAM_ITERS = 8, 5
    analysis._r_mu_levels(p_kz, [0.0, 0.25, 1.0])
print(json.dumps({"metrics": tracer.metrics(), "received": received}))
"""


def test_tracer_hooks_the_minimizer():
    # the tracer rewraps the objective passed to simplexopt.minimize_blocks
    # as its first argument and counts the points of each call; a signature
    # or layout change would otherwise show only in a traced benchmark run.
    # Installing patches the package, so each case runs in a child process.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for case, dense_calls, adam_calls in (("dense", 1, 0), ("adam", 0, 1)):
        proc = subprocess.run(
            [sys.executable, "-B", "-c", TRACED_SOLVE, str(TRACER), case],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout)
        metrics, received = out["metrics"], out["received"]
        assert received, case
        assert metrics["simplexopt.objective.points"] == sum(received), case
        assert metrics["simplexopt.objective.calls"] == len(received), case
        assert metrics["simplexopt.dense.calls"] == dense_calls, case
        assert metrics["simplexopt.adam.calls"] == adam_calls, case
        if case == "dense":
            assert received[0] == 3 * 5**2  # one call spans the three problems
    # Adam for 3 problems of 8 starts and 5 iterations: a 24-row base call,
    # then per iteration one call of 3 * 9 * 8 bumped rows and one of 24
    assert received == [24] + [216, 24] * 5


TRACED_ORACLE = """
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
names = ("adversary", "analysis", "cli", "codec", "crypto", "galois", "leakage",
         "probability", "simplexopt")
modules = {name: importlib.import_module("leaklab." + name) for name in names}
tracer = tracer_module.Tracer()
tracer.install(modules)
codec, galois, prob = modules["codec"], modules["galois"], modules["probability"]
code = codec.build_universal_code(4, 0.5, 2)
system = modules["crypto"].Cryptosystem(code, galois.random_affine(4, code.m, galois.FieldSpec(2), 0))
p_kz = prob.joint_from_channel(prob.Pmf.uniform(2), prob.ChannelMatrix.bsc(0.1))
encoder = modules["adversary"].scalar_quantizer_encoder([0, 1], 4)
modules["leakage"].build_gamma_kernel(system, encoder, p_kz)
print(json.dumps(tracer.metrics()))
"""


def test_tracer_reads_the_oracle_kernel():
    # the tracer's kernel-bytes hook reads the fields of the oracle kernel,
    # which no benchmark workload builds; a renamed field would otherwise
    # show only in a traced run that calls the oracle
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_ORACLE, str(TRACER)],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout)
    assert metrics["leakage.build_gamma_kernel.calls"] == 1
    assert metrics["leakage.kernel.bytes"] > 0


STRUCTURAL_SUITE = """
import sys
from leaklab.codec import build_universal_code
from leaklab.crypto import Cryptosystem, check_structural_properties
from leaklab.galois import FieldSpec, random_affine
code = build_universal_code(6, 0.45, 2)
system = Cryptosystem(code, random_affine(6, code.m, FieldSpec(2), 0))
before = "numpy.ma" in sys.modules
report = check_structural_properties(system)
print(before, report.passed, "numpy.ma" in sys.modules)
"""


def test_structural_suite_does_not_import_masked_arrays():
    # a sort-based np.unique imports numpy.ma on its first call, about 9 ms
    # per process; the structural suite counts with np.bincount instead
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", STRUCTURAL_SUITE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    before, passed, after = proc.stdout.split()
    if before == "True":
        pytest.skip("numpy.ma was imported before the structural suite ran")
    assert passed == "True"
    assert after == "False"


def test_key_image_sweep_ranks_no_table_per_image(monkeypatch):
    # the structural suite encodes the code's own X^n table once per key
    # image; that is one gather, so the number of rankings must not grow
    # with the 2^m key images
    calls = []
    ranking = UniversalCode._sequence_index

    def counted(self, x):
        calls.append(np.shape(x))
        return ranking(self, x)

    monkeypatch.setattr(UniversalCode, "_sequence_index", counted)
    counts = {}
    for n in (6, 8):
        code = build_universal_code(n, 0.45, 2)  # m = 3, then 5
        calls.clear()
        system = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), 0))
        assert system.validation == "exhaustive"
        report = check_structural_properties(system)
        assert report.passed and report.mode == "exhaustive"
        counts[code.m] = len(calls)
    assert set(counts) == {3, 5}
    assert counts[3] == counts[5] > 0


def _schema_rows(schema, prefix=""):
    """(key, kind, range, default) of each leaf key of a config schema, as
    the README's key table shows them once backticks are dropped."""
    for key, entry in schema.items():
        if isinstance(entry, dict):
            yield from _schema_rows(entry, f"{prefix}{key}.")
            continue
        kind, default = entry
        if isinstance(kind, tuple):  # a choice
            kind_text = "boolean" if isinstance(kind[0], bool) else "string"
            range_text = ", ".join(json.dumps(option) for option in kind)
        else:
            kind_text, range_text = kind.kind, kind.range
        # a string default of a number is worked out from other keys
        derived = isinstance(default, str) and not isinstance(kind, tuple)
        yield prefix + key, kind_text, range_text, default if derived else json.dumps(default)


def _readme_rows(text: str) -> list:
    lines = text.splitlines()
    start = lines.index("| key | kind | range | default |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = re.split(r"(?<!\\)\|", line)[1:-1]
        rows.append(tuple(c.strip().replace("`", "").replace("\\|", "|") for c in cells))
    return rows


def test_readme_key_table_matches_schema():
    # the README lists every config key of cli.SCHEMA, in order, with its
    # kind, range and default, and no other key
    text = README.read_text()
    want = list(_schema_rows(cli.SCHEMA))
    assert len(want) == 28
    assert _readme_rows(text) == want
    # a copy of the README with one row dropped fails the check
    row = next(line for line in text.splitlines() if line.startswith("| `R_A` |"))
    assert _readme_rows(text.replace(row + "\n", "")) != want


def _package_functions():
    """(dotted name, function) of every function and method that a leaklab
    module defines."""
    package = Path(leaklab.__file__).parent
    for stem in sorted(p.stem for p in package.glob("*.py")):
        module = importlib.import_module("leaklab" if stem == "__init__" else f"leaklab.{stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if isinstance(obj, type) else [("", obj)]
            for attr, member in members:
                member = getattr(member, "__func__", member)  # class and static methods
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}{'.' * bool(attr)}{attr}", member


def test_one_table_cap_refuses_every_table(tmp_path, monkeypatch):
    # every table is checked against the one constant, read at call time
    system = Cryptosystem(build_universal_code(4, 0.5, 2), random_affine(4, 2, FieldSpec(2), 0))
    p_kz = joint_from_channel(Pmf.uniform(2), ChannelMatrix.bsc(0.1))
    config = dict(q=2, source={"probs": [0.9, 0.1]}, key={"probs": [0.5, 0.5]},
                  W={"rows": [[0.9, 0.1], [0.1, 0.9]]}, n_list=[4], R=0.5,
                  monte_carlo_samples=2, exponents=False)
    (tmp_path / "c.json").write_text(json.dumps(config))
    experiment = cli.Experiment(config)
    table_encoder = TableEncoder(np.arange(16) % 3, 4, 2)
    # n=3, m=1 for the dense stream's |M_A| vectors and block table
    small = Cryptosystem(build_universal_code(3, 0.3, 2), random_affine(3, 1, FieldSpec(2), 0))
    erasure = joint_from_channel(Pmf.uniform(2), ChannelMatrix([[0.8, 0.2, 0], [0, 0.2, 0.8]]))
    monkeypatch.setattr(probability, "TABLE_CAP", 15)
    refusals = [
        ("q^n * n = 2^6", lambda: all_sequences(4, 2)),
        ("q^n = 2^4", lambda: product_law(Pmf.uniform(2), 4)),
        ("q^n * n = 2^6", lambda: UniversalCode(4, 2, 2).full_tables()),
        ("q^n * |Z|^n = 2^8", lambda: adversary_joint(table_encoder, p_kz)),
        ("q^n * q^m = 2^6", lambda: build_gamma_kernel(
            system, scalar_quantizer_encoder([0, 1], 4), p_kz
        )),
        ("|M_A| = 27", lambda: leakage.build_dense_stream(
            small, scalar_quantizer_encoder([0, 1, 2], 3), erasure
        )),
        ("n * q * q^m = 2^5", lambda: leakage.build_dense_stream(
            system, scalar_quantizer_encoder([0, 0], 4), p_kz
        )),
        ("q^m * messages per block = 2^4", lambda: leakage.build_dense_stream(
            small, scalar_quantizer_encoder([0, 1], 3), p_kz
        )),
        ("monte_carlo_samples * 2 * n = 2^4", lambda: cli.cmd_simulate(
            experiment, tmp_path / "o", tmp_path / "c.json"
        )),
    ]
    for message, call in refusals:
        want = f"{message} entries exceed the table cap 15"
        with pytest.raises(TableCapError, match=re.escape(want)):
            call()
    assert not (tmp_path / "o").exists()
    # no callable carries a cap of its own
    functions = dict(_package_functions())
    assert "leaklab.codec.UniversalCode.full_tables" in functions
    for name, function in functions.items():
        params = set(inspect.signature(function).parameters)
        assert not params & {"cap", "table_cap"}, name


# The keyword options that only tests ever set, by the callable that took
# them; each is now a module constant that tests patch.
REMOVED_OPTIONS = {
    "simplexopt.minimize_blocks": {"opts"},
    "analysis.r_mu": {"u_size", "opts"},
    "analysis._r_mu_levels": {"u_size", "opts"},
    "analysis.ExponentCalculator.__init__": {"opts"},
    "analysis.region_membership": {"band"},
    "crypto.Cryptosystem.__init__": {"validation", "sample_pairs", "seed"},
    "crypto.check_structural_properties": {"max_exhaustive_pairs", "sample_keys", "seed"},
    "leakage.structural_checks": {"in_decoding_set", "tol"},
    "adversary.best_scalar_quantizer": {"max_obs"},
    "probability.Pmf.__init__": {"renormalize"},
    "probability.ChannelMatrix.__init__": {"renormalize"},
}


def test_options_that_only_tests_set_stay_constants():
    # an option needs two callers besides the tests that want different
    # values; none of these had one, so none may come back
    functions = dict(_package_functions())
    for name, removed in REMOVED_OPTIONS.items():
        params = set(inspect.signature(functions[f"leaklab.{name}"]).parameters)
        assert not params & removed, (name, params & removed)
    assert not hasattr(simplexopt, "SolverOptions")
    assert not hasattr(Cryptosystem, "from_json")
    # the decoder fixture lives in the tests, not in the config schema
    assert "mutation" not in cli.SCHEMA
    assert not hasattr(cli, "_MutatedDecoderCode")


def test_cli_owns_every_output_format(monkeypatch):
    # the compute modules return numbers; cli holds the one number format,
    # the leakage.csv schema and the build-code descriptor
    uses = {p.name: p.read_text().count('".12g"') for p in (SRC / "leaklab").glob("*.py")}
    assert {name: k for name, k in uses.items() if k} == {"cli.py": 1}
    for name in ("csv_row", "CSV_HEADER", "_fmt"):
        assert not hasattr(leakage, name) and not hasattr(leakage.LeakageReport, name), name
    assert not hasattr(codec.UniversalCode, "to_json")
    assert list(inspect.signature(leakage.leakage_report).parameters) == [
        "sys", "encoder", "p_kz", "p_x"
    ]
    # main looks its handler up at call time, so a wrapper set on the module runs
    ran = []
    monkeypatch.setattr(cli, "cmd_leakage", lambda *args: ran.append(args) or cli.EXIT_OK)
    monkeypatch.setattr(cli, "load_config", lambda path: {
        "q": 2, "source": {"probs": [0.9, 0.1]}, "key": {"probs": [0.5, 0.5]},
        "W": {"rows": [[0.9, 0.1], [0.1, 0.9]]}, "n_list": [4], "R": 0.5,
    })
    assert cli.main(["leakage", "--config", "unread.json"]) == cli.EXIT_OK
    assert len(ran) == 1 and isinstance(ran[0][0], cli.Experiment)


def test_only_the_code_and_the_oracle_read_the_sequence_tables():
    # the leakage pipeline reads X^n only through the code's q^m vectors;
    # outside codec, only the oracle kernel builds the X^n tables
    oracle = inspect.getsource(leakage.build_gamma_kernel)
    assert oracle.count("full_tables(") == 1
    uses = {p.name: p.read_text().count("full_tables(") for p in (SRC / "leaklab").glob("*.py")}
    assert uses.pop("codec.py") > 0
    assert {name: k for name, k in uses.items() if k} == {"leakage.py": 1}
    for name in ("_plaintext_vector", "DeltaMaxResult"):
        assert not hasattr(leakage, name), name
    assert not hasattr(leakage._Kernel, "lex_of_image")


def test_one_implementation_per_computation():
    # the masked-key fold, the Z_q^m pass, the posterior normalization and
    # the exponent supremum each have one implementation, and the second
    # evaluator of the i.i.d. law and the unused Pmf methods stay deleted
    assert "tensordot" not in (SRC / "leaklab" / "leakage.py").read_text()
    translation = inspect.getsource(leakage.build_translation_kernel)
    assert "_key_image_message_blocks(" in translation
    for normalized in (leakage._prefix_posteriors, leakage._table_posterior):
        source = inspect.getsource(normalized)
        assert "_posterior_rows(" in source and "/=" not in source, normalized.__name__
    for exponent in (analysis.ExponentCalculator.F, analysis.ExponentCalculator.F_lower):
        tree = ast.parse(textwrap.dedent(inspect.getsource(exponent)))
        loops = (ast.For, ast.While, ast.comprehension)
        assert not any(isinstance(node, loops) for node in ast.walk(tree)), exponent.__name__
    for name in ("ProductDistribution", "product_distribution"):
        assert not hasattr(probability, name), name
    for name in ("__len__", "__getitem__"):
        assert name not in vars(Pmf), name
    assert not hasattr(simplexopt, "_max_rows")


def test_exponent_cells_are_read_through_one_fill():
    # the suprema scan each grid round as one array that _fill returns, the
    # one-cell reads are reads of _fill, and the per-cell key helpers and
    # the renamed copy of the R_mu levels stay deleted
    calc = analysis.ExponentCalculator
    for name in ("_omega_key", "_omega_tilde_key"):
        assert not hasattr(calc, name), name
    assert not hasattr(analysis, "BoundaryPoint")
    assert "lookup" not in inspect.signature(calc._sup).parameters
    tree = ast.parse(textwrap.dedent(inspect.getsource(calc._sup)))
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    assert len(loops) == 1 and "refine_rounds" in ast.unparse(loops[0].iter)
    comprehensions = [node for node in ast.walk(tree) if isinstance(node, ast.comprehension)]
    assert all(isinstance(node.iter, ast.Tuple) for node in comprehensions)  # (mus, seconds)
    for method in (calc._sup, calc.omega_min, calc.omega_tilde_min):
        assert "self._fill(" in inspect.getsource(method), method.__name__


def test_test_only_api_stays_out_of_the_package():
    # callables that only tests called are helpers in tests/helpers.py or
    # gone, and the result fields that nothing read stay deleted
    removed = {
        codec.UniversalCode: ("in_decoding_set",),
        adversary.ScalarQuantizerEncoder: ("apply",),
        adversary.TableEncoder: ("apply",),
        analysis.AkwBoundary: ("contains", "hyperplanes"),
        analysis.FLowerResult: ("threshold",),
        leakage.GammaKernel: ("gamma",),
    }
    for owner, names in removed.items():
        for name in names:
            assert not hasattr(owner, name), (owner.__name__, name)
    assert not hasattr(galois, "matrix_rank") and "matrix_rank" not in galois.__all__
    fields = {
        codec.ErrorBoundReport: ["pe_exact", "exponent", "bound", "holds"],
        analysis.MembershipResult: ["label", "reliability_ok"],
    }
    for report, names in fields.items():
        assert [f.name for f in dataclasses.fields(report)] == names, report.__name__


def test_one_report_for_both_structural_suites():
    # a check's verdict is held once: in its record in the suite's
    # StructuralReport, whose passed and failures are read off the records,
    # and cmd_verify formats every PASS/FAIL line of both suites at one site
    assert not hasattr(leakage, "KernelCheckReport")
    report = crypto.StructuralReport
    assert [f.name for f in dataclasses.fields(report)] == ["mode", "checks"]
    assert all(isinstance(vars(report)[name], property) for name in ("passed", "failures"))
    tree = ast.parse(textwrap.dedent(inspect.getsource(crypto.check_structural_properties)))
    stored = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert not [name for name in stored if name.endswith(("_ok", "_witness"))], stored
    verify = ast.parse(textwrap.dedent(inspect.getsource(cli.cmd_verify))).body[0]
    literals = [  # after the docstring
        node.value for statement in verify.body[1:] for node in ast.walk(statement)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    for part in ("PASS", "max_err=", "witness="):
        assert sum(part in text for text in literals) == 1, part
