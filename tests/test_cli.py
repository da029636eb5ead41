import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leaklab
from helpers import condition_oracle, swapped_decode
from leaklab import cli, codec, crypto, leakage
from leaklab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, _replay_draws, main
from leaklab.probability import all_sequences

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(leaklab.__file__).resolve().parents[1]

BASE_CONFIG = {
    "q": 2,
    "source": {"probs": [0.89, 0.11]},
    "key": {"probs": [0.5, 0.5]},
    "W": {"rows": [[0.9, 0.1], [0.1, 0.9]]},
    "adversary": {"kind": "scalar", "cells": [[0], [1]]},
    "n_list": [4, 6],
    "R": 0.5,
    "R_A": 0.7,
    "gamma": 0.05,
    "seeds": {"keymap": 7, "replay": 11},
    "tol": 1e-7,
    "monte_carlo_samples": 500,
    "exponents": False,
    "mu_points": 9,
}


def write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path


def test_verify_passes_on_valid_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS crypto.decoding_set_size (n=4" in out
    assert "PASS kernel.row_sum_identity (n=6" in out


def test_verify_identity_code_otp_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path, code="identity", adversary={"kind": "scalar", "cells": [[0, 1]]}
    )
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_verify_fails_on_mutated_decoder(tmp_path, capsys, monkeypatch):
    # a decoder with two outputs swapped shrinks the enumerated decoding set
    decode = swapped_decode(codec.UniversalCode.decode)
    monkeypatch.setattr(codec.UniversalCode, "decode", decode)
    cfg = write_config(tmp_path)
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "FAIL crypto.decoding_set_size" in out
    assert "witness" in out


def test_verify_reports_a_condition_failure_the_probe_misses(tmp_path, capsys, monkeypatch):
    # decrypt flips the first plaintext symbol under one key image that no
    # key of the construction probe has: construction succeeds, and verify's
    # sweep names the first failing pair of the loop over every key
    cfg = {**BASE_CONFIG, "n_list": [10]}  # m = 7: 128 key images
    exp = cli.Experiment(cfg)
    honest = exp.build_system(exp.build_code(10))
    rng = np.random.default_rng(crypto.VALIDATION_SEED)
    probed = {tuple(w) for w in honest.key_image(rng.integers(0, 2, size=(256, 10)))}
    bad = next(w for w in honest.key_image(all_sequences(10, 2)) if tuple(w) not in probed)
    decrypt = crypto.Cryptosystem.decrypt

    def image_dependent(self, k, c):
        out = decrypt(self, k, c)
        hit = np.all(self.key_image(k) == bad, axis=-1)
        out[..., 0] = np.where(hit, 1 - out[..., 0], out[..., 0])
        return out

    monkeypatch.setattr(crypto.Cryptosystem, "decrypt", image_dependent)
    witness = condition_oracle(exp.build_system(exp.build_code(10)))
    assert witness is not None
    path = write_config(tmp_path, n_list=[10])
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    want = f"FAIL crypto.decryption_condition (n=10, mode=exhaustive) witness={witness}"
    assert want in out.splitlines()
    assert "FAIL construction" not in out
    for name in ("decoding_set_size", "injective_on_D", "surjective", "key_independent_D"):
        assert f"crypto.{name} (n=10, mode=exhaustive)" in out, name


def test_leakage_runs_no_key_image_sweep(tmp_path, monkeypatch):
    # leakage never calls encrypt or decrypt beyond the construction probe,
    # so the exhaustive sweep of the structural suite is not its to run
    def sweep(*args):
        raise AssertionError("leakage entered the key-image sweep")

    monkeypatch.setattr(crypto, "_key_image_sweep", sweep)
    path = write_config(tmp_path)
    assert main(["leakage", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert (tmp_path / "o" / "leakage.csv").exists()


DENSE = {"key": {"probs": [0.7, 0.3]}, "adversary": {"kind": "scalar", "cells": None}}


def test_dense_configs_never_build_the_materialized_kernel(tmp_path, monkeypatch):
    # the dense kernel is streamed on every pipeline path; the whole table
    # is the tests' oracle only
    def whole(*args):
        raise AssertionError("a pipeline path built the whole dense kernel")

    monkeypatch.setattr(leakage, "build_gamma_kernel", whole)
    path = write_config(tmp_path, n_list=[6, 10], **DENSE)
    for cmd, name in (("leakage", "leakage.csv"), ("simulate", "simulate.csv")):
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / cmd)]) == EXIT_OK
        assert (tmp_path / cmd / name).exists()
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v")]) == EXIT_OK


def test_no_pipeline_path_builds_a_gamma_kernel(tmp_path, monkeypatch):
    # GammaKernel, which holds the code's X^n tables, is the tests' oracle
    # only: symmetric, dense and table configs run every leakage subcommand
    # without it
    def oracle(*args, **kwargs):
        raise AssertionError("a pipeline path built a GammaKernel")

    monkeypatch.setattr(leakage, "GammaKernel", oracle)
    table = [int(v) for v in np.arange(16) % 3]
    configs = {
        "symmetric": {},
        "dense": DENSE,
        "table": {"adversary": {"kind": "table", "table": table}, "n_list": [4], "R_A": 0.5},
    }
    for name, overrides in configs.items():
        path = write_config(tmp_path, **overrides)
        for cmd in ("leakage", "simulate", "verify"):
            out = tmp_path / name / cmd
            assert main([cmd, "--config", str(path), "--out", str(out)]) == EXIT_OK, (name, cmd)


def test_verify_checks_the_kernel_leakage_takes(tmp_path, capsys, monkeypatch):
    # uniform key: the translation kernel is checked at every n, and the
    # dense stream as well while q^n * q^m fits the cap (n=6, not n=16);
    # key [0.7, 0.3]: the dense stream is the only kernel, and it is checked
    # past that bound too (n=10 under a cap of 2^16, below its 2^17)
    path = write_config(tmp_path, n_list=[6, 16], adversary={"kind": "scalar", "cells": None})
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    kernel_lines = [l for l in capsys.readouterr().out.splitlines() if "kernel." in l]
    assert [l.split(" max_err=")[0] for l in kernel_lines] == [
        "PASS kernel.row_sum_identity (n=6)",
        "PASS kernel.uniform_ciphertext (n=6)",
        "PASS kernel.row_sum_identity (n=6, kernel=translation)",
        "PASS kernel.uniform_ciphertext (n=6, kernel=translation)",
        "PASS kernel.row_sum_identity (n=16, kernel=translation)",
        "PASS kernel.uniform_ciphertext (n=16, kernel=translation)",
    ]
    monkeypatch.setattr(cli.prob, "TABLE_CAP", 2**16)
    path = write_config(tmp_path, n_list=[10], **DENSE)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS kernel.row_sum_identity (n=10) max_err=" in out
    assert "kernel=translation" not in out and "FAIL" not in out


def test_config_errors_exit_2(tmp_path):
    missing = tmp_path / "none.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == EXIT_CONFIG
    bad = write_config(tmp_path, q=4)  # non-prime alphabet
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    tight = write_config(tmp_path, R_A=0.1)  # identity quantizer rate ln 2 > 0.1
    assert main(["simulate", "--config", str(tight), "--out", str(tmp_path)]) == EXIT_CONFIG
    typo = write_config(tmp_path, monte_carlo_sample=100)  # misspelt key
    assert main(["simulate", "--config", str(typo), "--out", str(tmp_path)]) == EXIT_CONFIG
    for rate in (0.0, -0.1, float("nan")):  # no code has a rate R <= 0
        bad = write_config(tmp_path, R=rate)
        for cmd in ("simulate", "leakage"):
            assert main([cmd, "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()
    for nested in (
        {"seeds": {"keymap": 7, "replpay": 11}},
        {"exponent_grid": {"lamda_points": 8}},
        {"rate_grid": {"Ra": [0.1]}},
        {"adversary": {"kind": "scalar", "cell": [[0], [1]]}},
        {"seeds": [7, 11]},
        {"source": {"probz": [0.89, 0.11], "probs": [0.89, 0.11]}},
        {"key": {"alphabet": 2, "probs": [0.5, 0.5], "alphabt": 2}},
        {"W": {"rows": [[0.9, 0.1], [0.1, 0.9]], "colz": 2}},
    ):
        bad = write_config(tmp_path, **nested)
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    # out-of-range grid and sampling values (each exited 0 with degenerate
    # grids or divide-by-zero warnings, or 1 with a traceback)
    for cmd, bad_values in (
        ("exponent", {"exponent_grid": {"refine_points": 1}}),
        ("exponent", {"exponent_grid": {"alpha_points": 0}}),
        ("exponent", {"exponent_grid": {"mu_points": 0}}),
        ("exponent", {"exponent_grid": {"lambda_points": 0}}),
        ("exponent", {"exponent_grid": {"lambda_points": 1}}),
        ("exponent", {"exponent_grid": {"lambda_max": -1}}),
        ("region", {"mu_points": 0}),
        ("exponent", {"mu_points": 0}),
        ("simulate", {"monte_carlo_samples": -5}),
    ):
        bad = write_config(tmp_path, **bad_values)
        out = tmp_path / "bad-values"
        assert main([cmd, "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG, bad_values
        assert not out.exists()
    # adversary, gamma and seed typos: cells must partition the observations
    # 0..|Z|-1 and a table must have |Z|^n entries (at the parent these
    # exited 1 with an IndexError, KeyError, ValueError or traceback, or 0
    # with a silently re-labelled quantizer or NaN gamma)
    for bad_values in (
        {"adversary": {"kind": "scalar", "cells": [[0], [5]]}},  # z = 5, |Z| = 2
        {"adversary": {"kind": "scalar", "cells": [[0], [-1]]}},  # z = -1
        {"adversary": {"kind": "scalar", "cells": [[0]]}},  # z = 1 in no cell
        {"adversary": {"kind": "scalar", "cells": [[0, 1], [1]]}},  # z = 1 twice
        {"adversary": {"kind": "table"}, "n_list": [4]},
        {"adversary": {"kind": "table", "table": [0, 1] * 4}, "n_list": [4]},  # 8 != 2^4
        {"adversary": {"kind": "table", "table": [0, -1] * 8}, "n_list": [4]},
        {"gamma": 0.0},
        {"gamma": -0.05},
        {"gamma": float("nan")},
        {"seeds": {"keymap": -1, "replay": 11}},
        {"adversary": {"kind": "scalr", "cells": [[0], [1]]}},  # exited 0 from region
        # integer keys given fractions or booleans, which int() would
        # truncate silently (n_list [4.7] would run n = 4)
        {"n_list": [4.7]},
        {"mu_points": 2.9},
        {"monte_carlo_samples": 50.5},
        {"exponent_grid": {"refine_points": 3.5}},
        {"seeds": {"keymap": 1.5, "replay": 11}},
        {"mu_points": True},
        {"q": 2.5},
        {"adversary": {"kind": "scalar", "cells": [[0], [1.5]]}},
        {"adversary": {"kind": "table", "table": [0, 1.5] * 8}, "n_list": [4]},
        # exponents must be a boolean (bool("false") is True), R_A finite
        # and >= 0 (a NaN budget passes every rate check), and every rate
        # grid entry finite and >= 0
        {"exponents": "false"},
        {"R_A": float("nan")},
        {"R_A": -0.1},
        {"rate_grid": {"R": [float("nan")]}},
        {"rate_grid": {"RA": [-1]}},
        {"rate_grid": {"RA": [float("inf")]}},
        # numbers given as strings
        {"R": "0.5"},
        {"gamma": "0.05"},
        {"exponent_grid": {"lambda_max": "5"}},
        # probabilities given as strings or booleans (np.asarray converts
        # both silently)
        {"source": {"probs": ["0.89", "0.11"]}},
        {"source": {"probs": [True, False]}},
        {"key": {"probs": ["0.5", 0.5]}},
        {"key": {"probs": [False, True]}},
        {"W": {"rows": [[0.9, "0.1"], [0.1, 0.9]]}},
        {"W": {"rows": [[True, False], [0.1, 0.9]]}},
    ):
        bad = write_config(tmp_path, **bad_values)
        out = tmp_path / "bad-values"
        for cmd in ("simulate", "leakage", "region"):
            assert main([cmd, "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG, bad_values
        assert not out.exists()
    # an integral number is an integer
    ok = write_config(tmp_path, n_list=[4.0], mu_points=5.0)
    assert main(["region", "--config", str(ok), "--out", str(tmp_path / "ok")]) == EXIT_OK


# one value of each JSON type; a reader refuses every type but its own
JSON_VALUES = {
    "string": "4", "number": 1, "boolean": True, "null": None, "list": [1], "object": {"x": 1},
}


def _json_type(kind) -> str:
    if isinstance(kind, dict):
        return "object"
    if isinstance(kind, tuple):  # a choice
        return "boolean" if isinstance(kind[0], bool) else "string"
    return "list" if isinstance(kind, cli.ListOf) else "number"


def _bad_values(kind, nullable: bool) -> list:
    """A value of each wrong JSON type for a schema reader, then values
    outside its range; a list reader also gets its entries' bad values."""
    right = _json_type(kind)
    bad = [v for t, v in JSON_VALUES.items() if t != right and not (t == "null" and nullable)]
    if right == "string":
        bad.append("no-such-option")
    if isinstance(kind, cli.Number) and kind.integer:
        bad.append(1.5)
    if isinstance(kind, cli.Number) and kind.least is not None:
        bad.append(kind.least if kind.strict else kind.least - 1)
        bad += [] if kind.integer else [math.nan, math.inf]
    if isinstance(kind, cli.ListOf):
        bad += [[]] if kind.range.startswith("non-empty") else []
        bad += [[v] for v in _bad_values(kind.item, nullable=False)]
    return bad


def _schema_cases(schema, path=()):
    """(key path, bad value) for every key of ``schema``, nested ones too."""
    for key, entry in schema.items():
        kind, default = (entry, {}) if isinstance(entry, dict) else entry
        for value in _bad_values(kind, nullable=default is None):
            yield path + (key,), value
        if isinstance(entry, dict):
            yield from _schema_cases(entry, path + (key,))


def _config_with(path, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    obj = cfg
    for key in path[:-1]:
        obj = obj.setdefault(key, {})
    obj[path[-1]] = value
    return cfg


def test_schema_refuses_every_wrong_type_and_range(tmp_path):
    # generated from cli.SCHEMA: each key, at every level, given a value of a
    # wrong JSON type or out of its range exits 2 before any output is made
    cases = [(("config",), v, v) for v in _bad_values(cli.SCHEMA, nullable=False)]
    cases += [(p, v, _config_with(p, v)) for p, v in _schema_cases(cli.SCHEMA)]
    # and these configs, which ran with exit 0 before the schema existed,
    # except the alphabet mismatch, which was refused then too
    for overrides in (
        {"code": "universl"},
        {"n_list": [0, 4]},
        {"n_list": [-3, 4]},
        {"adversary": {"kind": "scalar", "table": [0, 1]}},
        {"adversary": {"kind": "best_scalar", "cells": [[0], [1]]}},
        {"tol": math.nan},
        {"tol": -1},
        {"source": {"alphabet": 3, "probs": [0.89, 0.11]}},
    ):
        cases.append((tuple(overrides), overrides, {**BASE_CONFIG, **overrides}))
    assert len(cases) > 200
    path = tmp_path / "config.json"
    out = tmp_path / "o"
    for key_path, value, cfg in cases:
        path.write_text(json.dumps(cfg))
        for cmd in ("simulate", "leakage", "region"):
            rc = main([cmd, "--config", str(path), "--out", str(out)])
            assert rc == EXIT_CONFIG, (cmd, ".".join(key_path), value)
    path.write_text(json.dumps(BASE_CONFIG))
    negative_seed = ["region", "--config", str(path), "--out", str(out), "--seed", "-1"]
    assert main(negative_seed) == EXIT_CONFIG
    assert not out.exists()


def test_non_finite_probabilities_exit_2(tmp_path):
    # NaN is valid JSON for Python's reader; every probability vector and
    # channel row refuses it before any output is made
    out = tmp_path / "o"
    for overrides in (
        {"source": {"probs": [math.nan, 0.11]}},
        {"key": {"probs": [0.5, math.nan]}},
        {"W": {"rows": [[0.9, 0.1], [math.nan, 0.9]]}},
        {"source": {"probs": [math.inf, 0.11]}},
    ):
        path = write_config(tmp_path, **overrides)
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        for cmd in ("leakage", "region", "simulate"):
            rc = main([cmd, "--config", str(path), "--out", str(out)])
            assert rc == EXIT_CONFIG, (cmd, overrides)
            assert not out.exists()


def test_probability_errors_name_the_key_path(tmp_path, capsys):
    out = tmp_path / "o"
    for overrides, where in (
        ({"key": {"probs": [0.5, 0.4]}}, "config.key.probs"),
        ({"source": {"probs": [math.nan, 0.11]}}, "config.source.probs"),
        ({"W": {"rows": [[0.9, 0.1], [0.2, 0.9]]}}, "config.W.rows"),
    ):
        path = write_config(tmp_path, **overrides)
        assert main(["leakage", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}: "), err
        assert "np.float64" not in err
    path = write_config(tmp_path, key={"probs": [0.5, 0.4]})
    main(["leakage", "--config", str(path), "--out", str(out)])
    assert "pmf sums to 0.9, not 1" in capsys.readouterr().err


def test_table_cap_refusal_is_a_config_error(tmp_path, capsys, monkeypatch):
    # q=2, n=10, m=7 under a cap of 2^14: key [0.7, 0.3] has no translation
    # kernel, and the dense stream's block table of q^m * 256 = 2^15 entries
    # is refused before its first block
    monkeypatch.setattr(cli.prob, "TABLE_CAP", 2**14)
    cfg = write_config(
        tmp_path,
        n_list=[10],
        key={"probs": [0.7, 0.3]},
        adversary={"kind": "scalar", "cells": None},
    )
    out = tmp_path / "o"
    assert main(["leakage", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "q^m * messages per block = 2^15" in err and "table cap 2^14" in err
    assert not (out / "leakage.csv").exists()


def test_verify_refuses_table_cap_before_crypto_suite(tmp_path, capsys, monkeypatch):
    # the same refusal in verify: n=4 runs whole, and n=10's stream is
    # refused before its crypto suite prints a line
    monkeypatch.setattr(cli.prob, "TABLE_CAP", 2**14)
    cfg = write_config(
        tmp_path,
        n_list=[4, 10],
        key={"probs": [0.7, 0.3]},
        adversary={"kind": "scalar", "cells": None},
    )
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "PASS crypto.decoding_set_size (n=4" in captured.out
    assert "PASS kernel.uniform_ciphertext (n=4)" in captured.out
    assert "n=10" not in captured.out
    assert "q^m * messages per block = 2^15" in captured.err


def test_simulate_schema_and_lossless_regime(tmp_path, capsys):
    cfg = write_config(tmp_path, R=0.8, n_list=[3, 4])  # R > ln 2: lossless
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[0] == (
        "n,m,q,R,RA,gamma,pe_exact,pe_mc,pe_bound,E_gamma,"
        "delta_mi,delta_max,delta_max_lb,delta_max_ub,F,F_lower"
    )
    for row in lines[1:]:
        vals = row.split(",")
        assert float(vals[6]) == 0.0  # exact error probability
        assert float(vals[7]) == 0.0  # Monte Carlo replay agrees


def test_simulate_skips_infeasible_block_lengths(tmp_path, capsys):
    cfg = write_config(tmp_path, R=0.3, n_list=[1, 6])  # n=1 gives m=0
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "simulate.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("6,")
    assert "skipping n=1" in capsys.readouterr().err


def test_leakage_and_build_code_skip_infeasible_block_lengths(tmp_path, capsys):
    cfg = write_config(tmp_path, R=0.5, n_list=[1, 4])  # n=1 gives m=0
    out = tmp_path / "o"
    assert main(["leakage", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "leakage.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("4,")
    assert "skipping n=1" in capsys.readouterr().err
    assert main(["build-code", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "skipping n=1" in capsys.readouterr().err
    assert (out / "code_n4.json").exists() and not (out / "code_n1.json").exists()


@pytest.mark.parametrize("q", [2, 3])
def test_replay_draws_match_per_sample_choice(q):
    # the batched replay reads the generator's stream exactly as the loop of
    # rng.choice calls it replaces
    rng = np.random.default_rng(0)
    for n in (1, 4, 6, 11):
        p_x = rng.dirichlet(np.ones(q))
        p_k = rng.dirichlet(np.ones(q))
        for seed in range(5):
            loop = np.random.default_rng(np.random.SeedSequence([seed, n]))
            xs = np.empty((300, n), dtype=np.int64)
            ks = np.empty_like(xs)
            for i in range(300):
                xs[i] = loop.choice(q, size=n, p=p_x)
                ks[i] = loop.choice(q, size=n, p=p_k)
            batch = np.random.default_rng(np.random.SeedSequence([seed, n]))
            got_x, got_k = _replay_draws(batch, p_x, p_k, 300, n)
            assert np.array_equal(got_x, xs) and np.array_equal(got_k, ks)
            assert batch.random() == loop.random()


def test_region_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["region", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "region.csv").read_text().splitlines()
    assert lines[0] == "mu,R_mu"
    rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
    assert rows[0] == (0.0, pytest.approx(0.3250829733914482, abs=1e-6))
    assert rows[-1][1] <= 1e-9  # R^(1) = 0
    # every boundary point satisfies R_A + R >= H(K)
    pts = (out / "region_points.dat").read_text().splitlines()[1:]
    for line in pts:
        ra, r = map(float, line.split())
        assert ra + r >= math.log(2) - 1e-8
    assert (out / "region.gp").exists()


def test_exponent_output(tmp_path):
    cfg = write_config(
        tmp_path,
        exponent_grid={
            "mu_points": 7,
            "alpha_points": 7,
            "lambda_points": 8,
            "refine_rounds": 1,
        },
        rate_grid={"RA": [0.0, 0.2], "R": [0.25, 0.5]},
        source={"probs": [0.95, 0.05]},
    )
    out = tmp_path / "o"
    assert main(["exponent", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "exponent.csv").read_text().splitlines()
    assert lines[0] == "RA,R,F,F_lower,member"
    assert len(lines) == 5
    for row in lines[1:]:
        vals = row.split(",")
        assert float(vals[2]) >= float(vals[3]) - 1e-6  # F >= F_lower
        assert vals[4] in ("inside", "outside", "boundary-band")


def test_build_code_descriptor(tmp_path):
    cfg = write_config(tmp_path, n_list=[4])
    out = tmp_path / "o"
    assert main(["build-code", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "code_n4.json").read_text())
    assert doc["n"] == 4 and doc["q"] == 2
    assert doc["m"] == 2 and doc["decoding_set_size"] == 4
    assert len(doc["type_order"]) == 5  # binomial types of n=4


def test_manifest_written(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    main(["region", "--config", str(cfg), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "region"
    assert manifest["seeds"] == {"keymap": 7, "replay": 11}
    assert "region.csv" in manifest["outputs"]
    assert len(manifest["config_sha256"]) == 64
    assert manifest["version"] == leaklab.__version__
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}


def test_repeated_runs_bit_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg), "--out", str(out1)])
    main(["simulate", "--config", str(cfg), "--out", str(out2)])
    assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()
    main(["region", "--config", str(cfg), "--out", str(out1)])
    main(["region", "--config", str(cfg), "--out", str(out2)])
    assert (out1 / "region.csv").read_bytes() == (out2 / "region.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "99"])
    main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "100"])
    assert (out1 / "simulate.csv").read_bytes() != (out2 / "simulate.csv").read_bytes()


def test_region_with_z_above_k_reaches_h_k_given_z(tmp_path):
    # |Z| = 4 > |K| = 2: R_0 = H(K|Z) = 0.483929 needs |U| = 4, and
    # |U| = min(|Z|, |K|) = 2 gives 0.517913
    cfg = write_config(
        tmp_path,
        W={"rows": [[0.33, 0.05, 0.6, 0.02], [0.6, 0.02, 0.08, 0.3]]},
        adversary={"kind": "scalar", "cells": [[0], [1], [2], [3]]},
        mu_points=3,
    )
    out = tmp_path / "out"
    assert main(["region", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in (out / "region.csv").read_text().splitlines()[1:]]
    assert float(rows[0][0]) == 0.0
    assert abs(float(rows[0][1]) - 0.483929) < 2e-5


def test_golden_region_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    main(["region", "--config", str(cfg), "--out", str(out)])
    assert (out / "region.csv").read_bytes() == (GOLDEN / "region.csv").read_bytes()


# The exponent-surface and ternary-region configs of the benchmark; their
# goldens pin the solver engines (dense scan, and multistart Adam for |Z| = 3).
EXPONENT_CONFIG = {
    **{k: v for k, v in BASE_CONFIG.items() if k not in ("seeds", "monte_carlo_samples")},
    "adversary": {"kind": "scalar", "cells": None},
    "n_list": [4],
    "exponents": True,
    "mu_points": 9,
    "exponent_grid": {
        "mu_points": 3, "alpha_points": 3, "lambda_points": 5,
        "refine_rounds": 1, "refine_points": 3,
    },
    "rate_grid": {"RA": [0.0, 0.3], "R": [0.1, 0.3, 0.5]},
}
TERNARY_REGION_CONFIG = {
    "q": 3,
    "source": {"probs": [0.7, 0.2, 0.1]},
    "key": {"probs": [0.4, 0.35, 0.25]},
    "W": {"rows": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]},
    "adversary": {"kind": "scalar", "cells": None},
    "n_list": [4],
    "R": 0.8,
    "R_A": 1.1,
    "gamma": 0.05,
    "tol": 1e-7,
    "exponents": False,
    "mu_points": 5,
}


def _run_config(tmp_path, cmd, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    out = tmp_path / "o"
    assert main([cmd, "--config", str(path), "--out", str(out)]) == EXIT_OK
    return out


def test_golden_region_ternary_csv(tmp_path):
    out = _run_config(tmp_path, "region", TERNARY_REGION_CONFIG)
    want = (GOLDEN / "region_ternary.csv").read_bytes()
    assert (out / "region.csv").read_bytes() == want


def test_golden_leakage_csv(tmp_path):
    # translation-kernel rows (BSC, uniform key) and dense rows (ternary)
    out = tmp_path / "o"
    assert main(["leakage", "--config", str(write_config(tmp_path)), "--out", str(out)]) == EXIT_OK
    assert (out / "leakage.csv").read_bytes() == (GOLDEN / "leakage.csv").read_bytes()
    out = _run_config(tmp_path, "leakage", {**TERNARY_REGION_CONFIG, "n_list": [4, 5, 6]})
    assert (out / "leakage.csv").read_bytes() == (GOLDEN / "leakage_ternary.csv").read_bytes()


def test_golden_leakage_dense_csv(tmp_path):
    # key [0.7, 0.3]: the dense stream, over 4 to 32 blocks of 256 messages
    path = write_config(tmp_path, key={"probs": [0.7, 0.3]}, n_list=[10, 11, 12, 13])
    out = tmp_path / "o"
    assert main(["leakage", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert (out / "leakage.csv").read_bytes() == (GOLDEN / "leakage_dense.csv").read_bytes()


def test_golden_build_code_descriptor(tmp_path):
    cfg = write_config(tmp_path, n_list=[6])
    out = tmp_path / "o"
    assert main(["build-code", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "code_n6.json").read_bytes() == (GOLDEN / "code_n6.json").read_bytes()


def test_golden_exponent_csv(tmp_path):
    out = _run_config(tmp_path, "exponent", EXPONENT_CONFIG)
    got = (out / "exponent.csv").read_text().splitlines()
    want = (GOLDEN / "exponent.csv").read_text().splitlines()
    assert got[0] == want[0] == "RA,R,F,F_lower,member"
    assert len(got) == len(want) == 7
    for g, w in zip(got[1:], want[1:]):
        g, w = g.split(","), w.split(",")
        assert (g[0], g[1], g[4]) == (w[0], w[1], w[4])
        for col in (2, 3):
            assert abs(float(g[col]) - float(w[col])) <= 1e-10, (g, w)


def test_golden_simulate_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert (out / "simulate.csv").read_bytes() == (GOLDEN / "simulate.csv").read_bytes()


def test_best_scalar_adversary_kind(tmp_path):
    cfg = write_config(tmp_path, adversary={"kind": "best_scalar"}, n_list=[4])
    out = tmp_path / "o"
    assert main(["leakage", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "leakage.csv").read_text().splitlines()
    assert lines[0] == "n,m,q,RA,R,delta_mi,delta_max,lb,ub,iters,tol"
    assert len(lines) == 2


def test_best_scalar_budget_past_the_float_range(tmp_path):
    # exp(800) overflows; the budget is capped at |Z| before it is taken
    out = {}
    for R_A in (math.log(2), 800):
        cfg = write_config(tmp_path, adversary={"kind": "best_scalar"}, n_list=[4], R_A=R_A)
        path = tmp_path / f"o{R_A}"
        assert main(["leakage", "--config", str(cfg), "--out", str(path)]) == EXIT_OK
        out[R_A] = [line.split(",") for line in (path / "leakage.csv").read_text().splitlines()]
    low, high = out[math.log(2)], out[800]
    assert [row[:3] + row[4:] for row in low] == [row[:3] + row[4:] for row in high]


def test_table_adversary_kind(tmp_path):
    table = list(np.arange(16) % 3)
    cfg = write_config(
        tmp_path,
        adversary={"kind": "table", "table": [int(v) for v in table]},
        n_list=[4],
        R_A=0.5,
    )
    out = tmp_path / "o"
    assert main(["leakage", "--config", str(cfg), "--out", str(out)]) == EXIT_OK


def run_in_1gib(args):
    """``leaklab`` in a child process that limits its own address space to
    1 GiB; what it allocates beyond that raises MemoryError (exit 1)."""
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from leaklab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", child, *args], env=env, capture_output=True, text=True, timeout=600
    )


def test_leakage_n12_fits_in_1gib_address_space(tmp_path):
    # q=2, n=12 with the finest scalar adversary: the explicit capacity rows
    # alone would take 2 GiB, the closed forms need under 100 MiB
    cfg = write_config(tmp_path, n_list=[12], adversary={"kind": "scalar", "cells": None})
    out = tmp_path / "o"
    proc = run_in_1gib(["leakage", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    header, row = (out / "leakage.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert vals["n"] == "12"
    assert vals["delta_max"] == vals["ub"]


def test_leakage_n15_fits_in_1gib_address_space(tmp_path):
    # key [0.7, 0.3] has no translation kernel, so the dense kernel is
    # streamed: its (|M|, q^m) = (2^15, 2^10) posterior would take 256 MiB,
    # and the one pass holds a 256-message block of 2 MiB at a time
    cfg = write_config(
        tmp_path,
        n_list=[15],
        key={"probs": [0.7, 0.3]},
        adversary={"kind": "scalar", "cells": None},
    )
    out = tmp_path / "o"
    proc = run_in_1gib(["leakage", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    header, row = (out / "leakage.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert (vals["n"], vals["m"]) == ("15", "10")
    assert vals["delta_max"] == vals["ub"]


def test_dense_leakage_runs_at_n16_in_1gib(tmp_path):
    # key [0.7, 0.3], n=16, m=11: the whole table's q^n * q^m = 2^27 entries
    # exceed the cap; the stream's 256 blocks of 2^19 entries do not
    path = write_config(tmp_path, n_list=[16], **DENSE)
    out = tmp_path / "o"
    proc = run_in_1gib(["leakage", "--config", str(path), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    header, row = (out / "leakage.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert (vals["n"], vals["m"]) == ("16", "11")
    assert vals["delta_max"] == vals["ub"]
    assert float(vals["lb"]) <= float(vals["delta_max"]) and 0 < float(vals["delta_mi"])


@pytest.mark.parametrize("n, m", [(16, 11), (20, 14)])
def test_symmetric_leakage_runs_past_the_dense_cap_in_1gib(tmp_path, n, m):
    # uniform key, BSC: every posterior is a translate of one law, so the
    # translation kernel checks and builds one q^m vector, where the dense
    # kernel's q^n * q^m would exceed the table cap
    cfg = write_config(tmp_path, n_list=[n], adversary={"kind": "scalar", "cells": None})
    out = tmp_path / "o"
    proc = run_in_1gib(["leakage", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    header, row = (out / "leakage.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert (vals["n"], vals["m"]) == (str(n), str(m))
    assert vals["delta_max"] == vals["ub"]
    assert float(vals["lb"]) <= float(vals["delta_max"]) and 0 < float(vals["delta_mi"])


def test_digit_table_over_the_cap_exits_2_before_allocating(tmp_path):
    # q=2, n=24, m=1: the kernel's q^n * q^m = 2^25 fits the cap, but the
    # X^n digit table's q^n * n = 2^24 * 24 entries (3 GiB) do not
    cfg = write_config(
        tmp_path, n_list=[24], R=0.03, adversary={"kind": "scalar", "cells": None}
    )
    out = tmp_path / "o"
    proc = run_in_1gib(["leakage", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == EXIT_CONFIG, proc.stderr[-2000:]
    want = "config error: q^n * n = 402653184 entries exceed the table cap 2^26"
    assert proc.stderr.startswith(want)
    assert not (out / "leakage.csv").exists()


def test_oversized_replay_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    # 10^9 samples * 2 * n=6 uniform draws would take 89 GiB; the check runs
    # before the exponents and before the first row
    monkeypatch.setattr(cli.analysis, "ExponentCalculator", None)
    cfg = write_config(tmp_path, n_list=[6], monte_carlo_samples=10**9, exponents=True)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "monte_carlo_samples * 2 * n = 12000000000 entries exceed the table cap 2^26" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd, cfg, want", [
    ("region", {**BASE_CONFIG, "mu_points": 10**10}, "mu_points = 10000000000"),
    ("exponent", {**BASE_CONFIG, "exponent_grid": {"lambda_points": 10**10}},
     "mu_points * lambda_points = 210000000000"),
    ("exponent", {**BASE_CONFIG, "exponent_grid": {"refine_points": 10**5}},
     "refine_points^2 = 10000000000"),
    ("simulate", {**BASE_CONFIG, "exponents": True, "exponent_grid": {"alpha_points": 10**7}},
     "mu_points * alpha_points = 210000000"),
], ids=["region_levels", "lambda_grid", "refine_grid", "alpha_grid"])
def test_oversized_solver_grids_exit_2_before_allocating(tmp_path, cmd, cfg, want):
    # the mu levels and the exponent grids are checked where they are built,
    # before any is allocated (10^10 levels would take 74.5 GiB)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    proc = run_in_1gib([cmd, "--config", str(path), "--out", str(out)])
    assert proc.returncode == EXIT_CONFIG, proc.stderr[-2000:]
    assert proc.stderr.startswith(f"config error: {want} entries exceed the table cap 2^26")
    assert not out.exists()


def test_oversized_multistart_exits_2_before_tiling(tmp_path, monkeypatch, capsys):
    # the ternary region's 5 levels fit a cap of 2^11, but Adam's tiled
    # starts, 5 problems * 64 starts * 9 logits, do not
    monkeypatch.setattr(cli.prob, "TABLE_CAP", 2**11)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TERNARY_REGION_CONFIG))
    out = tmp_path / "o"
    assert main(["region", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: problems * N_STARTS * dim = 2880 entries exceed"), err
    assert not out.exists()


def test_leakage_does_not_refuse_a_grid_it_never_reads(tmp_path):
    cfg = write_config(tmp_path, exponent_grid={"lambda_points": 10**10})
    assert main(["leakage", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK


@pytest.mark.parametrize("cmd, cfg, want", [
    ("leakage", {**BASE_CONFIG, "R": 0.5}, "n * m = 28800"),  # m = 144
    ("leakage", {**BASE_CONFIG, "R": 0.01}, "n_probe * n = 2000000"),  # m = 2
    # the type classes are sorted on first use: build-code reads them
    # first, and leakage meets the key map (m = 145) before them
    ("build-code", TERNARY_REGION_CONFIG, "C(n + q - 1, q - 1) * q = 60903"),
    ("leakage", TERNARY_REGION_CONFIG, "n * m = 29000"),
], ids=["key_map", "probe", "type_classes", "ternary_key_map"])
def test_block_length_tables_exit_2_where_they_are_built(
    tmp_path, monkeypatch, capsys, cmd, cfg, want
):
    # n=200 under a cap of 2^14: each table is refused before it is
    # allocated, before the X^n digit table is reached
    monkeypatch.setattr(cli.prob, "TABLE_CAP", 2**14)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**cfg, "n_list": [200]}))
    assert main([cmd, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {want} entries exceed the table cap 2^14"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("R, want", [
    (0.5, "n * m = 162300000"),  # m = 10820
    (0.01, "n_probe * n = 150000000"),  # m = 216
], ids=["key_map", "probe"])
def test_far_block_length_exits_2_before_any_class_size(tmp_path, monkeypatch, capsys, R, want):
    # n=15000 under the default cap: the first table the subcommand builds
    # refuses it, and no big-integer class size is computed on the way
    def multinomial(*args):
        raise AssertionError("a class size was computed")

    monkeypatch.setattr(cli.prob, "multinomial", multinomial)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, "R": R, "n_list": [15000]}))
    assert main(["leakage", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {want} entries exceed the table cap 2^26"), err
    assert not (tmp_path / "o").exists()
