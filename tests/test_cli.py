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
from leaklab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, _replay_draws, main

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


def test_verify_fails_on_mutated_decoder(tmp_path, capsys):
    cfg = write_config(tmp_path, mutation="decoder")
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "FAIL crypto.decoding_set_size" in out
    assert "witness" in out


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


def test_table_cap_refusal_is_a_config_error(tmp_path, capsys):
    # q=2, n=16, m=11: the kernel tables would hold q^n * q^m = 2^27 entries
    cfg = write_config(tmp_path, n_list=[16], adversary={"kind": "scalar", "cells": None})
    out = tmp_path / "o"
    assert main(["leakage", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "q^n * q^m = 2^27" in err and "table cap 2^26" in err
    assert not (out / "leakage.csv").exists()


def test_verify_refuses_table_cap_before_crypto_suite(tmp_path, capsys):
    cfg = write_config(tmp_path, n_list=[4, 16], adversary={"kind": "scalar", "cells": None})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "PASS crypto.decoding_set_size (n=4" in captured.out
    assert "n=16" not in captured.out
    assert "q^n * q^m = 2^27" in captured.err


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


def test_leakage_n12_fits_in_1gib_address_space(tmp_path):
    # q=2, n=12 with the finest scalar adversary: the explicit capacity rows
    # alone would take 2 GiB, the closed forms need under 100 MiB
    cfg = write_config(tmp_path, n_list=[12], adversary={"kind": "scalar", "cells": None})
    out = tmp_path / "o"
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from leaklab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", child, "leakage", "--config", str(cfg), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    header, row = (out / "leakage.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert vals["n"] == "12"
    assert vals["delta_max"] == vals["ub"]
