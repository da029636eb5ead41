"""Config-driven experiment driver with reproducible CSV output.

One JSON config describes the whole experiment: source and key laws, the
side channel, the adversary encoder, block lengths, rate point, seeds, and
solver tolerances.  Every run writes a manifest (config hash, seeds, tool
version) next to its outputs, and repeated runs with the same config and
seeds are bit-identical.

Subcommands: ``verify``, ``simulate``, ``leakage``, ``region``,
``exponent``, ``build-code``.  Exit codes: 0 ok, 1 property violation,
2 config error, which includes a table that would exceed its size cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, adversary, analysis, codec, crypto, galois, leakage
from . import probability as prob
from .leakage import _fmt

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def _csv_line(values) -> str:
    return ",".join(_fmt(v) for v in values)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


# The keys each config object may carry; any other key is a typo.
CONFIG_KEYS = {
    "q", "source", "key", "W", "n_list", "R", "R_A", "gamma", "seeds", "tol",
    "monte_carlo_samples", "code", "mutation", "adversary", "mu_points",
    "exponents", "exponent_grid", "rate_grid",
}
NESTED_CONFIG_KEYS = {
    "source": {"alphabet", "probs"},
    "key": {"alphabet", "probs"},
    "W": {"rows"},
    "seeds": {"keymap", "replay"},
    "exponent_grid": {
        "mu_points", "alpha_points", "lambda_points", "lambda_max",
        "refine_rounds", "refine_points",
    },
    "rate_grid": {"RA", "R"},
    "adversary": {"kind", "cells", "table"},
}


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


class Experiment:
    """Validated view of one experiment config."""

    def __init__(self, cfg: dict, *, seed_override=None, tol_override=None):
        _check_keys(cfg, CONFIG_KEYS, "config")
        for name, allowed in NESTED_CONFIG_KEYS.items():
            if name in cfg:
                _check_keys(cfg[name], allowed, name)
        try:
            self.q = int(_require(cfg, "q"))
            self.spec = galois.FieldSpec(self.q)
            self.p_x = prob.pmf_from_json(_require(cfg, "source"))
            self.p_k = prob.pmf_from_json(_require(cfg, "key"))
            self.W = prob.channel_from_json(_require(cfg, "W"))
            self.n_list = [int(n) for n in _require(cfg, "n_list")]
            self.R = float(_require(cfg, "R"))
            self.R_A = float(cfg.get("R_A", math.log(self.W.out_size)))
            self.gamma = float(cfg.get("gamma", 0.05))
            seeds = cfg.get("seeds", {})
            self.keymap_seed = int(seeds.get("keymap", 0))
            self.replay_seed = int(seeds.get("replay", 1))
            if seed_override is not None:
                self.keymap_seed = int(seed_override)
                self.replay_seed = int(seed_override) + 1
            self.tol = float(tol_override if tol_override is not None else cfg.get("tol", 1e-7))
            self.mc_samples = int(cfg.get("monte_carlo_samples", 2000))
            self.code_kind = cfg.get("code", "universal")
            self.mutation = cfg.get("mutation")
            self.adversary_cfg = cfg.get("adversary", {"kind": "scalar", "cells": None})
            self.mu_points = int(cfg.get("mu_points", 33))
            self.exponents = bool(cfg.get("exponents", True))
            g = cfg.get("exponent_grid", {})
            self.grid = analysis.ExponentGrid(
                mu_points=int(g.get("mu_points", 21)),
                alpha_points=int(g.get("alpha_points", 21)),
                lambda_points=int(g.get("lambda_points", 40)),
                lambda_max=float(g.get("lambda_max", 5.0)),
                refine_rounds=int(g.get("refine_rounds", 2)),
                refine_points=int(g.get("refine_points", 5)),
            )
            rg = cfg.get("rate_grid", {})
            self.rate_grid_ra = [float(v) for v in rg.get("RA", [])]
            self.rate_grid_r = [float(v) for v in rg.get("R", [])]
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e
        if not self.n_list:
            raise ConfigError("n_list must be non-empty")
        if not (math.isfinite(self.R) and self.R > 0):
            raise ConfigError(f"R must be a positive finite rate, got {self.R}")
        if self.p_x.size != self.q or self.p_k.size != self.q:
            raise ConfigError("source/key alphabet must match q")
        if self.W.in_size != self.q:
            raise ConfigError("side channel input alphabet must match q")
        if self.mutation not in (None, "decoder"):
            raise ConfigError(f"unknown mutation fixture {self.mutation!r}")

    @property
    def p_kz(self) -> np.ndarray:
        return prob.joint_from_channel(self.p_k, self.W)

    def build_code(self, n: int):
        if self.code_kind == "identity":
            code = codec.UniversalCode.identity(n, self.q)
        elif self.code_kind == "universal":
            code = codec.build_universal_code(n, self.R, self.q)
        else:
            raise ConfigError(f"unknown code kind {self.code_kind!r}")
        if self.mutation == "decoder":
            code = _MutatedDecoderCode(code.n, code.m, code.q, code.order)
        return code

    def build_system(self, code: codec.UniversalCode) -> crypto.Cryptosystem:
        n = code.n
        seed = np.random.SeedSequence([self.keymap_seed, n])
        if self.code_kind == "identity":
            keymap = galois.AffineMap(
                np.eye(n, dtype=np.int64), np.zeros(n, dtype=np.int64), self.spec
            )
        else:
            keymap = galois.random_affine(n, code.m, self.spec, seed)
        return crypto.Cryptosystem(code, keymap)

    def build_encoder(self, n: int):
        kind = self.adversary_cfg.get("kind", "scalar")
        if kind == "scalar":
            cells = self.adversary_cfg.get("cells")
            if cells is None:
                labels = list(range(self.W.out_size))  # finest quantizer
            else:
                labels = [0] * self.W.out_size
                for ci, cell in enumerate(cells):
                    for z in cell:
                        labels[int(z)] = ci
            enc = adversary.scalar_quantizer_encoder(labels, n)
        elif kind == "best_scalar":
            enc = adversary.best_scalar_quantizer(self.p_kz, self.R_A, n)
        elif kind == "table":
            enc = adversary.TableEncoder(
                np.asarray(self.adversary_cfg["table"], dtype=np.int64),
                n,
                self.W.out_size,
            )
        else:
            raise ConfigError(f"unknown adversary kind {kind!r}")
        if enc.rate > self.R_A + 1e-12:
            raise ConfigError(
                f"adversary rate {enc.rate:.6f} exceeds the budget R_A = {self.R_A}"
            )
        return enc


class _MutatedDecoderCode(codec.UniversalCode):
    """Test fixture: a decoder with two outputs swapped, so the enumerated
    decoding set comes up short and verify fails with a witness."""

    def decode(self, c):
        # codewords 0 and 1 are 0...00 and 0...01: swap them by flipping the
        # last symbol where all others are 0 and it is 0 or 1
        c = np.array(c, dtype=np.int64)
        swap = ~np.any(c[..., :-1], axis=-1) & np.isin(c[..., -1], (0, 1))
        c[..., -1] = np.where(swap, 1 - c[..., -1], c[..., -1])
        return super().decode(c)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _write_text(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _write_manifest(out_dir: Path, command: str, config_path, cfg_exp, outputs):
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    manifest = {
        "command": command,
        "config": str(config_path),
        "config_sha256": digest,
        "seeds": {"keymap": cfg_exp.keymap_seed, "replay": cfg_exp.replay_seed},
        "tol": cfg_exp.tol,
        "version": __version__,
        "outputs": sorted(str(p.name) for p in outputs),
    }
    _write_text(out_dir, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _codes(exp: Experiment):
    """(n, code) for each block length of the config, in order.  A block
    length where the rate gives no code (m = 0) is skipped with a notice on
    stderr, the same way in every subcommand that builds codes."""
    for n in exp.n_list:
        try:
            code = exp.build_code(n)
        except ValueError as e:
            print(f"notice: skipping n={n}: {e}", file=sys.stderr)
            continue
        yield n, code


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(exp: Experiment, out_dir, config_path) -> int:
    """Run every structural suite; non-zero exit on any violation.

    The kernel is built before the crypto suite runs, so a block length
    whose kernel exceeds the table cap is refused before any check."""
    failures = 0
    for n, code in _codes(exp):
        try:
            sys_n = exp.build_system(code)
        except AssertionError as e:
            print(f"FAIL construction (n={n}): {e}")
            failures += 1
            continue
        enc = exp.build_encoder(n)
        kern = leakage.build_gamma_kernel(sys_n, enc, exp.p_kz)
        rep = crypto.check_structural_properties(sys_n)
        for name, entry in rep.checks.items():
            status = "PASS" if entry["ok"] else "FAIL"
            extra = "" if entry["ok"] else f" witness={entry['witness']}"
            print(f"{status} crypto.{name} (n={n}, mode={rep.mode}){extra}")
        failures += len(rep.failures)
        kchk = leakage.structural_checks(kern)
        for name, ok, err, wit in (
            ("row_sum_identity", kchk.row_sums_ok, kchk.row_sum_max_error, kchk.row_sum_witness),
            ("uniform_ciphertext", kchk.uniform_ok, kchk.uniform_max_error, kchk.uniform_witness),
        ):
            status = "PASS" if ok else "FAIL"
            extra = f" max_err={err:.3e}" + ("" if ok else f" witness={wit}")
            print(f"{status} kernel.{name} (n={n}){extra}")
            if not ok:
                failures += 1
    _write_manifest(out_dir, "verify", config_path, exp, [])
    return EXIT_VIOLATION if failures else EXIT_OK


def _replay_draws(rng, p_x, p_k, samples: int, n: int):
    """Plaintext and key blocks of the Monte Carlo replay, (samples, n) each.

    Equal, draw for draw, to the per-sample loop

        for i in range(samples):
            xs[i] = rng.choice(q, size=n, p=p_x)
            ks[i] = rng.choice(q, size=n, p=p_k)

    ``Generator.choice`` with ``p`` and replacement normalizes
    cdf = cumsum(p) / cdf[-1], draws u = rng.random(n) and returns
    searchsorted(cdf, u, side="right"); it takes nothing else from the
    stream.  The loop therefore reads the stream as consecutive blocks of n
    doubles, alternately for x_i and k_i, which is rng.random((samples, 2,
    n)) in C order: [i, 0] is the block of x_i and [i, 1] that of k_i.
    """
    u = rng.random((samples, 2, n))
    out = []
    for probs, block in ((p_x, u[:, 0]), (p_k, u[:, 1])):
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        out.append(np.searchsorted(cdf, block, side="right"))
    return out


def _simulate_row(exp: Experiment, n: int, code, fvals):
    sys_n = exp.build_system(code)
    enc = exp.build_encoder(n)
    pe = codec.error_probability_exact(code, exp.p_x)
    p2 = codec.verify_error_bound(code, exp.p_x, exp.gamma, R=exp.R)
    rep = leakage.leakage_report(
        sys_n, enc, exp.p_kz, exp.p_x, R_A=exp.R_A, R=exp.R, tol=exp.tol
    )
    # seeded transmission replay through the real encrypt/decrypt path
    rng = np.random.default_rng(np.random.SeedSequence([exp.replay_seed, n]))
    xs, ks = _replay_draws(rng, exp.p_x.probs, exp.p_k.probs, exp.mc_samples, n)
    back = sys_n.decrypt(ks, sys_n.encrypt(ks, xs))
    pe_mc = np.count_nonzero(np.any(back != xs, axis=1)) / exp.mc_samples
    return [
        n,
        code.m,
        exp.q,
        exp.R,
        exp.R_A,
        exp.gamma,
        pe,
        pe_mc,
        p2.bound,
        p2.exponent,
        rep.delta_mi,
        rep.delta_max,
        rep.lower_bound,
        rep.upper_bound,
        fvals[0],
        fvals[1],
    ]


SIMULATE_HEADER = (
    "n,m,q,R,RA,gamma,pe_exact,pe_mc,pe_bound,E_gamma,"
    "delta_mi,delta_max,delta_max_lb,delta_max_ub,F,F_lower"
)


def cmd_simulate(exp: Experiment, out_dir, config_path) -> int:
    if exp.exponents:
        calc = analysis.ExponentCalculator(exp.p_kz, exp.grid)
        fvals = (calc.F(exp.R_A, exp.R).value, calc.F_lower(exp.R_A, exp.R).value)
    else:
        fvals = (math.nan, math.nan)
    rows = [_simulate_row(exp, n, code, fvals) for n, code in _codes(exp)]
    rows.sort(key=lambda r: r[0])
    text = SIMULATE_HEADER + "\n" + "".join(_csv_line(r) + "\n" for r in rows)
    path = _write_text(out_dir, "simulate.csv", text)
    _write_manifest(out_dir, "simulate", config_path, exp, [path])
    print(f"wrote {path}")
    return EXIT_OK


def cmd_leakage(exp: Experiment, out_dir, config_path) -> int:
    reps = []
    for n, code in _codes(exp):
        sys_n = exp.build_system(code)
        enc = exp.build_encoder(n)
        rep = leakage.leakage_report(
            sys_n, enc, exp.p_kz, exp.p_x, R_A=exp.R_A, R=exp.R, tol=exp.tol
        )
        gap = exp.R_A - rep.diagnostics["adversary_rate"]
        print(
            f"n={n}: adversary rate {rep.diagnostics['adversary_rate']:.6f} nats "
            f"(budget R_A={exp.R_A:.6f}, slack {gap:.6f})"
        )
        reps.append(rep)
    reps.sort(key=lambda r: r.n)
    text = leakage.LeakageReport.CSV_HEADER + "\n" + "".join(
        r.csv_row() + "\n" for r in reps
    )
    path = _write_text(out_dir, "leakage.csv", text)
    _write_manifest(out_dir, "leakage", config_path, exp, [path])
    print(f"wrote {path}")
    return EXIT_OK


REGION_GP = """# gnuplot script: helper-region boundary sweep
set xlabel "R_A (nats)"
set ylabel "R (nats)"
set grid
plot "region_points.dat" using 1:2 with linespoints title "boundary (I(Z;U), H(K|U))"
"""


def cmd_region(exp: Experiment, out_dir, config_path) -> int:
    mus = np.linspace(0.0, 1.0, exp.mu_points)
    results = [analysis.r_mu(exp.p_kz, float(mu)) for mu in mus]
    rows = sorted(((r.mu, r.value, r.i_zu, r.h_kgu) for r in results))
    csv_text = "mu,R_mu\n" + "".join(_csv_line(r[:2]) + "\n" for r in rows)
    dat_text = "# RA R\n" + "".join(
        f"{_fmt(r[2])} {_fmt(r[3])}\n" for r in rows
    )
    p1 = _write_text(out_dir, "region.csv", csv_text)
    p2 = _write_text(out_dir, "region_points.dat", dat_text)
    p3 = _write_text(out_dir, "region.gp", REGION_GP)
    _write_manifest(out_dir, "region", config_path, exp, [p1, p2, p3])
    print(f"wrote {p1}")
    return EXIT_OK


EXPONENT_GP = """# gnuplot script: secrecy-exponent surface
set xlabel "R_A (nats)"
set ylabel "R (nats)"
set zlabel "exponent (nats)"
set dgrid3d
splot "exponent.csv" using 1:2:3 every ::1 with lines title "F"
"""


def cmd_exponent(exp: Experiment, out_dir, config_path) -> int:
    boundary = analysis.akw_boundary(exp.p_kz, np.linspace(0, 1, exp.mu_points))
    calc = analysis.ExponentCalculator(exp.p_kz, exp.grid)
    ras = exp.rate_grid_ra or list(np.linspace(0.0, boundary.h_k, 5))
    rs = exp.rate_grid_r or list(np.linspace(0.0, boundary.h_k, 5))
    rows = []
    for ra in ras:
        for r in rs:
            F = calc.F(ra, r)
            FL = calc.F_lower(ra, r)
            member = analysis.region_membership(
                (ra, r), exp.p_x, exp.p_kz, boundary=boundary
            )
            rows.append((ra, r, F.value, FL.value, member.label))
    rows.sort(key=lambda t: (t[0], t[1]))
    text = "RA,R,F,F_lower,member\n" + "".join(_csv_line(r) + "\n" for r in rows)
    p1 = _write_text(out_dir, "exponent.csv", text)
    p2 = _write_text(out_dir, "exponent.gp", EXPONENT_GP)
    _write_manifest(out_dir, "exponent", config_path, exp, [p1, p2])
    print(f"wrote {p1}")
    return EXIT_OK


def cmd_build_code(exp: Experiment, out_dir, config_path) -> int:
    outputs = []
    for n, code in _codes(exp):
        doc = code.to_json()
        doc["rate"] = code.rate
        doc["rate_window_ok"] = code.rate_window_ok(exp.R)
        doc["decoding_set_size"] = code.decoding_set_size
        doc["type_order"] = [list(t.counts) for t in code.type_order]
        outputs.append(
            _write_text(out_dir, f"code_n{n}.json", json.dumps(doc, indent=2) + "\n")
        )
    _write_manifest(out_dir, "build-code", config_path, exp, outputs)
    print(f"wrote {len(outputs)} descriptor(s) to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="leaklab",
        description="source encryption under side-channel leakage: experiments",
    )
    parser.add_argument("command", choices=[
        "verify", "simulate", "leakage", "region", "exponent", "build-code",
    ])
    parser.add_argument("--config", required=True, help="experiment JSON")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override seeds")
    parser.add_argument(
        "--tol", type=float, default=None,
        help="tolerance echoed in leakage outputs (no leakage value depends on it)",
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        exp = Experiment(cfg, seed_override=args.seed, tol_override=args.tol)
        out_dir = Path(args.out)
        if args.command == "verify":
            return cmd_verify(exp, out_dir, args.config)
        if args.command == "simulate":
            return cmd_simulate(exp, out_dir, args.config)
        if args.command == "leakage":
            return cmd_leakage(exp, out_dir, args.config)
        if args.command == "region":
            return cmd_region(exp, out_dir, args.config)
        if args.command == "exponent":
            return cmd_exponent(exp, out_dir, args.config)
        if args.command == "build-code":
            return cmd_build_code(exp, out_dir, args.config)
    except (ConfigError, prob.TableCapError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
