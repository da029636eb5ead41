"""Config-driven experiment driver with reproducible CSV output.

One JSON config describes the whole experiment: source and key laws, the
side channel, the adversary encoder, block lengths, rate point, seeds, and
solver tolerances.  Every run writes a manifest (config hash, seeds, tool
version) next to its outputs, and repeated runs with the same config and
seeds are bit-identical.  This module writes every output byte: the
compute modules return numbers, and the CSV schemas, the one number format
(``_fmt``) and the code descriptor live here.

Subcommands: ``verify``, ``simulate``, ``leakage``, ``region``,
``exponent``, ``build-code``.  Exit codes: 0 ok, 1 property violation,
2 config error, which includes a table that would exceed the table cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, adversary, analysis, codec, crypto, galois, leakage
from . import probability as prob

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


class Number:
    """A JSON number, not a boolean or a string.  An ``integer`` has an
    integral value and reads as an int (4.0 is 4).  With ``least`` set, the
    number is finite and at least ``least``, or above it if ``strict``."""

    def __init__(self, least=None, *, integer=False, strict=False):
        self.least = least
        self.integer = integer
        self.strict = strict
        self.kind = "integer" if integer else "number"
        self.range = "" if least is None else f"{'>' if strict else '>='} {least}"
        self.range += ", finite" if self.range and not integer else ""
        self.convert = int if integer else float

    def accepts(self, v) -> bool:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or self.integer and v % 1 != 0:
            return False
        if self.least is None:
            return True
        return abs(v) < math.inf and (v > self.least if self.strict else v >= self.least)


class ListOf:
    """A JSON list, non-empty if ``nonempty``, whose entries read as
    ``item``; ``convert`` builds the value from the entries read."""

    def __init__(self, item, *, convert=list, nonempty=False):
        self.item = item
        self.convert = convert
        self.kind = f"list of {item.kind}"
        self.range = ", ".join(filter(None, ["non-empty" * nonempty, item.range]))
        self.accepts = lambda v: isinstance(v, list) and bool(v or not nonempty)


REQUIRED = "required"  # the default of a key that must be given
COUNT = Number(1, integer=True)
NATURAL = Number(0, integer=True)  # seeds, observations and message ids
PMF = {"alphabet": (COUNT, "q"), "probs": (ListOf(Number(), convert=prob.Pmf), REQUIRED)}

# Each key maps to a nested object, or to a reader and its default.  A tuple
# is a choice among its entries.  A key whose default is null may be given
# as null.  The defaults "q" and "ln |Z|" are worked out from other keys.
SCHEMA = {
    "q": (Number(2, integer=True), REQUIRED),
    "source": PMF,
    "key": PMF,
    "W": {"rows": (ListOf(ListOf(Number()), convert=prob.ChannelMatrix), REQUIRED)},
    "n_list": (ListOf(COUNT, nonempty=True), REQUIRED),
    "R": (Number(0, strict=True), REQUIRED),
    "R_A": (Number(0), "ln |Z|"),
    "gamma": (Number(0, strict=True), 0.05),
    "seeds": {"keymap": (NATURAL, 0), "replay": (NATURAL, 1)},
    "tol": (Number(0), 1e-7),
    "monte_carlo_samples": (COUNT, 2000),
    "code": (("universal", "identity"), "universal"),
    "adversary": {
        "kind": (("scalar", "best_scalar", "table"), "scalar"),
        "cells": (ListOf(ListOf(NATURAL)), None),
        "table": (ListOf(NATURAL, convert=lambda t: np.array(t, np.int64)), None),
    },
    "mu_points": (COUNT, 33),
    "exponents": ((True, False), True),
    # ExponentGrid checks the ranges of its own fields
    "exponent_grid": {
        f.name: (Number(integer=isinstance(f.default, int)), f.default)
        for f in dataclasses.fields(analysis.ExponentGrid)
    },
    "rate_grid": {"RA": (ListOf(Number(0)), []), "R": (ListOf(Number(0)), [])},
}


def _read(kind, value, path: str):
    """``value`` read as ``kind``, or a ConfigError that names ``path``."""
    if isinstance(kind, tuple):
        if not any(type(value) is type(o) and value == o for o in kind):
            raise ConfigError(f"{path} must be one of {list(kind)}, got {value!r}")
        return value
    if not isinstance(kind, dict):
        if not kind.accepts(value):
            bound = f" ({kind.range})" if kind.range else ""
            raise ConfigError(f"{path} must be {kind.kind}{bound}, got {value!r}")
        if isinstance(kind, ListOf):
            value = [_read(kind.item, v, f"{path}[{i}]") for i, v in enumerate(value)]
        try:
            return kind.convert(value)
        except ValueError as e:  # a Pmf or ChannelMatrix that refuses its entries
            raise ConfigError(f"{path}: {e}") from e
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(kind))
    if unknown:
        raise ConfigError(f"unknown key(s) in {path}: {', '.join(unknown)}")
    out = {}
    for key, entry in kind.items():
        if isinstance(entry, dict):
            out[key] = _read(entry, value.get(key, {}), f"{path}.{key}")
        elif key in value and (value[key] is not None or entry[1] is not None):
            out[key] = _read(entry[0], value[key], f"{path}.{key}")
        elif entry[1] == REQUIRED:
            raise ConfigError(f"{path} is missing required key {key!r}")
        else:
            out[key] = entry[1]
    return out


class Experiment:
    """Validated view of one experiment config."""

    def __init__(self, cfg: dict, *, seed_override=None):
        try:
            c = _read(SCHEMA, cfg, "config")
            self.spec = galois.FieldSpec(c["q"])
            self.grid = analysis.ExponentGrid(**c["exponent_grid"])
        except (OverflowError, ValueError) as e:
            raise ConfigError(str(e)) from e
        self.q = c["q"]
        self.p_x = c["source"]["probs"]
        self.p_k = c["key"]["probs"]
        self.W = c["W"]["rows"]
        self.n_list = c["n_list"]
        self.R = c["R"]
        self.R_A = c["R_A"] if "R_A" in cfg else math.log(self.W.out_size)
        self.gamma = c["gamma"]
        self.keymap_seed = c["seeds"]["keymap"]
        self.replay_seed = c["seeds"]["replay"]
        if seed_override is not None:
            self.keymap_seed = _read(NATURAL, seed_override, "--seed")
            self.replay_seed = self.keymap_seed + 1
        self.tol = c["tol"]
        self.mc_samples = c["monte_carlo_samples"]
        self.code_kind = c["code"]
        self.mu_points = c["mu_points"]
        self.exponents = c["exponents"]
        self.rate_grid = c["rate_grid"]
        given = {c["source"]["alphabet"], c["key"]["alphabet"]} - {"q"}  # "q": not given
        if given | {self.p_x.size, self.p_k.size, self.W.in_size} != {self.q}:
            raise ConfigError(f"the source, key and side channel alphabets must be q = {self.q}")
        adv = c["adversary"]
        self.adversary_kind = adv["kind"]
        for key, kind in (("cells", "scalar"), ("table", "table")):
            if adv[key] is not None and adv["kind"] != kind:
                raise ConfigError(f"adversary {key} are read only by kind {kind!r}")
        # the cell of each observation 0..|Z|-1, which the cells must partition
        cells = [[z] for z in range(self.W.out_size)] if adv["cells"] is None else adv["cells"]
        pairs = sorted((z, ci) for ci, cell in enumerate(cells) for z in cell)
        if [z for z, _ in pairs] != list(range(self.W.out_size)):
            raise ConfigError(f"adversary cells {cells} do not partition observations 0..|Z|-1")
        self.cell_labels = [ci for _, ci in pairs]
        self.table = adv["table"]
        if self.adversary_kind == "table" and (
            self.table is None or any(self.table.size != self.W.out_size**n for n in self.n_list)
        ):
            raise ConfigError(f"adversary table needs |Z|^n message ids for n in {self.n_list}")

    @property
    def p_kz(self) -> np.ndarray:
        return prob.joint_from_channel(self.p_k, self.W)

    def build_code(self, n: int):
        if self.code_kind == "identity":
            return codec.UniversalCode.identity(n, self.q)
        return codec.build_universal_code(n, self.R, self.q)

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
        if self.adversary_kind == "scalar":
            enc = adversary.scalar_quantizer_encoder(self.cell_labels, n)
        elif self.adversary_kind == "best_scalar":
            enc = adversary.best_scalar_quantizer(self.p_kz, self.R_A, n)
        else:
            enc = adversary.TableEncoder(self.table, n, self.W.out_size)
        if enc.rate > self.R_A + 1e-12:
            raise ConfigError(
                f"adversary rate {enc.rate:.6f} exceeds the budget R_A = {self.R_A}"
            )
        return enc


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    """The package's one value format: an int or a string as it is, any
    other number to 12 significant digits."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return format(float(v), ".12g")


def _csv(header: str, rows, sep: str = ",") -> str:
    """A table as text: the header line, then one line per row."""
    return header + "\n" + "".join(sep.join(map(_fmt, r)) + "\n" for r in rows)


def _write_text(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _blas() -> dict:
    """Name and version of the BLAS NumPy was built with.  The exponent
    outputs rest on its matrix-product summation order, so a run records
    it next to the Python and NumPy versions."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a NumPy without the dict mode
        return {"name": "unknown", "version": "unknown"}
    return {"name": info.get("name", "unknown"), "version": info.get("version", "unknown")}


def _write_manifest(out_dir: Path, command: str, config_path, cfg_exp, outputs):
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    manifest = {
        "command": command,
        "config": str(config_path),
        "config_sha256": digest,
        "seeds": {"keymap": cfg_exp.keymap_seed, "replay": cfg_exp.replay_seed},
        "tol": cfg_exp.tol,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
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
        except prob.TableCapError:
            raise
        except ValueError as e:
            print(f"notice: skipping n={n}: {e}", file=sys.stderr)
            continue
        yield n, code


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(exp: Experiment, out_dir, config_path) -> int:
    """Run every structural suite; non-zero exit on any violation.

    Each block length prints one line per crypto check, the decryption
    condition included, then one per kernel check; a system whose
    construction probe fails prints ``FAIL construction`` instead.  The
    kernel checks cover the kernel ``leakage_report`` takes: the dense
    stream, whose lines name no kernel, or the translation kernel, whose
    lines say ``kernel=translation``.  Where the translation kernel applies,
    the dense stream is checked as well while its q^n * q^m entries fit the
    table cap, as the dense kernel was before the stream.  The kernels are
    built, and their tables checked against the cap, before the crypto
    suite runs, so a block length that exceeds the cap is refused before
    any check.  Every PASS/FAIL line of both suites is formatted at one
    site, from (suite, label, ``StructuralReport``) triples."""
    failures = 0
    for n, code in _codes(exp):
        try:
            sys_n = exp.build_system(code)
        except AssertionError as e:
            print(f"FAIL construction (n={n}): {e}")
            failures += 1
            continue
        enc = exp.build_encoder(n)
        translation = leakage.build_translation_kernel(sys_n, enc, exp.p_kz)
        kernels = []
        if translation is None or exp.q**n * exp.q**code.m <= prob.TABLE_CAP:
            kernels.append(("", leakage.build_dense_stream(sys_n, enc, exp.p_kz)))
        if translation is not None:
            kernels.append((", kernel=translation", translation))
        rep = crypto.check_structural_properties(sys_n)
        reports = itertools.chain(
            [("crypto", f", mode={rep.mode}", rep)],
            (("kernel", label, leakage.structural_checks(kern)) for label, kern in kernels),
        )
        for suite, label, report in reports:
            for name, entry in report.checks.items():
                status = "PASS" if entry["ok"] else "FAIL"
                extra = f" max_err={entry['max_err']:.3e}" if "max_err" in entry else ""
                extra += "" if entry["ok"] else f" witness={entry['witness']}"
                print(f"{status} {suite}.{name} (n={n}{label}){extra}")
            failures += len(report.failures)
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
    p2 = codec.verify_error_bound(code, exp.p_x, exp.gamma, exp.R)
    rep = leakage.leakage_report(sys_n, enc, exp.p_kz, exp.p_x)
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
        p2.pe_exact,
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
    # the replay's uniform draws at the largest block length, before any work
    prob.check_table("monte_carlo_samples * 2 * n", exp.mc_samples * 2 * max(exp.n_list))
    if exp.exponents:
        calc = analysis.ExponentCalculator(exp.p_kz, exp.grid)
        fvals = (calc.F(exp.R_A, exp.R).value, calc.F_lower(exp.R_A, exp.R).value)
    else:
        fvals = (math.nan, math.nan)
    rows = [_simulate_row(exp, n, code, fvals) for n, code in _codes(exp)]
    rows.sort(key=lambda r: r[0])
    path = _write_text(out_dir, "simulate.csv", _csv(SIMULATE_HEADER, rows))
    _write_manifest(out_dir, "simulate", config_path, exp, [path])
    print(f"wrote {path}")
    return EXIT_OK


# The iters column reads 0 (worst-case leakage is in closed form, with no
# iteration), and tol echoes the config; no leakage value depends on it.
LEAKAGE_HEADER = "n,m,q,RA,R,delta_mi,delta_max,lb,ub,iters,tol"


def cmd_leakage(exp: Experiment, out_dir, config_path) -> int:
    rows = []
    for n, code in _codes(exp):
        sys_n = exp.build_system(code)
        enc = exp.build_encoder(n)
        rep = leakage.leakage_report(sys_n, enc, exp.p_kz, exp.p_x)
        print(
            f"n={n}: adversary rate {enc.rate:.6f} nats "
            f"(budget R_A={exp.R_A:.6f}, slack {exp.R_A - enc.rate:.6f})"
        )
        rows.append([
            n, code.m, exp.q, exp.R_A, exp.R,
            rep.delta_mi, rep.delta_max, rep.lower_bound, rep.upper_bound, 0, exp.tol,
        ])
    rows.sort(key=lambda r: r[0])
    path = _write_text(out_dir, "leakage.csv", _csv(LEAKAGE_HEADER, rows))
    _write_manifest(out_dir, "leakage", config_path, exp, [path])
    print(f"wrote {path}")
    return EXIT_OK


REGION_GP = """# gnuplot script: helper-region boundary sweep
set xlabel "R_A (nats)"
set ylabel "R (nats)"
set grid
plot "region_points.dat" using 1:2 with linespoints title "boundary (I(Z;U), H(K|U))"
"""


def _mu_levels(exp: Experiment) -> np.ndarray:
    """The mu levels of the region sweep, checked against the table cap
    before they are built."""
    prob.check_table("mu_points", exp.mu_points)
    return np.linspace(0.0, 1.0, exp.mu_points)


def cmd_region(exp: Experiment, out_dir, config_path) -> int:
    boundary = analysis.akw_boundary(exp.p_kz, _mu_levels(exp))
    rows = sorted(((p.mu, p.value, p.i_zu, p.h_kgu) for p in boundary.points))
    csv_text = _csv("mu,R_mu", (r[:2] for r in rows))
    dat_text = _csv("# RA R", (r[2:] for r in rows), " ")
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
    # both sweeps' sizes are checked before either solves
    levels = _mu_levels(exp)
    calc = analysis.ExponentCalculator(exp.p_kz, exp.grid)
    boundary = analysis.akw_boundary(exp.p_kz, levels)
    ras = exp.rate_grid["RA"] or list(np.linspace(0.0, boundary.h_k, 5))
    rs = exp.rate_grid["R"] or list(np.linspace(0.0, boundary.h_k, 5))
    rows = []
    for ra in ras:
        for r in rs:
            F = calc.F(ra, r)
            FL = calc.F_lower(ra, r)
            member = analysis.region_membership((ra, r), exp.p_x, boundary)
            rows.append((ra, r, F.value, FL.value, member.label))
    rows.sort(key=lambda t: (t[0], t[1]))
    p1 = _write_text(out_dir, "exponent.csv", _csv("RA,R,F,F_lower,member", rows))
    p2 = _write_text(out_dir, "exponent.gp", EXPONENT_GP)
    _write_manifest(out_dir, "exponent", config_path, exp, [p1, p2])
    print(f"wrote {p1}")
    return EXIT_OK


def cmd_build_code(exp: Experiment, out_dir, config_path) -> int:
    outputs = []
    for n, code in _codes(exp):
        doc = {
            "n": code.n,
            "m": code.m,
            "q": code.q,
            "order": code.order,
            "rate": code.rate,
            "rate_window_ok": code.rate_window_ok(exp.R),
            "decoding_set_size": code.decoding_set_size,
            "type_order": [list(t.counts) for t in code.type_order],
        }
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
    args = parser.parse_args(argv)

    try:
        exp = Experiment(load_config(args.config), seed_override=args.seed)
        # looked up at call time, so a handler replaced on the module runs
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        return handler(exp, Path(args.out), args.config)
    except (ConfigError, prob.TableCapError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
