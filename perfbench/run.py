"""leaklab benchmark: three CLI workloads, end to end and layer by layer.

Run from the root of a leaklab checkout:

    python3 perfbench/run.py --workload leakage-ladder --seed 0 --seconds 40 --trace 0

Every repetition is a fresh child process that calls ``leaklab.cli.main``
in-process for each subcommand of the workload, under an address-space
limit.  ``--trace 0`` reports the end-to-end metrics (setup_s, wall_s,
peak_rss_mib); ``--trace 1`` wraps every module's public functions from
outside and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  See
perfbench/README.md for the workloads, checks and metric definitions.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_PROBES = 3
AS_LIMIT_BYTES = 3 * 2**30
# One BLAS thread in every child: each repetition is single-process and
# single-threaded, so it does not time the scheduler of a shared machine.
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
RUN_DEADLINE_S = 160.0
LOG_FAILURES = 10

# Tolerances of the correctness checks (see README.md).
IDENTITY_TOL = 1e-9  # lb <= delta_max <= ub, delta_max = ub, 0 <= delta_mi <= delta_max, R_mu(1) = 0
EXACT_TOL = 1e-8  # exact leakage and error-probability columns vs the reference
SOLVER_TOL = 1e-6  # F, F_lower and R_mu vs the reference; F >= F_lower
# R_mu(0) = H(K|Z).  The mu=0 optimum is the corner U=Z, which the multistart
# engine's softmax logits reach only in the limit: at this commit it stops
# 1.05e-5 above H(K|Z) on the ternary config.  The tight guard on R_mu is the
# reference comparison (SOLVER_TOL) on every row.
R_MU0_TOL = 2e-5

BSC = {
    "q": 2,
    "source": {"probs": [0.89, 0.11]},
    "key": {"probs": [0.5, 0.5]},
    "W": {"rows": [[0.9, 0.1], [0.1, 0.9]]},
    "adversary": {"kind": "scalar", "cells": None},
    "R": 0.5,
    "R_A": 0.7,
    "gamma": 0.05,
    "tol": 1e-7,
    "exponents": False,
}
TERNARY = {
    "q": 3,
    "source": {"probs": [0.7, 0.2, 0.1]},
    "key": {"probs": [0.4, 0.35, 0.25]},
    "W": {"rows": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]},
    "adversary": {"kind": "scalar", "cells": None},
    "R": 0.8,
    "R_A": 1.1,
    "gamma": 0.05,
    "tol": 1e-7,
    "exponents": False,
}

# workload -> steps of (subcommand, config).  Each config is the program's
# only input besides the seed, which goes to the CLI as --seed.
WORKLOADS = {
    "leakage-ladder": [
        ("leakage", {**BSC, "n_list": [8, 9, 10]}),
        ("leakage", {**TERNARY, "n_list": [4, 5, 6]}),
    ],
    "replay-verify": [
        ("verify", {**BSC, "n_list": [10, 11]}),
        ("simulate", {**BSC, "n_list": [6, 8], "monte_carlo_samples": 4000}),
    ],
    "exponent-surface": [
        ("exponent", {
            **BSC,
            "n_list": [4],
            "exponents": True,
            "mu_points": 9,
            "exponent_grid": {
                "mu_points": 3, "alpha_points": 3, "lambda_points": 5,
                "refine_rounds": 1, "refine_points": 3,
            },
            "rate_grid": {"RA": [0.0, 0.3], "R": [0.1, 0.3, 0.5]},
        }),
        ("region", {**TERNARY, "n_list": [4], "mu_points": 5}),
    ],
}
# Outputs of exponent-surface do not depend on the seed, so its reference
# values are checked on every seed; the others only on DEFAULT_SEED.
SEED_FREE = {"exponent-surface"}

CSV_OF = {
    "leakage": "leakage.csv",
    "simulate": "simulate.csv",
    "exponent": "exponent.csv",
    "region": "region.csv",
}
VERIFY_CRYPTO = ("decoding_set_size", "injective_on_D", "surjective", "key_independent_D")
VERIFY_KERNEL = ("row_sum_identity", "uniform_ciphertext")
# reference comparison: column -> tolerance (0 means exactly equal)
REF_COLUMNS = {
    "leakage": {"n": 0, "m": 0, "q": 0, "RA": 0, "R": 0, "tol": 0,
                "delta_mi": EXACT_TOL, "delta_max": EXACT_TOL,
                "lb": EXACT_TOL, "ub": EXACT_TOL},
    "simulate": {"n": 0, "m": 0, "q": 0, "R": 0, "RA": 0, "gamma": 0, "pe_mc": 0,
                 "pe_exact": EXACT_TOL, "pe_bound": EXACT_TOL, "E_gamma": EXACT_TOL,
                 "delta_mi": EXACT_TOL, "delta_max": EXACT_TOL,
                 "delta_max_lb": EXACT_TOL, "delta_max_ub": EXACT_TOL},
    "exponent": {"RA": 0, "R": 0, "F": SOLVER_TOL, "F_lower": SOLVER_TOL, "member": 0},
    "region": {"mu": 0, "R_mu": SOLVER_TOL},
}
ROW_KEY = {"leakage": ("n",), "simulate": ("n",), "exponent": ("RA", "R"), "region": ("mu",)}


# ---------------------------------------------------------------------------
# Running repetitions
# ---------------------------------------------------------------------------


class Run:
    """Child processes of one benchmark run, with their outputs."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.configs = []
        for i, (cmd, cfg) in enumerate(WORKLOADS[workload]):
            path = work / f"config-{i}-{cmd}.json"
            path.write_text(json.dumps(cfg, indent=1) + "\n")
            self.configs.append((cmd, path))
        self.count = 0

    def steps(self, out: Path):
        return [
            [cmd, "--config", str(path), "--out", str(out / f"{i}-{cmd}"), "--seed", str(self.seed)]
            for i, (cmd, path) in enumerate(self.configs)
        ]

    def child(self, *, trace: bool = False, probe: bool = False) -> dict:
        """Run one repetition (or setup probe) and return its record."""
        self.count += 1
        rep_dir = self.work / f"rep{self.count}"
        rep_dir.mkdir()
        spec = {
            "root": str(self.root),
            "steps": self.steps(rep_dir),
            "as_limit_bytes": AS_LIMIT_BYTES,
            "trace": trace,
            "probe": probe,
            "result": str(rep_dir / "result.json"),
        }
        spec_path = rep_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = max(RUN_DEADLINE_S - (time.monotonic() - self.started), 5.0)
        with open(rep_dir / "child.log", "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), repr(t_spawn)],
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=self.root,
                env={**os.environ, **BLAS_ENV},
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        record = {
            "dir": rep_dir,
            "exit": proc.returncode,
            "child_s": time.monotonic() - t_spawn,
            "peak_rss_mib": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        try:
            record.update(json.loads((rep_dir / "result.json").read_text()))
        except (OSError, json.JSONDecodeError):
            record["steps"] = None
        record["log"] = (rep_dir / "child.log").read_text(errors="replace")
        return record

    def elapsed(self) -> float:
        return time.monotonic() - self.started


# ---------------------------------------------------------------------------
# Correctness checks: each check is one operation
# ---------------------------------------------------------------------------


def _read_csv(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def _h_k_given_z(cfg) -> float:
    p_k = cfg["key"]["probs"]
    rows = cfg["W"]["rows"]
    h = 0.0
    for z in range(len(rows[0])):
        p_z = sum(p_k[k] * rows[k][z] for k in range(len(p_k)))
        for k in range(len(p_k)):
            p = p_k[k] * rows[k][z]
            if p > 0:
                h -= p * math.log(p / p_z)
    return h


def _close(a: str, b: str, tol: float) -> bool:
    if tol == 0:
        if a == b:
            return True
        try:
            return float(a) == float(b)
        except ValueError:
            return False
    x, y = float(a), float(b)
    return abs(x - y) <= tol * (1.0 + abs(y))


def expected_rows(cmd, cfg):
    if cmd in ("leakage", "simulate"):
        return [(n,) for n in cfg["n_list"]]
    if cmd == "exponent":
        g = cfg["rate_grid"]
        return [(ra, r) for ra in g["RA"] for r in g["R"]]
    if cmd == "region":
        k = cfg["mu_points"]
        return [(i / (k - 1),) for i in range(k)]
    return []


def _row_lookup(cmd, rows):
    """Index CSV rows by their key columns, compared as numbers."""
    return {tuple(float(r[c]) for c in ROW_KEY[cmd]): r for r in rows}


def row_checks(cmd, cfg, key, row, ref_rows) -> list:
    """Checks of one expected output row, as (name, ok) pairs.

    A missing row fails every check.  ``ref_rows`` is None when reference
    values are not checked on this seed.
    """
    r = row if row is not None else _NanRow()
    checks = []
    if cmd in ("leakage", "simulate"):
        cols = ("delta_mi", "delta_max", "lb", "ub")
        if cmd == "simulate":
            cols = ("delta_mi", "delta_max", "delta_max_lb", "delta_max_ub")
        dmi, dmax, lb, ub = (float(r[c]) for c in cols)
        checks += [
            ("lb<=delta_max<=ub", lb - IDENTITY_TOL <= dmax <= ub + IDENTITY_TOL),
            ("delta_max=ub", abs(dmax - ub) <= IDENTITY_TOL),
            ("0<=delta_mi<=delta_max", -IDENTITY_TOL <= dmi <= dmax + IDENTITY_TOL),
        ]
    elif cmd == "exponent":
        checks.append(("F>=F_lower", float(r["F"]) >= float(r["F_lower"]) - SOLVER_TOL))
    elif cmd == "region" and key[0] in (0.0, 1.0):
        if key[0] == 0.0:
            ok = abs(float(r["R_mu"]) - _h_k_given_z(cfg)) <= R_MU0_TOL
        else:
            ok = abs(float(r["R_mu"])) <= IDENTITY_TOL
        checks.append(("R_mu endpoint", ok))
    if ref_rows is not None:
        ref = ref_rows.get(key)
        for col, tol in REF_COLUMNS[cmd].items():
            checks.append((f"{col}=reference", ref is not None and _close(r[col], ref[col], tol)))
    return [(name, ok and row is not None) for name, ok in checks]


class _NanRow(dict):
    """Stands in for a missing CSV row: every column reads as NaN."""

    def __missing__(self, key):
        return "nan"


def check_rep(run: Run, record: dict, reference: dict | None) -> list:
    """All operations of one repetition as (name, ok) pairs."""
    ops = []
    steps = record.get("steps") or [None] * len(run.configs)
    for i, ((cmd, cfg), step) in enumerate(zip(WORKLOADS[run.workload], steps)):
        tag = f"{i}-{cmd}"
        ok_exit = step is not None and step["error"] is None and step["exit"] == 0
        ops.append((f"{tag} exit 0", ok_exit))
        if cmd == "verify":
            lines = (step or {}).get("stdout", "").splitlines()
            for n in cfg["n_list"]:
                wants = [f"PASS crypto.{c} (n={n}, mode=" for c in VERIFY_CRYPTO]
                wants += [f"PASS kernel.{c} (n={n})" for c in VERIFY_KERNEL]
                for want in wants:
                    ops.append((f"{tag} {want}", any(l.startswith(want) for l in lines)))
            continue
        path = record["dir"] / tag / CSV_OF[cmd]
        rows = _row_lookup(cmd, _read_csv(path.read_text()) if path.exists() else [])
        ref_rows = None if reference is None else _row_lookup(cmd, reference[tag])
        for key in expected_rows(cmd, cfg):
            key = tuple(float(v) for v in key)
            ops += [
                (f"{tag} row {key} {name}", ok)
                for name, ok in row_checks(cmd, cfg, key, rows.get(key), ref_rows)
            ]
    return ops


def csv_bytes(run: Run, record: dict) -> dict:
    out = {}
    for i, (cmd, _) in enumerate(WORKLOADS[run.workload]):
        if cmd in CSV_OF:
            path = record["dir"] / f"{i}-{cmd}" / CSV_OF[cmd]
            out[f"{i}-{cmd}"] = path.read_bytes() if path.exists() else None
    return out


def identical_csvs(first: dict, other: dict, what: str) -> list:
    return [
        (f"{tag} csv {what}", first[tag] is not None and first[tag] == other.get(tag))
        for tag in first
    ]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "blas_threads": BLAS_ENV,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                "unknown",
            )
    except OSError:
        info["cpu_model"] = "unknown"
    try:
        import numpy

        info["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as e:  # machine description only; never fails the run
        info.setdefault("numpy", "unknown")
        info["blas"] = f"unknown ({type(e).__name__})"
    return info


def metric_units(trace: bool) -> dict:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED and workload not in SEED_FREE:
        return None
    path = BENCH_DIR / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())[workload]


def measure(run: Run, seconds: float, trace: bool, reference) -> tuple:
    """Run repetitions for ``seconds``; return (metrics, ops, records).

    A repetition starts only if, at the median duration of the earlier ones
    of its kind, it ends within ``seconds`` of the start of the run, so a
    run does not overrun by a whole repetition.  There is always at least
    one repetition, and a traced run always has one traced repetition.
    """
    run.child(probe=True)  # warm the bytecode and file caches; not counted
    setups = [run.child(probe=True)["setup_s"] for _ in range(0 if trace else SETUP_PROBES)]
    reps, traced = [], []
    ops = []
    first_csv = None
    while True:
        traced_rep = trace and bool(reps)  # a traced run starts with one untraced repetition
        record = run.child(trace=traced_rep)
        (traced if traced_rep else reps).append(record)
        ops += check_rep(run, record, reference)
        got = csv_bytes(run, record)
        if first_csv is None:
            first_csv = got
        else:
            what = "traced = untraced" if trace else "identical across repetitions"
            ops += identical_csvs(first_csv, got, what)
        if traced or not trace:
            next_s = statistics.median(r["child_s"] for r in (traced if trace else reps))
            if run.elapsed() + next_s > seconds:
                break
    timed = [r for r in reps if r.get("wall_s") is not None]
    if not timed:
        raise RuntimeError("no repetition finished; last child log:\n" + reps[-1]["log"])
    if not trace:
        setups += [r["setup_s"] for r in timed]
        metrics = {
            "setup_s": statistics.median(s for s in setups if s is not None),
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in timed),
        }
        return metrics, ops, reps
    layers = [r["layers"] for r in traced if r.get("layers")]
    if not layers:
        raise RuntimeError("no traced repetition finished; last child log:\n" + traced[-1]["log"])
    # counts repeat exactly across repetitions; median_low keeps them whole
    metrics = {
        k: (statistics.median_low if isinstance(v, int) else statistics.median)(
            [l[k] for l in layers]
        )
        for k, v in layers[0].items()
    }
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced if r.get("wall_s") is not None)
        - statistics.median(r["wall_s"] for r in timed)
    )
    return metrics, ops, reps + traced


def write_reference(root: Path) -> None:
    """Record the default-seed CSV rows of every workload as reference.json."""
    doc = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        work = _work_dir(workload, DEFAULT_SEED)
        try:
            run = Run(root, workload, DEFAULT_SEED, work)
            record = run.child()
            doc[workload] = {
                tag: _read_csv(text.decode()) for tag, text in csv_bytes(run, record).items()
                if text is not None
            }
            failed = [n for n, ok in check_rep(run, record, None) if not ok]
            if failed:
                raise RuntimeError(f"{workload}: checks failed: {failed}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


def _work_dir(workload: str, seed: int) -> Path:
    work = BENCH_DIR / "_out" / f"run-{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default-seed outputs as reference.json and exit")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "leaklab" / "cli.py").is_file():
        print(f"error: {root} is not a leaklab checkout (no src/leaklab/cli.py)", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(root)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    trace = bool(args.trace)
    units = metric_units(trace)
    reference = load_reference(args.workload, args.seed)

    work = _work_dir(args.workload, args.seed)
    try:
        run = Run(root, args.workload, args.seed, work)
        metrics, ops, records = measure(run, args.seconds, trace, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [name for name, ok in ops if not ok]
    for name in failures[:LOG_FAILURES]:
        print(f"FAILED {name}", file=sys.stderr)
    for r in records:
        for step in r.get("steps") or []:
            if step["error"]:
                print(f"error in {step['argv'][0]}:\n{step['error']}", file=sys.stderr)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(records),
        "reference_checked": reference is not None,
        "machine": machine_info(),
        "metrics": metrics,
        "repetitions_measured": [
            {**{k: r.get(k) for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")},
             "steps_s": [step.get("s") for step in r.get("steps") or []]}
            for r in records
        ],
    }
    if trace:
        summary["spans"] = records[-1].get("spans", [])
    last = BENCH_DIR / "_out" / f"last-{args.workload}-trace{args.trace}.json"
    last.write_text(json.dumps(summary, indent=1) + "\n")
    print("machine: " + json.dumps(summary["machine"], sort_keys=True))
    print(f"repetitions: {len(records)}, reference checked: {reference is not None}")
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
