"""Layer tracing installed from outside the package.

``Tracer.install`` replaces the public functions and methods of every
``leaklab`` module by timing wrappers.  Nothing under ``src/`` changes: the
wrappers are set on module and class attributes, and a name bound by
``from ... import`` is replaced in every module that holds it.

Each wrapped call pushes a frame on one stack.  On exit the call adds its
duration to its name's inclusive time and to its parent frame's child time,
so self time (a span minus its child spans) is exact without storing one
span per call.  Calls made 10^4 or more times per run are aggregated only;
all others also keep a span (name, start, end, parent span) in memory,
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

_clock = time.perf_counter

# (metric prefix, owner attribute path, keep one span per call)
# The owner path is "module.function" or "module.Class.method" below leaklab.
TARGETS = [
    ("cli.verify", "cli.cmd_verify", True),
    ("cli.simulate", "cli.cmd_simulate", True),
    ("cli.leakage", "cli.cmd_leakage", True),
    ("cli.region", "cli.cmd_region", True),
    ("cli.exponent", "cli.cmd_exponent", True),
    ("codec.encode", "codec.UniversalCode.encode", False),
    ("codec.decode", "codec.UniversalCode.decode", False),
    ("codec.full_tables", "codec.UniversalCode.full_tables", True),
    ("codec.build_universal_code", "codec.build_universal_code", True),
    ("codec.error_probability_exact", "codec.error_probability_exact", True),
    ("codec.verify_error_bound", "codec.verify_error_bound", True),
    ("probability.TypeClass.rank", "probability.TypeClass.rank", False),
    ("probability.TypeClass.unrank", "probability.TypeClass.unrank", False),
    ("probability.type_of", "probability.type_of", False),
    ("probability.all_sequences", "probability.all_sequences", True),
    ("probability.enumerate_types", "probability.enumerate_types", True),
    ("probability.entropy", "probability.entropy", False),
    ("galois.affine_apply", "galois.affine_apply", False),
    ("galois.random_affine", "galois.random_affine", True),
    ("crypto.Cryptosystem.init", "crypto.Cryptosystem.__init__", True),
    ("crypto.encrypt", "crypto.Cryptosystem.encrypt", False),
    ("crypto.decrypt", "crypto.Cryptosystem.decrypt", False),
    ("crypto.check_structural_properties", "crypto.check_structural_properties", True),
    ("adversary.encoder", "adversary.scalar_quantizer_encoder", True),
    ("adversary.encoder", "adversary.best_scalar_quantizer", True),
    ("adversary.key_equivocation", "adversary.key_equivocation", True),
    ("leakage.leakage_report", "leakage.leakage_report", True),
    ("leakage.build_gamma_kernel", "leakage.build_gamma_kernel", True),
    ("leakage.delta_mi", "leakage.delta_mi", True),
    ("leakage.delta_max_mi", "leakage.delta_max_mi", True),
    ("leakage.channel_capacity", "leakage.channel_capacity", True),
    ("leakage.channel_rows", "leakage.GammaKernel.channel_rows", True),
    ("leakage.delta_max_lower_bound", "leakage.delta_max_lower_bound", True),
    ("leakage.delta_max_upper_bound", "leakage.delta_max_upper_bound", True),
    ("leakage.structural_checks", "leakage.structural_checks", True),
    ("analysis.omega_min", "analysis.ExponentCalculator.omega_min", True),
    ("analysis.omega_tilde_min", "analysis.ExponentCalculator.omega_tilde_min", True),
    ("analysis.F", "analysis.ExponentCalculator.F", True),
    ("analysis.F_lower", "analysis.ExponentCalculator.F_lower", True),
    ("analysis.r_mu", "analysis.r_mu", True),
    ("analysis.akw_boundary", "analysis.akw_boundary", True),
    ("analysis.region_membership", "analysis.region_membership", True),
    ("simplexopt.minimize_blocks", "simplexopt.minimize_blocks", True),
]

CLI_NAMES = [t[0] for t in TARGETS if t[0].startswith("cli.")]
MINIMIZER = "simplexopt.minimize_blocks"
OBJECTIVE = "simplexopt.objective"


class Tracer:
    """Call stack, per-name aggregates, kept spans and counters of one run."""

    def __init__(self):
        self.stack = []  # frames: [name, start, child_s, saw_minimizer, span_id]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.fills = defaultdict(int)
        self.counts = defaultdict(int)  # named counters
        self.bytes = defaultdict(int)  # computed bytes, max over calls
        self.spans = []  # [name, start, end, parent span id]

    def wrap(self, name, fn, keep_span, on_exit=None, on_enter=None):
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                args = on_enter(args)
            sid = None
            if keep_span:
                sid = len(spans)
                parent = next((f[4] for f in reversed(stack) if f[4] is not None), None)
                spans.append([name, 0.0, 0.0, parent])
            frame = [name, _clock(), 0.0, False, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[1]
                self.calls[name] += 1
                self.incl[name] += dur
                self.self_s[name] += dur - frame[2]
                if frame[3]:
                    self.fills[name] += 1
                if stack:
                    stack[-1][2] += dur
                if sid is not None:
                    spans[sid][1:3] = [frame[1], end]
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    # -- hooks for counts that need the arguments or the result -------------

    def _max_bytes(self, key):
        def hook(args, result):
            self.bytes[key] = max(self.bytes[key], int(result.nbytes))

        return hook

    def _kernel_bytes(self, args, kernel):
        total = sum(
            int(a.nbytes)
            for a in (
                kernel.p_message,
                kernel.key_image_posterior,
                kernel.image_of,
                kernel.in_decoding_set,
                kernel.message_ids,
            )
        )
        self.bytes["leakage.kernel"] = max(self.bytes["leakage.kernel"], total)

    def _capacity_iterations(self, args, result):
        self.counts["leakage.channel_capacity.iterations"] += int(result.iterations)

    def _validation_mode(self, args, result):
        self.counts["crypto.validation." + args[0].validation] += 1

    def _minimizer_enter(self, simplexopt):
        def hook(args):
            for frame in self.stack:
                frame[3] = True
            f, shapes = args[0], [tuple(s) for s in args[1]]
            free = sum(r * (c - 1) for r, c in shapes)
            dense = all(c == 2 for _, c in shapes) and free <= simplexopt.DENSE_MAX_DIM
            self.counts["simplexopt.dense.calls" if dense else "simplexopt.adam.calls"] += 1

            def count_points(blocks_args, values):
                self.counts["simplexopt.objective.points"] += int(blocks_args[0][0].shape[0])

            objective = self.wrap(OBJECTIVE, f, False, on_exit=count_points)
            return (objective,) + tuple(args[1:])

        return hook

    # -- installation ---------------------------------------------------------

    def install(self, leaklab_modules):
        """Wrap every target; ``leaklab_modules`` maps short names to modules."""
        hooks_exit = {
            "probability.all_sequences": self._max_bytes("probability.all_sequences"),
            "leakage.channel_rows": self._max_bytes("leakage.channel_rows"),
            "leakage.build_gamma_kernel": self._kernel_bytes,
            "leakage.channel_capacity": self._capacity_iterations,
            "crypto.Cryptosystem.init": self._validation_mode,
        }
        hooks_enter = {MINIMIZER: self._minimizer_enter(leaklab_modules["simplexopt"])}
        replaced = {}
        for name, path, keep in TARGETS:
            parts = path.split(".")
            owner = leaklab_modules[parts[0]]
            for attr in parts[1:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, parts[-1])
            wrapped = self.wrap(
                name, original, keep, hooks_exit.get(name), hooks_enter.get(name)
            )
            setattr(owner, parts[-1], wrapped)
            replaced[id(original)] = (original, wrapped)
        # names bound by ``from ... import`` elsewhere in the package
        for module in leaklab_modules.values():
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    # -- summary --------------------------------------------------------------

    def _rate_points(self):
        """Durations of the exponent subcommand's rate points, in order.

        One rate point is the F, F_lower and region_membership calls that
        cmd_exponent makes for one (R_A, R); it runs from the start of F to
        the end of region_membership.
        """
        exp_ids = {i for i, s in enumerate(self.spans) if s[0] == "cli.exponent"}
        starts, ends = [], []
        for s in self.spans:
            if s[3] in exp_ids:
                if s[0] == "analysis.F":
                    starts.append(s[1])
                elif s[0] == "analysis.region_membership":
                    ends.append(s[2])
        return [e - b for b, e in zip(starts, ends)]

    def metrics(self):
        """Per-layer metrics of this run as {name: value}."""
        out = {}

        def calls_s(name, calls=True, seconds=True):
            if calls:
                out[name + ".calls"] = self.calls[name]
            if seconds:
                out[name + ".s"] = self.incl[name]

        for name in CLI_NAMES:
            calls_s(name, calls=False)
        out["cli.self_s"] = sum(self.self_s[n] for n in CLI_NAMES)

        for name in ("codec.encode", "codec.decode", "codec.full_tables",
                     "codec.build_universal_code"):
            calls_s(name)
        calls_s("codec.error_probability_exact", calls=False)
        calls_s("codec.verify_error_bound", calls=False)

        calls_s("probability.TypeClass.rank")
        calls_s("probability.TypeClass.unrank")
        calls_s("probability.type_of")
        calls_s("probability.entropy")
        out["probability.all_sequences.calls"] = self.calls["probability.all_sequences"]
        out["probability.all_sequences.bytes"] = self.bytes["probability.all_sequences"]
        calls_s("probability.enumerate_types", calls=False)

        calls_s("galois.affine_apply")
        calls_s("galois.random_affine", calls=False)

        calls_s("crypto.Cryptosystem.init")
        out["crypto.validation.exhaustive"] = self.counts["crypto.validation.exhaustive"]
        out["crypto.validation.sampled"] = self.counts["crypto.validation.sampled"]
        calls_s("crypto.encrypt")
        calls_s("crypto.decrypt")
        calls_s("crypto.check_structural_properties")

        calls_s("adversary.encoder", calls=False)
        calls_s("adversary.key_equivocation")

        calls_s("leakage.leakage_report")
        calls_s("leakage.build_gamma_kernel")
        out["leakage.kernel.bytes"] = self.bytes["leakage.kernel"]
        calls_s("leakage.delta_mi")
        calls_s("leakage.delta_max_mi")
        calls_s("leakage.channel_capacity")
        out["leakage.channel_capacity.iterations"] = self.counts[
            "leakage.channel_capacity.iterations"
        ]
        out["leakage.channel_rows.bytes"] = self.bytes["leakage.channel_rows"]
        calls_s("leakage.delta_max_lower_bound", calls=False)
        calls_s("leakage.delta_max_upper_bound", calls=False)
        calls_s("leakage.structural_checks")

        for name, cache in (("analysis.omega_min", "analysis.omega_cache"),
                            ("analysis.omega_tilde_min", "analysis.omega_tilde_cache")):
            calls_s(name)
            out[name + ".fills"] = self.fills[name]
            calls = self.calls[name]
            out[cache + ".hit_ratio"] = (calls - self.fills[name]) / calls if calls else 0.0
            out[cache + ".lookups"] = calls
        calls_s("analysis.F")
        calls_s("analysis.F_lower")
        points = self._rate_points()
        out["analysis.first_rate_point_s"] = points[0] if points else 0.0
        out["analysis.later_rate_point_p50_s"] = (
            statistics.median(points[1:]) if len(points) > 1 else 0.0
        )
        calls_s("analysis.r_mu")
        calls_s("analysis.akw_boundary", calls=False)
        calls_s("analysis.region_membership", calls=False)

        calls_s(MINIMIZER)
        out["simplexopt.dense.calls"] = self.counts["simplexopt.dense.calls"]
        out["simplexopt.adam.calls"] = self.counts["simplexopt.adam.calls"]
        calls_s(OBJECTIVE)
        out["simplexopt.objective.points"] = self.counts["simplexopt.objective.points"]
        return out

    def span_records(self):
        return [
            {"name": n, "start": b, "end": e, "parent": p} for n, b, e, p in self.spans
        ]
