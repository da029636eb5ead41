"""One repetition of a workload, in a fresh process.

Usage: python3 child.py SPEC_JSON SPAWN_TIME

SPEC_JSON names the checkout root, the CLI argument lists to run in order,
the address-space limit, whether to trace, and where to write the result.
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so setup time covers
interpreter start-up as well as imports, config load and validation.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    t_spawn = float(sys.argv[2])
    limit = int(spec["as_limit_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))

    from leaklab import (
        adversary, analysis, cli, codec, crypto, galois, leakage, probability, simplexopt,
    )

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({
            "adversary": adversary, "analysis": analysis, "cli": cli, "codec": codec,
            "crypto": crypto, "galois": galois, "leakage": leakage,
            "probability": probability, "simplexopt": simplexopt,
        })

    # The first subcommand handler entered marks the end of setup.  In a
    # setup probe the handler returns at once instead of running.
    first_entry = []
    for name in ("verify", "simulate", "leakage", "region", "exponent"):
        handler = getattr(cli, "cmd_" + name)

        def stamped(*args, _handler=handler, **kwargs):
            if not first_entry:
                first_entry.append(time.monotonic())
            if spec["probe"]:
                return cli.EXIT_OK
            return _handler(*args, **kwargs)

        setattr(cli, "cmd_" + name, stamped)

    steps = []
    for argv in spec["steps"]:
        buf = io.StringIO()
        step = {"argv": argv, "exit": None, "error": None}
        t0 = time.monotonic()
        try:
            with redirect_stdout(buf):
                step["exit"] = cli.main(argv)
        except Exception:  # a failed operation, recorded and counted by the parent
            step["error"] = traceback.format_exc(limit=4)
        step["s"] = time.monotonic() - t0
        step["stdout"] = buf.getvalue()
        steps.append(step)
        if spec["probe"]:
            break
    t_end = time.monotonic()

    result = {"steps": steps, "setup_s": None, "wall_s": None}
    if first_entry:
        result["setup_s"] = first_entry[0] - t_spawn
        result["wall_s"] = t_end - first_entry[0]
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_records()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
