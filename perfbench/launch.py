"""Run one soundcompass CLI command in this fresh process, traced or slowed.

    python3 perfbench/launch.py --spawned-at T [--trace-out FILE] [--inject NAME=S ...] -- ARGS...

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process, so the ``cli.import`` span runs from process start
until ``soundcompass.cli`` is imported. With ``--trace-out`` the spans are
written there as JSON; ``--inject`` sleeps before each call of a function,
or before the import for ``import``. The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import tracing


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace-out")
    p.add_argument("--inject", action="append", default=[])
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    costs = tracing.parse_costs(args.inject)

    time.sleep(costs.pop("import", 0.0))
    import soundcompass.cli as cli

    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import", args.spawned_at, time.perf_counter(), None, None, 0])
    patch = tracing.Patch().inject(costs)
    if args.trace_out:
        patch.trace(tracer)
    try:
        return cli.main(cli_args)
    finally:
        patch.undo()
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "rt60": tracer.rt60, "missing": patch.missing}, fh)


if __name__ == "__main__":
    sys.exit(main())
