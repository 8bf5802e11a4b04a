"""Benchmark entry point: one workload in this fresh process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout. The workloads and metrics are defined in ``BENCHMARK.json``.

Set-up (input generation, scene pre-rendering, one untimed warm-up op) runs
SETUP_REPEATS times in fresh directories; ``setup_s`` is the median. The
timed phase then runs whole cycles of ops, closed loop with one client,
until at least S seconds have passed, so every run sees the same mix of ops.
Its wall time, which ``ops_per_s`` divides by, leaves out the time spent
checking outputs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the timed
phase twice for S/2 seconds each, first untraced and then traced, and
reports the per-layer metrics: per-op means over the traced ops of the span
totals, plus ``trace.overhead_frac`` from the two phases. The record gives
the same totals per kind of op, and ``dominant_share``: the share of op time
spent in the layers the workload is predicted to be dominated by. A layer the
workload's ops never call reads 0. ``roomsim.rt60_rel_err_max`` is taken
over every reverberant RIR the traced run built, set-up included.

The line before the result is a run record: seed, git rev, versions, sample
counts, check details, and in traced runs the per-op breakdown by command.
Exit code 2 means the run could not start, 1 that an op failed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_FAILURES_KEPT = 5


def git_rev(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


class Runner:
    """Times ops of one workload and checks their outputs."""

    def __init__(self, workload):
        self.wl = workload
        self.first = {}  # op key -> digest of its first output
        self.failures = []
        self.details = {}
        self.n_ops = 0
        self.check_s = 0.0  # time spent in the benchmark's own output checks

    def one(self, key, tracer=None) -> tuple[bool, float]:
        """Run and check one op; return (ok, latency)."""
        self.n_ops += 1
        kind = self.wl.kind(key)
        span = None
        if tracer is not None:
            tracer.op = self.n_ops
            span = tracer.open(f"op.{kind}")
        start = time.perf_counter()
        try:
            out = self.wl.run(key)
            error = None
        except Exception as e:  # an op failure is counted, not fatal
            out, error = None, e
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
            tracer.op = None
        check_start = time.perf_counter()
        if error is None:
            try:
                ok, digest, detail = self.wl.check(key, out)
            except Exception as e:
                ok, digest, detail, error = False, None, {}, e
        else:
            ok, digest, detail = False, None, {}
        self.check_s += time.perf_counter() - check_start
        if ok and self.first.setdefault(key, digest) != digest:
            ok, error = False, f"output of {key!r} differs from its first pass"
        for name, value in detail.items():
            self.details.setdefault(name, []).append(value)
        if not ok and len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(f"{key!r}: {error or 'output check failed'}")
        return ok, latency

    def setup(self, work: Path, tracer=None) -> tuple[bool, float]:
        """Inputs, pre-rendering and one warm-up op in a fresh directory."""
        start = time.perf_counter()
        work.mkdir(parents=True)
        if tracer is not None:
            tracer.op = "setup"
        self.wl.setup(work)
        if tracer is not None:
            tracer.op = None
        ok, _ = self.one(self.wl.cycle(0)[0], tracer)
        return ok, time.perf_counter() - start

    def phase(self, seconds: float, tracer=None) -> dict:
        """Whole cycles of ops until ``seconds`` have passed."""
        first_op = self.n_ops + 1
        latencies, kinds, failed, cycle = [], [], 0, 0
        start, checks_before = time.perf_counter(), self.check_s
        while True:
            for key in self.wl.cycle(cycle):
                ok, latency = self.one(key, tracer)
                latencies.append(latency)
                kinds.append(self.wl.kind(key))
                failed += not ok
            cycle += 1
            if time.perf_counter() - start >= seconds:
                break
        # the output checks are the benchmark's work, not the program's
        wall = time.perf_counter() - start - (self.check_s - checks_before)
        return {
            "ops": len(latencies), "failed": failed, "wall_s": wall, "cycles": cycle,
            "latencies": latencies, "kinds": kinds, "op_ids": range(first_op, self.n_ops + 1),
        }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def by_kind(phase: dict) -> dict:
    groups = {}
    for kind, latency in zip(phase["kinds"], phase["latencies"]):
        groups.setdefault(kind, []).append(latency)
    return {k: {"ops": len(v), "p50_s": statistics.median(v)} for k, v in groups.items()}


def end_to_end(runner, phase, setup_times, spec) -> dict:
    values = {
        "ops_per_s": phase["ops"] / phase["wall_s"],
        "op_p50_s": statistics.median(phase["latencies"]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(runner.wl.spawns_children),
        "ok_ops_frac": (phase["ops"] - phase["failed"]) / phase["ops"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def layer_value(name: str, totals: dict, n_ops: int) -> float:
    """Per-op mean of one span total: ``<span>.<calls|bytes|busy_s|self_s>``."""
    if name == "cli.import_s":
        span, field = "cli.import", "busy_s"
    else:
        span, field = name.rsplit(".", 1)
    return totals.get(span, {}).get(field, 0) / n_ops


def per_layer(tracing, tracer, untraced, traced, spec, dominant) -> tuple[dict, dict]:
    totals = tracing.summarize(tracer.spans, set(traced["op_ids"]))
    overhead = 1.0 - (traced["ops"] / traced["wall_s"]) / (untraced["ops"] / untraced["wall_s"])
    rt60_err = max((abs(measured / requested - 1.0) for requested, measured in tracer.rt60), default=0.0)
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] == "trace.overhead_frac":
            value = overhead
        elif m["name"] == "roomsim.rt60_rel_err_max":
            value = rt60_err
        else:
            value = layer_value(m["name"], totals, traced["ops"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    op_kind = dict(zip(traced["op_ids"], traced["kinds"]))
    kinds = {}
    for kind in sorted(set(traced["kinds"])):
        ids = {i for i, k in op_kind.items() if k == kind}
        kt = tracing.summarize(tracer.spans, ids)
        kinds[kind] = {
            name: {f: round(v / len(ids), 6) for f, v in t.items() if v}
            for name, t in sorted(kt.items())
        }
        op_time = tracing.covered(tracer.spans, ids, ("op.",))
        kinds[kind]["dominant_share"] = tracing.covered(tracer.spans, ids, dominant) / op_time
    setup = tracing.summarize(tracer.spans, {"setup"})
    record = {
        "overhead_frac": overhead,
        "untraced_ops_per_s": untraced["ops"] / untraced["wall_s"],
        "traced_ops_per_s": traced["ops"] / traced["wall_s"],
        "per_op_by_kind": kinds,
        "setup_busy_s": {name: round(t["busy_s"], 6) for name, t in sorted(setup.items())},
        "rt60_requested_measured": sorted(set(tracer.rt60)),
        "missing_sites": sorted(tracer.missing),
    }
    return metrics, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", action="append", default=[], metavar="NAME=SECONDS",
                   help="sleep before every call of NAME (layer-sensitivity self-check only)")
    args = p.parse_args(argv)

    spec_path, src = ROOT / "BENCHMARK.json", ROOT / "src"
    if not (src / "soundcompass" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not a soundcompass checkout (need src/soundcompass and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    # one math-library thread per process: on a small shared machine a second
    # thread mostly adds run-to-run spread; children inherit the setting
    os.environ.update({name: "1" for name in THREAD_VARS})

    import numpy
    import scipy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    costs = tracing.parse_costs(args.inject)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    wl = workloads.WORKLOADS[args.workload](args.seed, env)
    wl.costs = costs
    runner = Runner(wl)
    injected = tracing.Patch().inject(costs)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "injected": costs, "git_rev": git_rev(ROOT), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "math_threads": 1,
    }
    try:
        if args.trace:
            tracer = tracing.Tracer()
            patch = tracing.Patch().trace(tracer)
            setup_ok, setup_time = runner.setup(work / "setup0", tracer)
            patch.undo()
            tracer.missing.update(patch.missing)
            untraced = runner.phase(args.seconds / 2)
            wl.tracer = tracer
            patch = tracing.Patch().trace(tracer)
            traced = runner.phase(args.seconds / 2, tracer)
            patch.undo()
            wl.tracer = None
            tracer.missing.update(patch.missing)
            metrics, record["trace"] = per_layer(tracing, tracer, untraced, traced, spec, wl.dominant)
            phases = [untraced, traced]
            record["setup_s_each"] = [setup_time]
        else:
            setups = [runner.setup(work / f"setup{i}") for i in range(SETUP_REPEATS)]
            setup_ok = all(ok for ok, _ in setups)
            record["setup_s_each"] = [t for _, t in setups]
            phase = runner.phase(args.seconds)
            metrics = end_to_end(runner, phase, record["setup_s_each"], spec)
            phases = [phase]
    finally:
        injected.undo()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(ph["ops"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    correct = setup_ok and failed == 0
    record.update({
        "samples": [ph["ops"] for ph in phases],
        "cycles": [ph["cycles"] for ph in phases],
        "wall_s": [ph["wall_s"] for ph in phases],
        "by_kind": [by_kind(ph) for ph in phases],
        "checks": {k: [min(v), max(v)] for k, v in runner.details.items()},
        "failures": runner.failures,
    })
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
