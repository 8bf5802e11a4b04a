"""Self-check: the benchmark sees a slower layer, and the trace shows what it predicts.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Run from the root of a checkout. Every run is a fresh ``run.py`` process.

1. Layer sensitivity. For each of ``simulate_rir``, ``delay_and_sum``,
   ``fuse_all_bands`` and the launcher's import step, every workload runs
   with a fixed extra cost slept before each call (inside the harness only;
   the package is untouched) and is compared with a plain run made just
   before it, so that drift in the machine's speed between the two is small:
   - ``ops_per_s`` on the workload that exercises the function drops by
     more than its bound;
   - on the workloads that skip the function, ``ops_per_s`` and
     ``op_p50_s`` stay within their bounds. (Their ``setup_s`` may move:
     set-up pre-renders scenes with ``simulate_rir``.)
2. Traced runs on two seeds. Each must report every per-layer metric, the
   per-op counts named below, and the predicted dominance: the workload's
   ``dominant_share`` is at least one half for each listed kind of op.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("render_rt_sweep", "cli_steer_session", "frontend_fuse")

# injected name -> (seconds per call, workload that exercises it, workloads that skip it)
INJECTIONS = {
    "roomsim.simulate_rir": (0.5, "render_rt_sweep", ("cli_steer_session", "frontend_fuse")),
    "extractor.delay_and_sum": (0.03, "cli_steer_session", ("render_rt_sweep",)),
    "fusion.fuse_all_bands": (0.5, "frontend_fuse", ("render_rt_sweep", "cli_steer_session")),
    "import": (1.5, "cli_steer_session", ("render_rt_sweep", "frontend_fuse")),
}

# (workload, kind of op, span, field) -> exact per-op value
NAMED_COUNTS = {
    ("cli_steer_session", "contour", "audio_io.read_wav", "calls"): 508,
    ("cli_steer_session", "contour", "metrics.si_snr", "calls"): 338,
    ("cli_steer_session", "contour", "extractor.delay_and_sum", "calls"): 169,
    ("cli_steer_session", "evaluate", "metrics.gcc_phat_itd", "calls"): 12,
    ("render_rt_sweep", "simulate", "roomsim.simulate_rir", "calls"): 2,
    ("frontend_fuse", "fuse", "fusion.film_gradients", "calls"): 31,
}

# kinds of op whose time the workload's predicted layers must dominate
DOMINATED_KINDS = {
    "render_rt_sweep": ("simulate",),
    "cli_steer_session": ("extract", "evaluate"),
    "frontend_fuse": ("fuse",),
}


def run(workload, seed, seconds, trace=0, inject=None) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd.append(f"--inject={inject[0]}={inject[1]}")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


class Report:
    def __init__(self):
        self.failed = 0

    def check(self, ok: bool, text: str) -> None:
        self.failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {text}", flush=True)


def sensitivity(report, spec, seed, seconds) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    value = lambda result, name: result["metrics"][name]["value"]  # noqa: E731
    for name, (cost, hit, skipped) in INJECTIONS.items():
        for w in (hit, *skipped):
            base = run(w, seed, seconds)[1]
            slow = run(w, seed, seconds, inject=(name, cost))[1]
            drop = 1.0 - value(slow, "ops_per_s") / value(base, "ops_per_s")
            rise = value(slow, "op_p50_s") / value(base, "op_p50_s") - 1.0
            setup = value(slow, "setup_s") / value(base, "setup_s") - 1.0
            moves = f"ops_per_s {-drop:+.1%}, op_p50_s {rise:+.1%}, setup_s {setup:+.1%}"
            if w == hit:
                report.check(base["correct"] and slow["correct"] and drop > bounds["ops_per_s"],
                             f"{name} +{cost}s/call slows {w}: {moves}")
            else:
                within = drop <= bounds["ops_per_s"] and rise <= bounds["op_p50_s"]
                report.check(base["correct"] and slow["correct"] and within,
                             f"{name} +{cost}s/call leaves {w} within bounds: {moves}")


def traced(report, spec, seed, seconds) -> None:
    wanted = {m["name"] for m in spec["per_layer"]}
    for w in WORKLOADS:
        record, result = run(w, seed, seconds, trace=1)
        kinds = record["trace"]["per_op_by_kind"]
        report.check(result["correct"] and set(result["metrics"]) == wanted,
                     f"{w} seed {seed}: traced run correct and reports all {len(wanted)} per-layer metrics")
        for (cw, kind, span, field), expect in NAMED_COUNTS.items():
            if cw == w:
                got = kinds.get(kind, {}).get(span, {}).get(field, 0)
                report.check(got == expect, f"{w} seed {seed}: {span}.{field} per {kind} op = {got} (want {expect})")
        for kind in DOMINATED_KINDS[w]:
            share = kinds[kind]["dominant_share"]
            report.check(share >= 0.5, f"{w} seed {seed}: predicted layers take {share:.0%} of {kind} op time")
        if w == "render_rt_sweep":
            err = result["metrics"]["roomsim.rt60_rel_err_max"]["value"]
            print(f"INFO {w} seed {seed}: roomsim.rt60_rel_err_max = {err:.3f}", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()
    report = Report()
    sensitivity(report, spec, args.seed, args.seconds)
    for seed in (args.seed, args.seed + 1):
        traced(report, spec, seed, args.seconds)
    print(f"{report.failed} check(s) failed", flush=True)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
