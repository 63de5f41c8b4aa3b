"""Benchmark of the qappell engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/ops.py for how each list is drawn):
  audit        in-process run_verify at q = 1/2 (orders 8 and 12) and one
               seeded q (order 8), each rendered as text and JSON
  series-deep  large single and pair families by the series route at
               orders 32, 48 and 64, numbers rendered, top polynomial sampled
  cli-mix      small `python -m qappell` calls of every command, one
               subprocess each, with the three known false root failures
  zeros        find_roots on prebuilt plain and x bernoulli polynomials of
               degree 2 to 40, with the same three known false failures

A run repeats passes of the workload's fixed operation list, one process per
pass and one pass at a time (a closed loop with a single client), until the
next pass would end after --seconds.  Every pass sets up from scratch, so an
engine-side cache helps only within one pass, as it would for a user.
Every operation's output is checked after the timed region, and its digest
must be the same in every pass.  attempted and failed count the operations
of the list once each, so they depend on the seed alone.

With --trace 0 the run reports the end-to-end metrics: median set-up time,
median pass wall time, median operation latency and peak resident memory
(for cli-mix, of the largest CLI child).  Times are in reference seconds:
each pass converts them by a host-speed loop it times as it goes (see
perfbench/hostspeed.py), and the raw times are printed and recorded too.
With --trace 1 it alternates untraced and traced passes (cli-mix then calls
qappell.cli.main in-process both ways) and reports the per-layer metrics of
the traced passes and the tracing overhead.  The last line of stdout is one
JSON object; the full record, with the seed, the operation list, its hash
and every operation's time, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ops import WORKLOADS, digest, generate  # noqa: E402

MIN_PASSES = 2  # the determinism check compares at least two passes
DEADLINE_S = 170  # a run must end well within 180 s
STARTUP_PROBES = 5
# Extra set-up-only processes before the passes: a set-up of a few tens of
# milliseconds needs more samples than the passes give for a steady median.
SETUP_PROBES = 6
SETUP_PROBE_BUDGET_S = 2.0


def metric_units(key: str) -> dict:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def environment() -> dict:
    """Interpreter, machine and source revision the run measured."""
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": None,
        "git_dirty": None,
    }
    git = shutil.which("git")
    if git and (ROOT / ".git").exists():
        def run(*args: str) -> str:
            return subprocess.run([git, "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30, check=True).stdout
        try:
            env["git_commit"] = run("rev-parse", "HEAD").strip()
            env["git_dirty"] = bool(run("status", "--porcelain", "--untracked-files=no").strip())
        except (subprocess.SubprocessError, OSError):
            pass
    return env


def run_pass(workload: str, seed: int, timeout: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "onepass.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def startup_ms() -> float:
    """Median wall time of a fresh interpreter that only imports qappell.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qappell.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile by the inclusive method, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[int(p) - 1]


def mark_nondeterminism(passes: list[dict]) -> None:
    """An operation whose output digest changes between passes is wrong."""
    first = passes[0]["ops"]
    for p in passes[1:]:
        for ref, rec in zip(first, p["ops"]):
            if rec["digest"] != ref["digest"] and rec["outcome"] != "wrong":
                rec["outcome"] = "wrong"
                rec["note"] = "output differs from the first pass of the same seed"


def main() -> int:
    parser = argparse.ArgumentParser(description="qappell benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qappell" / "__init__.py").is_file():
        return fail(f"no engine source under {ROOT / 'src'}; run from a full checkout")
    ops = generate(args.workload, args.seed)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = out_dir / f"{stem}.spans.jsonl"
    traced_run = args.trace == 1
    inproc = traced_run and args.workload == "cli-mix"

    setups: list[dict] = []
    passes: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while not traced_run and len(setups) < SETUP_PROBES and (
            not setups or time.perf_counter() - start < SETUP_PROBE_BUDGET_S):
        try:
            setups.append(run_pass(args.workload, args.seed, DEADLINE_S, "--setup-only"))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            return fail(f"{args.workload} set-up: {exc}")
    while True:
        traced = traced_run and len(passes) % 2 == 1
        flags = (["--traced", "--spans", str(spans_path)] if traced else []) + (
            ["--inproc"] if inproc else [])
        elapsed = time.perf_counter() - start
        t0 = time.perf_counter()
        try:
            result = run_pass(args.workload, args.seed, max(5.0, DEADLINE_S - elapsed), *flags)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            return fail(f"{args.workload} pass {len(passes)}: {exc}")
        durations.append(time.perf_counter() - t0)
        result["traced"] = traced
        passes.append(result)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= MIN_PASSES and (not traced_run or len(passes) % 2 == 0)
        step = 2 * max(durations) if traced_run else max(durations)
        if enough and elapsed + step > args.seconds:
            break
    mark_nondeterminism(passes)

    plain = [p for p in passes if not p["traced"]]
    all_ops = [rec for p in passes for rec in p["ops"]]
    # Each operation of the list counts once, as failed if it failed in any
    # pass, so attempted and failed depend on the seed alone and not on how
    # many passes the host's speed allowed.
    per_op = [[p["ops"][i]["outcome"] for p in passes] for i in range(len(ops))]
    attempted = len(per_op)
    failed = sum(any(o != "ok" for o in outs) for outs in per_op)
    correct = all(rec["outcome"] in ("ok", "refused") for rec in all_ops)
    latencies = [rec["ms"] for p in plain for rec in p["ops"]]
    setup_passes = setups + plain
    summary = {
        "setup_samples": [p["setup_s"] for p in setup_passes],
        "setup_raw_samples": [p["setup_raw_s"] for p in setup_passes],
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "latency_samples": len(latencies),
        "failed_frac": failed / attempted,
        "outcomes": {k: sum(r["outcome"] == k for r in all_ops)
                     for k in ("ok", "refused", "crashed", "wrong")},
        "raw": {
            "setup_s": statistics.median(p["setup_raw_s"] for p in setup_passes),
            "wall_s": statistics.median(p["wall_raw_s"] for p in plain),
            "op_p50_ms": statistics.median(rec["raw_ms"] for p in plain for rec in p["ops"]),
        },
    }
    if len(latencies) >= 100:  # ten samples beyond the 90th percentile
        summary["op_p90_ms"] = percentile(latencies, 90)

    if traced_run:
        traced = [p for p in passes if p["traced"]]
        units = metric_units("per_layer")
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in units if name in traced[0]["layers"]}
        metrics["cli.startup_ms"] = startup_ms()
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1)
    else:
        units = metric_units("end_to_end")
        metrics = {
            "setup_s": statistics.median(summary["setup_samples"]),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "op_p50_ms": statistics.median(latencies),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
        }
    if set(metrics) != set(units):
        return fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "ops_sha256": digest(ops),
        "ops": ops,
        "summary": summary,
        "metrics": metrics,
        "passes": passes,
    }
    results_path = out_dir / f"{stem}.json"
    results_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} x {len(ops)} ops  ops sha256 {record['ops_sha256'][:16]}")
    for name, value in metrics.items():
        print(f"  {name:24s} {value:14.6g} {units[name]}")
    if "op_p90_ms" in summary:
        print(f"  {'op_p90_ms':24s} {summary['op_p90_ms']:14.6g} ms  "
              f"(n = {len(latencies)})")
    print(f"  {'failed_frac':24s} {summary['failed_frac']:14.6g} ratio  "
          f"({failed} of {attempted} operations; outcomes over all passes "
          f"{summary['outcomes']})")
    if not traced_run:
        print(f"  op_p50_ms from n = {len(latencies)} samples")
    print("  times are reference seconds (see perfbench/hostspeed.py); unconverted: "
          + ", ".join(f"{k} {v:.6g}" for k, v in summary["raw"].items()))
    print(f"  results in {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
