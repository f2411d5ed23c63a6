"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (perfbench/worker.py), so every pass starts with cold caches as
a `permchain` CLI call does.

--trace 0: whole passes, one after another, while the next one is expected
  to end within S seconds (at least one), plus set-up-only starts; prints
  the end-to-end metrics: median wall_s, setup_s and peak_rss_mb.
--trace 1: one traced pass; prints its per-layer metrics, its wall time
  (trace.wall_s) and the tracing overhead: spans times the cost of one
  span, timed in the same process after the pass.

The last line of standard output is the result object; a fuller record
goes to perfbench/out/<workload>.result.json and, with --trace 1, the
spans to perfbench/out/<workload>.trace.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("catalog-verify", "tensor-fields", "group-burnside")

# Numerical libraries run on one thread (nproc is 2 on the reference machine);
# the passes are single-threaded Python and numpy.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 2  # set-up-only starts per run, on top of one per pass
DEADLINE_S = 170.0  # every run ends within this, passes included


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def spawn(workload, seed, mode, deadline, trace_out=None):
    """Run one worker to its end and return its result object."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=child_env(), cwd=str(ROOT),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{workload} {mode} pass did not end before the deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} {mode} pass exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "permchain" / "__init__.py").is_file():
        print(f"error: no permchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)

    passes = []
    setups = []
    if args.trace:
        traced = spawn(args.workload, args.seed, "trace", deadline, OUT / f"{args.workload}.trace.jsonl")
        passes.append(traced)
        metrics = dict(traced["per_layer"])
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced["spans"] * traced["span_cost_s"], "unit": "s"}
        metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
    else:
        start = time.monotonic()
        while True:
            passes.append(spawn(args.workload, args.seed, "plain", deadline))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        for _ in range(SETUP_SAMPLES):
            setups.append(spawn(args.workload, args.seed, "setup", deadline)["setup_s"])
        setups += [p["setup_s"] for p in passes]
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }

    problems = [q for p in passes for q in p["problems"]]
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, threads=THREADS, setup_samples=setups, passes=passes)
    (OUT / f"{args.workload}.result.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
