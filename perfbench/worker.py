"""One pass of a workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode plain|trace|setup --t0 T

T is the CLOCK_MONOTONIC reading (time.monotonic) taken by the parent just
before it started this process, so set-up time covers interpreter start-up,
`import permchain` and the benchmark's input preparation.  `setup` mode
stops there.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def run_ops(ops, tracer):
    """Run every operation once, in order; a raised exception fails the
    operation and the pass goes on."""
    outputs, timings, failures = {}, [], []
    for op in ops:
        start = time.perf_counter()
        try:
            if tracer and op.span:
                with tracer.span(op.span):
                    outputs[op.name] = op.fn(outputs)
            else:
                outputs[op.name] = op.fn(outputs)
        except Exception as e:  # an operation that fails is counted, not fatal
            failures.append({"op": op.name, "error": f"{type(e).__name__}: {e}"[:300],
                             "known_fault": op.known_fault})
        timings.append((op.name, start, time.perf_counter()))
    return outputs, timings, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["plain", "trace", "setup"], required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    import workloads

    ops, check = workloads.prepare(args.workload, args.seed)
    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outputs, timings, failures = run_ops(ops, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = sum(end - start for _, start, end in timings)
    if tracer:
        tracer.active = False
        span_cost = tracer.span_cost()

    import selftest

    problems = []
    try:
        problems += check(outputs)
    except Exception:  # a checker that crashes must not pass the run
        problems.append("checker raised:\n" + traceback.format_exc())
    problems += selftest.run()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "ops": [[name, end - start] for name, start, end in timings],
    }
    if tracer:
        rejected = [
            ["burnside.rejected", start, end, -1, None]
            for name, start, end in timings
            if name.startswith("burnside:") and name.split(":")[1] in workloads.REJECTED
            and name in outputs
        ]
        result["per_layer"] = tracer.metrics(rejected)
        result["spans"] = len(tracer.spans)
        result["span_cost_s"] = span_cost
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
