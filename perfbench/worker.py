"""Run one workload in this fresh process and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only | --expander-rss]

run.py starts it with `src/` on PYTHONPATH and the BLAS pool pinned to one
thread.  The worker builds the seeded inputs, warms up, notes the
monotonic time at which the timed phase begins (`ready`), then runs whole
passes over the ops until the run's seconds are used.  Each op's latency
covers its work only; each pass's time also covers the oracle checks, so a
pass is the time to verified results.

The worker and its children run on one CPU, so that the calibration and
the work share that CPU's contention.  Before the first op and after
every op, the worker times a reference kernel (harness.calibrate).  Each
op's times are scaled by the mean speed factor of the calibrations just
before and just after it; set-up time by the factor measured right after
set-up.  Both raw and scaled times are reported.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time

from harness import Tracer, calibrate

MODULES = {
    "cli-session": "cli_session",
    "exact-sums": "exact_sums",
    "reduction-pipeline": "reduction_pipeline",
    "numeric-scans": "numeric_scans",
}


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_op(op, tracer):
    """Do one op and check it; an exception counts as a failed op."""
    start = time.perf_counter()
    try:
        with tracer.span("op." + op.kind):
            result, counts = op.work(tracer)
            latency = time.perf_counter() - start
            with tracer.span("oracle." + op.kind):
                ok = bool(op.check(tracer, result))
        error = "" if ok else "oracle check failed"
    except Exception as exc:  # the run goes on and reports the failure
        latency = time.perf_counter() - start
        ok, counts, error = False, {}, f"{type(exc).__name__}: {exc}"
    return {"kind": op.kind, "raw_latency_s": latency,
            "raw_total_s": time.perf_counter() - start, "ok": ok, "counts": counts,
            "error": error}


def run_passes(workload, seconds, tracer):
    """Whole passes until `seconds` are used, to the nearest half pass.

    Returns the scaled and the raw pass times (the times of their ops and
    oracle checks, without the calibrations between them) and the op
    records with scaled latencies.
    """
    ops = []
    factors = [calibrate()]
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for op in workload.ops:
            tracer.op_id = len(ops)
            ops.append(run_op(op, tracer))
            factors.append(calibrate())
        end = time.perf_counter()
        if end - begin + 0.5 * (end - start) >= seconds:
            break
    for i, record in enumerate(ops):
        record["scale"] = 0.5 * (factors[i] + factors[i + 1])
        record["latency_s"] = record["raw_latency_s"] * record["scale"]
    per_pass = len(workload.ops)
    by_pass = [ops[i:i + per_pass] for i in range(0, len(ops), per_pass)]
    passes = [sum(r["raw_total_s"] * r["scale"] for r in rs) for rs in by_pass]
    raw_passes = [sum(r["raw_total_s"] for r in rs) for rs in by_pass]
    return passes, raw_passes, ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--expander-rss", action="store_true")
    args = ap.parse_args(argv)

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    module = importlib.import_module(MODULES[args.workload])
    if args.expander_rss:
        print(json.dumps({"expander_peak_rss_mb": module.expander_peak_rss_mb(args.seed)}))
        return 0
    workload = module.build(args.seed)
    try:
        if workload.warmup is not None:
            workload.warmup()
        result = {"ready": time.monotonic(), "setup_scale": calibrate()}
        if not args.setup_only:
            tracer = Tracer(bool(args.trace))
            passes, raw_passes, ops = run_passes(workload, args.seconds, tracer)
            result.update(passes=passes, raw_passes=raw_passes, ops=ops,
                          peak_rss_mb=peak_rss_mb())
            if args.trace:
                result["spans"] = tracer.spans
                if workload.extra is not None:
                    os.sched_setaffinity(0, cpus)
                    metrics, attempted, failed = workload.extra()
                    result["extra"] = {"metrics": metrics, "attempted": attempted,
                                       "failed": failed}
    finally:
        if workload.cleanup is not None:
            workload.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
