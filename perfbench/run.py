"""twospin benchmark: four oracle-checked workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in
turn.  Run it from anywhere inside a twospin checkout; it imports twospin
from the checkout's `src/` and writes only under `perfbench/out/`.

Every workload runs in fresh worker processes (perfbench/worker.py), one
client in a closed loop, with library calls at threads=1 and the BLAS pool
pinned to one thread.

--trace 0 measures the end-to-end metrics: three set-up-only workers and
one worker that sets up and runs the timed phase; `setup_s` is the median
set-up time of the four.  End-to-end times are scaled to a reference host
speed by a calibration kernel timed next to them (see worker.py), because
the CPU speed of a shared host drifts; the raw times are printed beside
them.  Per-layer times are raw.

--trace 1 runs the timed phase twice in fresh workers, without and with
spans, plus fresh interpreters for the import breakdown (and, on
numeric-scans, a fresh child for the expander audit's peak RSS).  It
reports the per-layer metrics and writes the spans to
perfbench/out/trace-<workload>-seed<N>.json.  It also prints the
untraced run's end-to-end metrics, so `--workload all --trace 1` prints
every metric by name with its unit.

Every op is checked by an oracle; a failed op counts in `failed` and makes
`correct` false.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from harness import layer_of, layer_times, span_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"
MODULES = ("cli", "graphs", "spins", "uniqueness", "e2lin2", "reduction", "analysis")
SETUP_SAMPLES = 4
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(cmd, timeout=WORKER_TIMEOUT_S):
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=worker_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:4])} timed out after {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:4])} exited {proc.returncode}:\n{err[-2000:]}")
    return out, err


def worker(workload, seed, seconds, trace=0, mode=None):
    """Start a fresh worker; returns its result with the set-up time added,
    raw and scaled to the reference host speed."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if mode:
        cmd.append(mode)
    start = time.monotonic()
    out, _ = run_child(cmd)
    result = json.loads(out.strip().splitlines()[-1])
    if "ready" in result:
        result["raw_setup_s"] = result["ready"] - start
        result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


# ---------------------------------------------------------------------------
# End-to-end metrics


def nearest_rank(values, q):
    """The smallest value with at least a share q of the values at or below it.

    Unlike an interpolated quantile it never mixes two op kinds whose
    latencies sit on either side of the rank.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(main, setups, raw_setups):
    """End-to-end metrics from scaled times, and a note on each with the raw
    (unscaled) value."""
    passes = len(main["passes"])
    per_pass = len(main["ops"]) // passes
    lat_ms = [op["latency_s"] * 1e3 for op in main["ops"]]
    # each op of the pass, averaged over the run's passes: the host's speed
    # drifts between passes, the ops' relative costs do not
    slot_ms = [statistics.fmean(lat_ms[i::per_pass]) for i in range(per_pass)]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(main["passes"]),
        "op_p50_ms": nearest_rank(slot_ms, 0.5),
        "op_p90_ms": nearest_rank(slot_ms, 0.9),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    raw_ms = [op["raw_latency_s"] * 1e3 for op in main["ops"]]
    raw_slot_ms = [statistics.fmean(raw_ms[i::per_pass]) for i in range(per_pass)]
    ops = f"nearest rank over {per_pass} ops, each a mean over {passes} pass(es)"
    samples = {
        "setup_s": f"median of {len(setups)} fresh workers; raw "
                   f"{statistics.median(raw_setups):.6g}",
        "wall_s": f"timed phase / {passes} passes; raw "
                  f"{statistics.fmean(main['raw_passes']):.6g}",
        "op_p50_ms": f"{ops}; raw {nearest_rank(raw_slot_ms, 0.5):.6g}",
        "op_p90_ms": f"{ops}; raw {nearest_rank(raw_slot_ms, 0.9):.6g}",
        "peak_rss_mb": "worker and its children",
    }
    return values, samples


def tally(*results):
    attempted = failed = 0
    errors = []
    for res in results:
        attempted += len(res["ops"])
        for op in res["ops"]:
            if not op["ok"]:
                failed += 1
                errors.append(f"{op['kind']}: {op['error']}")
        if "extra" in res:
            attempted += res["extra"]["attempted"]
            failed += res["extra"]["failed"]
            errors += ["traced extra: oracle failed"] * res["extra"]["failed"]
    return attempted, failed, errors


# ---------------------------------------------------------------------------
# Per-layer metrics


def parse_importtime(stderr):
    """(name, level, cumulative us, parent index) rows of `-X importtime`.

    The output lists each module after the modules it imported, indented
    two spaces per level, so parents are found by walking it backwards.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append([name.strip(), level, int(cumulative), -1])
    stack = []
    for i in range(len(rows) - 1, -1, -1):
        while stack and rows[stack[-1]][1] >= rows[i][1]:
            stack.pop()
        rows[i][3] = stack[-1] if stack else -1
        stack.append(i)
    return rows


def import_split(rows):
    """ms spent importing twospin.cli, and the numpy and scipy shares of it.

    A module counts to numpy (scipy) when it is the outermost numpy (scipy)
    import on its chain, so nested imports are not counted twice.
    """
    def package(name):
        return name.split(".", 1)[0]

    total = sum(r[2] for r in rows if r[1] == 0 and package(r[0]) == "twospin")
    share = {"numpy": 0, "scipy": 0}
    for name, _, cumulative, parent in rows:
        if package(name) not in share:
            continue
        chain = []
        while parent >= 0:
            chain.append(package(rows[parent][0]))
            parent = rows[parent][3]
        if "twospin" in chain and not ({"numpy", "scipy"} & set(chain)):
            share[package(name)] += cumulative
    return total / 1e3, share["numpy"] / 1e3, share["scipy"] / 1e3


def import_breakdown():
    interpreter, splits = [], []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        interpreter.append((time.perf_counter() - start) * 1e3)
        _, err = run_child([sys.executable, "-X", "importtime", "-c", "import twospin.cli"])
        splits.append(import_split(parse_importtime(err)))
    total, numpy_ms, scipy_ms = (statistics.median(col) for col in zip(*splits))
    return {"cli.interpreter_ms": statistics.median(interpreter),
            "cli.import_ms": total, "cli.import_numpy_ms": numpy_ms,
            "cli.import_scipy_ms": scipy_ms,
            "cli.import_twospin_ms": total - numpy_ms - scipy_ms}


def ratio(num, den):
    return num / den if den > 0 else 0.0


def per_layer(traced, untraced, imports, cli_names, expander_rss):
    """Every per-layer metric; a layer the workload does not call reads 0.

    Times and counts are per pass of the traced run; rates divide the work
    counted by the benchmark by the span time it took.
    """
    passes = len(traced["passes"])
    spans = traced["spans"]
    kinds = {i: op["kind"] for i, op in enumerate(traced["ops"])}
    busy = layer_times(spans)
    totals = span_totals(spans, kinds)
    counts = {}
    for op in traced["ops"]:
        for key, value in op["counts"].items():
            counts[key] = counts.get(key, 0.0) + value

    def secs(*names):
        return sum(totals.get(n, {"s": 0.0})["s"] for n in names)

    def each(key):
        return counts.get(key, 0.0) / passes

    m = {}
    for layer in MODULES + ("oracle",):
        m[f"{layer}.busy_s"] = busy.get(layer, {"busy_s": 0.0})["busy_s"] / passes
    for layer in MODULES:
        m[f"{layer}.self_s"] = busy.get(layer, {"self_s": 0.0})["self_s"] / passes

    m.update(imports)
    cmd_ms = {}
    for name, start, end, _, _ in spans:
        if layer_of(name) == "cli":
            cmd_ms.setdefault(name.split(".", 1)[1], []).append((end - start) * 1e3)
    for name in cli_names:
        m[f"cli.cmd_ms.{name}"] = statistics.median(cmd_ms.get(name, [0.0]))
    commands = [x for values in cmd_ms.values() for x in values]
    m["cli.work_ms"] = (statistics.median(commands) - imports["cli.import_ms"]) if commands else 0.0

    pinned_s = secs("spins.log_partition@pinned")
    m.update({
        "spins.calls": each("spins.calls"),
        "spins.configs": each("spins.configs"),
        "spins.configs_per_s": ratio(counts.get("spins.free_configs", 0.0),
                                     secs("spins.log_partition") - pinned_s),
        "spins.pinned_configs_per_s": ratio(counts.get("spins.pinned_configs", 0.0), pinned_s),
        "spins.configs_per_s.t2": traced.get("extra", {}).get("metrics", {}).get(
            "spins.configs_per_s.t2", 0.0),
        "reduction.build_s": secs("reduction.build_reduction_graph") / passes,
        "reduction.edge_records": each("reduction.edge_records"),
        "reduction.audit_s": secs("reduction.audit_reduction_graph") / passes,
        "reduction.blocks_roundtrip_s": secs("reduction.blocks_to_text",
                                             "reduction.blocks_from_text") / passes,
        "reduction.sandwich_s": secs("reduction.sandwich_check") / passes,
        "reduction.restricted_sums": each("reduction.restricted_sums"),
        "reduction.sandwich_configs_per_s": ratio(counts.get("reduction.sandwich_configs", 0.0),
                                                  secs("reduction.sandwich_check")),
        "reduction.polarized_closed_us": ratio(
            secs("reduction.log_polarized_sum_closed") * 1e6,
            totals.get("reduction.log_polarized_sum_closed", {"calls": 0})["calls"]),
        "graphs.to_text_s": secs("graphs.graph_to_text") / passes,
        "graphs.from_text_s": secs("graphs.graph_from_text") / passes,
        "graphs.text_bytes": each("graphs.text_bytes"),
        "graphs.from_text_mb_per_s": ratio(counts.get("graphs.text_bytes", 0.0) / 1e6,
                                           secs("graphs.graph_from_text")),
        "e2lin2.best_assignment_s": secs("e2lin2.best_assignment") / passes,
        "e2lin2.assignments": each("e2lin2.assignments"),
        "uniqueness.phase_grid_s": secs("uniqueness.phase_grid") / passes,
        "uniqueness.phase_cells": each("uniqueness.phase_cells"),
        "uniqueness.phase_us_per_cell": ratio(secs("uniqueness.phase_grid") * 1e6,
                                              counts.get("uniqueness.phase_cells", 0.0)),
        "uniqueness.magnitude_us_per_cell": ratio(
            secs("uniqueness.magnitude_grid@magnitude-grid") * 1e6,
            counts.get("uniqueness.magnitude_cells", 0.0)),
        "uniqueness.threshold_s": secs("uniqueness.first_nonunique_degree") / passes,
        "analysis.rate_scan_s": secs("analysis.rate_bound_scan") / passes,
        "analysis.rate_cells": each("analysis.rate_cells"),
        "analysis.expander_s": secs("analysis.expander_audit") / passes,
        "analysis.expander_pairs": each("analysis.expander_pairs"),
        "analysis.expander_peak_rss_mb": expander_rss,
        "analysis.coupling_s": secs("analysis.coupling_sim") / passes,
        "analysis.sequences": each("analysis.sequences"),
        "analysis.gadget_mc_s": secs("analysis.expected_profile_sum_mc") / passes,
        "trace.overhead_pct": 100.0 * (statistics.fmean(traced["passes"])
                                       / statistics.fmean(untraced["passes"]) - 1.0),
    })
    return m


# ---------------------------------------------------------------------------
# Runs and output


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def run_facts(seed):
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "src_lines": src_lines(),
    }


def run_workload(spec, design, facts, name, seed, seconds, trace):
    """One workload's metrics, as the result object printed last."""
    if trace:
        untraced = worker(name, seed, seconds)
        traced = worker(name, seed, seconds, trace=1)
        e2e, samples = end_to_end(untraced, [untraced["setup_s"]], [untraced["raw_setup_s"]])
        expander_rss = 0.0
        if name == "numeric-scans":
            expander_rss = worker(name, seed, seconds, mode="--expander-rss")[
                "expander_peak_rss_mb"]
        cli_names = [m["name"][len("cli.cmd_ms."):] for m in spec["per_layer"]
                     if m["name"].startswith("cli.cmd_ms.")]
        values = per_layer(traced, untraced, import_breakdown(), cli_names, expander_rss)
        attempted, failed, errors = tally(untraced, traced)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": name, "facts": facts,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": traced["spans"],
            "ops": [{k: op[k] for k in ("kind", "latency_s", "ok")} for op in traced["ops"]],
        }))
        listed = spec["per_layer"]
    else:
        workers = [worker(name, seed, seconds, mode="--setup-only")
                   for _ in range(SETUP_SAMPLES - 1)]
        main = worker(name, seed, seconds)
        workers.append(main)
        e2e, samples = end_to_end(main, [w["setup_s"] for w in workers],
                                  [w["raw_setup_s"] for w in workers])
        attempted, failed, errors = tally(main)
        values = e2e
        listed = spec["end_to_end"]

    missing = {m["name"] for m in listed} ^ set(values)
    if missing:
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")

    print(f"== {name}: {design['workloads'][name]['op']}")
    print(f"   attempted {attempted}, failed {failed}, "
          f"error_rate {ratio(failed, attempted):.4g} (ops)")
    for err in errors[:5]:
        print(f"   FAILED {err}")
    for m in spec["end_to_end"]:
        print(f"   {m['name']:<34} {e2e[m['name']]:>14.6g} {m['unit']:<6} "
              f"{samples[m['name']]}")
    if trace:
        print(f"   traced wall_s {statistics.fmean(traced['passes']):.6g} s; "
              f"spans in {trace_file.relative_to(ROOT)}")
        for layer, moves in design["layers"].items():
            print(f"   [{layer}] should move: {moves}")
            for m in listed:
                if m["name"].split(".", 1)[0] == layer:
                    print(f"   {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    return {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    design = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "twospin" / "__init__.py").is_file():
        print(f"perfbench: no twospin sources under {SRC}", file=sys.stderr)
        return 2

    facts = run_facts(args.seed)
    for key, value in facts.items():
        print(f"# {key}: {value}")
    selected = names if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(spec, design, facts, n, args.seed, args.seconds, args.trace)
                   for n in selected}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
