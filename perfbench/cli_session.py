"""cli-session: seeded commands, one fresh `python -m twospin` interpreter each.

One pass is fifteen commands: nine plain subcommands and six quick `verify`
checks, in a fixed order.  The seed draws every weight, degree and seed
argument and the contents of the graph and instance files the commands
read.  Commands that take `--threads` get `--threads 1`.  An op is one
command; it passes when it exits 0, prints JSON, and the JSON has the
report's keys (and `"pass": true` for a verify check).  There is no
warm-up: the interpreter's cold start is the user's cost.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from harness import Op, Workload

OUT = Path(__file__).resolve().parent / "out"
REPORT_KEYS = {"command", "inputs", "outputs", "checks"}
VERIFY_KEYS = {"command", "check", "params", "value", "bound", "pass", "margin", "checks"}
COMMAND_TIMEOUT_S = 120


def _graph_text(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return "".join([f"p graph {rows * cols} {len(edges)}\n"]
                   + [f"e {u} {v} 1\n" for u, v in edges])


def _instance_text(rng, n, m):
    """m random equations on n variables, every variable used at least once."""
    while True:
        eqs = []
        for _ in range(m):
            i, j = rng.choice(n, size=2, replace=False)
            eqs.append((int(i) + 1, int(j) + 1, int(rng.integers(2))))
        if {v for i, j, _ in eqs for v in (i, j)} == set(range(1, n + 1)):
            return "".join([f"p e2lin2 {n} {m}\n"] + [f"{i} {j} {b}\n" for i, j, b in eqs])


def commands(rng, workdir: Path):
    """The (name, argv) list of one pass; writes the input files it names."""
    graph = workdir / "grid.graph"
    graph.write_text(_graph_text(3, 4), encoding="ascii")
    instance = workdir / "instance.e2"
    instance.write_text(_instance_text(rng, 6, 8), encoding="ascii")

    def u(lo, hi):
        return f"{rng.uniform(lo, hi):.6f}"

    def seed():
        return str(int(rng.integers(1 << 20)))

    def spin():
        return ["--beta", u(0.1, 0.9), "--gamma", u(0.1, 0.9), "--mu", u(0.5, 2.0)]

    def degree():
        return str(int(rng.integers(3, 13)))

    return [
        ("z", ["z", "--graph", str(graph), *spin(), "--threads", "1"]),
        ("uniqueness", ["uniqueness", *spin(), "--degree", degree()]),
        ("threshold", ["threshold", *spin()]),
        ("translate-field", ["translate-field", *spin(), "--degree", degree()]),
        ("decode", ["decode", "--log-y", u(5.0, 50.0), "--n", "6", "--m", "8",
                    "--beta", u(0.1, 0.45), "--gamma", u(0.1, 0.9),
                    "--delta", "2", "--delta-prime", "1"]),
        ("gadget", ["gadget", "--side", "8", "--delta", "6", "--seed", seed(),
                    "--out", str(workdir / "gadget.graph")]),
        ("reduce", ["reduce", "--instance", str(instance), "--delta", "2",
                    "--delta-prime", "1", "--block-size", "2", "--seed", seed(),
                    "--out-prefix", str(workdir / "reduced")]),
        ("theta-star", ["theta-star", "--instance", str(instance)]),
        ("phase-map", ["phase-map", "--beta-min", u(0.05, 0.15), "--beta-max", u(0.85, 0.95),
                       "--beta-steps", "5", "--gamma-min", u(0.05, 0.15),
                       "--gamma-max", u(0.85, 0.95), "--gamma-steps", "5",
                       "--degree", degree(), "--out", str(workdir / "phase.csv")]),
        ("verify-polarized", ["verify", "polarized", "--seed", seed(), "--threads", "1"]),
        ("verify-field", ["verify", "field", "--seed", seed(), "--threads", "1"]),
        ("verify-sandwich", ["verify", "sandwich", "--seed", seed(), "--threads", "1"]),
        ("verify-gadget-mean", ["verify", "gadget-mean", "--seed", seed()]),
        # a level-alpha test fails a correct program with probability alpha;
        # this level keeps runs from failing by chance
        ("verify-coupling", ["verify", "coupling", "--seed", seed(), "--alpha", "1e-6"]),
        ("verify-expander", ["verify", "expander", "--seed", seed()]),
    ]


def _command_op(name, argv):
    cmd = [sys.executable, "-m", "twospin", *argv]

    def work(tr):
        with tr.span("cli." + name):
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
        return proc, {}

    def check(tr, proc):
        if proc.returncode != 0:
            return False
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return False
        if argv[0] == "verify":
            return VERIFY_KEYS <= report.keys() and report["pass"] is True
        return REPORT_KEYS <= report.keys() and report["command"] == argv[0]

    return Op(name, work, check)


def build(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    workdir = OUT / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = [_command_op(name, argv) for name, argv in commands(rng, workdir)]
    return Workload(ops, cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))
