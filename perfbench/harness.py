"""Shared pieces of the benchmark: ops, workloads, the host-speed
calibration, the span recorder and the span arithmetic that turns spans
into per-layer busy and self time.

A span covers one call from the benchmark's own code into a public function
of a twospin module, or one op, or one oracle check.  Its layer is the part
of its name before the first dot: `spins.log_partition` belongs to `spins`,
`op.grid` to `op`, `oracle.grid` to `oracle`.
"""

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

# Seconds the reference kernel takes at the host speed that end-to-end
# times are scaled to: about its median (9.4 ms) on the 2-vCPU host the
# benchmark was written on.
REFERENCE_S = 0.01


@dataclass
class Op:
    """One unit of load: `work` does it, `check` verifies its result.

    `work(tracer)` returns `(result, counts)`, where `counts` are work
    counters the benchmark derives from the inputs and outputs.
    `check(tracer, result)` returns True when an independent oracle agrees.
    """

    kind: str
    work: Callable
    check: Callable


@dataclass
class Workload:
    """The seeded ops of one pass, plus optional warm-up, traced extras and
    clean-up of the files the ops read.

    `extra()` runs after a traced timed phase and returns
    `(metrics, attempted, failed)`: more per-layer metrics measured in the
    same worker, and how many of its results were checked and how many
    failed their oracle.
    """

    ops: List[Op]
    warmup: Optional[Callable] = None
    extra: Optional[Callable] = None
    cleanup: Optional[Callable] = None


class Tracer:
    """Records spans in memory when enabled; otherwise calls straight through.

    Each span is `[name, start, end, parent_index, op_id]` with times from
    `time.perf_counter`.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self.op_id = -1
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        """Call a twospin function inside a span named `<module>.<function>`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__):
            return fn(*args, **kwargs)


def _reference_kernel():
    """Fixed work that no twospin code touches, in three kinds mixed like the
    workloads': an interpreter loop, numpy calls on tiny arrays, and numpy
    passes over 2^16-element arrays."""
    total = 0
    for i in range(40_000):
        total += i * i
    x = np.array([0.5])
    for _ in range(300):
        x = np.where(np.log1p(x) >= 0, x * 0.999, x)
    bits = np.arange(1 << 16, dtype=np.uint64)
    acc = np.zeros(1 << 16)
    for j in range(5):
        acc += np.where((bits >> np.uint64(j)) & np.uint64(1), 0.5, 0.25)
    return total + acc[0] + x[0]


def calibrate(reps: int = 1) -> float:
    """Speed factor of the host right now: REFERENCE_S over the kernel's time.

    On a shared host the CPU speed drifts by tens of percent within seconds
    and between minutes, alike for all work in the process.  Multiplying a
    time by the factor measured next to it scales it to the reference speed.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_times(spans) -> Dict[str, Dict[str, float]]:
    """Busy and self time per layer.

    Busy time counts a span unless an ancestor belongs to the same layer, so
    nested calls within one layer are not counted twice.  Self time is each
    span's duration minus the time its child spans cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = layer_of(name)
        row = out.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0})
        row["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and layer_of(spans[ancestor][0]) != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_s"] += end - start
    return out


def span_totals(spans, op_kinds=None) -> Dict[str, Dict[str, float]]:
    """Total seconds and call count per span name.

    With `op_kinds` (op id -> kind), names are also totalled per op kind as
    `<name>@<kind>`.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, start, end, _, op_id in spans:
        keys = [name]
        if op_kinds is not None and op_id in op_kinds:
            keys.append(f"{name}@{op_kinds[op_id]}")
        for key in keys:
            row = out.setdefault(key, {"s": 0.0, "calls": 0})
            row["s"] += end - start
            row["calls"] += 1
    return out

