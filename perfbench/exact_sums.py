"""exact-sums: in-process `spins.log_partition` on 18-22 free vertices.

One pass is ten sums with fixed structure sizes (grids, a cycle, circulants,
and reduction graphs with the polarized side pinned); the seed draws the
weights, the circulant offsets and the reduction instances, so every seed
asks for the same number of configurations.  Free graphs are checked
against a transfer-matrix sum within 1e-9 log-relative; pinned sums
against `reduction.log_polarized_sum_closed`.
"""

import time

import numpy as np

from harness import Op, Workload
import oracles

from twospin import e2lin2, reduction, spins
from twospin.graphs import MultiGraph

TOLERANCE = 1e-9

# (kind, shape): grids are rows x cols, cycles and circulants have n
# vertices, pinned reductions have m equations and block size t (2 m t free
# vertices).  Sorted by cost the slots form groups: four cheap sums, two
# 20-vertex grids in the middle, two 21-22-vertex sums, and two 22-vertex
# circulants on top, so that the nearest-rank p50 and p90 over the pass's
# sums fall inside a group of like sums.
SLOTS = (
    ("grid", (3, 6)), ("cycle", (18,)), ("pinned", (9, 1)), ("pinned", (5, 2)),
    ("grid", (4, 5)), ("grid", (5, 4)),
    ("grid", (3, 7)), ("pinned", (11, 1)),
    ("circulant", (22,)), ("circulant", (22,)),
)


def grid_edges(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return edges


def circulant_edges(n, offsets):
    return [(i, (i + d) % n) for i in range(n) for d in offsets]


def _weights(rng, hard_core=False):
    beta = 0.0 if hard_core else float(rng.uniform(0.2, 1.6))
    return spins.SpinParams(beta, float(rng.uniform(0.2, 1.6)),
                            float(np.exp(rng.uniform(-0.7, 0.7))))


def _free_sum_op(kind, g, p, reference):
    configs = float(1 << g.num_vertices)

    def work(tr):
        value = tr.call(spins.log_partition, g, p, threads=1)
        return value, {"spins.calls": 1, "spins.configs": configs,
                       "spins.free_configs": configs}

    def check(tr, value):
        return oracles.log_rel_gap(value, reference(p)) <= TOLERANCE

    return Op(kind, work, check)


def _pinned_op(rg, bits, p):
    fixed = {v: 1 for i, b in enumerate(bits)
             for v in (rg.u_side(i) if b == 0 else rg.v_side(i))}
    configs = float(1 << (rg.graph.num_vertices - len(fixed)))

    def work(tr):
        value = tr.call(spins.log_partition, rg.graph, p, fixed=fixed, threads=1)
        return value, {"spins.calls": 1, "spins.configs": configs,
                       "spins.pinned_configs": configs}

    def check(tr, value):
        closed = tr.call(reduction.log_polarized_sum_closed, rg, bits, p)
        return oracles.log_rel_gap(value, closed) <= TOLERANCE

    return Op("pinned", work, check)


def build(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = []
    free = []
    for kind, shape in SLOTS:
        if kind == "pinned":
            m, t = shape
            inst = e2lin2.random_instance(max(2, m // 2 + 1), m,
                                          int(rng.integers(1 << 31)))
            rg = reduction.build_reduction_graph(
                inst, reduction.GadgetParams(2, 1, t, int(rng.integers(1 << 31))))
            bits = tuple(int(b) for b in rng.integers(0, 2, inst.num_vars))
            p = spins.SpinParams(float(rng.uniform(0.2, 1.6)),
                                 float(rng.uniform(0.2, 1.6)))
            ops.append(_pinned_op(rg, bits, p))
            continue
        if kind == "grid":
            rows, cols = shape
            g = MultiGraph.from_edges(rows * cols, grid_edges(rows, cols))
            reference = (lambda p, rows=rows, cols=cols:
                         oracles.log_grid_partition(rows, cols, p.beta, p.gamma, p.mu))
        else:
            n = shape[0]
            offsets = (1,) if kind == "cycle" else (1, int(rng.integers(2, 6)))
            g = MultiGraph.from_edges(n, circulant_edges(n, offsets))
            reference = (lambda p, n=n, offsets=offsets:
                         oracles.log_circulant_partition(n, offsets, p.beta,
                                                         p.gamma, p.mu))
        # the cycle runs the hard-core case beta = 0, where -inf must stay exact
        p = _weights(rng, hard_core=(kind == "cycle"))
        free.append((kind, g, p, reference))
        ops.append(_free_sum_op(kind, g, p, reference))

    def warmup():
        p = free[0][2]
        spins.log_partition(MultiGraph.from_edges(12, grid_edges(3, 4)), p, threads=1)
        oracles.log_grid_partition(3, 4, p.beta, p.gamma, p.mu)

    def extra():
        """Configurations per second of the free sums with threads=2.

        Returns (metrics, sums attempted, sums failing their oracle).
        """
        configs = 0.0
        seconds = 0.0
        failed = 0
        for _, g, p, reference in free:
            start = time.perf_counter()
            value = spins.log_partition(g, p, threads=2)
            seconds += time.perf_counter() - start
            configs += 1 << g.num_vertices
            failed += oracles.log_rel_gap(value, reference(p)) > TOLERANCE
        return {"spins.configs_per_s.t2": configs / seconds}, len(free), failed

    return Workload(ops, warmup=warmup, extra=extra)
