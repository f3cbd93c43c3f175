"""reduction-pipeline: seeded toy E2LIN2 cases through the whole reduction.

One op is one case: `e2lin2.random_instance` -> `best_assignment` ->
`reduction.build_reduction_graph` -> `audit_reduction_graph` -> graph and
blocks text round trip -> `sandwich_check`.  A pass is eight small cases
(12-16 vertices, so 2^n + 1 small constrained sums each) and two large
cases (about 20k vertices and 50k edge records, no sandwich) that load
build, audit and parsing.  The seed draws instance seeds, gadget seeds and
weights; case shapes and variable counts are fixed, so every seed asks for
the same number of restricted sums.
"""

import numpy as np

from harness import Op, Tracer, Workload
import oracles

from twospin import e2lin2, graphs, reduction, spins

# (n variables, m equations, block size t, delta, delta_prime): 4 m t
# vertices each.  The shapes are fixed so that every seed does the same work.
# Sorted by cost a pass forms groups: three 12-vertex cases with n = 3, four
# with n = 4, one 16-vertex case and two large cases, so that the
# nearest-rank p50 and p90 over the pass's cases fall inside a group.
SMALL_CASES = ((3, 3, 1, 1, 1), (3, 3, 1, 2, 1), (3, 3, 1, 2, 2),
               (4, 3, 1, 1, 1), (4, 3, 1, 1, 2), (4, 3, 1, 2, 1), (4, 3, 1, 2, 2),
               (2, 2, 2, 1, 1))
LARGE_CASE = (16, 50, 100, 4, 2)


def _instance_seed(rng, n, m):
    """A seed whose instance keeps all n variables after normalization."""
    while True:
        seed = int(rng.integers(1 << 31))
        if e2lin2.random_instance(n, m, seed).num_vars == n:
            return seed


def _case_op(rng, shape, p):
    """One case; `p` is None for the large case, which skips the sandwich."""
    n, m, t, delta, delta_prime = shape
    inst_seed = _instance_seed(rng, n, m)
    params = reduction.GadgetParams(delta, delta_prime, t, int(rng.integers(1 << 31)))

    def work(tr):
        inst = tr.call(e2lin2.random_instance, n, m, inst_seed)
        best, bits = tr.call(e2lin2.best_assignment, inst)
        rg = tr.call(reduction.build_reduction_graph, inst, params)
        audit = tr.call(reduction.audit_reduction_graph, rg)
        graph_text = tr.call(graphs.graph_to_text, rg.graph)
        blocks_text = tr.call(reduction.blocks_to_text, rg)
        graph_back = tr.call(graphs.graph_from_text, graph_text)
        rg_back = tr.call(reduction.blocks_from_text, blocks_text, graph_back)
        counts = {"e2lin2.assignments": float(1 << inst.num_vars),
                  "reduction.edge_records": float(len(rg.graph.edges)),
                  "graphs.text_bytes": float(len(graph_text))}
        sandwich = None
        if p is not None:
            sandwich = tr.call(reduction.sandwich_check, rg_back, p, threads=1)
            sums = (1 << inst.num_vars) + 1
            counts["reduction.restricted_sums"] = float(sums)
            counts["reduction.sandwich_configs"] = float(
                sums << rg.graph.num_vertices)
        return (inst, best, bits, rg, audit, rg_back, sandwich), counts

    def check(tr, result):
        inst, best, bits, rg, audit, rg_back, sandwich = result
        if len(bits) != inst.num_vars or oracles.satisfied(inst.equations, bits) != best:
            return False
        # the large case has too many assignments for the loop oracle; its
        # optimum is checked for consistency and against the ceil(m/2) floor
        if p is not None and oracles.best_satisfied(inst.num_vars, inst.equations) != best:
            return False
        if best < (inst.num_equations + 1) // 2:
            return False
        same = (rg_back.graph == rg.graph and rg_back.u_blocks == rg.u_blocks
                and rg_back.v_blocks == rg.v_blocks and rg_back.instance == inst
                and rg_back.params == rg.params)
        return audit.passed and same and (sandwich is None or sandwich.passed)

    return Op("large" if p is None else "small", work, check)


def build(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops = [_case_op(rng, shape, spins.SpinParams(float(rng.uniform(0.05, 1.0)),
                                                 float(rng.uniform(0.05, 1.0))))
           for shape in SMALL_CASES]
    ops += [_case_op(rng, LARGE_CASE, None) for _ in range(2)]

    def warmup():
        tracer = Tracer(False)
        ops[0].check(tracer, ops[0].work(tracer)[0])

    return Workload(ops, warmup=warmup)
