import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from oracles import linear_log_partition
from twospin import reduction
from twospin.e2lin2 import E2Lin2Instance, random_instance
from twospin.errors import RegimeError, ResourceLimitError, UsageError
from twospin.logspace import log_sum_exp
from twospin.reduction import (BoundsConstants, GadgetParams,
                               audit_reduction_graph, blocks_from_text,
                               blocks_to_text, bounds_constants,
                               build_reduction_graph, decode_satisfied_estimate,
                               log_polarized_sum_brute,
                               log_polarized_sum_closed, log_restricted_sum,
                               polarized_fixed_spins, sample_gadget,
                               sandwich_check)
from twospin.spins import SpinParams, log_partition
from twospin.uniqueness import SplitCase


def test_sample_gadget_single_pair():
    h = sample_gadget(1, 3, seed=0)
    assert h.graph.edges == ((0, 1, 3),)


def test_sample_gadget_regularity_and_determinism():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        delta = int(rng.integers(1, 7))
        seed = int(rng.integers(1 << 30))
        h = sample_gadget(n, delta, seed)
        assert set(h.left_degrees()) == {delta}
        assert set(h.right_degrees()) == {delta}
        assert sample_gadget(n, delta, seed).graph == h.graph


def test_sample_gadget_uniform_over_matchings():
    # N=3, delta=1: six permutations, each with frequency 1/6 within 3 sigma
    trials = 60000
    counts = Counter()
    for seed in range(trials):
        h = sample_gadget(3, 1, seed)
        key = tuple(v for u, v, m in sorted(h.graph.edges))
        counts[key] += 1
    assert len(counts) == 6
    sigma = math.sqrt((1 / 6) * (5 / 6) / trials)
    for key, c in counts.items():
        assert abs(c / trials - 1 / 6) <= 3 * sigma


def test_single_equation_hand_trace():
    # one equation with b = 1, t = delta = delta' = 1: a 4-cycle
    inst = E2Lin2Instance(2, ((0, 1, 1),))
    rg = build_reduction_graph(inst, GadgetParams(1, 1, 1, seed=7))
    g = rg.graph
    assert g.num_vertices == 4
    assert g.is_regular() and g.regular_degree() == 2
    assert g.num_edges == 4
    # step-1 edges join U_i to U_j and V_i to V_j for b = 1
    u_i, v_i = rg.u_blocks[0][0][0], rg.v_blocks[0][0][0]
    u_j, v_j = rg.u_blocks[1][0][0], rg.v_blocks[1][0][0]
    mults = {(min(a, b), max(a, b)): m for a, b, m in g.edges}
    assert mults[(min(u_i, u_j), max(u_i, u_j))] == 1
    assert mults[(min(v_i, v_j), max(v_i, v_j))] == 1


def test_build_requires_normalized_instance():
    inst = E2Lin2Instance(3, ((0, 1, 1),))  # variable 2 unused
    with pytest.raises(UsageError):
        build_reduction_graph(inst, GadgetParams(1, 1, 1, 0))


def test_structure_audits_across_instances():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(max(1, n // 2), 5))
        inst = random_instance(n, m, int(rng.integers(1 << 30)))
        params = GadgetParams(int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                              int(rng.integers(1, 3)), int(rng.integers(1 << 30)))
        rg = build_reduction_graph(inst, params)
        audit = audit_reduction_graph(rg)
        assert audit.passed
        assert audit.vertex_count == 4 * inst.num_equations * params.block_size
        assert audit.degree == params.delta + params.delta_prime
        # a flipped right-hand side keeps every degree; only the wiring check sees it
        for s, (i, j, b) in enumerate(inst.equations):
            eqs = list(inst.equations)
            eqs[s] = (i, j, 1 - b)
            flipped = audit_reduction_graph(dataclasses.replace(
                rg, instance=E2Lin2Instance(inst.num_vars, tuple(eqs))))
            assert not flipped.wiring_ok and not flipped.passed
            assert dataclasses.replace(flipped, wiring_ok=True).passed


def test_build_determinism_and_gadget_independence():
    inst = E2Lin2Instance(3, ((0, 1, 1), (1, 2, 0)))
    params = GadgetParams(2, 1, 2, seed=99)
    assert build_reduction_graph(inst, params).graph == \
        build_reduction_graph(inst, params).graph
    # adding an equation on a new variable must not reshuffle earlier gadgets
    bigger = E2Lin2Instance(4, ((0, 1, 1), (1, 2, 0), (2, 3, 1)))
    rg_small = build_reduction_graph(inst, params)
    rg_big = build_reduction_graph(bigger, params)
    edges_small = {(u, v): m for u, v, m in rg_small.graph.edges
                   if u in set(rg_small.u_side(0)) | set(rg_small.v_side(0))
                   and v in set(rg_small.u_side(0)) | set(rg_small.v_side(0))}
    edges_big = {(u, v): m for u, v, m in rg_big.graph.edges
                 if u in set(rg_big.u_side(0)) | set(rg_big.v_side(0))
                 and v in set(rg_big.u_side(0)) | set(rg_big.v_side(0))}
    assert edges_small == edges_big  # variable 0 blocks have identical layout


def test_bounds_constants_examples():
    bc = bounds_constants(SpinParams(0.5, 0.5), 1, 1, SplitCase.BETA_BELOW_HALF)
    assert math.exp(bc.log_c) == pytest.approx(0.8125, abs=1e-12)
    assert math.exp(bc.log_d) == pytest.approx(1.5625 / 0.8125, abs=1e-12)
    bc = bounds_constants(SpinParams(0.4, 0.5), 5, 2,
                          SplitCase.BETA_ABOVE_GAMMA_POWER)
    assert math.exp(bc.log_c) == pytest.approx(0.04, rel=1e-12)
    assert math.exp(bc.log_d) == pytest.approx(25.0, rel=1e-12)
    assert bc.log_d == -bc.log_c


def test_bounds_constants_growth_holds():
    rng = np.random.default_rng(12)
    for _ in range(60):
        beta = rng.uniform(0.001, 1.0)
        gamma = rng.uniform(beta, 1.0)
        if beta * gamma >= 1 or (beta == 1 and gamma == 1):
            continue
        delta = int(rng.integers(1, 50))
        delta_prime = int(rng.integers(1, 10))
        bc = bounds_constants(SpinParams(beta, gamma), delta, delta_prime,
                              SplitCase.BETA_BELOW_HALF)
        assert bc.log_d > 0
    # reciprocal-pair form with (beta*gamma)**delta_prime < 2**-12
    bc = bounds_constants(SpinParams(0.6, 0.9), 100, 12, SplitCase.BETA_ABOVE_HALF)
    assert math.exp(bc.log_d) > 4 / (3 + 2 ** -12)
    with pytest.raises(RegimeError):
        bounds_constants(SpinParams(1.5, 1.0), 2, 1, SplitCase.BETA_BELOW_HALF)


def test_polarized_closed_form_examples():
    inst = E2Lin2Instance(2, ((0, 1, 1),))
    rg = build_reduction_graph(inst, GadgetParams(1, 1, 1, seed=7))
    p = SpinParams(0.5, 0.5)
    assert log_polarized_sum_closed(rg, (0, 1), p) == pytest.approx(
        math.log(1.5625), abs=1e-12)
    assert log_polarized_sum_closed(rg, (0, 0), p) == pytest.approx(
        math.log(0.8125), abs=1e-12)
    # fully satisfied assignment leaves only the satisfied factor
    anti = E2Lin2Instance(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
    rg3 = build_reduction_graph(anti, GadgetParams(2, 1, 1, seed=1))
    sat_factor = math.log(1 + 2 * 0.5 ** 3 + 0.5 ** 6)
    val = log_polarized_sum_closed(rg3, (0, 1, 0), p)  # satisfies 2 of 3
    unsat_factor = math.log(0.5 ** 2 + 2 * 0.5 ** 3 + 0.5 ** 6)
    assert val == pytest.approx(2 * sat_factor + 1 * unsat_factor, abs=1e-12)


def test_polarized_brute_is_a_restricted_partition():
    inst = E2Lin2Instance(2, ((0, 1, 0),))
    rg = build_reduction_graph(inst, GadgetParams(1, 2, 1, seed=3))
    p = SpinParams(0.3, 0.8)
    bits = (1, 0)
    fixed = polarized_fixed_spins(rg, bits)
    # oracle: linear sum over all configurations with the forced side all-ones
    forced = set(fixed)

    def keep(cfg):
        return all(cfg[v] == 1 for v in forced)

    expect = linear_log_partition(rg.graph.num_vertices, rg.graph.edges,
                                  p.beta, p.gamma, 1.0, keep)
    assert log_polarized_sum_brute(rg, bits, p) == pytest.approx(expect, abs=1e-10)


def test_polarized_closed_equals_brute_small_matrix():
    rng = np.random.default_rng(21)
    insts = [E2Lin2Instance(2, ((0, 1, 1),)),
             E2Lin2Instance(3, ((0, 1, 1), (1, 2, 0)))]
    for inst in insts:
        for t in (1, 2):
            for delta in (1, 2):
                for delta_prime in (1, 2):
                    rg = build_reduction_graph(
                        inst, GadgetParams(delta, delta_prime, t,
                                           int(rng.integers(1 << 30))))
                    beta, gamma = rng.uniform(0.05, 1.0, 2)
                    p = SpinParams(float(beta), float(gamma))
                    for enc in range(1 << inst.num_vars):
                        bits = tuple((enc >> i) & 1 for i in range(inst.num_vars))
                        closed = log_polarized_sum_closed(rg, bits, p)
                        brute = log_polarized_sum_brute(rg, bits, p)
                        assert abs(closed - brute) <= 1e-9 * max(1, abs(closed))


def test_polarized_requires_flat_field():
    inst = E2Lin2Instance(2, ((0, 1, 1),))
    rg = build_reduction_graph(inst, GadgetParams(1, 1, 1, seed=7))
    with pytest.raises(UsageError):
        log_polarized_sum_closed(rg, (0, 1), SpinParams(0.5, 0.5, 2.0))
    with pytest.raises(UsageError):
        log_polarized_sum_brute(rg, (0, 1), SpinParams(0.5, 0.5, 2.0))


def test_restricted_sum_families():
    inst = E2Lin2Instance(2, ((0, 1, 1),))
    rg = build_reduction_graph(inst, GadgetParams(1, 1, 1, seed=7))
    p = SpinParams(0.5, 0.5)
    z = log_partition(rg.graph, p)
    # a minority cap of one full side is vacuous
    assert log_restricted_sum(rg, p, ("minority-cap",), minority_fraction=1.0) \
        == pytest.approx(z, abs=1e-12)
    # the polarized family reproduces the brute-force sum
    bits = (0, 1)
    assert log_restricted_sum(rg, p, ("polarized",), bits) == pytest.approx(
        log_polarized_sum_brute(rg, bits, p), abs=1e-12)
    # two-sided caps never exceed the one-sided ones
    assert log_restricted_sum(rg, p, ("two-sided-cap",), bits, cap_fraction=0.6) \
        <= log_restricted_sum(rg, p, ("small-side-cap",), bits, cap_fraction=0.6) + 1e-12
    # adding the majority family can only shrink the sum
    assert log_restricted_sum(rg, p, ("majority", "minority-cap"), bits,
                              minority_fraction=1.0) <= \
        log_restricted_sum(rg, p, ("majority",), bits) + 1e-12
    with pytest.raises(UsageError):
        log_restricted_sum(rg, p, ("no-such-family",), bits)
    with pytest.raises(UsageError):
        log_restricted_sum(rg, p, ("majority",))  # needs an assignment


def test_majority_partition_covers_everything():
    # summing the majority-restricted sums over all assignments covers Z
    inst = E2Lin2Instance(2, ((0, 1, 0), (0, 1, 1)))
    rg = build_reduction_graph(inst, GadgetParams(1, 1, 1, seed=2))
    p = SpinParams(0.4, 0.7)
    z = log_partition(rg.graph, p)
    parts = [log_restricted_sum(rg, p, ("majority",),
                                tuple((enc >> i) & 1 for i in range(2)))
             for enc in range(4)]
    assert log_sum_exp(parts) >= z - 1e-12
    assert max(parts) <= z + 1e-12


def test_sandwich_check_runs():
    rng = np.random.default_rng(31)
    for seed in range(6):
        inst = random_instance(int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                               int(rng.integers(1 << 30)))
        rg = build_reduction_graph(
            inst, GadgetParams(int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                               1, seed))
        p = SpinParams(float(rng.uniform(0.05, 1)), float(rng.uniform(0.05, 1)))
        rep = sandwich_check(rg, p)
        assert rep.passed, rep
    # 32 vertices: over the cap on every exact reduction sum
    rg = build_reduction_graph(random_instance(4, 4, 1), GadgetParams(1, 1, 2, 0))
    assert rg.graph.num_vertices > reduction.MAX_REDUCTION_VERTICES
    with pytest.raises(ResourceLimitError):
        sandwich_check(rg, SpinParams(0.5, 0.5))


def test_decode_round_trip():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        m = int(rng.integers(1, 50))
        theta = int(rng.integers(0, m + 1))
        log_c = float(rng.normal())
        log_d = float(rng.uniform(0.01, 3.0))
        bc = BoundsConstants(log_c, log_d, SplitCase.BETA_BELOW_HALF)
        eps, slack = 1e-4, 0.03
        log_y = (math.log1p(eps) + n * math.log(2) + m * m * log_c
                 + m * theta * log_d + slack * m * m * log_d)
        got = decode_satisfied_estimate(log_y, n, m, bc, relative_error=eps,
                                        slack=slack)
        assert got == pytest.approx(theta, abs=1e-8)
        # strictly increasing in the estimate
        assert decode_satisfied_estimate(log_y - 0.5, n, m, bc) < got
    with pytest.raises(UsageError):
        decode_satisfied_estimate(1.0, 2, 2,
                                  BoundsConstants(0.0, -1.0, SplitCase.BETA_BELOW_HALF))
    # no variables or no equations: nothing to divide by
    bc = BoundsConstants(0.0, 1.0, SplitCase.BETA_BELOW_HALF)
    for n, m in ((0, 2), (2, 0), (-1, 2), (2, -3)):
        with pytest.raises(UsageError):
            decode_satisfied_estimate(1.0, n, m, bc)


def test_blocks_roundtrip():
    inst = E2Lin2Instance(3, ((0, 1, 1), (1, 2, 0), (0, 2, 1)))
    rg = build_reduction_graph(inst, GadgetParams(2, 1, 2, seed=11))
    text = blocks_to_text(rg)
    back = blocks_from_text(text, rg.graph)
    assert back == rg
    with pytest.raises(UsageError):
        blocks_from_text("block U 0 0 1 2\n", rg.graph)


def _mutants(text, rng, count):
    """Seeded truncations, dropped and duplicated lines, and corrupted tokens."""
    lines = text.splitlines(keepends=True)
    tokens = ["x", "-1", "0", "1", "2", "7", "999999", "1.5", "U", "V", "e", "p", "#"]
    for _ in range(count):
        kind = int(rng.integers(4))
        i = int(rng.integers(len(lines)))
        if kind == 0:
            yield text[:int(rng.integers(len(text)))]
        elif kind == 1:
            yield "".join(lines[:i] + lines[i + 1:])
        elif kind == 2:
            yield "".join(lines[:i + 1] + lines[i:])
        else:
            words = lines[i].split()
            words[int(rng.integers(len(words)))] = tokens[int(rng.integers(len(tokens)))]
            yield "".join(lines[:i] + [" ".join(words) + "\n"] + lines[i + 1:])


def test_blocks_from_text_rejects_or_round_trips_mutants():
    rng = np.random.default_rng(41)
    inst = E2Lin2Instance(3, ((0, 1, 1), (1, 2, 0), (0, 2, 1)))
    rg = build_reduction_graph(inst, GadgetParams(2, 1, 2, seed=11))
    text = blocks_to_text(rg)
    outcomes = Counter()
    for mutant in _mutants(text, rng, 600):
        try:
            back = blocks_from_text(mutant, rg.graph)
        except UsageError:
            outcomes["rejected"] += 1
            continue
        assert blocks_to_text(back).splitlines() == mutant.splitlines()
        assert blocks_from_text(blocks_to_text(back), rg.graph) == back
        outcomes["round-trip"] += 1
    assert outcomes["rejected"] > 300 and outcomes["round-trip"] > 0
    # each defect the parser once let through or leaked
    lines = text.splitlines()
    block_line = next(ln for ln in lines if ln.startswith("block"))
    for bad in ("p blocks 3 3 2 2 1 x\n",                      # ValueError
                "\n".join(lines[:1] + lines[4:]) + "\n",        # KeyError
                text + block_line.replace("block U 0 0", "block U 9 0") + "\n",
                text + block_line.replace("block U 0 0", "block U 0 5") + "\n",
                text + block_line + "\n",
                lines[0] + "\n" + text,
                text.replace("e 1 2 1\n", "e 1 2 0\n")):       # wiring
        with pytest.raises(UsageError):
            blocks_from_text(bad, rg.graph)


def test_end_to_end_decode_report():
    # tiny full-pipeline run with published-shape block size (t = m): the
    # decoder output is reported alongside the true optimum; toy constants
    # carry no guarantee, so no ordering is asserted between them
    inst = E2Lin2Instance(2, ((0, 1, 1), (0, 1, 1)))
    t = inst.num_equations
    rg = build_reduction_graph(inst, GadgetParams(2, 1, t, seed=13))
    p = SpinParams(0.25, 0.5)
    log_z = log_partition(rg.graph, p)
    bc = bounds_constants(p, 2, 1, SplitCase.BETA_BELOW_HALF)
    estimate = decode_satisfied_estimate(log_z, inst.num_vars,
                                         inst.num_equations, bc)
    assert math.isfinite(estimate)
