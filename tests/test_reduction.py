import dataclasses
import functools
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import fraction_partition, linear_log_partition, majority_keep, sandwich_brute
from twospin import reduction
from twospin.e2lin2 import E2Lin2Instance, random_instance
from twospin.errors import RegimeError, ResourceLimitError, UsageError
from twospin.reduction import (BoundsConstants, GadgetParams,
                               audit_reduction_graph, blocks_from_text,
                               blocks_to_text, bounds_constants,
                               build_reduction_graph, decode_satisfied_estimate,
                               log_majority_sums, log_polarized_sum_brute,
                               log_polarized_sum_closed, polarized_fixed_spins,
                               sample_gadget, sandwich_check)
from twospin.spins import SpinParams, log_config_weight, log_partition
from twospin.uniqueness import SplitCase


def test_sample_gadget_single_pair():
    h = sample_gadget(1, 3, seed=0)
    assert h.graph.edges == ((0, 1, 3),)


def test_negative_seeds_are_usage_errors():
    with pytest.raises(UsageError, match="seed must be a non-negative integer"):
        sample_gadget(3, 2, seed=-1)
    # the gadget parameters carry the seed of every reduction gadget
    with pytest.raises(UsageError, match="seed must be a non-negative integer"):
        GadgetParams(1, 1, 1, seed=-1)
    assert sample_gadget(3, 2, np.random.SeedSequence(5)).side_size == 3


@pytest.mark.parametrize("sizes", [(1.5, 1, 2), (1, 2.0, 2), (1, 1, math.nan), (1, 1, math.inf)])
def test_gadget_params_refuse_non_integer_sizes(sizes):
    # GadgetParams(1.5, 1, 2, 3) once reached the build and raised a bare TypeError
    with pytest.raises(UsageError, match="(delta|delta_prime|block_size) must be an integer"):
        build_reduction_graph(E2Lin2Instance(2, ((0, 1, 1),)), GadgetParams(*sizes, 3))


def test_sample_gadget_regularity_and_determinism():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        delta = int(rng.integers(1, 7))
        seed = int(rng.integers(1 << 30))
        h = sample_gadget(n, delta, seed)
        assert h.graph.regular_degree() == delta
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


def test_majority_partition_covers_everything():
    # summing the majority-restricted sums over all assignments covers Z,
    # exactly, and each of them is part of Z
    inst = E2Lin2Instance(2, ((0, 1, 0), (0, 1, 1)))
    rg = build_reduction_graph(inst, GadgetParams(1, 1, 1, seed=2))
    beta, gamma = Fraction(2, 5), Fraction(7, 10)
    sides = [(rg.u_side(i), rg.v_side(i)) for i in range(2)]
    n = rg.graph.num_vertices
    z = fraction_partition(n, rg.graph.edges, beta, gamma)
    parts = [fraction_partition(n, rg.graph.edges, beta, gamma, keep=majority_keep(sides, enc))
             for enc in range(4)]
    assert sum(parts) >= z >= max(parts)
    log_z, got = log_majority_sums(rg, SpinParams(float(beta), float(gamma)))
    assert log_z == pytest.approx(math.log(z), abs=1e-12)
    np.testing.assert_allclose(got, [math.log(x) for x in parts], rtol=0, atol=1e-12)


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


def _normalized_instance(n, m, seed):
    while random_instance(n, m, seed).num_vars != n:
        seed += 1
    return random_instance(n, m, seed)


# (n, m, t, delta, delta_prime) for 4 m t = 12, 16 and 20 vertices; the
# 20-vertex graph spans 16 enumeration blocks; `threads` is accepted and unused
@pytest.mark.parametrize("shape", [(3, 3, 1, 2, 1), (2, 2, 2, 2, 1), (4, 5, 1, 1, 2)])
def test_sandwich_matches_brute_force(shape):
    n, m, t, delta, delta_prime = shape
    rng = np.random.default_rng(4 * m * t)
    rg = build_reduction_graph(_normalized_instance(n, m, 7),
                               GadgetParams(delta, delta_prime, t, 11))
    beta, gamma = rng.uniform(0.05, 1.5, 2)
    weights = [SpinParams(beta, gamma), SpinParams(0, gamma), SpinParams(beta, 0),
               SpinParams(0, 0)]
    expect = sandwich_brute(rg.graph.num_vertices, rg.graph.edges,
                            [(rg.u_side(i), rg.v_side(i)) for i in range(n)],
                            [functools.partial(log_config_weight, rg.graph, p)
                             for p in weights])
    for p, (total, largest, summed, parts) in zip(weights, expect):
        rep = sandwich_check(rg, p)
        assert sandwich_check(rg, p, threads=2) == rep
        np.testing.assert_allclose(
            [rep.log_total, rep.log_max_restricted, rep.log_sum_restricted],
            [total, largest, summed], rtol=0, atol=1e-12)
        log_total, got = log_majority_sums(rg, p)
        assert log_total == rep.log_total
        np.testing.assert_allclose(got, parts, rtol=0, atol=1e-12)


def test_majority_sums_match_exact_fractions():
    rg = build_reduction_graph(_normalized_instance(3, 3, 5), GadgetParams(2, 1, 1, 4))
    assert rg.graph.num_vertices == 12
    beta, gamma = Fraction(1, 3), Fraction(5, 4)
    _, parts = log_majority_sums(rg, SpinParams(float(beta), float(gamma)))
    sides = [(rg.u_side(i), rg.v_side(i)) for i in range(3)]
    for enc, got in enumerate(parts):
        exact = fraction_partition(12, rg.graph.edges, beta, gamma,
                                   keep=majority_keep(sides, enc))
        want = math.log(exact.numerator) - math.log(exact.denominator)
        assert abs(got - want) <= 1e-12


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
    # finite inputs whose quotient overflows a double
    with pytest.raises(UsageError, match="not finite"):
        decode_satisfied_estimate(1e300, 1, 1, BoundsConstants(
            0.0, 1e-300, SplitCase.BETA_BELOW_HALF))


def test_blocks_roundtrip():
    inst = E2Lin2Instance(3, ((0, 1, 1), (1, 2, 0), (0, 2, 1)))
    rg = build_reduction_graph(inst, GadgetParams(2, 1, 2, seed=11))
    text = blocks_to_text(rg)
    back = blocks_from_text(text, rg.graph)
    assert back == rg
    with pytest.raises(UsageError):
        blocks_from_text("block U 0 0 1 2\n", rg.graph)
    # the header comes first, as the writer puts it
    header, *records = text.splitlines(keepends=True)
    with pytest.raises(UsageError, match="line 1: record before"):
        blocks_from_text("".join(records[:1] + [header] + records[1:]), rg.graph)


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


# 24 vertices; 480 vertices, four blocks of 20 per variable and side
MUTANT_SHAPES = [(((0, 1, 1), (1, 2, 0), (0, 2, 1)), 2),
                 (((0, 1, 1), (1, 2, 0), (0, 2, 1), (0, 1, 0), (1, 2, 1), (0, 2, 0)), 20)]


def _mutant_reduction(shape):
    equations, t = shape
    return build_reduction_graph(E2Lin2Instance(3, equations), GadgetParams(2, 1, t, seed=11))


def test_blocks_from_text_rejects_or_round_trips_mutants():
    _rejects_or_round_trips_mutants(MUTANT_SHAPES[0])


def test_blocks_from_text_rejects_or_round_trips_mutants_in_bulk():
    _rejects_or_round_trips_mutants(MUTANT_SHAPES[1])


def _rejects_or_round_trips_mutants(shape):
    rng = np.random.default_rng(41)
    rg = _mutant_reduction(shape)
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


def _read_blocks(text, graph):
    """The block map that blocks_from_text reads, in the form that
    `oracles.blocks_file` gives, or the message of the UsageError it raised."""
    try:
        rg = blocks_from_text(text, graph)
    except UsageError as exc:
        return str(exc)
    inst, par = rg.instance, rg.params
    return ((inst.num_vars, inst.num_equations, par.block_size, par.delta, par.delta_prime,
             par.seed), inst.equations, rg.u_blocks, rg.v_blocks)


def _fullwidth(token):
    return "".join(chr(0xFF10 + int(c)) for c in token)


# each takes a block line's tokens and the index of one vertex id in it
ID_PLANTS = {
    "plus": lambda w, i: w[:i] + ["+" + w[i]] + w[i + 1:],
    "underscore": lambda w, i: w[:i] + ["0_" + w[i]] + w[i + 1:],
    "fullwidth": lambda w, i: w[:i] + [_fullwidth(w[i])] + w[i + 1:],
    "leading-zeros": lambda w, i: w[:i] + ["00" + w[i]] + w[i + 1:],
    "19-digits": lambda w, i: w[:i] + [w[i].zfill(19)] + w[i + 1:],
    "tab": lambda w, i: w[:i - 1] + [w[i - 1] + "\t" + w[i]] + w[i + 1:],
    "two-spaces": lambda w, i: w[:i] + ["", w[i]] + w[i + 1:],
    "trailing-space": lambda w, i: w + [""],
    "negative": lambda w, i: w[:i] + ["-" + w[i]] + w[i + 1:],
    "duplicated": lambda w, i: w[:i] + [w[4 if i > 4 else 5]] + w[i + 1:],
    "missing": lambda w, i: w[:i] + w[i + 1:],
    "surrogate": lambda w, i: w[:i] + [w[i] + "\ud800"] + w[i + 1:],
    # past int64, with and without a sign, and past the digits that int() reads
    "past-int64": lambda w, i: w[:i] + ["9" * 19 + w[i]] + w[i + 1:],
    "signed-past-int64": lambda w, i: w[:i] + ["-9" + "0" * 19 + w[i]] + w[i + 1:],
    "past-int-digits": lambda w, i: w[:i] + ["0" * sys.get_int_max_str_digits() + w[i]]
    + w[i + 1:],
}
SAME_VALUE = {"plus", "underscore", "fullwidth", "leading-zeros", "19-digits", "tab",
              "two-spaces", "trailing-space"}


@pytest.mark.parametrize("plant", sorted(ID_PLANTS))
def test_block_ids_read_as_the_line_reader_reads_them(plant):
    # ids that are not plain digit runs are read by int() at their line, the
    # others by one numpy call after the loop: either way the outcome is the
    # line reader's, its message or the map itself when the id keeps its value
    for rg in map(_mutant_reduction, MUTANT_SHAPES):
        text = blocks_to_text(rg)
        lines = text.splitlines(keepends=True)
        assert _read_blocks(text, rg.graph) == oracles.blocks_file(text, rg.graph)
        block_lines = [i for i, line in enumerate(lines) if line.startswith("block")]
        for row in (block_lines[0], block_lines[len(block_lines) // 2], block_lines[-1]):
            words = lines[row].split()
            for at in (4, 4 + len(words[4:]) // 2, len(words) - 1):
                planted = " ".join(ID_PLANTS[plant](words, at)) + "\n"
                mutant = "".join(lines[:row] + [planted] + lines[row + 1:])
                got = _read_blocks(mutant, rg.graph)
                assert got == oracles.blocks_file(mutant, rg.graph), (row, at)
                if plant in SAME_VALUE or (plant == "negative" and words[at] == "0"):
                    assert got == _read_blocks(text, rg.graph)
                else:
                    assert isinstance(got, str), (row, at)


@pytest.mark.parametrize("shape", MUTANT_SHAPES)
def test_block_views_are_the_reference_layout(shape):
    rg = _mutant_reduction(shape)
    equations, t = shape
    u_blocks, v_blocks, _ = oracles.reduction_layout(3, equations, t)
    as_tuples = tuple(tuple(map(tuple, blocks)) for blocks in u_blocks), \
        tuple(tuple(map(tuple, blocks)) for blocks in v_blocks)
    back = blocks_from_text(blocks_to_text(rg), rg.graph)
    assert back == rg and hash(back) == hash(rg)
    for got in (rg, back):
        assert (got.u_blocks, got.v_blocks) == as_tuples
        for i in range(3):
            assert got.u_side(i) == sum(as_tuples[0][i], ())
            assert got.v_side(i) == sum(as_tuples[1][i], ())
        assert got.blocks.dtype == np.int64 and got.blocks.shape == (4 * len(equations), t)
        with pytest.raises(ValueError, match="read-only"):
            got.blocks[0, 0] = 1
    assert dataclasses.replace(rg, blocks=rg.blocks[::-1]) != rg


def _ids_moved(text, *moves):
    """text with the last id of each (source, target) block line moved to
    the end of the target line, which both name by their first four words."""
    lines = text.splitlines()
    for source, target in moves:
        i, j = (next(k for k, line in enumerate(lines) if line.startswith(head + " "))
                for head in (source, target))
        lines[i], last = lines[i].rsplit(" ", 1)
        lines[j] += " " + last
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shape", MUTANT_SHAPES)
def test_ragged_block_maps_are_refused_as_the_line_reader_refuses_them(shape):
    # the ids still partition the vertices, but one block holds t + 1 ids
    # and another t - 1: the audit pairs each block with its partner up to
    # the shorter one's end, as the line reader does
    rg = _mutant_reduction(shape)
    text = blocks_to_text(rg)
    heads = [" ".join(line.split()[:4]) for line in text.splitlines()
             if line.startswith("block")]
    for source in (heads[0], heads[len(heads) // 2], heads[-1]):
        for target in (heads[1], heads[len(heads) // 2 + 1], heads[-2]):
            mutant = _ids_moved(text, (source, target))
            got = _read_blocks(mutant, rg.graph)
            assert got == oracles.blocks_file(mutant, rg.graph), (source, target)
            assert got == "block map equations do not match the graph's wiring"
    if shape is MUTANT_SHAPES[1]:
        # the first and fourth equations join variables 0 and 1; moving the last pair of
        # the one onto the other's blocks keeps every prescribed record
        mutant = _ids_moved(text, ("block U 0 2", "block U 0 0"), ("block V 1 2", "block U 1 0"))
        got = _read_blocks(mutant, rg.graph)
        assert got == oracles.blocks_file(mutant, rg.graph)
        assert got == "graph and block map are inconsistent"


def _counted(monkeypatch, calls, name):
    """Append `name` to calls on each call that `reduction` makes to it."""
    function = getattr(reduction, name)
    monkeypatch.setattr(reduction, name, lambda *a: calls.append(name) or function(*a))


def test_a_faulty_block_map_is_parsed_and_audited_once(monkeypatch):
    # the benchmark-scale map: about 20k vertices in 200 block lines
    rg = build_reduction_graph(random_instance(16, 50, 7), GadgetParams(4, 2, 100, 5))
    text = blocks_to_text(rg)
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("e "))
    i, j, b = lines[row].split()[1:]
    block = lines.index(next(line for line in lines if line.startswith("block V 3")))
    words = lines[block].split()
    flipped = lines[:row] + [f"e {i} {j} {1 - int(b)}\n"] + lines[row + 1:]
    plus = lines[:block] + [" ".join(words[:5] + ["+" + words[5]] + words[6:]) + "\n"]
    duplicated = lines[:block] + [" ".join(words[:5] + [words[4]] + words[6:]) + "\n"]
    for mutant, audits, message in (
            (flipped, 1, "block map equations do not match the graph's wiring"),
            (plus + lines[block + 1:], 1, None),
            (duplicated + lines[block + 1:], 0,
             "block records do not partition the graph's vertices")):
        mutant = "".join(mutant)
        expected = oracles.blocks_file(mutant, rg.graph)
        assert expected == message or (message is None and expected == _read_blocks(text, rg.graph))
        with pytest.MonkeyPatch.context() as patch:
            calls = []
            _counted(patch, calls, "read_records")
            _counted(patch, calls, "audit_reduction_graph")
            assert _read_blocks(mutant, rg.graph) == expected
        assert calls.count("read_records") == 1
        assert calls.count("audit_reduction_graph") == audits


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
