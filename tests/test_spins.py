import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (cycle_partition, fraction_partition, independent_set_count,
                     linear_log_partition)
from twospin import spins
from twospin.errors import ResourceLimitError, UsageError
from twospin.graphs import (BipartiteGadget, MultiGraph, complete_graph,
                            cycle_graph, path_graph, single_edge)
from twospin.logspace import LOG_ZERO, log_add, log_sum_exp
from twospin.spins import (CountLeq, CountRange, MinCountAtMost, SpinParams,
                           field_identity_report, log_config_weight,
                           log_partition, log_profile_sum, partition_fraction,
                           remove_field)


def test_spin_params_validation():
    p = SpinParams(0.5, 2.0, 1.0)
    assert not p.is_ferromagnetic and not p.is_antiferromagnetic  # product 1
    assert SpinParams(2.0, 2.0).is_ferromagnetic
    assert SpinParams(0.0, 1.0).is_antiferromagnetic
    for bad in [(-1, 1, 1), (1, -2, 1), (1, 1, 0), (1, 1, -3)]:
        with pytest.raises(UsageError):
            SpinParams(*bad)


def test_config_weight_examples():
    e = single_edge()
    assert log_config_weight(e, SpinParams(0.3, 0.7), [0, 0]) == pytest.approx(
        math.log(0.3), abs=1e-15)
    assert log_config_weight(e, SpinParams(0.3, 0.7), [0, 1]) == 0.0
    tri = cycle_graph(3)
    assert log_config_weight(tri, SpinParams(0.0, 1.0), [0, 0, 1]) == LOG_ZERO
    with pytest.raises(UsageError):
        log_config_weight(e, SpinParams(1, 1), [0])
    with pytest.raises(UsageError):
        log_config_weight(e, SpinParams(1, 1), [0, 2])


def test_config_weight_counts_field_and_multiplicity():
    g = MultiGraph.from_edges(2, [(0, 1, 3)])
    p = SpinParams(0.5, 2.0, 4.0)
    assert log_config_weight(g, p, [0, 0]) == pytest.approx(
        2 * math.log(4) + 3 * math.log(0.5), abs=1e-12)
    assert log_config_weight(g, p, [1, 1]) == pytest.approx(
        3 * math.log(2), abs=1e-12)


def test_partition_trivial_examples():
    e = single_edge()
    assert log_partition(e, SpinParams(1, 1, 1)) == pytest.approx(
        math.log(4), abs=1e-12)
    # hardcore path on 4 vertices: oracle counts independent sets
    p4 = path_graph(4)
    count = independent_set_count(4, [(0, 1), (1, 2), (2, 3)])
    assert count == 8
    assert log_partition(p4, SpinParams(0, 1, 1)) == pytest.approx(
        math.log(count), abs=1e-12)
    # triangle restricted to at least one zero: the 3 singleton sets
    tri = cycle_graph(3)
    val = log_partition(tri, SpinParams(0, 1, 1),
                        [CountRange((0, 1, 2), 1, 3)])
    assert val == pytest.approx(math.log(3), abs=1e-12)


def test_partition_against_linear_oracle():
    rng = np.random.default_rng(11)
    graphs = [path_graph(5), cycle_graph(6), complete_graph(4),
              MultiGraph.from_edges(5, [(0, 1, 2), (1, 2), (2, 3, 3), (3, 4), (0, 4)])]
    for g in graphs:
        for _ in range(5):
            p = SpinParams(rng.uniform(0, 1.5), rng.uniform(0, 1.5),
                           10 ** rng.uniform(-1, 1))
            expect = linear_log_partition(
                g.num_vertices, g.edges, p.beta, p.gamma, p.mu)
            assert log_partition(g, p) == pytest.approx(expect, abs=1e-10)


def test_infeasible_constraints_give_log_zero():
    tri = cycle_graph(3)
    val = log_partition(tri, SpinParams(1, 1), [CountRange((0,), 1, 1),
                                                CountRange((0,), 0, 0)])
    assert val == LOG_ZERO


def test_resource_cap_and_force():
    g = path_graph(6)
    with pytest.raises(ResourceLimitError):
        log_partition(g, SpinParams(1, 1), max_vertices=5)
    assert log_partition(g, SpinParams(1, 1), max_vertices=5, force=True) == \
        pytest.approx(math.log(2 ** 6), abs=1e-12)


def test_fixed_vertices_split_the_sum():
    g = path_graph(5)
    p = SpinParams(0.4, 0.9, 1.7)
    full = log_partition(g, p)
    s0 = log_partition(g, p, fixed={2: 0})
    s1 = log_partition(g, p, fixed={2: 1})
    assert log_add(s0, s1) == pytest.approx(full, abs=1e-11)
    with pytest.raises(UsageError):
        log_partition(g, p, fixed={9: 0})
    with pytest.raises(UsageError):
        log_partition(g, p, fixed={0: 2})


def test_threads_do_not_change_the_result():
    # 18 free vertices span several blocks, so threads > 1 splits the work
    g = MultiGraph.from_edges(18, [(i, (i + d) % 18) for i in range(18) for d in (1, 4)])
    p = SpinParams(0.3, 0.8, 2.0)
    assert spins._Problem(g, p, {}, ()).num_blocks > 1
    constraints = [CountLeq((0, 1, 2, 3), (9, 10, 11)), CountRange(tuple(range(0, 18, 2)), 2, 7),
                   MinCountAtMost((4, 5, 6), (12, 13, 14), 1)]
    for kwargs in ({}, {"constraints": constraints, "fixed": {3: 0, 16: 1}}):
        values = [log_partition(g, p, threads=t, **kwargs) for t in (1, 2, 3)]
        assert values[0] == values[1] == values[2]
    # and the multi-block sum is right: the 18-cycle against its transfer matrix
    exact = cycle_partition(18, Fraction(3, 10), Fraction(4, 5), 2)
    assert log_partition(cycle_graph(18), p, threads=2) == pytest.approx(
        math.log(exact.numerator) - math.log(exact.denominator), abs=1e-12)


def test_constraint_kinds():
    g = path_graph(4)
    p = SpinParams(0.6, 0.7, 1.1)
    # CountLeq: zeros(front half) <= zeros(back half)
    vals = []
    for keep in (
        lambda bits: (2 - bits[0] - bits[1]) <= (2 - bits[2] - bits[3]),
        lambda bits: min(2 - bits[0] - bits[1], 2 - bits[2] - bits[3]) <= 1,
    ):
        vals.append(linear_log_partition(4, g.edges, p.beta, p.gamma, p.mu, keep))
    assert log_partition(g, p, [CountLeq((0, 1), (2, 3))]) == pytest.approx(
        vals[0], abs=1e-11)
    assert log_partition(g, p, [MinCountAtMost((0, 1), (2, 3), 1)]) == \
        pytest.approx(vals[1], abs=1e-11)
    with pytest.raises(UsageError):
        CountRange((0, 1), 2, 1)
    with pytest.raises(UsageError):
        CountRange((0, 1), 0, 3)


def test_restricted_sum_partition_property():
    # slicing by the total zero count partitions the configuration space
    g = cycle_graph(5)
    p = SpinParams(0.7, 0.4, 1.3)
    full = log_partition(g, p)
    parts = [log_partition(g, p, [CountRange(tuple(range(5)), k, k)])
             for k in range(6)]
    assert log_sum_exp(parts) == pytest.approx(full, abs=1e-9)


def test_disjoint_union_multiplicativity():
    g1, g2 = cycle_graph(4), path_graph(3)
    p = SpinParams(0.5, 1.2, 0.8)
    lhs = log_partition(g1.disjoint_union(g2), p)
    rhs = log_partition(g1, p) + log_partition(g2, p)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_spin_flip_symmetry():
    rng = np.random.default_rng(5)
    for g in (path_graph(4), cycle_graph(5), complete_graph(4)):
        for _ in range(5):
            beta, gamma = rng.uniform(0, 1.4, 2)
            mu = 10 ** rng.uniform(-1, 1)
            lhs = log_partition(g, SpinParams(beta, gamma, mu))
            rhs = g.num_vertices * math.log(mu) + log_partition(
                g, SpinParams(gamma, beta, 1.0 / mu))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_partition_fraction_is_exact():
    tri = cycle_graph(3)
    assert partition_fraction(tri, 0, 1, 1) == 4  # empty + 3 singletons
    with pytest.raises(ResourceLimitError):
        partition_fraction(cycle_graph(spins.MAX_FRACTION_VERTICES + 1), 1, 1)
    assert partition_fraction(tri, Fraction(1, 2), Fraction(1, 2)) == \
        fraction_partition(3, tri.edges, Fraction(1, 2), Fraction(1, 2))
    # agrees with the oracle under constraints and fixed spins
    got = partition_fraction(tri, Fraction(1, 3), Fraction(3, 2), 2,
                             [CountRange((0, 1), 0, 1)])
    expect = fraction_partition(
        3, tri.edges, Fraction(1, 3), Fraction(3, 2), 2,
        keep=lambda bits: (2 - bits[0] - bits[1]) <= 1)
    assert got == expect


def _log_fraction(x):
    return LOG_ZERO if x == 0 else math.log(x.numerator) - math.log(x.denominator)


def _zeros(bits, vset):
    return sum(1 - bits[v] for v in vset)


def _random_side_constraint(rng, n):
    """One constraint of a random kind with its brute-force predicate."""
    def vset():
        size = int(rng.integers(1, n + 1))
        return tuple(int(v) for v in rng.choice(n, size=size, replace=False))
    kind = int(rng.integers(3))
    if kind == 0:
        s = vset()
        lo = int(rng.integers(0, len(s) + 1))
        hi = int(rng.integers(lo, len(s) + 1))
        return CountRange(s, lo, hi), lambda bits: lo <= _zeros(bits, s) <= hi
    a, b = vset(), vset()
    if kind == 1:
        return CountLeq(a, b), lambda bits: _zeros(bits, a) <= _zeros(bits, b)
    hi = int(rng.integers(0, n))
    return (MinCountAtMost(a, b, hi),
            lambda bits: min(_zeros(bits, a), _zeros(bits, b)) <= hi)


# split (low bits, block bits): the default, and a small one under which
# n <= 10 reaches k - 1, k, k + 1 free spins and one block past the split
@pytest.mark.parametrize("split", [(10, 16), (3, 5)])
def test_kernel_matches_exact_oracles(monkeypatch, split):
    monkeypatch.setattr(spins, "_LOW_BITS", split[0])
    monkeypatch.setattr(spins, "_BLOCK_BITS", split[1])
    rng = np.random.default_rng(29)
    weights = [(Fraction(0), Fraction(3, 2), Fraction(1)),
               (Fraction(5, 4), Fraction(0), Fraction(3, 2)),
               (Fraction(0), Fraction(0), Fraction(2, 3)),
               (Fraction(1, 2), Fraction(7, 4), Fraction(1, 3))]
    for n in range(1, 11):
        g = MultiGraph.from_edges(n, [(u, v, int(rng.integers(1, 4)))
                                      for u in range(n) for v in range(u + 1, n)
                                      if rng.random() < 0.4])
        for beta, gamma, mu in weights:
            p = SpinParams(float(beta), float(gamma), float(mu))
            pins = rng.choice(n, size=int(rng.integers(0, min(n, 3) + 1)), replace=False)
            fixed = {int(v): int(rng.integers(2)) for v in pins}
            drawn = [_random_side_constraint(rng, n) for _ in range(int(rng.integers(3)))]
            constraints = [c for c, _ in drawn]

            def keep(bits):
                return (all(bits[v] == s for v, s in fixed.items())
                        and all(pred(bits) for _, pred in drawn))

            for kwargs, expect in (
                    ({}, fraction_partition(n, g.edges, beta, gamma, mu)),
                    ({"constraints": constraints, "fixed": fixed},
                     fraction_partition(n, g.edges, beta, gamma, mu, keep))):
                got = log_partition(g, p, **kwargs)
                assert got == pytest.approx(_log_fraction(expect), abs=1e-12)
                assert partition_fraction(g, beta, gamma, mu, **kwargs) == expect


def test_kernel_exact_zeros_and_degenerate_cases():
    g = MultiGraph.from_edges(4, [(0, 1, 2), (1, 2), (2, 3, 3), (0, 3)])
    # pins whose own edge carries a zero weight force an empty sum
    assert log_partition(g, SpinParams(0, 1.5), fixed={0: 0, 1: 0}) == LOG_ZERO
    assert log_partition(g, SpinParams(1.5, 0), fixed={2: 1, 3: 1}) == LOG_ZERO
    # a constraint contradicting a pin, and two contradicting constraints
    assert log_partition(g, SpinParams(1, 1), [CountRange((0,), 1, 1)],
                         fixed={0: 1}) == LOG_ZERO
    assert log_partition(g, SpinParams(1, 1), [CountLeq((0, 1), (2,)),
                                               CountRange((2,), 0, 0),
                                               CountRange((0, 1), 1, 2)]) == LOG_ZERO
    # zero free vertices: the sum is the one pinned configuration's weight
    p = SpinParams(0.4, 1.9, 1.3)
    for code in range(16):
        bits = [(code >> v) & 1 for v in range(4)]
        assert log_partition(g, p, fixed=dict(enumerate(bits))) == pytest.approx(
            log_config_weight(g, p, bits), abs=1e-14)
    assert log_partition(MultiGraph(0), p) == 0.0


def test_fraction_mode_matches_log_mode():
    g = cycle_graph(5)
    exact = partition_fraction(g, Fraction(2, 5), Fraction(7, 4), Fraction(3, 2))
    logv = log_partition(g, SpinParams(0.4, 1.75, 1.5))
    assert logv == pytest.approx(math.log(exact), rel=1e-12)


# ---------------------------------------------------------------------------
# Profile sums


def _matching_gadget():
    return BipartiteGadget(MultiGraph(2, ((0, 1, 1),)), (0,), (1,))


def test_profile_sum_single_vertex_examples():
    h = _matching_gadget()
    p = SpinParams(0.3, 0.7)
    assert log_profile_sum(h, p, 1, 1, 1) == pytest.approx(
        math.log(0.3), abs=1e-15)
    assert log_profile_sum(h, p, 1, 0, 0) == pytest.approx(
        3 * math.log(0.7), abs=1e-14)


def test_profile_sum_two_vertex_oracle():
    # identity matching on two vertices: direct 4-term sum
    g = MultiGraph.from_edges(4, [(0, 2), (1, 3)])
    h = BipartiteGadget(g, (0, 1), (2, 3))
    p = SpinParams(0.5, 0.5)
    direct = 2 * 0.5 * 0.5 + 2 * 1.0  # two aligned pairs, two crossed
    expect = math.log(direct * 0.5 ** 2)  # boundary factor gamma**(1*(2-1)*2)
    assert log_profile_sum(h, p, 1, 0.5, 0.5) == pytest.approx(expect, abs=1e-12)


def test_profile_sum_validation():
    h = _matching_gadget()
    with pytest.raises(UsageError):
        log_profile_sum(h, SpinParams(1, 1, 2.0), 1, 1, 1)  # field present
    with pytest.raises(UsageError):
        log_profile_sum(h, SpinParams(1, 1), 1, 0.4, 1)  # non-integral a*N
    big = BipartiteGadget(
        MultiGraph.from_edges(26, [(i, 13 + i) for i in range(13)]),
        tuple(range(13)), tuple(range(13, 26)))
    with pytest.raises(ResourceLimitError):
        log_profile_sum(big, SpinParams(1, 1), 1, 0, 0)


# ---------------------------------------------------------------------------
# Field translation


def test_remove_field_examples():
    p2, pref = remove_field(SpinParams(0.4, 0.9, 1.0), 3)
    assert (p2.beta, p2.gamma, p2.mu) == (0.4, 0.9, 1.0)
    assert pref == 0.0
    p2, pref = remove_field(SpinParams(0.5, 2.0, 4.0), 2)
    assert p2.beta == pytest.approx(1.0, abs=1e-15)
    assert p2.gamma == pytest.approx(1.0, abs=1e-15)
    assert pref == pytest.approx(math.log(2), abs=1e-15)


def test_field_identity_on_examples():
    rep = field_identity_report(single_edge(), SpinParams(0.3, 0.7, 2.0))
    assert rep.gap <= 1e-9
    rep = field_identity_report(cycle_graph(4), SpinParams(0.5, 2.0, 1.0))
    assert rep.gap == 0.0
    rep = field_identity_report(complete_graph(4), SpinParams(0.2, 1.5, 5.0))
    assert rep.gap <= 1e-9
    # 4-cycle worked example: Z with field = mu**(|E|/d) * Z translated
    lhs = log_partition(cycle_graph(4), SpinParams(0.5, 2.0, 4.0))
    rhs = 2 * math.log(4) + log_partition(cycle_graph(4), SpinParams(1.0, 1.0))
    assert lhs == pytest.approx(rhs, abs=1e-10)
    with pytest.raises(UsageError):
        field_identity_report(path_graph(3), SpinParams(1, 1, 2))
