import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (MajoritySign, ReferenceProblem, ZeroCount, cycle_partition,
                     cycle_zero_counts, fraction_partition, independent_set_count,
                     linear_log_partition, profile_of, profile_sum_direct,
                     reference_histogram)
from twospin import spins
from twospin.errors import ResourceLimitError, UsageError
from twospin.graphs import (BipartiteGadget, MultiGraph, complete_graph,
                            cycle_graph, path_graph, single_edge)
from twospin.logspace import LOG_ZERO, log_add, log_sum_exp
from twospin.spins import (SpinParams, field_identity_report, log_config_weight,
                           log_partition, log_partition_histogram,
                           log_profile_sum, log_profile_sums, partition_fraction,
                           remove_field)


def _histogram(g, p, terms, num_buckets, **kwargs):
    """log_partition_histogram over the profile of reference-form terms."""
    return log_partition_histogram(g, p, profile_of(terms, g.num_vertices), num_buckets,
                                   **kwargs)


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
    # triangle with at least one zero (buckets 1-3 of its zero-count
    # profile): the 3 singleton sets
    tri = cycle_graph(3)
    hist = _histogram(tri, SpinParams(0, 1, 1), [ZeroCount((0, 1, 2))], 4)
    assert log_sum_exp(hist[1:]) == pytest.approx(math.log(3), abs=1e-12)


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


def test_resource_cap_and_its_override():
    g = path_graph(6)
    with pytest.raises(ResourceLimitError):
        log_partition(g, SpinParams(1, 1), max_vertices=5)
    assert log_partition(g, SpinParams(1, 1), max_vertices=6) == \
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


def test_partition_fraction_checks_pins_like_log_partition():
    g = path_graph(3)
    for fixed, message in (({0: 2}, r"fixed spin must be an integer in \[0, 1\], got 2"),
                           ({7: 0}, r"fixed vertex must be an integer in \[0, 2\], got 7")):
        with pytest.raises(UsageError, match=message):
            log_partition(g, SpinParams(2, 3), fixed=fixed)
        with pytest.raises(UsageError, match=message):
            partition_fraction(g, 2, 3, fixed=fixed)


def test_threads_do_not_change_the_result():
    # 18 free vertices span several blocks, so threads > 1 splits the work
    g = MultiGraph.from_edges(18, [(i, (i + d) % 18) for i in range(18) for d in (1, 4)])
    p = SpinParams(0.3, 0.8, 2.0)
    assert spins._spin_problem(g, p, {}).num_blocks > 1
    values = [log_partition(g, p, threads=t) for t in (1, 2, 3)]
    assert values[0] == values[1] == values[2]
    terms = [MajoritySign(((0, 1, 2, 3), (9, 10, 11)), 1),
             ZeroCount(tuple(range(0, 18, 2)), 3), MajoritySign(((4, 5, 6), (12, 13, 14)), 30)]
    hists = [_histogram(g, p, terms, 90, fixed={3: 0, 16: 1}, threads=t)
             for t in (1, 2, 3)]
    assert _same_bits(hists[0], hists[1]) and _same_bits(hists[0], hists[2])
    # and the multi-block sum is right: the 18-cycle against its transfer matrix
    exact = cycle_partition(18, Fraction(3, 10), Fraction(4, 5), 2)
    assert log_partition(cycle_graph(18), p, threads=2) == pytest.approx(
        math.log(exact.numerator) - math.log(exact.denominator), abs=1e-12)


def test_histogram_buckets_sum_to_the_partition():
    g = cycle_graph(18)  # 18 free vertices span several blocks
    p = SpinParams(1e-150, 0.8, 1.3)
    profile = profile_of([ZeroCount(tuple(range(18)))], 18)
    hist = log_partition_histogram(g, p, profile, 20)
    assert hist.shape == (20,)
    assert hist[19] == LOG_ZERO  # no configuration has 19 zeros
    assert log_sum_exp(hist) == pytest.approx(log_partition(g, p), abs=1e-12)
    # bucket k against the cycle's transfer matrix split by number of zeros
    exact = cycle_zero_counts(18, Fraction(1e-150), Fraction(0.8), Fraction(1.3))
    for k in range(19):
        expect = _log_fraction(exact[k])
        assert hist[k] == pytest.approx(expect, abs=1e-12 * max(1.0, abs(expect)))
    # the all-zero configuration, thousands of nats below the other buckets,
    # keeps its bucket: each bucket is shifted by its own maximum
    assert hist[18] == pytest.approx(18 * math.log(1e-150 * 1.3), rel=1e-14)
    for threads in (2, 3):
        assert np.array_equal(log_partition_histogram(g, p, profile, 20, threads=threads),
                              hist)


def test_histogram_with_pins_and_constraints_matches_fractions():
    g = MultiGraph.from_edges(8, [(0, 1, 2), (1, 2), (2, 3), (3, 4, 3), (4, 5),
                                  (5, 6), (6, 7), (7, 0), (1, 5), (2, 6, 2)])
    beta, gamma, mu = Fraction(0), Fraction(3, 2), Fraction(2, 3)
    counted = (0, 1, 2, 3, 5)
    fixed = {2: 0, 5: 1}
    # bucket k + 6 (sign(zeros(0, 1) - zeros(6, 7)) + 1) with k = zeros(counted);
    # bucket 18 lies past the largest offset sum, 17, and stays empty
    hist = _histogram(
        g, SpinParams(float(beta), float(gamma), float(mu)),
        [ZeroCount(counted), MajoritySign(((0, 1), (6, 7)), 6)], 19, fixed=fixed)
    for sign in (-1, 0, 1):
        for k in range(6):
            exact = fraction_partition(
                8, g.edges, beta, gamma, mu,
                keep=lambda bits: (all(bits[v] == s for v, s in fixed.items())
                                   and np.sign(_zeros(bits, (0, 1)) - _zeros(bits, (6, 7)))
                                   == sign and _zeros(bits, counted) == k))
            assert hist[k + 6 * (sign + 1)] == pytest.approx(_log_fraction(exact), abs=1e-12)
        # vertex 2 is pinned to 0 and vertex 5 to 1
        assert hist[6 * (sign + 1)] == hist[6 * (sign + 1) + 5] == LOG_ZERO
    assert hist[18] == LOG_ZERO
    with pytest.raises(UsageError, match=r"must lie in \[0, 5\)"):
        _histogram(g, SpinParams(1, 1), [ZeroCount(counted)], 5)
    with pytest.raises(UsageError, match="must be nonnegative, got -1"):
        _histogram(g, SpinParams(1, 1), [ZeroCount(counted, -1)], 6)


def test_profile_errors_are_usage_errors():
    g = path_graph(4)
    keys, table = np.zeros((2, 4), dtype=int), np.arange(3)
    keys[0] = (1, 0, 1, 0)  # the largest key is 2: table has 3 entries
    assert log_partition_histogram(g, SpinParams(1, 1), (keys, table), 3).shape == (3,)
    for profile, message in (
            ((keys - 1, table), "must be nonnegative, got -1"),
            ((keys + 0.5, table), "integer keys"),
            ((keys, table + 0.0), "integer table"),
            ((keys[:, :3], table), r"shape \(2, 3\), not \(2, 4\)"),
            ((keys.T, table), r"shape \(4, 2\)"),
            ((keys, table[:2]), "keys reach 2 or more, past the table's 2 entries"),
            ((keys * 2**62, table), "keys reach 6 or more"),
            ((keys, table - 1), r"must lie in \[0, 3\)"),
            ((keys, table + 1), r"must lie in \[0, 3\)")):
        with pytest.raises(UsageError, match=message):
            log_partition_histogram(g, SpinParams(1, 1), profile, 3)


def test_histogram_without_terms_has_every_bucket():
    # every configuration is in bucket 0: it holds the sum, the rest are
    # empty, as with a profile whose keys are all 0
    for g in (path_graph(3), cycle_graph(18)):  # one block, several blocks
        p = SpinParams(0.5, 1.5, 0.8)
        for threads in (1, 2):
            hist = log_partition_histogram(g, p, None, 5, threads=threads)
            assert hist.shape == (5,)
            assert hist[0] == log_partition(g, p)
            assert (hist[1:] == LOG_ZERO).all()
            always = _histogram(g, p, [ZeroCount(())], 5)
            assert (always[1:] == LOG_ZERO).all()
            assert always[0] == pytest.approx(hist[0], rel=1e-14)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_KERNEL_WEIGHTS = ((0.0, 1.5, 1.0), (1.25, 0.0, 0.7), (0.4, 0.9, 2.0), (1.0, 1.0, 1.0))


# nf free spins: below the 10 low bits, past them in one block (11-16),
# and in several blocks (17-20); the examples pin one of each
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(nf=st.sampled_from(range(1, 21)), pins=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       weights=st.sampled_from(_KERNEL_WEIGHTS), num_terms=st.integers(0, 3),
       threads=st.sampled_from((1, 2)))
@example(nf=20, pins=2, seed=1, weights=_KERNEL_WEIGHTS[0], num_terms=3, threads=2)
@example(nf=6, pins=3, seed=2, weights=_KERNEL_WEIGHTS[1], num_terms=2, threads=1)
@example(nf=13, pins=0, seed=3, weights=_KERNEL_WEIGHTS[2], num_terms=1, threads=2)
@example(nf=18, pins=1, seed=4, weights=_KERNEL_WEIGHTS[3], num_terms=0, threads=2)
def test_kernel_is_bit_identical_to_the_reference(nf, pins, seed, weights, num_terms,
                                                  threads):
    rng = np.random.default_rng(seed)
    n = nf + pins
    g = MultiGraph.from_edges(n, [(u, v, int(rng.integers(1, 4))) for u in range(n)
                                  for v in range(u + 1, n) if rng.random() < 3 / n])
    p = SpinParams(*weights)
    fixed = {int(v): int(rng.integers(2)) for v in rng.choice(n, size=pins, replace=False)}

    def vset():
        return tuple(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                 replace=False))

    # majority digits 0..2 in base 3
    terms = [MajoritySign((vset(), vset()), 3 ** i) for i in range(num_terms)]
    num_buckets = 3 ** num_terms
    ref = ReferenceProblem(g, p, fixed, terms, num_buckets)
    prob = spins._spin_problem(g, p, fixed, profile_of(terms, n), num_buckets)
    assert _same_bits(prob.q_lo, ref.q_lo) and _same_bits(prob.cols, ref.cols)
    # the reference reduces every block over `bins` buckets, the kernel over
    # num_buckets: the same count, so the same floats
    assert prob.hi_edges == ref.hi_edges and prob.num_buckets == ref.bins
    hist = _histogram(g, p, terms, num_buckets, fixed=fixed, threads=threads)
    assert _same_bits(hist, reference_histogram(g, p, terms, num_buckets, fixed))


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
    # agrees with the oracle under fixed spins
    got = partition_fraction(tri, Fraction(1, 3), Fraction(3, 2), 2, fixed={0: 0, 2: 1})
    expect = fraction_partition(
        3, tri.edges, Fraction(1, 3), Fraction(3, 2), 2,
        keep=lambda bits: bits[0] == 0 and bits[2] == 1)
    assert got == expect == Fraction(1, 3) * 2 * 2 + 2 * Fraction(3, 2)


def _log_fraction(x):
    return LOG_ZERO if x == 0 else math.log(x.numerator) - math.log(x.denominator)


def _zeros(bits, vset):
    return sum(1 - bits[v] for v in vset)


def _random_term(rng, n, weight):
    """A zero-count or a majority-sign profile term on random vertex sets,
    its offsets times `weight`: the term, its number of distinct digits and
    its offset as a function of the bits."""
    def vset():
        size = int(rng.integers(1, n + 1))
        return tuple(int(v) for v in rng.choice(n, size=size, replace=False))
    if rng.integers(2):
        s = vset()
        return ZeroCount(s, weight), len(s) + 1, lambda bits: weight * _zeros(bits, s)
    a, b = vset(), vset()
    return (MajoritySign((a, b), weight), 3,
            lambda bits: weight * (np.sign(_zeros(bits, a) - _zeros(bits, b)) + 1))


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
            terms, offsets, num_buckets = [], [], 1
            for _ in range(int(rng.integers(3))):  # digits in mixed radix
                term, radix, offset = _random_term(rng, n, num_buckets)
                terms.append(term)
                offsets.append(offset)
                num_buckets *= radix

            def pinned(bits):
                return all(bits[v] == s for v, s in fixed.items())

            for kwargs, expect in (
                    ({}, fraction_partition(n, g.edges, beta, gamma, mu)),
                    ({"fixed": fixed}, fraction_partition(n, g.edges, beta, gamma, mu, pinned))):
                got = log_partition(g, p, **kwargs)
                assert got == pytest.approx(_log_fraction(expect), abs=1e-12)
                assert partition_fraction(g, beta, gamma, mu, **kwargs) == expect
            hist = _histogram(g, p, terms, num_buckets, fixed=fixed)
            assert _same_bits(hist, _histogram(g, p, terms, num_buckets, fixed=fixed,
                                               threads=2))
            for j in range(num_buckets):
                expect = fraction_partition(
                    n, g.edges, beta, gamma, mu,
                    lambda bits: pinned(bits) and sum(o(bits) for o in offsets) == j)
                assert hist[j] == pytest.approx(_log_fraction(expect), abs=1e-12)


def test_kernel_exact_zeros_and_degenerate_cases():
    g = MultiGraph.from_edges(4, [(0, 1, 2), (1, 2), (2, 3, 3), (0, 3)])
    # pins whose own edge carries a zero weight force an empty sum
    assert log_partition(g, SpinParams(0, 1.5), fixed={0: 0, 1: 0}) == LOG_ZERO
    assert log_partition(g, SpinParams(1.5, 0), fixed={2: 1, 3: 1}) == LOG_ZERO
    # a bucket that a pin rules out, and buckets that no two offsets sum to
    hist = _histogram(g, SpinParams(1, 1), [ZeroCount((0,))], 2, fixed={0: 1})
    assert hist[0] == pytest.approx(math.log(8), abs=1e-15) and hist[1] == LOG_ZERO
    hist = _histogram(g, SpinParams(1, 1), [ZeroCount((0, 1)), ZeroCount((0, 1), 3)], 9)
    assert (hist[[1, 2, 3, 5, 6, 7]] == LOG_ZERO).all()
    assert hist[[0, 4, 8]] == pytest.approx(np.log([4, 8, 4]), abs=1e-15)
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


def test_profile_sums_match_the_direct_oracle():
    # every profile of random gadgets against the subset-pair sum, with zero
    # interaction weights among the cases.  Matching unions this small have
    # symmetric tables, Z(a, b) = Z(b, a); a union of arbitrary maps from the
    # left side to the right has unequal right degrees and need not.
    rng = np.random.default_rng(14)
    for n_side in range(1, 5):
        for delta in range(1, 4):
            for draw in (rng.permutation, lambda n: rng.integers(n, size=n)):
                maps = np.array([draw(n_side) for _ in range(delta)])
                h = BipartiteGadget.from_matchings(maps)
                beta, gamma = (float(x) for x in rng.uniform(0.05, 1.5, 2))
                for b, g in ((beta, gamma), (0.0, gamma), (beta, 0.0), (0.0, 0.0)):
                    for delta_prime in range(3):
                        table = log_profile_sums(h, SpinParams(b, g), delta_prime)
                        assert table.shape == (n_side + 1, n_side + 1)
                        for an in range(n_side + 1):
                            for bn in range(n_side + 1):
                                direct = profile_sum_direct(
                                    n_side, maps.tolist(), delta_prime, b, g, an, bn)
                                if direct == 0.0:
                                    assert table[an, bn] == LOG_ZERO
                                else:
                                    assert math.exp(table[an, bn]) == pytest.approx(
                                        direct, rel=1e-12, abs=0)
                                assert log_profile_sum(
                                    h, SpinParams(b, g), delta_prime,
                                    an / n_side, bn / n_side) == table[an, bn]


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
    with pytest.raises(ResourceLimitError):
        log_profile_sums(big, SpinParams(1, 1), 1)
    for bad in (SpinParams(1, 1, 2.0), 1), (SpinParams(1, 1), -1):
        with pytest.raises(UsageError):
            log_profile_sums(h, *bad)


# float.hex of every entry, as computed before profiles became (keys, table):
# gadgets (N, delta, seed), (beta, gamma), delta_prime, then the table in C order
_PINNED_PROFILE_SUMS = [
    ((3, 3, 11), (0.37, 1.21), 2,
     '0x1.00319a78f8e72p+2 0x1.0981a5b496426p+2 0x1.99040e0aff22ep+1 '
     '0x1.24caf9aed3514p+0 0x1.0981a5b496426p+2 0x1.e3eb9dfb375d5p+1 '
     '0x1.0f64381202fd9p+1 -0x1.1f254ffd42824p+0 0x1.99040e0aff22ep+1 '
     '0x1.0f64381202fd9p+1 -0x1.12ac6039a41acp-1 -0x1.1f1510550a21ap+2 '
     '0x1.24caf9aed3514p+0 -0x1.1f254ffd42824p+0 -0x1.1f1510550a21ap+2 '
     '-0x1.1e583b4abbd77p+3'),
    ((4, 2, 12), (0.0, 0.83), 1,
     '-0x1.7d9a5ca4e127ep+1 -0x1.0936a69c4a41dp+0 -0x1.250342b7771b0p-4 '
     '0x1.4fd1edf5e9c10p-4 -0x1.7d9a5ca4e127ep-1 -0x1.0936a69c4a41ep+0 '
     '0x1.c1d50ea244c3cp-2 0x1.8cde6dae60d6ep-1 -0x1.ab62cb53d88f0p-5 -inf '
     '-0x1.250342b7771b0p-4 0x1.8cde6dae60d6ep-1 -0x1.ab62cb53d88f0p-5 -inf -inf '
     '0x1.4fd1edf5e9c10p-4 -0x1.ab62cb53d88f0p-5 -inf -inf -inf -0x1.7d9a5ca4e127ep-1 '
     '-inf -inf -inf -inf'),
    ((5, 4, 13), (1.7, 0.0), 0,
     '-inf -inf -inf -inf -inf 0x0.0p+0 -inf -inf -inf -inf -inf 0x1.ddb09150b702ap+1 '
     '-inf -inf -inf -inf 0x1.68678d8d3380dp+1 0x1.a30c0f6ef541cp+2 -inf -inf -inf '
     '0x1.68678d8d3380dp+1 0x1.9c4dd566b2b16p+2 0x1.1571a81bcd472p+3 -inf -inf '
     '0x1.68678d8d3380dp+1 0x1.9c4dd566b2b16p+2 0x1.1b473c20466ccp+3 '
     '0x1.432f058125b37p+3 0x0.0p+0 0x1.ddb09150b702ap+1 0x1.a30c0f6ef541cp+2 '
     '0x1.1571a81bcd472p+3 0x1.432f058125b37p+3 0x1.539a21f59d3f5p+3'),
]
# reductions (n, m, instance seed), (delta, delta_prime, t, gadget seed),
# (beta, gamma), then log Z(G) and the 2^n majority sums
_PINNED_MAJORITY_SUMS = [
    ((3, 3, 5), (2, 1, 1, 4), (0.41, 1.3),
     '0x1.12430e02f5904p+3 0x1.e04b9fe36729cp+2 0x1.e46bdf5bc5958p+2 '
     '0x1.e044923efb74fp+2 0x1.e04b9fe36729cp+2 0x1.e04b9fe36729cp+2 '
     '0x1.e044923efb74fp+2 0x1.e46bdf5bc5958p+2 0x1.e04b9fe36729cp+2'),
    ((3, 4, 6), (1, 2, 1, 7), (0.0, 0.9),
     '0x1.ab22e298c084ap+2 0x1.5410ec8955c97p+2 0x1.5733ac63037e9p+2 '
     '0x1.4b96d7cea3350p+2 0x1.6087998ee5304p+2 0x1.6087998ee5304p+2 '
     '0x1.4b96d7cea3350p+2 0x1.5733ac63037e9p+2 0x1.5410ec8955c97p+2'),
    ((2, 2, 8), (2, 1, 2, 9), (1.2, 0.0),
     '0x1.3160fb7700e8cp+3 0x1.1424efc072a2dp+3 0x1.1376e80175f5cp+3 '
     '0x1.1376e80175f5cp+3 0x1.146239a0b2ee4p+3'),
]
# the last reduction's 3^n majority-sign histogram under pins and a field
_PINNED_MAJORITY_HISTOGRAM = (
    '0x1.4c86f0e04b665p+3 0x1.6fc8ac0bcbfd2p+3 0x1.8eecc15871352p+3 '
    '0x1.556a109113e4dp+3 0x1.78c586842cc64p+3 0x1.982392176163ap+3 '
    '0x1.5b9dbe562ee54p+3 0x1.7eb85e3827762p+3 0x1.9e22c28487a0ep+3')


def _hex(values):
    return " ".join(float.hex(float(x)) for x in np.ravel(values))


def test_profile_and_majority_sums_are_pinned_bit_for_bit():
    from twospin.e2lin2 import random_instance
    from twospin.reduction import (GadgetParams, build_reduction_graph, log_majority_sums,
                                   sample_gadget)
    for (n_side, delta, seed), weights, delta_prime, want in _PINNED_PROFILE_SUMS:
        got = log_profile_sums(sample_gadget(n_side, delta, seed), SpinParams(*weights),
                               delta_prime)
        assert _hex(got) == want
    for instance, params, weights, want in _PINNED_MAJORITY_SUMS:
        rg = build_reduction_graph(random_instance(*instance), GadgetParams(*params))
        log_total, sums = log_majority_sums(rg, SpinParams(*weights))
        assert _hex([log_total, *sums]) == want
    n = rg.instance.num_vars  # the last reduction: t = 2, 16 vertices
    terms = [MajoritySign((rg.u_side(i), rg.v_side(i)), 3 ** i) for i in range(n)]
    fixed = {rg.u_side(0)[0]: 0, rg.v_side(1)[1]: 1, rg.v_side(0)[2]: 1}
    hist = _histogram(rg.graph, SpinParams(0.7, 1.6, 1.4), terms, 3 ** n, fixed=fixed)
    assert _hex(hist) == _PINNED_MAJORITY_HISTOGRAM


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
