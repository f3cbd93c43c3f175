import itertools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (binary_entropy, bracket_max, chi2_survival,
                     expander_worst_pair, profile_sum_direct,
                     sequential_indicator_law)
from twospin import analysis, cli
from twospin.analysis import (chi2_sf, coupling_sim, entropy,
                              enumerate_profile_sum_mean_log, exact_rate,
                              expander_audit, expected_profile_sum_log,
                              expected_profile_sum_mc,
                              polarized_branch_rate_bound, rate_bound,
                              rate_bound_grid, rate_bound_scan)
from twospin.errors import ResourceLimitError, UsageError
from twospin.reduction import sample_gadget
from twospin.spins import SpinParams


def test_entropy_values():
    assert entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(1e-4) == pytest.approx(0.00102, abs=2e-5)
    with pytest.raises(UsageError):
        entropy(-0.1)
    with pytest.raises(UsageError):
        entropy(1.1)


def test_entropy_symmetry_and_concavity():
    xs = np.linspace(0.0, 1.0, 10001)
    vals = np.array([entropy(float(x)) for x in xs])
    assert np.all(np.abs(vals - vals[::-1]) <= 1e-15)
    mid = 0.5 * (vals[:-2] + vals[2:])
    assert np.all(vals[1:-1] >= mid - 1e-12)


def test_rate_bound_corner_value():
    # a = b = 1 forces k = 1 and every entropy term vanishes
    c = 8000.0
    assert rate_bound(1, 1, c) == pytest.approx(-c, abs=1e-9)
    assert rate_bound(1, 1, 100.0) == pytest.approx(-100.0, abs=1e-11)


def test_rate_bound_swap_symmetry():
    # the bracket b H(k/b) + (1-b) H((a-k)/(1-b)) - H(a) is the entropy form
    # of a hypergeometric weight, which is symmetric in (a, b); the whole
    # bound therefore is as well
    def bracket(a, b, k):
        def w_entropy(w, x):
            if w <= 0:
                return 0.0
            x = min(1.0, max(0.0, x / w))
            return w * entropy(x)

        return w_entropy(b, k) + w_entropy(1 - b, a - k) - entropy(a)

    for a, b, k in [(0.3, 0.6, 0.2), (0.5, 0.25, 0.2), (0.9, 0.4, 0.35)]:
        assert bracket(a, b, k) == pytest.approx(bracket(b, a, k), abs=1e-13)
    for a, b in [(0.2, 0.7), (0.35, 0.5), (0.9, 0.15)]:
        assert rate_bound(a, b) == pytest.approx(rate_bound(b, a), abs=1e-9)
        assert exact_rate(a, b, 10, 2, 0.3, 0.9) == pytest.approx(
            exact_rate(b, a, 10, 2, 0.3, 0.9), abs=1e-12)


def test_rate_bound_scan_stays_below_ceiling():
    scan = rate_bound_scan(step=5e-3)
    assert scan.max_value < 1.21
    assert scan.max_value > 1.19  # the maximum is genuinely close to the ceiling
    assert min(scan.arg_a, scan.arg_b) == pytest.approx(9e-5, abs=1e-6)


def _oracle_points():
    rng = np.random.default_rng(2024)
    corners = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
    return corners + [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(200)]


def test_rate_bound_matches_bracket_oracle():
    c = 8000.0
    for a, b in _oracle_points():
        outer = (1 / (c - 1) + (1 - a - b) * c / (c - 1)
                 + binary_entropy(a) + binary_entropy(b))
        expected = outer + (c - 1) * bracket_max(a, b, -1.0)
        assert rate_bound(a, b, c) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("beta,gamma", [(0.3, 0.9), (0.5, 2.0), (2.5, 1.3)])
def test_exact_rate_matches_bracket_oracle(beta, gamma):
    # (0.5, 2.0) has beta * gamma = 1, where the stationary-point quadratic
    # degenerates to a linear equation
    delta, delta_prime = 10, 2
    lg = math.log(gamma)
    for a, b in _oracle_points():
        outer = (delta_prime * lg + (1 - a - b) * (delta + delta_prime) * lg
                 + binary_entropy(a) + binary_entropy(b))
        expected = outer + delta * bracket_max(a, b, math.log(beta * gamma))
        assert exact_rate(a, b, delta, delta_prime, beta, gamma) == \
            pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("kwargs", [{"min_fraction": 0.0}, {"min_fraction": -0.5},
                                    {"min_fraction": 2.0}, {"step": 0.0},
                                    {"step": -1e-3}, {"step": math.inf},
                                    {"c": 1.0}])
def test_rate_bound_scan_and_grid_reject_bad_parameters(kwargs):
    with pytest.raises(UsageError):
        rate_bound_scan(**kwargs)
    with pytest.raises(UsageError):
        next(rate_bound_grid(**kwargs))


def test_rate_bound_grid_side_cap(monkeypatch, capsys):
    def started(*args):
        raise AssertionError("the scan started")

    # a refused step is refused before any grid cell is evaluated
    monkeypatch.setattr(analysis, "_rate_bound_values", started)
    for step in (1e-6, 5e-324):
        with pytest.raises(ResourceLimitError):
            rate_bound_scan(step=step)
        with pytest.raises(ResourceLimitError):
            next(rate_bound_grid(step=step))
    assert cli.main(["verify", "rate-bound", "--step", "1e-6"]) == 3
    assert "resource cap" in capsys.readouterr().err
    # every admitted grid, including those at the cap, has at most
    # MAX_SCAN_SIDE points per axis
    rng = np.random.default_rng(12)
    admitted = 0
    for _ in range(400):
        lam = float(rng.choice([9e-5, 0.5, rng.uniform(1e-9, 1.0)]))
        step = (1.0 - lam) / (analysis.MAX_SCAN_SIDE - rng.uniform(1.0, 3.0))
        try:
            side = len(analysis._scan_grid(lam, step))
        except ResourceLimitError:
            continue
        assert side <= analysis.MAX_SCAN_SIDE
        admitted += 1
    assert 100 < admitted < 400


def test_rate_bound_grid_rows():
    rows = list(rate_bound_grid(step=0.5))
    # grid {9e-5, ~0.5, 1.0} squared
    assert len(rows) == 9
    a, b, v = rows[-1]
    assert (a, b) == (1.0, 1.0)
    assert v == pytest.approx(-8000.0, rel=1e-6)


def test_exact_rate_corner_and_consistency():
    # a = b = 1 forces the all-zero assignment: rate is delta * log(beta)
    assert exact_rate(1, 1, 3, 2, 0.3, 0.8) == pytest.approx(
        3 * math.log(0.3), abs=1e-10)
    assert exact_rate(1, 1, 7, 1, 0.5, 1.2) == pytest.approx(
        7 * math.log(0.5), abs=1e-10)
    with pytest.raises(UsageError):
        exact_rate(0.5, 0.5, 3, 1, 0.0, 1.0)


def test_exact_rate_is_the_large_n_limit():
    beta, gamma, delta, delta_prime = 0.3, 1.0001, 40, 1
    a, b = 0.25, 0.5
    target = exact_rate(a, b, delta, delta_prime, beta, gamma)
    p = SpinParams(beta, gamma)
    gaps = []
    for n_side in (20, 40, 80):
        v = expected_profile_sum_log(n_side, delta, delta_prime, p, a, b) / n_side
        gaps.append(abs(v - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.05


def test_rate_bound_dominates_exact_rate_in_hard_region():
    from twospin.uniqueness import outside_square_degrees
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 40:
        gamma = 1 + 10 ** rng.uniform(-5, -3.2)
        beta = rng.uniform(0.05, 0.9)
        if beta * gamma >= 1:
            continue
        plan = outside_square_degrees(beta, gamma)
        if not plan.in_hard_region:
            continue
        a = rng.uniform(9e-5, 1.0)
        b = rng.uniform(9e-5, 1.0)
        lhs = rate_bound(a, b, 8000.0)
        rhs = exact_rate(a, b, plan.delta_star - plan.delta_prime,
                         plan.delta_prime, beta, gamma)
        assert lhs >= rhs - 1e-9
        checked += 1


def test_expected_profile_sum_trivial():
    p = SpinParams(0.3, 0.7)
    assert expected_profile_sum_log(1, 1, 1, p, 1, 1) == pytest.approx(
        math.log(0.3), abs=1e-14)
    assert expected_profile_sum_log(1, 1, 1, p, 0, 0) == pytest.approx(
        3 * math.log(0.7), abs=1e-14)
    with pytest.raises(UsageError):
        expected_profile_sum_log(2, 1, 1, p, 0.3, 0.5)
    with pytest.raises(UsageError):
        expected_profile_sum_log(1, 1, 1, SpinParams(1, 1, 2.0), 1, 1)


def test_expected_profile_sum_matches_enumeration():
    rng = np.random.default_rng(3)
    for n_side in (1, 2, 3):
        for delta in (1, 2):
            for delta_prime in (1, 2):
                for _ in range(3):
                    p = SpinParams(float(rng.uniform(0.05, 1.2)),
                                   float(rng.uniform(0.05, 1.2)))
                    for an in range(n_side + 1):
                        for bn in range(n_side + 1):
                            a, b = an / n_side, bn / n_side
                            lhs = expected_profile_sum_log(
                                n_side, delta, delta_prime, p, a, b)
                            rhs = enumerate_profile_sum_mean_log(
                                n_side, delta, delta_prime, p, a, b)
                            assert lhs == pytest.approx(rhs, abs=1e-9)
    assert math.factorial(9) > analysis.MAX_MATCHING_TUPLES
    with pytest.raises(ResourceLimitError):
        enumerate_profile_sum_mean_log(9, 1, 1, SpinParams(0.5, 0.5), 0, 0)


def test_expected_profile_sum_against_direct_oracle():
    # independent oracle: average the direct pair sum over all matchings
    beta, gamma, delta_prime = 0.4, 0.9, 1
    p = SpinParams(beta, gamma)
    n_side = 3
    vals = []
    for perm in itertools.permutations(range(3)):
        vals.append(profile_sum_direct(3, [perm], delta_prime, beta, gamma, 1, 2))
    mean = sum(vals) / len(vals)
    got = expected_profile_sum_log(n_side, 1, delta_prime, p, 1 / 3, 2 / 3)
    assert got == pytest.approx(math.log(mean), abs=1e-12)


def test_mc_estimate_behaviour():
    p = SpinParams(0.4, 0.7)
    # deterministic gadget: zero variance, exact match
    est = expected_profile_sum_mc(1, 1, 1, p, 1, 1, trials=50, seed=0)
    assert est.std_error == 0.0
    assert est.mean == math.exp(expected_profile_sum_log(1, 1, 1, p, 1, 1))
    # reproducibility
    a = expected_profile_sum_mc(3, 2, 1, p, 1 / 3, 1 / 3, trials=2000, seed=5)
    b = expected_profile_sum_mc(3, 2, 1, p, 1 / 3, 1 / 3, trials=2000, seed=5)
    assert a == b
    # 4 standard errors of the exact expectation
    target = math.exp(expected_profile_sum_log(3, 2, 1, p, 1 / 3, 1 / 3))
    est = expected_profile_sum_mc(3, 2, 1, p, 1 / 3, 1 / 3, trials=100000, seed=5)
    assert est.within(target, 4.0)
    with pytest.raises(ResourceLimitError):
        expected_profile_sum_mc(9, 1, 1, p, 0, 0, trials=10, seed=0)


def test_expander_audit_trivial_cases():
    h = sample_gadget(1, 4, seed=3)
    audit = expander_audit(h, eps=1.0)
    assert audit.worst_ratio == 1.0
    assert audit.mean_ratio == 1.0
    # full sides always give exactly the expected crossing count
    for seed in range(5):
        h = sample_gadget(6, 3, seed)
        audit = expander_audit(h, eps=1.0)
        assert audit.worst_ratio == 1.0


def test_expander_audit_mean_identity():
    # averaging over all pairs of any fixed size yields exactly the expected
    # count for a regular gadget, so the overall mean ratio is exactly 1
    for seed in (0, 1):
        h = sample_gadget(7, 4, seed)
        audit = expander_audit(h, eps=2 / 7)
        assert audit.mean_ratio == pytest.approx(1.0, abs=1e-12)


def test_expander_audit_sampled_mode_and_witness():
    h = sample_gadget(8, 6, seed=0)
    full = expander_audit(h, eps=0.25)
    sampled = expander_audit(h, eps=0.25, mode="sampled", trials=500, seed=1)
    assert sampled.worst_ratio >= full.worst_ratio - 1e-12
    # the witness pair reproduces the reported worst ratio
    mat = {tuple(sorted((u, v))): m for u, v, m in h.graph.edges}
    count = 0
    for u in full.witness_left:
        for v in full.witness_right:
            count += mat.get(tuple(sorted((u, v))), 0)
    ratio = count * 8 / (6 * len(full.witness_left) * len(full.witness_right))
    assert ratio == pytest.approx(full.worst_ratio, abs=1e-12)
    with pytest.raises(ResourceLimitError):
        expander_audit(sample_gadget(analysis.MAX_AUDIT_SIDE + 1, 2, 0), eps=0.5)
    with pytest.raises(UsageError):
        expander_audit(h, eps=0.25, mode="bogus")


@pytest.mark.parametrize("block", [analysis.AUDIT_BLOCK, 7, 1])
def test_expander_audit_matches_brute_force(monkeypatch, block):
    # witnesses included: ties go to the smallest left code, then right code;
    # blocks of 7 and of 1 left sets split most sides into several blocks
    monkeypatch.setattr(analysis, "AUDIT_BLOCK", block)
    for n_side in range(1, 9):
        for delta in (1, 2, 3):
            for eps in (1e-4, 0.3, 0.5, 1.0):
                h = sample_gadget(n_side, delta, seed=10 * n_side + delta)
                audit = expander_audit(h, eps=eps)
                assert (audit.worst_ratio, audit.witness_left, audit.witness_right,
                        audit.pairs_checked) == expander_worst_pair(
                            h.left, h.right, h.graph.edges, eps)
                assert audit.mean_ratio == 1.0


def test_expander_audit_memory_stays_flat():
    # the 2^14 x 2^14 pair matrix alone would take 2 GiB
    h = sample_gadget(14, 3, seed=0)
    tracemalloc.start()
    try:
        audit = expander_audit(h, eps=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit.pairs_checked == (2 ** 14 - 1) ** 2
    assert peak < 64 * 2 ** 20


def test_coupling_sim_domination_and_law():
    rep = coupling_sim(4, 0.5, 3, seed=2, trials=20000)
    assert rep.domination_violations == 0
    assert rep.z1_within_4_sigma
    assert rep.chi2_pvalue > 1e-3
    # empirical joint law against the exact hypergeometric-sequential oracle
    law = sequential_indicator_law(4, 2, 4)
    from twospin.analysis import _sequence_law
    ours = _sequence_law(4, 2, 4)
    for pattern, prob in law.items():
        assert ours[pattern] == pytest.approx(prob, abs=1e-12)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)


def test_coupling_sim_partial_sequences():
    # a < 1 exercises the regime of the tail-bound proof (a <= b)
    rep = coupling_sim(8, 0.5, 2, seed=4, trials=20000, a=0.5)
    assert rep.domination_violations == 0
    assert rep.chi2_pvalue > 1e-3
    rep = coupling_sim(6, 1.0, 1, seed=1, trials=5000)  # b = 1: all ones
    assert rep.domination_violations == 0
    assert rep.z1_frequency == 1.0
    with pytest.raises(UsageError):
        coupling_sim(4, 0.3, 1, seed=0, trials=10)  # b*n not integral


def _chi2_points(dof):
    """Statistics from the far lower to the far upper tail, and around the
    series/continued-fraction switch at stat = dof + 2."""
    sd = math.sqrt(2.0 * dof)
    return ([dof * f for f in (1e-9, 1e-3, 0.3, 0.7)]
            + [dof + z * sd for z in (-3, -1, 0, 1, 3, 10, 30)]
            + [dof + 2 - 1e-9, dof + 2, dof + 2 + 1e-9, 3 * dof + 200,
               10 * dof + 600])


def test_chi2_sf_matches_closed_forms():
    rng = np.random.default_rng(17)
    dofs = (list(range(1, 41)) + [4094, 4095]
            + rng.integers(41, 4094, size=40).tolist())
    checked = 0
    for dof in dofs:
        for stat in _chi2_points(dof):
            if stat <= 0:
                continue
            expected = chi2_survival(stat, dof)
            if expected < 1e-280:  # keep clear of subnormal results
                continue
            assert chi2_sf(stat, dof) == pytest.approx(expected, rel=1e-12, abs=0)
            checked += 1
    assert checked > 1200
    assert chi2_sf(0.0, 3) == 1.0


def test_chi2_sf_matches_scipy_at_large_dof():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(19)
    dofs = ([2 ** j - 1 for j in range(1, 21)] + [2 ** j for j in range(1, 20)]
            + rng.integers(1, 2 ** 20, size=30).tolist())
    for dof in dofs:
        for stat in _chi2_points(dof):
            expected = float(stats.chi2.sf(stat, dof))
            if stat > 0 and expected > 1e-280:
                assert chi2_sf(stat, dof) == pytest.approx(expected, rel=1e-8, abs=0)


def test_coupling_sim_determinism():
    a = coupling_sim(4, 0.5, 2, seed=9, trials=5000)
    b = coupling_sim(4, 0.5, 2, seed=9, trials=5000)
    assert a == b


def test_polarized_branch_rate_bound():
    assert polarized_branch_rate_bound() >= 1.22897
    assert polarized_branch_rate_bound() == pytest.approx(1.22898, abs=1e-4)
