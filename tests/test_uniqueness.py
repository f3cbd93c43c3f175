import math
import warnings

import numpy as np
import pytest

from oracles import bisect_root
from twospin import uniqueness
from twospin.errors import RegimeError, UsageError
from twospin.spins import SpinParams
from twospin.uniqueness import (PhaseRegion, SplitCase,
                                always_unique_bound, case_split, classify_phase,
                                classify_phase_detail, criticality_roots,
                                field_window, first_nonunique_degree,
                                fixed_point, magnitude_grid,
                                outside_square_degrees, phase_grid,
                                recursion_value, uniqueness_check)


def test_fixed_point_symmetric_params():
    # beta = gamma with mu = 1 forces the fixed point to 1 for every degree
    for d in (1, 2, 3, 7, 20):
        assert fixed_point(SpinParams(0.5, 0.5), d) == 1.0


def test_fixed_point_hardcore_values():
    # oracle: bisection on x (x+1)**d = 1 (decreasing in x after rearranging)
    golden = bisect_root(lambda x: 1.0 - x * (x + 1.0), 0.0, 1.0)
    assert golden == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)
    assert fixed_point(SpinParams(0, 1), 1) == pytest.approx(golden, abs=1e-12)
    d2 = bisect_root(lambda x: 1.0 - x * (x + 1.0) ** 2, 0.0, 1.0)
    assert fixed_point(SpinParams(0, 1), 2) == pytest.approx(d2, abs=1e-12)
    assert d2 == pytest.approx(0.4655712318767680, abs=1e-12)


def test_fixed_point_residual_sweep():
    rng = np.random.default_rng(42)
    count = 0
    while count < 1000:
        beta = rng.uniform(0, 1.5)
        gamma = rng.uniform(0.02, 1.5)
        if beta * gamma >= 0.98:
            continue
        p = SpinParams(beta, gamma, 10 ** rng.uniform(-6, 6))
        d = int(rng.integers(1, 201))
        x = fixed_point(p, d)
        assert abs(recursion_value(p, d, x) - x) <= 1e-12 * max(1.0, x)
        count += 1


def test_fixed_point_residual_sweep_zero_gamma_and_tiny_beta():
    # gamma = 0 leaves f(0) infinite; a tiny beta lets the ratio's log1p form
    # round to log(0) once x passes 2**53, so those cells take the other form
    rng = np.random.default_rng(43)
    for _ in range(300):
        if rng.random() < 0.5:
            beta, gamma, log_mu = rng.uniform(0, 1.5), 0.0, rng.uniform(-6, 6)
        else:
            beta = rng.choice([0.0, 10 ** rng.uniform(-30, math.log10(2.0 ** -20))])
            gamma = rng.choice([0.0, rng.uniform(0, 4)])
            log_mu = rng.uniform(-300, 300)
        p = SpinParams(float(beta), float(gamma), float(10 ** log_mu))
        d = int(rng.integers(1, 201))
        x = fixed_point(p, d)
        assert abs(recursion_value(p, d, x) - x) <= 1e-12 * max(1.0, x)


def test_zero_weights_fixed_point_closed_form():
    # beta = gamma = 0 gives f(x) = mu/x**d: x_hat = mu**(1/(d+1)), |f'| = d
    for mu in np.logspace(-300, 300, 25).tolist():
        for d in (1, 2, 5, 40, 200):
            r = uniqueness_check(SpinParams(0, 0, mu), d)
            assert r.x_hat == pytest.approx(mu ** (1 / (d + 1)), rel=1e-12)
            assert r.derivative_magnitude == pytest.approx(d, rel=1e-12)


def test_huge_field_fixed_points():
    # x (x + 1/2) = 1e300, with x far above 2**53
    r = uniqueness_check(SpinParams(0, 0.5, 1e300), 1)
    assert r.x_hat == pytest.approx(math.sqrt(1e300 + 1 / 16) - 0.25, rel=1e-12)
    # f(x) = 1e300/x**d has |f'| = d at its fixed point
    assert first_nonunique_degree(SpinParams(0, 0, 1e300), 64).degree == 1
    # x (x + 4)**100 = 1e300, solved in log x by the oracle
    log_x = bisect_root(
        lambda y: math.log(1e300) - y - 100 * math.log(math.exp(y) + 4), 0.0, 700.0)
    r = uniqueness_check(SpinParams(0, 4, 1e300), 100)
    assert r.x_hat == pytest.approx(math.exp(log_x), rel=1e-12)


def test_fixed_point_regime_errors():
    with pytest.raises(RegimeError):
        fixed_point(SpinParams(2.0, 2.0), 3)
    with pytest.raises(RegimeError):
        fixed_point(SpinParams(1.0, 1.0), 3)


def test_uniqueness_check_examples():
    r = uniqueness_check(SpinParams(0.5, 0.5), 2)
    assert r.derivative_magnitude == pytest.approx(2 / 3, abs=1e-12)
    assert r.unique
    r = uniqueness_check(SpinParams(0.5, 0.5), 4)
    assert r.derivative_magnitude == pytest.approx(4 / 3, abs=1e-12)
    assert not r.unique
    # hardcore criticality: mu_c(d) = d**d/(d-1)**(d+1), equal to 4 at d = 2
    assert uniqueness_check(SpinParams(0, 1, 3.9), 2).unique
    assert not uniqueness_check(SpinParams(0, 1, 4.1), 2).unique


def test_underflowing_fixed_point_is_silent():
    # at beta = 0 the fixed point mu/(x+gamma)**d underflows to 0; the
    # bisection's log(0) must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = uniqueness_check(SpinParams(0, 4, 1), 10001)
    assert r.x_hat == 0.0
    assert r.unique


def test_first_nonunique_degree():
    assert first_nonunique_degree(SpinParams(0.5, 0.5), 20).degree == 3
    # hardcore at mu = 1: oracle is the smallest d with d**d/(d-1)**(d+1) < 1
    oracle = next(d for d in range(2, 50) if d ** d / (d - 1) ** (d + 1) < 1)
    assert oracle == 5
    assert first_nonunique_degree(SpinParams(0, 1), 20).degree == oracle
    scan = first_nonunique_degree(SpinParams(0.999, 0.999), 5)
    assert scan.degree is None and scan.exhausted
    # never below the field-free uniqueness floor
    bound = always_unique_bound(0.999, 0.999)
    found = first_nonunique_degree(SpinParams(0.999, 0.999), 5000)
    assert found.degree >= bound


def test_always_unique_bound_values():
    assert always_unique_bound(0.5, 0.5) == pytest.approx(3.0, abs=1e-12)
    assert always_unique_bound(0.0, 1.0) == 1.0
    assert always_unique_bound(0.9, 0.9) == pytest.approx(19.0, abs=1e-9)
    with pytest.raises(UsageError):
        always_unique_bound(1.0, 1.0)


def test_criticality_roots():
    x1, x2 = criticality_roots(0.5, 0.5, 3)
    assert x1 == pytest.approx(1.0, abs=1e-12)
    assert x2 == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(50):
        beta = rng.uniform(0.01, 0.95)
        gamma = rng.uniform(0.01, min(1.5, 0.95 / beta))
        d = int(math.ceil(always_unique_bound(beta, gamma))) + int(rng.integers(0, 50))
        x1, x2 = criticality_roots(beta, gamma, d)
        for x in (x1, x2):
            resid = abs(d * (1 - beta * gamma) * x
                        / ((beta * x + 1) * (x + gamma)) - 1.0)
            assert resid <= 1e-10
        # both roots of the quadratic: product and sum
        assert x1 * x2 == pytest.approx(gamma / beta, rel=1e-10)
        b_coef = -1 - beta * gamma + d * (1 - beta * gamma)
        assert x1 + x2 == pytest.approx(b_coef / beta, rel=1e-10)
    with pytest.raises(RegimeError):
        criticality_roots(0.0, 1.0, 10)
    with pytest.raises(RegimeError):
        criticality_roots(0.5, 0.5, 2)  # below the degree floor


def test_field_window_flip():
    mu1, mu2 = field_window(0.1, 0.5, 10)
    assert mu1 <= mu2
    assert uniqueness_check(SpinParams(0.1, 0.5, mu1 * 0.99), 10).unique
    assert not uniqueness_check(SpinParams(0.1, 0.5, mu1 * 1.01), 10).unique
    assert not uniqueness_check(SpinParams(0.1, 0.5, mu2 * 0.99), 10).unique
    assert uniqueness_check(SpinParams(0.1, 0.5, mu2 * 1.01), 10).unique
    with pytest.raises(RegimeError):
        field_window(0.5, 0.4, 10)  # needs gamma > beta
    with pytest.raises(RegimeError):
        field_window(0.4, 0.5, 2)   # below the degree floor


def test_field_window_interior_and_exterior():
    rng = np.random.default_rng(3)
    for _ in range(20):
        beta = rng.uniform(0.02, 0.6)
        gamma = rng.uniform(beta + 0.05, min(1.4, 0.95 / beta))
        d_floor = always_unique_bound(beta, gamma)
        d = int(math.ceil(d_floor)) + int(rng.integers(1, 30))
        if math.sqrt(beta * gamma) > (d - 1) / (d + 1):
            continue
        mu1, mu2 = field_window(beta, gamma, d)
        if mu2 / mu1 < 1.1:
            continue
        for frac in np.linspace(0.1, 0.9, 5):
            mu = mu1 * (mu2 / mu1) ** frac
            assert not uniqueness_check(SpinParams(beta, gamma, mu), d).unique
        for mu in (mu1 * 0.5, mu1 * 0.95, mu2 * 1.05, mu2 * 2.0):
            assert uniqueness_check(SpinParams(beta, gamma, mu), d).unique


def test_outside_square_degrees_examples():
    plan = outside_square_degrees(0.5, 1.0001)
    assert (plan.delta_prime, plan.delta_star) == (2, 10001)
    assert not plan.in_hard_region
    plan = outside_square_degrees(0.3, 1.0001)
    assert (plan.delta_prime, plan.delta_star) == (1, 10001)
    assert plan.in_hard_region
    with pytest.raises(UsageError):
        outside_square_degrees(0.5, 0.9)
    with pytest.raises(UsageError):
        outside_square_degrees(0.9, 1.2)  # product above 1


def test_outside_square_degree_facts():
    rng = np.random.default_rng(17)
    for _ in range(100):
        gamma = 1 + 10 ** rng.uniform(-5, -0.5)
        beta = rng.uniform(1e-3, min(0.999, 0.999 / gamma))
        plan = outside_square_degrees(beta, gamma)
        assert gamma ** plan.delta_star >= math.e > gamma ** (plan.delta_star - 1)
        assert (beta * gamma) ** plan.delta_prime <= 1 / math.e
        assert plan.in_hard_region == (plan.delta_star >= 8000 * plan.delta_prime)


def test_case_split():
    cp = case_split(0.4, 0.9, 8, L=3)
    assert cp.case is SplitCase.BETA_BELOW_HALF
    assert (cp.delta, cp.delta_prime) == (6, 2)
    assert cp.toy_mode
    assert case_split(0.6, 0.9, 8, L=3).case is SplitCase.BETA_ABOVE_HALF
    assert case_split(0.8, 0.9, 8, L=3).case is SplitCase.BETA_ABOVE_GAMMA_POWER
    # split arithmetic: always sums to delta_star, published-scale default
    cp = case_split(0.4, 0.9, 8)
    assert cp.delta + cp.delta_prime == 8
    assert not cp.toy_mode and cp.scale == 12 * 10 ** 8
    assert cp.expander_floor == 4 * cp.scale
    rng = np.random.default_rng(2)
    for _ in range(50):
        beta = rng.uniform(0.01, 1.0)
        gamma = rng.uniform(beta, 1.0)
        if beta == 1.0 and gamma == 1.0:
            continue
        ds = int(rng.integers(1, 10 ** 6))
        L = int(rng.integers(1, 50))
        cp = case_split(beta, gamma, ds, L=L)
        assert cp.delta + cp.delta_prime == ds
        if cp.case is not SplitCase.BETA_ABOVE_GAMMA_POWER:
            assert L * cp.delta_prime >= cp.delta >= L * (cp.delta_prime - 1)
        else:
            assert cp.delta >= L * (L + 1) * cp.delta_prime
    with pytest.raises(UsageError):
        case_split(1.0, 1.0, 5)
    with pytest.raises(UsageError):
        case_split(0.9, 0.5, 5)


def test_classify_phase():
    assert classify_phase(SpinParams(2, 2), 3) is PhaseRegion.FERROMAGNETIC
    assert classify_phase(SpinParams(0.5, 0.5), 2) is PhaseRegion.UNIQUENESS
    assert classify_phase(SpinParams(0.5, 0.5), 40, h=10.0) is \
        PhaseRegion.NONUNIQUE_UNIT_SQUARE
    # same parameters but a steep h leaves the region unclassified
    assert classify_phase(SpinParams(0.5, 0.5), 40, h=1e5) is \
        PhaseRegion.NONUNIQUE_UNCLASSIFIED
    # hard region on the gamma > 1 side, at exactly the planned degree
    plan = outside_square_degrees(0.3, 1.0001)
    label = classify_phase(SpinParams(0.3, 1.0001), plan.delta_star, h=1e12)
    assert label is PhaseRegion.NONUNIQUE_OUTSIDE_SQUARE
    # labels agree with the underlying uniqueness check
    rng = np.random.default_rng(8)
    for _ in range(40):
        p = SpinParams(rng.uniform(0, 1.2), rng.uniform(0.05, 1.2),
                       10 ** rng.uniform(-1, 1))
        d = int(rng.integers(1, 40))
        if p.beta * p.gamma >= 1:
            continue
        rep = classify_phase_detail(p, d)
        assert (rep.region is PhaseRegion.UNIQUENESS) == \
            uniqueness_check(p, d).unique


def test_unit_square_monotonicity():
    rng = np.random.default_rng(14)
    ds = np.arange(1, 40, dtype=float)
    for _ in range(60):
        beta = rng.uniform(0.01, 1.0)
        gamma = rng.uniform(0.01, 1.0)
        if beta * gamma >= 1:
            continue
        mu = 10 ** rng.uniform(-2, 2)
        _, mags = magnitude_grid(beta, gamma, mu, ds)
        nonunique = mags >= 1.0
        assert not np.any(nonunique[:-1] & ~nonunique[1:])


def test_phase_grid_matches_per_cell_classification(monkeypatch):
    plan = outside_square_degrees(0.3, 1.0001)
    axis = np.linspace(0.0, 2.5, 11).tolist()  # has 0, and 0.5 * 2.0 == 1
    grids = [(axis, axis, 1.0, 40, 10.0),        # unit-square region
             (axis, axis, 0.37, 40, 1000.0),     # unclassified non-uniqueness
             ([0.0, 0.25, 0.3, 2.0], [1.0001, 4.0], 1.0,
              plan.delta_star, 1e12)]            # outside-square region
    expected = []
    for betas, gammas, mu, d, h in grids:
        for beta in betas:
            for gamma in gammas:
                rep = classify_phase_detail(SpinParams(beta, gamma, mu), d, h)
                expected.append(({"beta": beta, "gamma": gamma, "mu": mu, "d": d},
                                 rep))
    regions = {rep.region for _, rep in expected}
    assert regions == set(PhaseRegion)
    cells = [cell for cell, _ in expected]
    assert any(c["gamma"] == 0 and c["beta"] > 0 for c in cells)
    assert any(c["beta"] * c["gamma"] == 1 for c in cells)
    assert any(c["beta"] * c["gamma"] > 1 for c in cells)
    # the default block, and blocks that rows straddle
    for block in (None, 7, 1):
        if block is not None:
            monkeypatch.setattr(uniqueness, "PHASE_BLOCK_CELLS", block)
        rows = [row for betas, gammas, mu, d, h in grids
                for row in phase_grid(betas, gammas, mu, d, h)]
        assert len(rows) == len(expected)
        for row, (cell, rep) in zip(rows, expected):
            assert {k: row[k] for k in cell} == cell
            assert row["region"] == rep.region.value
            assert row["x_hat"] == rep.x_hat
            assert row["deriv_mag"] == rep.derivative_magnitude


def test_phase_grid_rows():
    rows = list(phase_grid([0.5, 2.0], [0.6], 1.0, 3))
    assert len(rows) == 2
    assert rows[0]["region"] == PhaseRegion.UNIQUENESS.value
    assert rows[1]["region"] == PhaseRegion.FERROMAGNETIC.value
    assert rows[1]["x_hat"] is None
    assert rows[0]["x_hat"] is not None
