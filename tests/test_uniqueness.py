import math
import warnings

import numpy as np
import pytest

import oracles
from oracles import bisect_root, recursion_value
from twospin import uniqueness
from twospin.errors import RegimeError, ResourceLimitError, UsageError
from twospin.spins import SpinParams, remove_field
from twospin.uniqueness import (PhaseRegion, SplitCase,
                                always_unique_bound, case_split, classify_phase,
                                classify_phase_detail, criticality_roots,
                                field_window, first_nonunique_degree,
                                fixed_point, magnitude_grid,
                                outside_square_degrees, phase_grid,
                                uniqueness_check)


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


def _fixed_point_outcomes(beta, gamma, mu, d):
    """_fixed_point_array's bytes on the cells, or the error it raises.  A
    block that raises is split in halves until each error is pinned on one
    cell, so that one failing cell does not hide the rest of its block."""
    try:
        return [uniqueness._fixed_point_array(beta, gamma, mu, d).tobytes()]
    except Exception as exc:  # both loops must raise alike, whatever they raise
        if beta.size == 1:
            return [(type(exc), str(exc))]
        half = beta.size // 2
        return (_fixed_point_outcomes(beta[:half], gamma[:half], mu[:half], d[:half])
                + _fixed_point_outcomes(beta[half:], gamma[half:], mu[half:], d[half:]))


def _bisection_sweep_cells(rng, count):
    """(beta, gamma, mu, d) columns: beta in [0, 1) with TINY_BETA and its
    neighbours, gamma = 0 or up to 1/beta, mu from 1e-300 to 1e300, d from
    1 to 10**4, then knife-edge cells beta = gamma = 2**-k at mu = 1, whose
    fixed point 1 is a midpoint of the dyadic bracket [0, 2**(k*d)]."""
    tiny = uniqueness.TINY_BETA
    specials = [0.0, tiny, np.nextafter(tiny, 0.0), np.nextafter(tiny, 1.0)]
    beta = np.where(rng.random(count) < 0.3, rng.choice(specials, count),
                    rng.uniform(0.0, 1.0, count))
    gamma = 10 ** rng.uniform(-4.0, 4.0, count)
    gamma = np.where(beta * gamma < 1, gamma, rng.random(count) / np.maximum(beta, tiny))
    gamma = np.where(rng.random(count) < 0.25, 0.0, gamma)
    mu = 10 ** rng.uniform(-300.0, 300.0, count)
    d = np.floor(10 ** rng.uniform(0.0, 4.0, count))
    d[:2] = 1, 10 ** 4
    knife = [(2.0 ** -k, dk) for k in range(1, 8) for dk in (1, 2, 3, 4, 7)]
    kb, kd = np.array(knife).T
    return (np.concatenate([beta, kb]), np.concatenate([gamma, kb]),
            np.concatenate([mu, np.ones(kb.size)]), np.concatenate([d, kd]))


def test_bisection_gives_the_bits_of_every_halving(monkeypatch):
    cells = _bisection_sweep_cells(np.random.default_rng(13), 3000)
    blocks = [[c[i:i + 512] for c in cells] for i in range(0, cells[0].size, 512)]
    got = [_fixed_point_outcomes(*block) for block in blocks]
    brackets = set()

    def every_halving(lo, hi, g):
        brackets.add("log" if lo[0] < 0 else "linear")
        return oracles.bisect_every_halving(lo, hi, g, uniqueness.BISECT_ITERATIONS)

    monkeypatch.setattr(uniqueness, "_bisect", every_halving)
    assert got == [_fixed_point_outcomes(*block) for block in blocks]
    assert brackets == {"linear", "log"}
    outcomes = [o for block in got for o in block]
    assert any(isinstance(o, tuple) for o in outcomes)  # some cells overflow
    # every knife-edge cell bisects onto its exact fixed point
    assert uniqueness._fixed_point_array(*(c[-35:] for c in cells)).tolist() == [1.0] * 35


def test_bisection_stops_once_its_bracket_is_stationary():
    # a typical phase-grid row: each cell's linear bracket [0, f(0)]
    beta, gammas, mu, d = 0.5, np.linspace(0.1, 0.9, 33), 1.2, 5
    log_ratio = uniqueness._log_ratio(beta, gammas)
    hi = mu / gammas ** d
    lo = np.zeros_like(hi)
    calls = 0

    def g(x):
        nonlocal calls
        calls += 1
        return math.log(mu) + d * log_ratio(x) - np.log(x)

    reference = oracles.bisect_every_halving(lo, hi, g)
    calls = 0
    assert uniqueness._bisect(lo, hi, g).tobytes() == reference.tobytes()
    assert calls < uniqueness.BISECT_ITERATIONS
    # a NaN entry never compares equal to itself, so the loop runs to the cap
    hi[3] = np.nan
    reference = oracles.bisect_every_halving(lo, hi, g)
    calls = 0
    assert uniqueness._bisect(lo, hi, g).tobytes() == reference.tobytes()
    assert calls == uniqueness.BISECT_ITERATIONS
    assert np.isnan(reference[3]) and not np.isnan(np.delete(reference, 3)).any()


def _ratio_evaluations(monkeypatch):
    """A one-entry list that counts every evaluation of the ratio's log."""
    count = [0]
    real = uniqueness._log_ratio

    def counting(beta, gamma):
        log_ratio = real(beta, gamma)

        def evaluate(x):
            count[0] += 1
            return log_ratio(x)
        return evaluate

    monkeypatch.setattr(uniqueness, "_log_ratio", counting)
    return count


def test_a_phase_row_takes_a_few_ratio_evaluations(monkeypatch):
    # bisecting each cell's whole bracket [0, f(0)] took 72 evaluations here;
    # Newton's steps leave _bisect a bracket a few ulps wide
    count = _ratio_evaluations(monkeypatch)
    beta, gammas, mu, d = 0.5, np.linspace(0.1, 0.9, 33), 1.2, 5
    x, _ = magnitude_grid(beta, gammas, mu, d)
    assert count[0] <= 24
    assert x.tobytes() == oracles.fixed_point_by_halvings(beta, gammas, mu, d).tobytes()
    # at a small beta, Newton steps from the bracket top went back and forth
    # between g's flat ends, where its slope is -1 (88 evaluations)
    count[0] = 0
    magnitude_grid(0.1, np.linspace(0.05, 0.95, 33), 0.8, 9)
    assert count[0] <= 24
    # near this cell's root g moves in steps of 2**-30, and Newton steps went
    # back and forth between the two ends of the bracket until the cap
    count[0] = 0
    uniqueness._fixed_point_array(2.0 ** -20, 0.0, 4.641736432706163e214, 8.0)
    assert count[0] <= 40


def _small_beta(beta):
    """Cells whose ratio takes its log1p form with a beta far below 1, where
    that form loses about eps*x of the ratio's precision at large x."""
    return (beta >= uniqueness.TINY_BETA) & (beta < 2.0 ** -10)


def test_newton_matches_bisecting_the_whole_bracket():
    cells = _bisection_sweep_cells(np.random.default_rng(13), 3000)
    blocks = [[c[i:i + 512] for c in cells] for i in range(0, cells[0].size, 512)]
    got = np.concatenate([
        np.frombuffer(o, dtype=float) if isinstance(o, bytes) else [math.nan]
        for block in blocks for o in _fixed_point_outcomes(*block)])
    reference = oracles.fixed_point_by_halvings(*cells)
    # the same cells are refused, because the brackets did not change
    assert np.array_equal(np.isnan(got), np.isnan(reference))
    assert np.isnan(reference).sum() > 0
    # every knife-edge cell still lands on its exact fixed point
    assert got[-35:].tolist() == [1.0] * 35
    solved = ~np.isnan(reference)
    assert np.array_equal(got[solved] == 0, reference[solved] == 0)
    both = solved & (reference > 0)
    rel = np.abs(got[both] - reference[both]) / reference[both]
    assert (rel > 0).sum() > 100  # the two pick different sign changes of g
    small = _small_beta(cells[0][both])
    assert rel[~small].max() <= 1e-12
    assert rel[small].max() <= 1e-8  # g itself is that coarse there


def test_newton_is_as_accurate_as_bisecting_the_whole_bracket():
    # both solvers return a sign change of the floating-point g; against a
    # 50-digit root, Newton's is as close as the reference's, up to how far
    # g's rounding lets a sign change lie from the root
    cells = [c[::5] for c in _bisection_sweep_cells(np.random.default_rng(13), 3000)]
    reference = oracles.fixed_point_by_halvings(*cells)
    got = np.empty_like(reference)
    for i in range(reference.size):
        if not np.isnan(reference[i]):
            got[i] = uniqueness._fixed_point_array(*(c[i] for c in cells))
    keep = (reference > 0) & ~(_small_beta(cells[0]) & (reference > 2.0 ** 20))
    assert keep.sum() > 500
    errors, closer = [], [0, 0]
    for i in np.nonzero(keep)[0]:
        exact, band = oracles.fixed_point_mp(*(c[i] for c in cells), reference[i])
        new, old = (abs(float(v) - exact) / exact for v in (got[i], reference[i]))
        assert new <= old + band + 4 * 2.0 ** -1074 / exact, i
        errors.append((new, old))
        if new != old:
            closer[new > old] += 1
    new_median, old_median = np.median(errors, axis=0)
    assert new_median <= old_median
    assert closer[0] > 2 * closer[1]


def _magnitudes(beta, gamma, mu, d, x):
    """|f'(x)| in magnitude_grid's closed form."""
    with np.errstate(divide="ignore"):
        return np.exp(np.log(d) + np.log1p(-(beta * gamma)) + np.log(x)
                      - np.log1p(beta * x) - np.log(x + gamma))


def test_labels_and_thresholds_match_bisecting_the_whole_bracket():
    axis = np.linspace(0.0, 2.5, 26)
    for d in (1, 2, 3, 7, 40, 299):
        rows = list(phase_grid(axis.tolist(), axis.tolist(), 1.0, d, 10.0))
        beta, gamma = np.array([(r["beta"], r["gamma"]) for r in rows]).T
        solved = beta * gamma < 1
        x = oracles.fixed_point_by_halvings(beta[solved], gamma[solved], 1.0, d)
        unique = _magnitudes(beta[solved], gamma[solved], 1.0, d, x) < 1.0
        labels = np.array([r["region"] == PhaseRegion.UNIQUENESS.value for r in rows])
        assert np.array_equal(labels[solved], unique)
    side = np.linspace(0.05, 0.95, 10)
    beta, gamma = (v.ravel() for v in np.meshgrid(side, side, indexing="ij"))
    ds = np.arange(1, 513, dtype=float)
    x = oracles.fixed_point_by_halvings(beta[:, None], gamma[:, None], 1.0, ds)
    failing = _magnitudes(beta[:, None], gamma[:, None], 1.0, ds, x) >= 1.0
    for b, g, row in zip(beta.tolist(), gamma.tolist(), failing):
        expected = int(np.argmax(row)) + 1 if row.any() else None
        assert first_nonunique_degree(SpinParams(b, g), 512).degree == expected


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


@pytest.mark.parametrize("d_max", [uniqueness.MAX_SCAN_DEGREE + 1, 2 ** 62, 2 ** 63 - 1, 2 ** 63])
def test_first_nonunique_degree_refuses_a_scan_past_its_cap(d_max):
    # past int64, numpy's arange of the degrees was empty, and the scan
    # reported a found threshold as exhausted; at 2**62 it raised ValueError
    with pytest.raises(ResourceLimitError, match=f"d_max {d_max} exceeds cap"):
        first_nonunique_degree(SpinParams(0.99, 0.99), d_max)


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
    for gamma in (0.0, -0.5):  # at gamma = 0 the root x1 is 0: the residual divided by it
        with pytest.raises(RegimeError, match="closed-form roots need gamma > 0"):
            criticality_roots(0.3, gamma, 10)
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


# degrees below 1 or past int64 once raised ZeroDivisionError (field_window
# at -1), OverflowError (10**400) or TypeError (uniqueness_check at 10**300);
# with every cell at beta*gamma > 1 the phase classifiers never looked at
# the degree, and magnitude_grid returned NaN at a NaN degree
@pytest.mark.parametrize("d", [0, -1, 0.5, math.nan, 2 ** 63, 10 ** 300, 10 ** 400],
                         ids=["0", "-1", "0.5", "nan", "2**63", "10**300", "10**400"])
@pytest.mark.parametrize("call", [
    lambda d: uniqueness_check(SpinParams(0.5, 0.5), d),
    lambda d: remove_field(SpinParams(0.5, 0.5, 2.0), d),
    lambda d: criticality_roots(0.5, 0.5, d),
    lambda d: field_window(0.2, 0.5, d),
    lambda d: classify_phase_detail(SpinParams(2, 2), d),
    lambda d: list(phase_grid([2, 3], [2, 3], 1.0, d)),
    lambda d: magnitude_grid(0.5, 0.5, 1.0, d),
    lambda d: magnitude_grid(0.5, 0.5, 1.0, [4, d])],
    ids=["uniqueness_check", "remove_field", "criticality_roots", "field_window",
         "classify_phase_detail", "phase_grid", "magnitude_grid", "magnitude_grid_array"])
def test_degree_out_of_range_is_a_usage_error(call, d):
    with pytest.raises(UsageError, match="degree must be"):
        call(d)


def test_first_nonunique_degree_refuses_a_nan_cap():
    # numpy's arange raised ValueError on a NaN length
    with pytest.raises(UsageError, match="d_max must be an integer >= 1, got nan"):
        first_nonunique_degree(SpinParams(0.5, 0.5), math.nan)


@pytest.mark.parametrize("d_max", [1.5, math.inf])
def test_first_nonunique_degree_refuses_a_non_integer_cap(d_max):
    # a cap of 1.5 scanned degrees 1 and 2 and reported degree 2, past it
    with pytest.raises(UsageError, match="d_max must be an integer"):
        first_nonunique_degree(SpinParams(0.1, 0.1), d_max)


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


@pytest.mark.parametrize("L", [2.7, 0.5, math.nan, math.inf])
def test_case_split_refuses_a_non_integer_scale(L):
    # L = 2.7 ran silently at scale 2
    with pytest.raises(UsageError, match=r"L must be an integer in \[1, 9223372036854775807\]"):
        case_split(0.3, 0.6, 10, L=L)


@pytest.mark.parametrize("delta_star", [10.5, math.nan, math.inf])
def test_case_split_refuses_a_non_integer_total_degree(delta_star):
    # 10.5 returned delta = 10.5, delta_prime = 0.0; NaN and infinity raised
    # a bare RuntimeError
    with pytest.raises(UsageError, match="delta_star must be an integer >= 1"):
        case_split(0.3, 0.6, delta_star)


@pytest.mark.parametrize("beta, gamma", [(math.nan, 0.5), (0.5, math.nan),
                                         (math.inf, 0.0), (0.0, math.inf)])
def test_always_unique_bound_refuses_non_finite_weights(beta, gamma):
    # each returned NaN
    with pytest.raises(UsageError, match="(beta|gamma) must be a finite non-negative real, got (nan|inf)"):
        always_unique_bound(beta, gamma)


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


def _phase_grids():
    """(betas, gammas, mu, d, h) grids that between them reach every region."""
    plan = outside_square_degrees(0.3, 1.0001)
    axis = np.linspace(0.0, 2.5, 11).tolist()  # has 0, and 0.5 * 2.0 == 1
    return [(axis, axis, 1.0, 40, 10.0),        # unit-square region
            (axis, axis, 0.37, 40, 1000.0),     # unclassified non-uniqueness
            ([0.0, 0.25, 0.3, 2.0], [1.0001, 4.0], 1.0,
             plan.delta_star, 1e12)]            # outside-square region


def test_phase_grid_matches_per_cell_classification(monkeypatch):
    grids = _phase_grids()
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


def _log_add(a, b):
    """log(e**a + e**b) in plain math; -inf stands for log 0."""
    hi, lo = max(a, b), min(a, b)
    return hi if lo == -math.inf else hi + math.log1p(math.exp(lo - hi))


def _oracle_magnitude(beta, gamma, mu, d):
    """|f'(x_hat)| in plain math, with log x_hat from bisect_root on
    y -> log f(e**y) - y, which decreases when beta*gamma < 1."""
    log_beta, log_gamma = (math.log(v) if v > 0 else -math.inf for v in (beta, gamma))

    def log_terms(y):  # log(beta*x + 1) + log(x + gamma) at x = e**y
        return _log_add(log_beta + y, 0.0), _log_add(y, log_gamma)

    def g(y):
        up, down = log_terms(y)
        return math.log(mu) + d * (up - down) - y

    y = bisect_root(g, -1e6, 1e6)
    return math.exp(math.log(d) + math.log1p(-beta * gamma) + y - sum(log_terms(y)))


def test_phase_labels_agree_with_an_independent_magnitude():
    # the block classifier labels every cell, so the rows are checked against
    # |f'| from a plain-math fixed point rather than against the library
    labels = set()
    for betas, gammas, mu, d, h in _phase_grids():
        for row in phase_grid(betas, gammas, mu, d, h):
            if row["x_hat"] is None:
                continue
            mag = _oracle_magnitude(row["beta"], row["gamma"], mu, d)
            if abs(mag - 1.0) >= 1e-9:
                unique = row["region"] == PhaseRegion.UNIQUENESS.value
                assert unique == (mag < 1.0), row
                labels.add(unique)
    assert labels == {True, False}


def test_phase_grid_rows():
    rows = list(phase_grid([0.5, 2.0], [0.6], 1.0, 3))
    assert len(rows) == 2
    assert rows[0]["region"] == PhaseRegion.UNIQUENESS.value
    assert rows[1]["region"] == PhaseRegion.FERROMAGNETIC.value
    assert rows[1]["x_hat"] is None
    assert rows[0]["x_hat"] is not None
