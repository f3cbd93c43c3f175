import math

import numpy as np
import pytest

from twospin.logspace import (LOG_ZERO, log_add, log_binomial, log_sum_exp,
                              pairwise_add, pairwise_root, scaled_log)


def test_scaled_log_conventions():
    assert scaled_log(0.0, 0) == 0.0
    assert scaled_log(0.0, 5) == LOG_ZERO
    assert scaled_log(2.0, 3) == pytest.approx(3 * math.log(2), abs=1e-15)
    assert scaled_log(0.5, 0) == 0.0


def test_log_add_absorbs_zero():
    assert log_add(LOG_ZERO, LOG_ZERO) == LOG_ZERO
    assert log_add(LOG_ZERO, 1.5) == 1.5
    assert log_add(math.log(2), math.log(3)) == pytest.approx(math.log(5), abs=1e-14)


def test_log_sum_exp_empty_and_zero():
    assert log_sum_exp([]) == LOG_ZERO
    assert log_sum_exp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO
    vals = [math.log(x) for x in (1, 2, 3, 4)]
    assert log_sum_exp(vals) == pytest.approx(math.log(10), abs=1e-13)
    assert not math.isnan(log_sum_exp([LOG_ZERO, 0.0]))


def test_pairwise_matches_direct():
    rng = np.random.default_rng(0)
    vals = list(rng.normal(size=37) * 50)
    vals[3] = LOG_ZERO
    tree = []
    for i, v in enumerate(vals):
        pairwise_add(tree, i, v)
    assert pairwise_root(tree) == pytest.approx(log_sum_exp(vals), abs=1e-11)
    assert pairwise_root([]) == LOG_ZERO
    # the tree that pairs the parts level by level, to the last bit
    level = vals
    while len(level) > 1:
        level = [log_add(*level[i:i + 2]) if i + 1 < len(level) else level[i]
                 for i in range(0, len(level), 2)]
    assert pairwise_root(tree) == level[0]


def test_log_binomial_matches_comb():
    for n in range(0, 30):
        for k in range(0, n + 1):
            assert log_binomial(n, k) == pytest.approx(
                math.log(math.comb(n, k)), abs=1e-10)
    assert log_binomial(5, 7) == LOG_ZERO
    assert log_binomial(5, -1) == LOG_ZERO
