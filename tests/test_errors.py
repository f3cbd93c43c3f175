import math

import pytest

from twospin.analysis import (check_audit_side, coupling_sim, exact_rate,
                              expected_profile_sum_mc)
from twospin.e2lin2 import E2Lin2Instance, random_instance
from twospin.errors import ResourceLimitError, UsageError, check_seed, shown
from twospin.graphs import MultiGraph
from twospin.reduction import GadgetParams, build_reduction_graph, sample_gadget
from twospin.spins import SpinParams, remove_field
from twospin.uniqueness import first_nonunique_degree, uniqueness_check

HUGE = 10 ** 5000  # str() refuses an int past 4,300 digits with a bare ValueError


def test_shown_bounds_only_long_integers():
    assert shown(2 ** 256 - 1) == str(2 ** 256 - 1)
    assert shown(2 ** 256) == "<257-bit integer>"
    assert shown(-HUGE) == "-<16610-bit integer>"
    assert [shown(v) for v in (0.5, float("nan"), -3)] == ["0.5", "nan", "-3"]


# each message printed the integer, so each raised ValueError, not its own type
@pytest.mark.parametrize("call, error", [
    (lambda: uniqueness_check(SpinParams(0.5, 0.5), HUGE), UsageError),
    (lambda: first_nonunique_degree(SpinParams(0.5, 0.5), HUGE), ResourceLimitError),
    (lambda: remove_field(SpinParams(0.5, 0.5, 2.0), HUGE), UsageError),
    (lambda: expected_profile_sum_mc(3, 2, 1, SpinParams(0.5, 0.5), 0.5, 0.5,
                                     trials=HUGE, seed=0), ResourceLimitError),
    (lambda: coupling_sim(8, 0.5, 3, 0, HUGE), ResourceLimitError),
    (lambda: check_audit_side(HUGE), ResourceLimitError),
    (lambda: sample_gadget(HUGE, 2, 0), ResourceLimitError),
    (lambda: check_seed(-HUGE), UsageError),
    (lambda: GadgetParams(2, 1, 1, -HUGE), UsageError),
    (lambda: exact_rate(0.5, 0.5, HUGE, 1, 0.5, 0.5), UsageError),
    (lambda: build_reduction_graph(E2Lin2Instance(2, ((0, 1, 1),)),
                                   GadgetParams(1, 1, HUGE, 0)), ResourceLimitError),
    (lambda: MultiGraph(HUGE, []), UsageError)],
    ids=["uniqueness_check", "first_nonunique_degree", "remove_field",
         "expected_profile_sum_mc", "coupling_sim", "check_audit_side",
         "sample_gadget", "check_seed", "GadgetParams", "exact_rate",
         "build_reduction_graph", "MultiGraph"])
def test_refusals_print_huge_integers_bounded(call, error):
    with pytest.raises(error, match="-bit integer>"):
        call()


@pytest.mark.parametrize("params, message", [
    ((10 ** 400, 0.5), "beta must be a finite nonnegative real, got <1329-bit integer>"),
    ((0.5, 10 ** 400), "gamma must be a finite nonnegative real, got <1329-bit integer>"),
    ((0.5, 0.5, 10 ** 400), "mu must be a finite positive real, got <1329-bit integer>"),
    ((0.5, 0.5, -(10 ** 400)), "mu must be a finite positive real, got -<1329-bit integer>"),
    ((math.inf, 0.5), "beta must be a finite nonnegative real, got inf"),
    ((0.5, math.nan), "gamma must be a finite nonnegative real, got nan")])
def test_spin_params_refuse_weights_past_the_doubles(params, message):
    # math.isfinite(10**400) raised a bare OverflowError
    with pytest.raises(UsageError, match=message):
        SpinParams(*params)
    assert SpinParams(10 ** 300, 0, 2 ** 1000).beta == 10 ** 300


# each count reached numpy or range() as a float: a bare AxisError, TypeError
# or ValueError, or, for random_instance's n, a silently truncated instance
@pytest.mark.parametrize("call, names", [
    (lambda: sample_gadget(2.5, 2, 1), "n_side and delta"),
    (lambda: sample_gadget(math.nan, 2, 1), "n_side and delta"),
    (lambda: sample_gadget(3, 2.5, 1), "n_side and delta"),
    (lambda: coupling_sim(math.nan, 0.5, 3, 0, 10), "n, d and trials"),
    (lambda: coupling_sim(8, 0.5, 2.5, 0, 10), "n, d and trials"),
    (lambda: coupling_sim(8, 0.5, 2, 0, 2.5), "n, d and trials"),
    (lambda: random_instance(3, 2.5, 1), "n and m"),
    (lambda: random_instance(3.5, 3, 1), "n and m")],
    ids=["sample_gadget-side", "sample_gadget-nan", "sample_gadget-delta",
         "coupling_sim-nan", "coupling_sim-d", "coupling_sim-trials",
         "random_instance-m", "random_instance-n"])
def test_counts_refuse_non_integers(call, names):
    with pytest.raises(UsageError, match=f"{names} must be integers, got"):
        call()
