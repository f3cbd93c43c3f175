import math
from fractions import Fraction

import numpy as np
import pytest

from twospin.analysis import (check_audit_side, coupling_sim, exact_rate,
                              expected_profile_sum_mc)
from twospin.e2lin2 import E2Lin2Instance, random_instance
from twospin.errors import (FLOAT_MAX, INT64_MAX, POSITIVE, ResourceLimitError, UsageError,
                            check_int, check_real, shown)
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
    (lambda: random_instance(3, 3, -HUGE), UsageError),
    (lambda: GadgetParams(2, 1, 1, -HUGE), UsageError),
    (lambda: exact_rate(0.5, 0.5, HUGE, 1, 0.5, 0.5), UsageError),
    (lambda: build_reduction_graph(E2Lin2Instance(2, ((0, 1, 1),)),
                                   GadgetParams(1, 1, HUGE, 0)), ResourceLimitError),
    (lambda: MultiGraph(HUGE, []), UsageError)],
    ids=["uniqueness_check", "first_nonunique_degree", "remove_field",
         "expected_profile_sum_mc", "coupling_sim", "check_audit_side",
         "sample_gadget", "seed", "GadgetParams", "exact_rate",
         "build_reduction_graph", "MultiGraph"])
def test_refusals_print_huge_integers_bounded(call, error):
    with pytest.raises(error, match="-bit integer>"):
        call()


@pytest.mark.parametrize("params, message", [
    ((10 ** 400, 0.5), "beta must be a finite non-negative real, got <1329-bit integer>"),
    ((0.5, 10 ** 400), "gamma must be a finite non-negative real, got <1329-bit integer>"),
    ((0.5, 0.5, 10 ** 400), "mu must be a finite positive real, got <1329-bit integer>"),
    ((0.5, 0.5, -(10 ** 400)), "mu must be a finite positive real, got -<1329-bit integer>"),
    ((math.inf, 0.5), "beta must be a finite non-negative real, got inf"),
    ((0.5, math.nan), "gamma must be a finite non-negative real, got nan")])
def test_spin_params_refuse_weights_past_the_doubles(params, message):
    # math.isfinite(10**400) raised a bare OverflowError
    with pytest.raises(UsageError, match=message):
        SpinParams(*params)
    assert SpinParams(10 ** 300, 0, 2 ** 1000).beta == 10 ** 300


# each count reached numpy or range() as a float: a bare AxisError, TypeError
# or ValueError, or, for random_instance's n, a silently truncated instance
@pytest.mark.parametrize("call, name", [
    (lambda: sample_gadget(2.5, 2, 1), "n_side"),
    (lambda: sample_gadget(math.nan, 2, 1), "n_side"),
    (lambda: sample_gadget(3, 2.5, 1), "delta"),
    (lambda: coupling_sim(math.nan, 0.5, 3, 0, 10), "n"),
    (lambda: coupling_sim(8, 0.5, 2.5, 0, 10), "d"),
    (lambda: coupling_sim(8, 0.5, 2, 0, 2.5), "trials"),
    (lambda: random_instance(3, 2.5, 1), "m"),
    (lambda: random_instance(3.5, 3, 1), "n")],
    ids=["sample_gadget-side", "sample_gadget-nan", "sample_gadget-delta",
         "coupling_sim-nan", "coupling_sim-d", "coupling_sim-trials",
         "random_instance-m", "random_instance-n"])
def test_counts_refuse_non_integers(call, name):
    with pytest.raises(UsageError, match=f"^{name} must be an integer (>= 1|in \\[.*\\]), got"):
        call()


# the argument contract: one check of a real and one of an integer, with
# inclusive bounds; an open end is the next double
OPEN_ONE = math.nextafter(1.0, 2.0)


@pytest.mark.parametrize("v, lo, hi, message", [
    (0, 0, 1, None), (1, 0, 1, None), (-0.0, 0, 1, None), (0.5, 0, 1, None),
    (Fraction(1, 3), 0, 1, None), (np.float64(0.25), 0, 1, None), (np.int64(1), 0, 1, None),
    (FLOAT_MAX, 0, FLOAT_MAX, None), (POSITIVE, POSITIVE, FLOAT_MAX, None),
    (OPEN_ONE, OPEN_ONE, FLOAT_MAX, None), (-math.inf, -math.inf, math.inf, None),
    (-1e-300, 0, 1, "x must be a finite real in [0, 1], got -1e-300"),
    (np.nextafter(1.0, 2.0), 0, 1, "x must be a finite real in [0, 1], got 1.0000000000000002"),
    (Fraction(4, 3), 0, 1, "x must be a finite real in [0, 1], got 4/3"),
    (0.0, POSITIVE, 1, "x must be a finite real in (0, 1], got 0.0"),
    (-0.0, POSITIVE, FLOAT_MAX, "x must be a finite positive real, got -0.0"),
    (1.0, OPEN_ONE, FLOAT_MAX, "x must be a finite real > 1, got 1.0"),
    (math.inf, 0, FLOAT_MAX, "x must be a finite non-negative real, got inf"),
    (-math.inf, -FLOAT_MAX, FLOAT_MAX, "x must be a finite real, got -inf"),
    (math.nan, -math.inf, math.inf, "x must be a number, got nan"),
    (np.float64(math.nan), 0, 1, "x must be a finite real in [0, 1], got nan"),
    (2 ** 64, 0, 1, "x must be a finite real in [0, 1], got 18446744073709551616"),
    (10 ** 400, 0, FLOAT_MAX, "x must be a finite non-negative real, got <1329-bit integer>"),
    (True, 0, 1, "x must be a finite real in [0, 1], got True"),
    (np.True_, 0, 1, "x must be a finite real in [0, 1], got bool"),
    ("0.5", 0, 1, "x must be a finite real in [0, 1], got str"),
    (None, 0, 1, "x must be a finite real in [0, 1], got NoneType")])
def test_check_real(v, lo, hi, message):
    if message is None:
        assert check_real("x", v, lo, hi) is None
    else:
        with pytest.raises(UsageError) as refusal:
            check_real("x", v, lo, hi)
        assert str(refusal.value) == message


@pytest.mark.parametrize("v, lo, hi, floats, message", [
    (1, 1, 3, False, None), (3, 1, 3, False, None), (np.int64(2), 1, 3, False, None),
    (np.uint64(2 ** 63), 0, 2 ** 64, False, None), (2 ** 64, 0, math.inf, False, None),
    (3.0, 1, 3, True, None), (np.float64(2.0), 1, 3, True, None), (-0.0, 0, 3, True, None),
    (Fraction(6, 2), 1, 3, True, None),
    (0, 1, 3, False, "n must be an integer in [1, 3], got 0"),
    (4, 1, 3, False, "n must be an integer in [1, 3], got 4"),
    (-1, 0, math.inf, False, "n must be a non-negative integer, got -1"),
    (0, 1, math.inf, False, "n must be an integer >= 1, got 0"),
    (2.0, 1, 3, False, "n must be an integer in [1, 3], got 2.0"),
    (3.5, 1, 9, True, "n must be an integer in [1, 9], got 3.5"),
    (Fraction(7, 2), 1, 9, True, "n must be an integer in [1, 9], got 7/2"),
    (math.inf, 1, math.inf, True, "n must be an integer >= 1, got inf"),
    (np.float64(math.inf), 1, math.inf, True, "n must be an integer >= 1, got inf"),
    (math.nan, -math.inf, math.inf, True, "n must be an integer, got nan"),
    (2 ** 64, 1, INT64_MAX, False,
     "n must be an integer in [1, 9223372036854775807], got 18446744073709551616"),
    (10 ** 400, 1, INT64_MAX, True,
     "n must be an integer in [1, 9223372036854775807], got <1329-bit integer>"),
    (True, 0, 3, False, "n must be an integer in [0, 3], got True"),
    (np.True_, 1, INT64_MAX, True, "n must be an integer in [1, 9223372036854775807], got True"),
    ("3", 1, 3, True, "n must be an integer in [1, 3], got str")])
def test_check_int(v, lo, hi, floats, message):
    if message is None:
        got = check_int("n", v, lo, hi, floats=floats)
        assert got == v and type(got) is int
    else:
        with pytest.raises(UsageError) as refusal:
            check_int("n", v, lo, hi, floats=floats)
        assert str(refusal.value) == message


def test_check_int_takes_an_array_of_integral_floats_as_a_whole():
    assert check_int("d", np.arange(1.0, 5.0), 1, 4, floats=True).tolist() == [1, 2, 3, 4]
    assert check_int("d", [3, 4], 1, INT64_MAX, floats=True).tolist() == [3, 4]
    for bad, got in (([3, 0.5], "0.5"), ([math.nan, 3], "nan"), (np.array([2 ** 63], np.uint64),
                     "9223372036854775808"), ([4, 5], "5")):
        with pytest.raises(UsageError, match=rf"^d must be an integer in \[1, 4\], got {got}$"):
            check_int("d", bad, 1, 4, floats=True)
    for bad in ([4, 10 ** 400], np.array([True, False]), ["3"]):
        with pytest.raises(UsageError, match="^d must be integers, got an array of"):
            check_int("d", bad, 1, 4, floats=True)
    with pytest.raises(UsageError, match="got list"):
        check_int("n", [3], 1, 4)  # only with floats is an array a value


def test_a_numpy_bool_degree_is_a_usage_error():
    # check_degree compared np.True_ with 1 << 63 and raised a bare OverflowError
    with pytest.raises(UsageError, match="degree must be an integer in"):
        uniqueness_check(SpinParams(0.5, 0.5), np.True_)
