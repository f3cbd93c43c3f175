"""Log-domain arithmetic for partition sums.

All weights are carried as natural logarithms, with -inf standing for an
exact zero.  Products become sums (-inf absorbs), and sums of weights are
accumulated with max-shifted log-sum-exp so that quantities like
beta**(delta * m**2) never underflow a linear float.  None of the helpers
here produce NaN on valid log-weights (any float in [-inf, +large)).
"""

import math

import numpy as np

LOG_ZERO = float("-inf")


def scaled_log(base: float, exponent: float) -> float:
    """log(base**exponent) with the 0**0 = 1 convention.

    A zero exponent always yields 0.0, even for base 0; a positive exponent
    on base 0 yields -inf.
    """
    if exponent == 0:
        return 0.0
    if base == 0.0:
        return LOG_ZERO
    return exponent * math.log(base)


def log_add(la, lb):
    """log(exp(la) + exp(lb)), elementwise on arrays; -inf on either side is
    absorbed, so two -inf give -inf."""
    return np.logaddexp(la, lb)


def log_sum_exp(values) -> float:
    """Max-shifted log-sum-exp of a sequence/array of log-weights.

    Empty input and all -inf input both return -inf (an empty sum is zero).
    """
    return log_sum_exp_inplace(np.array(values, dtype=float))


def log_sum_exp_inplace(arr: np.ndarray) -> float:
    """log_sum_exp of a float array, using the array itself as scratch space
    (its contents are overwritten), so that no temporary is allocated."""
    if arr.size == 0:
        return LOG_ZERO
    hi = float(np.max(arr))
    if hi == LOG_ZERO:
        return LOG_ZERO
    arr -= hi
    np.exp(arr, out=arr)
    return hi + math.log(float(np.sum(arr)))


def log_sum_exp_by_bucket(values: np.ndarray, buckets: np.ndarray, size: int,
                          shifts: np.ndarray) -> np.ndarray:
    """Per-bucket log_sum_exp: entry j combines the values whose bucket is j,
    and is -inf where there are none.

    `values` (floats, overwritten), `buckets` (ints in [0, size)) and
    `shifts` (floats, scratch space) are contiguous arrays of one shape.
    Each bucket is shifted by its own maximum, never the overall one, so a
    bucket far below the others keeps its precision.
    """
    values, buckets, shifts = values.ravel(), buckets.ravel(), shifts.ravel()
    top = np.full(size, LOG_ZERO)
    np.maximum.at(top, buckets, values)
    top[top == LOG_ZERO] = 0.0  # empty and all-zero buckets sum to 0
    np.take(top, buckets, out=shifts, mode="clip")  # "raise" would buffer
    values -= shifts
    np.exp(values, out=values)
    sums = np.bincount(buckets, weights=values, minlength=size)
    with np.errstate(divide="ignore"):  # log 0 = -inf: a bucket summing to 0
        return np.log(sums) + top


def pairwise_add(tree, start, value):
    """Add part `start`, the next in order, to `tree`, a list of (start,
    size, log-sum) nodes in part order, and merge sibling nodes as soon as
    both are there.

    This merges partial log-sums (floats, or equal-shape arrays combined
    elementwise) by a fixed pairwise tree, the one that pairs parts level
    by level; its shape depends only on the number of parts.  A node that
    starts at a multiple of twice its size is a left child; the others
    merge with the node of their size just before them, so the tree keeps
    at most one node per level.
    """
    size = 1
    while tree and start % (2 * size) == size and tree[-1][1] == size:
        start, _, left = tree.pop()
        size, value = 2 * size, log_add(left, value)
    tree.append((start, size, value))


def pairwise_root(tree):
    """The log-sum of a tree's nodes; nodes left without a sibling merge
    from the right, as pairing level by level carries an odd part up."""
    if not tree:
        return LOG_ZERO
    value = tree[-1][2]
    for _, _, left in reversed(tree[:-1]):
        value = log_add(left, value)
    return value


def log_binomial(n: int, k: int) -> float:
    """log of C(n, k) via lgamma; -inf outside 0 <= k <= n."""
    if k < 0 or k > n:
        return LOG_ZERO
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
