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


def log_add(la: float, lb: float) -> float:
    """log(exp(la) + exp(lb)), safe when either side is -inf."""
    if la == LOG_ZERO:
        return lb
    if lb == LOG_ZERO:
        return la
    hi, lo = (la, lb) if la >= lb else (lb, la)
    return hi + math.log1p(math.exp(lo - hi))


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


def log_sum_exp_pairwise(parts) -> float:
    """Combine partial log-sums by a fixed pairwise tree.

    Used to merge per-chunk results of a split enumeration: the tree shape
    depends only on the list length, so the result is independent of which
    worker produced which part.
    """
    parts = list(parts)
    if not parts:
        return LOG_ZERO
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            nxt.append(log_add(parts[i], parts[i + 1]))
        if len(parts) % 2 == 1:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def log_binomial(n: int, k: int) -> float:
    """log of C(n, k) via lgamma; -inf outside 0 <= k <= n."""
    if k < 0 or k > n:
        return LOG_ZERO
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
