"""Oracles the benchmark checks twospin's outputs against.

None of these call twospin: partition sums come from transfer matrices,
fixed points from a plain scalar bisection, optima from a loop over
assignments, crossing counts from the gadget's edge records.
"""

import math
from itertools import product

import numpy as np


def log_rel_gap(value: float, reference: float) -> float:
    """|value - reference| / max(1, |reference|), the log-domain tolerance."""
    if value == reference:
        return 0.0
    return abs(value - reference) / max(1.0, abs(reference))


def _edge_weight(beta: float, gamma: float, s: int, t: int) -> float:
    if s == t:
        return beta if s == 0 else gamma
    return 1.0


def _log_matrix_power_trace(t: np.ndarray, n: int) -> float:
    m = np.eye(t.shape[0])
    log_scale = 0.0
    for _ in range(n):
        m = m @ t
        scale = float(np.abs(m).max())
        m /= scale
        log_scale += math.log(scale)
    return math.log(float(np.trace(m))) + log_scale


def log_circulant_partition(n: int, offsets, beta: float, gamma: float,
                            mu: float) -> float:
    """log Z of the circulant graph C_n(offsets) by a cyclic transfer matrix.

    The state is a window of k = max(offsets) consecutive spins; each step
    adds spin s_{i+k} with its field factor and its edges back to
    s_{i+k-d}.  Z is the trace of the n-th power.  Needs distinct offsets
    below n/2, so that every edge is a distinct pair.
    """
    k = max(offsets)
    if len(set(offsets)) != len(offsets) or 2 * k >= n:
        raise ValueError("offsets must be distinct and below n/2")
    size = 1 << k
    t = np.zeros((size, size))
    for w in range(size):
        for x in (0, 1):
            weight = mu if x == 0 else 1.0
            for d in offsets:
                weight *= _edge_weight(beta, gamma, (w >> (k - d)) & 1, x)
            t[w, (w >> 1) | (x << (k - 1))] += weight
    return _log_matrix_power_trace(t, n)


def log_grid_partition(rows: int, cols: int, beta: float, gamma: float,
                       mu: float) -> float:
    """log Z of the rows x cols grid by a column-to-column transfer matrix."""
    cols_bits = [tuple((s >> r) & 1 for r in range(rows)) for s in range(1 << rows)]
    column = np.array([
        mu ** b.count(0) * math.prod(_edge_weight(beta, gamma, b[r], b[r + 1])
                                     for r in range(rows - 1))
        for b in cols_bits])
    across = np.array([[math.prod(_edge_weight(beta, gamma, a[r], b[r])
                                  for r in range(rows))
                        for b in cols_bits] for a in cols_bits])
    v = column.copy()
    log_scale = 0.0
    for _ in range(cols - 1):
        v = (v @ across) * column
        scale = float(v.max())
        v /= scale
        log_scale += math.log(scale)
    return math.log(float(v.sum())) + log_scale


def derivative_magnitude(beta: float, gamma: float, mu: float, d: int) -> float:
    """|f'| at the fixed point of f(x) = mu ((beta x + 1) / (x + gamma))**d.

    Bisects g(y) = log f(e^y) - y, which decreases when beta * gamma < 1,
    on y in [-700, 700]; then |f'(x)| = d (1 - beta gamma) x / ((beta x + 1)(x + gamma)).
    """
    lmu = math.log(mu)

    def g(y):
        x = math.exp(y)
        return lmu + d * (math.log1p(beta * x) - math.log(x + gamma)) - y

    lo, hi = -700.0, 700.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    x = math.exp(0.5 * (lo + hi))
    return d * (1.0 - beta * gamma) * x / ((beta * x + 1.0) * (x + gamma))


def best_satisfied(num_vars: int, equations) -> int:
    """Largest number of equations x_i + x_j = b any assignment satisfies."""
    best = 0
    for bits in product((0, 1), repeat=num_vars):
        best = max(best, sum(1 for i, j, b in equations if bits[i] ^ bits[j] == b))
    return best


def satisfied(equations, bits) -> int:
    return sum(1 for i, j, b in equations if bits[i] ^ bits[j] == b)


def crossing_ratio(edges, left, right, delta: int, side: int) -> float:
    """E(A, B) * N / (delta |A| |B|) from the edge records of a gadget."""
    a, b = set(left), set(right)
    crossings = sum(m for u, v, m in edges
                    if (u in a and v in b) or (v in a and u in b))
    return crossings * side / (delta * len(a) * len(b))


def big_subset_pairs(side: int, eps: float) -> int:
    """Number of (A, B) pairs with both sizes at least ceil(eps * side)."""
    s0 = max(1, math.ceil(eps * side - 1e-9))
    count = sum(math.comb(side, s) for s in range(s0, side + 1))
    return count * count
