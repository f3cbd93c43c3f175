"""Numerical verification layer: rate bounds, gadget expectations, audits.

Contents:
  * the binary entropy function and the growth-rate machinery for profile
    sums over random matching gadgets (an exact asymptotic rate, plus a
    c-parameterized upper bound whose grid maximum stays below 1.21),
  * the exact expectation of profile sums over the matching-union gadget
    distribution, with a Monte Carlo cross-check,
  * an edge-expansion audit of sampled gadgets,
  * a stochastic-domination coupling simulation for the matching indicator
    process (independent lower bounds X, coupled without-replacement Z),
  * small closed-form evaluations used by reports.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ResourceLimitError, UsageError
from .graphs import BipartiteGadget, MultiGraph
from .logspace import LOG_ZERO, log_binomial, log_sum_exp, scaled_log
from .spins import SpinParams, _integral_fraction, log_profile_sum
from .uniqueness import HARD_DEGREE_RATIO

DEFAULT_RATE_C = 8000.0
DEFAULT_BIGNESS = 1e-4            # "big subset" threshold as a side fraction
DEFAULT_MINORITY = 9e-5           # smallest profile fraction in the rate scan
DEFAULT_EXPANSION_FACTOR = 0.25   # required fraction of the expected crossing count
RATE_BOUND_CEILING = 1.21         # verified grid maximum of the rate bound
MAX_SCAN_SIDE = 4096              # rate-bound grid points per axis (16.8M cells)
MAX_AUDIT_SIDE = 20               # exhaustive expander audit: 2^20 left sets
AUDIT_BLOCK = 1 << 14             # big left sets per block of that audit
MAX_MATCHING_TUPLES = 200_000     # gadgets averaged by enumerate_profile_sum_mean_log
MAX_MC_SIDE = 8                   # gadget side of expected_profile_sum_mc


def entropy(x: float) -> float:
    """Binary entropy -x ln x - (1-x) ln(1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise UsageError(f"entropy argument must lie in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log1p(-x)


def _w_entropy(w, num):
    """w * H(num / w) elementwise, with the 0 * H(0/0) = 0 convention.

    Ratios are clipped into [0, 1]; callers guarantee they only stray by
    floating-point noise.
    """
    w, num = np.broadcast_arrays(np.asarray(w, float), np.asarray(num, float))
    out = np.zeros(w.shape, dtype=float)
    pos = w > 0
    x = np.zeros_like(out)
    np.divide(num, w, out=x, where=pos)
    x = np.clip(x, 0.0, 1.0)
    inner = pos & (x > 0) & (x < 1)
    xi = x[inner]
    out[inner] = w[inner] * (-xi * np.log(xi) - (1 - xi) * np.log1p(-xi))
    return out


def _max_bracket(a, b, lam):
    """Maximum over k in [max(0, a+b-1), min(a, b)] of the concave bracket

        k lam + b H(k/b) + (1-b) H((a-k)/(1-b)) - H(a),

    elementwise over broadcast arrays a, b.  The stationary point solves
    A k^2 + B k + C = 0 with A = 1-r, B = -(a+b+r(1-a-b)), C = ab and
    r = e^-lam, here scaled by min(1, e^lam) so no coefficient overflows.
    Its roots are C/q and q/A with q = -(B + sign(B) sqrt(B^2 - 4AC))/2,
    free of cancellation (at r = 1 only C/q = ab is finite).  One root lies
    in the interval, so clipping both to it and keeping the larger bracket
    value gives the maximum, also on a zero-width interval.
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    u, v = math.exp(min(lam, 0.0)), math.exp(min(-lam, 0.0))  # v / u = r
    qa, qb, qc = u - v, -(u * (a + b) + v * (1.0 - a - b)), u * a * b
    disc = np.maximum(qb * qb - 4.0 * qa * qc, 0.0)
    q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
    with np.errstate(divide="ignore", invalid="ignore"):
        ks = [np.clip(root, np.maximum(0.0, a + b - 1.0), np.minimum(a, b))
              for root in (qc / q, q / qa)]
    vals = [k * lam + _w_entropy(b, k) + _w_entropy(1.0 - b, a - k) for k in ks]
    # fmax drops a NaN root, which only an underflowed u (q = 0) produces
    return np.fmax(*vals) - _w_entropy(1.0, a)


def _check_fraction(x: float, name: str):
    if not 0.0 <= x <= 1.0:
        raise UsageError(f"{name} must lie in [0, 1], got {x}")


def _rate_bound_values(a, b, c: float):
    """rate_bound elementwise over broadcast arrays a, b in [0, 1]."""
    if c <= 1:
        raise UsageError("c must exceed 1")
    cm1 = c - 1.0
    return (1.0 / cm1 + (1.0 - a - b) * c / cm1 + _w_entropy(1.0, a)
            + _w_entropy(1.0, b) + cm1 * _max_bracket(a, b, -1.0))


def rate_bound(a: float, b: float, c: float = DEFAULT_RATE_C) -> float:
    """Degree-free upper bound on the exponential rate of expected profile sums.

    max over k in [max(0, a+b-1), min(a, b)] of

        1/(c-1) + (1-a-b) c/(c-1) + H(a) + H(b)
        + (c-1) (-k + b H(k/b) + (1-b) H((a-k)/(1-b)) - H(a)).

    The bracket is concave in k and its maximizer is the root of a
    quadratic, so the maximum is evaluated in closed form (_max_bracket).
    """
    _check_fraction(a, "a")
    _check_fraction(b, "b")
    return float(_rate_bound_values(a, b, c))


def exact_rate(a: float, b: float, delta: int, delta_prime: int,
               beta: float, gamma: float) -> float:
    """Exact exponential rate of the expected profile sum, per side vertex.

    max over k of

        delta_prime ln(gamma) + (1-a-b)(delta+delta_prime) ln(gamma)
        + H(a) + H(b)
        + delta (k ln(beta gamma) + b H(k/b) + (1-b) H((a-k)/(1-b)) - H(a)).
    """
    _check_fraction(a, "a")
    _check_fraction(b, "b")
    if beta <= 0 or gamma <= 0:
        raise UsageError("exact rate needs beta, gamma > 0")
    if delta < 0 or delta_prime < 0:
        raise UsageError("degrees must be nonnegative")
    lg = math.log(gamma)
    outer = (delta_prime * lg + (1.0 - a - b) * (delta + delta_prime) * lg
             + entropy(a) + entropy(b))
    return outer + delta * float(_max_bracket(a, b, math.log(beta) + lg))


@dataclass(frozen=True)
class RateBoundScan:
    """Grid maximum of rate_bound over min(a, b) >= min_fraction.

    coarse_max is the maximum over the grid cells alone; max_value includes
    the local refinement and is never below it.
    """

    max_value: float
    arg_a: float
    arg_b: float
    coarse_max: float
    grid_step: float
    min_fraction: float
    c: float


def _scan_grid(min_fraction: float, step: float) -> np.ndarray:
    """Steps from min_fraction, clipped, closed at 1; at most MAX_SCAN_SIDE."""
    if not 0.0 < min_fraction <= 1.0:
        raise UsageError(f"min_fraction must lie in (0, 1], got {min_fraction}")
    if not 0.0 < step < math.inf:
        raise UsageError(f"step must be positive and finite, got {step}")
    # arange gives at most q + 1 points for q = (1 - min_fraction) / step,
    # and closing the grid at 1 may add one more
    if (1.0 - min_fraction) / step + 2.0 > MAX_SCAN_SIDE:
        raise ResourceLimitError(
            f"step {step} gives more than {MAX_SCAN_SIDE} grid points per axis")
    grid = np.arange(min_fraction, 1.0 + 0.5 * step, step)
    grid = np.clip(grid, min_fraction, 1.0)
    if grid[-1] != 1.0:
        grid = np.append(grid, 1.0)
    return grid


def rate_bound_grid(c: float = DEFAULT_RATE_C,
                    min_fraction: float = DEFAULT_MINORITY,
                    step: float = 1e-3):
    """Yield (a, b, rate_bound(a, b)) rows over the scan grid, row-major."""
    grid = _scan_grid(min_fraction, step)
    for a in grid.tolist():
        yield from zip([a] * len(grid), grid.tolist(),
                       _rate_bound_values(a, grid, c).tolist())


def rate_bound_scan(c: float = DEFAULT_RATE_C,
                    min_fraction: float = DEFAULT_MINORITY,
                    step: float = 1e-3) -> RateBoundScan:
    """Maximize rate_bound over the grid a, b in [min_fraction, 1].

    Every grid cell is evaluated one row at a time.  The best cell of each
    of the 40 best rows is then re-evaluated on an 11 x 11 local grid
    spanning one step either side, clipped to [min_fraction, 1].
    """
    grid = _scan_grid(min_fraction, step)
    row_b, row_max = np.empty_like(grid), np.empty_like(grid)
    for i, a in enumerate(grid):
        vals = _rate_bound_values(a, grid, c)
        j = int(np.argmax(vals))
        row_b[i], row_max[i] = grid[j], vals[j]
    rows = np.argsort(-row_max, kind="stable")[:40]
    offsets = np.linspace(-step, step, 11)
    la = np.clip(grid[rows, None] + offsets, min_fraction, 1.0)[:, :, None]
    lb = np.clip(row_b[rows, None] + offsets, min_fraction, 1.0)[:, None, :]
    local = _rate_bound_values(la, lb, c)
    t, i, j = np.unravel_index(int(np.argmax(local)), local.shape)
    coarse_max = float(row_max[rows[0]])
    if local[t, i, j] > coarse_max:
        best = (float(local[t, i, j]), float(la[t, i, 0]), float(lb[t, 0, j]))
    else:
        best = (coarse_max, float(grid[rows[0]]), float(row_b[rows[0]]))
    return RateBoundScan(*best, coarse_max, step, min_fraction, c)


# ---------------------------------------------------------------------------
# Expected profile sums over the matching-union gadget distribution


def expected_profile_sum_log(n_side: int, delta: int, delta_prime: int,
                             p: SpinParams, a: float, b: float) -> float:
    """log of the expected profile sum over gadgets from H(N, delta).

    Every (a, b)-assignment has the same expectation by symmetry, so

        E = gamma**(delta_prime (2-a-b) N) * C(N, aN) * C(N, bN)
            * ( sum_k beta**kN gamma**((1-a-b+k)N)
                      C(bN, kN) C((1-b)N, (a-k)N) / C(N, aN) )**delta

    with kN ranging over integers in [max(0, (a+b-1)N), min(a, b) N].
    Binomials go through lgamma, so N may be large.
    """
    if p.mu != 1.0:
        raise UsageError("profile sums are defined for mu == 1")
    if n_side < 1 or delta < 1 or delta_prime < 0:
        raise UsageError("need N >= 1, delta >= 1, delta_prime >= 0")
    an = _integral_fraction(a, n_side, "a")
    bn = _integral_fraction(b, n_side, "b")
    terms = []
    for kn in range(max(0, an + bn - n_side), min(an, bn) + 1):
        terms.append(scaled_log(p.beta, kn)
                     + scaled_log(p.gamma, n_side - an - bn + kn)
                     + log_binomial(bn, kn)
                     + log_binomial(n_side - bn, an - kn)
                     - log_binomial(n_side, an))
    inner = log_sum_exp(terms)
    if inner == LOG_ZERO:
        return LOG_ZERO
    return (scaled_log(p.gamma, delta_prime * (2 * n_side - an - bn))
            + log_binomial(n_side, an) + log_binomial(n_side, bn)
            + delta * inner)


def gadget_from_matchings(n_side: int, perms: Sequence[Sequence[int]]) -> BipartiteGadget:
    """Gadget assembled from explicit matchings (left u -> right perm[u])."""
    edges = []
    for perm in perms:
        if sorted(perm) != list(range(n_side)):
            raise UsageError("each matching must be a permutation of 0..N-1")
        edges.extend((u, n_side + int(perm[u])) for u in range(n_side))
    return BipartiteGadget(MultiGraph.from_edges(2 * n_side, edges),
                           tuple(range(n_side)), tuple(range(n_side, 2 * n_side)))


def enumerate_profile_sum_mean_log(n_side: int, delta: int, delta_prime: int,
                                   p: SpinParams, a: float, b: float) -> float:
    """log of the exact gadget-average of the profile sum, by enumerating
    all (N!)**delta matching tuples."""
    count = math.factorial(n_side) ** delta
    if count > MAX_MATCHING_TUPLES:
        raise ResourceLimitError(
            f"{count} matching tuples exceed cap {MAX_MATCHING_TUPLES}")
    perms = list(itertools.permutations(range(n_side)))
    logs = [
        log_profile_sum(gadget_from_matchings(n_side, combo), p, delta_prime,
                        a, b)
        for combo in itertools.product(perms, repeat=delta)
    ]
    return log_sum_exp(logs) - math.log(count)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    trials: int
    seed: int

    def within(self, target: float, sigmas: float = 4.0) -> bool:
        return abs(self.mean - target) <= sigmas * max(self.std_error, 0.0)


def expected_profile_sum_mc(n_side: int, delta: int, delta_prime: int,
                            p: SpinParams, a: float, b: float,
                            trials: int, seed: int) -> MCEstimate:
    """Monte Carlo mean (linear domain) of the profile sum over H(N, delta).

    Deterministic for a given seed.  When (N!)**delta is small the distinct
    matching tuples are precomputed and sampled by index, which is the same
    distribution at a fraction of the cost.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    if n_side > MAX_MC_SIDE:
        raise ResourceLimitError(f"side size {n_side} exceeds cap {MAX_MC_SIDE}")
    rng = np.random.default_rng(seed)
    count = math.factorial(n_side) ** delta
    if count <= 100_000:
        perms = list(itertools.permutations(range(n_side)))
        values = np.array([
            math.exp(log_profile_sum(gadget_from_matchings(n_side, combo), p,
                                     delta_prime, a, b))
            for combo in itertools.product(perms, repeat=delta)])
        sample = values[rng.integers(count, size=trials)]
    else:
        sample = np.empty(trials)
        for t in range(trials):
            combo = [rng.permutation(n_side) for _ in range(delta)]
            sample[t] = math.exp(log_profile_sum(
                gadget_from_matchings(n_side, combo), p, delta_prime, a, b))
    if np.all(sample == sample[0]):  # degenerate draw: exactly zero variance
        return MCEstimate(mean=float(sample[0]), std_error=0.0, trials=trials,
                          seed=seed)
    mean = float(sample.mean())
    se = float(sample.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MCEstimate(mean=mean, std_error=se, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# Edge-expansion audit


@dataclass(frozen=True)
class ExpanderAudit:
    """Worst and mean crossing-edge ratio E(A,B) * N / (delta |A| |B|).

    The audit passes when every big pair (side fraction >= eps) retains at
    least `factor` of its expected crossing count delta |A| |B| / N.
    """

    eps: float
    factor: float
    worst_ratio: float
    mean_ratio: float
    pairs_checked: int
    witness_left: Tuple[int, ...]
    witness_right: Tuple[int, ...]
    mode: str

    @property
    def passed(self) -> bool:
        return self.worst_ratio >= self.factor


def expander_audit(h: BipartiteGadget, *, eps: float = DEFAULT_BIGNESS,
                   factor: float = DEFAULT_EXPANSION_FACTOR,
                   mode: str = "exhaustive", trials: int = 2000,
                   seed: int = 0) -> ExpanderAudit:
    """Audit the crossing-edge counts of a regular bipartite gadget.

    Exhaustive mode covers all big pairs (sizes >= ceil(eps N), N up to
    MAX_AUDIT_SIDE): over |B| = s, a left set A crosses fewest edges into the
    s right vertices of smallest row sum e(A, {j}); ties go to the smallest
    left code, then right code.  Its mean ratio is exactly 1, since each size
    class averages delta |A| |B| / N crossings in a regular gadget.  Sampled
    mode averages `trials` uniform big pairs.
    """
    n = h.side_size
    if mode == "exhaustive" and n > MAX_AUDIT_SIDE:
        raise ResourceLimitError(f"side {n} exceeds exhaustive audit cap {MAX_AUDIT_SIDE}")
    ld, rd = set(h.left_degrees()), set(h.right_degrees())
    if len(ld) != 1 or ld != rd:
        raise UsageError("expansion audit expects a regular bipartite gadget")
    delta = ld.pop()
    if delta == 0:
        raise UsageError("gadget has no edges")
    if not 0 < eps <= 1:
        raise UsageError("eps must lie in (0, 1]")
    s0 = max(1, math.ceil(eps * n - 1e-9))
    left_pos = {v: i for i, v in enumerate(h.left)}
    right_pos = {v: i for i, v in enumerate(h.right)}
    mat = np.zeros((n, n))
    for u, v, m in h.graph.edges:
        if u not in left_pos:
            u, v = v, u
        mat[left_pos[u], right_pos[v]] += m

    worst = math.inf
    if mode == "exhaustive":
        codes = np.flatnonzero(np.bitwise_count(np.arange(1 << n)) >= s0)
        for start in range(0, codes.size, AUDIT_BLOCK):
            block = codes[start:start + AUDIT_BLOCK]
            bits = ((block[:, None] >> np.arange(n)) & 1).astype(float)
            sz, rows = bits.sum(axis=1), bits @ mat
            prefix = np.cumsum(np.sort(rows, axis=1), axis=1)[:, s0 - 1:]
            ratios = prefix * n / (delta * sz[:, None] * np.arange(s0, n + 1))
            i = int(np.argmin(ratios)) // ratios.shape[1]
            if ratios[i].min() < worst:
                worst = float(ratios[i].min())
                order = np.argsort(rows[i], kind="stable")  # low index first
                wb = min(sum(1 << int(j) for j in order[:s0 + k])
                         for k in np.flatnonzero(ratios[i] == worst))
                witness_left = tuple(h.left[j] for j in range(n) if block[i] >> j & 1)
                witness_right = tuple(h.right[j] for j in range(n) if wb >> j & 1)
        mean, pairs = 1.0, codes.size ** 2
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        total, witness_left, witness_right = 0.0, (), ()
        for _ in range(trials):
            sa = int(rng.integers(s0, n + 1))
            sb = int(rng.integers(s0, n + 1))
            ia = rng.choice(n, size=sa, replace=False)
            ib = rng.choice(n, size=sb, replace=False)
            e = float(mat[np.ix_(ia, ib)].sum())
            ratio = e * n / (delta * sa * sb)
            total += ratio
            if ratio < worst:
                worst = ratio
                witness_left = tuple(sorted(h.left[i] for i in ia))
                witness_right = tuple(sorted(h.right[i] for i in ib))
        mean, pairs = total / trials, trials
    else:
        raise UsageError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    return ExpanderAudit(eps=eps, factor=factor, worst_ratio=worst, mean_ratio=mean,
                         pairs_checked=pairs, witness_left=witness_left,
                         witness_right=witness_right, mode=mode)


# ---------------------------------------------------------------------------
# Coupling simulation for the matching indicator process


@dataclass(frozen=True)
class CouplingReport:
    n: int
    b: float
    a: float
    d: int
    trials: int
    seed: int
    sequences: int
    domination_violations: int
    z1_frequency: float
    z1_expected: float
    z1_stderr: float
    chi2_stat: float
    chi2_dof: int
    chi2_pvalue: float
    chi2_alpha: float

    @property
    def z1_within_4_sigma(self) -> bool:
        return abs(self.z1_frequency - self.z1_expected) <= 4.0 * self.z1_stderr

    @property
    def passed(self) -> bool:
        return (self.domination_violations == 0 and self.z1_within_4_sigma
                and self.chi2_pvalue > self.chi2_alpha)


def _sequence_law(n: int, bn: int, length: int) -> np.ndarray:
    """Exact joint law of the first `length` without-replacement indicators.

    Entry `pattern` is the probability that the indicator sequence equals the
    bits of `pattern` (step i in bit i) when bn marked items are hit among n
    sequential draws without replacement.
    """
    probs = np.zeros(1 << length)

    def rec(i, pattern, zsum, prob):
        if i == length:
            probs[pattern] += prob
            return
        t = (bn - zsum) / (n - i)
        if t > 0:
            rec(i + 1, pattern | (1 << i), zsum + 1, prob * t)
        if t < 1:
            rec(i + 1, pattern, zsum, prob * (1 - t))

    rec(0, 0, 0, 1.0)
    return probs


# log Gamma(a) - (a - 1/2) log a + a - log(2 pi)/2 = sum c_i / a^(2i+1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def chi2_sf(stat: float, dof: int) -> float:
    """P[chi^2_dof > stat], the regularized upper incomplete gamma Q(a, x)
    with a = dof/2, x = stat/2.

    Q = front * (series or continued fraction), front = x^a e^-x / Gamma(a).
    For a >= 10 the log of the front is taken as a (log1p(t) - t) with
    t = (x-a)/a, plus the Stirling series of log Gamma(a): its rounding
    error then scales with |x - a|, not with a log x.  x < a + 1 uses the
    series for P = 1 - Q, otherwise Q is a continued fraction evaluated by
    the modified Lentz method.
    """
    a, x = 0.5 * dof, 0.5 * stat
    if x <= 0.0:
        return 1.0
    if a < 10.0:
        log_front = a * math.log(x) - x - math.lgamma(a)
    else:
        t = (x - a) / a
        log_front = (a * (math.log1p(t) - t) + 0.5 * math.log(a / (2.0 * math.pi))
                     - sum(c / a ** (2 * i + 1) for i, c in enumerate(_STIRLING)))
    front = math.exp(log_front)
    eps, tiny = 2.0 ** -53, 1e-300
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * eps:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - front * total
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        step = d * c
        h *= step
        if abs(step - 1.0) <= eps:
            return front * h


def coupling_sim(n: int, b: float, d: int, seed: int, trials: int,
                 a: float = 1.0, chi2_alpha: float = 1e-3) -> CouplingReport:
    """Simulate the domination coupling behind the crossing-count tail bound.

    Per sequence, X_i are independent with P[X_i = 1] = (bn - i + 1)/n
    (clamped at 0), and Z_i is coupled so that Z_i >= X_i pointwise while
    (Z_1, ..., Z_len) follows the exact without-replacement law of matching
    indicators: P[Z_i = 1 | history] = (bn - sum z)/(n - i + 1).  Each trial
    runs d independent sequences of length a*n.  The report counts
    domination violations (structurally zero), compares the first-step
    frequency against b, and chi-squares the empirical joint law against the
    exact one.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if not 0 < b <= 1:
        raise UsageError("b must lie in (0, 1]")
    if d < 1 or trials < 1:
        raise UsageError("d and trials must be >= 1")
    bn = _integral_fraction(b, n, "b")
    if bn < 1:
        raise UsageError("b*n must be >= 1")
    length = _integral_fraction(a, n, "a")
    if length < 1:
        raise UsageError("a*n must be >= 1")
    if length > 20:
        raise ResourceLimitError("sequence length a*n capped at 20 (pattern table)")
    rng = np.random.default_rng(seed)
    total = trials * d
    zsum = np.zeros(total, dtype=np.int64)
    patterns = np.zeros(total, dtype=np.int64)
    violations = 0
    for i in range(length):
        rho = max(0.0, (bn - i) / n)
        x = rng.random(total) < rho
        target = (bn - zsum) / (n - i)
        if np.any(target < -1e-12) or np.any(target > 1 + 1e-12):
            raise RuntimeError("construction invariant violated: target outside [0, 1]")
        if rho >= 1.0:
            w = np.zeros(total)
        else:
            w = (target - rho) / (1.0 - rho)
        if np.any(w < -1e-12) or np.any(w > 1 + 1e-12):
            raise RuntimeError("construction invariant violated: w outside [0, 1]")
        z = np.where(x, True, rng.random(total) < np.clip(w, 0.0, 1.0))
        violations += int(np.count_nonzero(x & ~z))
        zsum += z
        patterns |= z.astype(np.int64) << i

    z1_freq = float(np.mean(patterns & 1))
    z1_expected = bn / n
    z1_stderr = math.sqrt(z1_expected * (1 - z1_expected) / total)
    law = _sequence_law(n, bn, length)
    observed = np.bincount(patterns, minlength=1 << length).astype(float)
    expected = law * total
    support = expected > 0
    if np.any(observed[~support] > 0):
        raise RuntimeError("observed a pattern the exact law forbids")
    stat = float(np.sum((observed[support] - expected[support]) ** 2
                        / expected[support]))
    dof = int(np.count_nonzero(support)) - 1
    pvalue = chi2_sf(stat, dof) if dof > 0 else 1.0
    return CouplingReport(
        n=n, b=b, a=a, d=d, trials=trials, seed=seed, sequences=total,
        domination_violations=violations, z1_frequency=z1_freq,
        z1_expected=z1_expected, z1_stderr=z1_stderr, chi2_stat=stat,
        chi2_dof=dof, chi2_pvalue=pvalue, chi2_alpha=chi2_alpha)


# ---------------------------------------------------------------------------
# Closed-form report values


def polarized_branch_rate_bound(degree_ratio: int = HARD_DEGREE_RATIO) -> float:
    """Growth-rate floor of the dominant polarized branch of a gadget sum.

    With a fraction e/(1+e) of boundary vertices seeing all-ones partners,
    per-vertex factors of at least 1 + e (occupied) and e**((r-1)/r)
    (remaining) give the floor

        e/(1+e) * ln(1+e) + 1/(1+e) * (r-1)/r       (~ 1.22899 at r = 8000),

    which dominates the 1.22 ceiling of the conditioned tail.  Reported by
    demos; not an acceptance target.
    """
    q = math.e / (1.0 + math.e)
    return q * math.log1p(math.e) + (1.0 - q) * (degree_ratio - 1.0) / degree_ratio

