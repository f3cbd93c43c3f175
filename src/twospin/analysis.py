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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .errors import (FLOAT_MAX, INT64_MAX, POSITIVE, ResourceLimitError, UsageError,
                     check_int, check_real, shown)
from .graphs import BipartiteGadget
from .logspace import LOG_ZERO, log_binomial, log_sum_exp, scaled_log
from .spins import SpinParams, _integral_fraction, log_profile_sums
from .uniqueness import HARD_DEGREE_RATIO

DEFAULT_RATE_C = 8000.0
DEFAULT_BIGNESS = 1e-4            # "big subset" threshold as a side fraction
DEFAULT_MINORITY = 9e-5           # smallest profile fraction in the rate scan
DEFAULT_EXPANSION_FACTOR = 0.25   # required fraction of the expected crossing count
RATE_BOUND_CEILING = 1.21         # verified grid maximum of the rate bound
MAX_SCAN_SIDE = 4096              # rate-bound grid points per axis (16.8M cells)
RATE_BLOCK_CELLS = 2 ** 13        # rate-bound grid cells evaluated per block of rows
MAX_AUDIT_SIDE = 20               # exhaustive expander audit: 2^20 left sets
AUDIT_BLOCK = 1 << 14             # big left sets per block of that audit
MAX_MC_SIDE = 8                   # gadget side of the enumerated mean and the MC
MAX_MC_TRIALS = 10 ** 6           # MC trials: about 50 bytes each, 85 MB at the cap
MAX_MC_WORK = 1 << 21             # gadgets computed * 4^N: 24-28 s and 110 MB at most
MAX_SEQUENCE_LENGTH = 20          # coupling sequence length a*n (2^20-entry pattern table)
MAX_COUPLING_SEQUENCES = 1 << 22  # coupling trials * d: about 3 s and 140 MB at the cap
MAX_CHI2_DOF = 1 << 32            # chi2_sf's dof: about 35 ms at the cap, at stat = dof
MAX_FORMULA_SIDE = 1 << 16        # expected_profile_sum_log's N: one term per k, 0.1 s at the cap


def entropy(x: float) -> float:
    """Binary entropy -x ln x - (1-x) ln(1-x), with H(0) = H(1) = 0."""
    check_real("x", x, 0, 1)
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


def _rate_bound_values(a, b, c: float):
    """rate_bound elementwise over broadcast arrays a, b in [0, 1]."""
    check_real("c", c, math.nextafter(1.0, 2.0), FLOAT_MAX)
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
    check_real("a", a, 0, 1)
    check_real("b", b, 0, 1)
    return float(_rate_bound_values(a, b, c))


def exact_rate(a: float, b: float, delta: int, delta_prime: int,
               beta: float, gamma: float) -> float:
    """Exact exponential rate of the expected profile sum, per side vertex.

    max over k of

        delta_prime ln(gamma) + (1-a-b)(delta+delta_prime) ln(gamma)
        + H(a) + H(b)
        + delta (k ln(beta gamma) + b H(k/b) + (1-b) H((a-k)/(1-b)) - H(a)).
    """
    check_real("a", a, 0, 1)
    check_real("b", b, 0, 1)
    check_int("delta", delta, 0, INT64_MAX, floats=True)
    check_int("delta_prime", delta_prime, 0, INT64_MAX, floats=True)
    check_real("beta", beta, POSITIVE, FLOAT_MAX)
    check_real("gamma", gamma, POSITIVE, FLOAT_MAX)
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
    check_real("min_fraction", min_fraction, POSITIVE, 1)
    check_real("step", step, POSITIVE, FLOAT_MAX)
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


def _rate_bound_blocks(grid: np.ndarray, c: float):
    """Yield (first row, values) per block of whole rows of at most RATE_BLOCK_CELLS cells."""
    rows = max(1, RATE_BLOCK_CELLS // len(grid))
    for lo in range(0, len(grid), rows):
        yield lo, _rate_bound_values(grid[lo:lo + rows, None], grid, c)


def rate_bound_grid(c: float = DEFAULT_RATE_C,
                    min_fraction: float = DEFAULT_MINORITY,
                    step: float = 1e-3):
    """Yield (a, b, rate_bound(a, b)) rows over the scan grid, row-major."""
    grid = _scan_grid(min_fraction, step)
    bs = grid.tolist()
    for lo, vals in _rate_bound_blocks(grid, c):
        for a, row in zip(grid[lo:lo + len(vals)].tolist(), vals.tolist()):
            yield from zip([a] * len(bs), bs, row)


def rate_bound_scan(c: float = DEFAULT_RATE_C,
                    min_fraction: float = DEFAULT_MINORITY,
                    step: float = 1e-3) -> RateBoundScan:
    """Maximize rate_bound over the grid a, b in [min_fraction, 1].

    Every grid cell is evaluated, in blocks of whole rows of at most
    RATE_BLOCK_CELLS cells, so memory does not grow with the grid side.  The
    best cell of each of the 40 best rows is then re-evaluated on an 11 x 11
    local grid spanning one step either side, clipped to [min_fraction, 1].
    """
    grid = _scan_grid(min_fraction, step)
    row_b, row_max = np.empty_like(grid), np.empty_like(grid)
    for lo, vals in _rate_bound_blocks(grid, c):
        j = np.argmax(vals, axis=1)  # the first maximum of each row
        row_b[lo:lo + len(j)] = grid[j]
        row_max[lo:lo + len(j)] = vals[np.arange(len(j)), j]
    rows = np.argsort(-row_max, kind="stable")[:40]
    offsets = 2 * np.linspace(-step / 2, step / 2, 11)  # exact; 2 * step may overflow
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
    Binomials go through lgamma; a term per k is why N has a cap, MAX_FORMULA_SIDE.
    """
    if p.mu != 1.0:
        raise UsageError("profile sums are defined for mu == 1")
    if check_int("n_side", n_side, 1, math.inf) > MAX_FORMULA_SIDE:
        raise ResourceLimitError(f"side size {shown(n_side)} exceeds cap {MAX_FORMULA_SIDE}")
    check_int("delta", delta, 1, INT64_MAX, floats=True)
    check_int("delta_prime", delta_prime, 0, INT64_MAX, floats=True)
    an, bn = _integral_fraction(a, n_side, "a"), _integral_fraction(b, n_side, "b")
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


def _tuple_count(n_side: int, delta: int, gadgets: int) -> int:
    """(N!)**delta, the matching tuples of H(N, delta), once their indices fit
    int64 and numpy's 64 axes (delta is tested first, so no huge power is
    formed) and min(gadgets, (N!)**delta) times 4^N fits MAX_MC_WORK."""
    n_side, delta = check_int("n_side", n_side, 1, math.inf), check_int("delta", delta, 1, math.inf)
    if n_side > MAX_MC_SIDE:
        raise ResourceLimitError(f"side size {n_side} exceeds cap {MAX_MC_SIDE}")
    if delta > 62 or (count := math.factorial(n_side) ** delta) >= 1 << 63:
        raise ResourceLimitError(f"(N!)**delta matching tuples of side {n_side} pass int64")
    if (gadgets := min(gadgets, count)) * 4 ** n_side > MAX_MC_WORK:
        raise ResourceLimitError(f"{gadgets} gadgets of 4^{n_side} configurations "
                                 f"exceed cap {MAX_MC_WORK}")
    return count


def _profile_tables(n_side: int, delta: int, delta_prime: int, p: SpinParams, indices):
    """log_profile_sums of the matching tuples at `indices` into all (N!)**delta,
    in C order over their delta matchings, each ranked lexicographically."""
    orders = np.zeros((1, 0), dtype=np.int64)  # lexicographic orders of range(k):
    for k in range(1, n_side + 1):  # each i, then those of range(k - 1) skipping i
        orders = np.vstack([np.insert(orders + (orders >= i), 0, i, axis=1) for i in range(k)])
    ranks = np.unravel_index(indices, (len(orders),) * delta)
    return (log_profile_sums(BipartiteGadget.from_matchings(orders[list(r)]), p, delta_prime)
            for r in zip(*ranks))


def enumerate_profile_sums_mean_log(n_side: int, delta: int, delta_prime: int,
                                    p: SpinParams) -> np.ndarray:
    """log of the exact gadget-average of every profile sum, by enumerating
    all (N!)**delta matching tuples: entry [an, bn] averages entry [an, bn]
    of log_profile_sums."""
    count = _tuple_count(n_side, delta, math.inf)
    logs = np.array(list(_profile_tables(n_side, delta, delta_prime, p, np.arange(count))))
    return np.array([log_sum_exp(column) for column in logs.reshape(count, -1).T]
                    ).reshape(n_side + 1, n_side + 1) - math.log(count)


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

    Deterministic for a given seed: the trials draw matching-tuple indices,
    and each distinct one drawn is computed once.
    """
    if check_int("trials", trials, 1, math.inf) > MAX_MC_TRIALS:
        raise ResourceLimitError(f"{shown(trials)} trials exceed cap {MAX_MC_TRIALS}")
    count = _tuple_count(n_side, delta, trials)
    an, bn = _integral_fraction(a, n_side, "a"), _integral_fraction(b, n_side, "b")
    rng = np.random.default_rng(seed if isinstance(seed, np.random.SeedSequence)
                                else check_int("seed", seed, 0, math.inf))
    drawn, inverse = np.unique(rng.integers(count, size=trials), return_inverse=True)
    tables = _profile_tables(n_side, delta, delta_prime, p, drawn)
    sample = np.array([math.exp(t[an, bn]) for t in tables])[inverse]
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

    @property
    def passed(self) -> bool:
        return self.worst_ratio >= self.factor


def check_audit_side(n: int) -> None:
    """Refuse an audit of a side above MAX_AUDIT_SIDE."""
    if n > MAX_AUDIT_SIDE:
        raise ResourceLimitError(f"side {shown(n)} exceeds exhaustive audit cap {MAX_AUDIT_SIDE}")


def expander_audit(h: BipartiteGadget, *, eps: float = DEFAULT_BIGNESS,
                   factor: float = DEFAULT_EXPANSION_FACTOR,
                   mode: str = "exhaustive") -> ExpanderAudit:
    """Audit the crossing-edge counts of a regular bipartite gadget.

    Covers all big pairs (sizes >= ceil(eps N), N up to MAX_AUDIT_SIDE):
    over |B| = s, a left set A crosses fewest edges into the s right
    vertices of smallest row sum e(A, {j}); ties go to the smallest left
    code, then right code.  The mean ratio is exactly 1, since each size
    class averages delta |A| |B| / N crossings in a regular gadget.  `mode`
    accepts only "exhaustive": a minimum over sampled pairs is at least the
    true worst ratio, so it could pass a gadget that fails.
    """
    if mode != "exhaustive":
        raise UsageError(f"mode must be 'exhaustive', got {mode!r}")
    check_real("eps", eps, POSITIVE, 1)
    check_real("factor", factor, -FLOAT_MAX, FLOAT_MAX)
    n = h.side_size
    check_audit_side(n)
    # the crossing counts, by the positions of the ends in h.left and h.right
    pos = np.empty(2 * n, dtype=np.int64)
    pos[list(h.left + h.right)] = np.arange(2 * n)
    u, v, m = h.graph.edge_columns
    mat = np.zeros((n, n))
    mat[np.minimum(pos[u], pos[v]), np.maximum(pos[u], pos[v]) - n] = m  # once per pair
    ld = set(mat.sum(axis=1).astype(np.int64).tolist())
    rd = set(mat.sum(axis=0).astype(np.int64).tolist())
    if len(ld) != 1 or ld != rd:
        raise UsageError("expansion audit expects a regular bipartite gadget")
    delta = ld.pop()
    if delta == 0:
        raise UsageError("gadget has no edges")
    s0 = max(1, math.ceil(eps * n - 1e-9))

    worst = math.inf
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
    return ExpanderAudit(eps=eps, factor=factor, worst_ratio=worst, mean_ratio=1.0,
                         pairs_checked=codes.size ** 2, witness_left=witness_left,
                         witness_right=witness_right)


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
    sequential draws without replacement.  They are exchangeable: k hits have
    probability (bn)_k (n-bn)_(length-k) / (n)_length, exact, rounded once.
    """
    law = [float(Fraction(math.perm(bn, k) * math.perm(n - bn, length - k),
                          math.perm(n, length))) for k in range(length + 1)]
    return np.array(law)[np.bitwise_count(np.arange(1 << length))]


# log Gamma(a) - (a - 1/2) log a + a - log(2 pi)/2 = sum c_i / a^(2i+1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def chi2_sf(stat: float, dof: int) -> float:
    """P[chi^2_dof > stat], the regularized upper incomplete gamma Q(a, x)
    with a = dof/2, x = stat/2.

    Q = front * (series or continued fraction), front = x^a e^-x / Gamma(a).
    For a >= 10 the log of the front is taken as a (log1p(t) - t) with
    t = (x-a)/a, plus the Stirling series of log Gamma(a): its rounding
    error then scales with |x - a|, not with a log x; log(x/a) stands in for
    log1p(t) where x/a is so small that t rounds to -1.  x < a + 1 uses the
    series for P = 1 - Q, otherwise Q is a continued fraction evaluated by
    the modified Lentz method.  Either takes about sqrt(a) steps near
    x = a, so a dof past MAX_CHI2_DOF raises ResourceLimitError.  A NaN
    stat, or a dof that is not an integer >= 1, raises UsageError; stat =
    +inf gives 0.
    """
    if check_int("dof", dof, 1, math.inf) > MAX_CHI2_DOF:
        raise ResourceLimitError(f"dof {shown(dof)} exceeds cap {MAX_CHI2_DOF}")
    check_real("stat", stat, -math.inf, math.inf)
    if stat <= 0:
        return 1.0
    if stat > FLOAT_MAX:  # an infinity, or an int past the doubles
        return 0.0
    a, x = 0.5 * dof, 0.5 * stat
    if a < 10.0:
        log_front = a * math.log(x) - x - math.lgamma(a)
    else:
        t = (x - a) / a
        log1p_t = math.log1p(t) if t > -1.0 else math.log(x / a)
        log_front = (a * (log1p_t - t) + 0.5 * math.log(a / (2.0 * math.pi))
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
    n, d = check_int("n", n, 1, INT64_MAX), check_int("d", d, 1, math.inf)
    trials = check_int("trials", trials, 1, math.inf)
    check_real("chi2_alpha", chi2_alpha, -FLOAT_MAX, FLOAT_MAX)
    if trials * d > MAX_COUPLING_SEQUENCES:
        raise ResourceLimitError(
            f"trials * d = {shown(trials * d)} sequences exceed cap {MAX_COUPLING_SEQUENCES}")
    bn = _integral_fraction(b, n, "b")
    if bn < 1:
        raise UsageError("b*n must be >= 1")
    length = _integral_fraction(a, n, "a")
    if length < 1:
        raise UsageError("a*n must be >= 1")
    if length > MAX_SEQUENCE_LENGTH:
        raise ResourceLimitError(
            f"sequence length a*n capped at {MAX_SEQUENCE_LENGTH} (pattern table)")
    rng = np.random.default_rng(seed if isinstance(seed, np.random.SeedSequence)
                                else check_int("seed", seed, 0, math.inf))
    total = trials * d
    zsum = np.zeros(total, dtype=np.int8)  # hits so far: MAX_SEQUENCE_LENGTH at most
    patterns = np.zeros(total, dtype=np.int32)  # one bit per step
    violations = 0
    for i in range(length):
        rho = max(0.0, (bn - i) / n)
        x = rng.random(total) < rho
        # the coupling's law depends only on the hit count 0..i: one table
        # entry per count, checked on the counts that occur
        occurs = np.bincount(zsum, minlength=i + 1) > 0
        target = (bn - np.arange(i + 1)) / (n - i)
        if np.any(target[occurs] < -1e-12) or np.any(target[occurs] > 1 + 1e-12):
            raise RuntimeError("construction invariant violated: target outside [0, 1]")
        if rho >= 1.0:
            w = np.zeros(i + 1)
        else:
            w = (target - rho) / (1.0 - rho)
        if np.any(w[occurs] < -1e-12) or np.any(w[occurs] > 1 + 1e-12):
            raise RuntimeError("construction invariant violated: w outside [0, 1]")
        z = np.where(x, True, rng.random(total) < np.clip(w, 0.0, 1.0)[zsum])
        violations += int(np.count_nonzero(x & ~z))
        zsum += z
        patterns |= z.astype(np.int32) << i

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
    demos; not an acceptance target.  A degree_ratio below 1 raises UsageError.
    """
    check_real("degree_ratio", degree_ratio, 1, FLOAT_MAX)
    q = math.e / (1.0 + math.e)
    return q * math.log1p(math.e) + (1.0 - q) * (degree_ratio - 1.0) / degree_ratio

