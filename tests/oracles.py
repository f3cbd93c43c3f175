"""Independent brute-force oracles the tests freeze expected values against.

Everything here recomputes quantities from definitions, sharing no code path
with the library: subset enumeration for independent sets, linear-domain
partition sums (optionally restricted by a predicate, such as the majority
sides of an assignment), the cycle transfer matrix and its split by number
of zeros, per-equation satisfaction loops, hypergeometric sequential
laws, a plain bisection root finder, the vectorized fixed-point bisection
run for every one of its halvings, a 50-digit mpmath fixed point in log x,
a grid-plus-golden-section maximum
of the rate-bound bracket, the finite closed forms of the chi-square
survival function, a scan over every big pair of a gadget's subsets,
every configuration, as numpy integer codes, for the reduction's majority
sums (whose per-configuration weight the caller passes in), per-record loops that
check, aggregate, write and audit edge records and build the reduction's,
line-by-line readers of graph files and of block maps, and the enumeration
kernel's problem construction and block as they stood before its set-up was cut (a frozen
copy, for bit-for-bit comparison), with the profile terms it took and
`profile_of`, which turns them into the kernel's (keys, table) profile.  Seven helpers evaluate through the
library: `recursion_value`, the tree recursion with the log ratio that the
fixed-point solver uses, `fixed_point_by_halvings`, that solver as it stood
when it bisected its whole bracket, `profile_sum_mc_all_tuples`, the gadget
Monte Carlo as it stood when it computed every matching tuple before it
drew the sample, `profile_sum_mc_drawn_tuples`, the same Monte Carlo
computing each drawn tuple, decoded from its index by divmod,
`coupling_sim_per_sequence`, the coupling simulation as it stood when it held int64 hit counts and patterns and computed its
coupling probability per sequence, and `rate_bound_scan_by_rows` and
`rate_bound_grid_by_rows`, the rate-bound scan and grid as they stood when
they evaluated the grid one row at a time.
"""

import dataclasses
import decimal
import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np

from twospin.analysis import (CouplingReport, MCEstimate, RateBoundScan,
                              _rate_bound_values, _scan_grid, _sequence_law, chi2_sf)
from twospin.errors import UsageError, shown
from twospin.graphs import BipartiteGadget
from twospin.spins import log_profile_sums
from twospin.uniqueness import _log_ratio


def independent_set_count(num_vertices, edge_pairs):
    adj = [0] * num_vertices
    for u, v in edge_pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    count = 0
    for subset in range(1 << num_vertices):
        ok = True
        v = 0
        s = subset
        while s:
            if s & 1 and adj[v] & subset:
                ok = False
                break
            s >>= 1
            v += 1
        count += ok
    return count


def linear_log_partition(num_vertices, edge_records, beta, gamma, mu=1.0,
                         keep=None):
    """Plain linear-domain sum over all configurations (small graphs only).

    `keep(bits)` optionally filters configurations; bits[v] is the spin.
    """
    total = 0.0
    for code in range(1 << num_vertices):
        bits = [(code >> v) & 1 for v in range(num_vertices)]
        if keep is not None and not keep(bits):
            continue
        w = mu ** (num_vertices - sum(bits))
        for u, v, m in edge_records:
            if bits[u] == 0 and bits[v] == 0:
                w *= beta ** m
            elif bits[u] == 1 and bits[v] == 1:
                w *= gamma ** m
        total += w
    return math.log(total) if total > 0 else float("-inf")


def fraction_partition(num_vertices, edge_records, beta, gamma, mu=1, keep=None):
    beta, gamma, mu = Fraction(beta), Fraction(gamma), Fraction(mu)
    total = Fraction(0)
    for code in range(1 << num_vertices):
        bits = [(code >> v) & 1 for v in range(num_vertices)]
        if keep is not None and not keep(bits):
            continue
        w = mu ** (num_vertices - sum(bits))
        for u, v, m in edge_records:
            if bits[u] == 0 and bits[v] == 0:
                w *= beta ** m
            elif bits[u] == 1 and bits[v] == 1:
                w *= gamma ** m
        total += w
    return total


def cycle_partition(n, beta, gamma, mu=1):
    """Exact partition sum of the n-cycle: the trace of the n-th power of the
    transfer matrix [[mu beta, mu], [1, gamma]] (row = spin, field on 0)."""
    beta, gamma, mu = Fraction(beta), Fraction(gamma), Fraction(mu)
    step = [[mu * beta, mu], [Fraction(1), gamma]]
    power = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _ in range(n):
        power = [[sum(power[r][s] * step[s][c] for s in range(2)) for c in range(2)]
                 for r in range(2)]
    return power[0][0] + power[1][1]


def cycle_zero_counts(n, beta, gamma, mu=1):
    """Exact partition sum of the n-cycle per number of zeros: entry k is
    the coefficient of x**k in the trace of the n-th power of the transfer
    matrix [[x mu beta, x mu], [1, gamma]], whose spin-0 row marks a zero."""
    beta, gamma, mu = Fraction(beta), Fraction(gamma), Fraction(mu)
    step = [[mu * beta, mu], [Fraction(1), gamma]]
    power = [[[Fraction(r == c)] + [Fraction(0)] * n for c in range(2)] for r in range(2)]
    for _ in range(n):
        power = [[[(power[r][0][k - 1] * step[0][c] if k else 0) + power[r][1][k] * step[1][c]
                   for k in range(n + 1)] for c in range(2)] for r in range(2)]
    return [a + b for a, b in zip(power[0][0], power[1][1])]


def majority_keep(sides, enc):
    """The configurations of the majority sum Z(G,S), S = sum_i S_i 2^i, as a
    predicate on bits (bits[v] is the spin at v): zeros(U_i) <= zeros(V_i)
    for each i with S_i = 0 and zeros(V_i) <= zeros(U_i) for each i with
    S_i = 1, where sides[i] = (U_i, V_i)."""
    def keep(bits):
        for i, (u, v) in enumerate(sides):
            fewer, more = (v, u) if (enc >> i) & 1 else (u, v)
            if sum(1 - bits[x] for x in fewer) > sum(1 - bits[x] for x in more):
                return False
        return True
    return keep


def expander_worst_pair(left, right, edge_records, eps):
    """Worst crossing ratio e(A, B) N / (delta |A| |B|) over every pair of
    big subsets, scanning left codes, then right codes, in increasing order
    (so ties go to the smallest codes).  Returns (ratio, witness_left,
    witness_right, pairs)."""
    n = len(left)
    left_pos = {v: i for i, v in enumerate(left)}
    right_pos = {v: i for i, v in enumerate(right)}
    count = [[0] * n for _ in range(n)]
    for u, v, m in edge_records:
        if u in right_pos:
            u, v = v, u
        count[left_pos[u]][right_pos[v]] += m
    delta = sum(count[0])
    s0 = max(1, math.ceil(eps * n - 1e-9))
    big = [[i for i in range(n) if code >> i & 1] for code in range(1 << n)]
    big = [members for members in big if len(members) >= s0]
    worst = (math.inf, None, None)
    for a, b in itertools.product(big, repeat=2):
        crossing = sum(count[i][j] for i in a for j in b)
        ratio = crossing * n / (delta * len(a) * len(b))
        if ratio < worst[0]:
            worst = (ratio, a, b)
    ratio, a, b = worst
    return (ratio, tuple(left[i] for i in a), tuple(right[j] for j in b),
            len(big) ** 2)


def best_count_loop(num_vars, equations):
    """Per-equation loop over every assignment; mate of the bit-parallel path."""
    best = -1
    best_bits = None
    for code in range(1 << num_vars):
        bits = [(code >> v) & 1 for v in range(num_vars)]
        sat = 0
        for i, j, b in equations:
            if bits[i] ^ bits[j] == b:
                sat += 1
        if sat > best:
            best = sat
            best_bits = tuple(bits)
    return best, best_bits


def profile_sum_mc_all_tuples(n_side, delta, delta_prime, p, an, bn, trials, seed):
    """The enumerated gadget Monte Carlo computing first: entry [an, bn] of
    every one of the (N!)**delta matching tuples' profile sums, in
    itertools.product order over permutation ranks, then `trials` indices
    drawn from the seed and looked up."""
    perms = np.array(list(itertools.permutations(range(n_side))), dtype=np.int64)
    values = np.array([
        math.exp(log_profile_sums(BipartiteGadget.from_matchings(perms[list(ranks)]), p,
                                  delta_prime)[an, bn])
        for ranks in itertools.product(range(len(perms)), repeat=delta)])
    sample = values[np.random.default_rng(seed).integers(len(values), size=trials)]
    return _mc_estimate(sample, trials, seed)


def profile_sum_mc_drawn_tuples(n_side, delta, delta_prime, p, an, bn, trials, seed):
    """The gadget Monte Carlo computing only the drawn matching tuples, one per
    trial: each of the `trials` indices drawn from the seed is split into
    delta permutation ranks, the last rank varying fastest, by Python divmod."""
    perms = list(itertools.permutations(range(n_side)))
    draws = np.random.default_rng(seed).integers(len(perms) ** delta, size=trials)
    values = []
    for index in draws.tolist():
        ranks = []
        for _ in range(delta):
            index, rank = divmod(index, len(perms))
            ranks.append(rank)
        matchings = np.array([perms[r] for r in reversed(ranks)], dtype=np.int64)
        values.append(math.exp(log_profile_sums(BipartiteGadget.from_matchings(matchings),
                                                p, delta_prime)[an, bn]))
    return _mc_estimate(np.array(values), trials, seed)


def _mc_estimate(sample, trials, seed):
    if np.all(sample == sample[0]):
        return MCEstimate(mean=float(sample[0]), std_error=0.0, trials=trials, seed=seed)
    se = float(sample.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MCEstimate(mean=float(sample.mean()), std_error=se, trials=trials, seed=seed)


def coupling_sim_per_sequence(n, b, d, seed, trials, a=1.0, chi2_alpha=1e-3):
    """`analysis.coupling_sim` on valid parameters, computing the target and
    coupling probability of every sequence at every step in float64 over
    int64 hit counts and patterns."""
    bn, length = round(b * n), round(a * n)
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
    z1_expected = bn / n
    law = _sequence_law(n, bn, length)
    observed = np.bincount(patterns, minlength=1 << length).astype(float)
    expected = law * total
    support = expected > 0
    assert not np.any(observed[~support] > 0)
    stat = float(np.sum((observed[support] - expected[support]) ** 2
                        / expected[support]))
    dof = int(np.count_nonzero(support)) - 1
    return CouplingReport(
        n=n, b=b, a=a, d=d, trials=trials, seed=seed, sequences=total,
        domination_violations=violations, z1_frequency=float(np.mean(patterns & 1)),
        z1_expected=z1_expected, z1_stderr=math.sqrt(z1_expected * (1 - z1_expected) / total),
        chi2_stat=stat, chi2_dof=dof, chi2_pvalue=chi2_sf(stat, dof) if dof > 0 else 1.0,
        chi2_alpha=chi2_alpha)


def bisect_root(fn, lo, hi, iterations=200):
    """Root of a decreasing fn by plain bisection."""
    flo, fhi = fn(lo), fn(hi)
    assert flo > 0 >= fhi or flo >= 0 > fhi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_every_halving(lo, hi, g, iterations=200):
    """The fixed-point bisection of `uniqueness._bisect` with no early stop:
    every one of the `iterations` halvings runs."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        v = g(mid)
        lo = np.where(v >= 0, mid, lo)
        hi = np.where(v <= 0, mid, hi)
    return 0.5 * (lo + hi)


def fixed_point_by_halvings(beta, gamma, mu, d):
    """The fixed points of `uniqueness._fixed_point_array` as it stood when it
    bisected its whole bracket: the same brackets (`[0, f(0)]`, in log x past
    1e15), every one of 200 halvings.  NaN marks a cell that the library
    refuses because its fixed point overflows a double."""
    beta, gamma, mu, d = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (beta, gamma, mu, d)))
    logmu = np.log(mu)
    out = np.full(beta.shape, math.nan)
    with np.errstate(divide="ignore", over="ignore"):
        hi = mu / np.power(gamma, d)
        log_hi = logmu - d * np.log(gamma)
        bound = logmu + d * np.log1p(beta)
        log_hi = np.where(np.isposinf(log_hi), np.maximum(bound, bound / (d + 1)),
                          log_hi)
        hi = np.where(np.isfinite(hi), hi, np.exp(np.minimum(log_hi, 700.0)))
        hi = np.maximum(hi, 1e-300)
        fits = logmu + d * _log_ratio(beta, gamma)(hi) - np.log(hi) <= 1e-6
        for sel in (fits & (hi <= 1e15), fits & (hi > 1e15)):
            if not sel.any():
                continue
            log_ratio = _log_ratio(beta[sel], gamma[sel])
            lm, ds = logmu[sel], d[sel]
            if hi[sel][0] > 1e15:
                out[sel] = np.exp(bisect_every_halving(
                    np.full(lm.size, -737.0), np.log(hi[sel]),
                    lambda y: lm + ds * log_ratio(np.exp(y)) - y))
            else:
                out[sel] = bisect_every_halving(
                    np.zeros(lm.size), hi[sel], lambda x: lm + ds * log_ratio(x) - np.log(x))
    return out


def fixed_point_mp(beta, gamma, mu, d, x0, digits=50):
    """The fixed point to `digits` digits, as the root in y = log x of
    log mu + d log((beta e^y + 1)/(e^y + gamma)) - y, which decreases when
    beta*gamma < 1: mpmath's Anderson-Bjorck method on a bracket about
    log x0 (x0 > 0), widened until its ends differ in sign.  Returns x and
    the bound 4 eps (|log mu| + d |log ratio| + |log x|) / (1 + |f'(x)|) on
    how far a sign change of the ratio's floating-point logs can lie from
    it, relative to x, as floats."""
    with mpmath.workdps(digits):
        b, g, m = (mpmath.mpf(float(v)) for v in (beta, gamma, mu))

        def log_ratio(y):
            return mpmath.log(b * mpmath.exp(y) + 1) - mpmath.log(mpmath.exp(y) + g)

        def excess(y):
            return mpmath.log(m) + d * log_ratio(y) - y

        y0 = mpmath.log(mpmath.mpf(float(x0)))
        width = mpmath.mpf(2) ** -20 * max(1, abs(y0))
        while not excess(y0 - width) > 0 > excess(y0 + width):
            width *= 16
        y = mpmath.findroot(excess, (y0 - width, y0 + width), solver="anderson")
        x = mpmath.exp(y)
        slope = d * (1 - b * g) * x / ((b * x + 1) * (x + g))
        terms = abs(mpmath.log(m)) + d * abs(log_ratio(y)) + abs(y)
        return float(x), float(4 * mpmath.mpf(2) ** -52 * terms / (1 + slope))


def profile_sum_direct(n_side, matchings, delta_prime, beta, gamma, a_count,
                       b_count):
    """Direct sum over zero-set pairs for a matching-union gadget."""
    total = 0.0
    for a_set in itertools.combinations(range(n_side), a_count):
        for b_set in itertools.combinations(range(n_side), b_count):
            w = 1.0
            for perm in matchings:
                for u in range(n_side):
                    v = perm[u]
                    if u in a_set and v in b_set:
                        w *= beta
                    elif u not in a_set and v not in b_set:
                        w *= gamma
            total += w
    return total * gamma ** (delta_prime * (2 * n_side - a_count - b_count))


def sequential_indicator_law(n, marked, length):
    """Joint law of the first `length` hit-indicators when drawing without
    replacement from n items of which `marked` are marked."""
    law = {}

    def rec(i, pattern, hits, prob):
        if i == length:
            law[pattern] = law.get(pattern, 0.0) + prob
            return
        t = Fraction(marked - hits, n - i)
        if t > 0:
            rec(i + 1, pattern | (1 << i), hits + 1, prob * t)
        if t < 1:
            rec(i + 1, pattern, hits, prob * (1 - t))

    rec(0, 0, 0, Fraction(1))
    return {k: float(v) for k, v in law.items()}


def binary_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def bracket_max(a, b, lam, points=201, iterations=100):
    """max over k in [max(0, a+b-1), min(a, b)] of
    k lam + b H(k/b) + (1-b) H((a-k)/(1-b)) - H(a), by a dense grid and
    golden section on the cells around the best grid point (the bracket is
    concave in k)."""
    def weighted(w, num):
        return w * binary_entropy(min(1.0, max(0.0, num / w))) if w > 0 else 0.0

    def f(k):
        return (k * lam + weighted(b, k) + weighted(1.0 - b, a - k)
                - binary_entropy(a))

    lo, hi = max(0.0, a + b - 1.0), min(a, b)
    if hi <= lo:
        return f(hi)
    ks = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    i = max(range(points), key=lambda j: f(ks[j]))
    left, right = ks[max(0, i - 1)], ks[min(points - 1, i + 1)]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iterations):
        c = right - shrink * (right - left)
        d = left + shrink * (right - left)
        if f(c) >= f(d):
            right = d
        else:
            left = c
    return max(f(ks[i]), f(0.5 * (left + right)))


def chi2_survival(stat, dof):
    """P[chi^2_dof > stat] for integer dof >= 1 from the finite closed forms,
    with x = stat/2 and k = dof // 2:

        even dof:  e^-x sum_{i<k} x^i / i!
        odd dof:   erfc(sqrt x) + e^-x sum_{i<k} x^(i+1/2) / Gamma(i+3/2)

    The sums run in 40-digit decimal arithmetic, where e^-x neither
    underflows nor loses digits (pi enters at double precision).  erfc comes
    from math.erfc, and beyond x = 700, where that underflows, from 20 terms
    of its asymptotic series, whose truncation error there is below 1e-30.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = decimal.Decimal(stat) / 2
        if dof % 2 == 0:
            total, term, shift = decimal.Decimal(0), (-x).exp(), 0
        else:
            if stat <= 1400:
                total = decimal.Decimal(math.erfc(math.sqrt(stat / 2)))
            else:
                series, coef = decimal.Decimal(0), decimal.Decimal(1)
                for n in range(20):
                    series += coef
                    coef *= -(2 * n + 1) / (2 * x)
                total = (-x).exp() / (x * decimal.Decimal(math.pi)).sqrt() * series
            term = (-x).exp() * 2 * (x / decimal.Decimal(math.pi)).sqrt()
            shift = decimal.Decimal(1) / 2
        for i in range(dof // 2):
            if i > 0:
                term *= x / (i + shift)
            total += term
        return float(total)


def _log_sum(logs):
    """log of the sum of exp(logs), correctly rounded before the log; -inf
    for an empty sum."""
    logs = [x for x in logs if x != -math.inf]
    if not logs:
        return -math.inf
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def sandwich_brute(num_vertices, edge_records, sides, log_weights):
    """Per weight function, (log Z, max_S log Z(G,S), log sum_S Z(G,S),
    [log Z(G,S) per S]) from every configuration.

    sides[i] = (U_i, V_i).  Z(G,S) sums the configurations with
    zeros(U_i) <= zeros(V_i) for each i with S_i = 0 and
    zeros(V_i) <= zeros(U_i) for each i with S_i = 1; S is listed in the
    order of its encoding sum_i S_i 2^i.  A weight function maps a
    configuration's bits (bits[v] is the spin at v) to its log weight.  The
    configurations, as integer codes in numpy arrays, are counted by their
    zero-counts on the sides and by their numbers of zeros, 0-0 edges and
    1-1 edges, which fix the weight; so each weight function is called once
    per such class, on its smallest member.
    """
    codes = np.arange(1 << num_vertices)
    n00, n11 = np.zeros_like(codes), np.zeros_like(codes)  # with multiplicity
    for u, v, m in edge_records:
        ones = ((codes >> u) & 1) + ((codes >> v) & 1)
        n00 += m * (ones == 0)
        n11 += m * (ones == 2)
    columns = [num_vertices - np.bitwise_count(codes), n00, n11] + [
        len(side) - np.bitwise_count(codes & sum(1 << v for v in side))
        for pair in sides for side in pair]
    radices = [int(column.max()) + 1 for column in columns]
    assert math.prod(radices) < 2 ** 63  # the class key below fits int64
    key = np.zeros_like(codes)
    for column, radix in zip(columns, radices):
        key = key * radix + column
    _, members, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(members)  # classes in the order of their smallest codes
    members, counts = members[order].tolist(), counts[order].tolist()
    classes = {}  # zero-counts on the sides -> weight class -> [count, member]
    for values, count, code in zip(np.stack([c[members] for c in columns], 1).tolist(),
                                   counts, members):
        zeros = tuple(zip(values[3::2], values[4::2]))
        classes.setdefault(zeros, {})[tuple(values[:3])] = [count, code]
    # per S, which zero-counts it admits: zeros(U_i) <= zeros(V_i) where S_i = 0,
    # zeros(V_i) <= zeros(U_i) where S_i = 1
    zu, zw = np.array(list(classes)).reshape(len(classes), len(sides), 2).transpose(2, 0, 1)
    admits = [np.all(np.where((enc >> np.arange(len(sides))) & 1, zw <= zu, zu <= zw), axis=1)
              for enc in range(1 << len(sides))]
    reports = []
    for log_weight in log_weights:
        weights = {}
        groups = {}  # zero-counts on the sides -> log of their configurations' sum
        for zeros, by_weight in classes.items():
            logs = []
            for weight_class, (count, code) in by_weight.items():
                if weight_class not in weights:
                    weights[weight_class] = log_weight(
                        [(code >> v) & 1 for v in range(num_vertices)])
                logs.append(math.log(count) + weights[weight_class])
            groups[zeros] = _log_sum(logs)
        logs = np.array(list(groups.values()))
        restricted = [_log_sum(logs[admit].tolist()) for admit in admits]
        reports.append((_log_sum(groups.values()), max(restricted),
                        _log_sum(restricted), restricted))
    return reports


MAX_MULTIPLICITY = 2 ** 53


def aggregated_records(num_vertices, items):
    """(u, v[, mult]) items summed per unordered pair in a dict, sorted and
    checked one by one: the records, or the error message of the first pair
    out of range, a self-loop or of multiplicity outside 1..2**53, else of
    the first vertex whose degree passes 2**53."""
    mults = {}
    for item in items:
        u, v, m = item if len(item) == 3 else (*item, 1)
        key = (u, v) if u < v else (v, u)
        mults[key] = mults.get(key, 0) + m
    records = sorted((u, v, m) for (u, v), m in mults.items())
    degrees = {}
    for u, v, m in records:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            return f"edge ({u},{v}) out of range"
        if u == v:
            return f"self-loop at vertex {u}"
        if not 0 < m <= MAX_MULTIPLICITY:
            return f"edge ({u},{v}) multiplicity {m} is outside 1..2**53"
        degrees[u] = degrees.get(u, 0) + m
        degrees[v] = degrees.get(v, 0) + m
    for x, degree in sorted(degrees.items()):
        if degree > MAX_MULTIPLICITY:
            return f"vertex {x} has degree {degree}, past 2**53"
    return tuple(records)


def item_records(num_vertices, items):
    """What MultiGraph(num_vertices, items) gives for a valid num_vertices:
    the message of the first item with other than 2 or 3 fields, else of the
    first item with a field that is not an int or lies outside int64, else of
    the first item whose own multiplicity lies outside 1..2**53, else
    `aggregated_records`."""
    for item in items:
        if len(item) not in (2, 3):
            return f"record {tuple(item)} is not a (u, v) or (u, v, mult) item"
    rows = [item if len(item) == 3 else (*item, 1) for item in items]
    for row in rows:
        if not all(isinstance(x, (int, np.integer)) for x in row):
            return f"record {tuple(row)} has a non-integer field"
        if not all(-2 ** 63 <= x < 2 ** 63 for x in row):
            return f"record {tuple(row)} has a field outside int64"
    for u, v, m in rows:
        if not 0 < m <= MAX_MULTIPLICITY:
            return f"edge ({u},{v}) has a record of multiplicity {m}, outside 1..2**53"
    return aggregated_records(num_vertices, rows)


def graph_file(text):
    """A graph file read line by line: (num_vertices, its aggregated records)
    as `aggregated_records` gives them, or the message of the first error in
    the order the reader reports them: a line's fault, the record count, a
    record's multiplicity, then the graph's own checks."""
    header, items, where = None, [], []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "p":
            if header is not None:
                return f"line {lineno}: duplicate header"
            if len(tokens) != 4 or tokens[1] != "graph":
                return f"line {lineno}: bad header {line!r}"
        elif header is None:
            return f"line {lineno}: record before the 'p graph' header"
        elif len(tokens) != 4 or tokens[0] != "e":
            return f"line {lineno}: bad edge record {line!r}"
        try:
            fields = [int(token) for token in (tokens[2:] if tokens[0] == "p" else tokens[1:])]
        except ValueError:
            return f"line {lineno}: non-integer field in {line!r}"
        if header is None:
            header = fields
        else:
            items.append(tuple(fields))
            where.append((lineno, line))
    if header is None:
        return "missing 'p graph' header"
    num_vertices, declared = header
    if declared != len(items):
        return f"header declares {declared} records, found {len(items)}"
    for (_, _, m), (lineno, line) in zip(items, where):
        if not 0 < m <= MAX_MULTIPLICITY:
            return f"line {lineno}: multiplicity {m} is outside 1..2**53 in {line!r}"
    if num_vertices < 0:
        return "num_vertices must be nonnegative"
    if num_vertices > MAX_MULTIPLICITY:
        return f"num_vertices {num_vertices} exceeds 2**53"
    records = aggregated_records(num_vertices, items)
    return records if isinstance(records, str) else (num_vertices, records)


def graph_text(num_vertices, records):
    """The graph file of sorted records."""
    lines = [f"p graph {num_vertices} {len(records)}"]
    lines += [f"e {u} {v} {m}" for u, v, m in sorted(records)]
    return "\n".join(lines) + "\n"


def reduction_layout(num_vars, equations, block_size):
    """Per variable, its U and V occurrence blocks as lists of vertex ids:
    variable i takes the next 2 d_i t ids, U blocks first."""
    occ = [0] * num_vars
    for i, j, _ in equations:
        occ[i] += 1
        occ[j] += 1
    u_blocks, v_blocks, base = [], [], 0
    for i in range(num_vars):
        side = occ[i] * block_size
        u_blocks.append([list(range(base + k * block_size, base + (k + 1) * block_size))
                         for k in range(occ[i])])
        v_blocks.append([list(range(base + side + k * block_size,
                                    base + side + (k + 1) * block_size))
                         for k in range(occ[i])])
        base += 2 * side
    return u_blocks, v_blocks, base


def prescribed_wiring(equations, u_blocks, v_blocks, delta_prime):
    """The (u, w, delta_prime) records that the equations prescribe, one per
    pair of corresponding block positions, in equation order."""
    seen = [0] * len(u_blocks)
    out = []
    for i, j, b in equations:
        k, ell = seen[i], seen[j]
        seen[i] += 1
        seen[j] += 1
        if b == 0:
            pairs = [(u_blocks[i][k], v_blocks[j][ell]), (v_blocks[i][k], u_blocks[j][ell])]
        else:
            pairs = [(u_blocks[i][k], u_blocks[j][ell]), (v_blocks[i][k], v_blocks[j][ell])]
        for mine, theirs in pairs:
            out += [(a, c, delta_prime) for a, c in zip(mine, theirs)]
    return out


def reduction_records(num_vars, equations, delta, delta_prime, block_size, gadget_rngs):
    """The reduction's records, one per item, aggregated: the prescribed
    wiring, then for each variable delta matchings u_s -> v_{perm[s]} drawn
    by `gadget_rngs[i].permutation(side)`.  Returns (records, u_blocks,
    v_blocks, num_vertices)."""
    u_blocks, v_blocks, num_vertices = reduction_layout(num_vars, equations, block_size)
    items = prescribed_wiring(equations, u_blocks, v_blocks, delta_prime)
    for i in range(num_vars):
        u_side = [v for block in u_blocks[i] for v in block]
        v_side = [v for block in v_blocks[i] for v in block]
        for _ in range(delta):
            perm = gadget_rngs[i].permutation(len(u_side))
            items += [(u_side[s], v_side[int(perm[s])], 1) for s in range(len(u_side))]
    return aggregated_records(num_vertices, items), u_blocks, v_blocks, num_vertices


def blocks_text(num_vars, equations, block_size, delta, delta_prime, seed,
                u_blocks, v_blocks):
    """The block-map file: header, 1-based equations, then the U and V
    blocks of each variable in turn."""
    lines = [f"p blocks {num_vars} {len(equations)} {block_size} {delta} "
             f"{delta_prime} {seed}"]
    lines += [f"e {i + 1} {j + 1} {b}" for i, j, b in equations]
    for i in range(num_vars):
        for side, blocks in (("U", u_blocks[i]), ("V", v_blocks[i])):
            lines += [f"block {side} {i} {k} " + " ".join(map(str, block))
                      for k, block in enumerate(blocks)]
    return "\n".join(lines) + "\n"


def audit_fields(num_vertices, records, equations, u_blocks, v_blocks, delta,
                 delta_prime, block_size):
    """The structure audit's fields, from per-record loops over the graph's
    records (in their order) and the blocks."""
    degree = [0] * num_vertices
    intra = [0] * num_vertices
    inter = [0] * num_vertices
    owner = {v: i for i in range(len(u_blocks))
             for blocks in (u_blocks[i], v_blocks[i]) for block in blocks for v in block}
    crossing = []
    for u, v, m in records:
        degree[u] += m
        degree[v] += m
        sums = inter if owner[u] != owner[v] else intra
        sums[u] += m
        sums[v] += m
        if owner[u] != owner[v]:
            crossing.append((u, v, m))
    prescribed = sorted((min(a, c), max(a, c), m) for a, c, m in
                        prescribed_wiring(equations, u_blocks, v_blocks, delta_prime))
    return dict(
        regular=len(set(degree)) == 1,
        degree=degree[0] if degree else 0,
        expected_degree=delta + delta_prime,
        vertex_count=num_vertices,
        expected_vertex_count=4 * len(equations) * block_size,
        intra_multiplicities_ok=all(x == delta for x in intra),
        inter_multiplicities_ok=all(x == delta_prime for x in inter),
        block_sizes_ok=all(len(block) == block_size for blocks in u_blocks + v_blocks
                           for block in blocks),
        wiring_ok=prescribed == crossing,
    )


def blocks_file(text, graph):
    """A block map read line by line against its graph: its (header, equations,
    u_blocks, v_blocks), 0-based and as tuples, or the message of the first
    error in the order the reader reports them: a line's fault, the equation
    count, the instance's checks, an unused variable, the gadget parameters'
    checks, the block records' keys, the partition of the vertices, the
    wiring, then the rest of the structure audit."""
    header, equations, blocks = None, [], {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "p":
            if header is not None:
                return f"line {lineno}: duplicate header"
            if len(tokens) != 8 or tokens[1] != "blocks":
                return f"line {lineno}: bad header {line!r}"
        elif header is None:
            return f"line {lineno}: record before the 'p blocks' header"
        elif not ((tokens[0] == "e" and len(tokens) == 4) or (
                tokens[0] == "block" and len(tokens) >= 5 and tokens[1] in ("U", "V"))):
            return f"line {lineno}: bad record {line!r}"
        try:
            fields = [int(token) for token in tokens[1 if tokens[0] == "e" else 2:]]
        except ValueError:
            return f"line {lineno}: non-integer field in {line!r}"
        if header is None:
            header = tuple(fields)
        elif tokens[0] == "e":
            equations.append((fields[0] - 1, fields[1] - 1, fields[2]))
        elif (tokens[1], fields[0], fields[1]) in blocks:
            return f"line {lineno}: duplicate block record {line!r}"
        else:
            blocks[(tokens[1], fields[0], fields[1])] = tuple(fields[2:])
    if header is None:
        return "missing 'p blocks' header"
    n, m, t, delta, delta_prime, seed = header
    if len(equations) != m:
        return f"header declares {m} equations, found {len(equations)}"
    if n < 1:
        return "instance needs at least one variable"
    if not equations:
        return "instance needs at least one equation"
    for i, j, b in equations:
        if not (0 <= i < n and 0 <= j < n):
            return f"equation ({i},{j},{b}) references a missing variable"
        if i == j:
            return f"equation ({i},{j},{b}) repeats a variable"
        if b not in (0, 1):
            return f"equation ({i},{j},{b}) has b outside {{0,1}}"
    occ = Counter(i for i, j, _ in equations) + Counter(j for i, j, _ in equations)
    if len(occ) != n:
        return "block map instance has unused variables"
    if delta < 1 or delta_prime < 1 or t < 1:
        return "delta, delta_prime and block_size must all be >= 1"
    if seed < 0:
        return f"seed must be a non-negative integer, got {shown(seed)}"
    if set(blocks) != {(side, i, k) for side in "UV" for i in range(n) for k in range(occ[i])}:
        return "block records do not match the variables' occurrences"
    covered = [v for block in blocks.values() for v in block]
    if sorted(covered) != list(range(graph.num_vertices)):
        return "block records do not partition the graph's vertices"
    u_blocks = tuple(tuple(blocks[("U", i, k)] for k in range(occ[i])) for i in range(n))
    v_blocks = tuple(tuple(blocks[("V", i, k)] for k in range(occ[i])) for i in range(n))
    audit = audit_fields(graph.num_vertices, graph.edges, equations, u_blocks, v_blocks,
                         delta, delta_prime, t)
    if not audit["wiring_ok"]:
        return "block map equations do not match the graph's wiring"
    if not (audit["regular"] and audit["degree"] == audit["expected_degree"]
            and audit["vertex_count"] == audit["expected_vertex_count"]
            and audit["intra_multiplicities_ok"] and audit["inter_multiplicities_ok"]
            and audit["block_sizes_ok"]):
        return "graph and block map are inconsistent"
    return header, tuple(equations), u_blocks, v_blocks


def rate_bound_grid_by_rows(c, min_fraction, step):
    """The (a, b, rate_bound(a, b)) rows of the scan grid, one row per call."""
    grid = _scan_grid(min_fraction, step)
    for a in grid.tolist():
        yield from zip([a] * len(grid), grid.tolist(),
                       _rate_bound_values(a, grid, c).tolist())


def rate_bound_scan_by_rows(c, min_fraction, step):
    """rate_bound_scan with its grid evaluated one row per call."""
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


def recursion_value(p, d, x):
    """f(x) = mu * ((beta*x + 1)/(x + gamma))**d, evaluated in log space
    through the library's own log ratio: the residual check of a fixed
    point that the solver found."""
    if x < 0:
        raise UsageError("x must be nonnegative")
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.exp(math.log(p.mu) + d * _log_ratio(p.beta, p.gamma)(x)))


# ---------------------------------------------------------------------------
# The enumeration kernel as it stood before its set-up was cut: its problem
# construction, block and merge, kept verbatim so that tests can require the
# kernel's tables and histograms to be the same floats, bit for bit.

REFERENCE_LOW_BITS = 10
REFERENCE_BLOCK_BITS = 16
REFERENCE_DISCARD = -1


def _reference_pair_logs(codes, records):
    if not records:
        return np.zeros(len(codes))
    a, b, l00, l11 = (np.array(col) for col in zip(*records))
    ones = ((codes[:, None] >> a) & 1) + ((codes[:, None] >> b) & 1)
    return np.where(ones == 0, l00, np.where(ones == 2, l11, 0.0)).sum(axis=1)


def _reference_lse(arr):
    if arr.size == 0:
        return float("-inf")
    hi = float(np.max(arr))
    if hi == float("-inf"):
        return float("-inf")
    arr -= hi
    np.exp(arr, out=arr)
    return hi + math.log(float(np.sum(arr)))


def _reference_lse_by_bucket(values, buckets, size, shifts):
    values, buckets, shifts = values.ravel(), buckets.ravel(), shifts.ravel()
    top = np.full(size, float("-inf"))
    np.maximum.at(top, buckets, values)
    top[top == float("-inf")] = 0.0
    np.take(top, buckets, out=shifts, mode="clip")
    values -= shifts
    np.exp(values, out=values)
    sums = np.bincount(buckets, weights=values, minlength=size)
    out = np.full(size, float("-inf"))
    np.log(sums, out=out, where=sums > 0)
    return out + top


def _reference_pairwise_add(tree, start, size, value):
    while tree and start % (2 * size) == size and tree[-1][1] == size:
        start, _, left = tree.pop()
        size, value = 2 * size, np.logaddexp(left, value)
    tree.append((start, size, value))


def _reference_pairwise_root(tree):
    value = tree[-1][2]
    for _, _, left in reversed(tree[:-1]):
        value = np.logaddexp(left, value)
    return value


class ReferenceProblem:
    """The kernel's problem: q_lo, cols, hi_edges and one (high masks,
    popcount shape, offsets) entry per profile term in `digits`."""

    def __init__(self, g, p, fixed, terms=(), num_buckets=1):
        lb, lg = p.log_entries()
        lmu = math.log(p.mu)
        free = [v for v in range(g.num_vertices) if v not in fixed]
        pos = {v: j for j, v in enumerate(free)}
        nf = len(free)
        # per-free-vertex log factors for spin 0 / spin 1
        w0 = np.full(nf, lmu, dtype=float)
        w1 = np.zeros(nf, dtype=float)
        const = lmu * sum(1 for v in fixed if fixed[v] == 0)
        ff = []
        for u, v, m in g.edges:
            su, sv = fixed.get(u), fixed.get(v)
            if su is not None and sv is not None:
                if su == 0 and sv == 0:
                    const += m * lb
                elif su == 1 and sv == 1:
                    const += m * lg
            elif su is None and sv is None:
                ff.append((pos[u], pos[v], m * lb, m * lg))
            else:
                w, s = (pos[u], sv) if su is None else (pos[v], su)
                if s == 0:
                    w0[w] += m * lb
                else:
                    w1[w] += m * lg
        self.k = k = min(nf, REFERENCE_LOW_BITS)
        self.h = h = nf - k
        self.b = min(h, REFERENCE_BLOCK_BITS - k)
        x = np.arange(1 << k)
        low_bits = ((x[:, None] >> np.arange(k)) & 1).astype(bool)
        self.q_lo = (const + np.where(low_bits, w1[:k], w0[:k]).sum(axis=1)
                     + _reference_pair_logs(x, [r for r in ff if r[1] < k]))
        self.cols = np.empty((2, h, 1 << k))
        self.cols[0] = w0[k:, None]
        self.cols[1] = w1[k:, None]
        for a, c, l00, l11 in ff:
            if a < k <= c:
                self.cols[0, c - k] += np.where(low_bits[:, a], 0.0, l00)
                self.cols[1, c - k] += np.where(low_bits[:, a], l11, 0.0)
        self.hi_edges = [(a - k, c - k, l00, l11) for a, c, l00, l11 in ff if a >= k]
        self.num_buckets = num_buckets
        self.digits = []
        top = 0  # the largest bucket a kept configuration can reach
        for term in terms:
            masks = [sum(1 << pos[v] for v in vset if v not in fixed)
                     for vset in term.sets]
            grid = np.ix_(*(np.arange((m >> k).bit_count() + 1) for m in masks), x)
            zeros = [sum(1 for v in vset if fixed.get(v, 0) == 0) - count
                     - np.bitwise_count(grid[-1] & m).astype(np.int64)
                     for vset, m, count in zip(term.sets, masks, grid)]
            shape = np.broadcast_shapes(*(axis.shape for axis in grid))
            digits = np.broadcast_to(term.digit(*zeros), shape)
            kept = digits[digits != REFERENCE_DISCARD]
            if kept.min(initial=0) < 0:
                raise UsageError(f"profile offsets must be nonnegative, got {kept.min()}")
            top += int(kept.max(initial=0))
            # one row per combination of high popcounts, in C order
            self.digits.append(([m >> k for m in masks], shape[:-1],
                                np.where(digits == REFERENCE_DISCARD, num_buckets, digits)
                                .astype(np.intp).reshape(-1, 1 << k)))
        if top >= num_buckets:
            raise UsageError(f"profile offsets reach bucket {top}, not below "
                             f"num_buckets = {num_buckets}")
        self.bins = max(num_buckets, 1 + sum(int(d.max()) for *_, d in self.digits))

    def scratch(self):
        shape = (1 << self.b, 1 << self.k)
        if not self.digits:
            return (np.empty(shape),)
        return (np.empty(shape), np.empty(shape, dtype=np.intp),
                np.empty(shape, dtype=np.intp), np.empty(shape))

    def block_histogram(self, index, table, bucket=None, offsets=None, shifts=None):
        rows = 1 << self.b
        y = np.arange(index * rows, (index + 1) * rows)
        table[0] = self.q_lo
        for v in range(self.b, self.h):
            table[0] += self.cols[(y[0] >> v) & 1, v]
        for v in range(self.b):
            n = 1 << v
            np.add(table[:n], self.cols[1, v], out=table[n:2 * n])
            table[:n] += self.cols[0, v]
        table += _reference_pair_logs(y, self.hi_edges)[:, None]
        if not self.digits:  # one bucket holds every configuration
            return _reference_lse(table)
        for j, (masks_hi, counts, digits) in enumerate(self.digits):
            row = np.ravel_multi_index([np.bitwise_count(y & m) for m in masks_hi],
                                       counts)
            np.take(digits, row, axis=0, out=offsets if j else bucket, mode="clip")
            if j:
                bucket += offsets
        return _reference_lse_by_bucket(table, bucket, self.bins, shifts)[:self.num_buckets]


def reference_histogram(g, p, terms, num_buckets, fixed=None):
    """The kernel's histogram, its blocks in order; without terms it has
    one entry."""
    prob = ReferenceProblem(g, p, dict(fixed or {}), tuple(terms), num_buckets)
    scratch, tree = prob.scratch(), []
    for i in range(1 << (prob.h - prob.b)):
        _reference_pairwise_add(tree, i, 1, prob.block_histogram(i, *scratch))
    return np.atleast_1d(_reference_pairwise_root(tree))


@dataclasses.dataclass(frozen=True)
class ZeroCount:
    """The reference profile term whose offset is weight * #zeros(vertices)."""

    vertices: tuple
    weight: int = 1

    @property
    def sets(self):
        return (self.vertices,)

    def digit(self, zeros):
        return self.weight * zeros


@dataclasses.dataclass(frozen=True)
class MajoritySign:
    """The reference profile term weight * (1 + sign(zeros(a) - zeros(b))),
    for sets = (a, b): 0, 1, 2 times weight for fewer zeros on a, a tie,
    fewer zeros on b."""

    sets: tuple
    weight: int

    def digit(self, zeros_a, zeros_b):
        return self.weight * (np.sign(zeros_a - zeros_b) + 1)


def profile_of(terms, num_vertices):
    """The kernel's (keys, table) profile whose bucket is the sum of the
    terms' offsets.  The zero-count terms add their weights into the lowest
    digit of the key; each majority term (a, b) takes one more digit,
    zeros(a) + ones(b) in radix |a| + |b| + 1 (linear even where a and b
    overlap), which less |b| has the sign of zeros(a) - zeros(b).  The table
    decodes every digit back to its term's offset and sums them.  Without
    terms there is no profile (None), as the kernel skipped the bucketing
    for an empty term list."""
    if not terms:
        return None
    keys = np.zeros((2, num_vertices), dtype=np.int64)
    counts = [t for t in terms if isinstance(t, ZeroCount)]
    for t in counts:
        np.add.at(keys[0], list(t.vertices), t.weight)
    table = np.arange(max(sum(t.weight * len(t.vertices) for t in counts), 0) + 1)
    for t in terms:
        if isinstance(t, MajoritySign):
            a, b = t.sets
            np.add.at(keys[0], list(a), len(table))
            np.add.at(keys[1], list(b), len(table))
            digit = t.weight * (np.sign(np.arange(len(a) + len(b) + 1) - len(b)) + 1)
            table = np.add.outer(digit, table).ravel()
    return keys, table
