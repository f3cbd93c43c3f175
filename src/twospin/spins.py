"""Two-state spin systems: interaction weights and exact partition sums.

A system assigns each vertex a state in {0, 1}.  An edge contributes weight
beta when both ends are 0, gamma when both are 1, and 1 when mixed; an
external field mu multiplies the weight once per 0-vertex.  The weight of a
configuration sigma is

    mu**#zeros(sigma) * prod_edges entry(sigma_u, sigma_v)**mult

and the partition function is the sum of these weights over all 2**n
configurations.  A zero-count profile splits that sum into buckets by a
table lookup on a sum of per-spin keys, such as the zero-counts of vertex
sets (log_partition_histogram), and pins fix spins.
Everything is computed in the log domain (see logspace): exponents like
beta**(delta * m**2) make linear floats useless here.

Enumeration order is the ascending integer encoding of the configuration,
with vertex 0 as the least significant bit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import (FLOAT_MAX, INT64_MAX, POSITIVE, ResourceLimitError, UsageError,
                     check_int, check_real, shown)
from .graphs import BipartiteGadget, MultiGraph
from .logspace import (LOG_ZERO, log_sum_exp_by_bucket,
                       log_sum_exp_inplace, pairwise_add, pairwise_root,
                       scaled_log)

DEFAULT_MAX_VERTICES = 28   # default free-vertex cap (max_vertices) of log_partition
MAX_FRACTION_VERTICES = 20  # free vertices of the exact rational oracle
MAX_PROFILE_SIDE = 12       # gadget side of the profile-restricted sum
MAX_BUCKETS = 1 << 20       # histogram buckets: 4 s and 120 MB at the cap on 24 free vertices
_LOW_BITS = 10    # free spins tabulated along the columns of a block table
_BLOCK_BITS = 16  # a block table holds at most 2**_BLOCK_BITS log-weights


@dataclass(frozen=True)
class SpinParams:
    """Interaction weights (beta, gamma) and external field mu on spin 0."""

    beta: float
    gamma: float
    mu: float = 1.0

    def __post_init__(self):
        check_real("beta", self.beta, 0, FLOAT_MAX)
        check_real("gamma", self.gamma, 0, FLOAT_MAX)
        check_real("mu", self.mu, POSITIVE, FLOAT_MAX)

    @property
    def is_ferromagnetic(self) -> bool:
        return self.beta * self.gamma > 1

    @property
    def is_antiferromagnetic(self) -> bool:
        return self.beta * self.gamma < 1

    def log_entries(self) -> Tuple[float, float]:
        """(log beta, log gamma), with -inf for zero entries."""
        return scaled_log(self.beta, 1), scaled_log(self.gamma, 1)


# ---------------------------------------------------------------------------
# Zero-count profiles
#
# A profile (keys, table) sorts configurations into buckets.  keys is a
# nonnegative (2, n) integer array: vertex v adds keys[s, v] to a
# configuration's key when its spin is s, and the configuration falls in
# bucket table[key].  A zero-count of a vertex set is a key of 1 at spin 0
# on the set, so the table decodes any function of zero-counts (in a mixed
# radix, several of them) into buckets.


def _checked_profile(profile, num_vertices: int, num_buckets: int):
    """keys and table as intp arrays; UsageError unless the keys are
    nonnegative integers of shape (2, num_vertices), the table is long
    enough for the largest key sum_v max(keys[:, v]), and its entries are
    buckets in [0, num_buckets)."""
    keys, table = (np.asarray(a) for a in profile)
    if {keys.dtype.kind, table.dtype.kind} - set("iu") or table.ndim != 1:
        raise UsageError("a profile needs integer keys and a 1-d integer table")
    if keys.shape != (2, num_vertices):
        raise UsageError(f"profile keys have shape {keys.shape}, not (2, {num_vertices})")
    if keys.min(initial=0) < 0:
        raise UsageError(f"profile keys must be nonnegative, got {keys.min()}")
    top = int(np.minimum(keys.max(axis=0), len(table)).sum())  # clipped: no overflow
    if top >= len(table):
        raise UsageError(f"profile keys reach {top} or more, past the table's "
                         f"{len(table)} entries")
    if len(table) and not (table.min() >= 0 and table.max() < num_buckets):
        raise UsageError(f"profile table entries must lie in [0, {num_buckets})")
    return keys.astype(np.intp, copy=False), table.astype(np.intp, copy=False)


# ---------------------------------------------------------------------------
# Configuration weight


def log_config_weight(g: MultiGraph, p: SpinParams, bits: Sequence[int]) -> float:
    """log weight of one configuration; -inf iff some factor is zero."""
    if len(bits) != g.num_vertices:
        raise UsageError(
            f"configuration length {len(bits)} != num_vertices {g.num_vertices}")
    for b in bits:
        check_int("configuration entry", b, 0, 1)
    lb, lg = p.log_entries()
    total = math.log(p.mu) * sum(1 for b in bits if b == 0)
    for u, v, m in g.edges:
        s, t = bits[u], bits[v]
        if s == 0 and t == 0:
            if lb == LOG_ZERO:
                return LOG_ZERO
            total += m * lb
        elif s == 1 and t == 1:
            if lg == LOG_ZERO:
                return LOG_ZERO
            total += m * lg
    return total


# ---------------------------------------------------------------------------
# Exact partition sums (log domain, vectorized enumeration)


@lru_cache(maxsize=_LOW_BITS + 1)
def _low_tables(k: int):
    """Read-only tables of k low bits, shared by every problem
    (92 KB for all k <= 10): the bits of the codes x < 2**k (row j: bit j
    of each code) and, row x, the indices j + k * bit_j(x) into (w0, w1)."""
    bits = ((np.arange(1 << k) >> np.arange(k)[:, None]) & 1).astype(np.uint8)
    gather = (bits.T * k + np.arange(k)).astype(np.int32, order="C")
    for table in (bits, gather):
        table.flags.writeable = False
    return bits, gather


def _pair_logs(bits: np.ndarray, records) -> np.ndarray:
    """Sum of edge log factors at each configuration, whose free spin j is
    in row j of `bits`: a record (a, b, log00, log11) adds log00 where spins
    a and b are both 0 and log11 where both are 1."""
    if not records:
        return np.zeros(bits.shape[1])
    a, b, l00, l11 = (np.array(col) for col in zip(*records))
    # record r at spin sum s takes factor 3 r + s; np.take lays the factors
    # out C-ordered by configuration, which fixes the order of the row sums
    factors = np.array((l00, np.zeros(len(a)), l11)).T.ravel()
    index = bits[a] + bits[b] + np.arange(0, 3 * len(a), 3)[:, None]
    return np.take(factors, index.T).sum(axis=1)


def _spin_problem(g: MultiGraph, p: SpinParams, fixed: Dict[int, int],
                  profile=None, num_buckets: int = 1) -> "_Problem":
    """The kernel's front end: the pins substituted into the log factors,
    and the profile's keys cut to the free spins, the pins' keys shifting
    the table as their factors shift the constant."""
    lb, lg = p.log_entries()
    lmu = math.log(p.mu)
    free = [v for v in range(g.num_vertices) if v not in fixed]
    pos = {v: j for j, v in enumerate(free)}
    nf = len(free)
    w0 = np.full(nf, lmu, dtype=float)
    w1 = np.zeros(nf, dtype=float)
    const = lmu * sum(1 for v in fixed if fixed[v] == 0)
    ff = []
    for u, v, m in g.edges:
        su, sv = fixed.get(u), fixed.get(v)
        if su is None and sv is None:
            ff.append((pos[u], pos[v], m * lb, m * lg))
        elif su is None or sv is None:  # one end pinned to spin s
            w, s = (pos[u], sv) if su is None else (pos[v], su)
            (w1 if s else w0)[w] += m * (lg if s else lb)
        elif su == sv:
            const += m * (lg if su else lb)
    if profile is not None:
        keys, table = profile
        profile = keys[:, free], table[sum(int(keys[s, v]) for v, s in fixed.items()):]
    return _Problem(w0, w1, const, ff, profile, num_buckets)


class _Problem:
    """The kernel's core, over the free-spin form that _spin_problem builds:
    log factors w0, w1 of each spin at 0 and 1, a constant, pair records
    (a, b, log00, log11) with a < b, and a profile (keys, table) or None.

    Free spin j is bit j of the configuration code.  The code splits into k
    low bits x and h high bits y, and the log weight is

        q_lo[x] + q_hi[y] + sum over high v of cols[y_v, v][x]

    where q_lo holds the constant, the low spins' factors and the low-low
    records, q_hi the high-high records (evaluated per block, so memory
    stays bounded), and cols[s, v] high spin v's factor at spin s plus its
    records with low spins.  A block fixes the top h - b high bits and
    tabulates its 2**b x 2**k log-weights by doubling over the b free high
    bits, so the kernel only adds log factors: no product can meet
    -inf * 0 or inf - inf.  The key splits the same way, into k_lo[x] plus
    steps @ y: k_lo holds the low spins' keys and every high spin's key at
    0, steps each high spin's key at 1 less its key at 0.  Set-up gathers
    q_lo and k_lo through _low_tables and takes no per-configuration step.
    """

    def __init__(self, w0: np.ndarray, w1: np.ndarray, const: float, ff,
                 profile=None, num_buckets: int = 1):
        self.k = k = min(len(w0), _LOW_BITS)
        self.h = h = len(w0) - k
        self.b = min(h, _BLOCK_BITS - k)
        bits, gather = _low_tables(k)
        self.q_lo = (const + np.take(np.concatenate((w0[:k], w1[:k])), gather).sum(axis=1)
                     + _pair_logs(bits, [r for r in ff if r[1] < k]))
        self.cols = np.repeat(np.array((w0[k:], w1[k:]))[:, :, None], 1 << k, axis=2)
        for a, c, l00, l11 in ff:
            if a < k <= c:
                self.cols[0, c - k] += np.where(bits[a], 0.0, l00)
                self.cols[1, c - k] += np.where(bits[a], l11, 0.0)
        self.hi_edges = [(a - k, c - k, l00, l11) for a, c, l00, l11 in ff if a >= k]
        self.num_buckets, self.profile = num_buckets, profile
        if profile is not None:
            keys, table = profile
            k_lo = np.take(keys[:, :k].ravel(), gather).sum(axis=1) + keys[0, k:].sum()
            self.profile = k_lo, keys[1, k:] - keys[0, k:], table

    @property
    def num_blocks(self) -> int:
        return 1 << (self.h - self.b)

    def scratch(self):
        """The arrays for block_histogram: the block's log-weights,
        and with a profile its keys, its buckets and the buckets' shifts.
        Reusing them spares each block fresh pages."""
        shape = (1 << self.b, 1 << self.k)
        if self.profile is None:
            return (np.empty(shape),)
        return (np.empty(shape), np.empty(shape, dtype=np.intp),
                np.empty(shape, dtype=np.intp), np.empty(shape))

    def block_table(self, index: int, table: np.ndarray) -> np.ndarray:
        """Build block `index`'s log-weights in `table` (overwritten), row r at
        high bits index * 2**b + r, and return those bits, row v spin v's."""
        y = np.arange(index << self.b, (index + 1) << self.b)
        table[0] = self.q_lo
        for v in range(self.b, self.h):
            table[0] += self.cols[(y[0] >> v) & 1, v]
        for v in range(self.b):
            n = 1 << v
            np.add(table[:n], self.cols[1, v], out=table[n:2 * n])
            table[:n] += self.cols[0, v]
        high_bits = (y >> np.arange(self.h)[:, None]) & 1
        if self.hi_edges:  # adding zeros would change no sum, only a zero's sign
            table += _pair_logs(high_bits, self.hi_edges)[:, None]
        return high_bits

    def block_histogram(self, index: int, table: np.ndarray, key=None,
                        bucket=None, shifts=None):
        """log of the sum over block `index`, built in scratch()'s arrays
        (overwritten): a float without a profile, else one entry per bucket."""
        high_bits = self.block_table(index, table)
        if self.profile is None:  # one bucket holds every configuration
            return log_sum_exp_inplace(table)
        k_lo, steps, buckets = self.profile
        np.add((steps @ high_bits)[:, None], k_lo, out=key)
        np.take(buckets, key, out=bucket, mode="clip")  # "raise" would buffer
        return log_sum_exp_by_bucket(table, bucket, self.num_buckets, shifts)

    def best(self) -> Tuple[float, int]:
        """The largest log-weight and its lowest code: each block's first argmax."""
        table, best, code = np.empty((1 << self.b, 1 << self.k)), -math.inf, 0
        for i in range(self.num_blocks):
            self.block_table(i, table)
            j = int(np.argmax(table))
            if table.flat[j] > best:
                best, code = float(table.flat[j]), (i << (self.b + self.k)) + j
        return best, code


def _checked_pins(g: MultiGraph, fixed: Optional[Dict[int, int]]) -> Dict[int, int]:
    """A copy of the pins; a vertex out of range or a spin other than 0 or
    1 raises UsageError."""
    fixed = dict(fixed or {})
    for v, s in fixed.items():
        check_int("fixed vertex", v, 0, g.num_vertices - 1)
        check_int("fixed spin", s, 0, 1)
    return fixed


def log_partition_histogram(g: MultiGraph, p: SpinParams, profile, num_buckets: int,
                            *, fixed: Optional[Dict[int, int]] = None,
                            max_vertices: int = DEFAULT_MAX_VERTICES) -> np.ndarray:
    """log of the exact partition sum per bucket of a zero-count profile.

    `profile` is (keys, table), as in the comment above, or None, which
    puts every configuration in bucket 0.  Entry j is the log-sum over the
    configurations in bucket j, and -inf (an empty sum) where there are
    none.  `fixed` pins chosen vertices to given spins; only the remaining
    vertices are enumerated, and the cap applies to their number.

    The kernel splits the free spins into up to 10 low and the remaining high
    bits.  It tabulates the low bits' log-weights once, then enumerates the
    high configurations in blocks of fixed size (at most 2**16 log-weights
    each), building every block by doubling: each free high spin doubles the
    table by adding its spin-0 and spin-1 columns.  A key also splits into
    a low and a high part, so a block's keys are one broadcast add and its
    buckets one table lookup.  Each block is reduced per bucket by a
    log-sum-exp shifted by the bucket's own maximum (without a profile the
    bucketing is skipped), and the block histograms are merged by a
    fixed pairwise tree as they come, so the loop holds one histogram per
    tree level.  A call's fixed cost is about 25 numpy calls of set-up, one
    step per edge and about 15 calls per block; only the read-only tables
    of k low bits outlive it, cached once per k for the process (92 KB in
    all).
    """
    if check_int("num_buckets", num_buckets, 1, math.inf) > MAX_BUCKETS:
        raise ResourceLimitError(f"{shown(num_buckets)} buckets exceed cap {MAX_BUCKETS}")
    fixed = _checked_pins(g, fixed)
    if profile is not None:
        profile = _checked_profile(profile, g.num_vertices, num_buckets)
    nf = g.num_vertices - len(fixed)
    if nf > check_int("max_vertices", max_vertices, -math.inf, math.inf):
        raise ResourceLimitError(f"{nf} free vertices exceeds cap max_vertices={max_vertices}")
    prob = _spin_problem(g, p, fixed, profile, num_buckets)

    scratch, tree = prob.scratch(), []
    for i in range(prob.num_blocks):
        pairwise_add(tree, i, prob.block_histogram(i, *scratch))
    hist = pairwise_root(tree)  # without a profile, bucket 0 holds every configuration
    return hist if profile is not None else np.append(hist, np.full(num_buckets - 1, LOG_ZERO))


def log_partition(g: MultiGraph, p: SpinParams, *,
                  fixed: Optional[Dict[int, int]] = None,
                  max_vertices: int = DEFAULT_MAX_VERTICES, threads: int = 1) -> float:
    """log of the exact partition sum over all configurations that agree
    with the pins in `fixed`; -inf (an empty sum) when none has positive
    weight.  This is the one bucket of log_partition_histogram without a
    profile.  `threads`, an integer of at least 1, is accepted and unused.
    """
    check_int("threads", threads, 1, math.inf)
    return float(log_partition_histogram(g, p, None, 1, fixed=fixed,
                                         max_vertices=max_vertices)[0])


def partition_fraction(g: MultiGraph, beta, gamma, mu=1, *,
                       fixed: Optional[Dict[int, int]] = None) -> Fraction:
    """Exact rational partition sum (linear domain) for rational parameters,
    over the configurations that agree with the pins in `fixed`.

    Arbitrary-precision oracle for the log-domain path; no tolerances.
    """
    SpinParams(beta, gamma, mu)  # the weights' contract; kept exact below
    beta, gamma, mu = Fraction(beta), Fraction(gamma), Fraction(mu)
    fixed = _checked_pins(g, fixed)
    free = [v for v in range(g.num_vertices) if v not in fixed]
    nf = len(free)
    if nf > MAX_FRACTION_VERTICES:
        raise ResourceLimitError(
            f"{nf} free vertices exceeds cap {MAX_FRACTION_VERTICES}")
    total = Fraction(0)
    for config in range(1 << nf):
        bits = dict(fixed)
        for j, v in enumerate(free):
            bits[v] = (config >> j) & 1
        w = mu ** sum(1 for v in range(g.num_vertices) if bits[v] == 0)
        for u, v, m in g.edges:
            s, t = bits[u], bits[v]
            if s == 0 and t == 0:
                w *= beta ** m
            elif s == 1 and t == 1:
                w *= gamma ** m
            if w == 0:
                break
        total += w
    return total


# ---------------------------------------------------------------------------
# Profile-restricted sums over bipartite gadgets


def log_profile_sums(h: BipartiteGadget, p: SpinParams, delta_prime: int) -> np.ndarray:
    """log of the gadget sum at every zero profile, from one enumeration.

    Entry [an, bn] sums the edge weight of every assignment that puts
    exactly an zeros on the left side and bn on the right, times a boundary
    factor gamma**(delta_prime * (2N - an - bn)) accounting for delta_prime
    outside edges per vertex whose partners are all in state 1; it is -inf
    where that sum is zero.  The enumeration buckets every configuration by
    its key zeros(left) * (N + 1) + zeros(right), (N + 1)**2 buckets of
    log_partition_histogram.

    The external field plays no role at this level: pass mu == 1 (translate
    a field away first if needed).
    """
    if p.mu != 1.0:
        raise UsageError("profile sums are defined for mu == 1; translate the field first")
    check_int("delta_prime", delta_prime, 0, INT64_MAX, floats=True)
    n = h.side_size
    if n > MAX_PROFILE_SIDE:
        raise ResourceLimitError(f"side size {n} exceeds cap {MAX_PROFILE_SIDE}")
    keys = np.zeros((2, h.graph.num_vertices), dtype=np.intp)
    keys[0, list(h.left)], keys[0, list(h.right)] = n + 1, 1
    hist = log_partition_histogram(h.graph, p, (keys, np.arange((n + 1) ** 2)), (n + 1) ** 2)
    # by the zero total an + bn; scaled_log keeps gamma = 0 from meeting 0 * -inf
    boundary = np.array([scaled_log(p.gamma, delta_prime * (2 * n - s))
                         for s in range(2 * n + 1)])
    return hist.reshape(n + 1, n + 1) + boundary[np.add.outer(range(n + 1), range(n + 1))]


def log_profile_sum(h: BipartiteGadget, p: SpinParams, delta_prime: int,
                    a: float, b: float) -> float:
    """log of the gadget sum over assignments with zero fractions a on the
    left and b on the right: entry [a*N, b*N] of log_profile_sums."""
    an, bn = _integral_fraction(a, h.side_size, "a"), _integral_fraction(b, h.side_size, "b")
    return float(log_profile_sums(h, p, delta_prime)[an, bn])


def _integral_fraction(x: float, n: int, name: str) -> int:
    check_real(name, x, 0, 1)
    count = x * n
    rounded = round(count)
    if abs(count - rounded) > 1e-9:
        raise UsageError(f"{name} * N = {count} is not an integer")
    return int(rounded)


# ---------------------------------------------------------------------------
# External-field translation (regular graphs)


def remove_field(p: SpinParams, d: int) -> Tuple[SpinParams, float]:
    """Fold the field into the interaction weights on d-regular graphs.

    Returns the field-free parameters (beta * mu**(1/d), gamma * mu**(-1/d), 1)
    and the per-edge log prefactor log(mu)/d; the caller multiplies by |E|.
    """
    check_int("degree", d, 1, INT64_MAX, floats=True)
    shift = p.mu ** (1.0 / d)
    return SpinParams(p.beta * shift, p.gamma / shift, 1.0), math.log(p.mu) / d


@dataclass(frozen=True)
class FieldIdentityReport:
    log_lhs: float
    log_rhs: float
    gap: float  # |lhs - rhs| / max(1, |lhs|), log domain

    @property
    def passed(self) -> bool:
        return self.gap <= 1e-9


def field_identity_report(g: MultiGraph, p: SpinParams) -> FieldIdentityReport:
    """Compare the fielded partition sum against its field-free translation.

    On a d-regular graph the two sides agree exactly; the report carries the
    observed log-domain gap.
    """
    p_prime, per_edge = remove_field(p, g.regular_degree())
    lhs = log_partition(g, p)
    rhs = g.num_edges * per_edge + log_partition(g, p_prime)
    gap = abs(lhs - rhs) / max(1.0, abs(lhs))
    return FieldIdentityReport(lhs, rhs, gap)
