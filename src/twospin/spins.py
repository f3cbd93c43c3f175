"""Two-state spin systems: interaction weights and exact partition sums.

A system assigns each vertex a state in {0, 1}.  An edge contributes weight
beta when both ends are 0, gamma when both are 1, and 1 when mixed; an
external field mu multiplies the weight once per 0-vertex.  The weight of a
configuration sigma is

    mu**#zeros(sigma) * prod_edges entry(sigma_u, sigma_v)**mult

and the partition function is the sum of these weights over all 2**n
configurations (optionally restricted by side constraints on zero-counts).
Everything is computed in the log domain (see logspace): exponents like
beta**(delta * m**2) make linear floats useless here.

Enumeration order is the ascending integer encoding of the configuration,
with vertex 0 as the least significant bit.
"""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ResourceLimitError, UsageError
from .graphs import BipartiteGadget, MultiGraph
from .logspace import (LOG_ZERO, log_sum_exp, log_sum_exp_inplace,
                       log_sum_exp_pairwise, scaled_log)

DEFAULT_MAX_VERTICES = 28
MAX_FRACTION_VERTICES = 20  # free vertices of the exact rational oracle
MAX_PROFILE_SIDE = 12       # gadget side of the profile-restricted sum
_LOW_BITS = 10    # free spins tabulated along the columns of a block table
_BLOCK_BITS = 16  # a block table holds at most 2**_BLOCK_BITS log-weights


@dataclass(frozen=True)
class SpinParams:
    """Interaction weights (beta, gamma) and external field mu on spin 0."""

    beta: float
    gamma: float
    mu: float = 1.0

    def __post_init__(self):
        if not (self.beta >= 0 and math.isfinite(self.beta)):
            raise UsageError(f"beta must be a finite nonnegative real, got {self.beta}")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise UsageError(f"gamma must be a finite nonnegative real, got {self.gamma}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise UsageError(f"mu must be a finite positive real, got {self.mu}")

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
# Side constraints on zero-counts of vertex sets
#
# Each constraint names its vertex sets (`sets`) and answers, for given
# zero-counts of those sets, whether a configuration is admitted (`admits`).
# The zero-counts may be ints or integer arrays; the answer has their shape.


@dataclass(frozen=True)
class CountRange:
    """lo <= #zeros(vertices) <= hi."""

    vertices: Tuple[int, ...]
    lo: int
    hi: int

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not (0 <= self.lo <= self.hi <= len(self.vertices)):
            raise UsageError(
                f"CountRange needs 0 <= lo <= hi <= |set|, got lo={self.lo} "
                f"hi={self.hi} |set|={len(self.vertices)}")

    @property
    def sets(self):
        return (self.vertices,)

    def admits(self, zeros):
        return (zeros >= self.lo) & (zeros <= self.hi)


@dataclass(frozen=True)
class CountLeq:
    """#zeros(fewer) <= #zeros(more)."""

    fewer: Tuple[int, ...]
    more: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "fewer", tuple(self.fewer))
        object.__setattr__(self, "more", tuple(self.more))

    @property
    def sets(self):
        return (self.fewer, self.more)

    def admits(self, zeros_fewer, zeros_more):
        return zeros_fewer <= zeros_more


@dataclass(frozen=True)
class MinCountAtMost:
    """min(#zeros(side_a), #zeros(side_b)) <= hi."""

    side_a: Tuple[int, ...]
    side_b: Tuple[int, ...]
    hi: int

    def __post_init__(self):
        object.__setattr__(self, "side_a", tuple(self.side_a))
        object.__setattr__(self, "side_b", tuple(self.side_b))
        if self.hi < 0:
            raise UsageError("MinCountAtMost needs hi >= 0")

    @property
    def sets(self):
        return (self.side_a, self.side_b)

    def admits(self, zeros_a, zeros_b):
        return (zeros_a <= self.hi) | (zeros_b <= self.hi)


SideConstraint = (CountRange, CountLeq, MinCountAtMost)


def _validate_constraints(constraints, num_vertices):
    for c in constraints:
        if not isinstance(c, SideConstraint):
            raise UsageError(f"unknown constraint type {type(c).__name__}")
        for vset in c.sets:
            for v in vset:
                if not 0 <= v < num_vertices:
                    raise UsageError(f"constraint references vertex {v} out of range")
            if len(set(vset)) != len(vset):
                raise UsageError("constraint vertex set has duplicates")


def _zero_count_masks(constraints, fixed, pos):
    """Per constraint, one (mask, base) per vertex set, so that the set's
    zero-count at a free configuration `config` is
    base - popcount(config & mask); bit pos[v] of the mask marks free v."""
    return [(c, [(sum(1 << pos[v] for v in vset if v not in fixed),
                  sum(1 for v in vset if fixed.get(v, 0) == 0))
                 for vset in c.sets])
            for c in constraints]


# ---------------------------------------------------------------------------
# Configuration weight


def log_config_weight(g: MultiGraph, p: SpinParams, bits: Sequence[int]) -> float:
    """log weight of one configuration; -inf iff some factor is zero."""
    if len(bits) != g.num_vertices:
        raise UsageError(
            f"configuration length {len(bits)} != num_vertices {g.num_vertices}")
    for b in bits:
        if b not in (0, 1):
            raise UsageError(f"configuration entries must be 0 or 1, got {b!r}")
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


def _pair_logs(codes: np.ndarray, records) -> np.ndarray:
    """Sum of edge log factors at each configuration code.

    A record (a, b, log00, log11) adds log00 where bits a and b of the code
    are both 0 and log11 where both are 1.
    """
    if not records:
        return np.zeros(len(codes))
    a, b, l00, l11 = (np.array(col) for col in zip(*records))
    ones = ((codes[:, None] >> a) & 1) + ((codes[:, None] >> b) & 1)
    return np.where(ones == 0, l00, np.where(ones == 2, l11, 0.0)).sum(axis=1)


class _Problem:
    """Enumeration of the free spins after substituting the pinned ones.

    Free spin j is bit j of the configuration code.  The code splits into k
    low bits x and h high bits y, and the log weight is

        q_lo[x] + q_hi[y] + sum over high v of cols[y_v, v][x]

    where q_lo holds the constant, the low spins' field and pinned-neighbour
    terms and the low-low edges, q_hi the high-high edges (evaluated per
    block, so memory stays bounded), and cols[s, v] high spin v's own terms
    at spin s plus its edges to low spins.  A block fixes the top h - b high
    bits and tabulates its 2**b x 2**k log-weights by doubling over the b
    free high bits, so the kernel only adds log factors: no product can meet
    -inf * 0 or inf - inf.
    """

    def __init__(self, g: MultiGraph, p: SpinParams, fixed: Dict[int, int],
                 constraints):
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
        self.k = k = min(nf, _LOW_BITS)
        self.h = h = nf - k
        self.b = min(h, _BLOCK_BITS - k)
        x = np.arange(1 << k)
        low_bits = ((x[:, None] >> np.arange(k)) & 1).astype(bool)
        self.q_lo = (const + np.where(low_bits, w1[:k], w0[:k]).sum(axis=1)
                     + _pair_logs(x, [r for r in ff if r[1] < k]))
        self.cols = np.empty((2, h, 1 << k))
        self.cols[0] = w0[k:, None]
        self.cols[1] = w1[k:, None]
        for a, c, l00, l11 in ff:
            if a < k <= c:
                self.cols[0, c - k] += np.where(low_bits[:, a], 0.0, l00)
                self.cols[1, c - k] += np.where(low_bits[:, a], l11, 0.0)
        self.hi_edges = [(a - k, c - k, l00, l11) for a, c, l00, l11 in ff if a >= k]
        # A set's zero-count is its low part base - popcount(x & low mask)
        # minus the popcount of its high mask in y.  Per constraint, `admitted`
        # answers for every low configuration and every combination of its
        # sets' high popcounts; a block looks its rows up by their popcounts.
        self.admitted = []
        for c, per_set in _zero_count_masks(constraints, fixed, pos):
            masks_hi = [mask >> k for mask, _ in per_set]
            grid = np.ix_(*(np.arange(m.bit_count() + 1) for m in masks_hi), x)
            zeros = [base - np.bitwise_count(grid[-1] & mask).astype(np.int64) - count
                     for (mask, base), count in zip(per_set, grid)]
            self.admitted.append((masks_hi, c.admits(*zeros)))

    @property
    def num_blocks(self) -> int:
        return 1 << (self.h - self.b)

    def block_log_sum(self, index: int, table: np.ndarray) -> float:
        """log of the sum over block `index`, built in `table`
        (2**b x 2**k floats, overwritten)."""
        rows = 1 << self.b
        y = np.arange(index * rows, (index + 1) * rows)
        table[0] = self.q_lo
        for v in range(self.b, self.h):
            table[0] += self.cols[(y[0] >> v) & 1, v]
        for v in range(self.b):
            n = 1 << v
            np.add(table[:n], self.cols[1, v], out=table[n:2 * n])
            table[:n] += self.cols[0, v]
        table += _pair_logs(y, self.hi_edges)[:, None]
        for masks_hi, admitted in self.admitted:
            ok = admitted[tuple(np.bitwise_count(y & m) for m in masks_hi)]
            np.copyto(table, LOG_ZERO, where=~ok)
        return log_sum_exp_inplace(table)


def log_partition(g: MultiGraph, p: SpinParams, constraints=(), *,
                  fixed: Optional[Dict[int, int]] = None,
                  max_vertices: int = DEFAULT_MAX_VERTICES,
                  force: bool = False, threads: int = 1) -> float:
    """log of the exact partition sum over all configurations.

    constraints restrict the sum to configurations whose zero-counts satisfy
    every given side constraint; an infeasible set yields -inf (an empty sum),
    not an error.  `fixed` pins chosen vertices to given spins; only the
    remaining vertices are enumerated, and the cap applies to their number.

    The kernel splits the free spins into up to 10 low and the remaining high
    bits.  It tabulates the low bits' log-weights once, then enumerates the
    high configurations in blocks of fixed size (at most 2**16 log-weights
    each), building every block by doubling: each free high spin doubles the
    table by adding its spin-0 and spin-1 columns.  A side constraint is a
    predicate on zero-counts, which also split into a low and a high part.
    Each block is reduced by a max-shifted log-sum-exp, and the block sums are
    merged by a fixed pairwise tree.  With threads > 1 the blocks are split
    across workers; since block sums and the tree do not depend on which
    worker produced them, neither does the result.
    """
    fixed = dict(fixed or {})
    for v, s in fixed.items():
        if not 0 <= v < g.num_vertices:
            raise UsageError(f"fixed vertex {v} out of range")
        if s not in (0, 1):
            raise UsageError(f"fixed spin must be 0 or 1, got {s!r}")
    constraints = tuple(constraints)
    _validate_constraints(constraints, g.num_vertices)
    nf = g.num_vertices - len(fixed)
    if nf > max_vertices and not force:
        raise ResourceLimitError(
            f"{nf} free vertices exceeds cap {max_vertices}; pass force=True")
    prob = _Problem(g, p, fixed, constraints)

    def run(indices):
        table = np.empty((1 << prob.b, 1 << prob.k))
        return [prob.block_log_sum(i, table) for i in indices]

    nblocks = prob.num_blocks
    workers = min(threads, nblocks)
    if workers > 1:
        groups = [range(nblocks * w // workers, nblocks * (w + 1) // workers)
                  for w in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = [s for group in pool.map(run, groups) for s in group]
    else:
        parts = run(range(nblocks))
    return log_sum_exp_pairwise(parts)


def partition_fraction(g: MultiGraph, beta, gamma, mu=1, constraints=(), *,
                       fixed: Optional[Dict[int, int]] = None) -> Fraction:
    """Exact rational partition sum (linear domain) for rational parameters.

    Arbitrary-precision oracle for the log-domain path; no tolerances.
    """
    beta, gamma, mu = Fraction(beta), Fraction(gamma), Fraction(mu)
    if beta < 0 or gamma < 0 or mu <= 0:
        raise UsageError("need beta, gamma >= 0 and mu > 0")
    fixed = dict(fixed or {})
    constraints = tuple(constraints)
    _validate_constraints(constraints, g.num_vertices)
    free = [v for v in range(g.num_vertices) if v not in fixed]
    nf = len(free)
    if nf > MAX_FRACTION_VERTICES:
        raise ResourceLimitError(
            f"{nf} free vertices exceeds cap {MAX_FRACTION_VERTICES}")
    sets = _zero_count_masks(constraints, fixed, {v: j for j, v in enumerate(free)})
    total = Fraction(0)
    for config in range(1 << nf):
        if not all(c.admits(*(base - (config & mask).bit_count()
                               for mask, base in per_set))
                   for c, per_set in sets):
            continue
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


def log_profile_sum(h: BipartiteGadget, p: SpinParams, delta_prime: int,
                    a: float, b: float) -> float:
    """log of the gadget sum over assignments with fixed zero fractions.

    Sums the edge weight of every assignment that puts exactly a*N zeros on
    the left side and b*N zeros on the right (enumerating all
    C(N, aN) * C(N, bN) such assignments), times a boundary factor
    gamma**(delta_prime * (2 - a - b) * N) accounting for delta_prime outside
    edges per vertex whose partners are all in state 1.

    The external field plays no role at this level: pass mu == 1 (translate
    a field away first if needed).
    """
    if p.mu != 1.0:
        raise UsageError("profile sums are defined for mu == 1; translate the field first")
    if delta_prime < 0:
        raise UsageError("delta_prime must be nonnegative")
    n_side = h.side_size
    if n_side > MAX_PROFILE_SIDE:
        raise ResourceLimitError(f"side size {n_side} exceeds cap {MAX_PROFILE_SIDE}")
    an = _integral_fraction(a, n_side, "a")
    bn = _integral_fraction(b, n_side, "b")
    lb, lg = p.log_entries()
    left_pos = {v: i for i, v in enumerate(h.left)}
    right_pos = {v: i for i, v in enumerate(h.right)}
    records = []
    for u, v, m in h.graph.edges:
        if u in left_pos:
            records.append((left_pos[u], right_pos[v], m))
        else:
            records.append((left_pos[v], right_pos[u], m))
    a_masks = _subset_masks(n_side, an)
    b_masks = _subset_masks(n_side, bn)
    logw = np.zeros((len(a_masks), len(b_masks)), dtype=float)
    for iu, iv, m in records:
        za = ((a_masks >> np.uint64(iu)) & np.uint64(1)).astype(bool)
        zb = ((b_masks >> np.uint64(iv)) & np.uint64(1)).astype(bool)
        logw = logw + np.where(za[:, None] & zb[None, :], m * lb, 0.0)
        logw = logw + np.where(~za[:, None] & ~zb[None, :], m * lg, 0.0)
    boundary = scaled_log(p.gamma, delta_prime * (2 * n_side - an - bn))
    return log_sum_exp(logw.ravel()) + boundary


def _integral_fraction(x: float, n: int, name: str) -> int:
    if not 0 <= x <= 1:
        raise UsageError(f"{name} must lie in [0, 1], got {x}")
    count = x * n
    rounded = round(count)
    if abs(count - rounded) > 1e-9:
        raise UsageError(f"{name} * N = {count} is not an integer")
    return int(rounded)


def _subset_masks(n: int, k: int) -> np.ndarray:
    masks = [sum(1 << i for i in combo)
             for combo in itertools.combinations(range(n), k)]
    return np.array(masks, dtype=np.uint64)


# ---------------------------------------------------------------------------
# External-field translation (regular graphs)


def remove_field(p: SpinParams, d: int) -> Tuple[SpinParams, float]:
    """Fold the field into the interaction weights on d-regular graphs.

    Returns the field-free parameters (beta * mu**(1/d), gamma * mu**(-1/d), 1)
    and the per-edge log prefactor log(mu)/d; the caller multiplies by |E|.
    """
    if d < 1:
        raise UsageError("degree must be >= 1")
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


def field_identity_report(g: MultiGraph, p: SpinParams, *,
                          threads: int = 1) -> FieldIdentityReport:
    """Compare the fielded partition sum against its field-free translation.

    On a d-regular graph the two sides agree exactly; the report carries the
    observed log-domain gap.
    """
    d = g.regular_degree()
    if d < 1:
        raise UsageError("field translation needs degree >= 1")
    lhs = log_partition(g, p, threads=threads)
    p_prime, per_edge = remove_field(p, d)
    rhs = g.num_edges * per_edge + log_partition(g, p_prime, threads=threads)
    gap = abs(lhs - rhs) / max(1.0, abs(lhs))
    return FieldIdentityReport(lhs, rhs, gap)
