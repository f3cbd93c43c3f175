"""Gadget reduction from equation systems to spin-system graphs.

For an instance with m equations and occurrence counts d_i, each variable i
gets two vertex sets U_i and V_i of d_i * t vertices each (block size t; the
published construction uses t = m), split into per-occurrence blocks of t.
Equation s with right-hand side b wires its two variables' occurrence blocks
with delta_prime parallel edges, componentwise:

    b = 0:  (u_s, v'_s) and (v_s, u'_s)
    b = 1:  (u_s, u'_s) and (v_s, v'_s)

after which every vertex has inter-gadget degree delta_prime.  Then each
variable receives a random bipartite gadget on U_i + V_i: the union of delta
independent uniform perfect matchings.  The result is a
(delta + delta_prime)-regular multigraph on 4*m*t vertices.

All partition sums here live in the mu = 1 world; callers with an external
field translate it away first (remove_field).
"""

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Dict, Sequence, Tuple

import numpy as np

from .e2lin2 import E2Lin2Instance, occurrence_counts, satisfied_count
from .errors import (FLOAT_MAX, INT64_MAX, RegimeError, ResourceLimitError, UsageError,
                     check_int, check_real, shown)
from .graphs import (BipartiteGadget, MultiGraph, digit_lines, int_fields, read_ascii,
                     read_records, records_to_text, write_ascii)
from .logspace import LOG_ZERO, log_add, log_sum_exp, scaled_log
from .spins import SpinParams, log_partition, log_partition_histogram
from .uniqueness import SplitCase

MAX_REDUCTION_VERTICES = 24       # free vertices of every exact reduction sum
MAX_GADGET_DRAW = 1 << 20         # delta * (N + 4), a draw costing 4 entries: 1.1 s, 380 MB
MAX_REDUCTION_RECORDS = 1 << 20   # edge records 2 m t (delta + 1): `reduce` 0.8 s, 180 MB


@dataclass(frozen=True)
class GadgetParams:
    delta: int         # intra-gadget matchings
    delta_prime: int   # inter-gadget edge multiplicity
    block_size: int    # t; the published construction has t = m
    seed: int

    def __post_init__(self):  # kept as Python ints, whose products cannot wrap
        for name, lo in (("delta", 1), ("delta_prime", 1), ("block_size", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo, math.inf))


def gadget_seed(master_seed: int, index: int) -> "np.random.SeedSequence":
    """Per-gadget seed derived from the master seed and the gadget index.

    The derivation depends only on (master_seed, index), so adding variables
    never reshuffles earlier gadgets.
    """
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))


def sample_gadget(n_side: int, delta: int, seed) -> BipartiteGadget:
    """Union of delta independent uniform perfect matchings on N + N vertices.

    Left side is vertices 0..N-1, right side N..2N-1; parallel matchings
    aggregate into edge multiplicities.  `seed` may be an int or a
    numpy SeedSequence.
    """
    n_side, delta = check_int("n_side", n_side, 1, math.inf), check_int("delta", delta, 1, math.inf)
    if delta * (n_side + 4) > MAX_GADGET_DRAW:
        raise ResourceLimitError(
            f"delta * (side + 4) = {shown(delta * (n_side + 4))} exceeds cap {MAX_GADGET_DRAW}")
    rng = np.random.default_rng(seed if isinstance(seed, np.random.SeedSequence)
                                else check_int("seed", seed, 0, math.inf))
    return BipartiteGadget.from_matchings(
        np.array([rng.permutation(n_side) for _ in range(delta)]))


@dataclass(frozen=True)
class ReductionGraph:
    """The constructed graph plus the block bookkeeping that ties it back: `blocks`,
    a read-only (4m, t) int64 array of one block's ids per row, by (variable, side,
    occurrence); `u_blocks` and `v_blocks` give it as tuples, built on first use."""

    graph: MultiGraph
    blocks: np.ndarray = field(compare=False)  # compared by __eq__, not hashed
    params: GadgetParams
    instance: E2Lin2Instance

    def __post_init__(self):
        self.blocks.setflags(write=False)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.graph == other.graph and self.params == other.params
                and self.instance == other.instance and np.array_equal(self.blocks, other.blocks))

    @cached_property
    def _views(self):
        rows = self.blocks.tolist()
        return tuple(tuple(tuple(map(tuple, rows[side])) for side in sides)
                     for sides in zip(*_side_rows(occurrence_counts(self.instance))))

    u_blocks = property(lambda self: self._views[0])
    v_blocks = property(lambda self: self._views[1])

    def u_side(self, i: int) -> Tuple[int, ...]:
        return sum(self.u_blocks[i], ())

    def v_side(self, i: int) -> Tuple[int, ...]:
        return sum(self.v_blocks[i], ())

    @property
    def block_size(self) -> int:
        return self.params.block_size


def _side_rows(occ):
    """Per variable, the row slices of its U and V blocks, from the occurrence counts."""
    return [(slice(2 * c, 2 * c + d), slice(2 * c + d, 2 * (c + d)))
            for d, c in zip(occ, accumulate(occ, initial=0))]


def _inter_gadget_wiring(inst: E2Lin2Instance, blocks) -> np.ndarray:
    """The records that the equations prescribe, each of multiplicity
    delta_prime, as a (2, k) array of their endpoints.

    Equation s joins the next unused occurrence block of each of its two
    variables, componentwise: U to V' and V to U' when b = 0, U to U' and V
    to V' when b = 1.  The -1s that pad a short block's row are paired as ids.
    """
    occ = occurrence_counts(inst)
    first = [u.start for u, _ in _side_rows(occ)]  # each variable's next unused U row
    rows = [[], []]
    for i, j, b in inst.equations:
        k, ell = first[i], first[j]
        first[i] += 1
        first[j] += 1
        rows[0] += (k, k + occ[i])
        rows[1] += (ell + occ[j], ell) if b == 0 else (ell, ell + occ[j])
    return blocks[rows].reshape(2, -1)


def build_reduction_graph(inst: E2Lin2Instance, params: GadgetParams) -> ReductionGraph:
    """Construct the reduction graph; deterministic for a given seed."""
    if not inst.is_normalized():
        raise UsageError("instance has unused variables; normalize it first")
    t = params.block_size
    records = 2 * inst.num_equations * t * (params.delta + 1)
    if records > MAX_REDUCTION_RECORDS:
        raise ResourceLimitError(
            f"{shown(records)} edge records exceed cap {MAX_REDUCTION_RECORDS}")
    num_vertices = 4 * inst.num_equations * t
    blocks = np.arange(num_vertices).reshape(-1, t)
    wiring = _inter_gadget_wiring(inst, blocks)
    lefts, rights = [wiring[0]], [wiring[1]]
    for i, (u, v) in enumerate(_side_rows(occurrence_counts(inst))):
        rng = np.random.default_rng(gadget_seed(params.seed, i))
        u_side, v_side = blocks[u].ravel(), blocks[v].ravel()
        for _ in range(params.delta):
            lefts.append(u_side)
            rights.append(v_side[rng.permutation(v_side.size)])
    mults = np.ones(num_vertices * params.delta // 2 + wiring.shape[1], dtype=np.int64)
    mults[:wiring.shape[1]] = params.delta_prime
    graph = MultiGraph.from_columns(num_vertices, np.concatenate(lefts),
                                    np.concatenate(rights), mults)
    return ReductionGraph(graph, blocks, params, inst)


@dataclass(frozen=True)
class StructureAudit:
    regular: bool
    degree: int
    expected_degree: int
    vertex_count: int
    expected_vertex_count: int
    intra_multiplicities_ok: bool
    inter_multiplicities_ok: bool
    block_sizes_ok: bool
    wiring_ok: bool  # inter-gadget edges are exactly those the equations prescribe

    @property
    def passed(self) -> bool:
        return (self.regular and self.degree == self.expected_degree
                and self.vertex_count == self.expected_vertex_count
                and self.intra_multiplicities_ok and self.inter_multiplicities_ok
                and self.block_sizes_ok and self.wiring_ok)


def audit_reduction_graph(rg: ReductionGraph) -> StructureAudit:
    """Regularity, vertex-count, per-vertex multiplicity and wiring checks."""
    g = rg.graph
    params = rg.params
    inst = rg.instance
    m = inst.num_equations
    t = params.block_size
    n = g.num_vertices
    blocks = rg.blocks
    # one slot past the vertices takes the writes of the -1s that pad a short block
    owner = np.full(n + 1, -1)
    owner[blocks] = np.repeat(np.arange(inst.num_vars),
                              [2 * d for d in occurrence_counts(inst)])[:, None]
    table = g.edge_columns
    u, v, mult = table
    cross = owner[u] != owner[v]
    # per-vertex sums within gadgets (bins 0..n-1) and across them (n..2n-1),
    # as doubles: exact, as the graph contract keeps every degree within 2**53
    sums = np.bincount((table[:2] + n * cross).ravel(), np.concatenate((mult, mult)), 2 * n)
    intra, inter = sums[:n], sums[n:]
    degrees = intra + inter
    # every vertex lies in one block and every block is wired once, so the
    # prescribed records are those of a partner map, -1 where a pair is
    # padded; the graph's inter-gadget records must be all of them
    ends, partners = _inter_gadget_wiring(inst, blocks)
    partner = np.full(n + 1, -1)
    partner[ends] = partners
    partner[partners] = ends
    paired = int(np.count_nonzero(partner[:n] >= 0))
    fu, fv, fm = table[:, cross.nonzero()[0]]
    wiring_ok = 2 * fu.size == paired and not (
        np.count_nonzero(partner[fu] != fv) or np.count_nonzero(fm != params.delta_prime))
    return StructureAudit(
        regular=n > 0 and not np.count_nonzero(degrees != degrees[0]),
        degree=int(degrees[0]) if n else 0,
        expected_degree=params.delta + params.delta_prime,
        vertex_count=g.num_vertices,
        expected_vertex_count=4 * m * t,
        intra_multiplicities_ok=not np.count_nonzero(intra != params.delta),
        inter_multiplicities_ok=not np.count_nonzero(inter != params.delta_prime),
        block_sizes_ok=blocks.shape[1] == t and paired == 2 * ends.size,
        wiring_ok=wiring_ok,
    )


# ---------------------------------------------------------------------------
# Bound constants


@dataclass(frozen=True)
class BoundsConstants:
    log_c: float
    log_d: float
    case: SplitCase


@lru_cache(maxsize=64)
def _polarized_factors(p: SpinParams, delta: int, delta_prime: int) -> Tuple[float, float]:
    """(log satisfied factor, log unsatisfied factor) of the polarized sum.

    satisfied   = 1 + 2*gamma**(delta+delta_prime) + gamma**(2*(delta+delta_prime))
    unsatisfied = (beta*gamma)**delta_prime + the same two trailing terms
    """
    lg = scaled_log(p.gamma, 1)
    lbg = scaled_log(p.beta, delta_prime) + scaled_log(p.gamma, delta_prime)
    dd = delta + delta_prime
    tail = [math.log(2) + dd * lg if lg != LOG_ZERO else LOG_ZERO,
            2 * dd * lg if lg != LOG_ZERO else LOG_ZERO]
    log_sat = log_sum_exp([0.0] + tail)
    log_unsat = log_sum_exp([lbg] + tail)
    return log_sat, log_unsat


def bounds_constants(p: SpinParams, delta: int, delta_prime: int,
                     case: SplitCase) -> BoundsConstants:
    """Constants (C, D) of the bracketing Z-bounds, in log domain.

    For the two beta <= gamma**L cases, C is the unsatisfied polarized factor
    and D the satisfied/unsatisfied ratio; for the remaining case,
    C = (beta*gamma)**delta_prime and D = 1/C.  D > 1 whenever
    beta*gamma < 1 and (beta, gamma) != (0, 0), (1, 1).
    """
    if p.beta * p.gamma >= 1:
        raise RegimeError("bound constants need beta*gamma < 1")
    check_int("delta", delta, 1, INT64_MAX, floats=True)
    check_int("delta_prime", delta_prime, 1, INT64_MAX, floats=True)
    case = SplitCase(case)
    if case is SplitCase.BETA_ABOVE_GAMMA_POWER:
        if p.beta <= 0 or p.gamma <= 0:
            raise RegimeError("the reciprocal-pair form needs beta, gamma > 0")
        log_c = delta_prime * (math.log(p.beta) + math.log(p.gamma))
        return BoundsConstants(log_c=log_c, log_d=-log_c, case=case)
    # the two remaining cases share one formula; the label only records which
    # derived lower bound on D applies
    log_sat, log_unsat = _polarized_factors(p, delta, delta_prime)
    if log_unsat == LOG_ZERO:
        raise RegimeError("(beta, gamma) = (0, 0) has no positive lower-bound constant")
    return BoundsConstants(log_c=log_unsat, log_d=log_sat - log_unsat, case=case)


# ---------------------------------------------------------------------------
# Polarized restricted sums: closed form and brute force


def _require_flat_field(p: SpinParams):
    if p.mu != 1.0:
        raise UsageError("reduction sums are defined for mu == 1; "
                         "translate the field away first")


def _check_assignment(rg: ReductionGraph, bits: Sequence[int]):
    if len(bits) != rg.instance.num_vars:
        raise UsageError("assignment length does not match the instance")
    for b in bits:
        check_int("assignment entry", b, 0, 1)


def log_polarized_sum_closed(rg: ReductionGraph, bits: Sequence[int],
                             p: SpinParams) -> float:
    """Closed form of the fully-polarized restricted sum.

    Restricting each gadget's S-designated side to all-ones makes the sum
    factor over equations: satisfied equations contribute the satisfied
    factor per block column, unsatisfied ones the other, giving

        satisfied**(t * theta) * unsatisfied**(t * (m - theta)).
    """
    _require_flat_field(p)
    _check_assignment(rg, bits)
    theta = satisfied_count(rg.instance, bits)
    m = rg.instance.num_equations
    t = rg.block_size
    log_sat, log_unsat = _polarized_factors(
        p, rg.params.delta, rg.params.delta_prime)
    return t * theta * log_sat + t * (m - theta) * log_unsat


def polarized_fixed_spins(rg: ReductionGraph, bits: Sequence[int]) -> Dict[int, int]:
    """Spins forced by full polarization: the S-side of each gadget is all 1."""
    _check_assignment(rg, bits)
    sides = _side_rows(occurrence_counts(rg.instance))
    ids = np.concatenate([rg.blocks[side[b]] for b, side in zip(bits, sides)])
    return dict.fromkeys(ids.ravel().tolist(), 1)


def log_polarized_sum_brute(rg: ReductionGraph, bits: Sequence[int], p: SpinParams,
                            *, threads: int = 1) -> float:
    """Brute-force mate of log_polarized_sum_closed: enumerate the free half."""
    _require_flat_field(p)
    fixed = polarized_fixed_spins(rg, bits)
    return log_partition(rg.graph, p, fixed=fixed,
                         max_vertices=MAX_REDUCTION_VERTICES, threads=threads)


# ---------------------------------------------------------------------------
# Decoder and sandwich check


def decode_satisfied_estimate(log_estimate: float, n: int, m: int,
                              constants: BoundsConstants, *,
                              relative_error: float = 1e-4,
                              slack: float = 0.03) -> float:
    """Invert a partition-sum estimate into an equation-count estimate.

    Computes (log Y - log(1+eps) - n log 2 - m^2 log C - slack m^2 log D)
    / (m log D); strictly increasing in log Y since log D > 0.
    """
    check_real("log_estimate", log_estimate, -FLOAT_MAX, FLOAT_MAX)
    check_int("n", n, 1, INT64_MAX)
    check_int("m", m, 1, INT64_MAX)
    check_real("relative_error", relative_error, math.nextafter(-1.0, 0.0), FLOAT_MAX)
    check_real("slack", slack, -FLOAT_MAX, FLOAT_MAX)
    if constants.log_d <= 0:
        raise UsageError("decoder needs log D > 0")
    num = (log_estimate - math.log1p(relative_error) - n * math.log(2)
           - m * m * constants.log_c - slack * m * m * constants.log_d)
    estimate = num / (m * constants.log_d)
    if not math.isfinite(estimate):
        raise UsageError(f"decoded estimate {estimate} is not finite")
    return estimate


@dataclass(frozen=True)
class SandwichReport:
    log_total: float
    log_max_restricted: float
    log_sum_restricted: float
    tolerance: float

    @property
    def lower_ok(self) -> bool:
        return self.log_max_restricted <= self.log_total + self.tolerance

    @property
    def upper_ok(self) -> bool:
        return self.log_total <= self.log_sum_restricted + self.tolerance

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


def log_majority_sums(rg: ReductionGraph, p: SpinParams, *,
                      threads: int = 1) -> Tuple[float, np.ndarray]:
    """log Z(G) and the 2^n majority sums log Z(G,S), from one enumeration.

    The enumeration buckets every configuration by its majority signs, one
    base-3 digit per variable (3^n buckets): 0, 1, 2 for fewer zeros on
    U_i, a tie, fewer zeros on V_i.  Z(G) is the sum of all buckets; Z(G,S)
    keeps the digits {-, 0} of variable i where S_i = 0 and {0, +} where
    S_i = 1, so a tie counts for both.
    Folding each axis of the 3^n histogram into those two halves gives all
    2^n sums, at index sum_i S_i 2^i.
    """
    _require_flat_field(p)
    n, nv = rg.instance.num_vars, rg.graph.num_vertices
    if nv > MAX_REDUCTION_VERTICES:  # before a table of prod_i (|U_i| + |V_i| + 1) entries
        raise ResourceLimitError(
            f"{nv} free vertices exceeds cap max_vertices={MAX_REDUCTION_VERTICES}")
    # variable i's key digit zeros(U_i) + ones(V_i), in radix |U_i| + |V_i| + 1:
    # less |V_i|, it has the sign of zeros(U_i) - zeros(V_i)
    keys, table, place = np.zeros((2, nv), dtype=np.intp), np.zeros(1, dtype=np.intp), 1
    for i, (u, v) in enumerate(_side_rows(occurrence_counts(rg.instance))):
        u, v = rg.blocks[u], rg.blocks[v]
        keys[0, u] = keys[1, v] = place
        digit = 3 ** i * (np.sign(np.arange(u.size + v.size + 1) - v.size) + 1)
        table, place = np.add.outer(digit, table).ravel(), place * len(digit)
    hist = log_partition_histogram(rg.graph, p, (keys, table), 3 ** n,
                                   max_vertices=MAX_REDUCTION_VERTICES,
                                   threads=threads)
    # axis 0 is variable n - 1, so a C-order ravel indexes by sum_i S_i 2^i;
    # along each axis, (fewer, tie) plus (tie, more) gives the halves S_i = 0, 1
    sums = hist.reshape((3,) * n)
    for axis in range(n):
        head = (slice(None),) * axis
        sums = log_add(sums[head + (slice(0, 2),)], sums[head + (slice(1, 3),)])
    return log_sum_exp(hist), sums.ravel()


def sandwich_check(rg: ReductionGraph, p: SpinParams, *, tolerance: float = 1e-9,
                   threads: int = 1) -> SandwichReport:
    """Verify max_S Z(G,S) <= Z(G) <= sum_S Z(G,S) over all 2^n assignments,
    all from the one enumeration of log_majority_sums."""
    check_real("tolerance", tolerance, -FLOAT_MAX, FLOAT_MAX)
    log_total, parts = log_majority_sums(rg, p, threads=threads)
    return SandwichReport(
        log_total=log_total,
        log_max_restricted=float(parts.max()),
        log_sum_restricted=log_sum_exp(parts),
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Block-map sidecar format


def blocks_to_text(rg: ReductionGraph) -> str:
    """Sidecar that, together with the graph file, reconstructs the reduction.

    Header `p blocks n m t delta delta_prime seed`, the instance's equations
    as `e i j b` lines (1-based), then one `block U|V <var> <occ> <v...>`
    line per block (0-based vertex ids), in the order of `rg.blocks`.
    """
    inst, par = rg.instance, rg.params
    equations = [f"e {i + 1} {j + 1} {b}" for i, j, b in inst.equations]
    heads = [f"block {side} {i} {k}" for i, d in enumerate(occurrence_counts(inst))
             for side in "UV" for k in range(d)]
    ids = digit_lines([rg.blocks], (" ",)).split("\n")
    return records_to_text("blocks", (inst.num_vars, inst.num_equations, par.block_size,
                                      par.delta, par.delta_prime, par.seed),
                           equations + list(map(str.__add__, heads, ids)))


def blocks_from_text(text: str, graph: MultiGraph) -> ReductionGraph:
    """Parse a block-map sidecar against its graph, in one pass over its lines.

    Malformed text, and a block map inconsistent with its own header or
    with the graph (its structure, or equations that prescribe other
    inter-gadget edges than the graph has), raise UsageError naming the
    first fault.  A block line's ids that are ASCII digits and spaces are
    kept as text, and one numpy call converts all of them after the loop;
    any other line's ids are read by int() at that line.
    """
    records = read_records(text, "blocks", 6, 4)
    n, m, t, delta, delta_prime, seed = next(records)
    int_digits = sys.get_int_max_str_digits() or math.inf
    equations = []
    blocks = {}  # (side, var, occ) -> the vertex ids as ASCII digits and spaces
    for lineno, line, tokens in records:
        if tokens[0] == "e" and len(tokens) == 4:
            i, j, b = int_fields(tokens[1:], lineno, line)
            equations.append((i - 1, j - 1, b))
        elif tokens[0] == "block" and len(tokens) >= 5 and tokens[1] in ("U", "V"):
            i, k = int_fields(tokens[2:4], lineno, line)
            ids = tokens[4]
            plain = not ids.encode("ascii", "replace").translate(None, b" 0123456789")
            if not plain or len(ids) > int_digits and max(map(len, ids.split())) > int_digits:
                # int() reads other text, and refuses a run past its digit limit
                ids = " ".join(map(str, int_fields(ids.split(), lineno, line)))
            if (tokens[1], i, k) in blocks:
                raise UsageError(f"line {lineno}: duplicate block record {line!r}")
            blocks[(tokens[1], i, k)] = ids
        else:
            raise UsageError(f"line {lineno}: bad record {line!r}")
    if len(equations) != m:
        raise UsageError(f"header declares {m} equations, found {len(equations)}")
    inst = E2Lin2Instance(n, tuple(equations))
    if not inst.is_normalized():
        raise UsageError("block map instance has unused variables")
    if min(delta, delta_prime, t) < 1:
        raise UsageError("delta, delta_prime and block_size must all be >= 1")
    params = GadgetParams(delta, delta_prime, t, seed)
    occ = occurrence_counts(inst)
    keys = [(side, i, k) for i, d in enumerate(occ) for side in "UV" for k in range(d)]
    if blocks.keys() != set(keys):
        raise UsageError("block records do not match the variables' occurrences")
    size = graph.num_vertices
    # every id at once, in row order; one past int64 reads as its largest
    # value, which is out of range
    texts = [blocks[key] for key in keys]
    joined = " ".join(texts)
    covered = np.fromstring(joined, dtype=np.int64, sep=" ")
    if joined.count(" ") >= covered.size:  # some ids are apart by more than one space
        texts = [" ".join(ids.split()) for ids in texts]
    # as uint64 a negative id lies past every size
    partition = covered.size == size and covered.view(np.uint64).max() < size and (
        np.count_nonzero(np.bincount(covered)) == size)
    if not partition:
        raise UsageError("block records do not partition the graph's vertices")
    counts = [ids.count(" ") + 1 for ids in texts]
    width = max(counts)
    if covered.size == width * len(keys):
        ids = covered.reshape(-1, width)
    else:  # blocks of unequal length, each padded with -1s to the longest for the audit
        ids = np.full((len(keys), width), -1)
        ids[np.arange(width) < np.array(counts)[:, None]] = covered
    rg = ReductionGraph(graph, ids, params, inst)
    audit = audit_reduction_graph(rg)
    if not audit.wiring_ok:
        raise UsageError("block map equations do not match the graph's wiring")
    if not audit.passed:
        raise UsageError("graph and block map are inconsistent")
    return rg


def write_blocks(rg: ReductionGraph, path) -> None:
    write_ascii(path, blocks_to_text(rg))


def read_blocks(path, graph: MultiGraph) -> ReductionGraph:
    return blocks_from_text(read_ascii(path), graph)
