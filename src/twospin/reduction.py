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
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .e2lin2 import E2Lin2Instance, occurrence_counts, satisfied_count
from .errors import RegimeError, UsageError
from .graphs import BipartiteGadget, MultiGraph
from .logspace import LOG_ZERO, log_sum_exp, scaled_log
from .spins import (CountLeq, CountRange, MinCountAtMost, SpinParams,
                    log_partition)
from .uniqueness import SplitCase

DEFAULT_MINORITY_FRACTION = 9e-5  # cap on the smaller zero-count, as a fraction
DEFAULT_CAP_FRACTION = 1e-4       # one-sided zero-count cap, as a fraction
MAX_REDUCTION_VERTICES = 24       # free vertices of every exact reduction sum


@dataclass(frozen=True)
class GadgetParams:
    delta: int         # intra-gadget matchings
    delta_prime: int   # inter-gadget edge multiplicity
    block_size: int    # t; the published construction has t = m
    seed: int

    def __post_init__(self):
        if self.delta < 1 or self.delta_prime < 1 or self.block_size < 1:
            raise UsageError("delta, delta_prime and block_size must all be >= 1")


def gadget_seed(master_seed: int, index: int) -> np.random.SeedSequence:
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
    if n_side < 1 or delta < 1:
        raise UsageError("need n_side >= 1 and delta >= 1")
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(delta):
        perm = rng.permutation(n_side)
        edges.extend((u, n_side + int(perm[u])) for u in range(n_side))
    graph = MultiGraph.from_edges(2 * n_side, edges)
    return BipartiteGadget(graph, tuple(range(n_side)),
                           tuple(range(n_side, 2 * n_side)))


@dataclass(frozen=True)
class ReductionGraph:
    """The constructed graph plus the block bookkeeping that ties it back."""

    graph: MultiGraph
    u_blocks: Tuple[Tuple[Tuple[int, ...], ...], ...]  # [variable][occurrence] -> vertices
    v_blocks: Tuple[Tuple[Tuple[int, ...], ...], ...]
    params: GadgetParams
    instance: E2Lin2Instance

    def u_side(self, i: int) -> Tuple[int, ...]:
        return tuple(v for block in self.u_blocks[i] for v in block)

    def v_side(self, i: int) -> Tuple[int, ...]:
        return tuple(v for block in self.v_blocks[i] for v in block)

    @property
    def block_size(self) -> int:
        return self.params.block_size


def _inter_gadget_edges(inst: E2Lin2Instance, u_blocks, v_blocks, delta_prime: int):
    """Yield the (u, v, delta_prime) records that the equations prescribe.

    Equation s joins the next unused occurrence block of each of its two
    variables, componentwise: U to V' and V to U' when b = 0, U to U' and V
    to V' when b = 1.
    """
    seen = [0] * inst.num_vars
    for i, j, b in inst.equations:
        k, ell = seen[i], seen[j]
        seen[i] += 1
        seen[j] += 1
        u_jl, v_jl = u_blocks[j][ell], v_blocks[j][ell]
        u_partner, v_partner = (v_jl, u_jl) if b == 0 else (u_jl, v_jl)
        for u, w in zip(u_blocks[i][k], u_partner):
            yield u, w, delta_prime
        for v, w in zip(v_blocks[i][k], v_partner):
            yield v, w, delta_prime


def build_reduction_graph(inst: E2Lin2Instance, params: GadgetParams) -> ReductionGraph:
    """Construct the reduction graph; deterministic for a given seed."""
    if not inst.is_normalized():
        raise UsageError("instance has unused variables; normalize it first")
    occ = occurrence_counts(inst)
    t = params.block_size
    n = inst.num_vars

    u_blocks = []
    v_blocks = []
    base = 0
    for i in range(n):
        u_blocks.append(tuple(
            tuple(range(base + k * t, base + (k + 1) * t)) for k in range(occ[i])))
        v_start = base + occ[i] * t
        v_blocks.append(tuple(
            tuple(range(v_start + k * t, v_start + (k + 1) * t)) for k in range(occ[i])))
        base += 2 * occ[i] * t
    num_vertices = base  # = 4*m*t since sum(occ) = 2m

    edges = list(_inter_gadget_edges(inst, u_blocks, v_blocks, params.delta_prime))
    for i in range(n):
        side = occ[i] * t
        rng = np.random.default_rng(gadget_seed(params.seed, i))
        u_side = [v for block in u_blocks[i] for v in block]
        v_side = [v for block in v_blocks[i] for v in block]
        for _ in range(params.delta):
            perm = rng.permutation(side)
            edges.extend((u_side[s], v_side[int(perm[s])], 1) for s in range(side))

    graph = MultiGraph.from_edges(num_vertices, edges)
    return ReductionGraph(graph, tuple(u_blocks), tuple(v_blocks), params, inst)


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
    degrees = g.degrees()
    regular = len(set(degrees)) == 1
    degree = degrees[0] if degrees else 0

    owner = {}
    for i in range(inst.num_vars):
        for v in rg.u_side(i) + rg.v_side(i):
            owner[v] = i
    intra = [0] * g.num_vertices
    inter = [0] * g.num_vertices
    inter_records = []
    for u, v, mult in g.edges:
        if owner[u] == owner[v]:
            intra[u] += mult
            intra[v] += mult
        else:
            inter[u] += mult
            inter[v] += mult
            inter_records.append((u, v, mult))
    # canonical and sorted like g.edges; no aggregation is needed, because
    # every vertex lies in one block and every block is wired once
    prescribed = sorted((u, w, m) if u < w else (w, u, m) for u, w, m in
                        _inter_gadget_edges(inst, rg.u_blocks, rg.v_blocks,
                                            params.delta_prime))
    blocks_ok = all(
        len(block) == t
        for blocks in (rg.u_blocks, rg.v_blocks)
        for per_var in blocks for block in per_var)
    return StructureAudit(
        regular=regular,
        degree=degree,
        expected_degree=params.delta + params.delta_prime,
        vertex_count=g.num_vertices,
        expected_vertex_count=4 * m * t,
        intra_multiplicities_ok=all(x == params.delta for x in intra),
        inter_multiplicities_ok=all(x == params.delta_prime for x in inter),
        block_sizes_ok=blocks_ok,
        wiring_ok=prescribed == inter_records,
    )


# ---------------------------------------------------------------------------
# Bound constants


@dataclass(frozen=True)
class BoundsConstants:
    log_c: float
    log_d: float
    case: SplitCase


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
    if delta < 1 or delta_prime < 1:
        raise UsageError("need delta >= 1 and delta_prime >= 1")
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
        if b not in (0, 1):
            raise UsageError("assignment entries must be 0 or 1")


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
    fixed = {}
    for i, b in enumerate(bits):
        side = rg.u_side(i) if b == 0 else rg.v_side(i)
        for v in side:
            fixed[v] = 1
    return fixed


def log_polarized_sum_brute(rg: ReductionGraph, bits: Sequence[int], p: SpinParams,
                            *, threads: int = 1) -> float:
    """Brute-force mate of log_polarized_sum_closed: enumerate the free half."""
    _require_flat_field(p)
    fixed = polarized_fixed_spins(rg, bits)
    return log_partition(rg.graph, p, fixed=fixed,
                         max_vertices=MAX_REDUCTION_VERTICES, threads=threads)


# ---------------------------------------------------------------------------
# Constraint families for conditioned sums

FAMILY_NAMES = ("majority", "polarized", "minority-cap", "small-side-cap",
                "two-sided-cap")


def family_constraints(rg: ReductionGraph, family: str,
                       bits: Optional[Sequence[int]] = None,
                       minority_fraction: float = DEFAULT_MINORITY_FRACTION,
                       cap_fraction: float = DEFAULT_CAP_FRACTION):
    """Side constraints realizing one named restriction family.

    majority:       zeros(U_i) <= zeros(V_i) when S_i = 0, reversed otherwise
    polarized:      zeros of the S-side are exactly 0
    minority-cap:   min(zeros(U_i), zeros(V_i)) <= floor(fraction * side)
    small-side-cap: zeros of the S-side <= floor(fraction * side)
    two-sided-cap:  S-side zeros <= floor(f * side), other side >= side - that
    """
    if family not in FAMILY_NAMES:
        raise UsageError(f"unknown family {family!r}; choose from {FAMILY_NAMES}")
    needs_bits = family != "minority-cap"
    if needs_bits:
        if bits is None:
            raise UsageError(f"family {family!r} needs an assignment")
        _check_assignment(rg, bits)
    out = []
    for i in range(rg.instance.num_vars):
        u, v = rg.u_side(i), rg.v_side(i)
        side = len(u)
        if family == "minority-cap":
            cap = min(side, math.floor(minority_fraction * side))
            out.append(MinCountAtMost(u, v, cap))
            continue
        low, high = (u, v) if bits[i] == 0 else (v, u)
        if family == "majority":
            out.append(CountLeq(low, high))
        elif family == "polarized":
            out.append(CountRange(low, 0, 0))
        elif family == "small-side-cap":
            out.append(CountRange(low, 0, min(side, math.floor(cap_fraction * side))))
        else:  # two-sided-cap
            cap = min(side, math.floor(cap_fraction * side))
            out.append(CountRange(low, 0, cap))
            out.append(CountRange(high, side - cap, side))
    return tuple(out)


def log_restricted_sum(rg: ReductionGraph, p: SpinParams,
                       families: Sequence[str] = ("majority",),
                       bits: Optional[Sequence[int]] = None, *,
                       minority_fraction: float = DEFAULT_MINORITY_FRACTION,
                       cap_fraction: float = DEFAULT_CAP_FRACTION,
                       threads: int = 1) -> float:
    """Partition sum restricted by one or more constraint families.

    Families compose by conjunction, e.g. ("majority", "minority-cap") is the
    sum over assignments that respect the majority sides of `bits` and keep
    every gadget's smaller zero-count under the minority cap.
    """
    _require_flat_field(p)
    if isinstance(families, str):
        families = (families,)
    constraints = []
    for fam in families:
        constraints.extend(family_constraints(
            rg, fam, bits, minority_fraction=minority_fraction,
            cap_fraction=cap_fraction))
    return log_partition(rg.graph, p, constraints,
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
    if n < 1 or m < 1:
        raise UsageError(f"need n, m >= 1, got n={n}, m={m}")
    if constants.log_d <= 0:
        raise UsageError("decoder needs log D > 0")
    num = (log_estimate - math.log1p(relative_error) - n * math.log(2)
           - m * m * constants.log_c - slack * m * m * constants.log_d)
    return num / (m * constants.log_d)


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


def sandwich_check(rg: ReductionGraph, p: SpinParams, *, tolerance: float = 1e-9,
                   threads: int = 1) -> SandwichReport:
    """Verify max_S Z(G,S) <= Z(G) <= sum_S Z(G,S) over all 2^n assignments."""
    _require_flat_field(p)
    n = rg.instance.num_vars
    log_total = log_partition(rg.graph, p, max_vertices=MAX_REDUCTION_VERTICES,
                              threads=threads)
    parts = []
    for enc in range(1 << n):
        bits = tuple((enc >> i) & 1 for i in range(n))
        parts.append(log_restricted_sum(rg, p, ("majority",), bits,
                                        threads=threads))
    return SandwichReport(
        log_total=log_total,
        log_max_restricted=max(parts),
        log_sum_restricted=log_sum_exp(parts),
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Block-map sidecar format


def blocks_to_text(rg: ReductionGraph) -> str:
    """Sidecar that, together with the graph file, reconstructs the reduction.

    Header `p blocks n m t delta delta_prime seed`, the instance's equations
    as `e i j b` lines (1-based), then one `block U|V <var> <occ> <v...>`
    line per block (0-based vertex ids).
    """
    inst = rg.instance
    par = rg.params
    lines = [f"p blocks {inst.num_vars} {inst.num_equations} {par.block_size} "
             f"{par.delta} {par.delta_prime} {par.seed}"]
    for i, j, b in inst.equations:
        lines.append(f"e {i + 1} {j + 1} {b}")
    for i in range(inst.num_vars):
        for k, block in enumerate(rg.u_blocks[i]):
            lines.append(f"block U {i} {k} " + " ".join(str(v) for v in block))
        for k, block in enumerate(rg.v_blocks[i]):
            lines.append(f"block V {i} {k} " + " ".join(str(v) for v in block))
    return "\n".join(lines) + "\n"


def _ints(tokens, lineno: int, line: str):
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise UsageError(f"line {lineno}: non-integer field in {line!r}") from None


def blocks_from_text(text: str, graph: MultiGraph) -> ReductionGraph:
    """Parse a block-map sidecar against its graph.

    Malformed text, and a block map inconsistent with its own header or
    with the graph (its structure, or equations that prescribe other
    inter-gadget edges than the graph has), raise UsageError.
    """
    header = None
    equations = []
    blocks: Dict[Tuple[str, int, int], Tuple[int, ...]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "p":
            if header is not None:
                raise UsageError(f"line {lineno}: duplicate header")
            if len(parts) != 8 or parts[1] != "blocks":
                raise UsageError(f"line {lineno}: bad header {line!r}")
            header = _ints(parts[2:], lineno, line)
        elif parts[0] == "e":
            if len(parts) != 4:
                raise UsageError(f"line {lineno}: bad equation {line!r}")
            i, j, b = _ints(parts[1:], lineno, line)
            equations.append((i - 1, j - 1, b))
        elif parts[0] == "block":
            if len(parts) < 5 or parts[1] not in ("U", "V"):
                raise UsageError(f"line {lineno}: bad block record {line!r}")
            i, k, *vertices = _ints(parts[2:], lineno, line)
            if (parts[1], i, k) in blocks:
                raise UsageError(f"line {lineno}: duplicate block record {line!r}")
            blocks[(parts[1], i, k)] = tuple(vertices)
        else:
            raise UsageError(f"line {lineno}: unknown record {line!r}")
    if header is None:
        raise UsageError("missing 'p blocks' header")
    n, m, t, delta, delta_prime, seed = header
    if len(equations) != m:
        raise UsageError(f"header declares {m} equations, found {len(equations)}")
    inst = E2Lin2Instance(n, tuple(equations))
    if n > 2 * m or not inst.is_normalized():
        raise UsageError("block map instance has unused variables")
    params = GadgetParams(delta, delta_prime, t, seed)
    occ = occurrence_counts(inst)
    if blocks.keys() != {(side, i, k) for side in "UV"
                         for i in range(n) for k in range(occ[i])}:
        raise UsageError("block records do not match the variables' occurrences")
    covered = [v for block in blocks.values() for v in block]
    if len(covered) != graph.num_vertices or set(covered) != set(range(graph.num_vertices)):
        raise UsageError("block records do not partition the graph's vertices")
    u_blocks = tuple(tuple(blocks[("U", i, k)] for k in range(occ[i])) for i in range(n))
    v_blocks = tuple(tuple(blocks[("V", i, k)] for k in range(occ[i])) for i in range(n))
    rg = ReductionGraph(graph, u_blocks, v_blocks, params, inst)
    audit = audit_reduction_graph(rg)
    if not audit.wiring_ok:
        raise UsageError("block map equations do not match the graph's wiring")
    if not audit.passed:
        raise UsageError("graph and block map are inconsistent")
    return rg


def write_blocks(rg: ReductionGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(blocks_to_text(rg))


def read_blocks(path, graph: MultiGraph) -> ReductionGraph:
    with open(path, "r", encoding="ascii") as fh:
        return blocks_from_text(fh.read(), graph)
