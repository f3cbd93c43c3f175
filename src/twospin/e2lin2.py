"""Systems of two-variable equations x_i + x_j = b over Z2.

Instances are stored 0-based; the text format is 1-based (DIMACS habit):

    p e2lin2 <n> <m>
    <i> <j> <b>          # one line per equation, 1-based variable indices

Comments, blank lines and the header follow `graphs.read_records`.  Best
over all assignments is an exhaustive search by the one enumeration kernel,
reduced by max over the equations summed per pair; capped at 24 variables.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ResourceLimitError, UsageError, check_int, shown
from .graphs import (int_fields, read_ascii, read_records, records_to_text,
                     write_ascii)
from .spins import _Problem

BEST_ASSIGNMENT_CAP = 24  # default variable cap (max_vars) of best_assignment
MAX_RANDOM_EQUATIONS = 1 << 18  # random_instance's m: 1.5 s and 120 MB at the cap

Equation = Tuple[int, int, int]  # (i, j, b) with i != j, b in {0, 1}


@dataclass(frozen=True)
class E2Lin2Instance:
    num_vars: int
    equations: Tuple[Equation, ...]

    def __post_init__(self):
        if check_int("num_vars", self.num_vars, -math.inf, math.inf) < 1:
            raise UsageError("instance needs at least one variable")
        if len(self.equations) < 1:
            raise UsageError("instance needs at least one equation")
        for i, j, b in self.equations:
            if not type(i) is type(j) is type(b) is int:  # plain ints need no call
                i, j, b = (check_int("equation entry", x, -math.inf, math.inf) for x in (i, j, b))
            if not (0 <= i < self.num_vars and 0 <= j < self.num_vars):
                raise UsageError(f"equation ({i},{j},{b}) references a missing variable")
            if i == j:
                raise UsageError(f"equation ({i},{j},{b}) repeats a variable")
            if b not in (0, 1):
                raise UsageError(f"equation ({i},{j},{b}) has b outside {{0,1}}")

    @property
    def num_equations(self) -> int:
        return len(self.equations)

    def is_normalized(self) -> bool:
        """True when every variable appears in some equation."""
        return len(used_variables(self)) == self.num_vars


def satisfied_count(inst: E2Lin2Instance, bits: Sequence[int]) -> int:
    """Number of equations the assignment satisfies."""
    if len(bits) != inst.num_vars:
        raise UsageError(f"assignment length {len(bits)} != num_vars {inst.num_vars}")
    return sum(1 for i, j, b in inst.equations if (bits[i] ^ bits[j]) == b)


def best_assignment(inst: E2Lin2Instance, *,
                    max_vars: int = BEST_ASSIGNMENT_CAP) -> Tuple[int, Tuple[int, ...]]:
    """Exhaustive maximum of satisfied_count and one maximizer.

    Assignments are encoded as integers with variable 0 in the least
    significant bit; ties go to the lowest encoding.  An assignment satisfies
    every b = 1 equation, plus c_ij = (b = 0 count) - (b = 1 count) on each
    pair i < j it does not split.  The enumeration kernel maximises this over
    its block tables, with records (i, j, c_ij, c_ij) and no field, so the
    search costs O(2^n) however many equations there are.  Every partial sum
    is an integer of magnitude at most m, so float64 is exact.
    """
    n = inst.num_vars
    if n > check_int("max_vars", max_vars, -math.inf, math.inf):
        raise ResourceLimitError(f"{n} variables exceeds cap max_vars={max_vars}")
    pairs = Counter()
    for i, j, b in inst.equations:
        pairs[min(i, j), max(i, j)] += 1 - 2 * b
    records = [(i, j, c, c) for (i, j), c in pairs.items() if c]
    const = sum(b for *_, b in inst.equations)
    value, code = _Problem(np.zeros(n), np.zeros(n), const, records).best()
    return int(value), tuple((code >> i) & 1 for i in range(n))


def occurrence_counts(inst: E2Lin2Instance) -> Tuple[int, ...]:
    """Per-variable equation counts d_i; their sum is 2m."""
    d = [0] * inst.num_vars
    for i, j, _ in inst.equations:
        d[i] += 1
        d[j] += 1
    return tuple(d)


def used_variables(inst: E2Lin2Instance) -> Tuple[int, ...]:
    """The variables that some equation uses, ascending; O(m) for any n."""
    return tuple(sorted({v for i, j, _ in inst.equations for v in (i, j)}))


def normalize(inst: E2Lin2Instance) -> Tuple[E2Lin2Instance, Tuple[int, ...]]:
    """Drop variables that appear in no equation and renumber.

    Returns the normalized instance and a map new_index -> old_index.
    """
    kept = used_variables(inst)
    if len(kept) == inst.num_vars:
        return inst, kept
    renum = {old: new for new, old in enumerate(kept)}
    eqs = tuple((renum[i], renum[j], b) for i, j, b in inst.equations)
    return E2Lin2Instance(len(kept), eqs), kept


# ---------------------------------------------------------------------------
# Text format


def format_instance(inst: E2Lin2Instance) -> str:
    return records_to_text("e2lin2", (inst.num_vars, inst.num_equations),
                           (f"{i + 1} {j + 1} {b}" for i, j, b in inst.equations))


def parse_instance(text: str) -> E2Lin2Instance:
    records = read_records(text, "e2lin2", 2)
    n, m = next(records)
    eqs = []
    for lineno, line, tokens in records:
        if len(tokens) != 3:
            raise UsageError(f"line {lineno}: bad equation {line!r}")
        i, j, b = int_fields(tokens, lineno, line)
        if not (1 <= i <= n and 1 <= j <= n):
            raise UsageError(f"line {lineno}: variable index outside 1..{n}")
        if i == j:
            raise UsageError(f"line {lineno}: repeated variable")
        if b not in (0, 1):
            raise UsageError(f"line {lineno}: b must be 0 or 1")
        eqs.append((i - 1, j - 1, b))
    if len(eqs) != m:
        raise UsageError(f"header declares {m} equations, found {len(eqs)}")
    return E2Lin2Instance(n, tuple(eqs))


def write_instance(inst: E2Lin2Instance, path) -> None:
    write_ascii(path, format_instance(inst))


def read_instance(path) -> E2Lin2Instance:
    return parse_instance(read_ascii(path))


def random_instance(n: int, m: int, seed: int) -> E2Lin2Instance:
    """m uniform random equations on n variables, normalized.

    Endpoint pairs are uniform over i != j and right-hand sides over {0, 1};
    deterministic for a given seed.  Normalization may shrink the variable
    count when some variable happens not to appear.
    """
    if check_int("m", m, 1, math.inf) > MAX_RANDOM_EQUATIONS:
        raise ResourceLimitError(f"{shown(m)} equations exceed cap {MAX_RANDOM_EQUATIONS}")
    n = check_int("n", n, 2, 2 * m)  # so that every variable can appear
    rng = np.random.default_rng(seed if isinstance(seed, np.random.SeedSequence)
                                else check_int("seed", seed, 0, math.inf))
    eqs = []
    for _ in range(m):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        eqs.append((i, j, int(rng.integers(2))))
    inst, _ = normalize(E2Lin2Instance(n, tuple(eqs)))
    return inst
