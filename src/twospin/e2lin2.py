"""Systems of two-variable equations x_i + x_j = b over Z2.

Instances are stored 0-based; the text format is 1-based (DIMACS habit):

    p e2lin2 <n> <m>
    <i> <j> <b>          # one line per equation, 1-based variable indices

Comments, blank lines and the header follow `graphs.read_records`.  Best
over all assignments is found by exhaustive search over int64 tables of the
equations summed per pair, so instances are capped at 24 variables.
"""

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ResourceLimitError, UsageError
from .graphs import (int_fields, read_ascii, read_records, records_to_text,
                     write_ascii)

BEST_ASSIGNMENT_CAP = 24  # default variable cap (max_vars) of best_assignment

Equation = Tuple[int, int, int]  # (i, j, b) with i != j, b in {0, 1}


@dataclass(frozen=True)
class E2Lin2Instance:
    num_vars: int
    equations: Tuple[Equation, ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise UsageError("instance needs at least one variable")
        if len(self.equations) < 1:
            raise UsageError("instance needs at least one equation")
        for i, j, b in self.equations:
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


BLOCK_VARS = 16  # best_assignment enumerates the lowest 16 variables at a time


def best_assignment(inst: E2Lin2Instance, *,
                    max_vars: int = BEST_ASSIGNMENT_CAP) -> Tuple[int, Tuple[int, ...]]:
    """Exhaustive maximum of satisfied_count and one maximizer.

    Assignments are encoded as integers with variable 0 in the least
    significant bit; ties go to the lowest encoding.  Equations are summed
    per pair into int64 weights first, so after one pass over them the
    search costs O(2^n) int64 steps, however many equations there are.
    """
    n = inst.num_vars
    if n > max_vars:
        raise ResourceLimitError(f"{n} variables exceeds cap max_vars={max_vars}")
    # an assignment satisfies every b = 0 equation, less w[i][j] = (b = 0
    # count) - (b = 1 count) on each pair i < j that it splits (x_i != x_j)
    w = [[0] * n for _ in range(n)]
    for i, j, b in inst.equations:
        w[min(i, j)][max(i, j)] += 1 - 2 * b
    rows = np.array(w, dtype=np.int64)
    low = min(n, BLOCK_VARS)
    # tables over the 2^t settings of x_0..x_{t-1}, grown one variable t at a
    # time: counts, and fields[j - t], the sum of w[i][j] x_i over i < t for
    # each later j.  With x_t = 0 the pairs (i, t) split where x_i = 1, which
    # costs t's field; with x_t = 1 where x_i = 0, which costs their summed
    # weight less the field
    counts = np.empty(1 << low, dtype=np.int64)
    counts[0] = sum(1 for *_, b in inst.equations if b == 0)
    fields = np.zeros((n, 1), dtype=np.int64)
    for t in range(low):
        size = 1 << t
        field, fields = fields[0], fields[1:]
        np.subtract(counts[:size], sum(w[i][t] for i in range(t)), out=counts[size:2 * size])
        counts[size:2 * size] += field
        counts[:size] -= field
        fields = np.concatenate((fields, fields + rows[t, t + 1:, None]), axis=1)
    # a block fixes the high variables x_low.. to the bits of `high`: with
    # x_j = 1 a pair (i, j), i low, splits where x_i = 0, which costs w[i][j]
    # less the field; pairs of two high variables cost a constant
    best_val, best_enc = -1, 0
    for high in range(1 << (n - low)):
        x = [(high >> j) & 1 for j in range(n - low)]
        split = sum(w[i][low + j] for i in range(low) for j in range(n - low) if x[j])
        split += sum(w[low + i][low + j] for i in range(n - low) for j in range(i + 1, n - low)
                     if x[i] != x[j])
        block = counts - split
        for field, bit in zip(fields, x):
            block = block + field if bit else block - field
        k = int(np.argmax(block))
        if int(block[k]) > best_val:
            best_val, best_enc = int(block[k]), (high << low) + k
    return best_val, tuple((best_enc >> i) & 1 for i in range(n))


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
    if n < 2:
        raise UsageError("need n >= 2")
    if 2 * m < n:
        raise UsageError("need m >= n/2 so every variable can appear")
    rng = np.random.default_rng(seed)
    eqs = []
    for _ in range(m):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        eqs.append((i, j, int(rng.integers(2))))
    inst, _ = normalize(E2Lin2Instance(n, tuple(eqs)))
    return inst
