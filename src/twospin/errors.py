"""Exception types shared across the package, and the seed and degree
checks that raise one."""

import numbers


class UsageError(ValueError):
    """An input violates a documented precondition of an operation."""


class RegimeError(UsageError):
    """Parameters lie outside the regime where a formula or method is valid."""


class ResourceLimitError(RuntimeError):
    """An operation would exceed its size cap; raised before any work starts.

    Each cap is one named constant.  Only log_partition (max_vertices) and
    e2lin2.best_assignment (max_vars) take theirs as an argument, which is
    its one override; every other cap is fixed.
    """


def check_seed(seed) -> None:
    """Refuse a negative integer seed, which numpy's generators would reject
    with a bare ValueError.  A SeedSequence passes unchecked."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")


def check_degree(d) -> None:
    """Refuse a degree outside [1, 2**63) before any float conversion,
    which would raise ZeroDivisionError, OverflowError or TypeError."""
    if not 1 <= d < 1 << 63:
        raise UsageError(f"degree must be >= 1 and below 2**63, got {d}")
