"""Exception types shared across the package, the seed, count and degree
checks that raise one, and the renderer their messages print values with."""

import numbers

MAX_SHOWN_BITS = 256  # a message prints a longer integer as its bit length


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


def shown(value) -> str:
    """`value` as an f-string prints it, except an int past MAX_SHOWN_BITS
    bits (str() refuses one past 4,300 digits): its sign and bit length."""
    if isinstance(value, int) and value.bit_length() > MAX_SHOWN_BITS:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
    return format(value)


def check_seed(seed) -> None:
    """Refuse a negative integer seed, which numpy's generators would reject
    with a bare ValueError.  A SeedSequence passes unchecked."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {shown(seed)}")


def check_integers(names: str, *counts) -> None:
    """Refuse a count that is not an integer (a float, NaN or infinity), which
    numpy would reject with a bare TypeError or AxisError, or truncate."""
    for x in counts:
        if not isinstance(x, numbers.Integral):
            raise UsageError(f"{names} must be integers, got {x!r}")


def check_degree(d) -> None:
    """Refuse a degree outside [1, 2**63) before any float conversion,
    which would raise ZeroDivisionError, OverflowError or TypeError."""
    if not 1 <= d < 1 << 63:
        raise UsageError(f"degree must be >= 1 and below 2**63, got {shown(d)}")
