"""Exception types shared across the package."""


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
