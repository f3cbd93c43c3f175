"""Exception types shared across the package."""


class UsageError(ValueError):
    """An input violates a documented precondition of an operation."""


class RegimeError(UsageError):
    """Parameters lie outside the regime where a formula or method is valid."""


class ResourceLimitError(RuntimeError):
    """An operation would exceed its size cap; raised before any work starts.

    Only log_partition and e2lin2.best_assignment take their cap as an
    argument and can be told to go past it (force=True); every other cap is a
    module constant.
    """
