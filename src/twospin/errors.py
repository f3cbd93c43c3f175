"""Exception types, the argument contract, and how messages print values.

Every public entry point checks each scalar argument, before any work, with
`check_real` (a real: an int, float, Fraction or numpy scalar, not a bool) or
`check_int` (an integer; with floats=True an integral float or an array of
them too, as for a degree).  Bounds are inclusive, and no value is converted
to a float to be compared, so NaN, an infinity and an int past the doubles
each fail lo <= v <= hi.  Each refusal is a UsageError.
"""

import math
import numbers

import numpy as np

FLOAT_MAX = math.nextafter(math.inf, 0.0)  # the largest double: a finite real's bound
POSITIVE = math.ulp(0.0)  # the least positive double: a positive real's bound
INT64_MAX = 2 ** 63 - 1   # the bound of a degree or count that numpy reads
MAX_SHOWN_BITS = 256  # a message prints a longer integer as its bit length
_PLAIN = (float, int)


class UsageError(ValueError):
    """An input violates a documented precondition of an operation."""


class RegimeError(UsageError):
    """Parameters lie outside the regime where a formula or method is valid."""


class ResourceLimitError(RuntimeError):
    """An operation would pass its size cap, one named constant, which only
    log_partition and best_assignment take as an argument; raised before any work."""


def shown(value) -> str:
    """`value` as an f-string prints it, except an int past MAX_SHOWN_BITS
    bits (str() refuses one past 4,300 digits): its sign and bit length."""
    if isinstance(value, int) and value.bit_length() > MAX_SHOWN_BITS:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
    return format(value)


def _refusal(name: str, kind: str, v, lo, hi) -> UsageError:
    """v refused as a `kind` in [lo, hi]: a lower end one double above an integer reads
    as that integer, excluded; with no upper end, 0 and POSITIVE read as words."""
    below = math.nextafter(lo, -math.inf)
    opened = isinstance(lo, float) and below.is_integer() and not lo.is_integer()
    low = format(below, "g") if opened else shown(lo)
    *words, noun = kind.split()
    if hi < FLOAT_MAX:
        noun += f" in {'[('[opened]}{low}, {shown(hi)}]"
    elif lo in (0, POSITIVE):
        words.append("non-negative" if lo == 0 else "positive")
    elif lo > -FLOAT_MAX:
        noun += f" {'>' if opened else '>='} {low}"
    phrase = " ".join(words + [noun])
    got = shown(v) if isinstance(v, numbers.Number) else type(v).__name__
    return UsageError(f"{name} must be a{'n' * (phrase[0] in 'aeiou')} {phrase}, got {got}")


def check_real(name: str, v, lo, hi) -> None:
    """Refuse v unless it is a real number in [lo, hi]."""
    if type(v) in _PLAIN and lo <= v <= hi:
        return
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not lo <= v <= hi:
        raise _refusal(name, "number" if hi == math.inf else "finite real", v, lo, hi)


def check_int(name: str, v, lo, hi, *, floats: bool = False):
    """v as an int, unless it is not an integer in [lo, hi].  With floats an
    integral float passes too, and an array or list is checked as a whole."""
    if type(v) is int and lo <= v <= hi:
        return v
    if isinstance(v, np.generic):
        v = v.item()  # compared as a Python number: no numpy overflow or warning
    if floats and isinstance(v, (np.ndarray, list, tuple)):
        values = np.asarray(v)
        if values.dtype.kind not in "iuf":
            raise UsageError(f"{name} must be integers, got an array of {values.dtype}")
        fraction = values[np.floor(values) != values][:1]  # its first, if any
        for x in (values.min(initial=lo), values.max(initial=lo), *fraction):
            check_int(name, x, lo, hi, floats=True)  # compared exactly, as scalars
        return values
    if (isinstance(v, bool) or not isinstance(v, numbers.Real if floats else numbers.Integral)
            or not (lo <= v <= hi and v % 1 == 0)):  # an infinity's remainder is NaN
        raise _refusal(name, "integer", v, lo, hi)
    return int(v)
