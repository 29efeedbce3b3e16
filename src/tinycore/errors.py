"""Exception types, and the argument checks that raise them at the public entry points."""
import contextlib
import math
import numbers

import numpy as np


class TinycoreError(Exception):
    """Base class for all library errors."""


class InvalidInput(TinycoreError, ValueError):
    """Input data violates a precondition (non-finite, negative weight, ...)."""


class InvalidArgument(TinycoreError, ValueError):
    """A parameter is out of its valid range."""


class ResourceLimit(TinycoreError, RuntimeError):
    """The request would exceed a hard resource guard."""


class EmptyState(TinycoreError, RuntimeError):
    """An operation was queried before any data was supplied."""


def check_int(name: str, v, lo: int = 1, hi: float = math.inf) -> int:
    """`v` as an int in [lo, hi].  numpy integers are accepted; a bool, a
    float or a string is rejected, not truncated."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise InvalidArgument(f"{name} {v!r} must be an integer")
    if not lo <= v <= hi:
        raise InvalidArgument(f"{name} {v} must be in [{lo}, {hi}]")
    return int(v)


@contextlib.contextmanager
def size_limit(name: str):
    """Run a size formula; a divisor that rounds to 0 (ZeroDivisionError) or a value
    past float64 (OverflowError, `math.ceil(inf)` included) raises ResourceLimit."""
    try:
        yield
    except (ZeroDivisionError, OverflowError) as exc:
        raise ResourceLimit(f"the {name} does not fit in float64 at these arguments") from exc


def check_seed(v) -> int:
    """A seed in [0, 2**63), the range of the signed 64-bit field that stores it."""
    return check_int("seed", v, 0, 2**63 - 1)


def check_real(name: str, v, lo: float = 0, hi: float = math.inf, closed: bool = False) -> float:
    """`v` as a finite float in (lo, hi), or in (lo, hi] when `closed`.  A
    bool, a string or NaN is rejected."""
    try:
        x = float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) else math.nan
    except OverflowError:  # an int beyond float64
        x = math.inf
    if math.isfinite(x) and lo < x and (x <= hi if closed else x < hi):
        return x
    if hi < math.inf:
        raise InvalidArgument(f"{name} must lie in ({lo}, {hi}{']' if closed else ')'}")
    raise InvalidArgument(f"{name} must be finite and " + ("positive" if lo == 0 else f"> {lo}"))


def as_floats(v, error: type[TinycoreError], what: str) -> np.ndarray:
    """`v` as a float64 array, without a copy when it is one; a value numpy
    cannot convert raises `error`."""
    try:
        return np.asarray(v, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must hold numbers: {exc}") from exc
