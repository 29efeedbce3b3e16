"""Exception types, and the argument checks that raise them at the public entry points, among them
the one array rule: every public type reads its arrays by :func:`as_matrix`, :func:`as_vector` and
:func:`as_offset`, then adds only rules of its own."""
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


def as_matrix(v, error: type[TinycoreError], what: str, min_rows: int = 1) -> np.ndarray:
    """`v` as a finite float64 n x d matrix with n >= min_rows and d >= 1, without
    a copy when it is one; a vector is read as one row."""
    m = np.atleast_2d(as_floats(v, error, what))
    if m.ndim != 2 or m.shape[0] < min_rows or m.shape[1] < 1 or not np.isfinite(m).all():
        raise error(f"{what} must be a finite n x d matrix with n >= {min_rows} and d >= 1, got shape {m.shape}")
    return m


def as_vector(v, n: int | None, error: type[TinycoreError], what: str) -> np.ndarray:
    """`v` as a finite float64 vector of n entries (any length if n is None): one axis,
    or a single row or column, not flattened from other shapes.  A 1-D array is kept."""
    a = as_floats(v, error, what)
    size = a.size if n is None else n
    if a.shape not in ((size,), (1, size), (size, 1)) or not np.isfinite(a).all():
        raise error(f"{what} must be a finite vector of {size} entries, got shape {a.shape}")
    return a if a.ndim == 1 else a.reshape(-1)


def as_offset(v, what: str) -> float:
    """`v` as a finite float >= 0: the additive constant of a coreset or a reduction."""
    a = as_floats(v, InvalidInput, what)
    if a.shape != () or not (np.isfinite(a) and a >= 0):
        raise InvalidInput(f"{what} must be a finite non-negative number")
    return float(a)
