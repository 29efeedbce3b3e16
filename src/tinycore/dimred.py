"""Low-rank dimensionality reduction for clustering under squared distances.

Replacing the input by its m-rank approximation plus the discarded energy as
a constant preserves the cost of every query contained in a j-dimensional
subspace up to (1 +- eps), for an m that depends only on j and eps.  The
reduced instance stores coordinates in the top-m right-singular basis so
that downstream constructions run in m dimensions; lifting restores ambient
coordinates and adds the offsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coreset import Coreset
from .errors import InvalidArgument, InvalidInput, check_int, check_real
from .linalg import PointSet, svd, tail_energy, _as_readonly, _Tsqr

REDUCE_MODES = ("general", "coreset-lift")


@dataclass(frozen=True)
class ReducedInstance:
    """A^(m) in the top-m singular basis, with the input's weights, plus basis and offset."""

    points: PointSet
    basis: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "basis", _as_readonly(self.basis))
        object.__setattr__(self, "delta", float(self.delta))
        if self.delta < 0:
            raise InvalidInput("reduction offset must be non-negative")

    @property
    def m(self) -> int:
        """The rank of the reduction: the number of basis columns."""
        return self.basis.shape[1]

    def ambient_points(self) -> np.ndarray:
        """The rows of A^(m) expressed in the original d coordinates."""
        return np.asarray(self.points.rows) @ np.asarray(self.basis).T


def reduction_rank(n: int, d: int, j: int, eps: float, mode: str) -> int:
    """The number of retained singular directions for each reduction mode.

    n and d are positive integers; so is j, and eps lies in (0, 1].
    """
    n, d = check_int("n", n), check_int("d", d)
    j = check_int("query dimension", j)
    eps = check_real("eps", eps, hi=1, closed=True)
    if not isinstance(mode, str) or mode not in REDUCE_MODES:
        raise InvalidArgument(f"unknown reduction mode {mode!r}; expected one of {REDUCE_MODES}")
    if mode == "general":
        formula = math.ceil(8 * j / eps**2) - 1
    else:
        formula = j + math.ceil(32 * j / eps**2) - 1
    return max(1, min(n, d, formula))


def reduce(points: PointSet, j: int, eps: float, mode: str = "general") -> ReducedInstance:
    """Project onto the top-m right-singular directions, keeping the lost energy.

    For k-means pass j := k.  The rank m is capped at min(n, d).  When
    m = d every direction is kept, the reduction is exact with delta = 0, and
    the input itself is returned, with the identity as the basis, without
    computing an SVD.  j and eps are checked by :func:`reduction_rank`.
    """
    m = reduction_rank(points.n, points.d, j, eps, mode)
    if m == points.d:
        return ReducedInstance(points=points, basis=np.eye(m), delta=0.0)
    factors = svd(_Tsqr().feed(points.rows, points.weights))
    basis = np.asarray(factors.v[:, :m])
    reduced = PointSet(np.asarray(points.rows) @ basis, points.weights)
    # tail of the (folded) spectrum = (weighted) projection cost of the rows
    delta = tail_energy(factors, m)
    return ReducedInstance(points=reduced, basis=basis, delta=delta)


def lift_coreset(low_coreset: Coreset, reduced: ReducedInstance) -> Coreset:
    """Map a coreset built in reduced coordinates back to ambient space.

    The offsets add: the inner coreset's delta plus the reduction's projection
    cost.
    """
    basis = np.asarray(reduced.basis)
    if low_coreset.d != basis.shape[1]:
        raise InvalidArgument(
            f"coreset dimension {low_coreset.d} does not match reduction rank {basis.shape[1]}"
        )
    lifted = np.asarray(low_coreset.points) @ basis.T
    return Coreset(points=lifted, weights=low_coreset.weights, delta=low_coreset.delta + reduced.delta)
