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
from .errors import InvalidArgument, InvalidInput, as_matrix, as_offset, check_int, check_real, size_limit
from .linalg import PointSet, svd, tail_energy, _as_readonly

REDUCE_MODES = ("general", "coreset-lift")


@dataclass(frozen=True)
class ReducedInstance:
    """A^(m) in the top-m singular basis, with the input's weights, plus basis and offset."""

    points: PointSet
    basis: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "basis", _as_readonly(as_matrix(self.basis, InvalidInput, "reduction basis")))
        object.__setattr__(self, "delta", as_offset(self.delta, "reduction offset"))

    @property
    def m(self) -> int:
        """The rank of the reduction: the number of basis columns."""
        return self.basis.shape[1]

    def ambient_points(self) -> np.ndarray:
        """The rows of A^(m) expressed in the original d coordinates."""
        return self.points.rows @ self.basis.T


def reduction_rank(n: int, d: int, j: int, eps: float, mode: str) -> int:
    """The number of retained singular directions for each reduction mode.

    n and d are positive integers; so is j, and eps lies in (0, 1].
    """
    n, d = check_int("n", n), check_int("d", d)
    j = check_int("query dimension", j)
    eps = check_real("eps", eps, hi=1, closed=True)
    if not isinstance(mode, str) or mode not in REDUCE_MODES:
        raise InvalidArgument(f"unknown reduction mode {mode!r}; expected one of {REDUCE_MODES}")
    with size_limit("reduction rank"):
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
        basis = np.eye(m)
        basis.setflags(write=False)  # made here: the instance keeps it, not a copy
        return ReducedInstance(points=points, basis=basis, delta=0.0)
    factors = svd(points)
    basis = np.ascontiguousarray(factors.v[:, :m])  # the instance keeps it, not a copy
    projected = points.rows @ basis
    for a in (basis, projected):
        a.setflags(write=False)
    reduced = PointSet(projected, points.weights)
    # tail of the (folded) spectrum = (weighted) projection cost of the rows
    delta = tail_energy(factors, m)
    return ReducedInstance(points=reduced, basis=basis, delta=delta)


def lift_coreset(low_coreset: Coreset, reduced: ReducedInstance) -> Coreset:
    """Map a coreset built in reduced coordinates back to ambient space.

    The offsets add: the inner coreset's delta plus the reduction's projection
    cost.
    """
    if low_coreset.d != reduced.m:
        raise InvalidArgument(f"coreset dimension {low_coreset.d} does not match reduction rank {reduced.m}")
    lifted = low_coreset.points @ reduced.basis.T
    lifted.setflags(write=False)  # made here: the coreset keeps it, not a copy
    return Coreset(points=lifted, weights=low_coreset.weights, delta=low_coreset.delta + reduced.delta)
