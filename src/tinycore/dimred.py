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
from .errors import InvalidArgument, InvalidInput
from .linalg import PointSet, QueryShape, dist2, svd, tail_energy, weighted_fold, _as_readonly

REDUCE_MODES = ("general", "coreset-lift", "kmeans")


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
    """The number of retained singular directions for each reduction mode."""
    if mode == "general":
        formula = math.ceil(8 * j / eps**2) - 1
    elif mode == "coreset-lift":
        formula = j + math.ceil(32 * j / eps**2) - 1
    elif mode == "kmeans":
        formula = j + math.ceil(72 * j / eps**2) - 1
    else:
        raise InvalidArgument(f"unknown reduction mode {mode!r}; expected one of {REDUCE_MODES}")
    return max(1, min(n, d, formula))


def reduce(points: PointSet, j: int, eps: float, mode: str = "general") -> ReducedInstance:
    """Project onto the top-m right-singular directions, keeping the lost energy.

    For k-means modes pass j := k.  The rank m is capped at min(n, d).  When
    m = d every direction is kept, the reduction is exact with delta = 0, and
    the input itself is returned, with the identity as the basis, without
    computing an SVD.
    """
    if j < 1:
        raise InvalidArgument("query dimension must be >= 1")
    if not 0 < eps <= 1:
        raise InvalidArgument("eps must lie in (0, 1]")
    m = reduction_rank(points.n, points.d, j, eps, mode)
    if m == points.d:
        return ReducedInstance(points=points, basis=np.eye(m), delta=0.0)
    factors = svd(points if points.weights is None else PointSet(weighted_fold(points)))
    basis = np.asarray(factors.v[:, :m])
    reduced = PointSet(np.asarray(points.rows) @ basis, points.weights)
    # tail of the (folded) spectrum = (weighted) projection cost of the rows
    delta = tail_energy(factors, m)
    return ReducedInstance(points=reduced, basis=basis, delta=delta)


def weak_triangle_gap(a: PointSet, b: PointSet, shape: QueryShape, eps: float) -> float:
    """Bound on |dist2(a, shape) - dist2(b, shape)| from the weak triangle inequality.

    Returns eps * dist2(a, shape) + (1 + 1/eps) * ||a - b||_F^2; the library
    asserts the inequality before returning, making this a reusable test
    utility.
    """
    if not eps > 0:
        raise InvalidArgument("eps must be positive")
    if a.rows.shape != b.rows.shape:
        raise InvalidArgument("point sets must have identical shape")
    wa = a.effective_weights()
    wb = b.effective_weights()
    if not np.allclose(wa, wb):
        raise InvalidArgument("point sets must carry identical weights")
    move = float(np.sum(wa * np.sum((np.asarray(a.rows) - np.asarray(b.rows)) ** 2, axis=1)))
    cost_a = dist2(a, shape)
    bound = eps * cost_a + (1.0 + 1.0 / eps) * move
    gap = abs(cost_a - dist2(b, shape))
    if gap > bound * (1 + 1e-9) + 1e-12:
        raise InvalidInput(f"weak triangle inequality violated: gap={gap}, bound={bound}")
    return bound


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
