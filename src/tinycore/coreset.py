"""Coresets for the linear and affine j-subspace problems.

A coreset is the triple (S, w, delta): a small weighted point set plus a
query-independent offset.  Its cost against any query shape is
sum_i w_i * dist2(S_i, shape) + delta, and the constructions here keep that
within a (1+eps) factor of the input's cost for every subspace of the
requested dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, InvalidInput
from .linalg import Frame, PointSet, QueryShape, dist2, svd, tail_energy, _weighted_mean


@dataclass(frozen=True)
class Coreset:
    """Weighted summary (points, weights, delta) of a larger point set.

    The points and weights are those of one weighted :class:`PointSet`,
    which checks them, holds them read-only and caches their frame; the
    coreset itself checks only that weights are given and that delta >= 0.
    """

    points: np.ndarray
    weights: np.ndarray
    delta: float
    _point_set: PointSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weights is None:
            raise InvalidInput("coreset weights must be given")
        ps = PointSet(self.points, self.weights)
        if not self.delta >= 0:
            raise InvalidInput("coreset offset must be non-negative")
        object.__setattr__(self, "_point_set", ps)
        object.__setattr__(self, "points", ps.rows)
        object.__setattr__(self, "weights", ps.weights)
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def total_weight(self) -> float:
        return self._point_set.total_weight()

    def as_point_set(self) -> PointSet:
        """The weighted point set (S, w) itself, not a copy."""
        return self._point_set

    @property
    def frame(self) -> Frame:
        """The frame of the point set: built by the first center query, then kept."""
        return self._point_set.frame


def coreset_cost(coreset: Coreset, shape: QueryShape) -> float:
    """Cost of a query shape against a coreset: ``dist2(S, shape) + delta``.

    The weighted sum is :func:`tinycore.linalg.dist2` on the coreset's point
    set, so inputs and coresets share one evaluation and one cached frame.
    """
    return dist2(coreset.as_point_set(), shape) + coreset.delta


def coreset_size_linear(j: int, eps: float) -> int:
    """Number of rows of the linear j-subspace coreset: j + ceil(j/eps) - 1."""
    if j < 1:
        raise InvalidArgument("subspace dimension must be >= 1")
    if not eps > 0:
        raise InvalidArgument("eps must be positive")
    return j + math.ceil(j / eps) - 1


def linear_subspace_coreset(points: PointSet, j: int, eps: float) -> Coreset:
    """Deterministic coreset for sums of squared distances to linear j-subspaces.

    Keeps the first m = min(n, d, j + ceil(j/eps) - 1) rows of Sigma^(m) V^T with
    unit weights; the energy of the dropped spectrum becomes the offset.
    """
    if points.weights is not None:
        raise InvalidInput("linear subspace coreset expects unweighted input; fold weights first")
    n, d = points.n, points.d
    if not 1 <= j <= d - 1:
        raise InvalidArgument(f"subspace dimension {j} must be in [1, {d - 1}]")
    m = min(n, d, coreset_size_linear(j, eps))
    factors = svd(points)
    s = (factors.v[:, :m] * factors.sigma[:m]).T
    delta = tail_energy(factors, m)
    return Coreset(points=s, weights=np.ones(m), delta=delta)


def _centered_fold(points: PointSet) -> tuple[np.ndarray, np.ndarray, float]:
    """The rows minus their (weighted) mean, row i scaled by sqrt(w_i), with the
    mean and the total weight.

    Unweighted input is centred at its plain mean and not scaled; unit
    weights give the same bytes.
    """
    rows = np.asarray(points.rows)
    if points.weights is None:
        mean = rows.mean(axis=0)
        return rows - mean, mean, float(points.n)
    w = np.asarray(points.weights)
    total = float(np.sum(w))
    if not total > 0:
        raise InvalidInput("total weight must be positive")
    mean = _weighted_mean(rows, w)
    return np.sqrt(w)[:, None] * (rows - mean), mean, total


def affine_subspace_coreset(points: PointSet, j: int, eps: float) -> Coreset:
    """Coreset for affine j-subspace queries: a symmetrized, recentered linear coreset.

    The rows are recentered at their (weighted) mean and scaled by sqrt(w_i)
    before the linear construction.  The output holds 2m points of weight
    W/(2m), W the total weight, whose weighted mean equals the input mean, so
    translations are charged correctly.
    """
    folded, mean, total = _centered_fold(points)
    inner = linear_subspace_coreset(PointSet(folded), j, eps)
    m = inner.size
    scaled = math.sqrt(m / total) * np.asarray(inner.points)
    s = mean[None, :] + np.vstack([scaled, -scaled])
    w = np.full(2 * m, total / (2 * m))
    return Coreset(points=s, weights=w, delta=inner.delta)


def affine_subspace_coreset_weighted(points: PointSet, j: int, eps: float) -> Coreset:
    """The same construction as :func:`affine_subspace_coreset`, which takes
    weighted and unweighted input alike."""
    return affine_subspace_coreset(points, j, eps)


def merge_coresets(parts: list[Coreset]) -> tuple[np.ndarray, np.ndarray, float]:
    """Union of coresets: stack points and weights, add the offsets."""
    if not parts:
        raise InvalidInput("nothing to merge")
    pts = np.vstack([np.asarray(c.points) for c in parts])
    w = np.concatenate([np.asarray(c.weights) for c in parts])
    delta = float(sum(c.delta for c in parts))
    return pts, w, delta
