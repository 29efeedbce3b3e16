"""Coresets for the linear and affine j-subspace problems.

A coreset is the triple (S, w, delta): a small weighted point set plus a
query-independent offset.  Its cost against any query shape is
sum_i w_i * dist2(S_i, shape) + delta, and the constructions here keep that
within a (1+eps) factor of the input's cost for every subspace of the
requested dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidInput
from .linalg import (
    PointSet,
    QueryShape,
    dist2_rows,
    svd,
    tail_energy,
    _as_readonly,
)


@dataclass(frozen=True)
class Coreset:
    """Weighted summary (points, weights, delta) of a larger point set."""

    points: np.ndarray
    weights: np.ndarray
    delta: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if pts.shape[0] < 1:
            raise InvalidInput("coreset must contain at least one point")
        if w.shape[0] != pts.shape[0]:
            raise InvalidInput("coreset weight vector length mismatch")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise InvalidInput("coreset entries must be finite")
        if np.any(w < 0):
            raise InvalidInput("coreset weights must be non-negative")
        if not self.delta >= 0:
            raise InvalidInput("coreset offset must be non-negative")
        object.__setattr__(self, "points", _as_readonly(pts))
        object.__setattr__(self, "weights", _as_readonly(w))
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def as_point_set(self) -> PointSet:
        return PointSet(self.points, self.weights)


def coreset_cost(coreset: Coreset, shape: QueryShape) -> float:
    """Cost of a query shape against a coreset triple: weighted sum plus offset.

    This is the one evaluation used for coresets everywhere in the library and
    its tests; inputs themselves are evaluated by :func:`tinycore.linalg.dist2`.
    """
    per_row = dist2_rows(np.asarray(coreset.points), shape)
    return float(np.sum(np.asarray(coreset.weights) * per_row) + coreset.delta)


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
    factors = svd(points, compute_u=False)
    s = (factors.v[:, :m] * factors.sigma[:m]).T
    delta = tail_energy(factors, m)
    return Coreset(points=s, weights=np.ones(m), delta=delta)


def _affine_from_centered(
    centered: np.ndarray, mean: np.ndarray, total: float, j: int, eps: float
) -> Coreset:
    inner = linear_subspace_coreset(PointSet(centered), j, eps)
    m = inner.size
    scaled = math.sqrt(m / total) * np.asarray(inner.points)
    s = mean[None, :] + np.vstack([scaled, -scaled])
    w = np.full(2 * m, total / (2 * m))
    return Coreset(points=s, weights=w, delta=inner.delta)


def affine_subspace_coreset(points: PointSet, j: int, eps: float) -> Coreset:
    """Coreset for affine j-subspace queries: a symmetrized, recentered linear coreset.

    The output holds 2m points of weight n/(2m) whose weighted mean equals the
    input mean, so translations are charged correctly.
    """
    if points.weights is not None:
        return affine_subspace_coreset_weighted(points, j, eps)
    rows = np.asarray(points.rows)
    mean = rows.mean(axis=0)
    return _affine_from_centered(rows - mean, mean, float(points.n), j, eps)


def affine_subspace_coreset_weighted(points: PointSet, j: int, eps: float) -> Coreset:
    """Weighted-input variant: rows are recentered at the weighted mean and
    scaled by sqrt(w_i) before the linear construction."""
    if points.weights is None:
        return affine_subspace_coreset(points, j, eps)
    w = points.effective_weights()
    total = float(np.sum(w))
    if not total > 0:
        raise InvalidInput("total weight must be positive")
    rows = np.asarray(points.rows)
    mean = (w[:, None] * rows).sum(axis=0) / total
    folded = np.sqrt(w)[:, None] * (rows - mean)
    return _affine_from_centered(folded, mean, total, j, eps)


def merge_coresets(parts: list[Coreset]) -> tuple[np.ndarray, np.ndarray, float]:
    """Union of coresets: stack points and weights, add the offsets."""
    if not parts:
        raise InvalidInput("nothing to merge")
    pts = np.vstack([np.asarray(c.points) for c in parts])
    w = np.concatenate([np.asarray(c.weights) for c in parts])
    delta = float(sum(c.delta for c in parts))
    return pts, w, delta
