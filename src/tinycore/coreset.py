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

from .errors import InvalidInput, as_floats, check_int, check_real
from .linalg import Frame, PointSet, QueryShape, dist2, svd, tail_energy, _Tsqr


@dataclass(frozen=True)
class Coreset:
    """Weighted summary (points, weights, delta) of a larger point set.

    The points and weights are those of one weighted :class:`PointSet`,
    which checks them, holds them read-only and caches their frame; the
    coreset itself checks only that weights are given and that delta is a
    finite number >= 0.
    """

    points: np.ndarray
    weights: np.ndarray
    delta: float
    _point_set: PointSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weights is None:
            raise InvalidInput("coreset weights must be given")
        ps = PointSet(self.points, self.weights)
        delta = as_floats(self.delta, InvalidInput, "coreset offset")
        if delta.shape != () or not (np.isfinite(delta) and delta >= 0):
            raise InvalidInput("coreset offset must be a finite non-negative number")
        object.__setattr__(self, "_point_set", ps)
        object.__setattr__(self, "points", ps.rows)
        object.__setattr__(self, "weights", ps.weights)
        object.__setattr__(self, "delta", float(delta))

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


def _input_coreset(points: PointSet) -> Coreset:
    """The input itself as an exact coreset with offset 0, built without a copy.

    The coreset holds the input's read-only rows and weights (read-only unit
    weights for unweighted input) instead of the copies that
    :class:`PointSet` makes of the arrays it is given; both are checked already.
    """
    if points.weights is None:
        ones = np.ones(points.n)
        ones.setflags(write=False)
        weighted = object.__new__(PointSet)
        object.__setattr__(weighted, "rows", points.rows)
        object.__setattr__(weighted, "weights", ones)
        points = weighted
    core = object.__new__(Coreset)
    for name, value in (("points", points.rows), ("weights", points.weights), ("delta", 0.0)):
        object.__setattr__(core, name, value)
    object.__setattr__(core, "_point_set", points)
    return core


def coreset_cost(coreset: Coreset, shape: QueryShape) -> float:
    """Cost of a query shape against a coreset: ``dist2(S, shape) + delta``.

    The weighted sum is :func:`tinycore.linalg.dist2` on the coreset's point
    set, so inputs and coresets share one evaluation and one cached frame.
    """
    return dist2(coreset.as_point_set(), shape) + coreset.delta


def coreset_size_linear(j: int, eps: float) -> int:
    """Number of rows of the linear j-subspace coreset: j + ceil(j/eps) - 1."""
    j = check_int("subspace dimension", j)
    return j + math.ceil(j / check_real("eps", eps)) - 1


def linear_subspace_coreset(points: PointSet, j: int, eps: float) -> Coreset:
    """Deterministic coreset for sums of squared distances to linear j-subspaces.

    Keeps the first m = min(n, d, j + ceil(j/eps) - 1) rows of Sigma^(m) V^T with
    unit weights; the energy of the dropped spectrum becomes the offset.
    """
    if points.weights is not None:
        raise InvalidInput("linear subspace coreset expects unweighted input; fold weights first")
    return _subspace_coreset(_Tsqr().feed(points.rows), j, eps)


def affine_subspace_coreset(points: PointSet, j: int, eps: float) -> Coreset:
    """Coreset for affine j-subspace queries: a symmetrized, recentered linear coreset.

    The rows are recentered at their (weighted) mean and scaled by sqrt(w_i)
    before the linear construction.  The output holds 2m points of weight
    W/(2m), W the total weight, whose weighted mean equals the input mean, so
    translations are charged correctly.
    """
    return _subspace_coreset(_Tsqr(centred=True).feed(points.rows, points.weights), j, eps)


def _subspace_coreset(acc: _Tsqr, j: int, eps: float) -> Coreset:
    """The linear coreset of the rows fed to `acc`, or for a centred `acc` the
    affine one, built from one :func:`~tinycore.linalg.svd` of it.

    The affine coreset is the linear one of the centred, folded rows, scaled
    by sqrt(m / W), mirrored, and moved to the mean.  Above 4096 rows the
    mean and the centring come from the merges of the accumulator's tree, not
    from one pass over all rows.
    """
    d = acc.d
    j = check_int("subspace dimension", j, 1, d - 1)
    m = min(acc.n, d, coreset_size_linear(j, eps))
    factors = svd(acc)
    s = (factors.v[:, :m] * factors.sigma[:m]).T
    delta = tail_energy(factors, m)
    if not acc.centred:
        return Coreset(points=s, weights=np.ones(m), delta=delta)
    scaled = math.sqrt(m / acc.total) * s
    pts = acc.mean[None, :] + np.vstack([scaled, -scaled])
    return Coreset(points=pts, weights=np.full(2 * m, acc.total / (2 * m)), delta=delta)


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
