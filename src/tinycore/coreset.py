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

from .errors import InvalidInput, as_offset, check_int, check_real, size_limit
from .linalg import Frame, PointSet, QueryShape, dist2, svd, tail_energy, _check_r, _Tsqr


@dataclass(frozen=True)
class Coreset:
    """Weighted summary (points, weights, delta) of a larger point set.

    The points and weights are those of one weighted :class:`PointSet`,
    which checks them, holds them read-only (sharing arrays that already
    are, copying others) and caches their frame; the coreset itself checks
    only that weights are given and that delta is a finite number >= 0.
    """

    points: np.ndarray
    weights: np.ndarray
    delta: float
    _point_set: PointSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weights is None:
            raise InvalidInput("coreset weights must be given")
        ps = PointSet(self.points, self.weights)
        object.__setattr__(self, "_point_set", ps)
        object.__setattr__(self, "points", ps.rows)
        object.__setattr__(self, "weights", ps.weights)
        object.__setattr__(self, "delta", as_offset(self.delta, "coreset offset"))

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
    j, eps = check_int("subspace dimension", j), check_real("eps", eps)
    with size_limit("coreset size"):
        return j + math.ceil(j / eps) - 1


def linear_subspace_coreset(points: PointSet, j: int, eps: float) -> Coreset:
    """Deterministic coreset for sums of squared distances to linear j-subspaces.

    Keeps the first m = min(n, d, j + ceil(j/eps) - 1) rows of Sigma^(m) V^T with
    unit weights, Sigma and V those of the rows scaled by sqrt(w_i) when the
    input is weighted; the energy of the dropped spectrum becomes the offset.
    When m = min(n, d) no direction is dropped: the rows are then those of
    the input's R factor, with offset 0, and no SVD is taken.
    """
    return _subspace_coreset(_Tsqr().feed(points.rows, points.weights), j, eps)


def affine_subspace_coreset(points: PointSet, j: int, eps: float) -> Coreset:
    """Coreset for affine j-subspace queries: a symmetrized, recentered linear coreset.

    The rows are recentered at their (weighted) mean and scaled by sqrt(w_i)
    before the linear construction.  The output holds 2m points of weight
    W/(2m), W the total weight, whose weighted mean equals the input mean, so
    translations are charged correctly.  When m = min(n, d) the rows scaled
    and mirrored are those of the R factor of the centred rows, and no SVD
    is taken.
    """
    return _subspace_coreset(_Tsqr(centred=True).feed(points.rows, points.weights), j, eps)


def _subspace_coreset(acc: _Tsqr, j: int, eps: float, offset: float = 0.0) -> Coreset:
    """The linear coreset of the rows fed to `acc`, or for a centred `acc` the
    affine one, with `offset` (the summed offsets of the coresets fed, if
    any) added to its own.

    Its m rows are Sigma^(m) V^T from one :func:`~tinycore.linalg.svd` of
    the accumulator, and its own offset is the energy past m.  When the
    accumulator's factor R has m rows, that is when m = min(n, d), nothing
    is cut: every subspace cost depends on the rows only through their Gram
    matrix, which R^T R equals, so the rows are R itself, checked by
    :func:`~tinycore.linalg._check_r`, with no offset of its own and no SVD.
    (The merges of a centred `acc` of more than 4096 rows, with more
    columns than rows, can give R more than min(n, d) rows; it takes the SVD.)

    The affine coreset is the linear one of the centred, folded rows, scaled
    by sqrt(m / W), mirrored, and moved to the mean.  Above 4096 rows the
    mean and the centring come from the merges of the accumulator's tree, not
    from one pass over all rows.  The points and weights are made here and
    flagged read-only, so the coreset keeps them without a copy.
    """
    d = acc.d
    j = check_int("subspace dimension", j, 1, d - 1)
    m = min(acc.n, d, coreset_size_linear(j, eps))
    r = acc.finish()
    if r.shape[0] == m:  # every direction is kept
        _check_r(acc.gram, acc.energy, r)
        s, delta = r.copy(), offset  # R stays the accumulator's
    else:
        factors = svd(acc)
        # row i is sigma_i v_i^T, made C-contiguous
        s = np.multiply(factors.v[:, :m].T, factors.sigma[:m, None], order="C")
        delta = tail_energy(factors, m) + offset
    if acc.centred:
        scaled = math.sqrt(m / acc.total) * s
        s = acc.mean[None, :] + np.vstack([scaled, -scaled])
        w = np.full(2 * m, acc.total / (2 * m))
    else:
        w = np.ones(m)
    for a in (s, w):
        a.setflags(write=False)
    return Coreset(points=s, weights=w, delta=delta)


def affine_subspace_coreset_weighted(points: PointSet, j: int, eps: float) -> Coreset:
    """The same construction as :func:`affine_subspace_coreset`, which takes
    weighted and unweighted input alike."""
    return affine_subspace_coreset(points, j, eps)


def merge_coresets(parts: list[Coreset]) -> Coreset:
    """The union of coresets as one coreset: points and weights stacked,
    offsets added.  It is a coreset of the union of their inputs."""
    if not parts:
        raise InvalidInput("nothing to merge")
    pts = np.vstack([c.points for c in parts])
    w = np.concatenate([c.weights for c in parts])
    for a in (pts, w):  # made here: the coreset keeps them, not a copy
        a.setflags(write=False)
    return Coreset(points=pts, weights=w, delta=float(sum(c.delta for c in parts)))
