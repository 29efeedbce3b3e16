"""Weighted k-means solvers, brute-force oracles and k-means coreset assembly."""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .coreset import Coreset
from .dimred import lift_coreset, reduce
from .errors import InvalidInput, ResourceLimit, check_int, check_real, check_seed
from .linalg import CenterSet, PointSet, Subspace, _Tsqr, _weighted_mean, svd
from .sensitivity import (
    DEFAULT_C_VC,
    _LLOYD_MAX_ITERS,
    _lloyd,
    bicriteria_kmeans,
    center_query_dimension,
    kmeans_sensitivities,
    sensitivity_sample,
    vc_sample_size,
)

BRUTE_FORCE_MAX_POINTS = 14
_BRUTE_CHUNK = 20000


def lloyd_solve(points: PointSet, k: int, seed: int) -> CenterSet:
    """Seeded Lloyd iteration on weighted points; cost never increases per step.

    Clusters that empty out are reseeded at the point with the largest
    weighted distance to its current center (see :func:`~tinycore.sensitivity._lloyd`).
    Squares that overflow float64 raise InvalidInput.
    """
    k, seed = check_int("k", k, 1, points.n), check_seed(seed)
    frame = points.frame
    centers = _lloyd(frame, points.effective_weights(), k, seed, 1, _LLOYD_MAX_ITERS)[0]
    return CenterSet(centers + frame.origin)


def _restricted_growth_strings(n: int, k: int) -> np.ndarray:
    """All canonical assignments of n items into at most k unlabeled parts."""
    prefixes = np.zeros((1, 1), dtype=np.int8)
    maxes = np.zeros(1, dtype=np.int8)
    for _ in range(1, n):
        parts = []
        part_maxes = []
        limit = np.minimum(maxes + 1, k - 1)
        for v in range(k):
            keep = limit >= v
            if not np.any(keep):
                continue
            block = prefixes[keep]
            col = np.full((block.shape[0], 1), v, dtype=np.int8)
            parts.append(np.hstack([block, col]))
            part_maxes.append(np.maximum(maxes[keep], v))
        prefixes = np.vstack(parts)
        maxes = np.concatenate(part_maxes)
    return prefixes


def _partition_costs(rows: np.ndarray, w: np.ndarray, assignments: np.ndarray, k: int) -> np.ndarray:
    """Weighted k-means cost of each candidate partition (centroids per part)."""
    total_sq = float(np.sum(w * np.sum(rows * rows, axis=1)))
    n = rows.shape[0]
    onehot = np.zeros((assignments.shape[0], n, k))
    rows_idx = np.arange(n)
    for c in range(assignments.shape[0]):
        onehot[c, rows_idx, assignments[c]] = 1.0
    onehot *= w[None, :, None]
    part_w = onehot.sum(axis=1)
    sums = np.einsum("cnk,nd->ckd", onehot, rows)
    sq_norm = np.sum(sums * sums, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(part_w > 0, sq_norm / np.where(part_w > 0, part_w, 1.0), 0.0)
    return total_sq - contrib.sum(axis=1)


def brute_force_kmeans(points: PointSet, k: int) -> CenterSet:
    """Exact optimum by enumerating all partitions; guarded to n <= 14.

    Partitions are scored on the rows of the point set's frame (moved to
    their mean): the expansion in :func:`_partition_costs` is accurate only
    near the origin, and a partition's cost does not depend on translation.
    A cost that is not finite (weighted squares past float64) is never
    chosen, and with no finite cost the call raises InvalidInput.
    """
    n, k = points.n, check_int("k", k)
    if n > BRUTE_FORCE_MAX_POINTS:
        raise ResourceLimit(f"brute force limited to {BRUTE_FORCE_MAX_POINTS} points, got {n}")
    rows, w = points.rows, points.effective_weights()
    if k >= n:
        return CenterSet(rows.copy())
    assignments = _restricted_growth_strings(n, k)
    centred = points.frame.rows
    best_cost = math.inf
    best = None
    for start in range(0, assignments.shape[0], _BRUTE_CHUNK):
        chunk = assignments[start : start + _BRUTE_CHUNK].astype(np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            costs = _partition_costs(centred, w, chunk, k)
        costs[~np.isfinite(costs)] = math.inf  # squares past float64 never win: `best` stays None
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best = chunk[i]
    if best is None:
        raise InvalidInput("no partition has a finite cost: the squared entries overflow float64")
    centers = []
    for part in range(k):
        mask = best == part
        if np.any(mask):
            centers.append(_weighted_mean(rows[mask], w[mask]))
    return CenterSet(np.vstack(centers))


def kmeans_coreset(
    points: PointSet,
    k: int,
    eps: float,
    delta: float,
    seed: int,
    sample_size: Optional[int] = None,
    c_vc: float = DEFAULT_C_VC,
) -> Coreset:
    """Sensitivity-sampling coreset for k center queries (offset is zero).

    Pipeline: bicriteria approximation, sensitivity bounds, VC sample size,
    non-uniform sample, all on the rows of positive weight (a row of weight
    0 carries no cost).  If the sample size reaches the input size, or the
    number of rows of positive weight, the input itself is returned,
    ``Coreset(points.rows, points.effective_weights(), 0.0)``, which shares
    its read-only rows.
    `sample_size`, a positive integer, overrides the VC formula (the
    streaming layer uses it to pin the summary size per level); a float is
    rejected, not truncated.  k may exceed n; eps and delta lie in (0, 1) and
    c_vc is positive, whether or not the formula is used.  Nothing is cached
    on `points`.
    """
    k, eps, delta = check_int("k", k), check_real("eps", eps, hi=1), check_real("delta", delta, hi=1)
    c_vc = check_real("c_vc", c_vc)
    rng = np.random.default_rng(check_seed(seed))
    seed_bic = int(rng.integers(2**62))
    seed_sample = int(rng.integers(2**62))
    s = None if sample_size is None else check_int("sample size", sample_size)
    if s is None or s < points.n:
        keep = points.effective_weights() > 0  # none kept: the bicriteria step raises
        positive = points if keep.all() or not keep.any() else PointSet(points.rows[keep], points.weights[keep])
        bicriteria = bicriteria_kmeans(positive, min(k, positive.n), delta, seed_bic)
        profile = kmeans_sensitivities(positive, bicriteria)
        if s is None:
            s = vc_sample_size(profile.total, center_query_dimension(points.d, k), eps, delta, c_vc=c_vc)
        if s < positive.n:
            return sensitivity_sample(positive, profile, s, seed_sample)
    return Coreset(points.rows, points.effective_weights(), 0.0)


def small_kmeans_coreset(
    points: PointSet,
    k: int,
    eps: float,
    delta: float,
    seed: int,
    sample_size: Optional[int] = None,
    c_vc: float = DEFAULT_C_VC,
) -> Coreset:
    """Dimension-independent k-means coreset: reduce, sample at eps/8, lift.

    The reduction contributes a positive offset whenever the retained rank is
    below the input rank; the sampled part keeps offset zero.
    """
    reduced = reduce(points, j=k, eps=eps, mode="coreset-lift")
    inner = kmeans_coreset(reduced.points, k, eps / 8.0, delta, seed, sample_size=sample_size, c_vc=c_vc)
    return lift_coreset(inner, reduced)


def best_affine_subspace(points: PointSet, j: int) -> Subspace:
    """Optimal affine j-subspace of a weighted point set (centered SVD fit), 1 <= j <= d - 1."""
    j = check_int("subspace dimension", j, 1, points.d - 1)
    acc = _Tsqr(centred=True).feed(points.rows, points.weights)
    factors = svd(acc)
    if acc.energy == 0:  # every row at the mean: any subspace through it is optimal
        return Subspace(basis=np.eye(points.d)[:, :j], offset=acc.mean)
    return Subspace(basis=factors.v[:, :j], offset=acc.mean)


def approx_solution(
    points: PointSet,
    k: int,
    eps: float,
    solver: Callable[[PointSet, int], CenterSet],
    delta: float = 0.1,
    seed: int = 0,
) -> CenterSet:
    """k centers by reduce, an eps/8 inner coreset, `solver(coreset, k)`, lift.

    With an alpha-approximate `solver` on the weighted reduced instance the
    returned centers cost at most alpha * (1 + eps) / (1 - eps) times the
    optimum on the full input.
    """
    reduced = reduce(points, j=k, eps=check_real("eps", eps, hi=1), mode="coreset-lift")
    low, basis = reduced.points, reduced.basis
    del reduced
    # with `reduced` gone, rebinding frees the reduced set before the solver runs
    low = kmeans_coreset(low, k, eps / 8.0, delta, seed=seed).as_point_set()
    return CenterSet(np.asarray(solver(low, k).centers) @ basis.T)
