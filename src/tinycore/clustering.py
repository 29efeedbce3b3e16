"""Weighted k-means solvers, brute-force oracles and k-means coreset assembly."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .coreset import Coreset, _centered_fold
from .dimred import lift_coreset, reduce
from .errors import InvalidArgument, InvalidInput, ResourceLimit
from .linalg import CenterSet, PointSet, QueryShape, Subspace, _nearest, _weighted_mean, svd
from .sensitivity import (
    DEFAULT_C_VC,
    SensitivityProfile,
    _mean_update,
    bicriteria_kmeans,
    center_query_dimension,
    d2_seed,
    kmeans_sensitivities,
    sensitivity_sample,
    vc_sample_size,
)

__all__ = [
    "CenterSet",
    "KMeansProblem",
    "AffineClusteringProblem",
    "lloyd_solve",
    "brute_force_kmeans",
    "kmeans_coreset",
    "small_kmeans_coreset",
    "approx_solution",
    "exact_tiny_solver",
]

BRUTE_FORCE_MAX_POINTS = 14
_BRUTE_CHUNK = 20000
_LLOYD_MAX_ITERS = 100


@dataclass(frozen=True)
class KMeansProblem:
    k: int


@dataclass(frozen=True)
class AffineClusteringProblem:
    """One affine j-subspace."""

    j: int


Problem = Union[KMeansProblem, AffineClusteringProblem]
Solver = Callable[[PointSet, Problem], QueryShape]


def lloyd_solve(points: PointSet, k: int, seed: int) -> CenterSet:
    """Seeded Lloyd iteration on weighted points; cost never increases per step.

    Clusters that empty out are reseeded at the point with the largest
    weighted distance to its current center.
    """
    if points.n < 1:
        raise InvalidInput("empty input")
    if not 1 <= k <= points.n:
        raise InvalidArgument(f"k={k} must be in [1, {points.n}]")
    frame = points.frame
    rows, norms = frame.rows, frame.norms
    w = points.effective_weights()
    rng = np.random.default_rng(seed)
    centers = d2_seed(rows, w, k, rng, norms=norms)[0]
    prev_idx = None
    for _ in range(_LLOYD_MAX_ITERS):
        idx, sq = _nearest(rows, centers, norms)
        occupied = np.bincount(idx, minlength=k) > 0
        if not np.all(occupied):
            for dead in np.where(~occupied)[0]:
                far = int(np.argmax(w * sq))
                centers[dead] = rows[far]
                idx, sq = _nearest(rows, centers, norms)
        if prev_idx is not None and np.array_equal(idx, prev_idx):
            break
        centers = _mean_update(rows, w, idx, centers)
        prev_idx = idx
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
    """Exact optimum by enumerating all partitions; guarded to n <= 14."""
    n = points.n
    if n > BRUTE_FORCE_MAX_POINTS:
        raise ResourceLimit(f"brute force limited to {BRUTE_FORCE_MAX_POINTS} points, got {n}")
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    rows = np.asarray(points.rows)
    w = points.effective_weights()
    if k >= n:
        return CenterSet(rows.copy())
    assignments = _restricted_growth_strings(n, k)
    best_cost = math.inf
    best = None
    for start in range(0, assignments.shape[0], _BRUTE_CHUNK):
        chunk = assignments[start : start + _BRUTE_CHUNK].astype(np.int64)
        costs = _partition_costs(rows, w, chunk, k)
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
    non-uniform sample.  If the computed sample size reaches the input size
    the input is returned verbatim (an exact coreset).  `sample_size`
    overrides the VC formula, which the streaming layer uses to pin the
    summary size per level.
    """
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise InvalidArgument("eps and delta must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    seed_bic = int(rng.integers(2**62))
    seed_sample = int(rng.integers(2**62))
    if sample_size is None:
        profile = _sensitivity_profile(points, k, delta, seed_bic)
        dim_bound = center_query_dimension(points.d, k)
        s = vc_sample_size(profile.total, dim_bound, eps, delta, c_vc=c_vc)
    else:
        s = int(sample_size)
        if s < 1:
            raise InvalidArgument("sample_size must be >= 1")
        profile = None
    if s >= points.n:
        return Coreset(points=points.rows, weights=points.effective_weights(), delta=0.0)
    if profile is None:
        profile = _sensitivity_profile(points, k, delta, seed_bic)
    return sensitivity_sample(points, profile, s, seed_sample)


def _sensitivity_profile(points: PointSet, k: int, delta: float, seed: int) -> SensitivityProfile:
    """Bicriteria solution, then sensitivity bounds, both in the frame of `points`.

    A frame built here is dropped again before the caller samples: sampling
    reads the rows themselves, and the frame is one more copy of them.
    """
    built = "frame" not in vars(points)
    bic = bicriteria_kmeans(points, min(k, points.n), delta, seed)
    profile = kmeans_sensitivities(points, bic)
    if built:
        object.__delattr__(points, "frame")
    return profile


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


def _lift_shape(shape: QueryShape, basis: np.ndarray) -> QueryShape:
    if isinstance(shape, CenterSet):
        return CenterSet(np.asarray(shape.centers) @ basis.T)
    lifted_basis = basis @ np.asarray(shape.basis)
    offset = None if shape.offset is None else basis @ np.asarray(shape.offset)
    return Subspace(basis=lifted_basis, offset=offset)


def best_affine_subspace(points: PointSet, j: int) -> Subspace:
    """Optimal affine j-subspace of a weighted point set (centered SVD fit)."""
    centered, mean, _ = _centered_fold(points)
    if not np.any(centered):
        return Subspace(basis=np.eye(points.d)[:, :j], offset=mean)
    factors = svd(PointSet(centered))
    return Subspace(basis=np.asarray(factors.v[:, :j]), offset=mean)


def exact_tiny_solver(points: PointSet, problem: Problem) -> QueryShape:
    """Exhaustive optimal solver for desk-scale instances (n <= 14)."""
    if isinstance(problem, KMeansProblem):
        return brute_force_kmeans(points, problem.k)
    return best_affine_subspace(points, problem.j)


def approx_solution(
    points: PointSet,
    problem: Problem,
    eps: float,
    solver: Solver,
    delta: float = 0.1,
    seed: int = 0,
) -> QueryShape:
    """Reduce, build an eps/8 inner coreset, solve in low dimension, lift.

    With an alpha-approximate `solver` on the weighted reduced instance the
    returned shape costs at most alpha * (1 + eps) / (1 - eps) times the
    optimum on the full input.
    """
    if not 0 < eps < 1:
        raise InvalidArgument("eps must lie in (0, 1)")
    if isinstance(problem, KMeansProblem):
        j_eff = problem.k
    elif isinstance(problem, AffineClusteringProblem):
        j_eff = problem.j + 1
    else:
        raise InvalidArgument(f"unsupported problem {problem!r}")
    reduced = reduce(points, j=j_eff, eps=eps, mode="coreset-lift")
    low, basis = reduced.points, np.asarray(reduced.basis)
    del reduced
    if isinstance(problem, KMeansProblem):
        # with `reduced` gone, rebinding frees the reduced set before the solver runs
        low = kmeans_coreset(low, problem.k, eps / 8.0, delta, seed=seed).as_point_set()
    return _lift_shape(solver(low, problem), basis)
