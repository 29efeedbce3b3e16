"""Clustering-feature coresets for k-clustering under m-similar Bregman divergences.

A divergence sandwiched between m * d_B and d_B for a Mahalanobis distance
d_B obeys the centroid decomposition identity, so any point set whose best
k-clustering is not much cheaper than its 1-clustering can be represented
exactly enough by a single clustering feature (centroid, weight, internal
cost).  The construction partitions the input recursively until every leaf
is such a set or the depth bound is reached.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgument, InvalidInput
from .linalg import CenterSet, PointSet, _as_readonly

logger = logging.getLogger("tinycore.bregman")

MAX_RECURSION_DEPTH = 12
_BRUTE_LEAF = 8
_LLOYD_RESTARTS = 3


@dataclass(frozen=True)
class Divergence:
    """An m-similar Bregman divergence declared against a Mahalanobis distance.

    `matrix` is the regular matrix B of the declared d_B(x, y) = ||B(x-y)||^2;
    `similarity` is the constant m in (0, 1] with m * d_B <= d_phi <= d_B.
    Without a custom evaluator the divergence *is* d_B.
    """

    matrix: Optional[np.ndarray] = None
    similarity: float = 1.0
    evaluator: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "squared-euclidean"

    def __post_init__(self):
        if not 0 < self.similarity <= 1:
            raise InvalidArgument("similarity must lie in (0, 1]")
        if self.matrix is not None:
            b = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
            if b.shape[0] != b.shape[1]:
                raise InvalidArgument("Mahalanobis matrix must be square")
            if abs(np.linalg.det(b)) < 1e-12:
                raise InvalidArgument("Mahalanobis matrix must be regular")
            object.__setattr__(self, "matrix", _as_readonly(b))

    def mahalanobis(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        diff = np.atleast_2d(points) - np.asarray(q)[None, :]
        if self.matrix is not None:
            diff = diff @ np.asarray(self.matrix).T
        return np.sum(diff * diff, axis=1)

    def between(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        """d_phi from each row to the point q."""
        if self.evaluator is not None:
            return np.asarray(self.evaluator(np.atleast_2d(points), np.asarray(q)))
        return self.mahalanobis(points, q)

    def to_centers(self, points: np.ndarray, centers: CenterSet) -> np.ndarray:
        """d_phi from each row to its nearest center."""
        cols = [self.between(points, c) for c in np.asarray(centers.centers)]
        return np.min(np.column_stack(cols), axis=1)

    def validate(self, sample: np.ndarray, rng: np.random.Generator, draws: int = 200) -> None:
        """Sampled check of the similarity sandwich and the centroid identity.

        A violation logs a diagnostic; declared custom divergences are trusted
        beyond these spot checks.
        """
        pts = np.atleast_2d(sample)
        n = pts.shape[0]
        for _ in range(draws):
            p = pts[rng.integers(n)] + 0.01 * rng.standard_normal(pts.shape[1])
            q = pts[rng.integers(n)] + 0.01 * rng.standard_normal(pts.shape[1])
            d_phi = float(self.between(p[None, :], q)[0])
            d_b = float(self.mahalanobis(p[None, :], q)[0])
            if d_phi > d_b * (1 + 1e-9) + 1e-12 or d_phi < self.similarity * d_b * (1 - 1e-9) - 1e-12:
                logger.warning(
                    "divergence %s violates its similarity sandwich: d_phi=%.3e d_B=%.3e m=%.3f",
                    self.name, d_phi, d_b, self.similarity,
                )
                return
        for _ in range(20):
            subset = pts[rng.choice(n, size=min(8, n), replace=False)]
            z = pts[rng.integers(n)] + rng.standard_normal(pts.shape[1])
            lhs = float(np.sum(self.between(subset, z)))
            mu = subset.mean(axis=0)
            rhs = float(np.sum(self.between(subset, mu))) + subset.shape[0] * float(
                self.between(mu[None, :], z)[0]
            )
            if abs(lhs - rhs) > 1e-6 * max(abs(lhs), 1.0):
                logger.warning(
                    "divergence %s violates the centroid identity: lhs=%.6e rhs=%.6e",
                    self.name, lhs, rhs,
                )
                return


def squared_euclidean() -> Divergence:
    return Divergence()


def mahalanobis(matrix: np.ndarray) -> Divergence:
    return Divergence(matrix=matrix, similarity=1.0, name="mahalanobis")


@dataclass(frozen=True)
class ClusteringFeature:
    """Centroid, weight and internal 1-clustering cost of a represented set."""

    centroid: np.ndarray
    weight: float
    internal_cost: float

    def __post_init__(self):
        object.__setattr__(self, "centroid", _as_readonly(np.asarray(self.centroid).reshape(-1)))
        if not self.weight > 0:
            raise InvalidInput("clustering feature weight must be positive")
        if self.internal_cost < 0:
            raise InvalidInput("clustering feature internal cost must be non-negative")


def cf_cost(cf: ClusteringFeature, centers: CenterSet, div: Divergence) -> float:
    """Cost charged by one clustering feature: internal cost plus the weighted
    divergence from its centroid to the nearest center."""
    if centers.d != cf.centroid.shape[0]:
        raise InvalidArgument("center dimension does not match the feature")
    near = float(div.to_centers(np.asarray(cf.centroid)[None, :], centers)[0])
    return cf.internal_cost + cf.weight * near


def cf_total_cost(features: list[ClusteringFeature], centers: CenterSet, div: Divergence) -> float:
    return float(sum(cf_cost(cf, centers, div) for cf in features))


def niceness_thresholds(eps: float, m: float) -> tuple[float, int]:
    """The pseudo-randomness threshold f1 and the recursion depth bound nu.

    f1(eps) = 1 / (1 + 4/(m*eps))^2; the depth bound is evaluated at eps/2
    with f3 = f1, i.e. nu = ceil(log(1/f1(eps/2)) / log(1 + f1(eps/2))).
    """
    if not 0 < eps <= 1:
        raise InvalidArgument("eps must lie in (0, 1]")
    if not 0 < m <= 1:
        raise InvalidArgument("similarity must lie in (0, 1]")
    f1 = 1.0 / (1.0 + 4.0 / (m * eps)) ** 2
    f1_half = 1.0 / (1.0 + 4.0 / (m * eps / 2.0)) ** 2
    nu = math.ceil(math.log(1.0 / f1_half) / math.log(1.0 + f1_half))
    return f1, nu


def _centroid(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (w[:, None] * rows).sum(axis=0) / w.sum()


def _opt1(rows: np.ndarray, w: np.ndarray, div: Divergence) -> float:
    mu = _centroid(rows, w)
    return float(np.sum(w * div.between(rows, mu)))


def _assign(rows: np.ndarray, centers: CenterSet, div: Divergence) -> np.ndarray:
    cols = np.column_stack([div.between(rows, c) for c in np.asarray(centers.centers)])
    return np.argmin(cols, axis=1)


def _brute_kclustering(rows: np.ndarray, w: np.ndarray, k: int, div: Divergence) -> CenterSet:
    from .clustering import _restricted_growth_strings  # partition enumeration

    n = rows.shape[0]
    best_cost, best_centers = math.inf, None
    for assign in _restricted_growth_strings(n, k).astype(np.int64):
        centers, cost = [], 0.0
        for part in range(assign.max() + 1):
            mask = assign == part
            mu = _centroid(rows[mask], w[mask])
            cost += float(np.sum(w[mask] * div.between(rows[mask], mu)))
            centers.append(mu)
        if cost < best_cost:
            best_cost, best_centers = cost, centers
    return CenterSet(np.vstack(best_centers))


def _lloyd_kclustering(
    rows: np.ndarray, w: np.ndarray, k: int, div: Divergence, rng: np.random.Generator
) -> CenterSet:
    n = rows.shape[0]
    best_cost, best = math.inf, None
    for _ in range(_LLOYD_RESTARTS):
        idx = rng.choice(n, size=k, replace=False)
        centers = rows[idx].copy()
        for _ in range(50):
            assign = _assign(rows, CenterSet(centers), div)
            new_centers = centers.copy()
            for part in range(k):
                mask = assign == part
                if np.any(mask):
                    new_centers[part] = _centroid(rows[mask], w[mask])
            if np.allclose(new_centers, centers):
                break
            centers = new_centers
        cost = float(np.sum(w * div.to_centers(rows, CenterSet(centers))))
        if cost < best_cost:
            best_cost, best = cost, centers
    return CenterSet(best)


def default_bregman_solver(points: PointSet, k: int, div: Divergence, seed: int = 0) -> CenterSet:
    """Optimal centers for n <= 12, seeded Lloyd with restarts above that."""
    rows = np.asarray(points.rows)
    w = points.effective_weights()
    if points.n <= k:
        return CenterSet(rows.copy())
    if points.n <= _BRUTE_LEAF:
        return _brute_kclustering(rows, w, k, div)
    return _lloyd_kclustering(rows, w, k, div, np.random.default_rng(seed))


BregmanSolver = Callable[[PointSet, int, Divergence], CenterSet]


def partition_helper(
    points: PointSet,
    k: int,
    level: int,
    depth: int,
    f1: float,
    solver: BregmanSolver,
    div: Divergence,
) -> list[np.ndarray]:
    """Recursive partition into pseudo-random or depth-bounded leaves.

    Returns index arrays into the input rows; the leaves partition the input
    exactly.  A leaf is emitted when its 1-clustering cost is within a
    (1 + f1) factor of the summed 1-clustering costs of its induced k-parts,
    or at the depth bound.
    """
    if level > depth:
        raise InvalidArgument("recursion level exceeds the declared depth")
    rows = np.asarray(points.rows)
    w = points.effective_weights()
    idx_all = np.arange(points.n)

    def recurse(indices: np.ndarray, t: int) -> list[np.ndarray]:
        sub = rows[indices]
        sw = w[indices]
        if t >= depth or indices.shape[0] <= 1:
            return [indices]
        centers = solver(PointSet(sub, sw), min(k, indices.shape[0]), div)
        assign = _assign(sub, centers, div)
        parts = [indices[assign == p] for p in range(centers.k)]
        parts = [p for p in parts if p.shape[0] > 0]
        if len(parts) <= 1:
            return [indices]
        split_cost = sum(_opt1(rows[p], w[p], div) for p in parts)
        whole_cost = _opt1(sub, sw, div)
        if whole_cost <= (1.0 + f1) * split_cost:
            return [indices]
        out: list[np.ndarray] = []
        for p in parts:
            out.extend(recurse(p, t + 1))
        return out

    return recurse(idx_all, level)


def bregman_coreset(
    points: PointSet,
    k: int,
    eps: float,
    div: Divergence,
    solver: Optional[BregmanSolver] = None,
    seed: int = 0,
) -> list[ClusteringFeature]:
    """One clustering feature per leaf of the pseudo-random partition.

    The feature count is at most 2 * k^nu; the recursion depth is capped at
    12 with a diagnostic because the formula value explodes for small eps.
    """
    if not 0 < eps < 1:
        raise InvalidArgument("eps must lie in (0, 1)")
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    rows = np.asarray(points.rows)
    w = points.effective_weights()
    if solver is None:
        def solver(ps: PointSet, kk: int, dv: Divergence) -> CenterSet:
            return default_bregman_solver(ps, kk, dv, seed=seed)
    div.validate(rows[: min(points.n, 64)], np.random.default_rng(seed))
    if points.n <= k:
        return [
            ClusteringFeature(centroid=rows[i], weight=float(w[i]), internal_cost=0.0)
            for i in range(points.n)
        ]
    _, nu = niceness_thresholds(eps, div.similarity)
    # the split threshold runs at eps/2, matching the depth bound's evaluation point
    f1 = niceness_thresholds(eps / 2, div.similarity)[0]
    depth = min(nu, MAX_RECURSION_DEPTH)
    if nu > MAX_RECURSION_DEPTH:
        logger.info("recursion depth formula gives %d; capping at %d", nu, MAX_RECURSION_DEPTH)
    leaves = partition_helper(points, k, 0, depth, f1, solver, div)
    features = []
    for leaf in leaves:
        mu = _centroid(rows[leaf], w[leaf])
        features.append(
            ClusteringFeature(
                centroid=mu,
                weight=float(w[leaf].sum()),
                internal_cost=float(np.sum(w[leaf] * div.between(rows[leaf], mu))),
            )
        )
    return features
