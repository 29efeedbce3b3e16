"""Coresets for k-clustering under m-similar Bregman divergences.

A divergence sandwiched between m * d_B and d_B for a Mahalanobis distance
d_B obeys the centroid decomposition identity, so any point set whose best
k-clustering is not much cheaper than its 1-clustering can be represented
exactly enough by its centroid, its weight and its internal cost.  The
construction splits the input recursively, by k-means of the rows mapped by
B, until every leaf is such a set or the depth bound is reached.  It returns
a :class:`Coreset`: one centroid per leaf as its points, the leaf weights as
its weights, and the summed internal cost as its offset delta.
:meth:`Divergence.cost` prices centers against it, and coresets of disjoint
inputs merge through :func:`~tinycore.coreset.merge_coresets` like any other.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .clustering import brute_force_kmeans
from .coreset import Coreset, coreset_cost
from .errors import InvalidArgument, InvalidInput, as_floats, check_int, check_real, check_seed, size_limit
from .linalg import CenterSet, PointSet, _as_readonly, _nearest, _weighted_mean, dist2_rows
from .sensitivity import _LLOYD_MAX_ITERS, _lloyd

logger = logging.getLogger("tinycore.bregman")

MAX_RECURSION_DEPTH = 12
_BRUTE_LEAF = 8
_VALIDATE_DRAWS = 200


@dataclass(frozen=True)
class Divergence:
    """An m-similar Bregman divergence declared against a Mahalanobis distance.

    `matrix` is the regular matrix B of the declared d_B(x, y) = ||B(x-y)||^2;
    `similarity` is the constant m in (0, 1] with m * d_B <= d_phi <= d_B.
    Without a custom evaluator the divergence *is* d_B, which is the squared
    Euclidean distance between the rows mapped by B.
    """

    matrix: Optional[np.ndarray] = None
    similarity: float = 1.0
    evaluator: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "squared-euclidean"

    def __post_init__(self):
        check_real("similarity", self.similarity, hi=1, closed=True)
        if self.matrix is not None:
            b = np.atleast_2d(as_floats(self.matrix, InvalidArgument, "Mahalanobis matrix"))
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise InvalidArgument("Mahalanobis matrix must be square")
            if not np.all(np.isfinite(b)):
                raise InvalidArgument("Mahalanobis matrix must have finite entries")
            # the rank's tolerance is relative to the largest singular value: B's scale is moot
            if np.linalg.matrix_rank(b) < b.shape[0]:
                raise InvalidArgument("Mahalanobis matrix must be regular")
            object.__setattr__(self, "matrix", _as_readonly(b))

    def _embed(self, rows: np.ndarray) -> np.ndarray:
        """Checked rows mapped by B, a new read-only array (the rows themselves when
        no matrix is declared); entries past float64 become inf, quietly."""
        if self.matrix is None:
            return rows
        if self.matrix.shape[1] != rows.shape[1]:
            raise InvalidArgument("Mahalanobis matrix size does not match the row dimension")
        with np.errstate(over="ignore", invalid="ignore"):
            mapped = rows @ self.matrix.T
        mapped.setflags(write=False)  # so that a PointSet of it keeps it, not a copy
        return mapped

    def mahalanobis(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        """d_B from each row to the point q (inf, quietly, where it passes float64)."""
        rows, q = _rows_and_point(points, q)
        with np.errstate(over="ignore", invalid="ignore"):
            diff = self._embed(rows - q)
            return np.sum(diff * diff, axis=1)

    def between(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        """d_phi from each row to the point q."""
        if self.evaluator is None:
            return self.mahalanobis(points, q)
        return np.asarray(self.evaluator(*_rows_and_point(points, q)))

    def to_centers(self, points: np.ndarray, centers: CenterSet) -> np.ndarray:
        """d_phi from each row to its nearest center, the rows read once as a PointSet's.

        Without an evaluator this is :func:`~tinycore.linalg.dist2_rows` on the
        rows and centers mapped by B (d_B in the mapped rows' frame); a custom
        evaluator is called once per center.
        """
        if not isinstance(centers, CenterSet):
            raise InvalidArgument("centers must be a CenterSet")
        rows = PointSet(points).rows
        if self.evaluator is not None:
            return np.array([self.between(rows, c) for c in centers.centers]).min(axis=0)
        return dist2_rows(self._embed(rows), CenterSet(self._embed(centers.centers)))

    def cost(self, coreset: Coreset, centers: CenterSet) -> float:
        """sum_i w_i * min_c d_phi(s_i, c) + delta: the cost of the centers on a coreset.

        With neither a matrix nor an evaluator it is :func:`~tinycore.coreset_cost`, in
        the coreset's cached frame; else the weighted sum of :meth:`to_centers` on its points.
        """
        if not isinstance(centers, CenterSet) or centers.d != coreset.d:
            raise InvalidArgument("centers must be a CenterSet of the coreset's dimension")
        if self.matrix is None and self.evaluator is None:
            return coreset_cost(coreset, centers)
        return float(np.sum(coreset.weights * self.to_centers(coreset.points, centers))) + coreset.delta

    def validate(self, sample: np.ndarray, rng: np.random.Generator) -> None:
        """Sampled check of a custom evaluator's similarity sandwich and centroid identity.

        A violation logs a diagnostic; declared custom divergences are trusted
        beyond these spot checks.  Without an evaluator d_phi is d_B, for which
        both hold exactly, so nothing is checked.
        """
        if self.evaluator is None:
            return
        pts = np.atleast_2d(sample)
        n = pts.shape[0]
        for _ in range(_VALIDATE_DRAWS):
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


def _rows_and_point(points, q) -> tuple[np.ndarray, np.ndarray]:
    """The rows as ``PointSet(points).rows`` (InvalidInput unless a non-empty, finite
    n x d matrix) and q as a finite float vector of their width (InvalidArgument),
    read before any divergence sees them: a custom evaluator gets these read-only rows."""
    rows = PointSet(points).rows
    q = as_floats(q, InvalidArgument, "divergence point")
    if q.shape != (rows.shape[1],) or not np.all(np.isfinite(q)):
        raise InvalidArgument(f"the point must be a finite vector of the rows' dimension {rows.shape[1]}")
    return rows, q


def squared_euclidean() -> Divergence:
    return Divergence()


def mahalanobis(matrix: np.ndarray) -> Divergence:
    return Divergence(matrix=matrix, similarity=1.0, name="mahalanobis")


def niceness_thresholds(eps: float, m: float) -> tuple[float, int]:
    """The pseudo-randomness threshold f1 and the recursion depth bound nu.

    f1(eps) = 1 / (1 + 4/(m*eps))^2; the depth bound is evaluated at eps/2
    with f3 = f1, i.e. nu = ceil(log(1/f1(eps/2)) / log(1 + f1(eps/2))).
    """
    eps, m = check_real("eps", eps, hi=1, closed=True), check_real("similarity", m, hi=1, closed=True)
    with size_limit("recursion depth bound"):
        f1 = 1.0 / (1.0 + 4.0 / (m * eps)) ** 2
        f1_half = 1.0 / (1.0 + 4.0 / (m * eps / 2.0)) ** 2
        nu = math.ceil(math.log(1.0 / f1_half) / math.log(1.0 + f1_half))
    return f1, nu


def _opt1(rows: np.ndarray, w: np.ndarray, div: Divergence) -> float:
    """Weighted cost of the rows at their weighted mean, the optimal 1-center of every
    Bregman divergence, priced by differences from that mean (no frame).  Squares
    that overflow give a cost that is not finite, which :func:`_partition` rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(w * div.between(rows, _weighted_mean(rows, w))))


def _kclustering(rows: np.ndarray, w: np.ndarray, k: int, div: Divergence, seed: int) -> np.ndarray:
    """One label per row of a k-clustering with positive weights: the index of its nearest center.

    The split is k-means under d_B, on the rows mapped by B (the identity when
    no matrix is declared): exact by :func:`~tinycore.brute_force_kmeans` for
    n <= 8, whose centers the rows then join, and above that the assignment
    of the seeded Lloyd iteration behind :func:`~tinycore.lloyd_solve`.  Rows
    join their nearest center in the mapped rows' frame (the lowest index on
    ties), so identical rows are never split.
    """
    mapped = PointSet(div._embed(rows), w)
    frame = mapped.frame
    if mapped.n <= k:
        centers = mapped.rows
    elif mapped.n <= _BRUTE_LEAF:
        centers = brute_force_kmeans(mapped, k).centers
    else:
        return _lloyd(frame, w, k, seed, 1, _LLOYD_MAX_ITERS)[1]
    return _nearest(frame, centers - frame.origin)[0]


def partition_helper(
    points: PointSet, k: int, depth: int, f1: float, div: Divergence
) -> list[np.ndarray]:
    """Recursive partition into pseudo-random or depth-bounded leaves.

    Returns index arrays into the input rows; the leaves partition the rows
    of positive weight exactly (rows of weight 0 carry no cost and are left
    out).  A split is proposed by k-means under d_B with seed 0 (see
    :func:`_kclustering`) and kept only when the d_phi 1-clustering cost
    exceeds (1 + f1) times the summed costs of the parts; a leaf is a set
    whose split is not kept, or one at the depth bound.  k >= 1, depth >= 0 and f1 > 0.
    """
    k, depth, f1 = check_int("k", k), check_int("depth", depth, 0), check_real("f1", f1)
    return [leaf for leaf, _ in _partition(points, k, depth, f1, div, 0)]


def _partition(
    points: PointSet, k: int, depth: int, f1: float, div: Divergence, seed: int
) -> list[tuple[np.ndarray, float]]:
    """:func:`partition_helper` with each leaf's 1-clustering cost, every split seeded by `seed`."""
    rows, w = points.rows, points.effective_weights()

    def priced(indices: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], float]:
        """The part at these indices, its rows and weights gathered and flagged read-only
        before :func:`_opt1` reads them (so every PointSet of them keeps them), and its cost."""
        part = (indices, rows[indices], w[indices])
        for a in part[1:]:
            a.setflags(write=False)
        return part, _opt1(part[1], part[2], div)

    def recurse(
        indices: np.ndarray, part_rows: np.ndarray, part_w: np.ndarray, t: int, cost: float
    ) -> list[tuple[np.ndarray, float]]:
        """Split the part with these indices, rows and weights, whose cost is already priced."""
        if t >= depth or indices.shape[0] <= 1:
            return [(indices, cost)]
        labels = _kclustering(part_rows, part_w, k, div, seed)
        parts = [priced(indices[labels == p]) for p in np.unique(labels)]
        if len(parts) <= 1 or cost <= (1.0 + f1) * sum(c for _, c in parts):
            return [(indices, cost)]
        return [leaf for part, c in parts for leaf in recurse(*part, t + 1, c)]

    positive = np.flatnonzero(w > 0)
    if positive.shape[0] == 0:
        raise InvalidInput("total weight must be positive")
    top, total = priced(positive)
    if not np.isfinite(total):
        raise InvalidInput("the 1-clustering cost is not finite: the squared entries overflow float64")
    return recurse(*top, 0, total)


def bregman_coreset(
    points: PointSet, k: int, eps: float, div: Divergence, seed: int = 0
) -> Coreset:
    """One weighted centroid per leaf of the pseudo-random partition.

    The coreset's points are the leaf centroids, its weights the leaf
    weights and its delta the summed internal cost of the leaves, so
    ``div.cost(coreset, centers)`` is the leaves' summed cost.  The formula
    bound of 2 * k^nu leaves explodes (nu = 1,641 at eps = 0.5, m = 1), so
    the depth is capped at 12 with a diagnostic: at most k^12 leaves (3^12
    for k = 3) are left.  On noisy input nearly every split lowers the cost
    by more than the factor 1 + f1, so the output keeps one leaf per row up
    to that cap (200 and 2,000 noisy rows gave 200 and 2,000 points at
    k = 3).  Each split is seeded by `seed`.
    """
    eps, k, seed = check_real("eps", eps, hi=1), check_int("k", k), check_seed(seed)
    rows, w = points.rows, points.effective_weights()
    _, nu = niceness_thresholds(eps, div.similarity)
    # the split threshold runs at eps/2, matching the depth bound's evaluation point
    f1 = niceness_thresholds(eps / 2, div.similarity)[0]
    depth = min(nu, MAX_RECURSION_DEPTH)
    if nu > MAX_RECURSION_DEPTH:
        logger.info("recursion depth formula gives %d; capping at %d", nu, MAX_RECURSION_DEPTH)
    leaves = _partition(points, k, depth, f1, div, seed)
    # after the partition, which rejects input of zero total weight
    div.validate(rows[w > 0][:64], np.random.default_rng(seed))
    return Coreset(
        points=np.array([_weighted_mean(rows[leaf], w[leaf]) for leaf, _ in leaves]),
        weights=np.array([w[leaf].sum() for leaf, _ in leaves]),
        delta=sum(cost for _, cost in leaves),
    )
