"""Sensitivity sampling: importance scores, sample sizes and the non-uniform sampler.

A point's sensitivity is its worst-case share of the total clustering cost.
Upper bounds on sensitivities drive a non-uniform sample in which
high-influence points are kept deterministically and the rest are drawn
i.i.d. with probabilities proportional to their (renormalized) bounds.  The
resulting weighted set is an unbiased cost estimator whose size is governed
by the VC-dimension sample bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coreset import Coreset
from .errors import InvalidArgument, InvalidInput
from .linalg import PointSet, _as_readonly, _nearest

DEFAULT_C_S = 8.0
DEFAULT_C_VC = 1.0
_BETA = 2  # a bicriteria solution holds _BETA * k centers


@dataclass(frozen=True)
class SensitivityProfile:
    """Per-point sensitivity upper bounds and their sum."""

    sigma: np.ndarray
    total: float

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64).reshape(-1)
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise InvalidInput("sensitivity bounds must be positive and finite")
        total = float(np.sum(sigma))
        if abs(total - self.total) > 1e-9 * max(total, 1.0):
            raise InvalidInput("profile total does not match the sum of bounds")
        object.__setattr__(self, "sigma", _as_readonly(sigma))
        object.__setattr__(self, "total", total)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class BicriteriaSolution:
    """2k centers with per-cluster assignment, weighted costs and sizes."""

    centers: np.ndarray
    assignment: np.ndarray
    cluster_costs: np.ndarray
    cluster_sizes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centers", _as_readonly(self.centers))
        assignment = np.asarray(self.assignment, dtype=np.int64)
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "cluster_costs", _as_readonly(self.cluster_costs))
        object.__setattr__(self, "cluster_sizes", _as_readonly(self.cluster_sizes))

    @property
    def total_cost(self) -> float:
        return float(np.sum(self.cluster_costs))


def d2_seed(
    rows: np.ndarray,
    weights: np.ndarray,
    count: int,
    rng: np.random.Generator,
    restarts: int = 1,
    norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared-distance seeding: draw `count` rows, each proportional to its
    weighted squared distance from the rows already chosen, for `restarts`
    independent restarts side by side.  Returns restarts x count x d.

    Each draw inverts the cumulative scores at a uniform variate (searching
    to the right, so a row of score 0 is never drawn).  A restart whose
    scores sum to 0 repeats its first draw.  Distances expand
    ||p||^2 - 2 p.c + ||c||^2, so callers pass the rows of a point set's
    :class:`~tinycore.linalg.Frame` (moved to their mean), and its `norms`,
    the squared row norms, to keep the expansion accurate.
    """
    chosen, _ = _d2_pass(rows, weights, count, rng, restarts, norms, cost=False)
    return rows[chosen]


def _d2_pass(
    rows: np.ndarray, weights: np.ndarray, count: int, rng: np.random.Generator,
    restarts: int, norms: Optional[np.ndarray], cost: bool,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The draws of :func:`d2_seed` as restarts x count row indices and, with
    `cost`, each restart's seeding cost sum w * min ||p - c||^2 over its own
    draws (one more distance pass, for the last draw)."""
    cdf = np.cumsum(weights)
    if not cdf[-1] > 0:
        raise InvalidInput("total weight must be positive")
    if norms is None:
        norms = np.einsum("ij,ij->i", rows, rows)
    chosen = np.empty((restarts, count), dtype=np.intp)
    chosen[:, 0] = np.searchsorted(cdf, rng.random(restarts) * cdf[-1], side="right")
    best = np.full((restarts, rows.shape[0]), np.inf)
    cand = np.empty_like(best)
    for i in range(1, count + 1 if cost else count):
        last = chosen[:, i - 1]
        np.matmul(-2.0 * rows[last], rows.T, out=cand)
        cand += norms
        cand += norms[last][:, None]
        np.maximum(cand, 0.0, out=cand)
        np.minimum(best, cand, out=best)
        if i == count:
            break
        np.multiply(best, weights, out=cand)
        np.cumsum(cand, axis=1, out=cand)
        u = rng.random(restarts) * cand[:, -1]
        for r in range(restarts):
            if cand[r, -1] > 0:
                chosen[r, i] = np.searchsorted(cand[r], u[r], side="right")
            else:
                chosen[r, i] = chosen[r, 0]
    return chosen, best @ weights if cost else None


def bicriteria_kmeans(points: PointSet, k: int, delta: float, seed: int) -> BicriteriaSolution:
    """Constant-factor solution with 2k centers via squared-distance seeding.

    Seeds ceil(log2(1/delta)) independent restarts in one pass, keeps the one
    whose seeds cost least (the first on ties) and refines it with one
    weighted mean update.  Each restart's seeds cost at most c * OPT with
    constant probability (Aggarwal, Deshpande & Kannan 2009; Wei 2016), so
    with probability >= 1 - delta the cheapest does, and the refinement can
    only lower its cost.  A seeding cost that is not finite (squares that
    overflow float64) raises InvalidInput.
    """
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    if k > points.n:
        raise InvalidArgument(f"k={k} exceeds the number of points {points.n}")
    if not 0 < delta < 1:
        raise InvalidArgument("delta must lie in (0, 1)")
    frame = points.frame
    rows, norms = frame.rows, frame.norms
    w = points.effective_weights()
    count = min(points.n, _BETA * k)
    restarts = max(1, math.ceil(math.log2(1.0 / delta)))
    rng = np.random.default_rng(seed)
    chosen, seed_costs = _d2_pass(rows, w, count, rng, restarts, norms, cost=True)
    if not np.all(np.isfinite(seed_costs)):
        raise InvalidInput("seeding cost is not finite: the squared entries overflow float64")
    centers = rows[chosen[np.argmin(seed_costs)]]
    idx, _ = _nearest(rows, centers, norms)
    centers = _mean_update(rows, w, idx, centers)
    idx, sq = _nearest(rows, centers, norms)
    costs = np.bincount(idx, weights=w * sq, minlength=centers.shape[0])
    sizes = np.bincount(idx, weights=w, minlength=centers.shape[0])
    return BicriteriaSolution(
        centers=centers + frame.origin, assignment=idx, cluster_costs=costs, cluster_sizes=sizes
    )


def _mean_update(
    rows: np.ndarray, weights: np.ndarray, idx: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    out = centers.copy()
    k = centers.shape[0]
    sizes = np.bincount(idx, weights=weights, minlength=k)
    for col in range(rows.shape[1]):
        sums = np.bincount(idx, weights=weights * rows[:, col], minlength=k)
        occupied = sizes > 0
        out[occupied, col] = sums[occupied] / sizes[occupied]
    return out


def kmeans_sensitivities(points: PointSet, bic: BicriteriaSolution) -> SensitivityProfile:
    """Sensitivity upper bounds from a bicriteria solution.

    sigma_i = c_s * (w_i / |J_i|_w + w_i * dist2(p_i, C') / cost(A, C')) with
    c_s = DEFAULT_C_S; when the total cost vanishes only the cluster-share
    term remains.
    """
    if bic.assignment.shape[0] != points.n:
        raise InvalidInput("bicriteria assignment does not match the point set")
    frame = points.frame
    w = points.effective_weights()
    idx = np.asarray(bic.assignment)
    _, sq = _nearest(frame.rows, bic.centers - frame.origin, frame.norms)
    cluster_w = np.asarray(bic.cluster_sizes)[idx]
    if np.any(cluster_w <= 0):
        raise InvalidInput("bicriteria solution contains an empty assigned cluster")
    total_cost = bic.total_cost
    share = w / cluster_w
    if total_cost > 0:
        share = share + w * sq / total_cost
    sigma = DEFAULT_C_S * share
    sigma = np.maximum(sigma, 1.0 / points.n)
    return SensitivityProfile(sigma=sigma, total=float(np.sum(sigma)))


def movement_sensitivities(
    points_a: PointSet,
    points_b: PointSet,
    profile_b: SensitivityProfile,
    opt_cost: float,
    alpha: float,
) -> SensitivityProfile:
    """Transfer sensitivity bounds from a moved copy of the input.

    Valid when the weighted movement sum is at most alpha times the optimal
    cost; each bound becomes (4 + 4*alpha) * (sigma_b + w * move / opt_cost).
    """
    if not opt_cost > 0:
        raise InvalidInput("optimal cost must be positive")
    if points_a.rows.shape != points_b.rows.shape:
        raise InvalidArgument("point sets must have identical shape")
    if profile_b.n != points_a.n:
        raise InvalidArgument("profile length does not match the point sets")
    w = points_a.effective_weights()
    move = np.sum((np.asarray(points_a.rows) - np.asarray(points_b.rows)) ** 2, axis=1)
    budget = float(np.sum(w * move))
    if budget > alpha * opt_cost * (1 + 1e-9):
        raise InvalidInput(
            f"movement {budget:.3e} exceeds the allowed alpha * opt = {alpha * opt_cost:.3e}"
        )
    factor = 4.0 + 4.0 * alpha
    sigma = factor * (np.asarray(profile_b.sigma) + w * move / opt_cost)
    return SensitivityProfile(sigma=sigma, total=float(np.sum(sigma)))


def vc_sample_size(
    total_sensitivity: float,
    dim_bound: int,
    eps: float,
    delta: float,
    c_vc: float = DEFAULT_C_VC,
) -> int:
    """Sample size ceil(c_vc * S/eps^2 * (dim * log2(max(S, 2)) + log2(1/delta)))."""
    if total_sensitivity <= 0 or dim_bound <= 0:
        raise InvalidArgument("total sensitivity and dimension bound must be positive")
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise InvalidArgument("eps and delta must lie in (0, 1)")
    s = total_sensitivity
    raw = c_vc * s / eps**2 * (dim_bound * math.log2(max(s, 2.0)) + math.log2(1.0 / delta))
    return max(1, math.ceil(raw))


def center_query_dimension(d: int, k: int) -> int:
    """VC-dimension bound for ranges induced by k point centers in d dimensions."""
    return max(1, math.ceil(d * k * math.log2(k + 1)))


def renormalize_bounds(sigma: np.ndarray, total: float, s: int) -> np.ndarray:
    """Raise the remaining bounds to sum back to `total` without passing total/s.

    Solves for sigma1 = min(t * sigma, total/s) with t >= 1 chosen so the sum
    is exact; this is the fixpoint of distributing the removed mass
    proportionally and clipping.
    """
    cap = total / s
    if np.any(sigma > cap * (1 + 1e-12)):
        raise InvalidInput("renormalization input still contains high-sensitivity points")
    current = float(np.sum(sigma))
    if current >= total * (1 - 1e-15):
        return sigma.copy()
    if sigma.shape[0] * cap < total * (1 - 1e-12):
        raise InvalidInput("not enough remaining points to absorb the removed mass")
    # Water-fill over the breakpoints t_i = cap / sigma_i in increasing order.
    order = np.argsort(cap / sigma)
    sorted_sigma = sigma[order]
    breakpoints = cap / sorted_sigma
    suffix = np.concatenate([np.cumsum(sorted_sigma[::-1])[::-1], [0.0]])
    out = np.empty_like(sigma)
    clipped_mass = 0.0
    for i, t_i in enumerate(breakpoints):
        # with the first i entries clipped, the sum at multiplier t is
        # clipped_mass + t * suffix[i]
        t = (total - clipped_mass) / suffix[i]
        if t <= t_i:
            out[order[:i]] = cap
            out[order[i:]] = np.minimum(t * sorted_sigma[i:], cap)
            return out
        clipped_mass += cap
    out[:] = cap
    return out


def sensitivity_sample(points: PointSet, profile: SensitivityProfile, s: int, seed: int) -> Coreset:
    """Draw an s-point weighted sample; points above the 1/s share are kept outright.

    Every output weight is at least the corresponding input weight, and the
    sample is an unbiased estimator of the weighted cost of any fixed shape.
    """
    if s < 1:
        raise InvalidArgument("sample size must be >= 1")
    if profile.n != points.n:
        raise InvalidArgument("profile length does not match the point set")
    if not profile.total > 0:
        raise InvalidInput("degenerate sensitivity profile")
    sigma = np.asarray(profile.sigma)
    total = profile.total
    rows = np.asarray(points.rows)
    w = points.effective_weights()

    high = sigma / total > 1.0 / s
    rest = ~high
    n_rest = int(np.sum(rest))
    if n_rest < s:
        # Too few low-sensitivity points to renormalize against: keep everything.
        return Coreset(points=rows, weights=w, delta=0.0)

    renorm = renormalize_bounds(sigma[rest], total, s)
    drawn = np.random.default_rng(seed).choice(n_rest, size=s, p=renorm / total)
    rest_idx = np.where(rest)[0]
    sampled_idx = rest_idx[drawn]
    # the cap renorm <= total/s makes each factor >= 1; guard the last ulp
    sampled_w = np.maximum(w[sampled_idx] * total / (s * renorm[drawn]), w[sampled_idx])

    pts = np.vstack([rows[high], rows[sampled_idx]]) if np.any(high) else rows[sampled_idx]
    wts = np.concatenate([w[high], sampled_w]) if np.any(high) else sampled_w
    return Coreset(points=pts, weights=wts, delta=0.0)
