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

from .coreset import Coreset, _input_coreset
from .errors import InvalidArgument, InvalidInput, as_floats, check_int, check_real, check_seed
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
        sigma = as_floats(self.sigma, InvalidInput, "sensitivity bounds").reshape(-1)
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise InvalidInput("sensitivity bounds must be positive and finite")
        total = float(np.sum(sigma))
        if not abs(total - check_real("profile total", self.total)) <= 1e-9 * max(total, 1.0):
            raise InvalidInput("profile total does not match the sum of bounds")
        object.__setattr__(self, "sigma", _as_readonly(sigma))
        object.__setattr__(self, "total", total)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class BicriteriaSolution:
    """2k centers with per-row assignment and squared distance, and per-cluster
    weighted costs and sizes.

    `sq_distances` holds each row's squared distance to its assigned center,
    as the assignment pass measured it (in the frame of the rows), so that
    :func:`kmeans_sensitivities` needs no distance pass of its own.  It must
    have one entry per row of `assignment`.
    """

    centers: np.ndarray
    assignment: np.ndarray
    sq_distances: np.ndarray
    cluster_costs: np.ndarray
    cluster_sizes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centers", _as_readonly(self.centers))
        assignment = np.asarray(self.assignment, dtype=np.int64)
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        sq = _as_readonly(self.sq_distances)
        if sq.shape != assignment.shape:
            raise InvalidInput("squared distances do not match the assignment")
        object.__setattr__(self, "sq_distances", sq)
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

    Each draw inverts the cumulative scores at a uniform variate, in blocks
    of ceil(sqrt(n)) rows (see :func:`_draw`): a row of score 0 is never
    drawn, and no index reaches n.  A restart whose scores sum to 0 repeats
    its first draw.  Distances expand ||p||^2 - 2 p.c + ||c||^2, so callers
    pass the rows of a point set's :class:`~tinycore.linalg.Frame` (moved to
    their mean), and its `norms`, the squared row norms, to keep the
    expansion accurate.
    """
    chosen, _ = _d2_pass(rows, weights, count, rng, restarts, norms, cost=False)
    return rows[chosen]


def _d2_pass(
    rows: np.ndarray, weights: np.ndarray, count: int, rng: np.random.Generator,
    restarts: int, norms: Optional[np.ndarray], cost: bool,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The draws of :func:`d2_seed` as restarts x count row indices and, with
    `cost`, each restart's seeding cost sum w * min ||p - c||^2 over its own
    draws (one more distance pass, for the last draw).

    The first draw inverts the weights and every later one w * min ||p - c||^2,
    both through :func:`_draw`; a restart whose later scores sum to 0 gets
    its first draw again."""
    if not np.sum(weights) > 0:
        raise InvalidInput("total weight must be positive")
    if norms is None:
        norms = np.einsum("ij,ij->i", rows, rows)
    chosen = np.empty((restarts, count), dtype=np.intp)
    best = np.full((restarts, rows.shape[0]), np.inf)
    cand = np.empty_like(best)
    cand[:] = weights
    draw = _BlockedDraw(restarts, rows.shape[0])
    chosen[:, 0] = draw(cand, rng.random(restarts), 0)
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
        chosen[:, i] = draw(cand, rng.random(restarts), chosen[:, 0])
    return chosen, best @ weights if cost else None


def _draw(scores: np.ndarray, u: np.ndarray, fallback: int | np.ndarray) -> np.ndarray:
    """Invert each row of the non-negative restarts x n `scores` at its
    variate: the first index whose cumulative score exceeds u times the
    row's total, u in [0, 1), so an index of score 0 is never returned.  A
    row whose scores sum to 0 returns its `fallback` instead.  See
    :class:`_BlockedDraw`, which a pass of many draws builds once."""
    return _BlockedDraw(*scores.shape)(scores, u, fallback)


class _BlockedDraw:
    """The draws of :func:`_draw` on restarts x n scores, with the block
    layout, the index tables and the buffers built once.

    The inversion is blocked, over blocks of ceil(sqrt(n)) columns: the
    block sums (`np.add.reduceat`), a search in their ~sqrt(n) cumulative
    sums, and one cumulative sum inside the chosen block.  A draw thus reads
    the scores once but adds only about 2 sqrt(n) of them in sequence, where
    a full cumulative sum adds all n.  Rounding is guarded at both levels:

    - a variate that rounding puts at or past the grand total is moved just
      below it, which selects the last block with a positive sum;
    - a remainder at or past the chosen block's own cumulative sum (the
      block sum and the in-block sum round differently) is moved just below
      it, which selects the last positive row of that block.
    """

    def __init__(self, r: int, n: int):
        width = math.isqrt(n - 1) + 1
        self.starts = np.arange(0, n, width)
        # the columns of each block; the last block may be short, and its
        # missing columns repeat column n - 1
        self.cols = np.minimum(self.starts[:, None] + np.arange(width), n - 1)
        self.restart = np.arange(r)
        self.rows = self.restart[:, None]
        # the cumulative block sums, after a column of zeros
        self.cum = np.zeros((r, self.starts.shape[0] + 1))

    def __call__(self, scores: np.ndarray, u: np.ndarray, fallback: int | np.ndarray) -> np.ndarray:
        cum, restart = self.cum, self.restart
        np.add.accumulate(np.add.reduceat(scores, self.starts, axis=1), axis=1, out=cum[:, 1:])
        total = cum[:, -1]
        u = np.minimum(u * total, np.nextafter(total, 0.0))
        block = (cum[:, 1:] > u[:, None]).argmax(axis=1)
        cols = self.cols[block]
        inner = np.add.accumulate(scores[self.rows, cols], axis=1)
        rest = np.minimum(u - cum[restart, block], np.nextafter(inner[:, -1], 0.0))
        picked = cols[restart, (inner > rest[:, None]).argmax(axis=1)]
        return np.where(total > 0, picked, fallback)


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
    k, delta, seed = check_int("k", k, 1, points.n), check_real("delta", delta, hi=1), check_seed(seed)
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
        centers=centers + frame.origin, assignment=idx, sq_distances=sq, cluster_costs=costs,
        cluster_sizes=sizes,
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
    term remains.  dist2(p_i, C') is the solution's own `sq_distances`.
    """
    if bic.assignment.shape[0] != points.n:
        raise InvalidInput("bicriteria assignment does not match the point set")
    w = points.effective_weights()
    idx = np.asarray(bic.assignment)
    sq = np.asarray(bic.sq_distances)
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


def vc_sample_size(
    total_sensitivity: float,
    dim_bound: int,
    eps: float,
    delta: float,
    c_vc: float = DEFAULT_C_VC,
) -> int:
    """Sample size ceil(c_vc * S/eps^2 * (dim * log2(max(S, 2)) + log2(1/delta)))."""
    s = check_real("total sensitivity", total_sensitivity)
    dim_bound = check_int("dimension bound", dim_bound)
    eps, delta = check_real("eps", eps, hi=1), check_real("delta", delta, hi=1)
    c_vc = check_real("c_vc", c_vc)
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
    s, seed = check_int("sample size", s), check_seed(seed)
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
        return _input_coreset(points)

    renorm = renormalize_bounds(sigma[rest], total, s)
    drawn = np.random.default_rng(seed).choice(n_rest, size=s, p=renorm / total)
    rest_idx = np.where(rest)[0]
    sampled_idx = rest_idx[drawn]
    # the cap renorm <= total/s makes each factor >= 1; guard the last ulp
    sampled_w = np.maximum(w[sampled_idx] * total / (s * renorm[drawn]), w[sampled_idx])

    pts = np.vstack([rows[high], rows[sampled_idx]]) if np.any(high) else rows[sampled_idx]
    wts = np.concatenate([w[high], sampled_w]) if np.any(high) else sampled_w
    return Coreset(points=pts, weights=wts, delta=0.0)
