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

import numpy as np

from .coreset import Coreset
from .errors import InvalidArgument, InvalidInput, as_floats, check_int, check_real, check_seed, size_limit
from .linalg import Frame, PointSet, _as_readonly, _frame, _lift, _nearest, _sq_dists

DEFAULT_C_S = 8.0
DEFAULT_C_VC = 1.0
_BETA = 2  # a bicriteria solution holds _BETA * k centers
_LLOYD_MAX_ITERS = 100  # the step limit of a full Lloyd solve


@dataclass(frozen=True)
class SensitivityProfile:
    """Per-point sensitivity upper bounds and their sum."""

    sigma: np.ndarray
    total: float

    def __post_init__(self):
        sigma = as_floats(self.sigma, InvalidInput, "sensitivity bounds")
        if sigma.shape not in ((sigma.size,), (1, sigma.size), (sigma.size, 1)):
            raise InvalidInput(f"sensitivity bounds must be a vector, not an array of shape {sigma.shape}")
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise InvalidInput("sensitivity bounds must be positive and finite")
        total = float(np.sum(sigma))
        if not abs(total - check_real("profile total", self.total)) <= 1e-9 * max(total, 1.0):
            raise InvalidInput("profile total does not match the sum of bounds")
        object.__setattr__(self, "sigma", _as_readonly(sigma.reshape(-1)))
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
        assignment = _as_readonly(self.assignment, np.int64)
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


def _d2_pass(
    frame: Frame, weights: np.ndarray, count: int, rng: np.random.Generator, restarts: int
) -> tuple[np.ndarray, np.ndarray]:
    """D² seeding on a frame's rows: `count` draws, each proportional to
    w * min ||p - c||^2 over the rows already drawn (the first to w), for
    `restarts` independent restarts side by side.  Returns them as
    restarts x count row indices, and each restart's seeding cost
    sum w * min ||p - c||^2 over its own draws (one more distance pass).

    Every draw goes through :class:`_BlockedDraw`: a row of score 0 is never
    drawn, and no index reaches n.  A restart whose later scores sum to 0
    repeats its first draw.  Each draw's distances are one product of
    :func:`~tinycore.linalg._sq_dists`, clamped at 0 and folded into the
    running minimum; unit weights draw from that minimum as it is."""
    if not np.sum(weights) > 0:
        raise InvalidInput("total weight must be positive")
    rows = frame.rows
    unweighted = bool(np.all(weights == 1.0))  # w * min is then min itself
    chosen = np.empty((restarts, count), dtype=np.intp)
    best = np.full((restarts, rows.shape[0]), np.inf)
    cand = np.empty_like(best)
    cand[:] = weights
    draw = _BlockedDraw(restarts, rows.shape[0])
    chosen[:, 0] = draw(cand, rng.random(restarts), 0)
    for i in range(1, count + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # the caller's cost check raises
            _sq_dists(frame, _lift(rows[chosen[:, i - 1]]), out=cand)
        np.maximum(cand, 0.0, out=cand)
        np.minimum(best, cand, out=best)
        if i == count:
            break
        scores = best if unweighted else np.multiply(best, weights, out=cand)
        chosen[:, i] = draw(scores, rng.random(restarts), chosen[:, 0])
    return chosen, best @ weights


class _BlockedDraw:
    """Draws on restarts x n non-negative scores, each row inverted at its
    variate u in [0, 1): the first index whose cumulative score exceeds u
    times the row's total, so no index of score 0 or at n is returned; a
    row whose scores sum to 0 returns its `fallback`.  The block layout,
    index tables and buffers are built once per pass.

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
    whose seeds cost least (the first on ties) and assigns every row to its
    nearest seed in one pass.  Each restart's seeds cost at most c * OPT with
    constant probability (Aggarwal, Deshpande & Kannan 2009; Wei 2016; see
    Braverman, Feldman & Lang, arXiv:1612.00889), so with probability
    >= 1 - delta the cheapest does.  That bound is the seeds' own, which is
    all sensitivity sampling needs, so no Lloyd step refines them.  A seeding
    cost that is not finite (squares that overflow float64) raises
    InvalidInput.

    Scratch: one frame of the rows (n x (d + 2)), two restarts x n arrays
    for the D² pass, and for the assignment pass one 2k x 4096 block of
    distances at a time (see :func:`~tinycore.linalg._nearest`), besides
    the n-vectors the solution keeps.
    """
    k, delta, seed = check_int("k", k, 1, points.n), check_real("delta", delta, hi=1), check_seed(seed)
    frame = _frame(points.rows)  # one more copy of the rows, kept only for this call
    w = points.effective_weights()
    with size_limit("restart count"):
        restarts = max(1, math.ceil(math.log2(1.0 / delta)))
    centers, idx, sq = _lloyd(frame, w, min(points.n, _BETA * k), seed, restarts, 0)
    for a in (idx, sq):  # made here: the solution keeps them, not a copy
        a.setflags(write=False)
    return BicriteriaSolution(
        centers=centers + frame.origin, assignment=idx, sq_distances=sq,
        cluster_costs=np.bincount(idx, weights=w * sq, minlength=centers.shape[0]),
        cluster_sizes=np.bincount(idx, weights=w, minlength=centers.shape[0]),
    )


def _lloyd(
    frame: Frame, weights: np.ndarray, count: int, seed: int, restarts: int, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`count` centers on a frame's rows, each row's nearest center and its
    squared distance, in frame coordinates: the first cheapest of `restarts`
    D² seedings (a cost that is not finite raises InvalidInput), then up to
    `steps` Lloyd steps.  A step reseeds each empty cluster at the row of
    largest weighted distance, stops once the assignment repeats, moves the
    centers to their weighted means and assigns again."""
    rows = frame.rows
    chosen, seed_costs = _d2_pass(frame, weights, count, np.random.default_rng(seed), restarts)
    if not np.all(np.isfinite(seed_costs)):
        raise InvalidInput("seeding cost is not finite: the squared entries overflow float64")
    centers = rows[chosen[np.argmin(seed_costs)]]
    idx, sq = _nearest(frame, centers)
    prev_idx = None
    for _ in range(steps):
        dead = np.flatnonzero(np.bincount(idx, minlength=count) == 0)
        for c in dead:
            centers[c] = rows[np.argmax(weights * sq)]
            idx, sq = _nearest(frame, centers)
        if prev_idx is not None and np.array_equal(idx, prev_idx):
            break
        centers = _mean_update(rows, weights, idx, centers)
        prev_idx = idx
        idx, sq = _nearest(frame, centers)
    return centers, idx, sq


def _mean_update(
    rows: np.ndarray, weights: np.ndarray, idx: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    out = centers.copy()
    k = centers.shape[0]
    sizes = np.bincount(idx, weights=weights, minlength=k)
    occupied = sizes > 0
    for col in range(rows.shape[1]):
        sums = np.bincount(idx, weights=weights * rows[:, col], minlength=k)
        out[occupied, col] = sums[occupied] / sizes[occupied]
    return out


def kmeans_sensitivities(points: PointSet, bic: BicriteriaSolution) -> SensitivityProfile:
    """Sensitivity upper bounds from a bicriteria solution.

    sigma_i = c_s * (w_i / |J_i|_w + w_i * dist2(p_i, C') / cost(A, C')) with
    c_s = DEFAULT_C_S; when the total cost vanishes only the cluster-share
    term remains.  dist2(p_i, C') is the solution's own `sq_distances`.
    Every bound is at least 1/n.  A row of weight 0 has share 0 and sits at
    that floor, whatever its cluster weighs: rounding can assign it to a
    cluster that holds only rows of weight 0.  A row of positive weight in
    a cluster of weight <= 0 is an inconsistent solution and raises
    InvalidInput.
    """
    if bic.assignment.shape[0] != points.n:
        raise InvalidInput("bicriteria assignment does not match the point set")
    w = points.effective_weights()
    idx, sq = bic.assignment, bic.sq_distances
    cluster_w = bic.cluster_sizes[idx]
    empty = cluster_w <= 0
    if np.any(empty):
        if np.any(w[empty] > 0):
            raise InvalidInput("bicriteria solution contains an empty assigned cluster")
        cluster_w[empty] = np.inf  # so that each row there, of weight 0, has share 0
    total_cost = bic.total_cost
    share = w / cluster_w
    if total_cost > 0:
        share = share + w * sq / total_cost
    sigma = DEFAULT_C_S * share
    sigma = np.maximum(sigma, 1.0 / points.n)
    sigma.setflags(write=False)  # made here: the profile keeps it, not a copy
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
    with size_limit("sample size"):
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
    # Water-fill over the breakpoints t_i = cap / sigma_i in increasing order:
    # with the first i entries clipped, the sum at multiplier t is
    # clipped[i] + t * suffix[i], and the fill stops at the first i whose
    # multiplier t[i] does not pass t_i.  The clipped mass adds cap after cap,
    # in order, as cumsum does.
    order = np.argsort(cap / sigma)
    sorted_sigma = sigma[order]
    breakpoints = cap / sorted_sigma
    suffix = np.cumsum(sorted_sigma[::-1])[::-1]
    t = np.full_like(sigma, cap)
    t[0] = 0.0
    np.cumsum(t, out=t)  # clipped[i], then t[i] in place
    np.subtract(total, t, out=t)
    t /= suffix
    stops = t <= breakpoints
    out = np.full_like(sigma, cap)
    if stops.any():  # else every bound is clipped
        i = int(np.argmax(stops))
        out[order[i:]] = np.minimum(t[i] * sorted_sigma[i:], cap)
    return out


def _inverse_cdf_draw(p: np.ndarray, s: int, rng: np.random.Generator) -> np.ndarray:
    """s i.i.d. indices drawn with probabilities p: the inversion of
    ``rng.choice(p.size, size=s, p=p)``, with its bytes and its use of rng.

    The cumulative sum is scaled to end at exactly 1 and searched at s
    variates of ``rng.random(s)``, first index past each.  The variates are
    searched in increasing order and the indices put back in draw order:
    sorted keys let each binary search start where the last one ended.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(s)
    order = np.argsort(u)
    drawn = np.empty(s, dtype=np.intp)
    drawn[order] = cdf.searchsorted(u[order], side="right")
    return drawn


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
    sigma, total = profile.sigma, profile.total
    rows, w = points.rows, points.effective_weights()

    high = sigma / total > 1.0 / s
    rest = ~high
    n_rest = int(np.sum(rest))
    if n_rest < s:
        # Too few low-sensitivity points to renormalize against: keep everything.
        return Coreset(rows, w, 0.0)

    renorm = renormalize_bounds(sigma[rest], total, s)
    drawn = _inverse_cdf_draw(renorm / total, s, np.random.default_rng(seed))
    rest_idx = np.where(rest)[0]
    sampled_idx = rest_idx[drawn]
    # the cap renorm <= total/s makes each factor >= 1; guard the last ulp
    sampled_w = np.maximum(w[sampled_idx] * total / (s * renorm[drawn]), w[sampled_idx])

    high_idx = np.flatnonzero(high)
    return Coreset(
        points=rows[np.concatenate([high_idx, sampled_idx])],
        weights=np.concatenate([w[high_idx], sampled_w]),
        delta=0.0,
    )
