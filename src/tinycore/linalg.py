"""Dense matrix kernel: the thin SVD's sigma and V, and squared-distance evaluation.

Everything downstream (subspace coresets, dimensionality reduction, the
streaming summaries) is built on sigma and V computed here; no construction
needs U, and none is formed.  The factorization comes from LAPACK QR and SVD
through ``numpy.linalg``; every result is checked against the input matrix
before use.  Distances to centers are taken in the rows' own frame (their
mean at the origin), cached once per point set.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidArgument, InvalidInput

TOL_ORTH = 1e-8
TOL_RECON = 1e-8
# Rows per leaf of the TSQR tree behind svd().  A constant, so
# that the order in which rows are combined depends on nothing but n.
_TSQR_BLOCK = 4096


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PointSet:
    """n x d matrix of row points with optional non-negative multiplicities."""

    rows: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=np.float64))
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise InvalidInput("point set must be a non-empty n x d matrix")
        if not np.all(np.isfinite(rows)):
            raise InvalidInput("point set contains non-finite entries")
        object.__setattr__(self, "rows", _as_readonly(rows))
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
            if w.shape[0] != rows.shape[0]:
                raise InvalidInput("weight vector length does not match row count")
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise InvalidInput("weights must be finite and non-negative")
            object.__setattr__(self, "weights", _as_readonly(w))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def effective_weights(self) -> np.ndarray:
        """Weights with the unweighted case materialized as all ones."""
        if self.weights is None:
            return np.ones(self.n)
        return np.asarray(self.weights)

    def total_weight(self) -> float:
        return float(np.sum(self.effective_weights()))

    @functools.cached_property
    def frame(self) -> Frame:
        """The rows in their own frame: built on first use, then kept.

        It is one more copy of the rows; :func:`~tinycore.kmeans_coreset`
        drops a frame it built itself before it samples.
        """
        return _frame(self.rows)


@dataclass(frozen=True)
class Frame:
    """Rows moved to their plain (unweighted) mean, with their squared norms.

    Squared distances to centers are translation invariant, and the expansion
    ||p||^2 - 2 p.c + ||c||^2 is accurate only near the origin, so centers
    are measured here after moving them by -origin.  All three arrays are
    read-only.
    """

    origin: np.ndarray
    rows: np.ndarray
    norms: np.ndarray


def _frame(rows: np.ndarray) -> Frame:
    """The frame of an n x d matrix: its mean, the centred rows and their squared norms."""
    rows = np.asarray(rows, dtype=np.float64)
    origin = rows.mean(axis=0)
    # column-major, so the k x n products read rows.T contiguously
    centred = np.subtract(rows, origin, order="F")
    norms = np.einsum("ij,ij->i", centred, centred)
    for a in (origin, centred, norms):
        a.setflags(write=False)
    return Frame(origin=origin, rows=centred, norms=norms)


@dataclass(frozen=True)
class SvdFactors:
    """sigma and V of the thin SVD A = U diag(sigma) V^T, sigma sorted non-increasingly.

    V is d x r with orthonormal columns, r = min(n, d).  U is not kept.
    """

    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", _as_readonly(self.sigma))
        object.__setattr__(self, "v", _as_readonly(self.v))

    @property
    def rank_bound(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class Subspace:
    """Linear or affine subspace given by an orthonormal d x j basis and optional offset."""

    basis: np.ndarray
    offset: Optional[np.ndarray] = None

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=np.float64))
        if basis.ndim != 2 or basis.shape[1] < 1:
            raise InvalidArgument("subspace basis must be a d x j matrix")
        d, j = basis.shape
        if not 1 <= j <= d - 1:
            raise InvalidArgument(f"subspace dimension {j} out of range for ambient {d}")
        gram_err = np.max(np.abs(basis.T @ basis - np.eye(j)))
        if gram_err > TOL_ORTH:
            raise InvalidArgument(f"basis columns are not orthonormal (err={gram_err:.2e})")
        object.__setattr__(self, "basis", _as_readonly(basis))
        if self.offset is not None:
            off = np.asarray(self.offset, dtype=np.float64).reshape(-1)
            if off.shape[0] != d:
                raise InvalidArgument("offset dimension does not match basis")
            object.__setattr__(self, "offset", _as_readonly(off))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class CenterSet:
    """A finite set of k candidate centers, one per row."""

    centers: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise InvalidArgument("center set must contain at least one center")
        if not np.all(np.isfinite(centers)):
            raise InvalidArgument("center set contains non-finite entries")
        object.__setattr__(self, "centers", _as_readonly(centers))

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


QueryShape = Union[CenterSet, Subspace]


def svd(points: PointSet) -> SvdFactors:
    """Thin SVD of the point matrix: sigma and V, without U.

    sigma and V come from the SVD of the factor R of a tall-skinny QR (TSQR;
    Demmel, Grigori, Hoemmen & Langou, 2012): the R of each block of 4096
    rows, merged pairwise in a fixed tree.  The n x r factor U is never
    formed.  The tree depends on n alone, not on the BLAS thread count; with
    OpenBLAS 0.3.31 the bytes were the same at 1, 2 and 4 threads for up to
    113 columns.  The signs are fixed so that the largest-magnitude entry of
    each column of V is positive.  Weighted inputs must be folded through
    :func:`weighted_fold` first; the factorization itself is weight-agnostic.
    """
    a = np.asarray(points.rows)
    try:
        _, s, vt = np.linalg.svd(_tsqr_r(a), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput(f"SVD failed: {exc}") from exc
    v = vt.T
    v[:, _sign_flips(v)] *= -1.0
    factors = SvdFactors(sigma=s, v=v)
    _check_fit(a, factors)
    return factors


def _sign_flips(v: np.ndarray) -> np.ndarray:
    """Columns of V whose largest-magnitude entry is negative."""
    return v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] < 0


def _tsqr_r(a: np.ndarray) -> np.ndarray:
    """R of A = QR: the R of every _TSQR_BLOCK rows, stacked two by two and factored again."""
    rs = [np.linalg.qr(a[i : i + _TSQR_BLOCK], mode="r") for i in range(0, a.shape[0], _TSQR_BLOCK)]
    while len(rs) > 1:
        pairs = [rs[i : i + 2] for i in range(0, len(rs), 2)]
        rs = [np.linalg.qr(np.vstack(p), mode="r") if len(p) == 2 else p[0] for p in pairs]
    return rs[0]


def _check_fit(a: np.ndarray, f: SvdFactors) -> None:
    """Check sigma and V against A itself, without U.

    The factors are only ever used through subspace costs
    ||A||_F^2 - ||A X||_F^2, that is through the quadratic form of A^T A,
    which they replace by V diag(sigma^2) V^T.  The two differ by
    G = V^T A^T A V - diag(sigma^2) inside span(V) and by the energy
    ||A||_F^2 - ||A V||_F^2 of A outside span(V).  Besides orthonormal V and
    sorted sigma, this check bounds both by
    t (2 + t) max(||A||_F^2, 1), with t = TOL_RECON.

    Any thin SVD with orthonormal U and V and with
    e = ||A - U diag(sigma) V^T||_F <= t max(||A||_F, 1) passes.  Put E = A - U
    diag(sigma) V^T.  Then U diag(sigma) = (A - E) V, so
    G = (AV)^T (EV) + (EV)^T (AV) - (EV)^T (EV) and
    ||G||_F <= 2 ||A||_F e + e^2 <= t (2 + t) max(||A||_F^2, 1).  And
    U diag(sigma) V^T vanishes outside span(V), so the energy of A there is
    that of E there, at most e^2 <= t^2 max(||A||_F^2, 1).
    """
    r = f.rank_bound
    orth_v = np.max(np.abs(f.v.T @ f.v - np.eye(r)))
    if orth_v > TOL_ORTH:
        raise InvalidInput(f"SVD factors lost orthonormality (v={orth_v:.2e})")
    if np.any(np.diff(f.sigma) > 1e-12 * max(f.sigma[0], 1.0)):
        raise InvalidInput("singular values are not sorted non-increasingly")
    energy = np.linalg.norm(a) ** 2
    if not np.isfinite(energy):
        raise InvalidInput("input too large: its squared norm overflows float64")
    b = a @ f.v
    gram = b.T @ b
    outside = energy - np.trace(gram)
    gram[np.diag_indices(r)] -= f.sigma**2
    gram_err = np.linalg.norm(gram)
    bound = TOL_RECON * (2.0 + TOL_RECON) * max(energy, 1.0)
    if gram_err > bound or abs(outside) > bound:
        raise InvalidInput(
            f"SVD right factors do not fit the input (gram={gram_err:.2e}, outside={outside:.2e})"
        )


def tail_energy(factors: SvdFactors, m: int) -> float:
    """Sum of squared singular values past index m, i.e. ||A - A^(m)||_F^2."""
    if not 0 <= m <= factors.rank_bound:
        raise InvalidArgument(f"rank {m} out of range [0, {factors.rank_bound}]")
    return float(np.sum(factors.sigma[m:] ** 2))


def weighted_fold(points: PointSet) -> np.ndarray:
    """Scale row i by sqrt(w_i) so unweighted subspace costs match the weighted ones."""
    if points.weights is None:
        raise InvalidInput("weighted_fold requires explicit weights")
    return np.asarray(points.rows) * np.sqrt(points.effective_weights())[:, None]


def _weighted_mean(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The mean of the rows under weights w, whose sum the caller keeps positive."""
    return (w[:, None] * rows).sum(axis=0) / w.sum()


def _scores(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The k x n matrix ||c||^2 - 2 c.p: squared distances less the row norms."""
    # scaling the k x d centers by -2 is exact, and cheaper than scaling k x n
    scores = (-2.0 * centers) @ rows.T
    scores += np.einsum("ij,ij->i", centers, centers)[:, None]
    return scores


def _nearest(
    rows: np.ndarray, centers: np.ndarray, norms: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest listed center per row (lowest index wins ties) and its squared distance.

    `norms`, when given, holds the squared row norms.  Pass rows near the
    origin, such as a :class:`Frame`'s, with centers moved the same way.
    The score matrix of :func:`_scores` is reduced along its contiguous row
    axis, a running minimum over the centers that moves the index only on a
    strict decrease; the row norms are added after the reduction.  Rounding
    is monotone, so the squared distances are bit for bit those of
    :func:`_frame_dist2`, which takes the minimum alone.
    """
    if norms is None:
        norms = np.einsum("ij,ij->i", rows, rows)
    scores = _scores(rows, centers)
    sq = scores[0].copy()
    idx = np.zeros(rows.shape[0], dtype=np.intp)
    closer = np.empty(rows.shape[0], dtype=bool)
    for c in range(1, centers.shape[0]):
        np.less(scores[c], sq, out=closer)
        np.putmask(idx, closer, c)
        np.minimum(sq, scores[c], out=sq)
    sq += norms
    return idx, np.maximum(sq, 0.0, out=sq)


def _frame_dist2(frame: Frame, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each row of the frame to its nearest center."""
    sq = _scores(frame.rows, centers - frame.origin).min(axis=0)
    sq += frame.norms
    return np.maximum(sq, 0.0, out=sq)


def _dist2_subspace(rows: np.ndarray, shape: Subspace) -> np.ndarray:
    pts = rows if shape.offset is None else rows - shape.offset[None, :]
    # Pythagoras: ||p||^2 - ||p X||^2, never materializing the complement.
    proj = pts @ shape.basis
    out = np.sum(pts * pts, axis=1) - np.sum(proj * proj, axis=1)
    return np.maximum(out, 0.0)


def dist2_rows(rows: np.ndarray, shape: QueryShape, frame: Optional[Frame] = None) -> np.ndarray:
    """Per-row squared distance to a query shape.

    Center sets are measured in the frame of the rows, so a common shift of
    rows and centers changes nothing but rounding.  `frame`, when given, is
    ``_frame(rows)`` cached by the caller; without it the frame is built
    here, with the same bytes.  Subspaces are measured on the rows as they
    are: a linear subspace is not translation invariant.
    """
    rows = np.atleast_2d(rows)
    if isinstance(shape, CenterSet):
        if shape.d != rows.shape[1]:
            raise InvalidArgument("center set dimension does not match points")
        return _frame_dist2(_frame(rows) if frame is None else frame, np.asarray(shape.centers))
    if isinstance(shape, Subspace):
        if shape.basis.shape[0] != rows.shape[1]:
            raise InvalidArgument("subspace dimension does not match points")
        return _dist2_subspace(rows, shape)
    raise InvalidArgument(f"unsupported query shape {type(shape).__name__}")


def dist2(points: PointSet, shape: QueryShape) -> float:
    """Weighted sum of squared distances from the points to the shape."""
    frame = points.frame if isinstance(shape, CenterSet) else None
    per_row = dist2_rows(np.asarray(points.rows), shape, frame)
    if points.weights is None:
        return float(np.sum(per_row))
    return float(np.sum(points.effective_weights() * per_row))
