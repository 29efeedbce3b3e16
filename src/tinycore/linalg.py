"""Dense matrix kernel: exact SVD, low-rank approximation and squared-distance evaluation.

Everything downstream (subspace coresets, dimensionality reduction, the
streaming summaries) is built on the thin SVD computed here.  The
factorization comes from LAPACK through ``numpy.linalg``; every result is
checked against the input matrix before use.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidArgument, InvalidInput

TOL_ORTH = 1e-8
TOL_RECON = 1e-8
# Rows per leaf of the TSQR tree behind svd(compute_u=False).  A constant, so
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


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD A = U diag(sigma) V^T with sigma sorted non-increasingly.

    `u` is None when only the right factors were computed.
    """

    u: Optional[np.ndarray]
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u is not None:
            object.__setattr__(self, "u", _as_readonly(self.u))
        object.__setattr__(self, "sigma", _as_readonly(self.sigma))
        object.__setattr__(self, "v", _as_readonly(self.v))

    @property
    def rank_bound(self) -> int:
        return self.sigma.shape[0]

    def _left(self) -> np.ndarray:
        if self.u is None:
            raise InvalidArgument("these factors have no U; compute them with svd(points, compute_u=True)")
        return self.u

    def reconstruct(self) -> np.ndarray:
        return (self._left() * self.sigma) @ self.v.T


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

    @property
    def is_affine(self) -> bool:
        return self.offset is not None


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


def svd(points: PointSet, compute_u: bool = True) -> SvdFactors:
    """Exact thin SVD of the point matrix, computed by LAPACK through numpy.

    The signs are fixed so that the largest-magnitude entry of each column of
    V is positive (the matching column of U flips with it).  Weighted inputs
    must be folded through :func:`weighted_fold` first; the factorization
    itself is weight-agnostic.

    With ``compute_u=False`` the n x r factor U is never formed and ``u`` is
    None.  sigma and V then come from the SVD of the factor R of a
    tall-skinny QR (TSQR; Demmel, Grigori, Hoemmen & Langou, 2012): the R of
    each block of 4096 rows, merged pairwise in a fixed tree.  The tree
    depends on n alone, not on the BLAS thread count; with OpenBLAS 0.3.31
    the bytes were the same at 1, 2 and 4 threads for up to 113 columns.
    """
    a = np.asarray(points.rows)
    if not compute_u:
        return _right_factors(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput(f"SVD failed: {exc}") from exc
    v = vt.T
    flip = _sign_flips(v)
    v[:, flip] *= -1.0
    u[:, flip] *= -1.0
    factors = SvdFactors(u=u, sigma=s, v=v)
    _check_factors(a, factors)
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


def _right_factors(a: np.ndarray) -> SvdFactors:
    try:
        _, s, vt = np.linalg.svd(_tsqr_r(a), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput(f"SVD failed: {exc}") from exc
    v = vt.T
    v[:, _sign_flips(v)] *= -1.0
    factors = SvdFactors(u=None, sigma=s, v=v)
    _check_right_factors(a, factors)
    return factors


def _check_factors(a: np.ndarray, f: SvdFactors) -> None:
    r = f.rank_bound
    orth_u = np.max(np.abs(f.u.T @ f.u - np.eye(r)))
    orth_v = np.max(np.abs(f.v.T @ f.v - np.eye(r)))
    if orth_u > TOL_ORTH or orth_v > TOL_ORTH:
        raise InvalidInput(f"SVD factors lost orthonormality (u={orth_u:.2e}, v={orth_v:.2e})")
    norm_a = np.linalg.norm(a)
    recon_err = np.linalg.norm(f.reconstruct() - a)
    if recon_err > TOL_RECON * max(norm_a, 1.0):
        raise InvalidInput(f"SVD reconstruction error {recon_err:.2e} exceeds tolerance")
    if np.any(np.diff(f.sigma) > 1e-12 * max(f.sigma[0], 1.0)):
        raise InvalidInput("singular values are not sorted non-increasingly")


def _check_right_factors(a: np.ndarray, f: SvdFactors) -> None:
    """Check sigma and V against A itself, without U.

    U-free factors are only ever used through subspace costs
    ||A||_F^2 - ||A X||_F^2, that is through the quadratic form of A^T A,
    which they replace by V diag(sigma^2) V^T.  The two differ by
    G = V^T A^T A V - diag(sigma^2) inside span(V) and by the energy of A
    outside span(V); both are checked.  Factors that pass `_check_factors`
    with reconstruction error e <= TOL_RECON * max(||A||_F, 1) have
    ||G||_F <= 2 ||A||_F e + e^2, the bound used here, and at most e^2
    energy outside span(V), so this check accepts what that one accepts and
    holds every cost to the same tolerance.
    """
    r = f.rank_bound
    orth_v = np.max(np.abs(f.v.T @ f.v - np.eye(r)))
    if orth_v > TOL_ORTH:
        raise InvalidInput(f"SVD factors lost orthonormality (v={orth_v:.2e})")
    if np.any(np.diff(f.sigma) > 1e-12 * max(f.sigma[0], 1.0)):
        raise InvalidInput("singular values are not sorted non-increasingly")
    energy = np.linalg.norm(a) ** 2
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


def low_rank_approx(factors: SvdFactors, m: int) -> np.ndarray:
    """The m-rank approximation: keep the top m singular values, zero the rest."""
    r = factors.rank_bound
    if not 1 <= m <= r:
        raise InvalidArgument(f"rank {m} out of range [1, {r}]")
    return (factors._left()[:, :m] * factors.sigma[:m]) @ factors.v[:, :m].T


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


def _nearest(
    rows: np.ndarray, centers: np.ndarray, norms: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest listed center per row (lowest index wins ties) and its squared distance.

    `norms`, when given, holds the squared row norms.  The k x n distance
    matrix is built center-major and reduced along its contiguous row axis:
    a running minimum over the centers, moving the index only on a strict
    decrease.
    """
    if norms is None:
        norms = np.einsum("ij,ij->i", rows, rows)
    # scaling the k x d centers by -2 is exact, and cheaper than scaling k x n
    d2 = (-2.0 * centers) @ rows.T
    d2 += norms
    d2 += np.einsum("ij,ij->i", centers, centers)[:, None]
    np.maximum(d2, 0.0, out=d2)
    sq = d2[0].copy()
    idx = np.zeros(rows.shape[0], dtype=np.intp)
    closer = np.empty(rows.shape[0], dtype=bool)
    for c in range(1, centers.shape[0]):
        np.less(d2[c], sq, out=closer)
        np.putmask(idx, closer, c)
        np.minimum(sq, d2[c], out=sq)
    return idx, sq


def _dist2_subspace(rows: np.ndarray, shape: Subspace) -> np.ndarray:
    pts = rows if shape.offset is None else rows - shape.offset[None, :]
    # Pythagoras: ||p||^2 - ||p X||^2, never materializing the complement.
    proj = pts @ shape.basis
    out = np.sum(pts * pts, axis=1) - np.sum(proj * proj, axis=1)
    return np.maximum(out, 0.0)


def dist2_rows(rows: np.ndarray, shape: QueryShape) -> np.ndarray:
    """Per-row squared distance to a query shape."""
    rows = np.atleast_2d(rows)
    if isinstance(shape, CenterSet):
        if shape.d != rows.shape[1]:
            raise InvalidArgument("center set dimension does not match points")
        return _nearest(rows, np.asarray(shape.centers))[1]
    if isinstance(shape, Subspace):
        if shape.basis.shape[0] != rows.shape[1]:
            raise InvalidArgument("subspace dimension does not match points")
        return _dist2_subspace(rows, shape)
    raise InvalidArgument(f"unsupported query shape {type(shape).__name__}")


def dist2(points: PointSet, shape: QueryShape) -> float:
    """Weighted sum of squared distances from the points to the shape."""
    per_row = dist2_rows(np.asarray(points.rows), shape)
    if points.weights is None:
        return float(np.sum(per_row))
    return float(np.sum(points.effective_weights() * per_row))
