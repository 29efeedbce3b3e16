"""Dense matrix kernel: the TSQR factor R, the thin SVD's sigma and V, and
squared-distance evaluation.

The subspace constructions (subspace coresets, dimensionality reduction,
the streaming summaries) start from the R factor of rows fed to one
accumulator block by block.  A subspace coreset that keeps every direction
is R itself; a construction that cuts directions takes sigma and V from the
SVD of R.  No construction needs U or Q, and none is formed.  The
factorization comes from LAPACK QR, Cholesky and SVD through
``numpy.linalg``: a leaf of 16 to 96 columns and at least 1024 rows takes
its R by CholeskyQR2 from the Gram matrix the accumulator forms anyway, any
other leaf (or one that CholeskyQR2 cannot factor safely) and every merge
by Householder QR.  Every result is checked against that Gram matrix of
the input before use: sigma and V by :func:`_check_fit`, R by
:func:`_check_r`.
Distances to centers are taken in the rows' own frame (their mean at the
origin), cached once per point set, whose lifted rows make every
center-distance pass one matrix product, or one per block of 4096 rows
for a nearest-center assignment.  Every query is one dispatch on a point
set, :func:`_per_row`, whose kernels read its rows and the frame and
squared row norms it caches; :func:`dist2` weights and sums the result, and
:func:`dist2_rows` checks and holds bare rows as a point set first.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidArgument, InvalidInput, as_floats, check_int

TOL_ORTH = 1e-8
TOL_RECON = 1e-8
# Rows per leaf of the TSQR tree behind svd(), and per block of a
# nearest-center pass (_nearest).  A constant, so that the order in which
# rows are combined depends on nothing but n.
_TSQR_BLOCK = 4096
# A leaf of _CHOLQR_MIN_D to _CHOLQR_MAX_D columns and at least
# _CHOLQR_MIN_ROWS rows takes its R by CholeskyQR2 (see _leaf_r).  From 16
# columns it took at most 0.84 of the time of one Householder QR on leaves
# of 1024 and 4096 rows (one BLAS thread; 0.47 to 1.07 at 8 and 12 columns);
# on leaves of 256 rows or fewer it was slower in all but one case, by up to
# 3.7 times.  Above 96 columns OpenBLAS 0.3.31 wrote other bytes of A^T A at
# 1 and 2 threads.  A first factor Q1 with max|Q1^T Q1 - I| above
# _CHOLQR_TOL (cond(A) above about 3e7) falls back to Householder.
_CHOLQR_MIN_D = 16
_CHOLQR_MAX_D = 96
_CHOLQR_MIN_ROWS = 1024
_CHOLQR_TOL = 1e-2


def _as_readonly(a: np.ndarray, dtype: type = np.float64) -> np.ndarray:
    """`a` itself if it is a plain C-contiguous ndarray of `dtype`, read-only (numpy's
    flag) with every array it views down to their owner; else a read-only copy.
    An owner that sets the flag back to writable can still change shared data."""
    base = a
    while type(base) is np.ndarray and not base.flags.writeable:
        base = base.base
    if base is None and type(a) is np.ndarray and a.dtype == dtype and a.flags.c_contiguous:
        return a
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PointSet:
    """n x d matrix of row points with optional non-negative multiplicities,
    held read-only: a C-contiguous float64 array that is read-only down to its
    owner is kept as it is, anything else is copied.  The query caches below
    are no dataclass fields: ``repr`` and ``==`` do not see them."""

    rows: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        rows = np.atleast_2d(as_floats(self.rows, InvalidInput, "point set"))
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise InvalidInput("point set must be a non-empty n x d matrix")
        if not np.all(np.isfinite(rows)):
            raise InvalidInput("point set contains non-finite entries")
        object.__setattr__(self, "rows", _as_readonly(rows))
        if self.weights is not None:
            w = as_floats(self.weights, InvalidInput, "weights")
            n = rows.shape[0]  # a vector of n: one axis, a single row or a single column
            if w.shape not in ((n,), (1, n), (n, 1)):
                raise InvalidInput(f"weights must be a vector of one per row ({n}), not of shape {w.shape}")
            w = w if w.ndim == 1 else w.reshape(-1)  # a 1-D vector is kept, not re-viewed
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

        It is one more copy of the rows, with two more columns.  Center
        queries and :func:`~tinycore.lloyd_solve` cache it here;
        :func:`~tinycore.bicriteria_kmeans` builds its own and keeps none.
        """
        return _frame(self.rows)

    @functools.cached_property
    def sq_norms(self) -> np.ndarray:
        """The squared norms of the rows, read-only: built by the first linear
        subspace query, then kept (n floats)."""
        norms = np.add.reduce(self.rows * self.rows, axis=1)  # np.sum without its wrapper
        norms.setflags(write=False)
        return norms

    @functools.cached_property
    def unit_weights(self) -> bool:
        """Whether every weight is exactly 1.0 (true without weights): built
        on first use, then kept."""
        return self.weights is None or bool(np.all(self.weights == 1.0))


@dataclass(frozen=True)
class Frame:
    """Rows moved by their own plain, unweighted mean, `origin`, and lifted:
    the one frame of every center pass, D² draws included.

    `lifted` is the column-major n x (d + 2) array [p - o | ||p - o||^2 | 1]:
    the moved rows, their squared norms and a column of ones.  :attr:`rows`
    and :attr:`norms` are views of it, so a frame is one copy of the rows with
    two more columns.  Squared distances to centers are translation
    invariant, and the expansion ||p||^2 - 2 p.c + ||c||^2 is accurate only
    near the origin, so centers are measured here after moving them by
    -origin, all three terms in one matrix product (see :func:`_sq_dists`).
    Every array is read-only.
    """

    origin: np.ndarray
    lifted: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """The n x d moved rows, a column-major view of `lifted`."""
        return self.lifted[:, :-2]

    @property
    def norms(self) -> np.ndarray:
        """The squared norms of the moved rows, a view of `lifted`."""
        return self.lifted[:, -2]


def _frame(rows: np.ndarray) -> Frame:
    """The frame of an n x d matrix: the rows moved by their mean, lifted
    with their squared norms and a column of ones.

    The mean has the bytes of ``rows.mean(axis=0)``.  On C-contiguous rows
    with d >= 2 that reduction adds the rows one by one, in order;
    ``np.einsum("ij->j", rows)`` adds in the same order at full vector width,
    so it is taken there.  A single column (which ``mean`` sums pairwise)
    and rows in any other layout keep ``mean``.  The lifted array is filled
    one contiguous column at a time.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n, d = rows.shape
    if d > 1 and rows.flags.c_contiguous:
        origin = np.einsum("ij->j", rows) / n
    else:
        origin = rows.mean(axis=0)
    # column-major, so the k x n products read lifted.T contiguously
    lifted = np.empty((n, d + 2), order="F")
    for j in range(d):
        np.subtract(rows[:, j], origin[j], out=lifted[:, j])
    centred = lifted[:, :d]
    lifted[:, d] = np.einsum("ij,ij->i", centred, centred)
    lifted[:, d + 1] = 1.0
    for a in (origin, lifted):
        a.setflags(write=False)
    return Frame(origin=origin, lifted=lifted)


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
        basis = np.atleast_2d(as_floats(self.basis, InvalidArgument, "subspace basis"))
        if basis.ndim != 2:
            raise InvalidArgument("subspace basis must be a d x j matrix")
        d, j = basis.shape
        check_int("subspace dimension", j, 1, d - 1)
        with np.errstate(over="ignore", invalid="ignore"):  # large or NaN entries fail below
            gram_err = np.max(np.abs(basis.T @ basis - np.eye(j)))
        if not gram_err <= TOL_ORTH:
            raise InvalidArgument(f"basis columns are not orthonormal (err={gram_err:.2e})")
        object.__setattr__(self, "basis", _as_readonly(basis))
        if self.offset is not None:
            off = as_floats(self.offset, InvalidArgument, "subspace offset")
            if off.shape not in ((d,), (1, d), (d, 1)) or not np.all(np.isfinite(off)):
                raise InvalidArgument("offset must be a finite vector of the basis dimension")
            object.__setattr__(self, "offset", _as_readonly(off.reshape(-1)))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class CenterSet:
    """A finite set of k candidate centers, one per row."""

    centers: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(as_floats(self.centers, InvalidArgument, "center set"))
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


def svd(points: Union[PointSet, _Tsqr]) -> SvdFactors:
    """Thin SVD of the point matrix: sigma and V, without U.

    `points` is a :class:`PointSet`, whose row i enters as sqrt(w_i) p_i
    when it is weighted, or a private :class:`_Tsqr` accumulator of rows fed
    block by block, which may be weighted or centred.  sigma and V
    come from the SVD of the factor R of a tall-skinny QR (TSQR; Demmel,
    Grigori, Hoemmen & Langou, 2012): the R of each block of 4096 rows
    (by CholeskyQR2 for 16 to 96 columns and 1024 rows or more, see
    :func:`_leaf_r`), merged pairwise by Householder QR in a fixed tree.  The n x r factor U is
    never formed.  The tree depends on n alone, not on the BLAS thread
    count or on how the rows were cut into blocks; with OpenBLAS 0.3.31 the
    bytes were the same at 1, 2 and 4 threads for up to 113 columns.  The
    signs are fixed so that the largest-magnitude entry of each column of V
    is positive.  The result is checked by :func:`_check_fit` against the
    Gram matrix of the rows.
    """
    acc = points if isinstance(points, _Tsqr) else _Tsqr().feed(points.rows, points.weights)
    r = acc.finish()
    try:
        _, s, vt = np.linalg.svd(r, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput(f"SVD failed: {exc}") from exc
    v = np.ascontiguousarray(vt.T)  # the C-contiguous V that SvdFactors keeps without a copy
    v[:, _sign_flips(v)] *= -1.0
    for a in (s, v):
        a.setflags(write=False)
    factors = SvdFactors(sigma=s, v=v)
    _check_fit(acc.gram, acc.energy, factors)
    return factors


def _sign_flips(v: np.ndarray) -> np.ndarray:
    """Columns of V whose largest-magnitude entry is negative."""
    return v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] < 0


def _too_large() -> InvalidInput:
    return InvalidInput("input too large: its squared norm overflows float64")


def _qr_r(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.qr(m, mode="r")
    except np.linalg.LinAlgError as exc:
        raise InvalidInput(f"QR factorization failed: {exc}") from exc


def _leaf_r(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The R of a leaf A, given its Gram matrix G = A^T A.

    With _CHOLQR_MIN_D to _CHOLQR_MAX_D columns and at least
    _CHOLQR_MIN_ROWS rows, by CholeskyQR2 (Yamamoto, Nakatsukasa, Yanagisawa
    & Fukaya, 2015): R1 from the Cholesky factor of G, Q1 = A R1^-1, and
    R = R2 R1 with R2 from the Cholesky factor of W = Q1^T Q1, two matrix
    products where Householder QR takes memory-bound column steps.  For cond(A) up to about
    u^-1/2 it is as backward stable as Householder QR.  A Cholesky that
    fails, or a W that is not finite or is further than _CHOLQR_TOL from I
    in any entry (rank-deficient, zero, duplicate-heavy or ill-conditioned
    leaves), falls back to :func:`_qr_r`, as does any other shape.
    """
    n, d = a.shape
    if _CHOLQR_MIN_D <= d <= _CHOLQR_MAX_D and n >= _CHOLQR_MIN_ROWS:
        with np.errstate(all="ignore"):
            try:
                r1 = np.linalg.cholesky(g).T
                q1 = a @ np.linalg.inv(r1)
                w = q1.T @ q1
                if np.max(np.abs(w - np.eye(d))) <= _CHOLQR_TOL:
                    return np.linalg.cholesky(w).T @ r1
            except np.linalg.LinAlgError:
                pass
    return _qr_r(a)


def _carry(slots: list, node, merge: Callable) -> None:
    """Add `node` of one unit to the binary counter `slots`, in place.

    Slot i holds a node of 2**i units or None.  Each occupied slot the node
    passes is emptied into it as `node = merge(held, node)`, the held node
    being the older; the first empty slot, or a new last one, takes the result.
    """
    for i, held in enumerate(slots):
        if held is None:
            slots[i] = node
            return
        slots[i] = None
        node = merge(held, node)
    slots.append(node)


class _Tsqr:
    """A running TSQR: the R factor of the rows fed so far, block by block,
    with their Gram matrix and, for centred input, their mean and weight.

    Rows are cut into leaves of _TSQR_BLOCK rows; a leaf may span blocks.
    A leaf's R comes from :func:`_leaf_r`, given the leaf's Gram matrix.
    Leaf nodes go into the binary counter of :func:`_carry`, slot i holding
    the node of 2**i leaves, and two nodes merge by the QR of their stacked
    Rs, the older first.  :meth:`finish` merges what is left the same way, which gives the
    fixed pairwise tree over the leaves: the bytes of R depend on n alone,
    not on where the blocks were cut.

    Weighted rows are scaled by sqrt(w_i).  With `centred`, each leaf is
    moved to its own (weighted) mean first, and a node is (R, mean, weight).
    Two nodes merge the way of Chan, Golub & LeVeque (1979): the R of
    [R1; R2; sqrt(W1 W2 / W) (mu2 - mu1)], whose Gram matrix is that of the
    union moved to its common mean, so no pass over the whole input centres
    it.  The means are taken from an origin, the mean of the first leaf with
    positive weight: a merge then subtracts two small means, not two large
    ones, and a common translation of the rows costs no accuracy.  A single
    leaf is centred exactly as one pass over all rows would centre it.
    Beside the tree, G = sum of A_b^T A_b over the leaves A_b (plus each
    merge's extra row, when centred) is kept for :func:`_check_fit`.

    `feed` cuts its block into the pending leaf and factors each leaf as it
    fills, so a whole array fed at once is factored leaf view by leaf view,
    without a copy of its own.  The pending rows are held by reference: the
    caller must not change a block once fed.  Memory beyond the last block:
    one leaf of pending rows with its folded copy and one more leaf-sized
    array (LAPACK's copy, or CholeskyQR2's Q1), and a d x d R per occupied
    slot.  Finite rows whose leaf centring or Gram matrix overflows float64
    raise InvalidInput without a numpy warning.
    """

    def __init__(self, centred: bool = False):
        self.centred = centred
        self.n = 0
        self.d: Optional[int] = None
        self.gram: Optional[np.ndarray] = None
        self.energy = 0.0
        self.mean: Optional[np.ndarray] = None
        self.total = 0.0
        self._pending: list[tuple[np.ndarray, Optional[np.ndarray]]] = []
        self._pending_rows = 0
        self._slots: list[Optional[tuple]] = []
        self._origin: Optional[np.ndarray] = None
        self._r: Optional[np.ndarray] = None

    def feed(self, rows: np.ndarray, weights: Optional[np.ndarray] = None) -> _Tsqr:
        """Take an n x d block of finite rows and, if every block has them,
        its non-negative weights: cut it into the pending leaf, factoring
        each leaf that fills."""
        if self._r is not None:
            raise InvalidArgument("the accumulator is finished")
        rows = np.asarray(rows, dtype=np.float64)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if np.any(weights < 0):
                raise InvalidInput("weights must be finite and non-negative")
        if self.d is None:
            self.d = rows.shape[1]
        elif rows.shape[1] != self.d:
            raise InvalidInput(f"row dimension {rows.shape[1]} != {self.d}")
        start = 0
        while start < rows.shape[0]:
            take = min(rows.shape[0] - start, _TSQR_BLOCK - self._pending_rows)
            piece = None if weights is None else weights[start : start + take]
            self._pending.append((rows[start : start + take], piece))
            self._pending_rows += take
            start += take
            if self._pending_rows == _TSQR_BLOCK:
                self._leaf()
        self.n += rows.shape[0]
        return self

    def finish(self) -> np.ndarray:
        """R, after the last leaf and the merges left in the counter; then
        `mean`, `total` and `energy` (the trace of G) are set."""
        if self._r is None:
            if self.n == 0:
                raise InvalidInput("point set must be a non-empty n x d matrix")
            if self._pending:
                self._leaf()
            node = None
            for slot in self._slots:  # the newest nodes sit in the lowest slots
                if slot is not None:
                    node = slot if node is None else self._merge(slot, node)
            self._slots = []
            self._r, mean, self.total = node
            if self.centred:
                if not self.total > 0:
                    raise InvalidInput("total weight must be positive")
                self.mean = self._origin + mean if np.any(mean) else self._origin
            with np.errstate(over="ignore"):
                self.energy = float(np.trace(self.gram))
            if not (np.isfinite(self.energy) and np.all(np.isfinite(self.gram))):
                raise _too_large()
        return self._r

    def _leaf(self) -> None:
        parts, self._pending, self._pending_rows = self._pending, [], 0
        rows, w = parts[0]
        if len(parts) > 1:
            rows = np.concatenate([p[0] for p in parts])
            w = None if w is None else np.concatenate([p[1] for p in parts])
        mean, total = None, 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            if self.centred:
                total = float(rows.shape[0]) if w is None else float(np.sum(w))
                mean = np.zeros(rows.shape[1])  # from the origin
                if not total > 0:
                    a = np.zeros_like(rows)
                elif self._origin is None:
                    self._origin = rows.mean(axis=0) if w is None else _weighted_mean(rows, w)
                    a = rows - self._origin
                else:
                    a = rows - self._origin
                    mean = a.mean(axis=0) if w is None else _weighted_mean(a, w)
                    a -= mean
                if w is not None:
                    a *= np.sqrt(w)[:, None]
            else:
                a = rows if w is None else rows * np.sqrt(w)[:, None]
            g = a.T @ a
            if not np.all(np.isfinite(g)):
                raise _too_large()
            if self.gram is None:
                self.gram = g
            else:
                self.gram += g
        _carry(self._slots, (_leaf_r(a, g), mean, total), self._merge)

    def _merge(self, old: tuple, new: tuple) -> tuple:
        (r1, mu1, w1), (r2, mu2, w2) = old, new
        if not (self.centred and w1 > 0 and w2 > 0):
            # an empty side adds nothing: its R is 0 and the mean is the other's
            return _qr_r(np.vstack([r1, r2])), mu2 if self.centred and w1 == 0 else mu1, w1 + w2
        w = w1 + w2
        with np.errstate(over="ignore", invalid="ignore"):
            step = mu2 - mu1
            c = math.sqrt(w1 / w * w2) * step
            mean = mu1 + (w2 / w) * step
            self.gram += np.outer(c, c)
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(mean))):
            raise _too_large()
        return _qr_r(np.vstack([r1, r2, c])), mean, w


def _check_fit(gram: np.ndarray, energy: float, f: SvdFactors) -> None:
    """Check sigma and V against the Gram matrix G = A^T A of the input A and
    its energy ||A||_F^2 = tr(G), without U and without A itself.

    The factors are only ever used through subspace costs
    ||A||_F^2 - ||A X||_F^2, that is through the quadratic form of G, which
    they replace by V diag(sigma^2) V^T.  The two differ by
    D = V^T G V - diag(sigma^2) inside span(V) and by the energy
    ||A||_F^2 - tr(V^T G V) of A outside span(V).  Besides orthonormal V and
    sorted sigma, this check bounds both by t (2 + t) max(||A||_F^2, 1),
    with t = TOL_RECON.

    Any thin SVD with orthonormal U and V and with
    e = ||A - U diag(sigma) V^T||_F <= t max(||A||_F, 1) passes.  Put E = A - U
    diag(sigma) V^T.  Then U diag(sigma) = (A - E) V, so
    D = (AV)^T (EV) + (EV)^T (AV) - (EV)^T (EV) and
    ||D||_F <= 2 ||A||_F e + e^2 <= t (2 + t) max(||A||_F^2, 1).  And
    U diag(sigma) V^T vanishes outside span(V), so the energy of A there is
    that of E there, at most e^2 <= t^2 max(||A||_F^2, 1).

    G is summed from the rows themselves, leaf by leaf, never from R.  A
    CholeskyQR2 leaf (:func:`_leaf_r`) takes its first factor R1 from G
    itself, so the check cannot test R1; it need not, since R = R2 R1
    with R2 from the Gram matrix W of Q1 = A R1^-1, recomputed from the
    rows, and R^T R = R1^T W R1 is the leaf's G up to rounding whatever R1
    is, once W is within _CHOLQR_TOL of I.  What the check does catch is
    unchanged in kind: a wrong R2, a wrong Householder leaf or merge, and a
    wrong small SVD of R or sign and order of its factors.  Its own
    rounding leaves the bound meaningful: each leaf's product A_b^T A_b, a
    sum of at most 4096 terms per entry, is off by at most
    gamma |A_b|^T |A_b|, and
    || |A|^T |A| ||_F <= ||A||_F^2, so with L leaves the computed G is off
    by at most gamma_(4096 + L) ||A||_F^2 in Frobenius norm, gamma_k = k u /
    (1 - k u), u = 2^-53 (the extra row of each merge of centred input adds
    one more term of the same kind).  That is 5e-13 ||A||_F^2 at one leaf and below
    1.2e-10 ||A||_F^2 for up to 10^6 leaves (4 x 10^9 rows), against a
    bound of 2e-8 ||A||_F^2: a fit that passes on the exact G passes here
    with room to spare, and a misfit caught on the exact G is caught here
    unless it lies within that sliver of the bound.
    """
    r = f.rank_bound
    orth_v = np.max(np.abs(f.v.T @ f.v - np.eye(r)))
    if orth_v > TOL_ORTH:
        raise InvalidInput(f"SVD factors lost orthonormality (v={orth_v:.2e})")
    if np.any(np.diff(f.sigma) > 1e-12 * max(f.sigma[0], 1.0)):
        raise InvalidInput("singular values are not sorted non-increasingly")
    inside = f.v.T @ gram @ f.v
    outside = energy - np.trace(inside)
    inside[np.diag_indices(r)] -= f.sigma**2
    gram_err = np.linalg.norm(inside)
    bound = _fit_bound(energy)
    if gram_err > bound or abs(outside) > bound:
        raise InvalidInput(
            f"SVD right factors do not fit the input (gram={gram_err:.2e}, outside={outside:.2e})"
        )


def _check_r(gram: np.ndarray, energy: float, r: np.ndarray) -> None:
    """Check a TSQR factor R against the Gram matrix G = A^T A of the input
    A and its energy ||A||_F^2 = tr(G), under the bound of :func:`_check_fit`.

    Used where R itself stands for A: every subspace cost of A is a
    quadratic form of G, which R replaces by R^T R, so the check bounds
    ||R^T R - G||_F by t (2 + t) max(||A||_F^2, 1), t = TOL_RECON.  Any R
    with A = Q R + E, Q with orthonormal columns and
    e = ||E||_F <= t max(||A||_F, 1), passes: R^T R = (A - E)^T (A - E), so
    ||R^T R - G||_F <= 2 ||A||_F e + e^2.  What G is summed from, and why
    its rounding leaves the bound meaningful, is as in :func:`_check_fit`.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite error fails below
        gram_err = np.linalg.norm(r.T @ r - gram)
    if not gram_err <= _fit_bound(energy):
        raise InvalidInput(f"the R factor does not fit the input (gram={gram_err:.2e})")


def _fit_bound(energy: float) -> float:
    """t (2 + t) max(||A||_F^2, 1) with t = TOL_RECON, for an input A of energy ||A||_F^2."""
    return TOL_RECON * (2.0 + TOL_RECON) * max(energy, 1.0)


def tail_energy(factors: SvdFactors, m: int) -> float:
    """Sum of squared singular values past index m, i.e. ||A - A^(m)||_F^2."""
    m = check_int("rank out of range:", m, 0, factors.rank_bound)
    return float(np.sum(factors.sigma[m:] ** 2))


def _weighted_mean(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The mean of the rows under weights w, whose sum the caller keeps positive."""
    return (w[:, None] * rows).sum(axis=0) / w.sum()


def _lift(centers: np.ndarray) -> np.ndarray:
    """k centers, given in frame coordinates (moved by -origin), lifted to
    the k x (d + 2) array [-2c | 1 | ||c||^2]: the one way centers enter
    :func:`_sq_dists`."""
    k, d = centers.shape
    lifted = np.empty((k, d + 2))
    np.multiply(centers, -2.0, out=lifted[:, :d])  # exact
    lifted[:, d] = 1.0
    lifted[:, d + 1] = np.einsum("ij,ij->i", centers, centers)
    return lifted


def _sq_dists(
    frame: Frame, lifted: np.ndarray, rows: slice = slice(None), out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The k x m squared distances from k centers, lifted by :func:`_lift`,
    to the frame's `rows` (all n by default), not clamped at 0.

    The one center-distance kernel: one matrix product of the lifted centers
    [-2c | 1 | ||c||^2] with the frame's lifted rows [p | ||p||^2 | 1] sums
    the three terms of ||p||^2 - 2 p.c + ||c||^2.  Each entry is one dot
    product of d + 2 terms, so a run of two or more rows gets the bytes of
    the same columns of the full product (one row goes to gemv instead; see
    :func:`_nearest`).
    """
    return np.matmul(lifted, frame.lifted[rows].T, out=out)


def _nearest(frame: Frame, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest listed center per row of the frame (lowest index wins ties)
    and its squared distance, clamped at 0; the centers are given in frame
    coordinates (moved by -origin).

    The centers are lifted once and the rows walked in blocks of
    _TSQR_BLOCK (the last may hold one more row): each block's distances are
    one product by :func:`_sq_dists`, freed before the next, and
    :func:`_first_minimum` fills the block's run of both outputs.  So the
    scratch besides the two n-vectors returned is one k x _TSQR_BLOCK
    product, never a k x n matrix.  The squared distances are bit for bit
    those of :func:`_frame_dist2`, which takes the same minimum over one
    product of all n rows.
    """
    n = frame.lifted.shape[0]
    lifted = _lift(centers)
    idx = np.zeros(n, dtype=np.intp)
    sq = np.empty(n)
    # a last block of one row joins the block before it: numpy takes a
    # product with one column by gemv, whose sums may differ from gemm's
    edges = [*range(0, max(n - 1, 1), _TSQR_BLOCK), n]
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        _first_minimum(_sq_dists(frame, lifted, rows), sq[rows], idx[rows])
    return idx, np.maximum(sq, 0.0, out=sq)


def _first_minimum(dist: np.ndarray, low: np.ndarray, at: np.ndarray) -> None:
    """Each column's minimum of the k x m distances into `low`, and into `at`
    (zeros on entry) the lowest center index that attains it.

    A running mask, "no earlier center attains it", is cut by each center in
    turn and added to the index, so a column's index counts the centers
    before its first minimum (the last center needs no pass).
    """
    np.min(dist, axis=0, out=low)
    before = np.ones(low.shape[0], dtype=bool)
    hit = np.empty_like(before)
    for c in range(dist.shape[0] - 1):
        before &= np.not_equal(dist[c], low, out=hit)
        at += before


def _frame_dist2(frame: Frame, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each row of the frame to its nearest center."""
    sq = _sq_dists(frame, _lift(centers - frame.origin)).min(axis=0)
    return np.maximum(sq, 0.0, out=sq)


def _dist2_subspace(points: PointSet, shape: Subspace) -> np.ndarray:
    """Pythagoras: ||p||^2 - ||p X||^2, never materializing the complement.

    A linear subspace takes ||p||^2 from the point set's cached squared
    norms; an affine one moves the rows by -offset into a temporary of its
    own and squares that in place after the product; each row clamps at 0.
    """
    linear = shape.offset is None
    pts = points.rows if linear else points.rows - shape.offset
    proj = pts @ shape.basis
    proj *= proj
    if linear:
        sq = points.sq_norms
    else:
        pts *= pts
        sq = np.add.reduce(pts, axis=1)
    out = np.add.reduce(proj, axis=1)
    np.subtract(sq, out, out=out)
    return np.maximum(out, 0.0, out=out)


def _per_row(points: PointSet, shape: QueryShape) -> np.ndarray:
    """Per-row squared distance from the points to `shape`, in a new array: the
    one query dispatch and check of the shape's kind and width.  Only center
    sets build the cached frame and only linear subspaces the squared norms."""
    if isinstance(shape, CenterSet):
        if shape.d != points.d:
            raise InvalidArgument("center set dimension does not match points")
        return _frame_dist2(points.frame, shape.centers)
    if isinstance(shape, Subspace):
        if shape.basis.shape[0] != points.d:
            raise InvalidArgument("subspace dimension does not match points")
        return _dist2_subspace(points, shape)
    raise InvalidArgument(f"unsupported query shape {type(shape).__name__}")


def dist2_rows(rows: np.ndarray, shape: QueryShape) -> np.ndarray:
    """Per-row squared distance to a query shape, ``_per_row(PointSet(rows), shape)``.

    The rows are checked and held as a :class:`PointSet` (InvalidInput unless a
    non-empty, finite n x d matrix; a copy unless already held read-only), so
    rows in any memory layout give the per-row bytes of ``dist2(PointSet(rows),
    shape)``.  Center sets are measured in the rows' frame, so a common shift
    changes only rounding; subspaces on the rows as they are (a linear subspace
    is not translation invariant), clamped at 0 per row.  Squares past float64
    give entries that are not finite, with no numpy warning (:func:`dist2` warns).
    """
    points = PointSet(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        return _per_row(points, shape)


def dist2(points: PointSet, shape: QueryShape) -> float:
    """Weighted sum of squared distances from the points to the shape.

    One kernel per shape kind runs on the point set's own read-only arrays,
    checked when it was made, and on what it caches for queries, each built
    on first use and then kept: the :attr:`PointSet.frame` (one more copy of
    the rows) for center sets, the :attr:`PointSet.sq_norms` (n floats) for
    linear subspaces, and the :attr:`PointSet.unit_weights` flag.  An affine
    subspace works on a moved copy of the rows and caches nothing.  The
    weights multiply the kernel's fresh per-row array in place, a step
    skipped when all are 1.0 since x * 1.0 is x, and the sum is
    ``np.sum(w * dist2_rows(rows, shape))`` bit for bit.
    """
    per_row = _per_row(points, shape)
    if not points.unit_weights:
        per_row *= points.weights
    return float(np.add.reduce(per_row))
