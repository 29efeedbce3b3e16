"""Dense matrix kernel: the thin SVD's sigma and V, and squared-distance evaluation.

Everything downstream (subspace coresets, dimensionality reduction, the
streaming summaries) is built on sigma and V computed here; no construction
needs U, and none is formed.  The factorization comes from LAPACK QR and SVD
through ``numpy.linalg``, over rows fed to one accumulator block by block;
every result is checked against the Gram matrix of the input before use.
Distances to centers are taken in the rows' own frame (their mean at the
origin), cached once per point set.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidArgument, InvalidInput, as_floats, check_int

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
        rows = np.atleast_2d(as_floats(self.rows, InvalidInput, "point set"))
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise InvalidInput("point set must be a non-empty n x d matrix")
        if not np.all(np.isfinite(rows)):
            raise InvalidInput("point set contains non-finite entries")
        object.__setattr__(self, "rows", _as_readonly(rows))
        if self.weights is not None:
            w = as_floats(self.weights, InvalidInput, "weights").reshape(-1)
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
            off = as_floats(self.offset, InvalidArgument, "subspace offset").reshape(-1)
            if off.shape[0] != d or not np.all(np.isfinite(off)):
                raise InvalidArgument("offset must be a finite vector of the basis dimension")
            object.__setattr__(self, "offset", _as_readonly(off))

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

    `points` is a :class:`PointSet`, whose rows are factored as they are
    (weights are ignored), or a private :class:`_Tsqr` accumulator that holds
    rows fed block by block, which may be weighted or centred.  sigma and V
    come from the SVD of the factor R of a tall-skinny QR (TSQR; Demmel,
    Grigori, Hoemmen & Langou, 2012): the R of each block of 4096 rows,
    merged pairwise in a fixed tree.  The n x r factor U is never formed.
    The tree depends on n alone, not on the BLAS thread count or on how the
    rows were cut into blocks; with OpenBLAS 0.3.31 the bytes were the same
    at 1, 2 and 4 threads for up to 113 columns.  The signs are fixed so that
    the largest-magnitude entry of each column of V is positive.  The result
    is checked by :func:`_check_fit` against the Gram matrix of the rows.
    """
    acc = points if isinstance(points, _Tsqr) else _Tsqr().feed(points.rows)
    r = acc.finish()
    try:
        _, s, vt = np.linalg.svd(r, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput(f"SVD failed: {exc}") from exc
    v = vt.T
    v[:, _sign_flips(v)] *= -1.0
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
        raise InvalidInput(f"SVD failed: {exc}") from exc


class _Tsqr:
    """A running TSQR: the R factor of the rows fed so far, block by block,
    with their Gram matrix and, for centred input, their mean and weight.

    Rows are cut into leaves of _TSQR_BLOCK rows; a leaf may span blocks.
    Leaf nodes go into a binary counter, slot i holding the node of 2**i
    leaves, and two nodes merge by the QR of their stacked Rs, the older
    first.  :meth:`finish` merges what is left the same way, which gives the
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

    `feed` keeps its block by reference and folds it in at the next feed or
    at :meth:`finish`, so a whole array fed at once is factored inside
    :func:`svd`, leaf view by leaf view, without a copy of its own; the
    caller must not change a block once fed.  Memory beyond the last block:
    one leaf of pending rows with its folded and LAPACK copies, and a d x d
    R per occupied slot.  Finite rows whose leaf centring or Gram matrix
    overflows float64 raise InvalidInput without a numpy warning.
    """

    def __init__(self, centred: bool = False):
        self.centred = centred
        self.n = 0
        self.d: Optional[int] = None
        self.gram: Optional[np.ndarray] = None
        self.energy = 0.0
        self.mean: Optional[np.ndarray] = None
        self.total = 0.0
        self._held: Optional[tuple[np.ndarray, Optional[np.ndarray]]] = None
        self._pending: list[tuple[np.ndarray, Optional[np.ndarray]]] = []
        self._pending_rows = 0
        self._slots: list[Optional[tuple]] = []
        self._origin: Optional[np.ndarray] = None
        self._r: Optional[np.ndarray] = None

    def feed(self, rows: np.ndarray, weights: Optional[np.ndarray] = None) -> _Tsqr:
        """Take an n x d block of finite rows and, if every block has them,
        its non-negative weights."""
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
        if self._held is not None:
            self._fold(*self._held)
        self._held = (rows, weights)
        self.n += rows.shape[0]
        return self

    def finish(self) -> np.ndarray:
        """R, after the last leaf and the merges left in the counter; then
        `mean`, `total` and `energy` (the trace of G) are set."""
        if self._r is None:
            if self.n == 0:
                raise InvalidInput("point set must be a non-empty n x d matrix")
            if self._held is not None:
                self._fold(*self._held)
                self._held = None
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

    def _fold(self, rows: np.ndarray, weights: Optional[np.ndarray]) -> None:
        """Cut a block into the pending leaf, factoring each leaf that fills."""
        start = 0
        while start < rows.shape[0]:
            take = min(rows.shape[0] - start, _TSQR_BLOCK - self._pending_rows)
            piece = None if weights is None else weights[start : start + take]
            self._pending.append((rows[start : start + take], piece))
            self._pending_rows += take
            start += take
            if self._pending_rows == _TSQR_BLOCK:
                self._leaf()

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
        self._push((_qr_r(a), mean, total))

    def _push(self, node: tuple) -> None:
        for i, slot in enumerate(self._slots):
            if slot is None:
                self._slots[i] = node
                return
            self._slots[i] = None
            node = self._merge(slot, node)
        self._slots.append(node)

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

    G is summed from the rows themselves, leaf by leaf, never from R, so a
    wrong R cannot hide in it.  Its own rounding leaves the bound
    meaningful: each leaf's product A_b^T A_b, a sum of at most 4096 terms
    per entry, is off by at most gamma |A_b|^T |A_b|, and
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
    bound = TOL_RECON * (2.0 + TOL_RECON) * max(energy, 1.0)
    if gram_err > bound or abs(outside) > bound:
        raise InvalidInput(
            f"SVD right factors do not fit the input (gram={gram_err:.2e}, outside={outside:.2e})"
        )


def tail_energy(factors: SvdFactors, m: int) -> float:
    """Sum of squared singular values past index m, i.e. ||A - A^(m)||_F^2."""
    m = check_int("rank out of range:", m, 0, factors.rank_bound)
    return float(np.sum(factors.sigma[m:] ** 2))


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
