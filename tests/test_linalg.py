import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinycore import (
    CenterSet,
    Coreset,
    InvalidArgument,
    InvalidInput,
    PointSet,
    affine_subspace_coreset,
    Subspace,
    coreset_cost,
    dist2,
    linear_subspace_coreset,
    svd,
    tail_energy,
)
from tinycore import linalg
from tinycore.linalg import (
    _CHOLQR_MAX_D, _CHOLQR_MIN_D, _CHOLQR_MIN_ROWS, _CHOLQR_TOL, _TSQR_BLOCK, TOL_ORTH,
    _frame, _frame_dist2, _nearest, _qr_r, _sq_dists, _Tsqr, dist2_rows,
)

from conftest import oracle_cost_centers, oracle_cost_subspace, rand_orthonormal, rand_subspace


def rank_m(a, f, m):
    """A^(m) = A V_m V_m^T: the rows of A projected onto the top m right-singular directions."""
    vm = f.v[:, :m]
    return a @ vm @ vm.T


class TestPointSet:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            PointSet(np.array([[1.0, np.nan]]))

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidInput):
            PointSet(np.ones((2, 2)), np.array([1.0, -0.5]))

    def test_rows_are_immutable(self):
        ps = PointSet(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ps.rows[0, 0] = 5.0

    @staticmethod
    def _read_only(a):
        a.setflags(write=False)
        return a

    def test_read_only_owner_is_shared(self):
        a = self._read_only(np.arange(6.0).reshape(3, 2).copy())
        w = self._read_only(np.ones(3))
        ps = PointSet(a, w)
        assert ps.rows is a and ps.weights is w
        core = Coreset(ps.rows, ps.weights, 1.0)
        assert core.points is ps.rows and core.weights is ps.weights

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.arange(6.0).reshape(3, 2),
            # the reshape is a view of the writable arange
            lambda: TestPointSet._read_only(np.arange(6.0).reshape(3, 2)),
            lambda: TestPointSet._read_only(np.arange(12.0).reshape(3, 4).copy())[:, ::2],
            lambda: TestPointSet._read_only(np.ones((3, 2), dtype=np.float32)),
            # read-only, but its base is a bytes object
            lambda: np.frombuffer(np.arange(6.0).tobytes()).reshape(3, 2),
        ],
        ids=["writable", "view-of-writable", "strided", "float32", "frombuffer"],
    )
    def test_anything_else_is_copied_read_only(self, make):
        a = make()
        ps = PointSet(a)
        assert not np.shares_memory(ps.rows, a)
        assert not ps.rows.flags.writeable
        np.testing.assert_array_equal(ps.rows, a)


class TestSvd:
    def test_identity_has_unit_singular_values(self):
        f = svd(PointSet(np.eye(3)))
        np.testing.assert_allclose(f.sigma, np.ones(3), atol=1e-12)

    def test_diagonal_case(self):
        f = svd(PointSet(np.diag([3.0, 2.0])))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0], atol=1e-12)

    def test_reconstruction_random_5x4(self, rng):
        # V is square here, so projecting onto all of it gives A back
        a = rng.standard_normal((5, 4))
        f = svd(PointSet(a))
        np.testing.assert_allclose(rank_m(a, f, 4), a, atol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (12, 12), (40, 9), (9, 40)])
    def test_factor_invariants(self, rng, shape):
        a = rng.standard_normal(shape)
        f = svd(PointSet(a))
        r = min(shape)
        assert f.sigma.shape == (r,) and f.v.shape == (shape[1], r)
        assert np.all(np.diff(f.sigma) <= 1e-12)
        assert np.max(np.abs(f.v.T @ f.v - np.eye(r))) <= TOL_ORTH
        # the columns of AV = U diag(sigma) have norms sigma
        np.testing.assert_allclose(np.linalg.norm(a @ f.v, axis=0), f.sigma, atol=1e-9 * max(1.0, f.sigma[0]))
        # a full-rank A has its rows in span(V)
        np.testing.assert_allclose(rank_m(a, f, r), a, atol=1e-9 * max(1.0, np.abs(a).max()))

    def test_rank_deficient_input(self, rng):
        a = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
        f = svd(PointSet(a))
        assert np.all(f.sigma[3:] < 1e-10)
        np.testing.assert_allclose(rank_m(a, f, 3), a, atol=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            PointSet(np.array([[np.inf, 0.0]]))

    def test_small_tail_energy_is_relatively_accurate(self):
        # a tail of ~3.6e-12 of the total energy: the offset of a rank-4
        # summary must still match it to 1e-8 relative
        gen = np.random.default_rng(4)
        u, _ = np.linalg.qr(gen.standard_normal((3000, 12)))
        v, _ = np.linalg.qr(gen.standard_normal((12, 12)))
        sigma = np.concatenate([[100.0, 50.0, 20.0, 10.0], np.linspace(1e-4, 5e-5, 8)])
        a = (u * sigma) @ v.T
        expect = float(np.sum(sigma[4:] ** 2))
        assert tail_energy(svd(PointSet(a)), 4) == pytest.approx(expect, rel=1e-8)
        core = linear_subspace_coreset(PointSet(a), 2, 2 / 3)
        assert core.size == 4
        assert core.delta == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize("shape", [(40, 9), (9, 40), (12, 12)])
    def test_v_sign_convention(self, rng, shape):
        a = rng.standard_normal(shape)
        f = svd(PointSet(a))
        v = np.asarray(f.v)
        top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        assert np.all(top > 0)
        np.testing.assert_allclose(np.linalg.norm(a @ v, axis=0), f.sigma, atol=1e-9)

    def test_lapack_failure_is_invalid_input(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(InvalidInput, match="did not converge"):
            svd(PointSet(np.eye(3)))

    def test_rerun_gives_identical_factors(self, rng):
        a = rng.standard_normal((300, 17))
        f, g = svd(PointSet(a)), svd(PointSet(a))
        assert np.array_equal(f.sigma, g.sigma) and np.array_equal(f.v, g.v)


class TestRightFactors:
    """svd(points): sigma and V from the TSQR factor R."""

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 7), (7, 1), (9, 40), (300, 17), (4096, 5), (4097, 5), (12289, 3), (9000, 24)]
    )
    def test_matches_the_full_svd(self, rng, shape):
        a = rng.standard_normal(shape) + 3.0
        g = svd(PointSet(a))
        # the reference: LAPACK's SVD of A itself, under the same sign rule
        _, sigma, vt = np.linalg.svd(a, full_matrices=False)
        v = vt.T * np.sign(vt.T[np.argmax(np.abs(vt.T), axis=0), np.arange(vt.shape[0])])
        assert g.sigma.shape == sigma.shape and g.v.shape == v.shape
        np.testing.assert_allclose(g.sigma, sigma, rtol=1e-12, atol=1e-12 * sigma[0])
        # sign rule: the largest-magnitude entry of each column of V is positive
        top = g.v[np.argmax(np.abs(g.v), axis=0), np.arange(g.v.shape[1])]
        assert np.all(top > 0)
        np.testing.assert_allclose(g.v, v, atol=1e-8)

    @pytest.mark.parametrize("n", [10000, 40000])
    def test_small_tail_energy_over_many_blocks(self, n):
        # the tail test above, on 3 and 10 blocks of the TSQR tree
        gen = np.random.default_rng(4)
        u, _ = np.linalg.qr(gen.standard_normal((n, 12)))
        v, _ = np.linalg.qr(gen.standard_normal((12, 12)))
        sigma = np.concatenate([[100.0, 50.0, 20.0, 10.0], np.linspace(1e-4, 5e-5, 8)])
        a = (u * sigma) @ v.T
        expect = float(np.sum(sigma[4:] ** 2))
        assert tail_energy(svd(PointSet(a)), 4) == pytest.approx(expect, rel=1e-8)
        core = linear_subspace_coreset(PointSet(a), 2, 2 / 3)
        assert core.size == 4
        assert core.delta == pytest.approx(expect, rel=1e-8)

    def test_wrong_r_is_invalid_input(self, rng, monkeypatch):
        # a QR that drops the lower half of every stack (at a merge, the
        # second block's R) gives factors that do not fit the input
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda m, mode="reduced": qr(m[: (m.shape[0] + 1) // 2], mode=mode))
        with pytest.raises(InvalidInput, match="do not fit the input"):
            svd(PointSet(rng.standard_normal((10000, 6))))

    def test_r_outside_the_row_space_is_invalid_input(self, monkeypatch):
        # R = 0 gives sigma = 0 and V = the first unit vectors, orthogonal to
        # these rows: V^T A^T A V = diag(sigma^2) holds, and only the energy
        # of A outside span(V) shows the fault
        monkeypatch.setattr(np.linalg, "qr", lambda m, mode="reduced": np.zeros((min(m.shape), m.shape[1])))
        a = np.array([[0.0, 0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 4.0, 5.0, 6.0]])
        with pytest.raises(InvalidInput, match="do not fit the input"):
            svd(PointSet(a))

    def test_qr_failure_is_invalid_input(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("QR failed to converge")

        monkeypatch.setattr(np.linalg, "qr", fail)
        with pytest.raises(InvalidInput, match="QR failed"):
            svd(PointSet(np.eye(3)))

    def test_rerun_gives_identical_factors(self, rng):
        a = rng.standard_normal((9000, 7))
        f, g = svd(PointSet(a)), svd(PointSet(a))
        assert np.array_equal(f.sigma, g.sigma) and np.array_equal(f.v, g.v)


def pairwise_r(a):
    """The reference TSQR: the R of every 4096 rows, stacked two by two level by level."""
    rs = [np.linalg.qr(a[i : i + _TSQR_BLOCK], mode="r") for i in range(0, a.shape[0], _TSQR_BLOCK)]
    while len(rs) > 1:
        pairs = [rs[i : i + 2] for i in range(0, len(rs), 2)]
        rs = [np.linalg.qr(np.vstack(p), mode="r") if len(p) == 2 else p[0] for p in pairs]
    return rs[0]


def fed(a, w=None, cuts=(), centred=False):
    """An accumulator fed the rows of `a` (and weights `w`) in pieces cut at `cuts`."""
    acc = _Tsqr(centred=centred)
    edges = [0, *cuts, a.shape[0]]
    for lo, hi in zip(edges, edges[1:]):
        acc.feed(a[lo:hi], None if w is None else w[lo:hi])
    return acc


def random_cuts(gen, n):
    """Cut points that make pieces of 1, 4095, 4096 and 4097 rows, then random ones."""
    edges = np.cumsum([1, 4095, 4096, 4097])
    more = gen.integers(edges[-1], n, gen.integers(0, 12)).tolist() if n > edges[-1] else []
    return sorted({*edges.tolist(), *more} - {0, n})


class TestTsqrAccumulator:
    """_Tsqr: the R of rows fed block by block is that of the fixed pairwise tree."""

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8192, 12289, 20497])
    def test_any_feed_split_gives_the_pairwise_tree_bytes(self, n):
        gen = np.random.default_rng(n)
        a = gen.standard_normal((n, 7)) + 2.0
        want = pairwise_r(a)
        for _ in range(3):
            cuts = sorted(set(gen.integers(1, n, gen.integers(0, 9)).tolist())) if n > 1 else []
            assert np.array_equal(fed(a, cuts=cuts).finish(), want)
        if n >= 12289:  # room for pieces of 1, 4095, 4096 and 4097 rows
            assert np.array_equal(fed(a, cuts=random_cuts(gen, n)).finish(), want)
            assert np.array_equal(fed(a, cuts=range(1, n)[::997]).finish(), want)

    def test_weighted_feed_is_the_folded_tree(self):
        # the second leaf has weight 0 throughout
        gen = np.random.default_rng(11)
        n = 3 * _TSQR_BLOCK + 1234
        a = gen.standard_normal((n, 5)) * [4.0, 2.0, 1.0, 0.5, 0.25]
        w = gen.uniform(0.0, 3.0, n)
        w[_TSQR_BLOCK : 2 * _TSQR_BLOCK] = 0.0
        want = pairwise_r(a * np.sqrt(w)[:, None])
        for cuts in ([], random_cuts(gen, n), [_TSQR_BLOCK, 2 * _TSQR_BLOCK]):
            acc = fed(a, w, cuts)
            assert np.array_equal(acc.finish(), want)
            np.testing.assert_allclose(acc.gram, (a.T * w) @ a, rtol=1e-12)

    @pytest.mark.parametrize("zero_leaf", [None, 0, 1, 3])
    def test_centred_feed_is_split_invariant_and_centred(self, zero_leaf):
        # Chan merges: R^T R is the weighted scatter about the weighted mean
        gen = np.random.default_rng(12)
        n = 3 * _TSQR_BLOCK + 777
        a = gen.standard_normal((n, 4)) * [3.0, 1.0, 0.5, 0.1] + [1e3, -2.0, 5.0, 0.0]
        w = gen.uniform(0.5, 2.0, n)
        if zero_leaf is not None:
            w[zero_leaf * _TSQR_BLOCK : (zero_leaf + 1) * _TSQR_BLOCK] = 0.0
        whole = fed(a, w, centred=True)
        r = whole.finish()
        mean = (w @ a) / w.sum()
        scatter = ((a - mean).T * w) @ (a - mean)
        assert whole.total == pytest.approx(w.sum(), rel=1e-14)
        np.testing.assert_allclose(whole.mean, mean, rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(r.T @ r, scatter, rtol=1e-10, atol=1e-10 * np.trace(scatter))
        np.testing.assert_allclose(whole.gram, scatter, rtol=1e-10, atol=1e-10 * np.trace(scatter))
        for cuts in (random_cuts(gen, n), [1, 2, 3, n - 1]):
            split = fed(a, w, cuts, centred=True)
            assert np.array_equal(split.finish(), r)
            assert np.array_equal(split.mean, whole.mean) and split.total == whole.total

    @pytest.mark.parametrize("n", [700, _TSQR_BLOCK + 900])
    def test_centred_parts_equal_their_vstack(self, n):
        # separate arrays, as a stream reduce feeds them: weighted parts, then unit-weight blocks
        gen = np.random.default_rng(n)
        sizes = np.diff([0, *sorted(gen.choice(np.arange(1, n), 6, replace=False).tolist()), n])
        parts = [gen.standard_normal((s, 5)) * [2.0, 1.0, 1.0, 0.5, 0.1] + 50.0 for s in sizes]
        weights = [gen.uniform(0.5, 3.0, s) for s in sizes[:3]] + [np.ones(s) for s in sizes[3:]]
        whole = _Tsqr(centred=True).feed(np.vstack(parts), np.concatenate(weights))
        split = _Tsqr(centred=True)
        for rows, w in zip(parts, weights):
            split.feed(rows, w)
        assert np.array_equal(split.finish(), whole.finish())
        assert np.array_equal(split.mean, whole.mean) and split.total == whole.total
        assert np.array_equal(split.gram, whole.gram)

    def test_one_leaf_is_centred_like_one_pass(self):
        gen = np.random.default_rng(13)
        a = gen.standard_normal((_TSQR_BLOCK, 6)) + 1e6
        acc = fed(a, cuts=[100, 2000], centred=True)
        assert np.array_equal(acc.finish(), np.linalg.qr(a - a.mean(axis=0), mode="r"))
        assert np.array_equal(acc.mean, a.mean(axis=0))

    @pytest.mark.parametrize("build", [svd, lambda ps: affine_subspace_coreset(ps, 2, 0.5)], ids=["svd", "affine"])
    def test_whole_array_is_factored_without_an_n_by_d_copy(self, build):
        # leaf views: the traced peak is one leaf's copies, 0.10 (svd) and
        # 0.20 (affine) of these 2.6 MB of rows; it was 1.0 and 3.0 when
        # A V and the centred rows were formed whole
        ps = PointSet(np.random.default_rng(14).standard_normal((10 * _TSQR_BLOCK, 8)) + 1e3)
        tracemalloc.start()
        try:
            build(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * ps.rows.nbytes

    def test_feed_after_finish_is_rejected(self):
        acc = _Tsqr().feed(np.eye(3))
        svd(acc)
        with pytest.raises(InvalidArgument, match="finished"):
            acc.feed(np.eye(3))

    def test_negative_weight_and_width_change_are_invalid_input(self):
        with pytest.raises(InvalidInput, match="non-negative"):
            _Tsqr().feed(np.ones((2, 2)), np.array([1.0, -1.0]))
        acc = _Tsqr().feed(np.ones((2, 2)))
        with pytest.raises(InvalidInput, match="dimension"):
            acc.feed(np.ones((2, 3)))

    @pytest.mark.parametrize("centred", [False, True])
    def test_wrong_r_is_invalid_input_when_fed_in_blocks(self, rng, monkeypatch, centred):
        # the Gram check sees the rows, not R: a QR that drops half of every
        # stack is caught on linear and centred input fed block by block
        a = rng.standard_normal((10000, 6)) + 5.0
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda m, mode="reduced": qr(m[: (m.shape[0] + 1) // 2], mode=mode))
        with pytest.raises(InvalidInput, match="do not fit the input"):
            svd(fed(a, cuts=[300, 5000, 9999], centred=centred))


def rotated(gen, n, d, cond):
    """U diag(sigma) V^T with dense random U (n x d) and V (d x d), sigma log-spaced from 100 to 100 / cond."""
    u, _ = np.linalg.qr(gen.standard_normal((n, d)))
    v, _ = np.linalg.qr(gen.standard_normal((d, d)))
    return (u * (100.0 * np.logspace(0, -np.log10(cond), d))) @ v.T


@pytest.fixture
def leaves(monkeypatch):
    """Spies on the TSQR leaves: each leaf's A with the R it got, and the shape of every _qr_r call."""
    seen = {"leaf": [], "qr": []}
    leaf_r, qr_r = linalg._leaf_r, linalg._qr_r

    def leaf(a, g):
        r = leaf_r(a, g)
        seen["leaf"].append((a.copy(), r))
        return r

    def qr(m):
        seen["qr"].append(m.shape)
        return qr_r(m)

    monkeypatch.setattr(linalg, "_leaf_r", leaf)
    monkeypatch.setattr(linalg, "_qr_r", qr)
    return seen


@pytest.mark.filterwarnings("error")
class TestCholeskyQr2Leaf:
    """_leaf_r: a leaf of 16 to 96 columns and at least 1024 rows takes its R
    by CholeskyQR2 from its Gram matrix, and falls back to one Householder QR
    where that is unsafe or, on fewer rows, slower."""

    # the largest deviation measured over d <= 96 and cond <= 3e8 was 12 u ||A||
    SIGMA_TOL = 32 * 2.0**-53

    def assert_householder_sigma(self, leaves):
        for a, r in leaves["leaf"]:
            want = np.linalg.svd(_qr_r(a), compute_uv=False)
            got = np.linalg.svd(r, compute_uv=False)
            assert np.max(np.abs(got - want)) <= self.SIGMA_TOL * max(want[0], 1.0)

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
    @pytest.mark.parametrize("d", [_CHOLQR_MIN_D, 30, _CHOLQR_MAX_D])
    def test_dense_rotations_keep_householder_singular_values(self, leaves, d, cond):
        a = rotated(np.random.default_rng(d), 4000, d, cond)
        svd(PointSet(a))  # its fit check passes
        self.assert_householder_sigma(leaves)
        if cond <= 1e6:
            assert leaves["qr"] == []  # CholeskyQR2, with no Householder step
        elif cond >= 1e10:
            assert leaves["qr"] == [a.shape]

    def test_centred_accumulator_shifted_by_1e8(self, leaves):
        gen = np.random.default_rng(31)
        n = _TSQR_BLOCK + 2000  # the first leaf sets the origin; the second leaf moves to its own mean
        a = rotated(gen, n, 24, 1e4) + 1e8 * gen.standard_normal(24)
        svd(_Tsqr(centred=True).feed(a))
        assert len(leaves["leaf"]) == 2 and leaves["qr"] == [(49, 24)]  # one merge, no leaf fell back
        self.assert_householder_sigma(leaves)

    @pytest.mark.parametrize("centred", [False, True])
    def test_weights_from_1e_minus_6_to_1e6(self, leaves, centred):
        gen = np.random.default_rng(32)
        n = 2 * _TSQR_BLOCK + 500
        a = rotated(gen, n, 20, 1e2) + 5.0
        w = 10.0 ** gen.uniform(-6.0, 6.0, n)
        svd(_Tsqr(centred=centred).feed(a, w))
        assert len(leaves["leaf"]) == 3
        assert (500, 20) in leaves["qr"]  # the last leaf, below the row floor
        self.assert_householder_sigma(leaves)

    @pytest.mark.parametrize(
        "make",
        [
            lambda gen: gen.standard_normal((3000, 2)) @ gen.standard_normal((2, 20)),  # an exact 2-plane
            lambda gen: np.repeat(gen.standard_normal((5, 20)), 600, axis=0),  # five rows, each 600 times
            lambda gen: gen.standard_normal((19, 20)),  # fewer rows than columns
            lambda gen: gen.standard_normal((_CHOLQR_MIN_ROWS - 1, 20)),  # below the row floor
            lambda gen: rotated(gen, 3000, 32, 1e12),  # the Cholesky factor of G fails
            lambda gen: gen.standard_normal((3000, _CHOLQR_MIN_D - 1)),
            lambda gen: gen.standard_normal((3000, _CHOLQR_MAX_D + 1)),
        ],
        ids=["2-plane", "duplicates", "rows<d", "rows<floor", "cond-1e12", "d<min", "d>max"],
    )
    def test_falls_back_to_householder(self, leaves, make):
        a = make(np.random.default_rng(33))
        f = svd(PointSet(a))
        assert leaves["qr"] == [a.shape]
        (_, r), = leaves["leaf"]
        assert np.array_equal(r, np.linalg.qr(a, mode="r"))
        assert np.all(np.isfinite(f.sigma))

    def test_first_factor_beyond_tolerance_falls_back(self, leaves):
        # cond 1e8: the Cholesky factor of G exists, but Q1 = A R1^-1 is
        # further than _CHOLQR_TOL from orthonormal
        a = rotated(np.random.default_rng(34), 3000, 32, 1e8)
        r1 = np.linalg.cholesky(a.T @ a).T
        q1 = a @ np.linalg.inv(r1)
        assert np.max(np.abs(q1.T @ q1 - np.eye(32))) > _CHOLQR_TOL
        svd(PointSet(a))
        assert leaves["qr"] == [a.shape]
        self.assert_householder_sigma(leaves)

    @pytest.mark.parametrize("centred", [False, True])
    def test_zero_weight_leaf_falls_back(self, leaves, centred):
        gen = np.random.default_rng(35)
        a = gen.standard_normal((2 * _TSQR_BLOCK, 20)) + 3.0
        w = np.ones(2 * _TSQR_BLOCK)
        w[_TSQR_BLOCK:] = 0.0
        svd(_Tsqr(centred=centred).feed(a, w))
        assert leaves["qr"] == [(_TSQR_BLOCK, 20), (40, 20)]  # the zero leaf, then the merge (no extra row)
        assert not np.any(leaves["leaf"][1][1])


class TestLowRankApprox:
    """A^(m) = A V_m V_m^T, formed from the V of svd()."""

    def test_zero_trailing_singular_value(self):
        a = np.diag([3.0, 2.0, 1.0])
        f = svd(PointSet(a))
        np.testing.assert_allclose(rank_m(a, f, 2), np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_rank_one_exact_recovery(self, rng):
        a = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        f = svd(PointSet(a))
        np.testing.assert_allclose(rank_m(a, f, 1), a, atol=1e-10)

    def test_residual_is_tail_energy(self, rng):
        a = rng.standard_normal((6, 4))
        f = svd(PointSet(a))
        resid = np.linalg.norm(a - rank_m(a, f, 2)) ** 2
        expect = float(np.sum(f.sigma[2:] ** 2))
        assert resid == pytest.approx(expect, rel=1e-9)
        assert tail_energy(f, 2) == pytest.approx(expect, rel=1e-12)

    def test_rank_out_of_range(self, rng):
        f = svd(PointSet(rng.standard_normal((4, 3))))
        assert tail_energy(f, 0) == pytest.approx(np.linalg.norm(f.sigma) ** 2, rel=1e-12)
        assert tail_energy(f, 3) == 0.0
        with pytest.raises(InvalidArgument, match="out of range"):
            tail_energy(f, -1)
        with pytest.raises(InvalidArgument, match="out of range"):
            tail_energy(f, 4)

    def test_eckart_young_consistency(self, rng):
        a = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 8))
        f = svd(PointSet(a))
        resids = [np.linalg.norm(a - rank_m(a, f, m)) ** 2 for m in range(1, 9)]
        assert all(x >= y - 1e-9 for x, y in zip(resids, resids[1:]))
        assert resids[3] == pytest.approx(0.0, abs=1e-16)  # rank 4 input


class TestDist2:
    def test_points_on_subspace(self, rng):
        basis = rand_orthonormal(rng, 5, 2)
        pts = rng.standard_normal((8, 2)) @ basis.T
        assert dist2(PointSet(pts), Subspace(basis)) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_to_origin_center(self):
        ps = PointSet(np.array([[1.0, 0.0]]))
        assert dist2(ps, CenterSet(np.array([[0.0, 0.0]]))) == pytest.approx(1.0)

    def test_matches_center_loop_oracle(self, rng):
        rows = rng.standard_normal((10, 3))
        centers = rng.standard_normal((2, 3))
        got = dist2(PointSet(rows), CenterSet(centers))
        assert got == pytest.approx(oracle_cost_centers(rows, None, centers), rel=1e-10)

    def test_matches_complement_oracle(self, rng):
        rows = rng.standard_normal((12, 6))
        for affine in (False, True):
            shape = rand_subspace(rng, 6, 2, affine=affine)
            got = dist2(PointSet(rows), shape)
            assert got == pytest.approx(oracle_cost_subspace(rows, None, shape), rel=1e-9)

    def test_weighted_sum(self, rng):
        rows = rng.standard_normal((6, 3))
        w = rng.uniform(0.5, 3.0, 6)
        centers = rng.standard_normal((2, 3))
        got = dist2(PointSet(rows, w), CenterSet(centers))
        assert got == pytest.approx(oracle_cost_centers(rows, w, centers), rel=1e-10)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidArgument):
            dist2(PointSet(np.ones((2, 3))), CenterSet(np.ones((1, 4))))


class TestNearest:
    """The center kernel against a brute-force argmin over explicit differences.

    Rows and centers are multiples of 1/4 of magnitude at most 8, measured in
    a frame at the origin, so every distance is exact in both routes and ties
    are real ties."""

    @staticmethod
    def brute(rows, centers):
        d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        idx = np.argmin(d2, axis=1)
        return idx, d2[np.arange(rows.shape[0]), idx]

    @staticmethod
    def grid(gen, shape):
        return gen.integers(-32, 33, shape) / 4.0

    @staticmethod
    def nearest(rows, centers):
        return _nearest(_frame(rows, np.zeros(rows.shape[1])), centers)

    @pytest.mark.parametrize("n,d,k", [(200, 3, 1), (5, 4, 9), (300, 2, 7), (1, 6, 3), (150, 32, 4)])
    def test_matches_brute_force(self, n, d, k):
        gen = np.random.default_rng(n * 100 + k)
        rows, centers = self.grid(gen, (n, d)), self.grid(gen, (k, d))
        idx, sq = self.nearest(rows, centers)
        want_idx, want_sq = self.brute(rows, centers)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_allclose(sq, want_sq, rtol=1e-12, atol=0)

    def test_duplicated_centers_lowest_index_wins(self):
        gen = np.random.default_rng(5)
        rows = self.grid(gen, (400, 2))
        centers = self.grid(gen, (6, 2))
        centers[4] = centers[1]
        centers[5] = centers[1]
        idx, sq = self.nearest(rows, centers)
        want_idx, want_sq = self.brute(rows, centers)
        assert np.any(want_idx == 1)
        assert not np.any(np.isin(idx, [4, 5]))
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_allclose(sq, want_sq, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [1, 6])
    def test_large_translation_matches_brute_force(self, k):
        # 1e8 + O(1): the expansion on the raw rows would lose every digit of
        # the distances; in the rows' own frame it matches the differences
        gen = np.random.default_rng(k)
        rows = 1e8 + gen.standard_normal((300, 4))
        centers = 1e8 + gen.standard_normal((k, 4))
        frame = _frame(rows)
        idx, sq = _nearest(frame, centers - frame.origin)
        want_idx, want_sq = self.brute(rows, centers)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_allclose(sq, want_sq, rtol=1e-12, atol=0)
        assert sq.tobytes() == dist2_rows(rows, CenterSet(centers)).tobytes()

    @staticmethod
    def first_minimum(dist):
        """The tie rule by hand: per row, a loop over the centers that keeps the first minimum."""
        idx = []
        for col in dist.T.tolist():
            best = 0
            for c, v in enumerate(col):
                if v < col[best]:
                    best = c
            idx.append(best)
        return np.array(idx)

    @pytest.mark.parametrize("moved", [False, True], ids=["origin", "mean"])
    @pytest.mark.parametrize("k", [1, 2, 10])
    @pytest.mark.parametrize("seed", range(4))
    def test_ties_go_to_the_first_minimum(self, seed, k, moved):
        gen = np.random.default_rng([seed, k])
        d = seed + 1
        centers = self.grid(gen, (k, d))
        for _ in range(k // 2):  # duplicated centers at random positions
            a, b = gen.choice(k, 2, replace=False)
            centers[b] = centers[a]
        pairs = gen.integers(0, k, (150, 2))
        rows = np.vstack([
            self.grid(gen, (150, d)),
            (centers[pairs[:, 0]] + centers[pairs[:, 1]]) / 2,  # equidistant from two centers
            centers[gen.integers(0, k, 50)],  # at distance 0
        ])
        rows = np.vstack([rows, rows[gen.integers(0, 350, 40)]])  # exact duplicate rows
        if moved:
            rows, centers = rows + 1e8, centers + 1e8
        frame = _frame(rows) if moved else _frame(rows, np.zeros(d))
        local = centers - frame.origin
        dist = _sq_dists(frame, local)
        if k > 1:
            assert np.any(np.sum(dist == dist.min(axis=0), axis=0) > 1)
        idx, sq = _nearest(frame, local)
        np.testing.assert_array_equal(idx, self.first_minimum(dist))
        assert idx.dtype == np.intp
        assert sq.tobytes() == _frame_dist2(frame, centers).tobytes()


class TestFrame:
    """Center queries run in the rows' cached frame, through the one distance kernel."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [1, 2, 10, 33, 130])
    def test_mean_moved_rows_and_norms_have_the_bytes_of_plain_numpy(self, d, order):
        # the mean of C-contiguous rows of two or more columns is summed another
        # way; single columns and other layouts, where that order would differ, are not
        for n in (1, 7, 8, 9, 4096, 20001):
            gen = np.random.default_rng([n, d])
            rows = np.asarray(gen.standard_normal((n, d)) * 10 + (1e8 if n % 2 else 0.0), order=order)
            frame = _frame(rows)
            origin = rows.mean(axis=0)
            moved = rows - origin
            norms = moved[:, 0] * moved[:, 0]
            for j in range(1, d):
                norms = norms + moved[:, j] * moved[:, j]
            assert frame.origin.tobytes() == origin.tobytes()
            assert frame.lifted.flags.f_contiguous
            assert frame.rows.tobytes(order="F") == moved.tobytes(order="F")
            assert frame.norms.tobytes() == norms.tobytes()
            assert frame.lifted[:, -1].tobytes() == np.ones(n).tobytes()

    def test_kernel_and_query_give_the_same_bytes(self, rng):
        rows = 1e3 + rng.standard_normal((700, 6))
        centers = 1e3 + rng.standard_normal((7, 6))
        centers[3] = centers[1]  # tied centers
        centers[6] = centers[0]
        frame = _frame(rows)
        _, sq = _nearest(frame, centers - frame.origin)
        assert sq.tobytes() == dist2_rows(rows, CenterSet(centers)).tobytes()

    def test_rows_and_norms_are_read_only_views_of_one_lifted_array(self, rng):
        rows = rng.standard_normal((40, 3)) + 5.0
        frame = PointSet(rows).frame
        lifted = frame.lifted
        assert lifted.shape == (40, 5) and lifted.flags.f_contiguous
        for view in (frame.rows, frame.norms):
            assert view.base is lifted
            assert not view.flags.writeable
        assert not lifted.flags.writeable
        np.testing.assert_array_equal(lifted[:, :3], frame.rows)
        np.testing.assert_array_equal(lifted[:, 3], frame.norms)
        np.testing.assert_array_equal(lifted[:, 4], np.ones(40))
        np.testing.assert_allclose(frame.norms, np.sum(frame.rows**2, axis=1), rtol=1e-14)

    def test_raw_rows_and_cached_frame_give_the_same_bytes(self, rng):
        rows = rng.standard_normal((300, 4)) - 50.0
        centers = CenterSet(rng.standard_normal((3, 4)))
        linear = Subspace(basis=rand_orthonormal(rng, 4, 2))
        affine = Subspace(basis=rand_orthonormal(rng, 4, 2), offset=rng.standard_normal(4) - 50.0)
        for ps in (PointSet(rows, rng.random(300)), PointSet(rows)):
            # a weighted coreset is measured by the same kernel, plus its offset
            core = Coreset(ps.rows, ps.effective_weights(), 2.5)
            for shape in (centers, linear, affine):
                raw = dist2_rows(np.asarray(ps.rows), shape)
                assert dist2(ps, shape) == float(np.sum(ps.effective_weights() * raw))
                assert coreset_cost(core, shape) == dist2(core.as_point_set(), shape) + core.delta
                assert coreset_cost(core, shape) == float(np.sum(ps.effective_weights() * raw) + 2.5)

    def test_queries_leave_the_point_set_and_its_frame_unchanged(self, rng):
        rows = rng.standard_normal((60, 3)) + 1e6
        core = Coreset(rows, rng.random(60), 1.5)
        ps = core.as_point_set()
        shapes = (
            CenterSet(rng.standard_normal((4, 3)) + 1e6),
            Subspace(basis=rand_orthonormal(rng, 3, 2)),
            Subspace(basis=rand_orthonormal(rng, 3, 1), offset=np.full(3, 1e6)),
        )
        frame = ps.frame
        before = [a.tobytes() for a in (ps.rows, ps.weights, frame.rows, frame.norms)]
        for shape in shapes:
            assert dist2(ps, shape).hex() == dist2(ps, shape).hex()
            assert coreset_cost(core, shape).hex() == coreset_cost(core, shape).hex()
        assert ps.frame is frame
        assert [a.tobytes() for a in (ps.rows, ps.weights, frame.rows, frame.norms)] == before

    @pytest.mark.parametrize("shape, message", [
        (CenterSet(np.zeros((2, 4))), "center set dimension does not match points"),
        (Subspace(basis=np.eye(4)[:, :2]), "subspace dimension does not match points"),
        (np.zeros((2, 3)), "unsupported query shape ndarray"),
    ], ids=["centers", "subspace", "ndarray"])
    def test_dist2_rejects_a_shape_it_cannot_measure(self, rng, shape, message):
        with pytest.raises(InvalidArgument, match=message):
            dist2(PointSet(rng.standard_normal((5, 3))), shape)

    @pytest.mark.parametrize("make", [
        lambda rows: PointSet(rows),
        lambda rows: Coreset(rows, np.ones(rows.shape[0]), 0.0),
    ], ids=["PointSet", "Coreset"])
    def test_frame_is_built_once_and_read_only(self, rng, make):
        rows = rng.standard_normal((50, 3)) + 7.0
        obj = make(rows)
        before = repr(obj)
        frame = obj.frame
        assert obj.frame is frame
        np.testing.assert_array_equal(frame.origin, rows.mean(axis=0))
        np.testing.assert_array_equal(frame.rows, rows - rows.mean(axis=0))
        for a in (frame.origin, frame.rows, frame.norms):
            assert not a.flags.writeable
        with pytest.raises(AttributeError):
            frame.rows = rows
        with pytest.raises(AttributeError):
            obj.frame = frame
        # the cache is not a field: repr and equality see the same fields as before
        assert repr(obj) == before
        assert "frame" not in {f.name for f in dataclasses.fields(obj)}
        one, other = make(np.array([[3.0]])), make(np.array([[3.0]]))
        one.frame
        assert one == other

    def test_subspace_queries_build_no_frame(self, rng):
        core = Coreset(rng.standard_normal((20, 3)), np.ones(20), 0.0)
        coreset_cost(core, Subspace(basis=np.eye(3)[:, :1]))
        assert "frame" not in vars(core) and "frame" not in vars(core.as_point_set())

    def test_coreset_is_its_point_set(self, rng):
        core = Coreset(rng.standard_normal((20, 3)), rng.random(20), 1.5)
        ps = core.as_point_set()
        assert core.as_point_set() is ps
        assert np.shares_memory(core.points, ps.rows)
        assert np.shares_memory(core.weights, ps.weights)
        assert core.frame is ps.frame

    def test_coreset_requires_weights(self, rng):
        with pytest.raises(InvalidInput):
            Coreset(rng.standard_normal((4, 2)), None, 0.0)


class TestQueryCaches:
    """Linear subspace queries read the point set's cached squared row norms,
    and unit weights skip the multiply, with the bytes of bare rows."""

    @staticmethod
    def _weights(rng, n):
        nudged = np.ones(n)
        nudged[n // 2] = np.nextafter(1.0, 2.0)
        return {"none": None, "ones": np.ones(n), "general": rng.random(n), "nudged": nudged}

    @pytest.mark.parametrize("n, d", [(1, 3), (37, 5), (300, 24)])
    def test_queries_give_the_bytes_of_bare_rows(self, rng, n, d):
        rows = rng.standard_normal((n, d)) * 30.0 - 1e3
        shapes = {
            "linear": Subspace(basis=rand_orthonormal(rng, d, 2)),
            "affine": Subspace(basis=rand_orthonormal(rng, d, 1), offset=rng.standard_normal(d) - 1e3),
            "centers": CenterSet(rng.standard_normal((4, d)) - 1e3),
        }
        for label, w in self._weights(rng, n).items():
            ps = PointSet(rows, w)
            core = Coreset(rows, ps.effective_weights(), 0.75)
            for kind, shape in shapes.items():
                want = float(np.sum(ps.effective_weights() * dist2_rows(rows, shape)))
                for _ in range(2):  # the first query builds the caches, the second reads them
                    assert dist2(ps, shape).hex() == want.hex(), (label, kind)
                    assert coreset_cost(core, shape).hex() == (want + 0.75).hex(), (label, kind)

    @pytest.mark.parametrize("build", [linear_subspace_coreset, affine_subspace_coreset])
    def test_built_coresets_give_the_bytes_of_bare_rows(self, rng, build):
        ps = PointSet(rng.standard_normal((200, 8)) + 4.0)
        core = build(ps, 2, 0.5)
        shapes = (
            Subspace(basis=rand_orthonormal(rng, 8, 2)),
            Subspace(basis=rand_orthonormal(rng, 8, 2), offset=np.full(8, 4.0)),
            CenterSet(rng.standard_normal((3, 8)) + 4.0),
        )
        for shape in shapes:
            want = float(np.sum(core.weights * dist2_rows(np.asarray(core.points), shape)))
            for _ in range(2):
                assert coreset_cost(core, shape).hex() == (want + core.delta).hex()
        # the linear coreset's weights are all exactly 1.0, the affine one's not here
        assert core.as_point_set().unit_weights == (build is linear_subspace_coreset)

    def test_unit_weight_flag(self, rng):
        for label, w in self._weights(rng, 10).items():
            assert PointSet(np.ones((10, 2)), w).unit_weights == (label in ("none", "ones"))

    def test_norms_are_built_once_read_only_with_the_bytes_of_a_row_sum(self, rng):
        rows = rng.standard_normal((80, 6)) + 3.0
        ps = PointSet(rows)
        assert "sq_norms" not in vars(ps)
        dist2(ps, Subspace(basis=rand_orthonormal(rng, 6, 2)))
        norms = vars(ps)["sq_norms"]
        assert ps.sq_norms is norms
        dist2(ps, Subspace(basis=rand_orthonormal(rng, 6, 3)))
        assert ps.sq_norms is norms
        assert norms.tobytes() == np.add.reduce(rows * rows, axis=1).tobytes()
        assert not norms.flags.writeable
        with pytest.raises(ValueError):
            norms[0] = 0.0
        with pytest.raises(AttributeError):
            ps.sq_norms = norms

    @pytest.mark.parametrize("make", [
        lambda rows: PointSet(rows),
        lambda rows: Coreset(rows, np.ones(rows.shape[0]), 0.0),
    ], ids=["PointSet", "Coreset"])
    def test_caches_are_not_fields(self, rng, make):
        obj = make(rng.standard_normal((12, 3)))
        ps = obj if isinstance(obj, PointSet) else obj.as_point_set()
        before = repr(obj)
        dist2(ps, Subspace(basis=np.eye(3)[:, :1]))
        assert {"sq_norms", "unit_weights"} <= set(vars(ps))
        assert repr(obj) == before
        assert not {"sq_norms", "unit_weights"} & {f.name for f in dataclasses.fields(ps)}
        one, other = make(np.array([[3.0]])), make(np.array([[3.0]]))
        cached = one if isinstance(one, PointSet) else one.as_point_set()
        cached.sq_norms, cached.unit_weights
        assert one == other

    def test_affine_and_center_queries_build_no_norms(self, rng):
        core = Coreset(rng.standard_normal((20, 3)), np.ones(20), 0.0)
        coreset_cost(core, Subspace(basis=np.eye(3)[:, :1], offset=np.ones(3)))
        coreset_cost(core, CenterSet(np.zeros((2, 3))))
        assert "sq_norms" not in vars(core.as_point_set())


class TestMatrixInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20), d=st.integers(2, 12))
    def test_pythagoras(self, seed, n, d):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((n, d))
        j = int(gen.integers(1, d))
        q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        x, y = q[:, :j], q[:, j:]
        total = np.linalg.norm(a) ** 2
        split = np.linalg.norm(a @ x) ** 2 + np.linalg.norm(a @ y) ** 2
        assert split == pytest.approx(total, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_projection_contraction(self, seed):
        gen = np.random.default_rng(seed)
        n, d = int(gen.integers(2, 15)), int(gen.integers(2, 10))
        a = gen.standard_normal((n, d))
        j = int(gen.integers(1, d))
        q, _ = np.linalg.qr(gen.standard_normal((d, j)))
        assert np.linalg.norm(a @ q) ** 2 <= np.linalg.norm(a) ** 2 * (1 + 1e-12)

    def test_projected_energy_gap_bound(self, rng):
        # 0 <= ||AX||^2 - ||A^(m)X||^2 <= j * sigma_{m+1}^2 on random triples
        for _ in range(120):
            n = int(rng.integers(3, 25))
            d = int(rng.integers(2, 12))
            a = rng.standard_normal((n, d))
            f = svd(PointSet(a))
            r = min(n, d)
            if r < 2:
                continue
            m = int(rng.integers(1, r))
            j = int(rng.integers(1, d))
            x = rand_orthonormal(rng, d, j)
            gap = np.linalg.norm(a @ x) ** 2 - np.linalg.norm(rank_m(a, f, m) @ x) ** 2
            bound = j * f.sigma[m] ** 2
            assert gap >= -1e-8
            assert gap <= bound * (1 + 1e-9) + 1e-9
