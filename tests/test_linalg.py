import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinycore import (
    CenterSet,
    InvalidArgument,
    InvalidInput,
    PointSet,
    Subspace,
    dist2,
    linear_subspace_coreset,
    low_rank_approx,
    svd,
    tail_energy,
    weighted_fold,
)
from tinycore.linalg import TOL_ORTH, _nearest

from conftest import oracle_cost_centers, oracle_cost_subspace, rand_orthonormal, rand_subspace


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


class TestSvd:
    def test_identity_has_unit_singular_values(self):
        f = svd(PointSet(np.eye(3)))
        np.testing.assert_allclose(f.sigma, np.ones(3), atol=1e-12)

    def test_diagonal_case(self):
        f = svd(PointSet(np.diag([3.0, 2.0])))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0], atol=1e-12)

    def test_reconstruction_random_5x4(self, rng):
        a = rng.standard_normal((5, 4))
        f = svd(PointSet(a))
        np.testing.assert_allclose(f.reconstruct(), a, atol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (12, 12), (40, 9), (9, 40)])
    def test_factor_invariants(self, rng, shape):
        a = rng.standard_normal(shape)
        f = svd(PointSet(a))
        r = min(shape)
        assert f.sigma.shape == (r,)
        assert np.all(np.diff(f.sigma) <= 1e-12)
        assert np.max(np.abs(f.u.T @ f.u - np.eye(r))) <= TOL_ORTH
        assert np.max(np.abs(f.v.T @ f.v - np.eye(r))) <= TOL_ORTH
        np.testing.assert_allclose(f.reconstruct(), a, atol=1e-9 * max(1.0, np.abs(a).max()))

    def test_rank_deficient_input(self, rng):
        a = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
        f = svd(PointSet(a))
        assert np.all(f.sigma[3:] < 1e-10)
        np.testing.assert_allclose(f.reconstruct(), a, atol=1e-9)

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
        np.testing.assert_allclose(f.reconstruct(), a, atol=1e-9)

    def test_lapack_failure_is_invalid_input(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(InvalidInput, match="did not converge"):
            svd(PointSet(np.eye(3)))

    def test_rerun_gives_identical_factors(self, rng):
        a = rng.standard_normal((300, 17))
        f, g = svd(PointSet(a)), svd(PointSet(a))
        for x, y in ((f.u, g.u), (f.sigma, g.sigma), (f.v, g.v)):
            assert np.array_equal(x, y)


class TestRightFactors:
    """svd(points, compute_u=False): sigma and V from the TSQR factor R."""

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 7), (7, 1), (9, 40), (300, 17), (4096, 5), (4097, 5), (12289, 3), (9000, 24)]
    )
    def test_matches_the_full_svd(self, rng, shape):
        a = rng.standard_normal(shape) + 3.0
        f, g = svd(PointSet(a)), svd(PointSet(a), compute_u=False)
        assert g.u is None
        assert g.sigma.shape == f.sigma.shape and g.v.shape == f.v.shape
        np.testing.assert_allclose(g.sigma, f.sigma, rtol=1e-12, atol=1e-12 * f.sigma[0])
        # sign rule: the largest-magnitude entry of each column of V is positive
        top = g.v[np.argmax(np.abs(g.v), axis=0), np.arange(g.v.shape[1])]
        assert np.all(top > 0)
        np.testing.assert_allclose(g.v, f.v, atol=1e-8)

    @pytest.mark.parametrize("n", [10000, 40000])
    def test_small_tail_energy_over_many_blocks(self, n):
        # the tail test above, on 3 and 10 blocks of the TSQR tree
        gen = np.random.default_rng(4)
        u, _ = np.linalg.qr(gen.standard_normal((n, 12)))
        v, _ = np.linalg.qr(gen.standard_normal((12, 12)))
        sigma = np.concatenate([[100.0, 50.0, 20.0, 10.0], np.linspace(1e-4, 5e-5, 8)])
        a = (u * sigma) @ v.T
        expect = float(np.sum(sigma[4:] ** 2))
        assert tail_energy(svd(PointSet(a), compute_u=False), 4) == pytest.approx(expect, rel=1e-8)
        core = linear_subspace_coreset(PointSet(a), 2, 2 / 3)
        assert core.size == 4
        assert core.delta == pytest.approx(expect, rel=1e-8)

    def test_wrong_r_is_invalid_input(self, rng, monkeypatch):
        # a QR that drops the lower half of every stack (at a merge, the
        # second block's R) gives factors that do not fit the input
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda m, mode="reduced": qr(m[: (m.shape[0] + 1) // 2], mode=mode))
        with pytest.raises(InvalidInput, match="do not fit the input"):
            svd(PointSet(rng.standard_normal((10000, 6))), compute_u=False)

    def test_r_outside_the_row_space_is_invalid_input(self, monkeypatch):
        # R = 0 gives sigma = 0 and V = the first unit vectors, orthogonal to
        # these rows: V^T A^T A V = diag(sigma^2) holds, and only the energy
        # of A outside span(V) shows the fault
        monkeypatch.setattr(np.linalg, "qr", lambda m, mode="reduced": np.zeros((min(m.shape), m.shape[1])))
        a = np.array([[0.0, 0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 4.0, 5.0, 6.0]])
        with pytest.raises(InvalidInput, match="do not fit the input"):
            svd(PointSet(a), compute_u=False)

    def test_qr_failure_is_invalid_input(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("QR failed to converge")

        monkeypatch.setattr(np.linalg, "qr", fail)
        with pytest.raises(InvalidInput, match="QR failed"):
            svd(PointSet(np.eye(3)), compute_u=False)

    def test_factors_without_u_refuse_u_uses(self, rng):
        f = svd(PointSet(rng.standard_normal((6, 4))), compute_u=False)
        with pytest.raises(InvalidArgument, match="no U"):
            f.reconstruct()
        with pytest.raises(InvalidArgument, match="no U"):
            low_rank_approx(f, 2)

    def test_rerun_gives_identical_factors(self, rng):
        a = rng.standard_normal((9000, 7))
        f, g = svd(PointSet(a), compute_u=False), svd(PointSet(a), compute_u=False)
        assert np.array_equal(f.sigma, g.sigma) and np.array_equal(f.v, g.v)


class TestLowRankApprox:
    def test_zero_trailing_singular_value(self):
        f = svd(PointSet(np.diag([3.0, 2.0, 1.0])))
        np.testing.assert_allclose(low_rank_approx(f, 2), np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_rank_one_exact_recovery(self, rng):
        a = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        f = svd(PointSet(a))
        np.testing.assert_allclose(low_rank_approx(f, 1), a, atol=1e-10)

    def test_residual_is_tail_energy(self, rng):
        a = rng.standard_normal((6, 4))
        f = svd(PointSet(a))
        resid = np.linalg.norm(a - low_rank_approx(f, 2)) ** 2
        expect = float(np.sum(f.sigma[2:] ** 2))
        assert resid == pytest.approx(expect, rel=1e-9)
        assert tail_energy(f, 2) == pytest.approx(expect, rel=1e-12)

    def test_rank_out_of_range(self, rng):
        f = svd(PointSet(rng.standard_normal((4, 3))))
        with pytest.raises(InvalidArgument):
            low_rank_approx(f, 0)
        with pytest.raises(InvalidArgument):
            low_rank_approx(f, 4)

    def test_eckart_young_consistency(self, rng):
        a = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 8))
        f = svd(PointSet(a))
        resids = [np.linalg.norm(a - low_rank_approx(f, m)) ** 2 for m in range(1, 9)]
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

    Rows and centers are multiples of 1/4 of magnitude at most 8, so every
    distance is exact in both routes and ties are real ties."""

    @staticmethod
    def brute(rows, centers):
        d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        idx = np.argmin(d2, axis=1)
        return idx, d2[np.arange(rows.shape[0]), idx]

    @staticmethod
    def grid(gen, shape):
        return gen.integers(-32, 33, shape) / 4.0

    @pytest.mark.parametrize("n,d,k", [(200, 3, 1), (5, 4, 9), (300, 2, 7), (1, 6, 3), (150, 32, 4)])
    def test_matches_brute_force(self, n, d, k):
        gen = np.random.default_rng(n * 100 + k)
        rows, centers = self.grid(gen, (n, d)), self.grid(gen, (k, d))
        idx, sq = _nearest(rows, centers)
        want_idx, want_sq = self.brute(rows, centers)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_allclose(sq, want_sq, rtol=1e-12, atol=0)

    def test_duplicated_centers_lowest_index_wins(self):
        gen = np.random.default_rng(5)
        rows = self.grid(gen, (400, 2))
        centers = self.grid(gen, (6, 2))
        centers[4] = centers[1]
        centers[5] = centers[1]
        idx, sq = _nearest(rows, centers)
        want_idx, want_sq = self.brute(rows, centers)
        assert np.any(want_idx == 1)
        assert not np.any(np.isin(idx, [4, 5]))
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_allclose(sq, want_sq, rtol=1e-12, atol=0)

    def test_precomputed_norms_give_same_bytes(self, rng):
        rows = rng.standard_normal((500, 7))
        centers = rng.standard_normal((5, 7))
        norms = np.einsum("ij,ij->i", rows, rows)
        idx0, sq0 = _nearest(rows, centers)
        idx1, sq1 = _nearest(rows, centers, norms)
        assert idx0.tobytes() == idx1.tobytes()
        assert sq0.tobytes() == sq1.tobytes()


class TestWeightedFold:
    def test_unit_weights_unchanged(self, rng):
        rows = rng.standard_normal((4, 3))
        np.testing.assert_allclose(weighted_fold(PointSet(rows, np.ones(4))), rows)

    def test_weight_four_doubles_row(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        folded = weighted_fold(PointSet(rows, np.array([4.0, 1.0])))
        np.testing.assert_allclose(folded[0], [2.0, 4.0])
        np.testing.assert_allclose(folded[1], [3.0, 4.0])

    def test_folded_cost_equals_weighted_cost(self, rng):
        rows = rng.standard_normal((9, 5))
        w = rng.uniform(0.1, 4.0, 9)
        shape = rand_subspace(rng, 5, 2)
        folded = weighted_fold(PointSet(rows, w))
        assert dist2(PointSet(folded), shape) == pytest.approx(
            oracle_cost_subspace(rows, w, shape), rel=1e-9
        )

    def test_requires_weights(self, rng):
        with pytest.raises(InvalidInput):
            weighted_fold(PointSet(rng.standard_normal((3, 2))))


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
            gap = np.linalg.norm(a @ x) ** 2 - np.linalg.norm(low_rank_approx(f, m) @ x) ** 2
            bound = j * f.sigma[m] ** 2
            assert gap >= -1e-8
            assert gap <= bound * (1 + 1e-9) + 1e-9
