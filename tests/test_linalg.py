import dataclasses

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
    Subspace,
    coreset_cost,
    dist2,
    linear_subspace_coreset,
    svd,
    tail_energy,
    weighted_fold,
)
from tinycore.linalg import TOL_ORTH, _frame, _nearest, dist2_rows

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


class TestFrame:
    """Center queries run in the rows' cached frame, through the one score kernel."""

    def test_kernel_and_query_give_the_same_bytes(self, rng):
        rows = 1e3 + rng.standard_normal((700, 6))
        centers = 1e3 + rng.standard_normal((7, 6))
        centers[3] = centers[1]  # tied centers
        centers[6] = centers[0]
        frame = _frame(rows)
        _, sq = _nearest(frame.rows, centers - frame.origin, frame.norms)
        assert sq.tobytes() == dist2_rows(rows, CenterSet(centers)).tobytes()

    def test_raw_rows_and_cached_frame_give_the_same_bytes(self, rng):
        ps = PointSet(rng.standard_normal((300, 4)) - 50.0, rng.random(300))
        centers = CenterSet(rng.standard_normal((3, 4)))
        affine = Subspace(basis=rand_orthonormal(rng, 4, 2), offset=rng.standard_normal(4) - 50.0)
        # a weighted coreset is measured by the same kernel, plus its offset
        core = Coreset(ps.rows, ps.weights, 2.5)
        for shape in (centers, affine):
            raw = dist2_rows(np.asarray(ps.rows), shape)
            assert raw.tobytes() == dist2_rows(np.asarray(ps.rows), shape, ps.frame).tobytes()
            assert dist2(ps, shape) == float(np.sum(ps.effective_weights() * raw))
            assert coreset_cost(core, shape) == dist2(core.as_point_set(), shape) + core.delta
            assert coreset_cost(core, shape) == float(np.sum(ps.effective_weights() * raw) + 2.5)

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
            gap = np.linalg.norm(a @ x) ** 2 - np.linalg.norm(rank_m(a, f, m) @ x) ** 2
            bound = j * f.sigma[m] ** 2
            assert gap >= -1e-8
            assert gap <= bound * (1 + 1e-9) + 1e-9
