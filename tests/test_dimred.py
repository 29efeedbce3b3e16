import numpy as np
import pytest

import tinycore.dimred
from tinycore import (
    CenterSet,
    Coreset,
    InvalidArgument,
    PointSet,
    Subspace,
    coreset_cost,
    dist2,
    kmeans_coreset,
    lift_coreset,
    reduce,
    reduction_rank,
)

from conftest import estimate_cost, make_blobs, rand_orthonormal


def shapes_in_subspace(rng, d, j, count):
    """Query shapes contained in a fresh random j-dimensional linear subspace."""
    out = []
    for _ in range(count):
        q = rand_orthonormal(rng, d, j)
        if j >= 2 and rng.random() < 0.5:
            jj = int(rng.integers(1, j))
            inner = rand_orthonormal(rng, j, jj)
            offset = q @ (2 * rng.standard_normal(j))
            out.append(Subspace(basis=q @ inner, offset=offset))
        else:
            k = int(rng.integers(1, 5))
            out.append(CenterSet((2 * rng.standard_normal((k, j))) @ q.T))
    return out


class TestReductionRank:
    def test_general_formula(self):
        assert reduction_rank(80, 20, 2, 1.0, "general") == 15

    def test_coreset_lift_formula(self):
        assert reduction_rank(10_000, 10_000, 2, 0.8, "coreset-lift") == 2 + 100 - 1

    def test_cap_binds(self):
        assert reduction_rank(80, 20, 2, 0.5, "general") == 20

    def test_unknown_mode(self):
        with pytest.raises(InvalidArgument):
            reduction_rank(10, 10, 1, 0.5, "bogus")


class TestReduce:
    def test_low_rank_input_is_lossless(self, rng):
        a = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 12))
        ps = PointSet(a)
        red = reduce(ps, 2, 0.9, "general")
        assert red.delta == pytest.approx(0.0, abs=1e-10)
        ambient = red.ambient_points()
        for shape in shapes_in_subspace(rng, 12, 2, 25):
            assert dist2(PointSet(ambient), shape) == pytest.approx(
                dist2(ps, shape), rel=1e-8, abs=1e-8
            )

    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_general_mode_bound(self, rng, eps):
        a = rng.standard_normal((200, 40))
        ps = PointSet(a)
        j = 1
        red = reduce(ps, j, eps, "general")
        assert red.m == reduction_rank(200, 40, j, eps, "general")
        approx = PointSet(red.ambient_points())
        for shape in shapes_in_subspace(rng, 40, j, 200):
            true = dist2(ps, shape)
            est = dist2(approx, shape) + red.delta
            assert abs(est - true) <= eps * true

    def test_weighted_reduction(self, rng):
        a = rng.standard_normal((50, 10))
        w = rng.uniform(1.0, 3.0, 50)
        red = reduce(PointSet(a, w), 1, 1.0, "general")
        # delta equals the weighted projection cost onto the retained span
        resid = a - red.ambient_points()
        assert red.delta == pytest.approx(float(np.sum(w * np.sum(resid**2, axis=1))), rel=1e-9)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_binding_cap_skips_the_svd(self, rng, monkeypatch, weighted):
        calls = []
        monkeypatch.setattr(tinycore.dimred, "svd", lambda *a: calls.append(a))
        a = rng.standard_normal((50, 6))
        ps = PointSet(a, rng.uniform(1.0, 3.0, 50) if weighted else None)
        red = reduce(ps, 2, 0.5, "general")
        assert red.m == 6
        assert red.delta == 0.0
        assert np.array_equal(red.basis, np.eye(6))
        assert np.array_equal(red.points.rows, a)
        assert calls == []

    def test_reduced_instance_is_a_weighted_point_set(self, rng):
        ps = PointSet(rng.standard_normal((50, 12)), rng.uniform(1.0, 3.0, 50))
        # at the cap the input itself, not a copy of its rows
        assert reduce(ps, 2, 0.5, "general").points is ps
        red = reduce(ps, 1, 1.0, "general")
        assert red.m == 7
        assert np.array_equal(red.points.weights, ps.weights)
        np.testing.assert_array_equal(red.points.rows, np.asarray(ps.rows) @ red.basis)

    def test_eps_validation(self, rng):
        ps = PointSet(rng.standard_normal((5, 3)))
        with pytest.raises(InvalidArgument):
            reduce(ps, 1, 0.0)
        with pytest.raises(InvalidArgument):
            reduce(ps, 1, 1.5)


class TestProjectionResidual:
    def test_residual_bounded_by_eps_complement_energy(self, rng):
        # ||A X X^T - A^(m) X X^T||_F^2 <= eps * ||A Y||_F^2 at m = j + ceil(j/eps) - 1
        from tinycore import svd

        for _ in range(60):
            n, d = int(rng.integers(6, 40)), int(rng.integers(4, 15))
            j = int(rng.integers(1, min(4, d - 1) + 1))
            eps = float(rng.uniform(0.15, 1.0))
            m = j + int(np.ceil(j / eps)) - 1
            if m > min(n, d) - 1:
                continue
            a = rng.standard_normal((n, d))
            vm = svd(PointSet(a)).v[:, :m]
            am = a @ vm @ vm.T
            x = rand_orthonormal(rng, d, j)
            resid = np.linalg.norm((a - am) @ x) ** 2
            complement = np.linalg.norm(a) ** 2 - np.linalg.norm(a @ x) ** 2
            assert resid <= eps * complement + 1e-9


class TestKmeansReductionGuarantee:
    def test_exact_solver_on_reduced_instance_stays_near_optimal(self, rng):
        # solving k-means exactly on A^(m) gives a (1+eps)-approximation on A
        from tinycore import brute_force_kmeans

        eps = 0.3
        for trial in range(25):
            gen = np.random.default_rng(trial + 40)
            n, d, k = int(gen.integers(5, 11)), int(gen.integers(4, 12)), int(gen.integers(1, 4))
            rows = make_blobs(gen, n, d, k, spread=4.0)
            ps = PointSet(rows)
            opt = dist2(ps, brute_force_kmeans(ps, k))
            red = reduce(ps, k, eps, "coreset-lift")
            approx_input = PointSet(red.ambient_points())
            centers = brute_force_kmeans(approx_input, k)
            assert dist2(ps, centers) <= (1 + eps) * opt + 1e-9


class TestLiftCoreset:
    def test_pure_embedding_when_offsets_zero(self, rng):
        a = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 8))
        red = reduce(PointSet(a), 2, 1.0, "coreset-lift")
        assert red.delta == pytest.approx(0.0, abs=1e-10)
        low = Coreset(points=red.points.rows, weights=np.ones(20), delta=0.0)
        lifted = lift_coreset(low, red)
        assert lifted.delta == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(lifted.points, a, atol=1e-9)

    def test_identity_low_coreset_matches_reduce_guarantee(self, rng):
        a = rng.standard_normal((60, 30))
        ps = PointSet(a)
        red = reduce(ps, 1, 1.0, "coreset-lift")
        low = Coreset(points=red.points.rows, weights=np.ones(60), delta=0.0)
        lifted = lift_coreset(low, red)
        assert lifted.delta == pytest.approx(red.delta)
        np.testing.assert_allclose(lifted.points, red.ambient_points(), atol=1e-9)
        for shape in shapes_in_subspace(rng, 30, 1, 50):
            true = dist2(ps, shape)
            est = coreset_cost(lifted, shape)
            assert abs(est - true) <= 1.0 * true

    def test_kmeans_pipeline_sandwich(self, rng):
        rows = make_blobs(rng, 100, 15, 2)
        ps = PointSet(rows)
        red = reduce(ps, 2, 0.8, "coreset-lift")
        inner = kmeans_coreset(red.points, 2, 0.1, 0.1, seed=5)
        lifted = lift_coreset(inner, red)
        for _ in range(200):
            centers = CenterSet(6 * rng.standard_normal((2, 15)))
            true = dist2(ps, centers)
            est = estimate_cost(lifted, centers)
            assert (1 - 0.8) * true <= est <= (1 + 0.8) * true

    def test_nonzero_reduction_offset_lift(self, rng):
        # d large enough that the rank formula binds below d: real delta > 0
        a = rng.standard_normal((300, 50))
        ps = PointSet(a)
        red = reduce(ps, 1, 1.0, "coreset-lift")  # m = 32 < 50
        assert 0 < red.m < 50
        assert red.delta > 0
        low = Coreset(points=red.points.rows, weights=np.ones(300), delta=0.0)
        lifted = lift_coreset(low, red)
        for shape in shapes_in_subspace(rng, 50, 1, 100):
            true = dist2(ps, shape)
            est = coreset_cost(lifted, shape)
            assert abs(est - true) <= 1.0 * true

    def test_dimension_mismatch(self, rng):
        a = rng.standard_normal((10, 6))
        red = reduce(PointSet(a), 1, 1.0, "coreset-lift")
        bad = Coreset(points=np.ones((2, red.m + 1)), weights=np.ones(2), delta=0.0)
        with pytest.raises(InvalidArgument):
            lift_coreset(bad, red)
