import numpy as np
import pytest

from tinycore import (
    AffineClusteringProblem,
    InvalidArgument,
    InvalidInput,
    KMeansProblem,
    PointSet,
    ResourceLimit,
    approx_solution,
    best_affine_subspace,
    brute_force_kmeans,
    coreset_cost,
    dist2,
    exact_tiny_solver,
    kmeans_coreset,
    lloyd_solve,
    small_kmeans_coreset,
)

from conftest import center_grid, make_blobs


class TestLloyd:
    def test_k1_returns_weighted_centroid(self, rng):
        rows = rng.standard_normal((12, 4))
        w = rng.uniform(0.5, 3.0, 12)
        centers = lloyd_solve(PointSet(rows, w), 1, seed=0)
        np.testing.assert_allclose(
            np.asarray(centers.centers)[0], (w[:, None] * rows).sum(0) / w.sum(), atol=1e-12
        )

    def test_identical_points(self):
        rows = np.tile([[1.0, 2.0]], (7, 1))
        centers = lloyd_solve(PointSet(rows), 1, seed=0)
        assert dist2(PointSet(rows), centers) == pytest.approx(0.0, abs=1e-12)

    def test_near_optimal_on_separated_clusters(self):
        hits = 0
        for seed in range(100):
            gen = np.random.default_rng(seed + 7)
            base = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]])
            rows = np.repeat(base, 3, axis=0) + 0.4 * gen.standard_normal((9, 2))
            opt = dist2(PointSet(rows), brute_force_kmeans(PointSet(rows), 3))
            got = dist2(PointSet(rows), lloyd_solve(PointSet(rows), 3, seed=seed))
            if got <= 1.05 * opt + 1e-12:
                hits += 1
        assert hits >= 90

    def test_cost_monotone_per_iteration(self, rng):
        from tinycore.sensitivity import _mean_update, _nearest, d2_seed

        rows = make_blobs(rng, 80, 3, 4)
        w = np.ones(80)
        centers = d2_seed(rows, w, 4, np.random.default_rng(0))[0]
        prev = np.inf
        for _ in range(25):
            idx, sq = _nearest(rows, centers)
            cost = float(np.sum(w * sq))
            assert cost <= prev * (1 + 1e-12) + 1e-12
            prev = cost
            centers = _mean_update(rows, w, idx, centers)

    def test_centroid_optimality_for_fixed_partition(self, rng):
        rows = rng.standard_normal((30, 3))
        w = rng.uniform(0.5, 2.0, 30)
        idx = rng.integers(0, 3, 30)
        centroids = np.vstack(
            [(w[idx == p, None] * rows[idx == p]).sum(0) / w[idx == p].sum() for p in range(3)]
        )
        base = float(sum(w[i] * np.sum((rows[i] - centroids[idx[i]]) ** 2) for i in range(30)))
        for _ in range(20):
            perturbed = centroids + 0.3 * rng.standard_normal(centroids.shape)
            alt = float(sum(w[i] * np.sum((rows[i] - perturbed[idx[i]]) ** 2) for i in range(30)))
            assert alt >= base - 1e-9


class TestBruteForce:
    def test_two_points_k1_midpoint(self):
        rows = np.array([[0.0, 0.0], [2.0, 0.0]])
        centers = brute_force_kmeans(PointSet(rows), 1)
        np.testing.assert_allclose(np.asarray(centers.centers), [[1.0, 0.0]])

    def test_collinear_three_points(self):
        # points 0, 1, 10 with k=2: best split is {0,1} | {10}, cost 0.5
        rows = np.array([[0.0], [1.0], [10.0]])
        centers = brute_force_kmeans(PointSet(rows), 2)
        assert dist2(PointSet(rows), centers) == pytest.approx(0.5)

    def test_k_equals_n(self, rng):
        rows = rng.standard_normal((5, 2))
        centers = brute_force_kmeans(PointSet(rows), 5)
        assert dist2(PointSet(rows), centers) == pytest.approx(0.0, abs=1e-12)

    def test_matches_exhaustive_assignment_search(self, rng):
        # independent oracle: try every labelled assignment (k^n), not partitions
        rows = rng.standard_normal((6, 2))
        w = rng.uniform(0.5, 2.0, 6)
        best = np.inf
        for code in range(2**6):
            labels = [(code >> i) & 1 for i in range(6)]
            cost = 0.0
            for part in range(2):
                mask = np.array(labels) == part
                if not mask.any():
                    continue
                mu = (w[mask, None] * rows[mask]).sum(0) / w[mask].sum()
                cost += float(np.sum(w[mask] * np.sum((rows[mask] - mu) ** 2, axis=1)))
            best = min(best, cost)
        centers = brute_force_kmeans(PointSet(rows, w), 2)
        assert dist2(PointSet(rows, w), centers) == pytest.approx(best, rel=1e-9)

    def test_resource_guard(self, rng):
        with pytest.raises(ResourceLimit):
            brute_force_kmeans(PointSet(rng.standard_normal((15, 2))), 2)


class TestKmeansCoreset:
    def test_small_input_returned_exactly(self, rng):
        rows = rng.standard_normal((20, 4))
        core = kmeans_coreset(PointSet(rows), 2, 0.5, 0.1, seed=0)
        assert core.size == 20
        assert core.delta == 0.0
        np.testing.assert_allclose(core.points, rows)
        np.testing.assert_allclose(core.weights, np.ones(20))

    def test_sandwich_on_grid_with_sampling(self, rng):
        rows = make_blobs(rng, 400, 10, 4)
        ps = PointSet(rows)
        grids = center_grid(rng, rows, 4, 60)
        true = {id(g): dist2(ps, g) for g in grids}
        ok = 0
        for seed in range(30):
            core = kmeans_coreset(ps, 4, 0.5, 0.1, seed=seed, c_vc=1e-3)
            assert core.size < 400  # sampling actually happened
            good = all(
                0.5 * true[id(g)] <= coreset_cost(core, g) <= 1.5 * true[id(g)] for g in grids
            )
            ok += good
        assert ok >= 27

    def test_weight_floor(self, rng):
        rows = make_blobs(rng, 300, 6, 3)
        w = rng.uniform(1.0, 4.0, 300)
        ps = PointSet(rows, w)
        for seed in range(20):
            core = kmeans_coreset(ps, 3, 0.5, 0.1, seed=seed, c_vc=1e-3)
            for p, wt in zip(np.asarray(core.points), np.asarray(core.weights)):
                src = np.where(np.all(np.isclose(rows, p), axis=1))[0]
                assert wt >= w[src].min() - 1e-12

    def test_delta_always_zero(self, rng):
        rows = make_blobs(rng, 200, 5, 2)
        core = kmeans_coreset(PointSet(rows), 2, 0.5, 0.1, seed=1, c_vc=1e-3)
        assert core.delta == 0.0

    @pytest.mark.parametrize("sample_size", [None, 50])
    def test_leaves_the_input_frame_as_it_found_it(self, rng, sample_size):
        # a frame built for the construction is dropped before sampling; one cached before is kept
        ps = PointSet(make_blobs(rng, 300, 4, 3))
        first = kmeans_coreset(ps, 3, 0.5, 0.1, seed=2, sample_size=sample_size, c_vc=1e-3)
        assert "frame" not in vars(ps)
        frame = ps.frame
        again = kmeans_coreset(ps, 3, 0.5, 0.1, seed=2, sample_size=sample_size, c_vc=1e-3)
        assert ps.frame is frame
        assert np.asarray(again.points).tobytes() == np.asarray(first.points).tobytes()
        assert np.asarray(again.weights).tobytes() == np.asarray(first.weights).tobytes()

    @pytest.mark.parametrize("sample_size", [None, 10, 30])
    def test_k_below_one_rejected_on_every_path(self, sample_size):
        # sample_size=30 returns the input without seeding anything
        for k in (0, -1):
            with pytest.raises(InvalidArgument):
                kmeans_coreset(PointSet(np.ones((30, 3))), k, 0.5, 0.1, 0, sample_size=sample_size)

    @pytest.mark.parametrize("sample_size", [10, 30])
    def test_k_above_n_allowed(self, rng, sample_size):
        # stream reduces pass their configured k, which small merged inputs can fall below
        rows = rng.standard_normal((30, 3))
        core = kmeans_coreset(PointSet(rows), 40, 0.5, 0.1, 0, sample_size=sample_size)
        assert core.size == min(sample_size, 30)


class TestSmallKmeansCoreset:
    def test_cap_binding_degenerates_to_plain_coreset(self, rng):
        rows = make_blobs(rng, 80, 6, 2)
        core = small_kmeans_coreset(PointSet(rows), 2, 0.8, 0.1, seed=0)
        # formula rank exceeds d, so the reduction keeps the whole spectrum
        assert core.delta == pytest.approx(0.0, abs=1e-9)

    def test_size_independent_of_dimension(self, rng):
        for d in (40, 80):
            sizes = []
            for seed in range(5):
                gen = np.random.default_rng(1234)
                rows = make_blobs(gen, 150, d, 2)
                core = small_kmeans_coreset(PointSet(rows), 2, 0.8, 0.1, seed=seed)
                sizes.append(core.size)
            if d == 40:
                first = sizes
        assert first == sizes

    def test_positive_offset_with_sandwich(self, rng):
        rows = make_blobs(rng, 300, 50, 2, spread=4.0)
        ps = PointSet(rows)
        core = small_kmeans_coreset(ps, 1, 0.9, 0.1, seed=3)
        assert core.delta > 0  # rank formula binds below d
        grids = center_grid(rng, rows, 1, 40)
        for g in grids:
            true = dist2(ps, g)
            est = coreset_cost(core, g)
            assert (1 - 0.9) * true <= est <= (1 + 0.9) * true


class TestApproxSolution:
    def test_single_point_k1(self):
        rows = np.array([[3.0, -2.0, 1.0]])
        shape = approx_solution(PointSet(rows), KMeansProblem(1), 0.5, exact_tiny_solver)
        assert dist2(PointSet(rows), shape) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(np.asarray(shape.centers)[0], rows[0], atol=1e-9)

    def test_k_equals_n_zero_cost(self, rng):
        rows = rng.standard_normal((5, 8))
        shape = approx_solution(PointSet(rows), KMeansProblem(5), 0.5, exact_tiny_solver)
        assert dist2(PointSet(rows), shape) == pytest.approx(0.0, abs=1e-9)

    def test_recovers_separated_clusters(self, rng):
        base = 8.0 * np.eye(3, 10)
        rows = np.repeat(base, 4, axis=0) + 0.2 * rng.standard_normal((12, 10))
        ps = PointSet(rows)
        opt = dist2(ps, brute_force_kmeans(ps, 3))
        shape = approx_solution(ps, KMeansProblem(3), 0.5, exact_tiny_solver)
        assert dist2(ps, shape) <= 1.01 * opt

    def test_affine_problem(self, rng):
        rows = rng.standard_normal((10, 5)) + 3.0
        ps = PointSet(rows)
        shape = approx_solution(ps, AffineClusteringProblem(j=1), 0.5, exact_tiny_solver)
        opt = dist2(ps, best_affine_subspace(ps, 1))
        assert dist2(ps, shape) <= (1 + 0.5) / (1 - 0.5) * opt + 1e-9


class TestBestAffineSubspace:
    def test_unit_weights_match_unweighted(self, rng):
        rows = rng.standard_normal((50, 6)) + 1e3
        fw = best_affine_subspace(PointSet(rows, np.ones(50)), 2)
        fu = best_affine_subspace(PointSet(rows), 2)
        assert np.array_equal(fw.offset, fu.offset) and np.array_equal(fw.basis, fu.basis)

    def test_offset_is_weighted_mean(self, rng):
        rows = rng.standard_normal((30, 4))
        w = rng.uniform(0.5, 3.0, 30)
        fit = best_affine_subspace(PointSet(rows, w), 1)
        np.testing.assert_allclose(fit.offset, w @ rows / w.sum(), rtol=1e-12, atol=1e-12)

    def test_zero_total_weight_is_invalid_input(self, rng):
        ps = PointSet(rng.standard_normal((4, 3)), np.zeros(4))
        with pytest.raises(InvalidInput, match="total weight must be positive"):
            best_affine_subspace(ps, 1)
