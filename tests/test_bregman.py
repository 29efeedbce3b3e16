import numpy as np
import pytest

from tinycore import (
    CenterSet,
    Coreset,
    InvalidArgument,
    InvalidInput,
    PointSet,
    bregman_coreset,
    coreset_cost,
    mahalanobis,
    niceness_thresholds,
    partition_helper,
    squared_euclidean,
)
from tinycore.bregman import Divergence
from tinycore.coreset import merge_coresets


def scaled_divergence(diag, m):
    """A genuine quadratic Bregman divergence declared m-similar to the identity."""
    b1 = np.diag(diag)

    def evaluator(points, q):
        diff = np.atleast_2d(points) - q[None, :]
        return np.sum((diff @ b1.T) ** 2, axis=1)

    return Divergence(matrix=None, similarity=m, evaluator=evaluator, name="scaled")


def exact_blobs(rng, counts=(70, 65, 65)):
    locs = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    return np.repeat(locs, counts, axis=0)


def direct_cost(rows, centers, div):
    return float(np.sum(div.to_centers(rows, centers)))


class TestDivergence:
    @pytest.mark.parametrize(
        "div",
        [
            squared_euclidean(),
            mahalanobis(np.diag([2.0, 0.5, 1.5])),
            mahalanobis(np.array([[1.0, 0.3, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 1.2]])),
        ],
    )
    def test_centroid_identity_1000_draws(self, div, rng):
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            rows = rng.standard_normal((n, 3)) * rng.uniform(0.5, 3.0)
            z = rng.standard_normal(3) * 2
            mu = rows.mean(axis=0)
            lhs = float(np.sum(div.between(rows, z)))
            rhs = float(np.sum(div.between(rows, mu))) + n * float(div.between(mu[None, :], z)[0])
            scale = max(abs(lhs), 1.0)
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst <= 1e-9

    def test_similarity_sandwich_for_scaled_custom(self, rng):
        div = scaled_divergence(np.array([0.8, 0.6]), m=0.36)
        for _ in range(300):
            p, q = rng.standard_normal(2), rng.standard_normal(2)
            d_phi = float(div.between(p[None, :], q)[0])
            d_b = float(div.mahalanobis(p[None, :], q)[0])
            assert 0.36 * d_b - 1e-12 <= d_phi <= d_b + 1e-12

    def test_rejects_singular_matrix(self):
        with pytest.raises(InvalidArgument):
            mahalanobis(np.zeros((2, 2)))


class TestCfCost:
    """A one-point coreset is a clustering feature: centroid, weight, and its
    internal cost as delta."""

    def test_center_at_centroid_returns_internal_cost(self, rng):
        cf = Coreset(points=np.array([[1.0, 2.0]]), weights=np.array([5.0]), delta=3.7)
        centers = CenterSet(np.array([[1.0, 2.0]]))
        assert squared_euclidean().cost(cf, centers) == pytest.approx(3.7)

    def test_singleton_feature(self, rng):
        p = rng.standard_normal(3)
        cf = Coreset(points=p[None, :], weights=np.array([1.0]), delta=0.0)
        c = rng.standard_normal((2, 3))
        want = min(float(np.sum((p - ci) ** 2)) for ci in c)
        assert squared_euclidean().cost(cf, CenterSet(c)) == pytest.approx(want)

    def test_feature_of_explicit_set_matches_direct_sum(self, rng):
        div = squared_euclidean()
        rows = rng.standard_normal((10, 4))
        mu = rows.mean(axis=0)
        cf = Coreset(
            points=mu[None, :],
            weights=np.array([10.0]),
            delta=float(np.sum(div.between(rows, mu))),
        )
        center = CenterSet(rng.standard_normal((1, 4)))
        direct = float(np.sum(div.between(rows, np.asarray(center.centers)[0])))
        assert div.cost(cf, center) == pytest.approx(direct, rel=1e-9)

    def test_same_cost_as_coreset_cost_under_squared_euclidean(self, rng):
        cs = Coreset(points=rng.standard_normal((30, 3)), weights=rng.uniform(0.5, 2.0, 30), delta=1.25)
        for _ in range(20):
            centers = CenterSet(rng.standard_normal((3, 3)))
            assert squared_euclidean().cost(cs, centers) == coreset_cost(cs, centers)

    def test_center_dimension_checked(self, rng):
        cs = Coreset(points=rng.standard_normal((4, 3)), weights=np.ones(4), delta=0.0)
        with pytest.raises(InvalidArgument):
            squared_euclidean().cost(cs, CenterSet(rng.standard_normal((2, 2))))


class TestNicenessThresholds:
    def test_f1_at_eps_one(self):
        f1, _ = niceness_thresholds(1.0, 1.0)
        assert f1 == pytest.approx(1.0 / 25.0)

    def test_depth_bound_value(self):
        # independent recomputation: ceil(log(81) / log(82/81)) = 359
        _, nu = niceness_thresholds(1.0, 1.0)
        assert nu == 359

    def test_monotone_in_eps_and_m(self):
        f_a, _ = niceness_thresholds(0.3, 1.0)
        f_b, _ = niceness_thresholds(0.6, 1.0)
        f_c, _ = niceness_thresholds(0.6, 0.5)
        assert f_b > f_a
        assert f_b > f_c

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            niceness_thresholds(0.0, 1.0)
        with pytest.raises(InvalidArgument):
            niceness_thresholds(0.5, 1.5)


class TestPartitionHelper:
    def test_tight_blob_single_leaf(self):
        rows = np.tile([[4.0, 4.0]], (20, 1))
        leaves = partition_helper(PointSet(rows), 3, 5, 0.01, squared_euclidean())
        assert len(leaves) == 1
        assert leaves[0].shape[0] == 20

    def test_separated_exact_blobs_become_leaves(self, rng):
        rows = exact_blobs(rng)
        div = squared_euclidean()
        leaves = partition_helper(PointSet(rows), 3, 6, 0.01, div)
        assert len(leaves) == 3
        for leaf in leaves:
            sub = rows[leaf]
            mu = sub.mean(axis=0)
            opt1 = float(np.sum(div.between(sub, mu)))
            assert opt1 == pytest.approx(0.0, abs=1e-18)  # stop condition holds trivially

    def test_leaves_partition_the_input(self, rng):
        rows = rng.standard_normal((40, 2))
        leaves = partition_helper(PointSet(rows), 2, 3, 0.01, squared_euclidean())
        joined = np.sort(np.concatenate(leaves))
        np.testing.assert_array_equal(joined, np.arange(40))
        # depth 3 with binary splits: at most 2^3 leaves
        assert len(leaves) <= 2**3

    def test_split_decays_cost_by_the_threshold_factor(self, rng):
        # whenever the recursion splits, the children's summed 1-clustering
        # cost drops below the parent's by at least the (1+f1) factor
        rows = exact_blobs(rng) + 0.05 * rng.standard_normal((200, 2))
        div = squared_euclidean()
        f1 = 0.01
        leaves = partition_helper(PointSet(rows), 3, 1, f1, div)
        assert len(leaves) == 3  # one split at depth bound 1
        parent_cost = float(np.sum(div.between(rows, rows.mean(axis=0))))
        child_cost = sum(
            float(np.sum(div.between(rows[leaf], rows[leaf].mean(axis=0)))) for leaf in leaves
        )
        assert parent_cost > (1 + f1) * child_cost


class TestBregmanCoreset:
    def test_tiny_input_one_feature_per_point(self, rng):
        rows = rng.standard_normal((3, 2))
        cs = bregman_coreset(PointSet(rows), 5, 0.5, squared_euclidean())
        assert cs.size == 3
        for point, row in zip(cs.points, rows):
            np.testing.assert_allclose(point, row)
        assert cs.delta == 0.0

    @pytest.mark.parametrize(
        "div",
        [squared_euclidean(), mahalanobis(np.diag([2.0, 0.5]))],
    )
    def test_three_blob_guarantee(self, div, rng):
        rows = exact_blobs(rng)
        ps = PointSet(rows)
        cs = bregman_coreset(ps, 3, 0.5, div)
        assert cs.size <= 3
        _, nu = niceness_thresholds(0.5, div.similarity)
        assert cs.size <= 2 * 3**nu
        for _ in range(200):
            centers = CenterSet(10 * rng.standard_normal((3, 2)))
            true = direct_cost(rows, centers, div)
            est = div.cost(cs, centers)
            assert abs(est - true) <= 0.5 * true + 1e-9

    def test_noisy_blobs_still_accurate(self, rng):
        rows = exact_blobs(rng) + 0.3 * rng.standard_normal((200, 2))
        div = squared_euclidean()
        cs = bregman_coreset(PointSet(rows), 3, 0.5, div)
        assert cs.size <= 200
        for _ in range(100):
            centers = CenterSet(10 * rng.standard_normal((3, 2)))
            true = direct_cost(rows, centers, div)
            est = div.cost(cs, centers)
            assert abs(est - true) <= 0.5 * true + 1e-9

    def test_custom_similar_divergence(self, rng):
        div = scaled_divergence(np.array([0.9, 0.7]), m=0.49)
        rows = exact_blobs(rng)
        cs = bregman_coreset(PointSet(rows), 3, 0.5, div, seed=1)
        for _ in range(100):
            centers = CenterSet(10 * rng.standard_normal((3, 2)))
            true = direct_cost(rows, centers, div)
            est = div.cost(cs, centers)
            assert abs(est - true) <= 0.5 * true + 1e-9

    def test_weighted_input(self, rng):
        rows = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        w = np.array([70.0, 65.0, 65.0])
        div = squared_euclidean()
        cs = bregman_coreset(PointSet(rows, w), 3, 0.5, div)
        expanded = exact_blobs(rng)
        for _ in range(50):
            centers = CenterSet(10 * rng.standard_normal((3, 2)))
            true = direct_cost(expanded, centers, div)
            est = div.cost(cs, centers)
            assert est == pytest.approx(true, rel=1e-9)

    @pytest.mark.parametrize("n", [5, 40])
    def test_zero_weight_row_changes_nothing(self, n, rng):
        rows = rng.standard_normal((n, 2)) + np.repeat([[0.0, 0.0], [6.0, 0.0]], [n // 2, n - n // 2], axis=0)
        w = rng.uniform(0.5, 2.0, n)
        w[n // 3] = 0.0
        div = mahalanobis(np.diag([2.0, 0.5]))
        with_row = bregman_coreset(PointSet(rows, w), 3, 0.5, div)
        without = bregman_coreset(PointSet(np.delete(rows, n // 3, axis=0), np.delete(w, n // 3)), 3, 0.5, div)
        for _ in range(50):
            centers = CenterSet(5 * rng.standard_normal((3, 2)))
            assert div.cost(with_row, centers) == div.cost(without, centers)

    def test_zero_total_weight_is_invalid_input(self, rng):
        ps = PointSet(rng.standard_normal((5, 2)), np.zeros(5))
        with pytest.raises(InvalidInput, match="total weight must be positive"):
            bregman_coreset(ps, 3, 0.5, squared_euclidean())

    @pytest.mark.parametrize("n", [6, 40])
    def test_squares_overflowing_is_invalid_input(self, n, rng):
        rows = rng.standard_normal((n, 2))
        rows[0, 0] = 1e160
        for div in (squared_euclidean(), mahalanobis(np.diag([2.0, 0.5]))):
            with pytest.raises(InvalidInput, match="overflow"):
                bregman_coreset(PointSet(rows), 3, 0.5, div)

    def test_matrix_size_must_match_the_rows(self, rng):
        ps = PointSet(rng.standard_normal((20, 3)))
        with pytest.raises(InvalidArgument):
            bregman_coreset(ps, 3, 0.5, mahalanobis(np.eye(2)))

    def test_halves_merge_into_a_coreset_of_the_whole(self, rng):
        rows = exact_blobs(rng)
        div = mahalanobis(np.diag([2.0, 0.5]))
        a = bregman_coreset(PointSet(rows[:100]), 3, 0.5, div)
        b = bregman_coreset(PointSet(rows[100:]), 3, 0.5, div)
        merged = Coreset(*merge_coresets([a, b]))
        for _ in range(200):
            centers = CenterSet(10 * rng.standard_normal((3, 2)))
            true = direct_cost(rows, centers, div)
            assert div.cost(merged, centers) == pytest.approx(true, rel=1e-9)

    @pytest.mark.parametrize("shift", [1e4, 1e6, 1e8])
    def test_shifted_mahalanobis_matches_the_difference_formula(self, shift, rng):
        div = mahalanobis(np.array([[1.0, 0.3, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 1.2]]))
        rows = rng.standard_normal((500, 3)) + shift
        centers = rng.standard_normal((4, 3)) + shift
        # per center, ||B(x - c)||^2 from the differences of the shifted coordinates
        want = float(np.sum(np.min([div.mahalanobis(rows, c) for c in centers], axis=0)))
        got = float(np.sum(div.to_centers(rows, CenterSet(centers))))
        assert got == pytest.approx(want, rel=1e-7)

    def test_validation(self, rng):
        ps = PointSet(rng.standard_normal((5, 2)))
        with pytest.raises(InvalidArgument):
            bregman_coreset(ps, 3, 1.5, squared_euclidean())
        with pytest.raises(InvalidArgument):
            bregman_coreset(ps, 0, 0.5, squared_euclidean())
