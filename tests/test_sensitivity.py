import math

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
    SensitivityProfile,
    bicriteria_kmeans,
    brute_force_kmeans,
    coreset_cost,
    dist2,
    kmeans_coreset,
    kmeans_sensitivities,
    lloyd_solve,
    sensitivity_sample,
    vc_sample_size,
)
from tinycore import sensitivity
from tinycore.linalg import _frame
from tinycore.sensitivity import DEFAULT_C_S, _BlockedDraw, _d2_pass, _inverse_cdf_draw, renormalize_bounds

from conftest import make_blobs


def grid_sensitivity(rows, w, grid):
    """Brute-force lower estimate of sensitivities: max over grid center sets."""
    best = np.zeros(rows.shape[0])
    for centers in grid:
        d2 = np.min(((rows[:, None, :] - centers[None, :, :]) ** 2).sum(-1), axis=1)
        total = float(np.sum(w * d2))
        if total > 0:
            best = np.maximum(best, w * d2 / total)
    return best


def single_center_grid():
    near = [np.array([[x, y]]) for x in np.linspace(-3, 3, 25) for y in np.linspace(-3, 3, 25)]
    far = [np.array([[50 * np.cos(t), 50 * np.sin(t)]]) for t in np.linspace(0, 2 * np.pi, 32)]
    return near + far


class TestBicriteria:
    def test_k_equals_n_zero_cost(self, rng):
        rows = rng.standard_normal((6, 3))
        bic = bicriteria_kmeans(PointSet(rows), 6, 0.1, seed=0)
        assert bic.total_cost == pytest.approx(0.0, abs=1e-10)

    def test_single_repeated_point(self):
        rows = np.tile([[2.0, -1.0]], (5, 1))
        bic = bicriteria_kmeans(PointSet(rows), 1, 0.1, seed=3)
        assert bic.total_cost == pytest.approx(0.0, abs=1e-10)

    def test_constant_factor_on_separated_clusters(self):
        hits = 0
        for seed in range(100):
            gen = np.random.default_rng(seed + 1000)
            centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
            rows = np.repeat(centers, 3, axis=0) + 0.5 * gen.standard_normal((9, 2))
            opt = dist2(PointSet(rows), brute_force_kmeans(PointSet(rows), 3))
            bic = bicriteria_kmeans(PointSet(rows), 3, 0.1, seed=seed)
            if bic.total_cost <= 4.0 * opt + 1e-12:
                hits += 1
        assert hits >= 95

    def test_assignment_is_nearest(self, rng):
        rows = rng.standard_normal((30, 4))
        bic = bicriteria_kmeans(PointSet(rows), 3, 0.1, seed=1)
        d2 = ((rows[:, None, :] - np.asarray(bic.centers)[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(np.asarray(bic.assignment), np.argmin(d2, axis=1))
        assert bic.total_cost == pytest.approx(float(d2.min(axis=1).sum()), rel=1e-12)

    def test_rejects_k_above_n(self, rng):
        with pytest.raises(InvalidArgument):
            bicriteria_kmeans(PointSet(rng.standard_normal((3, 2))), 4, 0.1, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_takes_the_seeds_of_the_restart_with_the_least_seeding_cost(self, seed):
        gen = np.random.default_rng(seed + 50)
        ps = PointSet(make_blobs(gen, 300, 3, 4), gen.uniform(0.5, 2.0, 300))
        rows, w = np.asarray(ps.rows), np.asarray(ps.weights)
        delta, k = 0.01, 3  # 7 restarts of 6 seeds
        frame = ps.frame
        chosen = _d2_pass(frame, w, 2 * k, np.random.default_rng(seed), 7)[0]
        seeds = frame.rows[chosen] + frame.origin
        d2 = ((rows[None, :, None, :] - seeds[:, None, :, :]) ** 2).sum(-1)  # restart x row x seed
        seeding_costs = (w * d2.min(axis=2)).sum(axis=1)
        centers = seeds[np.argmin(seeding_costs)]
        bic = bicriteria_kmeans(ps, k, delta, seed)
        np.testing.assert_allclose(np.asarray(bic.centers), centers, rtol=1e-10, atol=1e-10)
        d2 = ((rows[:, None, :] - np.asarray(bic.centers)[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(np.asarray(bic.assignment), d2.argmin(axis=1))
        assert bic.total_cost == pytest.approx(seeding_costs.min(), rel=1e-12)

    @pytest.mark.parametrize("delta", [0.5, 0.1, 1e-3])  # 1, 4 and 10 restarts
    def test_one_assignment_pass_whatever_the_restart_count(self, rng, monkeypatch, delta):
        calls = []
        nearest = sensitivity._nearest

        def counting(*args):
            calls.append(1)
            return nearest(*args)

        monkeypatch.setattr(sensitivity, "_nearest", counting)
        ps = PointSet(make_blobs(rng, 200, 3, 3))
        bicriteria_kmeans(ps, 3, delta, seed=1)
        assert len(calls) == 1
        # a whole sampled build: the sensitivities reuse the bicriteria distances
        calls.clear()
        core = kmeans_coreset(ps, 3, 0.5, delta, seed=1, sample_size=50)
        assert core.size < ps.n
        assert len(calls) == 1

    @pytest.mark.parametrize("rows, w", [
        (np.tile([[1.0, 1.0]], (8, 1)), None),
        # a row of weight 0 away from the others
        (np.array([[100.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
         np.array([0.0, 1.0, 1.0, 1.0, 1.0])),
        # duplicates far from the origin, whose distances round to 2e-16 rather than 0
        (1e6 + np.repeat([[-1.0, 3.0, 3.0], [-1.0, -3.0, 1.0], [1.0, 2.0, 1.0]], 3, axis=0), None),
    ])
    def test_fewer_distinct_rows_than_centers(self, monkeypatch, rows, w):
        # D² seeding runs out of positive scores and repeats its first draw; the
        # repeated centers stay empty, as no Lloyd step reseeds them
        calls = []
        nearest = sensitivity._nearest

        def counting(*args):
            calls.append(1)
            return nearest(*args)

        monkeypatch.setattr(sensitivity, "_nearest", counting)
        ps = PointSet(rows, w)
        bic = bicriteria_kmeans(ps, 3, 0.1, seed=0)
        assert len(calls) == 1
        assert np.all(bic.cluster_sizes[bic.assignment] > 0)
        core = kmeans_coreset(ps, 3, 0.5, 0.1, seed=0, sample_size=3)
        assert core.size == 3 and np.all(core.weights > 0)

    def test_carried_distances_match_a_fresh_pass(self, rng):
        # the fresh pass moves the centers back by the frame origin, which rounds
        # them by about |origin| * 1e-16: keep the origin small for a 1e-12 match
        ps = PointSet(make_blobs(rng, 300, 4, 3), rng.uniform(0.5, 2.0, 300))
        bic = bicriteria_kmeans(ps, 3, 0.1, seed=2)
        frame = ps.frame
        idx, sq = sensitivity._nearest(frame, bic.centers - frame.origin)
        np.testing.assert_array_equal(bic.assignment, idx)
        np.testing.assert_allclose(bic.sq_distances, sq, rtol=1e-12, atol=0)
        assert not bic.sq_distances.flags.writeable
        with pytest.raises(InvalidInput, match="squared distances"):
            sensitivity.BicriteriaSolution(
                centers=bic.centers, assignment=bic.assignment, sq_distances=bic.sq_distances[1:],
                cluster_costs=bic.cluster_costs, cluster_sizes=bic.cluster_sizes,
            )

    def test_assignment_is_shared_only_when_read_only(self):
        def solution(assignment):
            return sensitivity.BicriteriaSolution(
                centers=np.zeros((1, 2)), assignment=assignment, sq_distances=np.zeros(3),
                cluster_costs=np.zeros(1), cluster_sizes=np.full(1, 3.0),
            )

        mine = np.zeros(3, dtype=np.int64)
        held = solution(mine).assignment
        assert mine.flags.writeable
        assert held is not mine and not held.flags.writeable
        owner = np.zeros(3, dtype=np.int64)
        owner.setflags(write=False)
        assert solution(owner).assignment is owner

    def test_seeding_cost_not_finite_is_invalid_input(self, rng):
        rows = rng.standard_normal((50, 3))
        rows[1, 1] = 1e160  # finite, but its square overflows float64
        with pytest.raises(InvalidInput, match="overflow"):
            bicriteria_kmeans(PointSet(rows), 2, 0.1, seed=0)
        # the same seeding starts every Lloyd solve
        with pytest.raises(InvalidInput, match="overflow"):
            lloyd_solve(PointSet(rows), 2, seed=0)


class TestSharedArrays:
    """A build keeps the n-length arrays it makes; a caller's writable arrays are copied."""

    def test_build_copies_no_n_length_array(self, rng, monkeypatch):
        import tinycore

        n = 20000
        ps = PointSet(make_blobs(rng, n, 10, 5))
        copied = []
        for module in (tinycore.linalg, sensitivity):
            readonly = module._as_readonly

            def spying(a, dtype=np.float64, readonly=readonly):
                out = readonly(a, dtype)
                if out is not a and np.shape(a)[:1] == (n,):
                    copied.append(np.shape(a))
                return out

            monkeypatch.setattr(module, "_as_readonly", spying)
        core = kmeans_coreset(ps, 5, 0.5, 0.1, seed=0, sample_size=2000)
        assert core.size < n
        assert copied == []

    def test_writable_arrays_of_the_caller_are_copied(self):
        assignment, sq, sigma = np.zeros(3, dtype=np.int64), np.zeros(3), np.full(3, 0.5)
        bic = sensitivity.BicriteriaSolution(
            centers=np.zeros((1, 2)), assignment=assignment, sq_distances=sq,
            cluster_costs=np.zeros(1), cluster_sizes=np.full(1, 3.0),
        )
        profile = SensitivityProfile(sigma=sigma, total=1.5)
        for mine, held in ((assignment, bic.assignment), (sq, bic.sq_distances), (sigma, profile.sigma)):
            assert mine.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(mine, held)


class TestD2Seed:
    @staticmethod
    def drawn(rows, w, count, rng, restarts=1):
        """The D² draws on the rows' own frame, as restarts x count row
        indices, each checked to be a row of the input."""
        idx = _d2_pass(_frame(rows), w, count, rng, restarts)[0]
        assert idx.shape == (restarts, count)
        assert np.all((idx >= 0) & (idx < rows.shape[0]))
        return idx

    def test_draws_follow_weights_then_weighted_d2(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        draws = np.array([
            self.drawn(rows, w, 2, np.random.default_rng(seed))[0]
            for seed in range(4000)
        ])
        first = w / w.sum()
        d2 = ((rows[:, None, :] - rows[None, :, :]) ** 2).sum(-1)
        scores = w[None, :] * d2  # row i: scores of every row after drawing i
        second = first @ (scores / scores.sum(axis=1, keepdims=True))
        np.testing.assert_allclose(np.bincount(draws[:, 0], minlength=4) / 4000, first, atol=0.02)
        np.testing.assert_allclose(np.bincount(draws[:, 1], minlength=4) / 4000, second, atol=0.02)
        assert np.all(draws[:, 0] != draws[:, 1])

    class FixedVariate:
        """Stands in for a Generator: every uniform variate is `u`."""

        def __init__(self, u):
            self.u = u

        def random(self, size):
            return np.full(size, self.u)

    def test_zero_weight_rows_never_drawn(self):
        # the zero-weight rows sit at both ends of the cumulative sum and far
        # away; the fixed variates hit those ends exactly
        gen = np.random.default_rng(3)
        rows = np.vstack([[[100.0, 100.0]], gen.standard_normal((8, 2)), [[-100.0, 50.0]]])
        w = np.concatenate([[0.0], gen.uniform(0.5, 2.0, 8), [0.0]])
        rngs = [np.random.default_rng(seed) for seed in range(200)]
        rngs += [self.FixedVariate(0.0), self.FixedVariate(np.nextafter(1.0, 0.0))]
        for rng in rngs:
            idx = self.drawn(rows, w, 5, rng, restarts=3)
            assert np.all((idx > 0) & (idx < 9))

    @pytest.mark.parametrize("outlier_weight", [1.0, 0.0])
    def test_coinciding_rows_repeat_first_draw(self, outlier_weight):
        # weighted D^2 is 0 after the first draw: every restart repeats it.
        # With outlier weight 0 the two end rows lie elsewhere but count for nothing.
        rows = np.tile([[2.0, -1.0]], (6, 1))
        w = np.array([outlier_weight, 1.0, 2.0, 1.0, 3.0, outlier_weight])
        if outlier_weight == 0:
            rows[[0, -1]] = [[50.0, 50.0], [-50.0, 9.0]]
        picks = rows[self.drawn(rows, w, 4, np.random.default_rng(0), restarts=3)]
        assert picks.shape == (3, 4, 2)
        np.testing.assert_array_equal(picks, np.broadcast_to([2.0, -1.0], (3, 4, 2)))

    @pytest.mark.parametrize("n", [1, 2, 11, 50, 100])
    def test_one_positive_row_at_every_position(self, n):
        # blocks of ceil(sqrt(n)) rows: 11 and 50 are no multiples of 4 and 8,
        # 100 is one of 10; every first and last row of a block is covered
        u = np.array([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)])
        rows = np.arange(float(n))[:, None]
        for pos in range(n):
            scores = np.zeros((4, n))
            scores[:, pos] = 0.75
            np.testing.assert_array_equal(_BlockedDraw(*scores.shape)(scores, u, -1), np.full(4, pos))
            for v in u:  # the first draw of a D² pass, which draws from the weights
                picks = rows[self.drawn(rows, scores[0], 1, self.FixedVariate(v))]
                assert picks[0, 0, 0] == pos

    def test_zero_runs_across_block_edges(self):
        # blocks of 10: the zero runs 4..40 and 42..96 cover whole blocks and
        # end inside others; with integer scores every sum is exact, so the
        # blocked inversion equals the one over the full cumulative sum
        n = 100
        scores = np.zeros(n)
        scores[[3, 41, 97]] = [2.0, 5.0, 1.0]
        u = np.append(np.linspace(0.0, 1.0, 800, endpoint=False), np.nextafter(1.0, 0.0))
        tiled = np.tile(scores, (u.size, 1))
        got = _BlockedDraw(*tiled.shape)(tiled, u, -1)
        want = np.searchsorted(np.cumsum(scores), u * scores.sum(), side="right")
        np.testing.assert_array_equal(got, want)
        assert set(got.tolist()) == {3, 41, 97}

    def test_zero_weight_runs_never_drawn_over_several_blocks(self):
        # 60 rows in blocks of 8; the zero-weight runs lie far away and straddle block edges
        gen = np.random.default_rng(8)
        n = 60
        w = gen.uniform(0.5, 2.0, n)
        zero = np.r_[0:10, 20:36, 55:60]
        w[zero] = 0.0
        rows = gen.standard_normal((n, 2))
        rows[zero] += 1e3
        rngs = [np.random.default_rng(seed) for seed in range(50)]
        rngs += [self.FixedVariate(0.0), self.FixedVariate(np.nextafter(1.0, 0.0))]
        for rng in rngs:
            idx = self.drawn(rows, w, 6, rng, restarts=4)
            assert np.all(w[idx] > 0)

    def test_variate_at_the_top_never_draws_a_zero_score(self):
        one = np.array([np.nextafter(1.0, 0.0)])
        # a subnormal total: u * total rounds to the total itself
        scores = np.zeros(20)
        scores[12] = 3 * 2.0**-1074
        assert one[0] * scores.sum() == scores.sum()
        assert _BlockedDraw(1, 20)(scores[None], one, -1)[0] == 12
        # blocks of 10; the block sum of the last block rounds above its
        # in-block cumulative sum, so the remainder passes the in-block total
        e = 2.0**-53
        scores = np.zeros(100)
        scores[91], scores[92:] = 1.0, e
        assert _BlockedDraw(1, 100)(scores[None], one, -1)[0] == 91

    def test_restart_with_zero_total_gets_its_fallback(self):
        scores = np.zeros((3, 30))
        scores[1, 17] = 1.0
        u = np.array([0.5, 0.5, np.nextafter(1.0, 0.0)])
        np.testing.assert_array_equal(_BlockedDraw(*scores.shape)(scores, u, np.array([4, 5, 6])), [4, 17, 6])
        # 50 coinciding rows in blocks of 8: every later draw repeats the first
        rows = np.tile([[2.0, -1.0]], (50, 1))
        picks = rows[self.drawn(rows, np.ones(50), 3, np.random.default_rng(0), restarts=4)]
        np.testing.assert_array_equal(picks, np.broadcast_to([2.0, -1.0], (4, 3, 2)))

    def test_draws_in_proportion_over_several_blocks(self):
        # 60 rows in blocks of 8 (the last holds 4): chi-square of the counts,
        # once for the first draw of a D² pass and once for a draw on its own
        gen = np.random.default_rng(5)
        n, draws = 60, 20000
        scores = gen.uniform(0.5, 2.0, n)
        scores[np.r_[0, 7:10, 30:36, 59]] = 0.0
        first = self.drawn(np.arange(float(n))[:, None], scores, 1, gen, restarts=draws)[:, 0]
        tiled = np.tile(scores, (draws, 1))
        later = _BlockedDraw(*tiled.shape)(tiled, gen.random(draws), -1)
        p = scores / scores.sum()
        pos = p > 0
        df = int(pos.sum()) - 1
        for got in (first, later):
            counts = np.bincount(got, minlength=n)
            assert counts[~pos].sum() == 0
            chi2 = float(np.sum((counts[pos] - draws * p[pos]) ** 2 / (draws * p[pos])))
            assert chi2 < df + 5 * math.sqrt(2 * df)

    @settings(max_examples=60, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(st.integers(1, 12), st.floats(min_value=5e-324, max_value=1e6)), min_size=1, max_size=12
        ),
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_drawn_index_in_range_with_positive_score(self, runs, u):
        # alternating zero and positive runs, n from 1 to a few blocks
        lengths = [length for length, _ in runs]
        values = [value if i % 2 else 0.0 for i, (_, value) in enumerate(runs)]
        scores = np.repeat(values, lengths)
        n = scores.shape[0]
        variates = np.array([u, 0.0, np.nextafter(1.0, 0.0)])
        got = _BlockedDraw(3, n)(np.tile(scores, (3, 1)), variates, -1)
        if scores.sum() > 0:
            assert np.all((got >= 0) & (got < n))
            assert np.all(scores[got] > 0)
        else:
            np.testing.assert_array_equal(got, -1)

    def test_restarts_are_independent(self, rng):
        rows = rng.standard_normal((50, 2))
        picks = rows[self.drawn(rows, np.ones(50), 3, np.random.default_rng(1), restarts=4)]
        assert picks.shape == (4, 3, 2)
        assert any(not np.array_equal(picks[0], picks[r]) for r in range(1, 4))


class TestKmeansSensitivities:
    def test_identical_points(self):
        rows = np.tile([[1.0, 1.0]], (8, 1))
        bic = bicriteria_kmeans(PointSet(rows), 2, 0.1, seed=0)
        prof = kmeans_sensitivities(PointSet(rows), bic)
        np.testing.assert_allclose(prof.sigma, np.full(8, DEFAULT_C_S / 8.0))
        assert prof.total == pytest.approx(DEFAULT_C_S)

    def test_far_outlier_dominates(self, rng):
        rows = np.vstack([rng.standard_normal((20, 2)), [[500.0, 500.0]]])
        bic = bicriteria_kmeans(PointSet(rows), 1, 0.1, seed=0)
        prof = kmeans_sensitivities(PointSet(rows), bic)
        cost_share = dist2(PointSet(rows[-1:]), CenterSet(bic.centers)) / bic.total_cost
        if cost_share > 0.5 / DEFAULT_C_S:
            assert prof.sigma[-1] > 0.5 * prof.total or cost_share < 0.5

    def test_upper_bounds_dominate_grid_oracle(self, rng):
        rows = rng.uniform(-1, 1, (30, 2))
        bic = bicriteria_kmeans(PointSet(rows), 1, 0.1, seed=0)
        prof = kmeans_sensitivities(PointSet(rows), bic)
        true = grid_sensitivity(rows, np.ones(30), single_center_grid())
        assert np.all(prof.sigma >= true)
        # the c_s-scaled bound stays within a constant factor of the oracle
        assert np.max(prof.sigma / np.maximum(true, 1e-12)) <= 4.0 * DEFAULT_C_S

    def test_total_is_order_k(self, rng):
        for k in (1, 2, 4):
            rows = rng.standard_normal((100, 5))
            bic = bicriteria_kmeans(PointSet(rows), k, 0.1, seed=k)
            prof = kmeans_sensitivities(PointSet(rows), bic)
            assert prof.total <= 64.0 * 2 * k  # c_tot * beta * k

    def test_zero_cost_input_keeps_share_terms(self):
        rows = np.tile([[3.0, 3.0]], (4, 1))
        bic = bicriteria_kmeans(PointSet(rows), 1, 0.1, seed=0)
        prof = kmeans_sensitivities(PointSet(rows), bic)
        np.testing.assert_allclose(prof.sigma, np.full(4, DEFAULT_C_S / 4.0))

    # rows 0 and 1 in cluster 0, of weight 2; row 2 alone in cluster 1, of weight 0
    SPLIT = sensitivity.BicriteriaSolution(
        centers=np.array([[0.5], [5.0]]), assignment=np.array([0, 0, 1]),
        sq_distances=np.array([0.25, 0.25, 0.0]), cluster_costs=np.array([0.5, 0.0]),
        cluster_sizes=np.array([2.0, 0.0]),
    )

    def test_rows_of_weight_0_sit_at_the_floor(self):
        ps = PointSet(np.array([[0.0], [1.0], [5.0]]), np.array([1.0, 1.0, 0.0]))
        prof = kmeans_sensitivities(ps, self.SPLIT)
        np.testing.assert_array_equal(prof.sigma, [DEFAULT_C_S, DEFAULT_C_S, 1.0 / 3.0])

    def test_positive_weight_in_a_cluster_of_weight_0_is_invalid_input(self):
        ps = PointSet(np.array([[0.0], [1.0], [5.0]]))
        with pytest.raises(InvalidInput, match="empty assigned cluster"):
            kmeans_sensitivities(ps, self.SPLIT)


class TestVcSampleSize:
    def test_worked_example(self):
        # S=4, dim=8, eps=0.5, delta=0.1: ceil(16 * (16 + log2(10))) = 310
        assert vc_sample_size(4.0, 8, 0.5, 0.1) == 310
        assert vc_sample_size(4.0, 8, 0.5, 0.1) == math.ceil(
            4 / 0.25 * (8 * math.log2(4) + math.log2(10))
        )

    def test_superlinear_in_total_sensitivity(self):
        base = vc_sample_size(4.0, 8, 0.5, 0.1)
        assert vc_sample_size(8.0, 8, 0.5, 0.1) > 2 * base

    def test_eps_halving_quadruples(self):
        s1 = vc_sample_size(4.0, 8, 0.5, 0.1)
        s2 = vc_sample_size(4.0, 8, 0.25, 0.1)
        assert abs(s2 - 4 * s1) <= 4

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            vc_sample_size(-1.0, 8, 0.5, 0.1)
        with pytest.raises(InvalidArgument):
            vc_sample_size(4.0, 8, 1.5, 0.1)


def _water_fill_loop(sigma: np.ndarray, total: float, s: int) -> tuple[np.ndarray, int]:
    """The water-fill of renormalize_bounds as a loop over the breakpoints,
    for input that needs one, and the number of bounds it clips."""
    cap = total / s
    order = np.argsort(cap / sigma)
    sorted_sigma = sigma[order]
    breakpoints = cap / sorted_sigma
    suffix = np.cumsum(sorted_sigma[::-1])[::-1]
    out = np.empty_like(sigma)
    clipped_mass = 0.0
    for i, t_i in enumerate(breakpoints):
        t = (total - clipped_mass) / suffix[i]
        if t <= t_i:
            out[order[:i]] = cap
            out[order[i:]] = np.minimum(t * sorted_sigma[i:], cap)
            return out, i
        clipped_mass += cap
    out[:] = cap
    return out, sigma.shape[0]


class TestRenormalize:
    def test_bytes_of_the_water_fill_loop(self, rng):
        # one case where rounding leaves every bound clipped (found by search)
        cases = [(np.array([0.10028793672301246, 0.10519277837015413, 0.14586372271917103,
                            0.10670072983217, 0.12376591453596959, 0.16506143331676987]), 1.0, 6)]
        for _ in range(300):
            n = int(rng.integers(2, 3000))
            s = n if rng.random() < 0.2 else int(rng.integers(1, n + 1))
            sigma = rng.lognormal(0.0, float(rng.uniform(0.0, 2.0)), n)
            total = float(sigma.sum()) * float(rng.uniform(1.0, 1.6))
            kept = sigma[sigma <= total / s]
            if kept.shape[0] * (total / s) >= total and kept.sum() < total * (1 - 1e-15):
                cases.append((kept, total, s))
        clips = set()
        for sigma, total, s in cases:
            expect, clipped = _water_fill_loop(sigma, total, s)
            assert renormalize_bounds(sigma, total, s).tobytes() == expect.tobytes()
            clips.add("none" if clipped == 0 else "all" if clipped == sigma.shape[0] else "some")
        assert clips == {"none", "some", "all"}

    def test_three_constraints(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 40))
            sigma = rng.uniform(0.01, 1.0, n)
            total = float(sigma.sum()) * float(rng.uniform(1.0, 1.5))
            s = int(rng.integers(2, n))
            cap = total / s
            kept = sigma[sigma <= cap]
            if kept.shape[0] < s:
                continue
            out = renormalize_bounds(kept, total, s)
            assert np.all(out >= kept - 1e-12)
            assert np.all(out <= cap + 1e-12)
            assert float(out.sum()) == pytest.approx(total, rel=1e-9)

    def test_no_removed_mass_is_identity(self):
        sigma = np.array([0.1, 0.2, 0.3, 0.4])
        out = renormalize_bounds(sigma, 1.0, 2)
        np.testing.assert_allclose(out, sigma)


class TestSensitivitySample:
    def test_uniform_profile_is_uniform_sampling(self, rng):
        rows = rng.standard_normal((30, 2))
        prof = SensitivityProfile(sigma=np.full(30, 1 / 30), total=1.0)
        core = sensitivity_sample(PointSet(rows), prof, 10, seed=5)
        assert core.size == 10
        np.testing.assert_allclose(core.weights, np.full(10, 3.0))

    def test_single_dominant_point_kept(self):
        rows = np.array([[0.0, 0.0], [100.0, 100.0], [0.1, 0.0], [0.0, 0.1]])
        sigma = np.array([0.01, 0.9, 0.01, 0.08])
        prof = SensitivityProfile(sigma=sigma, total=1.0)
        core = sensitivity_sample(PointSet(rows), prof, 3, seed=0)
        kept = np.asarray(core.points)
        assert any(np.allclose(p, [100.0, 100.0]) for p in kept)
        idx = [i for i, p in enumerate(kept) if np.allclose(p, [100.0, 100.0])]
        assert np.asarray(core.weights)[idx[0]] == pytest.approx(1.0)

    def test_weight_floor_exact(self, rng):
        rows = rng.standard_normal((50, 3))
        w = rng.uniform(1.0, 5.0, 50)
        ps = PointSet(rows, w)
        bic = bicriteria_kmeans(ps, 2, 0.1, seed=0)
        prof = kmeans_sensitivities(ps, bic)
        for seed in range(50):
            core = sensitivity_sample(ps, prof, 20, seed=seed)
            # match each sampled row back to its source weight
            for p, wt in zip(np.asarray(core.points), np.asarray(core.weights)):
                src = np.where(np.all(np.isclose(rows, p), axis=1))[0]
                assert wt >= w[src].min()

    def test_unbiased_total_weight_and_cost(self, rng):
        rows = rng.uniform(-1, 1, (30, 2))
        ps = PointSet(rows)
        bic = bicriteria_kmeans(ps, 2, 0.1, seed=0)
        prof = kmeans_sensitivities(ps, bic)
        target = CenterSet(np.array([[0.5, 0.5], [-0.5, -0.5]]))
        true_cost = dist2(ps, target)
        costs, weights = [], []
        for seed in range(1000):
            core = sensitivity_sample(ps, prof, 12, seed=seed)
            costs.append(coreset_cost(core, target))
            weights.append(core.total_weight())
        assert np.mean(weights) == pytest.approx(30.0, rel=0.02)
        assert np.mean(costs) == pytest.approx(true_cost, rel=0.02)

    def test_low_rows_drawn_in_proportion(self, rng):
        # rows 0 and 1 sit above the 1/s share and are kept; the other 38 are
        # drawn with probability renorm / total and weighted total / (s * renorm)
        n, s = 40, 10
        sigma = np.concatenate([[0.2, 0.2], rng.uniform(0.5, 1.5, n - 2)])
        sigma[2:] *= 0.6 / sigma[2:].sum()
        prof = SensitivityProfile(sigma=sigma, total=1.0)
        renorm = renormalize_bounds(sigma[2:], 1.0, s)
        rows = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        counts = np.zeros(n)
        for seed in range(3000):
            core = sensitivity_sample(PointSet(rows), prof, s, seed=seed)
            drawn = np.asarray(core.points)[2:, 0].astype(int)
            np.testing.assert_array_equal(np.asarray(core.points)[:2, 0], [0.0, 1.0])
            np.testing.assert_allclose(np.asarray(core.weights)[2:], 1.0 / (s * renorm[drawn - 2]))
            counts += np.bincount(drawn, minlength=n)
        assert counts[:2].sum() == 0
        freq = counts[2:] / counts.sum()
        np.testing.assert_allclose(freq, renorm, atol=0.005)

    @pytest.mark.parametrize(
        "n,s,seed", [(1, 1, 0), (2, 7, 1), (40, 10, 2), (1000, 5000, 3), (20000, 2000, 4), (5000, 1, 5)]
    )
    def test_draw_is_generator_choice(self, n, s, seed):
        # the same indices as Generator.choice with p, and the generator left
        # where choice leaves it; some probabilities are 0
        gen = np.random.default_rng([n, s, seed])
        p = gen.uniform(0.0, 1.0, n) ** 3
        if n > 1:
            p[gen.integers(0, n, n // 4 + 1)] = 0.0
            p[0] = 1.0
        p /= p.sum()
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = _inverse_cdf_draw(p, s, rng), ref.choice(n, size=s, p=p)
        np.testing.assert_array_equal(got, want)
        assert rng.random() == ref.random()

    def test_degenerate_profile_rejected(self, rng):
        with pytest.raises(InvalidInput):
            SensitivityProfile(sigma=np.zeros(3), total=0.0)

    def test_small_remainder_returns_input(self, rng):
        rows = rng.standard_normal((5, 2))
        sigma = np.array([0.4, 0.3, 0.1, 0.1, 0.1])
        prof = SensitivityProfile(sigma=sigma, total=1.0)
        core = sensitivity_sample(PointSet(rows), prof, 4, seed=0)
        assert core.size == 5
        np.testing.assert_allclose(core.weights, np.ones(5))


class TestTranslationInvariance:
    """k-means construction works about the mean of the rows, so a common
    shift changes neither the costs nor the centers it finds."""

    @staticmethod
    def dyadic_rows():
        # multiples of 1/64, so adding a shift up to 1e8 is exact
        gen = np.random.default_rng(11)
        centers = np.array([[0.0, 0.0, 0.0], [40.0, 0.0, 10.0], [0.0, 40.0, -20.0]])
        rows = np.repeat(centers, 200, axis=0) + 4.0 * gen.standard_normal((600, 3))
        return np.round(rows * 64) / 64

    @pytest.mark.parametrize("shift", [1e4, 1e6, 1e8])
    def test_shift_changes_nothing(self, shift):
        rows = self.dyadic_rows()
        base, moved = PointSet(rows), PointSet(rows + shift)
        bic0 = bicriteria_kmeans(base, 3, 0.1, seed=4)
        bic1 = bicriteria_kmeans(moved, 3, 0.1, seed=4)
        assert bic1.total_cost == pytest.approx(bic0.total_cost, rel=1e-9)
        prof0 = kmeans_sensitivities(base, bic0)
        prof1 = kmeans_sensitivities(moved, bic1)
        assert prof1.total == pytest.approx(prof0.total, rel=1e-9)
        np.testing.assert_allclose(prof1.sigma, prof0.sigma, rtol=0, atol=1e-9 * prof0.sigma.max())
        # five centers on three clusters: where the split lands depends on every distance
        c0 = np.asarray(lloyd_solve(base, 5, seed=4).centers)
        c1 = np.asarray(lloyd_solve(moved, 5, seed=4).centers) - shift
        np.testing.assert_allclose(c1, c0, rtol=0, atol=1e-9 * np.abs(c0).max())

    @pytest.mark.parametrize("shift", [1e4, 1e6, 1e8])
    def test_center_queries_ignore_a_common_shift(self, shift):
        rows = self.dyadic_rows()
        gen = np.random.default_rng(12)
        centers = np.round(40.0 * gen.standard_normal((4, 3)) * 64) / 64
        weights = gen.integers(1, 65, rows.shape[0]) / 8.0
        base, moved = CenterSet(centers), CenterSet(centers + shift)
        assert dist2(PointSet(rows + shift), moved) == pytest.approx(dist2(PointSet(rows), base), rel=1e-9)
        core0 = Coreset(rows, weights, 3.5)
        core1 = Coreset(rows + shift, weights, 3.5)
        assert coreset_cost(core1, moved) == pytest.approx(coreset_cost(core0, base), rel=1e-9)
