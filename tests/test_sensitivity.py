import math

import numpy as np
import pytest

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
    kmeans_sensitivities,
    lloyd_solve,
    movement_sensitivities,
    sensitivity_sample,
    vc_sample_size,
)
from tinycore import sensitivity
from tinycore.sensitivity import DEFAULT_C_S, d2_seed, renormalize_bounds

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
    def test_refines_the_restart_with_the_least_seeding_cost(self, seed):
        gen = np.random.default_rng(seed + 50)
        ps = PointSet(make_blobs(gen, 300, 3, 4), gen.uniform(0.5, 2.0, 300))
        rows, w = np.asarray(ps.rows), np.asarray(ps.weights)
        delta, k = 0.01, 3  # 7 restarts of 6 seeds
        frame = ps.frame
        seeds = d2_seed(frame.rows, w, 2 * k, np.random.default_rng(seed), restarts=7, norms=frame.norms)
        seeds = seeds + frame.origin
        d2 = ((rows[None, :, None, :] - seeds[:, None, :, :]) ** 2).sum(-1)  # restart x row x seed
        seeding_costs = (w * d2.min(axis=2)).sum(axis=1)
        centers = seeds[np.argmin(seeding_costs)]
        idx = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(-1).argmin(axis=1)
        for c in np.unique(idx):
            centers[c] = np.average(rows[idx == c], axis=0, weights=w[idx == c])
        bic = bicriteria_kmeans(ps, k, delta, seed)
        np.testing.assert_allclose(np.asarray(bic.centers), centers, rtol=1e-10, atol=1e-10)
        d2 = ((rows[:, None, :] - np.asarray(bic.centers)[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(np.asarray(bic.assignment), d2.argmin(axis=1))
        assert bic.total_cost <= seeding_costs.min() * (1 + 1e-12)

    @pytest.mark.parametrize("delta", [0.5, 0.1, 1e-3])  # 1, 4 and 10 restarts
    def test_two_assignment_passes_whatever_the_restart_count(self, rng, monkeypatch, delta):
        calls = []
        nearest = sensitivity._nearest

        def counting(*args):
            calls.append(1)
            return nearest(*args)

        monkeypatch.setattr(sensitivity, "_nearest", counting)
        bicriteria_kmeans(PointSet(make_blobs(rng, 200, 3, 3)), 3, delta, seed=1)
        assert len(calls) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_seeding_cost_not_finite_is_invalid_input(self, rng):
        rows = rng.standard_normal((50, 3))
        rows[1, 1] = 1e160  # finite, but its square overflows float64
        with pytest.raises(InvalidInput, match="overflow"):
            bicriteria_kmeans(PointSet(rows), 2, 0.1, seed=0)


class TestD2Seed:
    @staticmethod
    def drawn(rows, picks):
        """Row indices of the drawn points (the rows are distinct)."""
        match = np.all(picks[..., None, :] == rows, axis=-1)
        assert np.all(match.sum(-1) == 1)
        return np.argmax(match, axis=-1)

    def test_draws_follow_weights_then_weighted_d2(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        draws = np.array([
            self.drawn(rows, d2_seed(rows, w, 2, np.random.default_rng(seed))[0])
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
            idx = self.drawn(rows, d2_seed(rows, w, 5, rng, restarts=3))
            assert np.all((idx > 0) & (idx < 9))

    @pytest.mark.parametrize("outlier_weight", [1.0, 0.0])
    def test_coinciding_rows_repeat_first_draw(self, outlier_weight):
        # weighted D^2 is 0 after the first draw: every restart repeats it.
        # With outlier weight 0 the two end rows lie elsewhere but count for nothing.
        rows = np.tile([[2.0, -1.0]], (6, 1))
        w = np.array([outlier_weight, 1.0, 2.0, 1.0, 3.0, outlier_weight])
        if outlier_weight == 0:
            rows[[0, -1]] = [[50.0, 50.0], [-50.0, 9.0]]
        picks = d2_seed(rows, w, 4, np.random.default_rng(0), restarts=3)
        assert picks.shape == (3, 4, 2)
        np.testing.assert_array_equal(picks, np.broadcast_to([2.0, -1.0], (3, 4, 2)))

    def test_restarts_are_independent(self, rng):
        rows = rng.standard_normal((50, 2))
        picks = d2_seed(rows, np.ones(50), 3, np.random.default_rng(1), restarts=4)
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


class TestMovementSensitivities:
    def test_zero_movement_scales_by_factor(self, rng):
        rows = rng.standard_normal((10, 3))
        prof = SensitivityProfile(sigma=np.full(10, 0.2), total=2.0)
        ps = PointSet(rows)
        out = movement_sensitivities(ps, ps, prof, opt_cost=5.0, alpha=0.7)
        np.testing.assert_allclose(out.sigma, (4 + 4 * 0.7) * 0.2)

    def test_alpha_zero_forces_equal_inputs(self, rng):
        rows = rng.standard_normal((6, 2))
        prof = SensitivityProfile(sigma=np.full(6, 0.5), total=3.0)
        out = movement_sensitivities(PointSet(rows), PointSet(rows), prof, 1.0, 0.0)
        np.testing.assert_allclose(out.sigma, 4.0 * 0.5)
        moved = PointSet(rows + 1.0)
        with pytest.raises(InvalidInput):
            movement_sensitivities(moved, PointSet(rows), prof, 1.0, 0.0)

    def test_perturbed_bounds_dominate_grid(self, rng):
        from tinycore import lloyd_solve

        rows = rng.uniform(-1, 1, (20, 2))
        ps = PointSet(rows)
        bic = bicriteria_kmeans(ps, 2, 0.1, seed=1)
        prof_b = kmeans_sensitivities(ps, bic)
        opt = dist2(ps, lloyd_solve(ps, 2, seed=0))
        pert = rows + 0.05 * rng.standard_normal((20, 2))
        move = float(np.sum((rows - pert) ** 2))
        alpha = 1.2 * move / opt
        out = movement_sensitivities(PointSet(pert), ps, prof_b, opt, alpha)
        grid = [rng.uniform(-2, 2, (2, 2)) for _ in range(400)]
        grid += [50 * rng.standard_normal((2, 2)) for _ in range(50)]
        true = grid_sensitivity(pert, np.ones(20), grid)
        assert np.all(out.sigma >= true)

    def test_rejects_non_positive_opt(self, rng):
        rows = rng.standard_normal((4, 2))
        prof = SensitivityProfile(sigma=np.full(4, 0.25), total=1.0)
        with pytest.raises(InvalidInput):
            movement_sensitivities(PointSet(rows), PointSet(rows), prof, 0.0, 1.0)


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


class TestRenormalize:
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
