import math
import warnings

import numpy as np
import pytest

from tinycore import (
    InvalidArgument,
    InvalidInput,
    PointSet,
    affine_subspace_coreset,
    affine_subspace_coreset_weighted,
    coreset_cost,
    coreset_size_linear,
    dist2,
    linear_subspace_coreset,
    svd,
)
from tinycore import coreset as coreset_module
from tinycore.clustering import best_affine_subspace
from tinycore.coreset import _subspace_coreset
from tinycore.linalg import _Tsqr
from tinycore.streaming import CoresetStream, StreamConfig

from conftest import estimate_cost, make_blobs, rand_subspace


class TestCoresetSizeLinear:
    @pytest.mark.parametrize(
        "j,eps,expect",
        [(2, 0.5, 5), (1, 1.0, 1), (3, 0.1, 32), (5, 0.2, 29)],
    )
    def test_formula(self, j, eps, expect):
        assert coreset_size_linear(j, eps) == expect

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidArgument):
            coreset_size_linear(0, 0.5)
        with pytest.raises(InvalidArgument):
            coreset_size_linear(2, 0.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_rejects_eps_that_is_not_finite(self, rng, eps):
        # at eps = inf the formula gives j - 1 rows, too few for a j-subspace
        with pytest.raises(InvalidArgument, match="finite"):
            coreset_size_linear(2, eps)
        ps = PointSet(rng.standard_normal((20, 4)))
        for build in (linear_subspace_coreset, affine_subspace_coreset):
            with pytest.raises(InvalidArgument, match="finite"):
                build(ps, 2, eps)


class TestLinearSubspaceCoreset:
    def test_identity_input(self):
        core = linear_subspace_coreset(PointSet(np.eye(3)), 1, 1.0)
        assert core.size == 1
        assert core.delta == pytest.approx(2.0)
        assert np.linalg.norm(core.points[0]) == pytest.approx(1.0)
        np.testing.assert_allclose(core.weights, [1.0])

    def test_low_rank_input_is_exact(self, rng):
        a = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 10))
        core = linear_subspace_coreset(PointSet(a), 2, 1.0)  # m = 3 >= rank
        assert core.delta == pytest.approx(0.0, abs=1e-12)
        for _ in range(25):
            shape = rand_subspace(rng, 10, 2)
            assert coreset_cost(core, shape) == pytest.approx(
                dist2(PointSet(a), shape), rel=1e-8, abs=1e-9
            )

    def test_sandwich_bound_random(self, rng):
        a = rng.standard_normal((50, 10))
        ps = PointSet(a)
        core = linear_subspace_coreset(ps, 2, 0.5)
        for _ in range(200):
            shape = rand_subspace(rng, 10, 2)
            true = dist2(ps, shape)
            est = estimate_cost(core, shape)
            assert est >= true - 1e-9 * true
            assert est <= (1 + 0.5) * true

    def test_delta_is_optimal_subspace_cost(self, rng):
        a = rng.standard_normal((40, 8))
        core = linear_subspace_coreset(PointSet(a), 2, 0.5)
        f = svd(PointSet(a))
        m = core.size
        assert core.delta == pytest.approx(float(np.sum(f.sigma[m:] ** 2)), rel=1e-9)

    def test_size_is_exact_formula(self, rng):
        a = rng.standard_normal((100, 40))
        for j, eps in [(1, 1.0), (2, 0.5), (3, 0.1)]:
            core = linear_subspace_coreset(PointSet(a), j, eps)
            assert core.size == min(100, 40, coreset_size_linear(j, eps))

    def test_rejects_j_out_of_range(self, rng):
        ps = PointSet(rng.standard_normal((5, 3)))
        with pytest.raises(InvalidArgument):
            linear_subspace_coreset(ps, 3, 0.5)

    def test_rejects_weighted_input(self, rng):
        ps = PointSet(rng.standard_normal((5, 3)), np.ones(5))
        with pytest.raises(InvalidInput):
            linear_subspace_coreset(ps, 1, 0.5)


class TestAffineSubspaceCoreset:
    def test_mean_preservation(self, rng):
        a = make_blobs(rng, 40, 6, 3)
        core = affine_subspace_coreset(PointSet(a), 2, 0.5)
        got = np.average(np.asarray(core.points), weights=np.asarray(core.weights), axis=0)
        np.testing.assert_allclose(got, a.mean(axis=0), atol=1e-9)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e8])
    def test_mean_preserved_to_a_relative_bound(self, shift, weighted):
        # every coordinate of the coreset's weighted mean lies within 1e-12 of
        # the rows' largest absolute entry from the exact weighted mean
        gen = np.random.default_rng(7)
        n = 3000
        a = make_blobs(gen, n, 6, 3) + shift
        w = gen.uniform(1e-3, 1e3, n) if weighted else np.ones(n)
        core = affine_subspace_coreset(PointSet(a, w if weighted else None), 2, 0.5)
        got = np.average(np.asarray(core.points), weights=np.asarray(core.weights), axis=0)
        want = np.array([math.fsum(w * col) for col in a.T]) / math.fsum(w)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(a))

    def test_sizes_and_weights(self, rng):
        a = rng.standard_normal((60, 8))
        core = affine_subspace_coreset(PointSet(a), 2, 0.5)
        m = min(60, 8, coreset_size_linear(2, 0.5))
        assert core.size == 2 * m
        np.testing.assert_allclose(core.weights, np.full(2 * m, 60 / (2 * m)))
        assert core.total_weight() == pytest.approx(60.0)

    def test_sandwich_bound_random(self, rng):
        a = rng.standard_normal((60, 8)) + 2.0
        ps = PointSet(a)
        core = affine_subspace_coreset(ps, 2, 0.5)
        for _ in range(200):
            shape = rand_subspace(rng, 8, 2, affine=True)
            true = dist2(ps, shape)
            est = estimate_cost(core, shape)
            assert est >= true - 1e-9 * true
            assert est <= 1.5 * true

    def test_centered_input_reduces_to_linear_plus_translation(self, rng):
        from tinycore import Subspace

        a = rng.standard_normal((30, 5))
        a -= a.mean(axis=0)
        ps = PointSet(a)
        core = affine_subspace_coreset(ps, 1, 0.5)
        for _ in range(50):
            linear = rand_subspace(rng, 5, 1, affine=False)
            # translation orthogonal to the subspace adds exactly n * ||t||^2
            t = rng.standard_normal(5)
            t -= linear.basis @ (linear.basis.T @ t)
            shifted = Subspace(basis=linear.basis, offset=t)
            true_affine = dist2(ps, linear) + a.shape[0] * float(t @ t)
            assert dist2(ps, shifted) == pytest.approx(true_affine, rel=1e-9)
            est = estimate_cost(core, shifted)
            assert true_affine - 1e-9 * true_affine <= est <= 1.5 * true_affine


class TestAffineWeighted:
    def test_unit_weights_match_unweighted(self, rng):
        a = rng.standard_normal((20, 5))
        cw = affine_subspace_coreset_weighted(PointSet(a, np.ones(20)), 2, 0.5)
        cu = affine_subspace_coreset(PointSet(a), 2, 0.5)
        assert cw.delta == cu.delta
        assert np.array_equal(cw.weights, cu.weights)
        assert np.array_equal(cw.points, cu.points)

    def test_weight_five_equals_replication(self, rng):
        pts = rng.standard_normal((10, 6))
        w = np.array([5.0] + [1.0] * 9)
        replicated = np.vstack([np.repeat(pts[:1], 5, axis=0), pts[1:]])
        cw = affine_subspace_coreset_weighted(PointSet(pts, w), 1, 0.5)
        cr = affine_subspace_coreset(PointSet(replicated), 1, 0.5)
        for _ in range(200):
            shape = rand_subspace(rng, 6, 1, affine=True)
            assert coreset_cost(cw, shape) == pytest.approx(
                coreset_cost(cr, shape), rel=1e-9, abs=1e-9
            )

    def test_weighted_sandwich(self, rng):
        pts = rng.standard_normal((40, 6)) * 2
        w = rng.uniform(1.0, 5.0, 40)
        ps = PointSet(pts, w)
        core = affine_subspace_coreset_weighted(ps, 1, 0.5)
        assert core.total_weight() == pytest.approx(float(w.sum()))
        for _ in range(200):
            shape = rand_subspace(rng, 6, 1, affine=True)
            true = dist2(ps, shape)
            est = estimate_cost(core, shape)
            assert est >= true - 1e-9 * true
            assert est <= 1.5 * true

    def test_rejects_zero_total_weight(self, rng):
        ps = PointSet(rng.standard_normal((3, 4)), np.zeros(3))
        with pytest.raises(InvalidInput):
            affine_subspace_coreset_weighted(ps, 1, 0.5)


class TestAffineUnderTranslation:
    """Dyadic rows shifted by an exact amount: the fit must not see the shift."""

    @pytest.mark.parametrize("shift", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("n", [3000, 3 * 4096 + 1000], ids=["one-leaf", "four-leaves"])
    def test_spectrum_basis_and_mean_survive_a_shift(self, n, shift):
        gen = np.random.default_rng(3)
        base = gen.integers(-512, 512, (n, 5)) / 8.0 * np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        direction = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        shifted = base + shift * direction
        assert np.array_equal(shifted - shift * direction, base)  # the shift is exact
        f0 = svd(_Tsqr(centred=True).feed(base))
        f = svd(_Tsqr(centred=True).feed(shifted))
        # stated tolerances; the leaves' means are taken from the first
        # leaf's, so the centred leaves were bit for bit the same here
        np.testing.assert_allclose(f.sigma, f0.sigma, rtol=1e-12)
        np.testing.assert_allclose(f.v, f0.v, atol=1e-12)
        core = affine_subspace_coreset(PointSet(shifted), 2, 0.5)
        assert core.delta == pytest.approx(affine_subspace_coreset(PointSet(base), 2, 0.5).delta, rel=1e-12)
        w = np.asarray(core.weights)
        got = (w[:, None] * np.asarray(core.points)).sum(axis=0) / w.sum()
        assert np.max(np.abs(got - shifted.mean(axis=0))) <= 1e-14 * shift


class TestCentringOverflow:
    """Finite rows whose centring or column sum overflows: one InvalidInput, no numpy warning."""

    @pytest.mark.parametrize(
        "rows",
        [[[1.7e308, 0.0], [-1.7e308, 1.0], [1.7e308, 2.0]], [[1.7e308, 0.0], [1.7e308, 1.0]]],
        ids=["centring", "column-sum"],
    )
    @pytest.mark.parametrize("weighted", [False, True])
    def test_is_the_squares_error(self, rows, weighted):
        rows = np.array(rows)
        ps = PointSet(rows, np.ones(len(rows)) if weighted else None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="squared norm overflows float64"):
                affine_subspace_coreset(ps, 1, 0.5)
            with pytest.raises(InvalidInput, match="squared norm overflows float64"):
                best_affine_subspace(ps, 1)


class TestExactRoute:
    """When m = min(n, d) no direction is cut: the coreset's rows are the R
    factor of the (centred, folded) input, and no SVD is taken."""

    J, EPS = 2, 0.05  # m = 2 + 40 - 1 = 41, at least d for every case below

    @pytest.fixture(autouse=True)
    def no_svd(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an exact subspace coreset took an SVD")

        monkeypatch.setattr(coreset_module, "svd", fail)

    @staticmethod
    def _build(rows, w, affine, offset=0.0):
        acc = _Tsqr(centred=affine).feed(rows, w)
        return _subspace_coreset(acc, TestExactRoute.J, TestExactRoute.EPS, offset=offset)

    @pytest.mark.parametrize("affine", [False, True], ids=["linear", "affine"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("d", [5, 30])
    @pytest.mark.parametrize("n", ["below-d", 40, 3 * 4096 + 5])
    def test_gram_size_offset_and_costs(self, n, d, weighted, affine):
        gen = np.random.default_rng([n if isinstance(n, int) else 0, d, weighted, affine])
        n = d - 2 if n == "below-d" else n
        rows = make_blobs(gen, n, d, 3) + 10.0
        w = gen.uniform(0.5, 4.0, n) if weighted else None
        core = self._build(rows, w, affine, offset=0.75)
        m = min(n, d)
        assert core.size == (2 * m if affine else m)
        assert core.delta == 0.75
        ps = PointSet(rows, w)
        weights = ps.effective_weights()
        total = float(np.sum(weights))
        if affine:
            mean = weights @ rows / total
            np.testing.assert_allclose(core.weights, np.full(2 * m, total / (2 * m)), rtol=1e-15)
            np.testing.assert_allclose(core.weights @ core.points / total, mean, rtol=1e-12)
            rows, pts = rows - mean, np.asarray(core.points) - mean
        else:
            np.testing.assert_array_equal(core.weights, np.ones(m))
            pts = np.asarray(core.points)
        gram = (rows * weights[:, None]).T @ rows
        got = (pts * np.asarray(core.weights)[:, None]).T @ pts
        assert np.linalg.norm(got - gram) <= 1e-11 * np.trace(gram)
        # an affine coreset answers linear queries too: it keeps the second moments
        shapes = [rand_subspace(gen, d, 1) for _ in range(10)]
        if affine:
            shapes += [rand_subspace(gen, d, 2, affine=True) for _ in range(10)]
        for shape in shapes:
            assert coreset_cost(core, shape) - 0.75 == pytest.approx(dist2(ps, shape), rel=1e-9)

    @pytest.mark.parametrize("affine", [False, True], ids=["linear", "affine"])
    def test_public_builders_have_no_offset(self, rng, affine):
        rows = rng.standard_normal((40, 5))
        core = (affine_subspace_coreset if affine else linear_subspace_coreset)(PointSet(rows), 2, 0.5)
        assert core.size == (10 if affine else 5)
        assert core.delta == 0.0

    @pytest.mark.parametrize("affine", [False, True], ids=["linear", "affine"])
    def test_wrong_r_is_invalid_input(self, rng, monkeypatch, affine):
        # a QR that drops the lower half of every stack (at a merge, the
        # second block's R) gives an R that does not fit the input
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda m, mode="reduced": qr(m[: (m.shape[0] + 1) // 2], mode=mode))
        with pytest.raises(InvalidInput, match="does not fit the input"):
            self._build(rng.standard_normal((10000, 6)), None, affine)

    def test_a_stream_whose_reduces_keep_every_direction_takes_one_svd(self, rng, monkeypatch):
        # level sizes 10 h / 0.3 reach d = 5 at once; the final query keeps m = 4 < 5
        calls = []
        monkeypatch.setattr(coreset_module, "svd", lambda acc: calls.append(acc) or svd(acc))
        stream = CoresetStream(StreamConfig(kind="subspace", j=1, eps=0.3))
        stream.extend(make_blobs(rng, 12000, 5, 3))
        assert stream.reduce_count > 0 and calls == []
        assert stream.query().size == 4
        assert len(calls) == 1
