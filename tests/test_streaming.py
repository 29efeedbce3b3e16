import numpy as np
import pytest

from tinycore import (
    CenterSet,
    Coreset,
    CoresetStream,
    EmptyState,
    InvalidArgument,
    InvalidInput,
    PointSet,
    StreamConfig,
    coreset_cost,
    dist2,
    linear_subspace_coreset,
)

from conftest import make_blobs, rand_subspace


class TestErrorSchedule:
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    def test_claim_holds_up_to_64_levels(self, eps):
        for h in range(1, 65):
            assert (1 + eps / (10 * h)) ** h <= 1 + eps


class TestDeltaAdditivity:
    def test_merged_coresets_cover_the_union(self, rng):
        from tinycore.coreset import merge_coresets

        a1 = rng.standard_normal((40, 6))
        a2 = rng.standard_normal((40, 6)) + 1.0
        c1 = linear_subspace_coreset(PointSet(a1), 1, 0.3)
        c2 = linear_subspace_coreset(PointSet(a2), 1, 0.3)
        pts, w, delta = merge_coresets([c1, c2])
        merged = Coreset(points=pts, weights=w, delta=delta)
        assert delta == c1.delta + c2.delta
        union = PointSet(np.vstack([a1, a2]))
        for _ in range(100):
            shape = rand_subspace(rng, 6, 1)
            true = dist2(union, shape)
            est = coreset_cost(merged, shape)
            assert true - 1e-9 * true <= est <= (1 + 0.3) * true


class TestStreamState:
    def test_config_validation(self):
        with pytest.raises(Exception):
            StreamConfig(kind="nope", eps=0.5, j=1)
        with pytest.raises(Exception):
            StreamConfig(kind="subspace", eps=0.5)
        with pytest.raises(Exception):
            StreamConfig(kind="kmeans", eps=0.5, k=None)

    @pytest.mark.parametrize("kind", ["subspace", "affine", "kmeans"])
    def test_negative_seed_rejected(self, kind):
        with pytest.raises(InvalidArgument, match="seed"):
            StreamConfig(kind=kind, eps=0.5, j=1, k=2, seed=-1)
        StreamConfig(kind=kind, eps=0.5, j=1, k=2, seed=0)

    def test_dimension_mismatch_rejected(self):
        stream = CoresetStream(StreamConfig(kind="subspace", eps=0.5, j=1))
        stream.insert(np.array([1.0, 2.0]))
        with pytest.raises(InvalidInput):
            stream.insert(np.array([1.0, 2.0, 3.0]))

    def test_empty_query_rejected(self):
        stream = CoresetStream(StreamConfig(kind="subspace", eps=0.5, j=1))
        with pytest.raises(EmptyState):
            stream.query()

    def test_small_stream_equals_batch(self, rng):
        rows = rng.standard_normal((30, 4))
        stream = CoresetStream(StreamConfig(kind="subspace", eps=0.5, j=1))
        stream.extend(rows)
        got = stream.query()
        want = linear_subspace_coreset(PointSet(rows), 1, 0.5)
        np.testing.assert_array_equal(got.points, want.points)
        assert got.delta == want.delta

    def test_single_buffer_fill_creates_level_bucket(self, rng):
        cfg = StreamConfig(kind="subspace", eps=0.5, j=1)
        stream = CoresetStream(cfg)
        # stay inside one long epoch by keeping the point count below 2^epoch
        stream._epoch = 12
        need = 2 * stream.level_size()
        stream.extend(rng.standard_normal((need, 4)))
        assert stream.occupied_levels() == [0]

    def test_binary_counter_discipline(self, rng):
        cfg = StreamConfig(kind="subspace", eps=1.0, j=1)
        stream = CoresetStream(cfg)
        stream._epoch = 14  # one long epoch so no rollover interferes
        flushes = 0
        for i in range(12 * 2 * stream.level_size()):
            stream.insert(rng.standard_normal(3))
            if not stream._buffer:
                flushes = i // (2 * stream.level_size()) + 1
                got = set(stream.occupied_levels())
                want = {b for b in range(flushes.bit_length()) if (flushes >> b) & 1}
                assert got == want

    def test_points_touch_logarithmically_many_levels(self, rng):
        cfg = StreamConfig(kind="subspace", eps=0.5, j=1)
        stream = CoresetStream(cfg)
        n = 4096
        stream.extend(rng.standard_normal((n, 4)))
        max_level = max(stream.occupied_levels(), default=0)
        assert max_level <= np.log2(n) + 2


class TestSubspaceStream:
    def test_error_and_memory(self, rng):
        n = 2**12
        data = rng.standard_normal((n, 6))
        stream = CoresetStream(StreamConfig(kind="subspace", eps=0.5, j=1, seed=1))
        for row in data:
            stream.insert(row)
            assert stream.live_points() <= stream.memory_bound()
        core = stream.query()
        ps = PointSet(data)
        for _ in range(100):
            shape = rand_subspace(rng, 6, 1)
            true = dist2(ps, shape)
            est = coreset_cost(core, shape)
            assert true - 1e-9 * true <= est
            assert est <= (1 + 3 * 0.5) * true

    def test_query_size_matches_batch_formula(self, rng):
        stream = CoresetStream(StreamConfig(kind="subspace", eps=0.5, j=2, seed=0))
        stream.extend(rng.standard_normal((2000, 8)))
        core = stream.query()
        assert core.size == 2 + int(np.ceil(2 / 0.5)) - 1


class TestAffineStream:
    def test_two_epoch_stream_error(self, rng):
        data = rng.standard_normal((3000, 5)) + 2.0
        stream = CoresetStream(StreamConfig(kind="affine", eps=0.5, j=1, seed=2))
        stream.extend(data)
        assert stream.reduce_count > 0
        core = stream.query()
        ps = PointSet(data)
        for _ in range(100):
            shape = rand_subspace(rng, 5, 1, affine=True)
            true = dist2(ps, shape)
            est = coreset_cost(core, shape)
            assert true - 1e-9 * true <= est <= (1 + 3 * 0.5) * true

    def test_total_weight_preserved(self, rng):
        data = rng.standard_normal((2500, 4))
        stream = CoresetStream(StreamConfig(kind="affine", eps=0.5, j=1, seed=2))
        stream.extend(data)
        core = stream.query()
        assert core.total_weight() == pytest.approx(2500.0, rel=1e-9)


class TestKmeansStream:
    def make_stream(self, rows, seed, c_stream=0.5):
        cfg = StreamConfig(kind="kmeans", eps=0.5, k=3, delta=0.1, seed=seed, c_stream=c_stream)
        stream = CoresetStream(cfg)
        stream.extend(rows)
        return stream

    def test_weights_stay_at_least_one(self, rng):
        rows = make_blobs(rng, 4000, 4, 3)
        stream = self.make_stream(rows, seed=9, c_stream=0.25)
        assert stream.reduce_count > 10  # many merges actually happened
        core = stream.query()
        assert np.all(np.asarray(core.weights) >= 1.0)
        assert core.total_weight() == pytest.approx(4000, rel=0.25)

    def test_grid_sandwich_over_seeds(self, rng):
        rows = make_blobs(rng, 4000, 4, 3)
        ps = PointSet(rows)
        shapes = [CenterSet(6 * rng.standard_normal((3, 4))) for _ in range(40)]
        true = [dist2(ps, s) for s in shapes]
        ok = 0
        for seed in range(20):
            core = self.make_stream(rows, seed=seed).query()
            good = all(
                0.5 * t <= coreset_cost(core, s) <= 1.5 * t for s, t in zip(shapes, true)
            )
            ok += good
        assert ok >= 18

    def test_deterministic_replay(self, rng):
        rows = make_blobs(rng, 3000, 4, 3)
        first = self.make_stream(rows, seed=4).query()
        second = self.make_stream(rows, seed=4).query()
        np.testing.assert_array_equal(first.points, second.points)
        np.testing.assert_array_equal(first.weights, second.weights)
        assert first.delta == second.delta

    def test_repeated_query_is_stable(self, rng):
        rows = make_blobs(rng, 1500, 3, 3)
        stream = self.make_stream(rows, seed=6)
        a, b = stream.query(), stream.query()
        np.testing.assert_array_equal(a.points, b.points)


def _state(stream):
    return (
        stream.points_seen,
        stream.live_points(),
        stream.epoch,
        stream.occupied_levels(),
        stream.reduce_count,
        stream.peak_live_points,
    )


STREAM_CONFIGS = [
    dict(kind="subspace", eps=0.5, j=1),
    dict(kind="affine", eps=0.5, j=1),
    dict(kind="kmeans", eps=0.5, k=3, c_stream=0.25),
]


class TestBlockFeed:
    @pytest.mark.parametrize("kw", STREAM_CONFIGS, ids=lambda kw: kw["kind"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extend_matches_row_inserts(self, rng, kw, seed):
        rows = make_blobs(rng, 3000, 4, 3)
        cfg = StreamConfig(seed=seed, **kw)
        by_row = CoresetStream(cfg)
        states = {}
        for i, row in enumerate(rows, start=1):
            by_row.insert(row)
            states[i] = _state(by_row)
        # the peak is the largest live count seen after any insert
        assert by_row.peak_live_points == max(st[1] for st in states.values())
        # random splits up to 700 rows: a block often spans a flush and an epoch end
        cuts = np.cumsum(rng.integers(1, 700, 40))
        cuts = [0] + [int(c) for c in cuts if c < len(rows)] + [len(rows)]
        by_block = CoresetStream(cfg)
        spanned_flush = spanned_roll = False
        for a, b in zip(cuts[:-1], cuts[1:]):
            before = _state(by_block)
            by_block.extend(rows[a:b])
            spanned_flush |= by_block.reduce_count > before[4] and b - a > 1
            spanned_roll |= by_block.epoch > before[2] and b - a > 1
            assert _state(by_block) == states[b]
        assert spanned_flush and spanned_roll
        one = CoresetStream(cfg)
        one.extend(rows)
        assert _state(one) == states[len(rows)]
        want = by_row.query()
        for got in (by_block.query(), one.query()):
            assert got.points.tobytes() == want.points.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.delta == want.delta

    def test_live_points_is_a_recount(self, rng):
        stream = CoresetStream(StreamConfig(kind="kmeans", eps=0.5, k=3, c_stream=0.25, seed=3))
        peak = 0
        for row in make_blobs(rng, 2500, 3, 3):
            stream.insert(row)
            recount = sum(len(b) for b in stream._buffer)
            recount += sum(b.size for b in stream._buckets if b is not None)
            recount += sum(b.size for b in stream._summaries)
            assert stream.live_points() == recount
            peak = max(peak, recount)
        assert stream.peak_live_points == peak
        assert stream.epoch > 8 and stream._summaries

    def test_kmeans_eps_one_can_be_queried(self, rng):
        rows = make_blobs(rng, 1500, 3, 3)
        stream = CoresetStream(StreamConfig(kind="kmeans", eps=1.0, k=3, seed=5, c_stream=0.25))
        stream.extend(rows)
        assert stream.reduce_count > 0
        core = stream.query()
        assert np.all(np.asarray(core.weights) >= 1.0)
        assert core.total_weight() == pytest.approx(1500, rel=0.25)

    def test_reused_insert_array_is_copied(self):
        cfg = StreamConfig(kind="subspace", eps=0.5, j=1)
        reused, fresh = CoresetStream(cfg), CoresetStream(cfg)
        row = np.empty(3)
        for i in range(10):
            row[:] = [i, 2 * i, 1]
            reused.insert(row)
            fresh.insert(np.array([i, 2.0 * i, 1.0]))
        got, want = reused.query(), fresh.query()
        assert got.points.tobytes() == want.points.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.delta == want.delta

    def test_mutating_an_extended_block_changes_nothing(self, rng):
        cfg = StreamConfig(kind="affine", eps=0.5, j=1)
        block = rng.standard_normal((40, 3))
        stream, control = CoresetStream(cfg), CoresetStream(cfg)
        stream.extend(block)
        control.extend(block.copy())
        block[:] = 0.0
        got, want = stream.query(), control.query()
        assert got.points.tobytes() == want.points.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.delta == want.delta

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bad_block_is_rejected_whole(self, rng, bad):
        stream = CoresetStream(StreamConfig(kind="subspace", eps=0.5, j=1))
        stream.extend(rng.standard_normal((50, 3)))
        before = _state(stream)
        block = rng.standard_normal((200, 3))
        block[120, 1] = bad
        with pytest.raises(InvalidInput):
            stream.extend(block)
        with pytest.raises(InvalidInput):
            stream.extend(rng.standard_normal((10, 4)))
        assert _state(stream) == before
