"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (test names double as the
criterion lines) or with `-s` to see the printed summaries.  Constants that
the library exposes as tunable (sampling-size scale, stream chunk scale) are
pinned here per test so that randomized paths genuinely sample.
"""
from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from tinycore import (
    CenterSet,
    CoresetStream,
    PointSet,
    StreamConfig,
    Subspace,
    affine_subspace_coreset,
    affine_subspace_coreset_weighted,
    approx_solution,
    bregman_coreset,
    brute_force_kmeans,
    coreset_cost,
    coreset_size_linear,
    dist2,
    exact_tiny_solver,
    kmeans_coreset,
    KMeansProblem,
    linear_subspace_coreset,
    mahalanobis,
    niceness_thresholds,
    partition_helper,
    reduce,
    small_kmeans_coreset,
    squared_euclidean,
)
from tinycore.cli import CoresetFile, main, read_coreset_binary, write_coreset_binary

from conftest import make_blobs, rand_orthonormal, rand_subspace

PAIRS = [(1, 1.0), (2, 0.5), (3, 0.1), (5, 0.2)]


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS: {message}")


def stacked_center_costs(rows, weights, stack, delta=0.0, chunk=100):
    """Cost of every center set in `stack` (S, k, d) against weighted rows."""
    rows = np.asarray(rows)
    weights = np.ones(rows.shape[0]) if weights is None else np.asarray(weights)
    sq_p = np.sum(rows * rows, axis=1)
    out = np.empty(stack.shape[0])
    for start in range(0, stack.shape[0], chunk):
        cs = stack[start : start + chunk]
        sq_c = np.sum(cs * cs, axis=2)
        cross = np.einsum("nd,skd->nsk", rows, cs)
        d2 = np.maximum(sq_p[:, None, None] + sq_c[None, :, :] - 2 * cross, 0.0)
        out[start : start + chunk] = weights @ d2.min(axis=2)
    return out + delta


def build_center_grid(rng, rows, k, count=500):
    """Data-derived, random and far-away candidate center sets, stacked."""
    from tinycore import lloyd_solve

    n, d = rows.shape
    stack = np.empty((count, k, d))
    for i in range(5):
        stack[i] = np.asarray(lloyd_solve(PointSet(rows), k, seed=i).centers)
    scale = float(np.abs(rows).max()) + 1.0
    for i in range(5, count):
        if i % 10 == 9:
            stack[i] = 50.0 * scale * rng.standard_normal((k, d))
        elif i % 2 == 0:
            stack[i] = scale * rng.standard_normal((k, d))
        else:
            stack[i] = rows[rng.integers(0, n, k)] + 0.5 * rng.standard_normal((k, d))
    return stack


@pytest.fixture(scope="module")
def datasets():
    gen = np.random.default_rng(515151)
    gaussian = gen.standard_normal((500, 50))
    clustered = make_blobs(gen, 500, 50, 4, spread=5.0)
    return {"gaussian": gaussian, "clustered": clustered}


def test_criterion_01_linear_coreset_size(datasets):
    rows = datasets["gaussian"]
    ps = PointSet(rows)
    slowest = 0.0
    for j, eps in PAIRS:
        t0 = time.perf_counter()
        core = linear_subspace_coreset(ps, j, eps)
        slowest = max(slowest, time.perf_counter() - t0)
        assert core.size == j + math.ceil(j / eps) - 1
    assert slowest < 1.0
    report(1, f"sizes j+ceil(j/eps)-1 exact for {PAIRS}; slowest build {slowest:.3f}s")


def test_criterion_02_linear_sandwich(datasets):
    gen = np.random.default_rng(61)
    checked = 0
    for name, rows in datasets.items():
        ps = PointSet(rows)
        for j, eps in PAIRS:
            core = linear_subspace_coreset(ps, j, eps)
            for _ in range(200):
                shape = rand_subspace(gen, 50, j)
                true = dist2(ps, shape)
                est = coreset_cost(core, shape)
                assert est >= true - 1e-9 * true
                assert est <= (1 + eps) * true
                checked += 1
    report(2, f"{checked} subspace queries, zero sandwich violations")


def test_criterion_03_affine_sandwich(datasets):
    gen = np.random.default_rng(62)
    checked = 0
    for name, rows in datasets.items():
        ps = PointSet(rows)
        for j, eps in PAIRS:
            core = affine_subspace_coreset(ps, j, eps)
            assert core.size == 2 * min(500, 50, coreset_size_linear(j, eps))
            for _ in range(200):
                shape = rand_subspace(gen, 50, j, affine=True)
                true = dist2(ps, shape)
                est = coreset_cost(core, shape)
                assert est >= true - 1e-9 * true
                assert est <= (1 + eps) * true
                checked += 1
    # weighted-input variant: a weight-5 point equals five replicas
    pts = gen.standard_normal((40, 10))
    w = np.ones(40)
    w[:4] = 5.0
    replicated = np.vstack([np.repeat(pts[:4], 5, axis=0), pts[4:]])
    cw = affine_subspace_coreset_weighted(PointSet(pts, w), 2, 0.5)
    cr = affine_subspace_coreset(PointSet(replicated), 2, 0.5)
    for _ in range(100):
        shape = rand_subspace(gen, 10, 2, affine=True)
        a, b = coreset_cost(cw, shape), coreset_cost(cr, shape)
        assert abs(a - b) <= 1e-9 * max(abs(b), 1.0)
    report(3, f"{checked} affine queries, zero violations; weighted = 5x-replicated to 1e-9")


def test_criterion_04_dimensionality_reduction(datasets):
    gen = np.random.default_rng(63)
    rows = datasets["gaussian"]
    ps = PointSet(rows)
    cases = [(1, 0.5, 31), (1, 1.0, 7), (2, 1.0, 15)]
    checked = 0
    for j, eps, want_m in cases:
        red = reduce(ps, j, eps, "general")
        assert red.m == want_m
        approx = PointSet(red.ambient_points())
        for _ in range(200):
            basis = rand_orthonormal(gen, 50, j)
            if j >= 2 and gen.random() < 0.5:
                inner = rand_orthonormal(gen, j, j - 1)
                shape = Subspace(basis=basis @ inner, offset=basis @ (2 * gen.standard_normal(j)))
            else:
                k = int(gen.integers(1, 5))
                shape = CenterSet((2 * gen.standard_normal((k, j))) @ basis.T)
            true = dist2(ps, shape)
            est = dist2(approx, shape) + red.delta
            assert abs(est - true) <= eps * true
            checked += 1
    report(4, f"{checked} shapes inside random j-subspaces, |est-true| <= eps*true throughout")


@pytest.fixture(scope="module")
def kmeans_instance():
    gen = np.random.default_rng(717171)
    rows = make_blobs(gen, 400, 20, 4, spread=6.0)
    grid = build_center_grid(gen, rows, 4, count=500)
    true = stacked_center_costs(rows, None, grid)
    return rows, grid, true


def test_criterion_05_kmeans_coreset(kmeans_instance):
    rows, grid, true = kmeans_instance
    ps = PointSet(rows)
    eps, delta = 0.5, 0.1
    # c_vc tuned so the VC sample size lands near n/2: sampling really runs,
    # and the deterministic-inclusion set can never force the exact fallback
    c_vc = 5e-4
    good_seeds = 0
    for seed in range(100):
        core = kmeans_coreset(ps, 4, eps, delta, seed=seed, c_vc=c_vc)
        assert core.size < 400
        assert np.all(np.asarray(core.weights) >= 1.0)  # exact weight floor
        est = stacked_center_costs(core.points, core.weights, grid, core.delta)
        if np.all(est >= (1 - eps) * true) and np.all(est <= (1 + eps) * true):
            good_seeds += 1
    assert good_seeds >= 90
    totals = []
    for seed in range(1000):
        core = kmeans_coreset(ps, 4, eps, delta, seed=seed, c_vc=c_vc)
        totals.append(core.total_weight())
    drift = abs(np.mean(totals) - 400.0) / 400.0
    assert drift <= 0.02
    report(5, f"grid sandwich in {good_seeds}/100 seeds; weight floor exact; E[W] drift {drift:.4f}")


def test_criterion_06_smaller_kmeans_coreset():
    gen = np.random.default_rng(727272)
    base = gen.standard_normal((150, 40))
    extra = gen.standard_normal((150, 40))
    shift = 6.0 * np.sign(gen.standard_normal((150, 1)))
    data40 = base + shift
    data80 = np.hstack([base, extra]) + shift  # same instance, doubled width
    sizes = {}
    for d, rows in ((40, data40), (80, data80)):
        sizes[d] = [
            small_kmeans_coreset(PointSet(rows), 2, 0.8, 0.1, seed=s).size for s in range(5)
        ]
    assert sizes[40] == sizes[80]
    ps = PointSet(data40)
    grid = build_center_grid(gen, data40, 2, count=500)
    true = stacked_center_costs(data40, None, grid)
    good = 0
    for seed in range(100):
        core = small_kmeans_coreset(ps, 2, 0.8, 0.1, seed=seed, c_vc=3e-5)
        est = stacked_center_costs(core.points, core.weights, grid, core.delta)
        if np.all(est >= 0.2 * true) and np.all(est <= 1.8 * true):
            good += 1
    assert good >= 90
    report(6, f"sizes d=40 vs d=80 identical ({sizes[40]}); sandwich in {good}/100 seeds")


def test_criterion_07_streaming():
    # error-schedule inequality
    for eps in (0.1, 0.5, 1.0):
        for h in range(1, 65):
            assert (1 + eps / (10 * h)) ** h <= 1 + eps
    # subspace stream: 2^14 points, j=1, eps=0.5
    gen = np.random.default_rng(737373)
    n = 2**14
    data = gen.standard_normal((n, 8))
    stream = CoresetStream(StreamConfig(kind="subspace", eps=0.5, j=1, seed=5))
    peaks = []
    for t, row in enumerate(data, start=1):
        stream.insert(row)
        live = stream.live_points()
        assert live <= stream.memory_bound()
        peaks.append(live)
    assert max(peaks) <= 8 * (1 / 0.5) * math.log2(n) ** 2  # c * log^2 n ceiling
    core = stream.query()
    ps = PointSet(data)
    for _ in range(100):
        shape = rand_subspace(gen, 8, 1)
        true = dist2(ps, shape)
        est = coreset_cost(core, shape)
        assert true - 1e-9 * true <= est <= (1 + 3 * 0.5) * true
    # k-means stream: 10^4 points from 3 clusters, delta/j^2 schedule
    rows = make_blobs(gen, 10_000, 5, 3, spread=8.0)
    grid = build_center_grid(gen, rows, 3, count=500)
    true = stacked_center_costs(rows, None, grid)
    good = 0
    for seed in range(100):
        cfg = StreamConfig(kind="kmeans", eps=0.5, k=3, delta=0.1, seed=seed, c_stream=0.5)
        st = CoresetStream(cfg)
        st.extend(rows)
        assert st.reduce_count >= 5  # the merge tree is actually exercised
        out = st.query()
        assert np.all(np.asarray(out.weights) >= 1.0)
        est = stacked_center_costs(out.points, out.weights, grid, out.delta)
        if np.all(est >= 0.5 * true) and np.all(est <= 1.5 * true):
            good += 1
    assert good >= 90
    report(7, f"subspace stream peak {max(peaks)} pts <= c*log^2 n; k-means grid sandwich {good}/100 seeds")


def test_criterion_08_bregman():
    gen = np.random.default_rng(747474)
    divs = [
        squared_euclidean(),
        mahalanobis(np.diag([2.0, 0.5])),
        mahalanobis(np.array([[1.0, 0.25], [0.0, 0.75]])),
    ]
    worst = 0.0
    for div in divs:
        for _ in range(1000):
            m = int(gen.integers(2, 10))
            pts = 3.0 * gen.standard_normal((m, 2))
            z = 3.0 * gen.standard_normal(2)
            mu = pts.mean(axis=0)
            lhs = float(np.sum(div.between(pts, z)))
            rhs = float(np.sum(div.between(pts, mu))) + m * float(div.between(mu[None, :], z)[0])
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    assert worst <= 1e-9
    f1, nu = niceness_thresholds(1.0, 1.0)
    assert f1 == pytest.approx(1.0 / 25.0)
    # three exact blobs, k=3, eps=0.5
    locs = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]])
    rows = np.repeat(locs, [70, 65, 65], axis=0)
    div = squared_euclidean()
    cs = bregman_coreset(PointSet(rows), 3, 0.5, div)
    _, nu_half = niceness_thresholds(0.5, 1.0)
    assert cs.size <= 2 * 3**min(nu_half, 40)  # far below the formula bound
    stack = 12.0 * gen.standard_normal((500, 3, 2))
    true = stacked_center_costs(rows, None, stack)
    est = np.array([div.cost(cs, CenterSet(c)) for c in stack])
    assert np.all(np.abs(est - true) <= 0.5 * true + 1e-9)
    # depth bound respected at the boundary: depth 0 means a single leaf
    leaves = partition_helper(PointSet(rows), 3, 0, 0.01, div)
    assert len(leaves) == 1
    report(8, f"identity residual {worst:.2e}; f1(1)=0.04; {cs.size} centroids cover a 500-set grid at eps=0.5")


def test_criterion_09_oracle_agreement():
    eps = 0.5
    bound = (1 + eps) / (1 - eps)
    hits = 0
    for trial in range(100):
        gen = np.random.default_rng(trial + 900)
        n = int(gen.integers(4, 13))
        k = int(gen.integers(1, 4))
        d = int(gen.integers(2, 11))
        rows = make_blobs(gen, n, d, k, spread=4.0)
        ps = PointSet(rows)
        opt = dist2(ps, brute_force_kmeans(ps, k))
        shape = approx_solution(ps, KMeansProblem(k), eps, exact_tiny_solver)
        got = dist2(ps, shape)
        if got <= bound * opt + 1e-9:
            hits += 1
    assert hits == 100
    report(9, f"approx_solution within (1+eps)/(1-eps) of brute force on {hits}/100 tiny instances")


def test_criterion_10_cli(tmp_path):
    gen = np.random.default_rng(757575)
    rows = make_blobs(gen, 250, 6, 3)
    data = str(tmp_path / "in.csv")
    np.savetxt(data, rows, delimiter=",", fmt="%.12g")
    # determinism: identical bytes across reruns
    a, b = str(tmp_path / "a.cs"), str(tmp_path / "b.cs")
    argv = ["coreset", "kmeans", "--k", "3", "--epsilon", "0.5", "--delta", "0.1", "--seed", "7", data]
    assert main(argv + ["-o", a]) == 0
    assert main(argv + ["-o", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    # binary round trip is lossless
    cf = read_coreset_binary(a)
    again = str(tmp_path / "c.cs")
    write_coreset_binary(again, cf)
    assert Path(a).read_bytes() == Path(again).read_bytes()
    # negative control: corrupting delta flips eval to failure
    scale = np.ones(20)
    scale[0] = 3.0
    skewed = np.random.default_rng(99).standard_normal((200, 20)) * scale
    sdata = str(tmp_path / "skew.csv")
    np.savetxt(sdata, skewed, delimiter=",", fmt="%.12g")
    out = str(tmp_path / "s.cs")
    assert main(["coreset", "subspace", "--j", "1", "--epsilon", "0.5", sdata, "-o", out]) == 0
    eval_args = ["--query-kind", "subspace", "--j", "1", "--count", "100",
                 "--epsilon", "0.065", "--seed", "5"]
    assert main(["eval", out, sdata, *eval_args]) == 0
    good = read_coreset_binary(out)
    bad = CoresetFile(
        n_source=good.n_source, delta=good.delta * 1.1, eps=good.eps, seed=good.seed,
        kind=good.kind, construction=good.construction, points=good.points, weights=good.weights,
    )
    badpath = str(tmp_path / "bad.cs")
    write_coreset_binary(badpath, bad)
    assert main(["eval", badpath, sdata, *eval_args]) == 1
    report(10, "byte-identical reruns; lossless binary round trip; corrupted-delta eval fails")
