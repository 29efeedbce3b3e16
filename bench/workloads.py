"""The benchmark's three workloads: inputs made from the seed, builds, query grids and checkers.

Each workload yields rounds of `Build`s. A build is one construction call
(on `cli-stream`, one CLI command) followed by a fixed grid of queries
answered with `tinycore.coreset_cost`. Every checker compares the output with
costs and spectra that this file computes with its own numpy code, or with
properties the method must have, and returns a list of problems (empty when
the output is correct).
"""
from __future__ import annotations

import contextlib
import functools
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import tinycore as tc
from tinycore import cli

WORKLOADS = ("pca-batch", "kmeans-batch", "cli-stream")

# pca-batch: one tall matrix with a decaying spectrum, and a translated copy.
PCA_N, PCA_D = 4000, 30
PCA_DECAY = 0.8
PCA_SHIFT = 1e6
PCA_CONFIGS = ((1, 0.5), (2, 0.2), (4, 0.25))  # (j, eps): m = 2, 11, 19 of d = 30

# kmeans-batch: sample sizes far below n, so that sensitivity sampling runs.
KM_LOW = dict(n=20000, d=10, k=5, sample_size=2000)
KM_WIDE = dict(n=2000, d=32, k=4, sample_size=800)
KM_EPS, KM_DELTA = 0.5, 0.1
KM_WEIGHT_TOL = 0.05  # mean total weight over a run's builds, relative to n

# cli-stream: one CSV file; 3 * eps < 1, so the streaming slack is not vacuous.
CLI_N, CLI_D, CLI_K = 12000, 5, 3
CLI_EPS = 0.3
CLI_BATCH_J, CLI_BATCH_EPS = 1, 0.5

GRID = 16  # queries per build
WARM_ROWS = 300


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _derived_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


# -- independent cost and spectrum computations ---------------------------


def subspace_cost(rows: np.ndarray, shape: tc.Subspace) -> float:
    """Sum of squared residuals after explicit projection (not Pythagoras)."""
    pts = rows if shape.offset is None else rows - np.asarray(shape.offset)
    basis = np.asarray(shape.basis)
    resid = pts - (pts @ basis) @ basis.T
    return float(np.einsum("ij,ij->", resid, resid))


def centers_cost(rows: np.ndarray, shape: tc.CenterSet) -> float:
    """Sum over rows of the squared distance to the nearest center, by differences."""
    best = np.full(rows.shape[0], np.inf)
    for c in np.asarray(shape.centers):
        diff = rows - c
        np.minimum(best, np.einsum("ij,ij->i", diff, diff), out=best)
    return float(best.sum())


def tail(rows: np.ndarray, m: int) -> float:
    """||A - A^(m)||_F^2 from numpy's LAPACK SVD."""
    s = np.linalg.svd(rows, compute_uv=False)
    return float(np.sum(s[m:] ** 2))


def subspace_size(n: int, d: int, j: int, eps: float) -> int:
    return min(n, d, j + math.ceil(j / eps) - 1)


def _orthonormal(rng: np.random.Generator, d: int, j: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((d, j)))[0]


# The query grids and cluster layouts are fixed shapes, placed in the data's
# own singular basis or by a rotation drawn from the seed. So the seed changes
# the draw of the inputs but not how hard the grid is: the errors, and the
# worst of them, stay comparable from seed to seed.


def subspace_grid(rows: np.ndarray, j: int, affine: bool) -> list[tc.Subspace]:
    """The best-fit j-subspace, each query turning one basis vector toward a tail direction.

    The angle grows along the grid, from near the optimum (where the
    relative error is largest) to far from it; affine queries also move the
    offset off the mean along a tail direction.
    """
    mean = rows.mean(axis=0)
    centered = rows - mean if affine else rows
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    v = vt.T
    d = v.shape[1]
    grid = []
    for i in range(GRID):
        col, toward = i % j, j + (5 * i) % (d - j)
        theta = (i + 1) / (GRID + 1) * (np.pi / 2)
        basis = v[:, :j].copy()
        basis[:, col] = np.cos(theta) * v[:, col] + np.sin(theta) * v[:, toward]
        offset = None
        if affine:
            step = s[toward] / np.sqrt(rows.shape[0]) * (i % 4) / 2
            offset = mean + step * v[:, j + (3 * i) % (d - j)]
        grid.append(tc.Subspace(basis=basis, offset=offset))
    return grid


def blobs(rng, n: int, d: int, k: int, spread: float) -> tuple[np.ndarray, np.ndarray]:
    """k Gaussian clusters of fixed unequal sizes and widths; only the rotation and the draw vary."""
    layout = np.random.default_rng([k, d]).standard_normal((k, d))
    centers = spread * layout @ _orthonormal(rng, d, d).T
    share = np.linspace(2.0, 1.0, k)
    sizes = np.floor(n * share / share.sum()).astype(int)
    sizes[0] += n - sizes.sum()
    idx = rng.permutation(np.repeat(np.arange(k), sizes))
    width = np.linspace(0.7, 1.5, k)[idx, None]
    return centers[idx] + width * rng.standard_normal((n, d)), centers


def center_grid(rng, centers: np.ndarray) -> list[tc.CenterSet]:
    """The true centers moved by growing distances, then sets where one center is missing."""
    k, d = centers.shape
    grid = []
    for i in range(GRID):
        moves = rng.standard_normal((k, d))
        moves /= np.linalg.norm(moves, axis=1, keepdims=True)
        if i < GRID - k:
            grid.append(tc.CenterSet(centers + 0.25 * (i + 1) * moves))
        else:  # center i mod k lands on its neighbour: one cluster is served from afar
            shifted = centers.copy()
            gone = i % k
            shifted[gone] = centers[(gone + 1) % k] + 0.5 * moves[gone]
            grid.append(tc.CenterSet(shifted))
    return grid


# -- checkers ---------------------------------------------------------------


def _close(a: float, b: float, rel: float, scale: float) -> bool:
    return abs(a - b) <= rel * max(abs(b), 0.0) + 1e-12 * scale


def check_sandwich(ests, truths, eps: float) -> list[str]:
    """The subspace coreset bound: true * (1 - 1e-9) <= est <= (1 + eps) * true."""
    return [
        f"query {i}: est {e:.10g} outside [{t:.10g}, (1+{eps}) * true]"
        for i, (e, t) in enumerate(zip(ests, truths))
        if not t * (1 - 1e-9) <= e <= (1 + eps) * t
    ]


def check_band(ests, truths, tol: float) -> list[str]:
    """|est / true - 1| <= tol for every query."""
    return [
        f"query {i}: est/true - 1 = {e / t - 1:.4g} beyond +-{tol}"
        for i, (e, t) in enumerate(zip(ests, truths))
        if not abs(e / t - 1) <= tol
    ]


def check_weights(weights: np.ndarray, floor: float, exact: bool) -> list[str]:
    w = np.asarray(weights)
    if exact and np.any(np.abs(w - floor) > 1e-12 * floor):
        return [f"weights should all be {floor:.10g}, range [{w.min():.10g}, {w.max():.10g}]"]
    if np.any(w < floor):
        return [f"weight {w.min():.10g} below its floor {floor:.10g}"]
    return []


def check_delta(delta: float, expected: float, energy: float) -> list[str]:
    if _close(delta, expected, 1e-9, energy):
        return []
    return [f"delta {delta:.15g} != tail energy {expected:.15g}"]


def worst_rel_err(ests, truths) -> float:
    return max(abs(e / t - 1) for e, t in zip(ests, truths))


# -- builds and workloads ----------------------------------------------------


@dataclass
class Build:
    """One build operation, the queries that follow it and the check of its output."""

    label: str
    rows: int
    run: Callable[[], object]  # the timed construction call
    grid: list
    truths: Callable[[], list[float]]  # true costs of the grid, computed here
    check: Callable[[object, list[float]], list[str]]
    load: Callable[[object], object] = lambda out: out  # untimed: read the result back
    coreset: Callable[[object], tc.Coreset] = lambda out: out
    total_weight: float = field(default=float("nan"))


class PcaBatch:
    """Linear and affine subspace coresets of one tall matrix with a decaying spectrum."""

    name = "pca-batch"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def set_up(self) -> None:
        rng = _rng(self.seed, 1)
        # independent columns of decaying scale, in a seeded order and sign. A
        # dense random rotation would make the Jacobi SVD take 11 to 14 sweeps
        # depending on the seed (5 here for every seed), so build time would
        # depend on the seed and not only on the code.
        sigma = 100.0 * PCA_DECAY ** np.arange(PCA_D)
        signs = rng.choice([-1.0, 1.0], PCA_D)
        self.a = (rng.standard_normal((PCA_N, PCA_D)) * sigma)[:, rng.permutation(PCA_D)] * signs
        direction = rng.standard_normal(PCA_D)
        self.b = self.a + PCA_SHIFT * direction / np.linalg.norm(direction)
        self.pa, self.pb = tc.PointSet(self.a), tc.PointSet(self.b)
        self.builds = []
        for j, eps in PCA_CONFIGS:
            for affine in (False, True):
                rows = self.b if affine else self.a
                grid = subspace_grid(rows, j, affine)
                self.builds.append(self._build(j, eps, affine, rows, grid))
        small = tc.PointSet(self.a[:WARM_ROWS])
        tc.coreset_cost(tc.linear_subspace_coreset(small, 2, 0.5), self.builds[0].grid[0])
        tc.affine_subspace_coreset(tc.PointSet(self.b[:WARM_ROWS]), 2, 0.5)

    def _build(self, j, eps, affine, rows, grid) -> Build:
        points = self.pb if affine else self.pa
        name = "affine_subspace_coreset" if affine else "linear_subspace_coreset"
        truths = functools.cache(lambda: [subspace_cost(rows, s) for s in grid])
        expected = functools.cache(lambda: self.expected(rows, j, eps, affine))
        return Build(
            label=f"{name}(j={j}, eps={eps})",
            rows=rows.shape[0],
            # looked up at call time, so that the traced run sees its wrapper
            run=lambda: getattr(tc, name)(points, j, eps),
            grid=grid,
            truths=truths,
            check=lambda core, ests: self.check(core, ests, truths(), expected(), eps),
        )

    @staticmethod
    def expected(rows: np.ndarray, j: int, eps: float, affine: bool) -> dict:
        n, d = rows.shape
        m = subspace_size(n, d, j, eps)
        mean = rows.mean(axis=0)
        centered = rows - mean if affine else rows
        return dict(
            affine=affine,
            size=2 * m if affine else m,
            floor=n / (2 * m) if affine else 1.0,
            tail=tail(centered, m),
            energy=float(np.sum(centered**2)),
            mean=mean,
        )

    @staticmethod
    def check(core: tc.Coreset, ests, truths, exp: dict, eps: float) -> list[str]:
        problems = []
        if core.size != exp["size"]:
            problems.append(f"size {core.size} != {exp['size']}")
        problems += check_weights(core.weights, exp["floor"], exact=True)
        if exp["affine"]:
            w = np.asarray(core.weights)
            mean = (w[:, None] * np.asarray(core.points)).sum(axis=0) / w.sum()
            scale = float(np.max(np.abs(exp["mean"])))
            if np.max(np.abs(mean - exp["mean"])) > 1e-9 * scale:
                problems.append("weighted mean of the coreset differs from the input mean")
        problems += check_delta(core.delta, exp["tail"], exp["energy"])
        return problems + check_sandwich(ests, truths, eps)

    def round(self, r: int) -> list[Build]:
        return self.builds

    def finish(self, builds: list[Build]) -> list[str]:
        return []


class KMeansBatch:
    """k-means coresets at explicit sample sizes: low-dimensional and wide clustered sets."""

    name = "kmeans-batch"
    # per round: two kmeans_coreset builds on the low set, one small_kmeans_coreset on the wide set
    ROUND = (("kmeans_coreset", "low"), ("kmeans_coreset", "low"), ("small_kmeans_coreset", "wide"))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def set_up(self) -> None:
        rng = _rng(self.seed, 2)
        self.sets = {}
        for label, cfg, spread in (("low", KM_LOW, 8.0), ("wide", KM_WIDE, 4.0)):
            rows, centers = blobs(rng, cfg["n"], cfg["d"], cfg["k"], spread)
            grid = center_grid(rng, centers)
            self.sets[label] = dict(
                cfg=cfg,
                rows=rows,
                points=tc.PointSet(rows),
                grid=grid,
                truths=functools.cache(lambda rows=rows, grid=grid: [centers_cost(rows, s) for s in grid]),
                expected=functools.cache(lambda rows=rows, cfg=cfg, label=label: self.expected(rows, cfg, label)),
            )
        warm = tc.PointSet(self.sets["low"]["rows"][:WARM_ROWS])
        tc.coreset_cost(tc.kmeans_coreset(warm, 3, KM_EPS, KM_DELTA, 0, sample_size=50), self.sets["low"]["grid"][0])
        warm = tc.PointSet(self.sets["wide"]["rows"][:WARM_ROWS])
        tc.small_kmeans_coreset(warm, 3, KM_EPS, KM_DELTA, 0, sample_size=50)

    @staticmethod
    def expected(rows: np.ndarray, cfg: dict, label: str) -> dict:
        n, d, k = rows.shape[0], rows.shape[1], cfg["k"]
        # kmeans_coreset has offset 0; small_kmeans_coreset's is the tail past the coreset-lift rank
        m = max(1, min(n, d, k + math.ceil(32 * k / KM_EPS**2) - 1)) if label == "wide" else d
        return dict(n=n, s=cfg["sample_size"], tail=tail(rows, m), energy=float(np.sum(rows**2)))

    @staticmethod
    def check(core: tc.Coreset, ests, truths, exp: dict) -> list[str]:
        problems = []
        if not exp["s"] <= core.size <= exp["n"]:
            problems.append(f"size {core.size} outside [{exp['s']}, {exp['n']}]")
        problems += check_weights(core.weights, 1.0, exact=False)
        problems += check_delta(core.delta, exp["tail"], exp["energy"])
        return problems + check_band(ests, truths, KM_EPS)

    def round(self, r: int) -> list[Build]:
        return [
            self._build(fn, self.sets[label], _derived_seed(self.seed, r, i))
            for i, (fn, label) in enumerate(self.ROUND)
        ]

    def _build(self, fn: str, data: dict, seed: int) -> Build:
        cfg = data["cfg"]
        return Build(
            label=f"{fn}(seed={seed})",
            rows=cfg["n"],
            run=lambda: getattr(tc, fn)(data["points"], cfg["k"], KM_EPS, KM_DELTA, seed, sample_size=cfg["sample_size"]),
            grid=data["grid"],
            truths=data["truths"],
            check=lambda core, ests: self.check(core, ests, data["truths"](), data["expected"]()),
        )

    def finish(self, builds: list[Build]) -> list[str]:
        ratios = [b.total_weight / b.rows for b in builds if not math.isnan(b.total_weight)]
        if ratios and abs(np.mean(ratios) - 1) > KM_WEIGHT_TOL:
            return [f"mean total weight is {np.mean(ratios):.4f} n, beyond +-{KM_WEIGHT_TOL}"]
        return []


class CliStream:
    """The user's file path: `tinycore.cli.main` on a CSV file, then the TCS1 file read back."""

    name = "cli-stream"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.csv = os.path.join(workdir, "points.csv")
        self.first_bytes: dict[str, bytes] = {}

    def set_up(self) -> None:
        rng = _rng(self.seed, 3)
        self.rows, centers = blobs(rng, CLI_N, CLI_D, CLI_K, spread=5.0)
        # repr round-trips every float, so the CLI parses exactly these rows
        with open(self.csv, "w") as fh:
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in self.rows.tolist()))
        self.grid_km = center_grid(rng, centers)
        self.grid_sub = subspace_grid(self.rows, 1, affine=False)
        self.truths_km = functools.cache(lambda: [centers_cost(self.rows, s) for s in self.grid_km])
        self.truths_sub = functools.cache(lambda: [subspace_cost(self.rows, s) for s in self.grid_sub])
        m = subspace_size(CLI_N, CLI_D, CLI_BATCH_J, CLI_BATCH_EPS)
        energy = float(np.sum(self.rows**2))
        self.exp_batch = functools.cache(lambda: dict(size=m, tail=tail(self.rows, m), energy=energy))
        warm = os.path.join(self.workdir, "warm.csv")
        with open(warm, "w") as fh:
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in self.rows[:WARM_ROWS].tolist()))
        for argv in self.commands(warm, 0):
            self.main(argv[1])

    def commands(self, path: str, stream_seed: int) -> list[tuple[str, list[str]]]:
        out = lambda tag: os.path.join(self.workdir, f"{tag}.tcs")
        eps = str(CLI_EPS)
        return [
            ("km", ["stream", "--kind", "kmeans", "--k", str(CLI_K), "--epsilon", eps,
                    "--seed", str(stream_seed), path, "-o", out("km")]),
            ("sub", ["stream", "--kind", "subspace", "--j", "1", "--epsilon", eps,
                     "--seed", "0", path, "-o", out("sub")]),
            ("batch", ["coreset", "subspace", "--j", str(CLI_BATCH_J), "--epsilon", str(CLI_BATCH_EPS),
                       path, "-o", out("batch")]),
        ]

    @staticmethod
    def main(argv: list[str]) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"tinycore {' '.join(argv[:3])} exited {code}: {sink.getvalue().strip()}")

    @staticmethod
    def check(tag: str, cf: cli.CoresetFile, ests, truths, exp: dict, first: bytes | None, data: bytes) -> list[str]:
        problems = []
        if cf.n_source != CLI_N:
            problems.append(f"header n_source {cf.n_source} != {CLI_N} CSV rows")
        if first is not None and data != first:
            problems.append("rerun of the command wrote a different file")
        if tag == "batch":
            if cf.m != exp["size"]:
                problems.append(f"size {cf.m} != {exp['size']}")
            problems += check_weights(cf.weights, 1.0, exact=True)
            problems += check_delta(cf.delta, exp["tail"], exp["energy"])
            return problems + check_sandwich(ests, truths, CLI_BATCH_EPS)
        if tag == "km":  # every reduce of a k-means stream is a sample with offset 0
            problems += check_delta(cf.delta, 0.0, exp["energy"])
        if tag == "sub" and cf.m != subspace_size(CLI_N, CLI_D, 1, CLI_EPS):
            problems.append(f"size {cf.m} != {subspace_size(CLI_N, CLI_D, 1, CLI_EPS)}")
        problems += check_weights(cf.weights, 1.0, exact=tag == "sub")
        return problems + check_band(ests, truths, 3 * CLI_EPS)

    def round(self, r: int) -> list[Build]:
        builds = []
        for tag, argv in self.commands(self.csv, _derived_seed(self.seed, r)):
            grid, truths = (self.grid_km, self.truths_km) if tag == "km" else (self.grid_sub, self.truths_sub)
            # the subspace commands are the same every round: each round reruns round 0's
            key = tag if tag != "km" else ("km0" if r == 0 else None)
            builds.append(self._build(tag, argv, grid, truths, key))
        return builds

    def _build(self, tag, argv, grid, truths, key) -> Build:
        path = argv[-1]
        exp = self.exp_batch
        state = {}

        def load(_):
            with open(path, "rb") as fh:
                state["data"] = fh.read()
            if key is not None:
                state["first"] = self.first_bytes.setdefault(key, state["data"])
            return cli.read_coreset_file(path)

        return Build(
            label=" ".join(argv[:3]),
            rows=CLI_N,
            run=lambda: self.main(argv),
            grid=grid,
            truths=truths,
            load=load,
            coreset=lambda cf: cf.to_coreset(),
            check=lambda cf, ests: self.check(
                tag, cf, ests, truths(), exp(), state.get("first"), state["data"]
            ),
        )

    def finish(self, builds: list[Build]) -> list[str]:
        """A rerun of round 0's randomized stream command gives a byte-identical file."""
        argv = self.commands(self.csv, _derived_seed(self.seed, 0))[0][1]
        self.main(argv)
        with open(argv[-1], "rb") as fh:
            if fh.read() != self.first_bytes.get("km0"):
                return ["rerun of the k-means stream command wrote a different file"]
        return []


def make(name: str, seed: int, workdir: str):
    return {"pca-batch": PcaBatch, "kmeans-batch": KMeansBatch, "cli-stream": CliStream}[name](seed, workdir)
