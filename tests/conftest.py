"""Shared helpers: data generators, query samplers and independent cost oracles.

The oracles here deliberately avoid the library's evaluation code paths:
costs are computed per point from the raw definition so that library results
are checked against an independent route.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from tinycore import CenterSet, PointSet, Subspace

# Property tests draw the same examples on every run and keep none between
# runs; each test still sets its own max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def rand_orthonormal(rng: np.random.Generator, d: int, j: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, j)))
    return q


def rand_subspace(rng: np.random.Generator, d: int, j: int, affine: bool = False) -> Subspace:
    offset = rng.standard_normal(d) if affine else None
    return Subspace(basis=rand_orthonormal(rng, d, j), offset=offset)


def make_blobs(
    rng: np.random.Generator, n: int, d: int, k: int, spread: float = 6.0, std: float = 1.0
) -> np.ndarray:
    centers = spread * rng.standard_normal((k, d))
    idx = rng.integers(0, k, n)
    return centers[idx] + std * rng.standard_normal((n, d))


def oracle_cost_centers(rows: np.ndarray, weights, centers: np.ndarray) -> float:
    """Per-point loop over the raw definition: w_i * min_c ||p_i - c||^2."""
    rows = np.atleast_2d(rows)
    if weights is None:
        weights = np.ones(rows.shape[0])
    total = 0.0
    for p, w in zip(rows, weights):
        best = min(float(np.sum((p - c) ** 2)) for c in np.atleast_2d(centers))
        total += w * best
    return total


def oracle_cost_subspace(rows: np.ndarray, weights, shape: Subspace) -> float:
    """Distance via the explicit orthogonal complement, not via Pythagoras."""
    rows = np.atleast_2d(rows)
    d = rows.shape[1]
    if weights is None:
        weights = np.ones(rows.shape[0])
    basis = np.asarray(shape.basis)
    u, s, _ = np.linalg.svd(np.eye(d) - basis @ basis.T)
    y = u[:, s > 1e-9]
    pts = rows if shape.offset is None else rows - np.asarray(shape.offset)[None, :]
    total = 0.0
    for p, w in zip(pts, weights):
        total += w * float(np.sum((p @ y) ** 2))
    return total


def oracle_cost(rows: np.ndarray, weights, shape) -> float:
    if isinstance(shape, CenterSet):
        return oracle_cost_centers(rows, weights, np.asarray(shape.centers))
    return oracle_cost_subspace(rows, weights, shape)


def estimate_cost(core, shape) -> float:
    """Coreset estimate computed from raw arrays, independent of coreset_cost."""
    rows = np.asarray(core.points)
    w = np.asarray(core.weights)
    if isinstance(shape, CenterSet):
        return oracle_cost_centers(rows, w, np.asarray(shape.centers)) + core.delta
    return oracle_cost_subspace(rows, w, shape) + core.delta


def center_grid(
    rng: np.random.Generator, rows: np.ndarray, k: int, count: int
) -> list[CenterSet]:
    """Candidate center sets: data-derived, random, and adversarially far away."""
    from tinycore import lloyd_solve

    n, d = rows.shape
    grids: list[CenterSet] = []
    for seed in range(min(5, count)):
        grids.append(lloyd_solve(PointSet(rows), k, seed=seed))
    scale = float(np.abs(rows).max()) + 1.0
    while len(grids) < count:
        r = len(grids)
        if r % 10 == 9:
            far = scale * 50.0 * rng.standard_normal((k, d))
            grids.append(CenterSet(far))
        elif r % 2 == 0:
            grids.append(CenterSet(scale * rng.standard_normal((k, d))))
        else:
            sample = rows[rng.integers(0, n, k)] + 0.5 * rng.standard_normal((k, d))
            grids.append(CenterSet(sample))
    return grids


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
