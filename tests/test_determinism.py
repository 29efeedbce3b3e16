"""k-means outputs are byte-deterministic: reruns, stdin against a file, and
one BLAS thread against the default give the same bytes; and the Lloyd and
Bregman solvers keep bytes pinned by hash.

The CLI cases run the commands of the CI's console-script step on the same
generated inputs: reruns and stdin runs in-process through
:func:`tinycore.cli.main`, thread-count pairs in a child process started by
:func:`test_cli.run_cli` with ``OPENBLAS_NUM_THREADS=1``.
"""
import hashlib
import io
import sys

import numpy as np
import pytest

from tinycore import PointSet, lloyd_solve
from tinycore.bregman import bregman_coreset, mahalanobis, squared_euclidean
from tinycore.cli import main

from test_cli import run_cli


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """cli.csv (5000 x 4) and blocks.csv (13000 x 6, four 4096-row blocks), as the CI makes them."""
    where = tmp_path_factory.mktemp("inputs")
    np.savetxt(where / "cli.csv", np.random.default_rng(0).standard_normal((5000, 4)) + 3.0, delimiter=",")
    g = np.random.default_rng(0)
    blocks = g.standard_normal((8, 6))[g.integers(0, 8, 13000)] * 4 + g.standard_normal((13000, 6))
    np.savetxt(where / "blocks.csv", blocks, delimiter=",")
    return where


STREAM = ["stream", "--kind", "kmeans", "--k", "3", "--epsilon", "0.5", "--seed", "1"]
SOLVE = {
    "cli.csv": ["solve", "kmeans", "--k", "3", "--epsilon", "0.5", "--seed", "1"],
    "blocks.csv": ["solve", "kmeans", "--k", "5", "--epsilon", "0.5", "--seed", "1"],
}


def run(argv, out, capsys):
    code = main([*argv, "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 0, err
    return out.read_bytes()


def run_one_thread(argv, out):
    proc = run_cli([*argv, "-o", str(out)], env={"OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


class TestStreamKmeans:
    def test_rerun_stdin_and_one_thread_give_the_same_bytes(self, inputs, tmp_path, capsys, monkeypatch):
        data = inputs / "cli.csv"
        first = run([*STREAM, str(data)], tmp_path / "st1.cs", capsys)
        assert run([*STREAM, str(data)], tmp_path / "st2.cs", capsys) == first
        # at --checkpoint 1 every extend takes one row, the path of insert
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data.read_bytes())))
        assert run([*STREAM, "--checkpoint", "1", "-"], tmp_path / "st_stdin.cs", capsys) == first
        assert run_one_thread([*STREAM, str(data)], tmp_path / "st1t.cs") == first


class TestSolveKmeans:
    @pytest.mark.parametrize("name", sorted(SOLVE))
    def test_rerun_and_one_thread_give_the_same_bytes(self, inputs, tmp_path, capsys, name):
        argv = [*SOLVE[name], str(inputs / name)]
        first = run(argv, tmp_path / "centers.csv", capsys)
        assert run(argv, tmp_path / "centers2.csv", capsys) == first
        assert run_one_thread(argv, tmp_path / "centers1t.csv") == first


def dyadic_blobs(n, shift=0.0):
    """n rows about 4 centers in 3 columns, every entry a multiple of 1/16:
    the rows, their sums and the mapped rows below are exact, so the bytes
    pinned here depend on no BLAS kernel."""
    i = np.arange(n)
    centers = np.array([[0.0, 0.0, 0.0], [24.0, 8.0, -16.0], [-16.0, 24.0, 8.0], [8.0, -24.0, 24.0]])
    noise = np.column_stack([(i * 13) % 17 - 8, (i * 11) % 19 - 9, (i * 5) % 23 - 11]) / 16.0
    return centers[i % 4] + noise + shift


def dyadic_weights(n):
    return 1.0 + (np.arange(n) % 4) / 4.0


def md5(*arrays):
    h = hashlib.md5()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# a permutation scaled by powers of 2: each mapped entry is one exact product
PERMUTED = np.array([[0.0, 2.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])


class TestPinnedBytes:
    """Lloyd solves and Bregman coresets keep their bytes, pinned by hash: a
    change to the bicriteria solution or to the sampler must not move them.
    The outputs are means over partitions of well-separated blobs, and the
    partitions do not move with the last bits of a distance."""

    @pytest.mark.parametrize("case, k, seed, expected", [
        ("plain", 4, 1, "6a75098951ea2bf2b4e7830b182f721e"),
        ("weighted-shifted", 4, 2, "cdb266e5f2c3cc8795c35b2031848333"),
        # 4 distinct rows for 6 centers: the seeding repeats its first draw and
        # the Lloyd steps reseed the empty clusters
        ("duplicates", 6, 3, "220875e0fc5146d23a9af63dd4593c4f"),
    ])
    def test_lloyd_solve(self, case, k, seed, expected):
        rows = dyadic_blobs(400, shift=1024.0 if case == "weighted-shifted" else 0.0)
        w = dyadic_weights(400) if case == "weighted-shifted" else None
        if case == "duplicates":
            rows = rows[np.arange(400) % 4]
        assert md5(lloyd_solve(PointSet(rows, w), k, seed).centers) == expected

    @pytest.mark.parametrize("div, seed, expected", [
        ("squared_euclidean", 0, "95cd05bf2019287759fba1f503bac1c1"),
        ("squared_euclidean", 4, "d9b0e7cfd4edd8245070516b8c7cfb61"),
        ("mahalanobis", 0, "631b2850a008b26a8441eba1c1a55f1f"),
        ("mahalanobis", 4, "559a60a6db728ce1140e8aa2c8150628"),
    ])
    def test_bregman_coreset(self, div, seed, expected):
        divergence = squared_euclidean() if div == "squared_euclidean" else mahalanobis(PERMUTED)
        # f1 is about 0.0035 at eps = 0.5, so every split is kept: one leaf per row
        cs = bregman_coreset(PointSet(dyadic_blobs(400), dyadic_weights(400)), 3, 0.5, divergence, seed=seed)
        assert md5(cs.points, cs.weights, [cs.delta]) == expected
