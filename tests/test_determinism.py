"""CLI outputs are byte-deterministic: reruns, stdin against a file, a
reformatted twin of a file, and one BLAS thread against the default give the
same bytes; eval passes and exit codes hold; and the Lloyd and Bregman
solvers and the queries keep bytes pinned by hash.

The CLI cases run on generated inputs: reruns, eval and stdin runs
in-process through :func:`tinycore.cli.main`, thread-count pairs in a child
process started by :func:`test_cli.run_cli` with ``OPENBLAS_NUM_THREADS=1``.
"""
import hashlib
import io
import re
import sys

import numpy as np
import pytest

from tinycore import CenterSet, Coreset, PointSet, Subspace, coreset_cost, dist2, lloyd_solve
from tinycore.bregman import bregman_coreset, mahalanobis, squared_euclidean
from tinycore.cli import main, read_coreset_binary
from tinycore.linalg import dist2_rows

from test_cli import run_cli


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """cli.csv (5000 x 4); rows30.csv, its first 30 lines; twin.csv, cli.csv with
    CRLF ends, blank and `#` lines, and `_` in the digits from row 3000 on (its
    blocks take numpy's C reader or, for those rows, the per-line float() loop);
    blocks.csv (13000 x 6, four 4096-row blocks); wide.csv (2000 x 96, a decaying
    scale); pca.csv (4000 x 30, a decaying spectrum)."""
    where = tmp_path_factory.mktemp("inputs")
    np.savetxt(where / "cli.csv", np.random.default_rng(0).standard_normal((5000, 4)) + 3.0, delimiter=",")
    lines = (where / "cli.csv").read_text().splitlines()
    (where / "rows30.csv").write_text("".join(line + "\n" for line in lines[:30]))
    (where / "twin.csv").write_bytes("".join(
        ("# rows from %d\r\n\r\n" % i if i % 2500 == 0 else "")
        + (re.sub(r"\.(\d)", r".\1_", line) if i >= 3000 else line) + "\r\n"
        for i, line in enumerate(lines)
    ).encode())
    g = np.random.default_rng(0)
    blocks = g.standard_normal((8, 6))[g.integers(0, 8, 13000)] * 4 + g.standard_normal((13000, 6))
    np.savetxt(where / "blocks.csv", blocks, delimiter=",")
    wide = np.random.default_rng(0).standard_normal((2000, 96)) * np.linspace(3.0, 0.1, 96) + 1.0
    np.savetxt(where / "wide.csv", wide, delimiter=",")
    pca = np.random.default_rng(0).standard_normal((4000, 30)) * 0.8 ** np.arange(30) + 2.0
    np.savetxt(where / "pca.csv", pca, delimiter=",")
    return where


STREAM = ["stream", "--kind", "kmeans", "--k", "3", "--epsilon", "0.5", "--seed", "1"]
SOLVE = {
    "cli.csv": ["solve", "kmeans", "--k", "3", "--epsilon", "0.5", "--seed", "1"],
    "blocks.csv": ["solve", "kmeans", "--k", "5", "--epsilon", "0.5", "--seed", "1"],
}


COMMANDS = {
    "linear": ["coreset", "subspace", "--j", "2", "--epsilon", "0.5"],
    "affine": ["coreset", "subspace", "--j", "2", "--epsilon", "0.5", "--affine"],
    "solve-affine": ["solve", "affine", "--j", "2", "--epsilon", "0.5", "--seed", "1"],
}


def subspace_stream(kind, j=2, eps="0.5"):
    return ["stream", "--kind", kind, "--j", str(j), "--epsilon", eps, "--seed", "1"]


def run(argv, out, capsys):
    code = main([*argv, "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 0, err
    return out.read_bytes()


def from_stdin(monkeypatch, path):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes())))


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
        from_stdin(monkeypatch, data)
        assert run([*STREAM, "--checkpoint", "1", "-"], tmp_path / "st_stdin.cs", capsys) == first
        assert run_one_thread([*STREAM, str(data)], tmp_path / "st1t.cs") == first


class TestStdin:
    @pytest.mark.parametrize("argv", [
        COMMANDS["linear"],
        ["coreset", "kmeans", "--small", "--k", "3", "--epsilon", "0.5", "--seed", "1"],
        SOLVE["cli.csv"],
    ], ids=["coreset-subspace", "coreset-kmeans-small", "solve-kmeans"])
    def test_dash_gives_the_bytes_of_the_file(self, inputs, tmp_path, capsys, monkeypatch, argv):
        data = inputs / "cli.csv"
        first = run([*argv, str(data)], tmp_path / "file", capsys)
        from_stdin(monkeypatch, data)
        assert run([*argv, "-"], tmp_path / "stdin", capsys) == first

    def test_eval_prints_the_same_lines_with_its_data_on_stdin(self, inputs, tmp_path, capsys, monkeypatch):
        data, core = inputs / "cli.csv", tmp_path / "core.cs"
        run([*COMMANDS["linear"], str(data)], core, capsys)
        argv = ["--query-kind", "subspace", "--j", "2", "--count", "20", "--epsilon", "0.5", "--seed", "1"]
        printed = []
        for source in (str(data), "-"):
            from_stdin(monkeypatch, data)
            code = main(["eval", str(core), source, *argv])
            printed.append(capsys.readouterr())
            assert code == 0, printed[-1].err
        assert printed[1].out == printed[0].out and printed[0].out.endswith("PASS\n")


class TestSolveKmeans:
    @pytest.mark.parametrize("name", sorted(SOLVE))
    def test_rerun_and_one_thread_give_the_same_bytes(self, inputs, tmp_path, capsys, name):
        argv = [*SOLVE[name], str(inputs / name)]
        first = run(argv, tmp_path / "centers.csv", capsys)
        assert run(argv, tmp_path / "centers2.csv", capsys) == first
        assert run_one_thread(argv, tmp_path / "centers1t.csv") == first


class TestSubspaceCommands:
    @pytest.mark.parametrize("kind", ["linear", "affine"])
    def test_eval_passes_on_the_coreset(self, inputs, tmp_path, capsys, kind):
        data, out = inputs / "cli.csv", tmp_path / "core.cs"
        run([*COMMANDS[kind], str(data)], out, capsys)
        query = "subspace" if kind == "linear" else "affine"
        code = main(["eval", str(out), str(data), "--query-kind", query, "--j", "2",
                     "--count", "20", "--epsilon", "0.5", "--seed", "1"])
        printed = capsys.readouterr()
        assert code == 0 and printed.out.endswith("PASS\n"), printed.err

    def test_exact_affine_coreset_and_solve_keep_their_bytes_at_one_thread(self, inputs, tmp_path, capsys):
        # m = 5 reaches d = 4: the affine coreset is the TSQR factor R, no SVD;
        # the solve prints the cost of its subspace on the data
        data = inputs / "cli.csv"
        for kind in ("affine", "solve-affine"):
            first = run([*COMMANDS[kind], str(data)], tmp_path / "first", capsys)
            assert run([*COMMANDS[kind], str(data)], tmp_path / "again", capsys) == first
            assert run_one_thread([*COMMANDS[kind], str(data)], tmp_path / "one") == first

    def test_twin_and_stdin_give_the_bytes_of_the_file(self, inputs, tmp_path, capsys, monkeypatch):
        data, twin = inputs / "cli.csv", inputs / "twin.csv"
        for argv in (COMMANDS["linear"], subspace_stream("subspace")):
            first = run([*argv, str(data)], tmp_path / "file", capsys)
            assert run([*argv, str(twin)], tmp_path / "twin", capsys) == first
        # stdin, extended up to every 37th row: reduces do not see the cuts
        for kind in ("subspace", "affine"):
            first = run([*subspace_stream(kind), str(data)], tmp_path / "file", capsys)
            from_stdin(monkeypatch, data)
            assert run([*subspace_stream(kind), "--checkpoint", "37", "-"], tmp_path / "stdin", capsys) == first

    @pytest.mark.parametrize("kind", ["subspace", "affine"])
    def test_wide_streams_drop_energy_with_the_same_bytes(self, inputs, tmp_path, capsys, monkeypatch, kind):
        # 96 columns against level sizes of 10 h (eps = 1): reduces drop energy, so offsets are nonzero
        data, argv, out = inputs / "wide.csv", subspace_stream(kind, 1, "1.0"), tmp_path / "wide.cs"
        assert main([*argv, str(data), "-o", str(out)]) == 0
        assert re.search(r"delta=[^,]*[1-9][^,]*,", capsys.readouterr().out)
        assert read_coreset_binary(str(out)).delta > 0
        first = out.read_bytes()
        from_stdin(monkeypatch, data)
        assert run([*argv, "--checkpoint", "37", "-"], tmp_path / "wide_stdin.cs", capsys) == first
        assert run_one_thread([*argv, str(data)], tmp_path / "wide_1t.cs") == first

    @pytest.mark.parametrize("argv", [
        COMMANDS["linear"], COMMANDS["affine"], COMMANDS["solve-affine"],
        # level sizes of 41 rows and more reach d = 30: every reduce keeps R, only the final query cuts
        subspace_stream("affine"),
    ], ids=["linear", "affine", "solve-affine", "stream-affine"])
    def test_pca_outputs_keep_their_bytes_at_one_thread(self, inputs, tmp_path, capsys, argv):
        # 30 columns: each TSQR leaf takes its R by CholeskyQR2 from its Gram matrix
        data = inputs / "pca.csv"
        first = run([*argv, str(data)], tmp_path / "out", capsys)
        assert run_one_thread([*argv, str(data)], tmp_path / "one") == first


class TestExitCodes:
    def test_more_centers_than_rows_exits_1_and_writes_nothing(self, inputs, tmp_path, capsys):
        out = tmp_path / "km.cs"
        argv = ["stream", "--kind", "kmeans", "--k", "50", "--epsilon", "0.5", "--seed", "1"]
        assert main([*argv, str(inputs / "rows30.csv"), "-o", str(out)]) == 1
        assert not out.exists()

    def test_a_binary_solution_exits_2_and_writes_nothing(self, inputs, tmp_path, capsys):
        # solve has no --format: the parser exits with the usage code
        out = tmp_path / "sol.bin"
        with pytest.raises(SystemExit) as exit_:
            main([*SOLVE["cli.csv"], "--format", "binary", str(inputs / "cli.csv"), "-o", str(out)])
        assert exit_.value.code == 2 and "--format" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("small", [False, True], ids=["plain", "small"])
    def test_eval_passes_on_the_kmeans_coreset(self, inputs, tmp_path, capsys, small):
        # at default constants the coreset of 5000 rows is the exact fallback
        data, out = inputs / "cli.csv", tmp_path / "km.cs"
        argv = ["coreset", "kmeans", "--k", "3", "--epsilon", "0.5", "--seed", "1"]
        run([*argv, *(["--small"] if small else []), str(data)], out, capsys)
        code = main(["eval", str(out), str(data), "--query-kind", "centers", "--k", "3",
                     "--count", "20", "--epsilon", "0.5", "--seed", "1"])
        printed = capsys.readouterr()
        assert code == 0 and printed.out.endswith("PASS\n"), printed.err


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


# identity columns, dyadic offsets and centers: every query below is exact
QUERY_SHAPES = {
    "linear": Subspace(basis=np.eye(3)[:, :2]),
    "affine": Subspace(basis=np.eye(3)[:, 1:], offset=[1.5, -2.25, 0.75]),
    "centers": CenterSet([[0.5, -0.25, 0.0], [24.0, 8.5, -16.0], [-16.25, 24.0, 8.0]]),
}


class TestPinnedBytes:
    """Lloyd solves, Bregman coresets and queries keep their bytes, pinned by
    hash: a change to the bicriteria solution, the sampler or the query path
    must not move them.  The Lloyd and Bregman outputs are means over
    partitions of well-separated blobs, and the partitions do not move with
    the last bits of a distance.  The queries run on 256 rows, so the frame's
    mean is exact too."""

    @pytest.mark.parametrize("name, per_row, cost, core_cost", [
        ("linear", "c58196123b935ada6fcb5dc82917b0a5", "0x1.645d434000000p+16", "0x1.645e034000000p+16"),
        ("affine", "832340cb6d9756679a4a9198b3d82944", "0x1.24269b0000000p+16", "0x1.24275b0000000p+16"),
        ("centers", "21b2085ba502fbb3224d00485d4657e1", "0x1.064339c000000p+17", "0x1.064399c000000p+17"),
    ])
    def test_query(self, name, per_row, cost, core_cost):
        rows, w, shape = dyadic_blobs(256), dyadic_weights(256), QUERY_SHAPES[name]
        for order in ("C", "F"):
            assert md5(dist2_rows(np.asarray(rows, order=order), shape)) == per_row
        assert dist2(PointSet(rows, w), shape).hex() == cost
        assert coreset_cost(Coreset(rows, w, 0.75), shape).hex() == core_cost

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
