import io
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tinycore
from tinycore import cli
from tinycore.cli import (
    CoresetFile,
    load_points,
    main,
    read_coreset_binary,
    read_coreset_csv,
    read_coreset_file,
    write_coreset_binary,
    write_coreset_csv,
)
from tinycore.streaming import CoresetStream, StreamConfig

from conftest import make_blobs


# The directory holding the imported package, put first on the child's
# PYTHONPATH so that it runs this tinycore whatever its cwd and however the
# test process found the package (a relative PYTHONPATH, an install, ...).
PACKAGE_ROOT = str(Path(tinycore.__file__).resolve().parents[1])


def run_cli(args, text=True, env=None, **kwargs):
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "tinycore.cli", *args],
        capture_output=True,
        text=text,
        env=env,
        **kwargs,
    )


@pytest.fixture
def data_csv(tmp_path, rng):
    rows = make_blobs(rng, 300, 4, 3)
    path = tmp_path / "in.csv"
    np.savetxt(path, rows, delimiter=",", fmt="%.12g")
    return str(path), rows


class TestSerialization:
    def make_file(self, rng):
        return CoresetFile(
            n_source=100,
            delta=1.25,
            eps=0.5,
            seed=7,
            kind="kmeans",
            construction="kmeans",
            points=rng.standard_normal((9, 5)),
            weights=rng.uniform(1.0, 3.0, 9),
        )

    def test_binary_round_trip_bit_exact(self, tmp_path, rng):
        cf = self.make_file(rng)
        path = str(tmp_path / "c.cs")
        write_coreset_binary(path, cf)
        back = read_coreset_binary(path)
        assert back.n_source == cf.n_source
        assert back.delta == cf.delta  # bit-exact
        assert back.eps == cf.eps
        assert back.kind == cf.kind and back.construction == cf.construction
        np.testing.assert_array_equal(back.points, cf.points)
        np.testing.assert_array_equal(back.weights, cf.weights)

    def test_binary_load_is_shared_by_its_coreset(self, tmp_path, rng):
        cf = self.make_file(rng)
        path, again = str(tmp_path / "c.cs"), str(tmp_path / "again.cs")
        write_coreset_binary(path, cf)
        back = read_coreset_binary(path)
        for a in (back.points, back.weights):
            assert not a.flags.writeable
        core = back.to_coreset()
        assert core.points is back.points and core.weights is back.weights
        assert np.shares_memory(core.points, back.points)
        # a loaded file writes back the bytes it was read from
        write_coreset_binary(again, back)
        assert Path(again).read_bytes() == Path(path).read_bytes()

    def test_csv_round_trip(self, tmp_path, rng):
        cf = self.make_file(rng)
        path = str(tmp_path / "c.csv")
        write_coreset_csv(path, cf)
        back = read_coreset_csv(path)
        np.testing.assert_allclose(back.points, cf.points, atol=1e-12)
        np.testing.assert_allclose(back.weights, cf.weights, atol=1e-12)
        assert back.delta == cf.delta

    def test_format_sniffing(self, tmp_path, rng):
        cf = self.make_file(rng)
        b = str(tmp_path / "b.cs")
        c = str(tmp_path / "c.csv")
        write_coreset_binary(b, cf)
        write_coreset_csv(c, cf)
        assert read_coreset_file(b).m == 9
        assert read_coreset_file(c).m == 9


class TestCoresetCommand:
    def test_subspace_size_formula(self, tmp_path, data_csv):
        path, _ = data_csv
        out = str(tmp_path / "s.cs")
        code = main(["coreset", "subspace", "--j", "2", "--epsilon", "0.5", path, "-o", out])
        assert code == 0
        cf = read_coreset_file(out)
        assert cf.m == min(300, 4, 2 + 4 - 1)  # capped by d here

    def test_subspace_size_formula_wide(self, tmp_path, rng):
        rows = rng.standard_normal((100, 30))
        path = str(tmp_path / "wide.csv")
        np.savetxt(path, rows, delimiter=",", fmt="%.10g")
        out = str(tmp_path / "s.cs")
        assert main(["coreset", "subspace", "--j", "2", "--epsilon", "0.5", path, "-o", out]) == 0
        assert read_coreset_file(out).m == 5

    def test_kmeans_writes_zero_delta(self, tmp_path, data_csv):
        path, _ = data_csv
        out = str(tmp_path / "k.cs")
        code = main([
            "coreset", "kmeans", "--k", "3", "--epsilon", "0.5", "--delta", "0.1",
            "--seed", "7", path, "-o", out,
        ])
        assert code == 0
        cf = read_coreset_file(out)
        assert cf.delta == 0.0
        assert cf.seed == 7

    def test_empty_input_exits_1(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["coreset", "subspace", "--j", "1", "--epsilon", "0.5", str(empty)])
        assert code == 1

    def test_usage_error_exits_2(self):
        proc = run_cli(["coreset", "kmeans", "--epsilon", "0.5", "missing.csv"])
        assert proc.returncode == 2, proc.stderr
        assert "usage:" in proc.stderr

    def test_byte_identical_reruns(self, tmp_path, data_csv):
        # at default constants `coreset kmeans` returns its input; the stream's
        # reduces sample, and `solve kmeans` runs the Lloyd solver
        path, _ = data_csv
        a, b = str(tmp_path / "a.cs"), str(tmp_path / "b.cs")
        for argv in (
            ["coreset", "kmeans", "--k", "3", "--epsilon", "0.5", "--delta", "0.1", "--seed", "7", path],
            ["stream", "--kind", "kmeans", "--k", "3", "--epsilon", "0.5", "--seed", "7", path],
            ["solve", "kmeans", "--k", "3", "--epsilon", "0.5", "--seed", "7", path],
        ):
            assert main(argv + ["-o", a]) == 0
            assert main(argv + ["-o", b]) == 0
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()


    @pytest.mark.parametrize("affine", [False, True])
    def test_subspace_bytes_do_not_depend_on_blas_threads(self, tmp_path, affine):
        # 20000 rows are five TSQR blocks; smaller inputs (9000x24, 12000x40)
        # gave the same bytes at both thread counts even with LAPACK's
        # one-call SVD, so they would not show a difference
        rows = np.random.default_rng(20).standard_normal((20000, 32))
        path = tmp_path / "in.csv"
        np.savetxt(path, rows, delimiter=",", fmt="%.12g")
        argv = ["coreset", "subspace", "--j", "2", "--epsilon", "0.5", str(path)] + (["--affine"] if affine else [])
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.cs"
            env = {name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            proc = run_cli(argv + ["-o", str(out)], env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_subspace_byte_identical_reruns(self, tmp_path, data_csv):
        path, _ = data_csv
        a, b = str(tmp_path / "a.cs"), str(tmp_path / "b.cs")
        argv = ["coreset", "subspace", "--j", "2", "--epsilon", "0.5", path]
        assert main(argv + ["-o", a]) == 0
        assert main(argv + ["-o", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_affine_matches_library(self, tmp_path, rng, weighted):
        rows = make_blobs(rng, 400, 5, 3) + 3.0
        w = rng.uniform(0.5, 4.0, 400)
        path = str(tmp_path / "in.csv")
        np.savetxt(path, np.column_stack([rows, w]) if weighted else rows, delimiter=",", fmt="%.17g")
        out = str(tmp_path / "a.cs")
        argv = ["coreset", "subspace", "--affine", "--j", "2", "--epsilon", "0.5", path, "-o", out]
        assert main(argv + (["--weighted"] if weighted else [])) == 0
        cf = read_coreset_file(out)
        if weighted:
            want = tinycore.affine_subspace_coreset_weighted(tinycore.PointSet(rows, w), 2, 0.5)
        else:
            want = tinycore.affine_subspace_coreset(tinycore.PointSet(rows), 2, 0.5)
        assert cf.kind == cf.construction == "affine"
        np.testing.assert_array_equal(cf.points, want.points)
        np.testing.assert_array_equal(cf.weights, want.weights)
        assert cf.delta == want.delta

    def test_zero_total_weight_kmeans_exits_1(self, tmp_path, rng):
        path = tmp_path / "zero.csv"
        np.savetxt(path, np.column_stack([rng.standard_normal((50, 3)), np.zeros(50)]), delimiter=",")
        proc = run_cli([
            "coreset", "kmeans", "--k", "2", "--epsilon", "0.5", "--seed", "1",
            "--weighted", str(path), "-o", str(tmp_path / "k.cs"),
        ])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: total weight must be positive"), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("seed", range(6))
    def test_kmeans_on_rows_of_weight_0_exits_0(self, tmp_path, capsys, seed):
        # three rows of weight 1 at -2 and two of weight 0: every seed repeats the
        # first draw, so one ulp of rounding in a seed can leave the rows of
        # weight 0 alone in its cluster
        path = tmp_path / "w.csv"
        path.write_text("-2,1\n-2,1\n-2,1\n-1,0\n1,0\n")
        out = tmp_path / "k.cs"
        code = main([
            "coreset", "kmeans", "--weighted", "--k", "3", "--epsilon", "0.5", "--delta", "0.5",
            "--seed", str(seed), str(path), "-o", str(out),
        ])
        assert code == 0, capsys.readouterr().err
        cf = read_coreset_file(str(out))
        np.testing.assert_array_equal(cf.weights, [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_ragged_csv_exits_1_with_line(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("1,2,3\n4,5\n")
        code = main(["coreset", "subspace", "--j", "1", "--epsilon", "0.5", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "points.csv:2: expected 3 columns, got 2" in err

    def test_svd_failure_exits_1_without_traceback(self, tmp_path, data_csv, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        path, _ = data_csv
        out = str(tmp_path / "s.cs")
        # m = 2 of 4 columns: the build cuts directions, so it takes an SVD
        code = main(["coreset", "subspace", "--j", "1", "--epsilon", "0.5", path, "-o", out])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "did not converge" in err
        assert "Traceback" not in err

    def test_qr_failure_of_an_exact_build_exits_1_without_traceback(
        self, tmp_path, data_csv, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("QR did not converge")

        monkeypatch.setattr(np.linalg, "qr", fail)
        path, _ = data_csv
        out = tmp_path / "s.cs"
        # m = 4 of 4 columns: the build keeps every direction, its rows are R
        code = main(["coreset", "subspace", "--j", "2", "--epsilon", "0.5", path, "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: QR factorization failed") and "did not converge" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("affine", [False, True], ids=["subspace", "affine"])
    def test_subspace_infinite_epsilon_exits_1(self, tmp_path, data_csv, capsys, affine):
        path, _ = data_csv
        out = tmp_path / "o.cs"
        argv = ["coreset", "subspace", "--j", "1", "--epsilon", "inf", path, "-o", str(out)]
        assert main(argv + ["--affine"] * affine) == 1
        assert capsys.readouterr().err == "error: eps must be finite and positive\n"
        assert not out.exists()


class TestEvalCommand:
    def test_identity_coreset_all_ratios_one(self, tmp_path, data_csv, capsys):
        path, rows = data_csv
        cf = CoresetFile(
            n_source=rows.shape[0], delta=0.0, eps=0.5, seed=0, kind="kmeans",
            construction="identity", points=rows, weights=np.ones(rows.shape[0]),
        )
        cpath = str(tmp_path / "id.cs")
        write_coreset_binary(cpath, cf)
        code = main([
            "eval", cpath, path, "--query-kind", "centers", "--k", "3",
            "--count", "25", "--epsilon", "0.5", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "max_dev=0.000000" in out

    def test_subspace_coreset_passes(self, tmp_path, data_csv):
        path, _ = data_csv
        out = str(tmp_path / "s.cs")
        main(["coreset", "subspace", "--j", "2", "--epsilon", "0.5", path, "-o", out])
        code = main([
            "eval", out, path, "--query-kind", "subspace", "--j", "2",
            "--count", "100", "--epsilon", "0.5", "--seed", "5",
        ])
        assert code == 0

    def test_weighted_linear_coreset_passes(self, tmp_path, rng, capsys):
        rows = rng.standard_normal((3000, 5)) * [3.0, 2.0, 1.0, 0.5, 0.25] + 1.0
        path = str(tmp_path / "w.csv")
        np.savetxt(path, np.column_stack([rows, rng.uniform(0.5, 4.0, 3000)]), delimiter=",", fmt="%.17g")
        out = str(tmp_path / "s.cs")
        assert main(["coreset", "subspace", "--j", "2", "--epsilon", "0.5", "--weighted", path, "-o", out]) == 0
        capsys.readouterr()
        code = main([
            "eval", out, path, "--weighted", "--query-kind", "subspace", "--j", "2",
            "--count", "100", "--epsilon", "0.5", "--seed", "5",
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_delta_fails(self, tmp_path):
        # one strong direction and a flat tail: the offset carries ~70% of any
        # query's cost, so a 10% delta corruption visibly breaks the bound
        gen = np.random.default_rng(99)
        scale = np.ones(20)
        scale[0] = 3.0
        rows = gen.standard_normal((200, 20)) * scale
        path = str(tmp_path / "g.csv")
        np.savetxt(path, rows, delimiter=",", fmt="%.12g")
        out = str(tmp_path / "s.cs")
        main(["coreset", "subspace", "--j", "1", "--epsilon", "0.5", path, "-o", out])
        eval_args = [
            "--query-kind", "subspace", "--j", "1",
            "--count", "100", "--epsilon", "0.065", "--seed", "5",
        ]
        assert main(["eval", out, path, *eval_args]) == 0  # clean control passes
        cf = read_coreset_file(out)
        corrupted = CoresetFile(
            n_source=cf.n_source, delta=cf.delta * 1.1, eps=cf.eps, seed=cf.seed,
            kind=cf.kind, construction=cf.construction, points=cf.points, weights=cf.weights,
        )
        bad = str(tmp_path / "bad.cs")
        write_coreset_binary(bad, corrupted)
        assert main(["eval", bad, path, *eval_args]) == 1

    @pytest.fixture(scope="class")
    def imbalanced_csv(self, tmp_path_factory):
        """20000 x 10 rows: one cluster of 19840 and four of 40, far from it."""
        gen = np.random.default_rng(0)
        centers = 50.0 * gen.standard_normal((4, 10))
        rows = np.vstack([gen.standard_normal((19840, 10)), *(c + gen.standard_normal((40, 10)) for c in centers)])
        path = tmp_path_factory.mktemp("imbalanced") / "in.csv"
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        return str(path), rows

    @pytest.mark.parametrize(
        "summary, verdict", [("mean", "FAIL"), ("uniform", "FAIL"), ("kmeans", "PASS")]
    )
    def test_center_queries_at_the_data_scale_tell_summaries_apart(
        self, tmp_path, imbalanced_csv, capsys, summary, verdict
    ):
        # queries far outside the data serve every row by about the same
        # center, so they passed a one-point summary; k data rows or D² seeds
        # of them see the small clusters that a summary drops
        path, rows = imbalanced_csv
        n = rows.shape[0]
        if summary == "mean":  # at weight n, with the 1-mean cost as delta
            mean = rows.mean(axis=0)
            points, weights, delta = mean[None], np.array([float(n)]), float(np.sum((rows - mean) ** 2))
        elif summary == "uniform":  # 200 rows at weight n / 200
            picked = np.random.default_rng(1).choice(n, 200, replace=False)
            points, weights, delta = rows[picked], np.full(200, n / 200), 0.0
        else:
            core = tinycore.kmeans_coreset(tinycore.PointSet(rows), 5, 0.5, 0.1, seed=1, sample_size=2000)
            points, weights, delta = np.asarray(core.points), np.asarray(core.weights), core.delta
        cpath = str(tmp_path / "summary.cs")
        write_coreset_binary(cpath, CoresetFile(
            n_source=n, delta=delta, eps=0.5, seed=1, kind="kmeans", construction=summary,
            points=points, weights=weights,
        ))
        code = main([
            "eval", cpath, path, "--query-kind", "centers", "--k", "5",
            "--count", "200", "--epsilon", "0.5", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert out.endswith(f"\n{verdict}\n") and code == (verdict == "FAIL"), out[-200:]

    def test_non_numeric_coreset_csv_exits_1_with_line(self, tmp_path, data_csv, capsys):
        path, _ = data_csv
        cpath = tmp_path / "bad.csv"
        cpath.write_text("# tinycore coreset v1\n1,2,3,4,1\n1,2,abc,4,1\n")
        code = main([
            "eval", str(cpath), path, "--query-kind", "centers", "--k", "2",
            "--count", "5", "--epsilon", "0.5", "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad.csv:3: cannot parse row" in err

    def test_count_below_one_exits_2(self, tmp_path, data_csv, capsys):
        path, rows = data_csv
        cf = CoresetFile(
            n_source=rows.shape[0], delta=0.0, eps=0.5, seed=0, kind="kmeans",
            construction="identity", points=rows, weights=np.ones(rows.shape[0]),
        )
        cpath = str(tmp_path / "id.cs")
        write_coreset_binary(cpath, cf)
        code = main([
            "eval", cpath, path, "--query-kind", "centers", "--k", "2",
            "--count", "0", "--epsilon", "0.5", "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --count must be >= 1")

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0", "-0.5"])
    def test_epsilon_not_finite_and_positive_exits_2_before_reading(self, tmp_path, capsys, eps):
        missing = str(tmp_path / "missing")
        code = main([
            "eval", missing + ".cs", missing + ".csv", "--query-kind", "centers",
            "--epsilon=" + eps, "--seed", "1",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --epsilon must be finite and > 0\n"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exits_2_before_reading(self, tmp_path, capsys, k):
        missing = str(tmp_path / "missing")
        code = main([
            "eval", missing + ".cs", missing + ".csv", "--query-kind", "centers",
            "--k", k, "--epsilon", "0.5", "--seed", "1",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --k must be >= 1\n"

    def test_dimension_mismatch_exits_1(self, tmp_path, data_csv, rng):
        path, _ = data_csv
        cf = CoresetFile(
            n_source=5, delta=0.0, eps=0.5, seed=0, kind="kmeans",
            construction="x", points=rng.standard_normal((5, 7)), weights=np.ones(5),
        )
        cpath = str(tmp_path / "mismatch.cs")
        write_coreset_binary(cpath, cf)
        code = main([
            "eval", cpath, path, "--query-kind", "centers", "--k", "2",
            "--count", "5", "--epsilon", "0.5", "--seed", "1",
        ])
        assert code == 1


class TestStreamCommand:
    def test_stream_matches_batch_within_slack(self, tmp_path, rng, capsys):
        rows = rng.standard_normal((3000, 5))
        path = str(tmp_path / "in.csv")
        np.savetxt(path, rows, delimiter=",", fmt="%.12g")
        sout = str(tmp_path / "st.cs")
        assert main([
            "stream", "--kind", "subspace", "--j", "1", "--epsilon", "0.5",
            "--seed", "2", path, "-o", sout,
        ]) == 0
        code = main([
            "eval", sout, path, "--query-kind", "subspace", "--j", "1",
            "--count", "100", "--epsilon", "0.5", "--seed", "9", "--streamed",
        ])
        assert code == 0

    def test_zero_points_exits_1(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("\n")
        code = main([
            "stream", "--kind", "subspace", "--j", "1", "--epsilon", "0.5",
            "--seed", "2", str(empty),
        ])
        assert code == 1

    def test_missing_kind_parameter_exits_2(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0\n")
        code = main(["stream", "--kind", "subspace", "--epsilon", "0.5", "--seed", "2", str(path)])
        assert code == 2

    def test_stdin_and_checkpoints(self, tmp_path, rng):
        rows = rng.standard_normal((500, 3))
        payload = "\n".join(",".join("%.10g" % v for v in r) for r in rows)
        out = str(tmp_path / "st.cs")
        proc = run_cli(
            ["stream", "--kind", "subspace", "--j", "1", "--epsilon", "0.5",
             "--seed", "1", "-", "-o", out, "--checkpoint", "200"],
            input=payload,
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "checkpoint" in proc.stderr
        checkpoints = [
            line.split()[1] for line in proc.stderr.splitlines() if line.startswith("checkpoint ")
        ]
        assert checkpoints == ["n=200", "n=400"], proc.stderr
        assert read_coreset_file(out).m >= 1

    def test_negative_checkpoint_exits_2(self, tmp_path, rng, capsys):
        path = tmp_path / "x.csv"
        np.savetxt(path, rng.standard_normal((30, 3)), delimiter=",")
        out = tmp_path / "o.cs"
        code = main([
            "stream", "--kind", "subspace", "--j", "1", "--epsilon", "0.5",
            "--seed", "1", str(path), "-o", str(out), "--checkpoint", "-5",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --checkpoint must be >= 0")
        assert "checkpoint n=" not in err
        assert not out.exists()

    def test_malformed_line_skip_or_abort(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nnot,a,number\n3.0,4.0\n")
        out = str(tmp_path / "o.cs")
        args = ["stream", "--kind", "subspace", "--j", "1", "--epsilon", "0.5", "--seed", "1", str(path), "-o", out]
        assert main(args) == 1
        assert main(args + ["--skip-malformed"]) == 0


class TestSolveCommand:
    def test_kmeans_solution_file(self, tmp_path, data_csv):
        path, rows = data_csv
        out = str(tmp_path / "sol.csv")
        code = main(["solve", "kmeans", "--k", "3", "--epsilon", "0.5", "--seed", "1", path, "-o", out])
        assert code == 0
        with open(out) as fh:
            header = fh.readline()
            centers = np.asarray([[float(v) for v in line.split(",")] for line in fh])
        assert "cost=" in header
        assert centers.shape == (3, 4)

    def test_affine_solution_file(self, tmp_path, data_csv):
        path, _ = data_csv
        out = str(tmp_path / "sol.csv")
        code = main(["solve", "affine", "--j", "1", "--epsilon", "0.5", "--seed", "1", path, "-o", out])
        assert code == 0
        text = Path(out).read_text()
        assert "offset," in text and "basis," in text

    def _solve_cost(self, out):
        header = Path(out).read_text().splitlines()[0]
        return float(header.split("cost=")[1].strip())

    def test_single_point_k1_zero_cost(self, tmp_path):
        path = str(tmp_path / "one.csv")
        with open(path, "w") as fh:
            fh.write("3.0,-2.0,1.0\n")
        out = str(tmp_path / "sol.csv")
        assert main(["solve", "kmeans", "--k", "1", "--epsilon", "0.5", "--seed", "1", path, "-o", out]) == 0
        assert self._solve_cost(out) == pytest.approx(0.0, abs=1e-12)

    def test_k_equals_n_zero_cost(self, tmp_path, rng):
        rows = rng.standard_normal((5, 3))
        path = str(tmp_path / "five.csv")
        np.savetxt(path, rows, delimiter=",", fmt="%.12g")
        out = str(tmp_path / "sol.csv")
        assert main(["solve", "kmeans", "--k", "5", "--epsilon", "0.5", "--seed", "1", path, "-o", out]) == 0
        assert self._solve_cost(out) == pytest.approx(0.0, abs=1e-9)

    def test_recovers_separated_clusters(self, tmp_path, rng):
        from tinycore import PointSet, brute_force_kmeans, dist2

        base = 9.0 * np.eye(3, 8)
        rows = np.repeat(base, 4, axis=0) + 0.2 * rng.standard_normal((12, 8))
        path = str(tmp_path / "tiny.csv")
        np.savetxt(path, rows, delimiter=",", fmt="%.12g")
        out = str(tmp_path / "sol.csv")
        assert main(["solve", "kmeans", "--k", "3", "--epsilon", "0.5", "--seed", "1", path, "-o", out]) == 0
        opt = dist2(PointSet(rows), brute_force_kmeans(PointSet(rows), 3))
        assert self._solve_cost(out) <= 1.01 * opt

    def test_affine_writes_the_exact_fit(self, tmp_path, rng):
        # n < d: a reduction to rank m < d would move the fit in its last bits
        from tinycore import best_affine_subspace

        path = str(tmp_path / "wide.csv")
        np.savetxt(path, rng.standard_normal((12, 42)) + 5.0, delimiter=",", fmt="%.17g")
        out = tmp_path / "sol.csv"
        argv = ["solve", "affine", "--j", "2", "--epsilon", "0.5", "--seed", "1", path, "-o", str(out)]
        assert main(argv) == 0
        written = {"offset": [], "basis": []}
        for line in out.read_text().splitlines()[1:]:
            label, *values = line.split(",")
            written[label].append([float(v) for v in values])
        fit = best_affine_subspace(load_points(path, False, False), 2)
        assert np.array_equal(np.array(written["offset"][0]), fit.offset)
        assert np.array_equal(np.array(written["basis"]).T, fit.basis)

    @pytest.mark.parametrize("eps", ["0", "1", "nan", "inf"])
    def test_affine_epsilon_outside_0_1_exits_1(self, tmp_path, data_csv, capsys, eps):
        path, _ = data_csv
        out = tmp_path / "sol.csv"
        argv = ["solve", "affine", "--j", "1", "--epsilon=" + eps, "--seed", "1", path, "-o", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: eps must lie in (0, 1)\n"
        assert not out.exists()

    def test_kmeans_cost_ignores_a_common_shift(self, tmp_path, capsys):
        # multiples of 1/64 below 2^6, so adding 1e7 and writing with repr are exact
        gen = np.random.default_rng(8)
        centers = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 10.0], [0.0, 30.0, -10.0]])
        rows = np.round((np.repeat(centers, 100, axis=0) + 3.0 * gen.standard_normal((300, 3))) * 64) / 64
        printed, costs = [], []
        for shift in (0.0, 1e7):
            path = tmp_path / f"shift{shift:g}.csv"
            path.write_text("".join(",".join(map(repr, row)) + "\n" for row in (rows + shift).tolist()))
            out = str(tmp_path / "sol.csv")
            argv = ["solve", "kmeans", "--k", "3", "--epsilon", "0.5", "--seed", "1", str(path), "-o", out]
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
            costs.append(self._solve_cost(out))
        assert printed[0] == printed[1]
        assert costs[1] == pytest.approx(costs[0], rel=1e-9)


# One bad line of each kind, as bytes, for rows of the given width.
BAD_LINES = {
    "non-numeric": lambda w: b"1," * (w - 1) + b"abc",
    "ragged": lambda w: b"1," * (w - 2) + b"1",
    "nan": lambda w: b"1," * (w - 1) + b"nan",
    "inf": lambda w: b"1," * (w - 1) + b"-inf",
    "0xff": lambda w: b"1," * (w - 1) + b"4\xff5",
}
BAD_LINENO = 5  # after a comment, two good rows and a blank line


def _with_bad_line(rows: np.ndarray, bad: bytes, head: bytes = b"# comment") -> bytes:
    good = [b",".join(b"%.17g" % v for v in row) for row in rows]
    return b"\n".join([head, good[0], good[1], b"", bad, *good[2:]]) + b"\n"


EVAL = ["eval", "{coreset}", "{data}", "--query-kind", "centers", "--k", "1",
        "--count", "3", "--epsilon", "0.5", "--seed", "1"]


class TestMalformedInput:
    COMMANDS = {
        "coreset-subspace": ["coreset", "subspace", "--j", "1", "--epsilon", "0.5", "{data}"],
        "coreset-kmeans": ["coreset", "kmeans", "--k", "2", "--epsilon", "0.5", "--seed", "1", "{data}"],
        "stream-file": ["stream", "--kind", "subspace", "--j", "1", "--epsilon", "0.5", "--seed", "1", "{data}"],
        "stream-stdin": ["stream", "--kind", "kmeans", "--k", "2", "--epsilon", "0.5", "--seed", "1", "-"],
        "eval-data": EVAL,
        "eval-coreset-csv": EVAL,
        "solve-kmeans": ["solve", "kmeans", "--k", "2", "--epsilon", "0.5", "--seed", "1", "{data}"],
    }

    @pytest.mark.parametrize("bad", sorted(BAD_LINES))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_line_exits_1_naming_file_and_line(self, tmp_path, rng, capsys, command, bad):
        rows = rng.standard_normal((20, 3))
        data, coreset = tmp_path / "data.csv", tmp_path / "core.csv"
        if command == "eval-coreset-csv":
            np.savetxt(data, rows, delimiter=",")
            core_rows = np.column_stack([rows, np.ones(20)])
            coreset.write_bytes(_with_bad_line(core_rows, BAD_LINES[bad](4), b"# tinycore coreset v1"))
            where = f"{coreset}:{BAD_LINENO}:"
        else:
            data.write_bytes(_with_bad_line(rows, BAD_LINES[bad](3)))
            write_coreset_binary(str(coreset), CoresetFile(
                n_source=20, delta=0.0, eps=0.5, seed=0, kind="kmeans", construction="x",
                points=rows, weights=np.ones(20),
            ))
            where = f"{data}:{BAD_LINENO}:"
        argv = [a.format(data=data, coreset=coreset) for a in self.COMMANDS[command]]
        argv += ["-o", str(tmp_path / "out.cs")] if argv[0] != "eval" else []
        if command == "stream-stdin":
            proc = run_cli(argv, text=False, input=data.read_bytes(), cwd=str(tmp_path))
            code, err = proc.returncode, proc.stderr.decode()
            where = f"<stdin>:{BAD_LINENO}:"
        else:
            code, err = main(argv), capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"error: {where} "), err
        assert "Traceback" not in err
        assert not (tmp_path / "out.cs").exists()

    @pytest.mark.parametrize("kind", ["subspace", "kmeans"])
    def test_skip_malformed_matches_clean_file(self, tmp_path, rng, caplog, kind):
        rows = rng.standard_normal((400, 3))
        clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        np.savetxt(clean, rows, delimiter=",", fmt="%.17g")
        lines = clean.read_bytes().splitlines()
        for at, bad in zip((50, 120, 200, 280, 390), BAD_LINES.values()):
            lines.insert(at, bad(3))
        dirty.write_bytes(b"\n".join(lines) + b"\n")
        argv = ["stream", "--kind", kind, "--j", "1", "--k", "2", "--epsilon", "0.5", "--seed", "3"]
        assert main(argv + [str(clean), "-o", str(tmp_path / "a.cs")]) == 0
        assert main(argv + [str(dirty), "-o", str(tmp_path / "b.cs")]) == 1
        caplog.clear()
        assert main(argv + [str(dirty), "-o", str(tmp_path / "b.cs"), "--skip-malformed"]) == 0
        assert (tmp_path / "a.cs").read_bytes() == (tmp_path / "b.cs").read_bytes()
        skipped = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert [m.split(" ")[0] for m in skipped] == [f"{dirty}:{n + 1}:" for n in (50, 120, 200, 280, 390)]

    @pytest.mark.parametrize("field", ["n=abc", "delta=x", "eps=", "seed=1.5"])
    def test_bad_coreset_header_field_exits_1(self, tmp_path, data_csv, capsys, field):
        path, rows = data_csv
        cpath = tmp_path / "bad.csv"
        cpath.write_text(f"# tinycore coreset v1\n# {field} kind=kmeans\n1,2,3,4,1\n")
        code = main([
            "eval", str(cpath), path, "--query-kind", "centers", "--k", "1",
            "--count", "3", "--epsilon", "0.5", "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {cpath}: bad coreset header field"), err

    @pytest.mark.parametrize("write", [write_coreset_csv, write_coreset_binary])
    def test_coreset_file_with_infinite_delta_exits_1(self, tmp_path, data_csv, capsys, write):
        path, rows = data_csv
        cpath = str(tmp_path / "inf.cs")
        write(cpath, CoresetFile(300, np.inf, 0.5, 1, "kmeans", "kmeans", rows[:5], np.full(5, 60.0)))
        assert read_coreset_file(cpath).delta == np.inf
        code = main([
            "eval", cpath, path, "--query-kind", "centers", "--k", "1",
            "--count", "3", "--epsilon", "0.5", "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: coreset offset must be a finite non-negative number"), err


class TestRejections:
    """Clean exits on bad files and flag combinations, with their messages."""

    @staticmethod
    def _header(version=1, m=1, d=4):
        return cli._HEADER.pack(cli.MAGIC, version, 300, m, d, 0.0, 0.5, 1, b"kmeans", b"kmeans")

    BAD_CORESETS = {
        "truncated": (lambda h: b"TCS1", "truncated coreset file"),
        "version-2": (lambda h: h(version=2) + bytes(40), "unsupported format version 2"),
        "huge-m": (lambda h: h(m=2**62) + bytes(40), "coreset body size does not match its header"),
        "empty": (lambda h: b"", "empty coreset file"),
        "csv-comment-only": (lambda h: b"# tinycore coreset v1\n", "empty coreset file"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_CORESETS))
    def test_eval_on_a_bad_coreset_file_exits_1(self, tmp_path, data_csv, capsys, case):
        content, message = self.BAD_CORESETS[case]
        cpath = tmp_path / "bad.cs"
        cpath.write_bytes(content(self._header))
        code = main([
            "eval", str(cpath), data_csv[0], "--query-kind", "centers", "--k", "1",
            "--count", "3", "--epsilon", "0.5", "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error: ") and message in err, err

    def test_binary_reader_rejects_a_foreign_file(self, tmp_path):
        path = tmp_path / "x.cs"
        path.write_bytes(b"TCS2" + self._header()[4:])
        with pytest.raises(tinycore.TinycoreError, match="bad magic"):
            read_coreset_binary(str(path))

    @pytest.mark.parametrize("edit", [*(f"stray-{b}" for b in range(1, 8)), "cut-mid-float"])
    def test_eval_on_a_body_of_partial_floats_exits_1(self, tmp_path, data_csv, capsys, edit):
        # a 184-byte file: the 104-byte header and 2 rows of 4 coordinates and a weight
        path = data_csv[0]
        cpath = tmp_path / "s.cs"
        assert main(["coreset", "subspace", "--j", "1", "--epsilon", "0.5", path, "-o", str(cpath)]) == 0
        raw = cpath.read_bytes()
        assert len(raw) == cli._HEADER.size + 2 * 5 * 8
        if edit == "cut-mid-float":
            cpath.write_bytes(raw[:-4])
        else:
            cpath.write_bytes(raw + bytes(range(1, int(edit.split("-")[1]) + 1)))
        capsys.readouterr()
        code = main([
            "eval", str(cpath), path, "--query-kind", "subspace", "--j", "1",
            "--count", "3", "--epsilon", "0.5", "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err == "error: coreset body size does not match its header\n"

    @pytest.mark.parametrize("problem", ["kmeans", "affine"])
    def test_solve_takes_no_format(self, tmp_path, data_csv, capsys, problem):
        # a solution is always CSV text, so a --format flag is a usage error
        out = tmp_path / "sol.bin"
        arg = ["--k", "2"] if problem == "kmeans" else ["--j", "1"]
        argv = ["solve", problem, *arg, "--epsilon", "0.5", "--seed", "1", "--format", "binary"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, data_csv[0], "-o", str(out)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    REJECTED = {
        "stream-kmeans-without-k": (
            ["stream", "--kind", "kmeans", "--epsilon", "0.5", "--seed", "1"], "1,2\n", 2,
            "--kind kmeans requires --k",
        ),
        "kmeans-weighted-one-column": (
            ["coreset", "kmeans", "--k", "1", "--epsilon", "0.5", "--seed", "1", "--weighted"], "1\n2\n", 1,
            "weighted rows need >= 2 columns",
        ),
        "affine-weighted-one-column": (
            ["coreset", "subspace", "--j", "1", "--epsilon", "0.5", "--affine", "--weighted"], "1\n2\n", 1,
            "weighted rows need >= 2 columns",
        ),
        "kmeans-weighted-one-column-then-a-bad-line": (
            ["coreset", "kmeans", "--k", "1", "--epsilon", "0.5", "--seed", "1", "--weighted"], "1\n2\nx\n", 1,
            "weighted rows need >= 2 columns",
        ),
        "coreset-kmeans-comments-only": (
            ["coreset", "kmeans", "--k", "1", "--epsilon", "0.5", "--seed", "1"], "# a\n\n  \n# b\n", 1,
            "empty input",
        ),
        "solve-kmeans-comments-only": (
            ["solve", "kmeans", "--k", "1", "--epsilon", "0.5", "--seed", "1"], "# a\n\n  \n# b\n", 1,
            "empty input",
        ),
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_command_leaves_no_output(self, tmp_path, capsys, case):
        argv, text, expected, message = self.REJECTED[case]
        path, out = tmp_path / "in.csv", tmp_path / "out.cs"
        path.write_text(text)
        code = main([*argv, str(path), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == expected, err
        assert err.startswith("error: ") and message in err, err
        assert not out.exists()


def _corrupt(data: bytes, edits) -> bytes:
    """`data` after each edit in turn: a byte flipped, the bytes from a
    position on cut off, or a few bytes inserted, at a position taken modulo
    the current length (plus one)."""
    for kind, at, junk in edits:
        at %= len(data) + 1
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ (junk[0] or 1)]) + data[at + 1 :]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + junk + data[at:]
    return data


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "truncate", "insert"]),
        st.integers(0, 1 << 16),
        st.binary(min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=3,
)


class TestCorruptCoresets:
    """`eval` on a corrupted coreset file ends in exit 0 or 1, never in an
    exception other than a TinycoreError."""

    @pytest.fixture
    def originals(self, tmp_path, data_csv):
        files = {}
        for fmt in ("binary", "csv"):
            out = tmp_path / f"orig.{fmt}"
            argv = ["coreset", "subspace", "--j", "1", "--epsilon", "0.5", "--format", fmt]
            assert main([*argv, data_csv[0], "-o", str(out)]) == 0
            files[fmt] = out.read_bytes()
        return files

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fmt=st.sampled_from(["binary", "csv"]), edits=_EDITS)
    def test_eval_exits_0_or_1(self, tmp_path, data_csv, capsys, originals, fmt, edits):
        cpath = tmp_path / "bad.cs"
        cpath.write_bytes(_corrupt(originals[fmt], edits))
        capsys.readouterr()
        code = main([
            "eval", str(cpath), data_csv[0], "--query-kind", "subspace", "--j", "1",
            "--count", "3", "--epsilon", "0.5", "--seed", "1",
        ])
        out, err = capsys.readouterr()
        assert code in (0, 1), err
        assert err.startswith("error: ") if err else out.endswith(("PASS\n", "FAIL\n")), (out, err)


class TestSeedRange:
    COMMANDS = {
        "coreset-kmeans": ["coreset", "kmeans", "--k", "2", "--epsilon", "0.5"],
        "coreset-subspace": ["coreset", "subspace", "--j", "1", "--epsilon", "0.5"],
        "stream-kmeans": ["stream", "--kind", "kmeans", "--k", "2", "--epsilon", "0.5"],
        "stream-subspace": ["stream", "--kind", "subspace", "--j", "1", "--epsilon", "0.5"],
        "eval": ["eval", "missing.cs", "--query-kind", "centers", "--epsilon", "0.5"],
        "solve-kmeans": ["solve", "kmeans", "--k", "2", "--epsilon", "0.5"],
        "solve-affine": ["solve", "affine", "--j", "1", "--epsilon", "0.5"],
    }

    @pytest.mark.parametrize("seed", ["-1", str(2**63), "99999999999999999999"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_of_range_seed_exits_2_before_reading(self, tmp_path, capsys, command, seed):
        out = tmp_path / "o.cs"
        # the input does not exist: a check made after reading it would exit 1
        argv = [*self.COMMANDS[command], "--seed", seed, str(tmp_path / "missing.csv")]
        code = main(argv if command == "eval" else argv + ["-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: --seed must be in [0, 2**63)"), err
        assert not out.exists()

    def test_largest_seed_is_kept(self, tmp_path, data_csv):
        path, _ = data_csv
        out = str(tmp_path / "s.cs")
        seed = 2**63 - 1
        assert main(["coreset", "subspace", "--j", "1", "--epsilon", "0.5", "--seed", str(seed), path, "-o", out]) == 0
        assert read_coreset_file(out).seed == seed


class TestEvalInputChecks:
    def test_non_utf8_kind_exits_1(self, tmp_path, data_csv, capsys):
        path, _ = data_csv
        out = tmp_path / "s.cs"
        assert main(["coreset", "subspace", "--j", "2", "--epsilon", "0.5", path, "-o", str(out)]) == 0
        raw = bytearray(out.read_bytes())
        raw[56] = 0xFF  # the first byte of the `kind` field
        out.write_bytes(bytes(raw))
        capsys.readouterr()
        code = main([
            "eval", str(out), path, "--query-kind", "subspace", "--j", "1",
            "--count", "3", "--epsilon", "0.5", "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {out}: bad coreset header field"), err

    @pytest.mark.parametrize("query_kind", ["subspace", "affine"])
    @pytest.mark.parametrize("j", [0, 3, 5])
    def test_eval_j_out_of_range_names_it(self, tmp_path, rng, capsys, query_kind, j):
        rows = rng.standard_normal((30, 3))
        path = tmp_path / "d.csv"
        np.savetxt(path, rows, delimiter=",")
        cpath = tmp_path / "id.cs"
        write_coreset_binary(str(cpath), CoresetFile(
            n_source=30, delta=0.0, eps=0.5, seed=0, kind="subspace", construction="x",
            points=rows, weights=np.ones(30),
        ))
        code = main([
            "eval", str(cpath), str(path), "--query-kind", query_kind, "--j", str(j),
            "--count", "3", "--epsilon", "0.5", "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: --j {j} out of range: subspaces need 1 <= j <= d - 1 = 2\n", err


class TestParameterRanges:
    """--j and --k are checked against the input once it is read: exit 1, one message each."""

    @pytest.fixture
    def rows30(self, tmp_path, rng):
        path = tmp_path / "d.csv"
        np.savetxt(path, rng.standard_normal((30, 3)), delimiter=",")
        return str(path)

    @pytest.mark.parametrize("j", [0, 3])
    def test_solve_affine_j_outside_1_to_d_minus_1_exits_1(self, tmp_path, rows30, capsys, j):
        # the same check and message as eval's (TestEvalInputChecks)
        out = tmp_path / "sol.csv"
        argv = ["solve", "affine", "--j", str(j), "--epsilon", "0.5", "--seed", "1", rows30, "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --j {j} out of range: subspaces need 1 <= j <= d - 1 = 2\n", err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["coreset", "kmeans"],
            ["coreset", "kmeans", "--small"],
            ["solve", "kmeans"],
            ["stream", "--kind", "kmeans"],
        ],
        ids=["coreset-kmeans", "coreset-small-kmeans", "solve-kmeans", "stream-kmeans"],
    )
    def test_k_above_n_exits_1(self, tmp_path, rows30, capsys, command):
        out = tmp_path / "o.cs"
        argv = [*command, "--k", "31", "--epsilon", "0.5", "--seed", "1", rows30, "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: --k 31 out of range: k-means needs 1 <= k <= n = 30\n", err
        assert not out.exists()
        argv[argv.index("31")] = "30"
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "command",
        [
            ["coreset", "subspace"],
            ["coreset", "subspace", "--affine"],
            ["stream", "--kind", "subspace"],
            ["stream", "--kind", "affine"],
        ],
        ids=["coreset-subspace", "coreset-affine", "stream-subspace", "stream-affine"],
    )
    @pytest.mark.parametrize("j", [0, 3])
    def test_subspace_j_outside_1_to_d_minus_1_exits_1(self, tmp_path, rows30, capsys, command, j):
        # the stream learns d from its first block and checks --j there
        out = tmp_path / "o.cs"
        argv = [*command, "--j", str(j), "--epsilon", "0.5", "--seed", "1", rows30, "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --j {j} out of range: subspaces need 1 <= j <= d - 1 = 2\n", err
        assert not out.exists()


class TestSquareOverflow:
    """Finite input whose squares overflow float64 ends as one error line, exit 1."""

    @pytest.mark.parametrize("n", [4, 20])  # brute force below 13 rows, Lloyd above
    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "kmeans", "--k", "2", "--seed", "1"],
            ["solve", "affine", "--j", "1", "--seed", "1"],
            ["coreset", "subspace", "--j", "1"],
        ],
        ids=["solve-kmeans", "solve-affine", "coreset-subspace"],
    )
    def test_exits_1_with_error(self, tmp_path, rng, capsys, command, n):
        rows = rng.standard_normal((n, 2))
        rows[1, 1] = 1e160
        path = tmp_path / "big.csv"
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        out = tmp_path / "o.out"
        assert main([*command, "--epsilon", "0.5", str(path), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.7e308, 0.0], [-1.7e308, 1.0], [1.7e308, 2.0]],  # the centred rows overflow
            [[1.7e308, 0.0], [1.7e308, 1.0]],  # the column sum overflows
        ],
        ids=["centring", "column-sum"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["coreset", "subspace", "--affine", "--j", "1"],
            ["coreset", "subspace", "--affine", "--weighted", "--j", "1"],
            ["solve", "affine", "--j", "1", "--seed", "1"],
        ],
        ids=["coreset-affine", "coreset-affine-weighted", "solve-affine"],
    )
    def test_affine_centring_overflow_is_the_squares_error(self, tmp_path, capsys, rows, command):
        # finite input: the error names the overflow, and numpy warns nothing
        rows = np.array(rows)
        if "--weighted" in command:
            rows = np.column_stack([rows, np.ones(len(rows))])
        path = tmp_path / "big.csv"
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        out = tmp_path / "o.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--epsilon", "0.5", str(path), "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: input too large: its squared norm overflows float64\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["coreset", "kmeans", "--k", "2"],
            ["coreset", "kmeans", "--small", "--k", "2"],
            ["stream", "--kind", "kmeans", "--k", "2"],
        ],
        ids=["coreset-kmeans", "coreset-kmeans-small", "stream-kmeans"],
    )
    def test_kmeans_construction_exits_1_with_error(self, tmp_path, rng, capsys, command):
        rows = rng.standard_normal((5000, 3))  # enough rows that the coreset and the stream sample
        rows[1, 1] = 1e160
        path = tmp_path / "big.csv"
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        out = tmp_path / "o.out"
        assert main([*command, "--epsilon", "0.5", "--seed", "1", str(path), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_lifted_distances_past_float64_warn_nothing(self, tmp_path, capsys):
        # the squared norms fit, but a row's distance to a center across the
        # origin does not: it loses to the finite ones, and numpy warns nothing
        rows = np.column_stack([9e153 * (-1.0) ** np.arange(100), np.arange(100.0)])
        path, out = tmp_path / "big.csv", tmp_path / "km.tcs"
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["coreset", "kmeans", "--k", "2", "--epsilon", "0.5", "--seed", "1", str(path), "-o", str(out)])
            ps = tinycore.PointSet(rows)
            bic = tinycore.bicriteria_kmeans(ps, 2, 0.1, seed=1)
            centers = tinycore.lloyd_solve(ps, 2, seed=1)
        assert code == 0, capsys.readouterr().err
        assert out.exists()
        assert np.all(np.isfinite(bic.sq_distances)) and np.all(np.isfinite(centers.centers))

    def test_solve_on_lifted_overflow_warns_nothing(self, tmp_path, capsys):
        # the same rows through `solve kmeans`: its cost on the full data is
        # priced under the np.errstate of `eval`, so the "not finite" check decides
        rows = np.column_stack([9e153 * (-1.0) ** np.arange(100), np.arange(100.0)])
        path, out = tmp_path / "big.csv", tmp_path / "sol.csv"
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "kmeans", "--k", "2", "--epsilon", "0.5", "--seed", "1", str(path), "-o", str(out)])
        assert code == 0, capsys.readouterr().err
        assert out.exists()

    def test_eval_stops_at_a_true_cost_that_is_not_finite(self, tmp_path, rng, capsys):
        rows = rng.standard_normal((200, 3))
        clean, big, core = tmp_path / "clean.csv", tmp_path / "big.csv", tmp_path / "c.tcs"
        np.savetxt(clean, rows, delimiter=",", fmt="%.17g")
        rows[1, 1] = 1e160
        np.savetxt(big, rows, delimiter=",", fmt="%.17g")
        common = ["--k", "2", "--epsilon", "0.5", "--seed", "1"]
        assert main(["coreset", "kmeans", *common, str(clean), "-o", str(core)]) == 0
        capsys.readouterr()
        assert main(["eval", str(core), str(big), "--query-kind", "centers", *common]) == 1
        stdout, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert "true=" not in stdout

    @pytest.mark.parametrize(
        "query", [["centers", "--k", "2"], ["affine", "--j", "1"], ["subspace", "--j", "1"]],
        ids=["centers", "affine", "subspace"],
    )
    def test_eval_on_rows_whose_centring_overflows_exits_1(self, tmp_path, capsys, query):
        # the queries are drawn at the data's scale, which overflows here: numpy warns nothing
        data, core = tmp_path / "big.csv", tmp_path / "c.tcs"
        data.write_text("1.7e308,0\n-1.7e308,1\n1.7e308,2\n")
        write_coreset_binary(str(core), CoresetFile(
            n_source=3, delta=0.0, eps=0.5, seed=1, kind="kmeans", construction="x",
            points=np.ones((1, 2)), weights=np.array([3.0]),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", str(core), str(data), "--query-kind", *query, "--count", "3",
                         "--epsilon", "0.5", "--seed", "1"])
        stdout, err = capsys.readouterr()
        assert code == 1 and err.startswith("error: "), err
        assert "true=" not in stdout


# Blocks of about 64 bytes: a few lines each, so small files span many blocks.
SMALL_BLOCK = 64


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_BYTES", SMALL_BLOCK)


def _lines(rows: np.ndarray) -> list[bytes]:
    return [b",".join(b"%.17g" % v for v in row) for row in rows]


def _stream_reference(rows, kind, checkpoint=0, eps=0.5, seed=3):
    """The final query and the checkpoint lines of a stream fed one `insert` per row."""
    stream = CoresetStream(StreamConfig(kind=kind, eps=eps, j=1, k=2, delta=0.1, seed=seed))
    lines = []
    for count, row in enumerate(rows, start=1):
        stream.insert(row)
        if checkpoint and count % checkpoint == 0:
            lines.append(
                f"checkpoint n={count} live={stream.live_points()} "
                f"epoch={stream.epoch} reduces={stream.reduce_count}"
            )
    core = stream.query()
    return core, lines


def _stream_argv(kind, path, out, *extra):
    return ["stream", "--kind", kind, "--j", "1", "--k", "2", "--epsilon", "0.5", "--seed", "3",
            str(path), "-o", str(out), *extra]


def _blocks_of(path) -> list[int]:
    """The number of the first line of each block the reader takes from `path`."""
    starts, lineno = [], 1
    with open(path, "rb") as fh:
        while lines := fh.readlines(cli._BLOCK_BYTES):
            starts.append(lineno)
            lineno += len(lines)
    return starts


class TestBlockReader:
    @pytest.mark.parametrize("kind", ["kmeans", "subspace"])
    def test_stream_bytes_match_row_inserts(self, tmp_path, rng, small_blocks, kind):
        rows = make_blobs(rng, 300, 3, 2)
        path = tmp_path / "in.csv"
        path.write_bytes(b"\n".join(_lines(rows)) + b"\n")
        assert len(_blocks_of(path)) > 50
        out = tmp_path / "o.cs"
        assert main(_stream_argv(kind, path, out)) == 0
        core, _ = _stream_reference(rows, kind)
        want = tmp_path / "want.cs"
        write_coreset_binary(str(want), CoresetFile(
            n_source=300, delta=core.delta, eps=0.5, seed=3, kind=kind, construction=f"stream-{kind}",
            points=np.asarray(core.points), weights=np.asarray(core.weights),
        ))
        assert out.read_bytes() == want.read_bytes()

    def test_load_points_holds_two_copies_at_most(self, tmp_path, rng):
        rows = rng.standard_normal((20000, 8))
        path = tmp_path / "in.csv"
        path.write_bytes(b"\n".join(_lines(rows)) + b"\n")
        tracemalloc.start()
        try:
            points = load_points(str(path), False, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(points.rows, rows)
        # the parsed blocks or their concatenation, and the copy PointSet keeps
        assert peak < 2.5 * rows.nbytes

    @pytest.fixture(scope="class")
    def tall_csv(self, tmp_path_factory):
        """100000 x 8 rows, the last column positive so that it can serve as weights."""
        gen = np.random.default_rng(21)
        rows = gen.standard_normal((100000, 8)) + 3.0
        rows[:, -1] = gen.uniform(0.5, 2.0, rows.shape[0])
        path = tmp_path_factory.mktemp("tall") / "tall.csv"
        path.write_bytes(b"\n".join(_lines(rows)) + b"\n")
        return path, rows

    @pytest.mark.parametrize(
        "mode",
        [[], ["--weighted"], ["--affine"], ["--affine", "--weighted"]],
        ids=["linear", "linear-weighted", "affine", "weighted"],
    )
    def test_subspace_coreset_memory_does_not_grow_with_n(self, tmp_path, tall_csv, mode, capsys):
        # the rows are fed to the TSQR accumulator block by block: about one
        # leaf of 4096 rows and one parsed block are held at a time, 0.20-0.23
        # of the 6.4 MB of rows here (2.0-4.1 when the input was loaded whole)
        path, rows = tall_csv
        tracemalloc.start()
        try:
            code = main(["coreset", "subspace", "--j", "2", "--epsilon", "0.5", *mode, str(path), "-o", str(tmp_path / "o.cs")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 0.35 * rows.nbytes

    @pytest.mark.parametrize(
        "mode",
        [[], ["--weighted"], ["--affine"], ["--affine", "--weighted"]],
        ids=["linear", "linear-weighted", "affine", "weighted"],
    )
    def test_block_fed_subspace_bytes_match_the_library(self, tmp_path, rng, small_blocks, mode):
        # many small blocks, and 3 leaves of the TSQR tree
        rows = rng.standard_normal((9000, 4)) + 2.0
        rows[:, -1] = rng.uniform(0.5, 2.0, rows.shape[0])
        path = tmp_path / "in.csv"
        path.write_bytes(b"\n".join(_lines(rows)) + b"\n")
        out = tmp_path / "o.cs"
        assert main(["coreset", "subspace", "--j", "1", "--epsilon", "0.5", *mode, str(path), "-o", str(out)]) == 0
        if not mode:
            want = tinycore.linear_subspace_coreset(tinycore.PointSet(rows), 1, 0.5)
        elif mode == ["--weighted"]:
            want = tinycore.linear_subspace_coreset(tinycore.PointSet(rows[:, :-1], rows[:, -1]), 1, 0.5)
        elif "--weighted" in mode:
            want = tinycore.affine_subspace_coreset(tinycore.PointSet(rows[:, :-1], rows[:, -1]), 1, 0.5)
        else:
            want = tinycore.affine_subspace_coreset(tinycore.PointSet(rows), 1, 0.5)
        cf = read_coreset_file(str(out))
        assert cf.n_source == 9000
        np.testing.assert_array_equal(cf.points, want.points)
        np.testing.assert_array_equal(cf.weights, want.weights)
        assert cf.delta == want.delta

    def test_bad_line_at_every_position_names_its_line(self, tmp_path, rng, small_blocks, capsys):
        good = _lines(rng.standard_normal((30, 3)))
        path = tmp_path / "in.csv"
        path.write_bytes(b"\n".join(good) + b"\n")
        starts = _blocks_of(path)
        assert len(starts) >= 5
        for at in range(1, 31):
            lines = list(good)
            lines[at - 1] = b"1,2,abc"
            path.write_bytes(b"\n".join(lines) + b"\n")
            code = main(["coreset", "subspace", "--j", "1", "--epsilon", "0.5", str(path),
                         "-o", str(tmp_path / "o.cs")])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith(f"error: {path}:{at}: cannot parse row"), (at, starts, err)

    def test_narrow_later_block_is_checked_against_first_width(self, tmp_path, rng, small_blocks, capsys):
        wide, narrow = _lines(rng.standard_normal((40, 3))), _lines(rng.standard_normal((40, 2)))
        path = tmp_path / "in.csv"
        path.write_bytes(b"\n".join(wide) + b"\n")
        third = _blocks_of(path)[2]
        # from the first line of block 3 on, every line is 2 wide: a block of one width
        path.write_bytes(b"\n".join(wide[: third - 1] + narrow[third - 1 :]) + b"\n")
        assert _blocks_of(path)[2] == third
        code = main(["coreset", "subspace", "--j", "1", "--epsilon", "0.5", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}:{third}: expected 3 columns, got 2"), err

    @pytest.mark.parametrize(
        "layout", ["comments-and-blanks", "header", "crlf", "no-final-newline"]
    )
    def test_layouts_load_the_clean_rows(self, tmp_path, rng, small_blocks, layout):
        rows = rng.standard_normal((60, 3))
        lines = _lines(rows)
        header = layout == "header"
        if layout == "comments-and-blanks":
            for at in (50, 33, 20, 7):
                lines[at:at] = [b"# a comment", b"", b"   "]
        if header:
            lines.insert(0, b"x,y,z")
        sep = b"\r\n" if layout == "crlf" else b"\n"
        payload = sep.join(lines) + (b"" if layout == "no-final-newline" else sep)
        path = tmp_path / "in.csv"
        path.write_bytes(payload)
        assert len(_blocks_of(path)) > 10
        np.testing.assert_array_equal(load_points(str(path), False, header).rows, rows)
        clean = tmp_path / "clean.csv"
        clean.write_bytes(b"\n".join(_lines(rows)) + b"\n")
        extra = ["--header"] if header else []
        assert main(_stream_argv("subspace", path, tmp_path / "a.cs", *extra)) == 0
        assert main(_stream_argv("subspace", clean, tmp_path / "b.cs")) == 0
        assert (tmp_path / "a.cs").read_bytes() == (tmp_path / "b.cs").read_bytes()

    @pytest.mark.parametrize("kind", ["subspace", "kmeans"])
    def test_skip_malformed_across_blocks_matches_clean_file(self, tmp_path, rng, small_blocks, caplog, kind):
        rows = rng.standard_normal((200, 3))
        clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        lines = _lines(rows)
        clean.write_bytes(b"\n".join(lines) + b"\n")
        ats = (3, 40, 41, 90, 150, 199)
        for at, bad in zip(ats, [*(make(3) for make in BAD_LINES.values()), b"1,2,3,4"]):
            lines.insert(at, bad)
        dirty.write_bytes(b"\n".join(lines) + b"\n")
        caplog.clear()
        assert main(_stream_argv(kind, clean, tmp_path / "a.cs")) == 0
        assert main(_stream_argv(kind, dirty, tmp_path / "b.cs", "--skip-malformed")) == 0
        assert (tmp_path / "a.cs").read_bytes() == (tmp_path / "b.cs").read_bytes()
        skipped = [r.getMessage().split(" ")[0] for r in caplog.records if r.levelname == "WARNING"]
        assert skipped == [f"{dirty}:{at + 1}:" for at in ats]


# Valid fields that float() takes but a stricter number parser might not.
ODD_LINES = [b" 1.5 , +.5,1_000", b"-0.0,1e308,-2", b"7,\t-1E-3 ,0"]


class TestBlockPaths:
    def expected(self):
        return [[float(f) for f in line.split(b",")] for line in ODD_LINES]

    @pytest.mark.parametrize("with_comment", [False, True])
    def test_odd_fields_same_values_on_both_paths(self, tmp_path, with_comment):
        path = tmp_path / "odd.csv"
        head = [b"# forces the per-line path"] if with_comment else []
        path.write_bytes(b"\n".join(head + ODD_LINES) + b"\n")
        got = load_points(str(path), False, False).rows
        want = np.array(self.expected())
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # -0.0 keeps its sign

    def test_checkpoints_then_error_at_bad_line(self, tmp_path, rng, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 16384)
        rows = rng.standard_normal((600, 3))
        lines = _lines(rows)
        lines[499] = b"1,2,abc"
        path = tmp_path / "in.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        # the rows before the bad line in its own block, n=400 among them, still count
        starts = _blocks_of(path)
        assert len(starts) >= 3 and max(s for s in starts if s <= 500) <= 400, starts
        code = main(_stream_argv("subspace", path, tmp_path / "o.cs", "--checkpoint", "200"))
        err = capsys.readouterr().err.splitlines()
        _, want = _stream_reference(rows[:499], "subspace", checkpoint=200)
        assert code == 1
        assert err[:2] == want and len(want) == 2
        assert err[2].startswith(f"error: {path}:500: cannot parse row"), err
        assert len(err) == 3

    @pytest.mark.parametrize("kind", ["subspace", "kmeans"])
    def test_checkpoint_not_dividing_blocks(self, tmp_path, rng, small_blocks, capsys, kind):
        rows = rng.standard_normal((100, 3))
        path = tmp_path / "in.csv"
        path.write_bytes(b"\n".join(_lines(rows)) + b"\n")
        code = main(_stream_argv(kind, path, tmp_path / "o.cs", "--checkpoint", "7"))
        err = capsys.readouterr().err.splitlines()
        _, want = _stream_reference(rows, kind, checkpoint=7)
        assert code == 0
        assert [line.split()[1] for line in want] == [f"n={7 * i}" for i in range(1, 15)]
        assert err == want


def _per_line(data: bytes):
    """The rows of `data` read by the per-line loop of `_csv_blocks` alone, or
    None where it rejects a line (blank and `#` lines count as rejected, since
    the C reader takes data rows only)."""
    lines = io.BytesIO(data).readlines()
    if not lines or not all(line.strip() and not line.strip().startswith(b"#") for line in lines):
        return None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_c_block", lambda lines, width: None)
        try:
            return np.concatenate(list(cli._csv_blocks(io.BytesIO(data), "x", False)))
        except tinycore.TinycoreError:
            return None


# Fields near the edge of what float() and numpy's C reader each accept: the
# bytes numpy strips and float() does not, `_`, `#`, blanks and \r around
# numbers, and short runs of number-like bytes that may or may not parse.
_EDGE = ["", "_", "#", " ", "\t", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0"]
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["-0.0", "+.5", "1e308", "1e999", "-1E-3", "1_0", "4.", ".", "-", "e5"]
)
_JUNK = st.text(alphabet="0123456789+-.eE,_# \t\r\x1c\x1d\x1e\x1f\x85\xa0", max_size=4)
_FIELD = st.tuples(st.sampled_from(_EDGE), _NUMBER | _JUNK, st.sampled_from(_EDGE)).map("".join)


@st.composite
def _csv_block(draw) -> bytes:
    width = draw(st.integers(1, 3))
    data_line = st.lists(_FIELD | _NUMBER, min_size=width, max_size=width).map(",".join)
    lines = draw(st.lists(data_line | st.sampled_from(["", "  ", "# c"]), min_size=1, max_size=6))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from([end, ""]))  # with or without a final line end
    return (end.join(lines) + tail).encode("latin-1")


class TestCReader:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=_csv_block(), width=st.sampled_from([None, 1, 2, 3]))
    def test_block_paths_agree_with_the_per_line_parse(self, data, width):
        lines = io.BytesIO(data).readlines()
        want = _per_line(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cli._c_block(lines, width)
        if want is None or width not in (None, want.shape[1]):
            assert got is None, (data, got)
        elif got is not None:
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # -0.0 keeps its sign

    @pytest.mark.parametrize("data", [b"", b"\n", b"\n\r\n\n", b"  \n\t\n", b"\r\n"])
    def test_blank_blocks_warn_nothing(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli._c_block(io.BytesIO(data).readlines(), None) is None
            assert list(cli._csv_blocks(io.BytesIO(data), "x", False)) == []

    def test_header_only_input_warns_nothing(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_bytes(b"x,y,z\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(cli._csv_blocks(io.BytesIO(path.read_bytes()), "x", True)) == []
            with pytest.raises(tinycore.TinycoreError, match="empty input"):
                load_points(str(path), False, True)

    def test_plain_blocks_take_the_c_reader(self, rng):
        rows = rng.standard_normal((50, 4))
        for end in (b"\n", b"\r\n"):
            lines = [line + end for line in _lines(rows)]
            got = cli._c_block(lines, None)
            assert got is not None and got.tobytes() == rows.tobytes()
            assert cli._c_block(lines, 3) is None  # not the width seen so far


class TestParserReuse:
    def test_repeated_main_calls_give_the_same_codes_and_output(self, data_csv, tmp_path, capsys):
        path, _ = data_csv
        out = lambda name: str(tmp_path / name)
        runs = [
            ["coreset", "subspace", "--j", "1", "--epsilon", "0.5", path, "-o", out("a.cs")],
            ["stream", "--kind", "kmeans", "--k", "2", "--epsilon", "0.5", "--seed", "1", path, "-o", out("b.cs")],
            ["solve", "affine", "--j", "1", "--epsilon", "0.5", "--seed", "1", path, "-o", out("c.csv")],
            ["stream", "--kind", "subspace", "--epsilon", "0.5", "--seed", "1", path, "-o", out("d.cs")],
            ["eval", out("a.cs"), path, "--query-kind", "subspace", "--j", "1", "--count", "5",
             "--epsilon", "0.5", "--seed", "1"],
        ]
        outputs = []
        for _ in range(2):
            result = []
            for argv in runs:
                code = main(argv)
                std = capsys.readouterr()
                written = argv[-1] if argv[-2] == "-o" and os.path.exists(argv[-1]) else None
                # `coreset`'s elapsed seconds are the one figure that differs between runs
                stdout = re.sub(r"\d+\.\d+s$", "s", std.out, flags=re.M)
                result.append((code, stdout, std.err, written and Path(written).read_bytes()))
            for name in ("a.cs", "b.cs", "c.csv"):  # each round writes them afresh
                os.remove(out(name))
            with pytest.raises(SystemExit) as exc:  # a usage error that argparse raises
                main(["coreset", "subspace", "--epsilon", "0.5", path])
            result.append((exc.value.code, capsys.readouterr().err))
            outputs.append(result)
        assert [r[0] for r in outputs[0]] == [0, 0, 0, 2, 0, 2]
        assert outputs[0] == outputs[1]
        assert cli.build_parser() is cli.build_parser()
