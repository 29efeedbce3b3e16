import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tinycore
from tinycore.cli import (
    CoresetFile,
    main,
    read_coreset_binary,
    read_coreset_csv,
    read_coreset_file,
    write_coreset_binary,
    write_coreset_csv,
)

from conftest import make_blobs


# The directory holding the imported package, put first on the child's
# PYTHONPATH so that it runs this tinycore whatever its cwd and however the
# test process found the package (a relative PYTHONPATH, an install, ...).
PACKAGE_ROOT = str(Path(tinycore.__file__).resolve().parents[1])


def run_cli(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "tinycore.cli", *args],
        capture_output=True,
        text=True,
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
        path, _ = data_csv
        a, b = str(tmp_path / "a.cs"), str(tmp_path / "b.cs")
        argv = ["coreset", "kmeans", "--k", "3", "--epsilon", "0.5", "--delta", "0.1", "--seed", "7", path]
        assert main(argv + ["-o", a]) == 0
        assert main(argv + ["-o", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


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
        code = main(["coreset", "subspace", "--j", "2", "--epsilon", "0.5", path, "-o", out])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "did not converge" in err
        assert "Traceback" not in err


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
        text = open(out).read()
        assert "offset," in text and "basis," in text

    def _solve_cost(self, out):
        header = open(out).readline()
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
