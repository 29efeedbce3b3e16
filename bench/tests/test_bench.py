"""Tests of the benchmark itself: its checkers, its tracing and a short run of each workload.

    python -m pytest bench/tests -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tinycore as tc  # noqa: E402
import tinycore.coreset  # noqa: E402
import tinycore.linalg  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Round 0 of every workload at seed 7: each build with its loaded output."""
    out = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 7, str(tmp_path_factory.mktemp(name)))
        workload.set_up()
        out[name] = [(b, b.load(b.run())) for b in workload.round(0)]
    return out


def estimates(build, loaded):
    core = build.coreset(loaded)
    return [tc.coreset_cost(core, shape) for shape in build.grid]


def replace(loaded, **fields):
    if isinstance(loaded, tc.Coreset):
        merged = dict(points=loaded.points, weights=loaded.weights, delta=loaded.delta) | fields
        return tc.Coreset(**merged)
    return dataclasses.replace(loaded, **fields)


def scaled_delta(build, loaded):
    # a k-means coreset's delta is 0, and 1.1 * 0 is the same coreset: there
    # the control adds a tenth of the cheapest true cost instead
    delta = loaded.delta * 1.1 if loaded.delta > 0 else 0.1 * min(build.truths())
    return replace(loaded, delta=delta)


def dropped_point(build, loaded):
    return replace(loaded, points=np.asarray(loaded.points)[:-1], weights=np.asarray(loaded.weights)[:-1])


def weight_below_floor(build, loaded):
    w = np.array(loaded.weights)
    w[0] = 0.9  # every floor here is at least 1: unit weights, n / (2m), or a k-means input weight
    return replace(loaded, weights=w)


def test_every_build_of_round_zero_passes_its_check(built):
    for name, outputs in built.items():
        for build, loaded in outputs:
            assert build.check(loaded, estimates(build, loaded)) == [], (name, build.label)


# the builds each control is applied to: pca-batch and cli-stream each have a
# coreset with a positive delta and one of exact size; on kmeans-batch a
# coreset has exactly sample_size points when no point was kept outright
CONTROLS = {
    "pca-batch": (2, 3),  # linear and affine, j=2 eps=0.2
    "kmeans-batch": (0, 2),  # kmeans_coreset and small_kmeans_coreset
    "cli-stream": (0, 2),  # the k-means stream and the batch subspace coreset
}


def size_is_fixed(name, index, loaded):
    if name == "kmeans-batch":
        return len(loaded.weights) == (workloads.KM_LOW, workloads.KM_WIDE)[index > 0]["sample_size"]
    return name == "pca-batch" or index == 2  # a stream's size depends on its epochs


@pytest.mark.parametrize("mutate", [scaled_delta, dropped_point, weight_below_floor])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checker_rejects_a_broken_coreset(built, name, mutate):
    rejected = []
    for index in CONTROLS[name]:
        build, loaded = built[name][index]
        if mutate is dropped_point and not size_is_fixed(name, index, loaded):
            continue
        broken = mutate(build, loaded)
        rejected.append(build.check(broken, estimates(build, broken)) != [])
    assert rejected and all(rejected)


def test_spans_nest_and_wrappers_come_off():
    recorder = tracing.Recorder()
    points = tc.PointSet(np.random.default_rng(0).standard_normal((200, 6)))
    original = tinycore.coreset.svd
    recorder.install()
    try:
        assert tinycore.coreset.svd is not original and tc.svd is tinycore.linalg.svd
        recorder.open_group()
        tc.linear_subspace_coreset(points, 2, 0.5)
        recorder.close_group(1.0)
    finally:
        recorder.uninstall()
    assert tinycore.coreset.svd is original and tc.svd is original
    names = [(s[0], s[3]) for s in recorder.spans]
    assert names == [("coreset.linear_subspace_coreset", -1), ("linalg.svd", 0)]
    (_, b0, b1, _), (_, s0, s1, _) = recorder.spans
    assert recorder.totals["coreset.build_self_s"] == pytest.approx((b1 - b0) - (s1 - s0))
    assert recorder.counts["linalg.svd_calls"] == 1


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_short_run_prints_every_metric(name, trace):
    proc = run_bench(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "pca-batch", 0)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
