"""Seed sweep of the kmeans-batch checks, wider than any run's seeds.

    python3 bench/sweep.py --seeds 1-40 --rounds 10

For every workload seed and round, builds the round's k-means coresets and
reports, per builder, the largest |coreset cost / true cost - 1| seen on the
query grid, the smallest weight and the spread of total weight / n, plus the
share of builds any check rejected. The run's checks allow eps and a 5 %
drift of the mean total weight; this shows how far inside those the
constructions stay.
"""
import argparse
import os
import statistics
import sys
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tinycore  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-40", help="range a-b of workload seeds")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    stats = {}
    for seed in range(lo, hi + 1):
        workload = workloads.KMeansBatch(seed, workdir="")
        workload.set_up()
        for r in range(args.rounds):
            for build in workload.round(r):
                core = build.run()
                ests = [tinycore.coreset_cost(core, shape) for shape in build.grid]
                s = stats.setdefault(build.label.split("(")[0], dict(err=[], wmin=[], wsum=[], rejected=0))
                s["err"].append(workloads.worst_rel_err(ests, build.truths()))
                s["wmin"].append(float(core.weights.min()))
                s["wsum"].append(core.total_weight() / build.rows)
                s["rejected"] += bool(build.check(core, ests))
    for name, s in stats.items():
        print(
            f"{name}: {len(s['err'])} builds, worst |est/true - 1| max {max(s['err']):.4f} "
            f"median {statistics.median(s['err']):.4f} (eps {workloads.KM_EPS}), min weight "
            f"{min(s['wmin']):.4f}, total weight / n in [{min(s['wsum']):.4f}, {max(s['wsum']):.4f}] "
            f"mean {statistics.fmean(s['wsum']):.4f}, rejected {s['rejected']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
