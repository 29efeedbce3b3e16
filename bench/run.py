"""Benchmark entry point: runs one workload of tinycore in a fresh child process.

    python3 bench/run.py --workload pca-batch --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The child (worker.py) imports tinycore
from the checkout's `src/`, with BLAS and OpenMP pinned to one thread. The
last line of standard output is the result JSON: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. See README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pca-batch", "kmeans-batch", "cli-stream")
CHILD_TIMEOUT_S = 170
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tinycore" / "__init__.py").is_file():
        print(f"error: no tinycore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TINYCORE_LOG")}
    env.update(PINNED)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"error: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        print(f"error: worker exited {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
