"""One benchmark run of one workload, in a process of its own (started by run.py).

Usage: python3 bench/worker.py <workload> <seed> <seconds> <trace 0|1>

Prints a line of raw (uncalibrated) figures and, as its last line, the
result JSON. Times are calibrated against reference kernels timed just
before and just after each build and each query grid; see README.md.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tinycore  # noqa: E402
import tinycore.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s reports their median


def _columns_kernel():
    """pca-batch: strided column gathers, products and scatters, as in a Jacobi sweep."""
    a = np.random.default_rng(0).standard_normal((4000, 30))
    even, odd = np.arange(0, 30, 2), np.arange(1, 30, 2)

    def kernel():
        for _ in range(10):
            p, q = a[:, even], a[:, odd]
            np.sum(p * q, axis=0)
            a[:, even] = p

    return kernel


def _blocks_kernel():
    """kmeans-batch: an interpreter loop and arithmetic on contiguous blocks."""
    block = np.random.default_rng(0).standard_normal((2000, 30))

    def kernel():
        acc = 0.0
        for i in range(25000):
            acc += i * 0.5
        for _ in range(8):
            c = block * 1.0001
            np.sum(c * c, axis=0)
            c.T @ c

    return kernel


def _parse_kernel():
    """cli-stream: CSV lines split and parsed in Python, one small array per line."""
    rows = np.random.default_rng(0).standard_normal((250, 5)).tolist()
    lines = [",".join(map(repr, row)) + "\n" for row in rows]

    def kernel():
        for _ in range(3):
            for line in lines:
                np.all(np.isfinite(np.array([float(v) for v in line.strip().split(",")])))

    return kernel


# Each workload's reference kernels (one for builds, one for queries) and
# their nominal durations: calibrated times are raw times scaled by nominal /
# (the kernel's time measured just before and just after them). The nominal
# values are the kernels' medians on the machine of README.md.
KERNELS = {
    "pca-batch": ((_columns_kernel, 0.0045), (_parse_kernel, 0.0067)),
    "kmeans-batch": ((_blocks_kernel, 0.0048), (_blocks_kernel, 0.0048)),
    "cli-stream": ((_parse_kernel, 0.0067), (_parse_kernel, 0.0067)),
}


class Reference:
    """A fixed piece of work like the measured one, timed around it to calibrate it."""

    def __init__(self, make, nominal: float):
        self.kernel, self.nominal = make(), nominal
        for _ in range(3):
            self.time()
        self.start()

    def time(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def start(self) -> None:
        self.last = self.time()

    def scale(self) -> float:
        """Run the kernel again; return the calibration factor for the work since the last run."""
        now = self.time()
        self.factor = 2 * self.nominal / (self.last + now)
        self.last = now
        return self.factor


class Run:
    """Counts, raw times and calibrated times of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.build_raw, self.build_cal, self.build_rows = [], [], []
        self.query_raw, self.query_cal = [], []
        self.worst_errs = []
        self.points_built = 0
        self.problems: list[str] = []

    def fail(self, build, ops: int, why: str) -> None:
        self.failed += ops
        self.problems.append(f"{build.label}: {why}")
        print(f"FAILED {build.label}: {why}", file=sys.stderr)


def run_build(build, refs: tuple[Reference, Reference], run: Run) -> float:
    """Time one build and its grid of queries; check the output. Returns calibrated work seconds.

    The build kernel runs before and after the build, the query kernel before
    and after the queries, so each is calibrated by its own neighbours.
    """
    ops = 1 + len(build.grid)
    run.attempted += ops
    try:
        t0 = time.perf_counter()
        out = build.run()
        t_build = time.perf_counter() - t0
        build_scale = refs[0].scale()
        loaded = build.load(out)
        core = build.coreset(loaded)
        refs[1].start()
        ests, t_queries = [], []
        for shape in build.grid:
            t0 = time.perf_counter()
            ests.append(tinycore.coreset_cost(core, shape))
            t_queries.append(time.perf_counter() - t0)
        query_scale = refs[1].scale()
    except Exception:  # a raising call is a failed operation; the run goes on
        refs[0].start()
        run.fail(build, ops, traceback.format_exc())
        return 0.0
    problems = build.check(loaded, ests)
    if problems:
        run.fail(build, ops, "; ".join(problems))
        return 0.0
    build.total_weight = core.total_weight()
    run.build_raw.append(t_build)
    run.build_cal.append(t_build * build_scale)
    run.build_rows.append(build.rows)
    run.query_raw += t_queries
    run.query_cal += [t * query_scale for t in t_queries]
    run.worst_errs.append(workloads.worst_rel_err(ests, build.truths()))
    run.points_built += core.size
    return t_build * build_scale + sum(t_queries) * query_scale


def set_up(workload, ref: Reference) -> tuple[list[float], list[float]]:
    raw, cal = [], []
    ref.scale()
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workload.set_up()
        t = time.perf_counter() - t0
        raw.append(t)
        cal.append(t * ref.scale())
    return raw, cal


def _median(values) -> float:
    return statistics.median(values) if values else 0.0  # 0 only when every build failed


def summarise(run: Run, rounds: int, import_cal: float, setup_raw, setup_cal, raw: bool) -> dict:
    builds = run.build_raw if raw else run.build_cal
    queries = run.query_raw if raw else run.query_cal
    setup = (IMPORT_S if raw else import_cal) + statistics.median(setup_raw if raw else setup_cal)
    return {
        "build_rows_per_s": (sum(run.build_rows) / sum(builds) if builds else 0.0, "rows/s"),
        "build_p50_ms": (_median(builds) * 1e3, "ms"),
        "query_p50_us": (_median(queries) * 1e6, "us"),
        "coreset_points": (run.points_built / rounds, "points"),
        "worst_rel_err": (statistics.fmean(run.worst_errs) if run.worst_errs else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup, "s"),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if not Path(tinycore.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported {tinycore.__file__}, not the tinycore under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=out_dir)
    try:
        refs = tuple(Reference(*spec) for spec in KERNELS[name])
        ref = refs[0]
        import_cal = IMPORT_S * ref.scale()
        workload = workloads.make(name, seed, workdir)
        setup_raw, setup_cal = set_up(workload, ref)
        recorder = tracing.Recorder() if trace else None
        run = Run()
        all_builds = []
        round_work = {False: [], True: []}
        rounds = 0
        start = time.perf_counter()
        # whole rounds until the run's time is used; a traced run alternates
        # untraced and traced rounds, which gives the tracing overhead
        while rounds < 2 or time.perf_counter() - start < seconds:
            traced = trace and rounds % 2 == 1
            if traced:
                recorder.install()
            work = 0.0
            for build in workload.round(rounds):
                if traced:
                    recorder.open_group()
                w = run_build(build, refs, run)
                if traced:
                    recorder.close_group(ref.factor)
                work += w
                all_builds.append(build)
            if traced:
                recorder.uninstall()
            round_work[traced].append(work)
            rounds += 1
        try:
            run.problems += workload.finish(all_builds)
        except Exception:
            run.problems.append(traceback.format_exc())
        correct = run.failed == 0 and not run.problems
        for line in run.problems:
            print(f"CHECK {line}", file=sys.stderr)
        raw = summarise(run, rounds, import_cal, setup_raw, setup_cal, raw=True)
        print("raw " + json.dumps({k: v for k, (v, _) in raw.items()} | {"rounds": rounds}))
        if trace:
            overhead = _median(round_work[True]) / _median(round_work[False]) - 1 if run.build_cal else 0.0
            metrics = recorder.metrics(len(round_work[True]), statistics.fmean(round_work[True]), overhead)
            recorder.write(out_dir / f"trace-{name}-seed{seed}.json")
        else:
            metrics = summarise(run, rounds, import_cal, setup_raw, setup_cal, raw=False)
        result = {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
