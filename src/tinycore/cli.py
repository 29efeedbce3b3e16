"""Command-line tool: build, stream, evaluate and solve over coreset files.

Commands
    coreset   batch construction (subspace / affine / k-means / small k-means)
    stream    single-pass construction over stdin or a file
    eval      compare coreset cost against true cost on sampled queries
    solve     reduce + coreset + solver, writing centers or a subspace

Exit codes: 0 success, 1 data or validation error, 2 usage error.  All
randomized commands require --seed.  The TINYCORE_LOG environment variable
sets the log level.
"""
from __future__ import annotations

import argparse
import logging
import os
import struct
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .clustering import (
    AffineClusteringProblem,
    KMeansProblem,
    approx_solution,
    exact_tiny_solver,
    kmeans_coreset,
    lloyd_solve,
    small_kmeans_coreset,
)
from .coreset import (
    Coreset,
    affine_subspace_coreset,
    coreset_cost,
    linear_subspace_coreset,
)
from .errors import TinycoreError
from .linalg import CenterSet, PointSet, Subspace, dist2
from .streaming import CoresetStream, StreamConfig

logger = logging.getLogger("tinycore.cli")

MAGIC = b"TCS1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQQddq16s32s")

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


@dataclass
class CoresetFile:
    """On-disk coreset: header metadata plus rows of coordinates and a weight."""

    n_source: int
    delta: float
    eps: float
    seed: int
    kind: str
    construction: str
    points: np.ndarray
    weights: np.ndarray

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def to_coreset(self) -> Coreset:
        return Coreset(points=self.points, weights=self.weights, delta=self.delta)


def write_coreset_binary(path: str, cf: CoresetFile) -> None:
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        cf.n_source,
        cf.m,
        cf.d,
        cf.delta,
        cf.eps,
        cf.seed,
        cf.kind.encode()[:16].ljust(16, b"\0"),
        cf.construction.encode()[:32].ljust(32, b"\0"),
    )
    body = np.hstack([cf.points, cf.weights[:, None]]).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def read_coreset_binary(path: str) -> CoresetFile:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise TinycoreError("truncated coreset file")
        magic, version, n, m, d, delta, eps, seed, kind, construction = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise TinycoreError(f"bad magic {magic!r}; not a coreset file")
        if version != FORMAT_VERSION:
            raise TinycoreError(f"unsupported format version {version}")
        body = np.frombuffer(fh.read(), dtype="<f8")
    if body.size != m * (d + 1):
        raise TinycoreError("coreset body size does not match its header")
    rows = body.reshape(m, d + 1)
    return CoresetFile(
        n_source=n,
        delta=delta,
        eps=eps,
        seed=seed,
        kind=kind.rstrip(b"\0").decode(),
        construction=construction.rstrip(b"\0").decode(),
        points=rows[:, :d].copy(),
        weights=rows[:, d].copy(),
    )


def write_coreset_csv(path: str, cf: CoresetFile) -> None:
    with open(path, "w") as fh:
        fh.write("# tinycore coreset v%d\n" % FORMAT_VERSION)
        fh.write(
            "# n=%d m=%d d=%d delta=%.17g eps=%.17g seed=%d kind=%s construction=%s\n"
            % (cf.n_source, cf.m, cf.d, cf.delta, cf.eps, cf.seed, cf.kind, cf.construction)
        )
        for row, w in zip(cf.points, cf.weights):
            fh.write(",".join("%.17g" % v for v in row) + ",%.17g\n" % w)


def read_coreset_csv(path: str) -> CoresetFile:
    meta = {}
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        key, val = tok.split("=", 1)
                        meta[key] = val
                continue
            rows.append(_parse_row(path, lineno, line, len(rows[0]) if rows else None))
    if not rows:
        raise TinycoreError("empty coreset file")
    arr = np.asarray(rows)
    return CoresetFile(
        n_source=int(meta.get("n", arr.shape[0])),
        delta=float(meta.get("delta", 0.0)),
        eps=float(meta.get("eps", 0.0)),
        seed=int(meta.get("seed", 0)),
        kind=meta.get("kind", "unknown"),
        construction=meta.get("construction", "unknown"),
        points=arr[:, :-1],
        weights=arr[:, -1],
    )


def read_coreset_file(path: str) -> CoresetFile:
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_coreset_binary(path)
    return read_coreset_csv(path)


def _parse_row(path: str, lineno: int, line: str, width: Optional[int]) -> list[float]:
    """Parse one comma-separated row of floats; `width` is the first row's, if any."""
    try:
        values = [float(v) for v in line.split(",")]
    except ValueError as exc:
        raise TinycoreError(f"{path}:{lineno}: cannot parse row: {exc}") from exc
    if width is not None and len(values) != width:
        raise TinycoreError(f"{path}:{lineno}: expected {width} columns, got {len(values)}")
    return values


def load_points(path: str, weighted: bool, header: bool) -> PointSet:
    """Read a CSV of points, optionally with a trailing weight column."""
    rows = []
    weights = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values = _parse_row(path, lineno, line, width)
            width = len(values)
            if weighted:
                if len(values) < 2:
                    raise TinycoreError(f"{path}:{lineno}: weighted rows need >= 2 columns")
                rows.append(values[:-1])
                weights.append(values[-1])
            else:
                rows.append(values)
    if not rows:
        raise TinycoreError("empty input")
    return PointSet(np.asarray(rows), np.asarray(weights) if weighted else None)


def _random_query(rng: np.random.Generator, d: int, kind: str, j: int, k: int, scale: float):
    if kind == "centers":
        return CenterSet(scale * rng.standard_normal((k, d)))
    basis, _ = np.linalg.qr(rng.standard_normal((d, j)))
    offset = scale * rng.standard_normal(d) if kind == "affine" else None
    return Subspace(basis=basis, offset=offset)


# -- commands -----------------------------------------------------------


def cmd_coreset(args: argparse.Namespace) -> int:
    points = load_points(args.input, args.weighted, args.header)
    t0 = time.perf_counter()
    if args.problem == "kmeans":
        builder = small_kmeans_coreset if args.small else kmeans_coreset
        core = builder(points, args.k, args.epsilon, args.delta, args.seed)
        construction = "small-kmeans" if args.small else "kmeans"
        kind = "kmeans"
    else:
        if args.affine:
            core = affine_subspace_coreset(points, args.j, args.epsilon)
            construction = kind = "affine"
        else:
            core = linear_subspace_coreset(points, args.j, args.epsilon)
            construction = kind = "subspace"
    elapsed = time.perf_counter() - t0
    cf = CoresetFile(
        n_source=points.n,
        delta=core.delta,
        eps=args.epsilon,
        seed=args.seed if args.seed is not None else 0,
        kind=kind,
        construction=construction,
        points=np.asarray(core.points),
        weights=np.asarray(core.weights),
    )
    _write(args.output, cf, args.format)
    print(
        f"coreset: {points.n} x {points.d} -> {cf.m} points, "
        f"delta={cf.delta:.6g}, total_weight={np.sum(cf.weights):.6g}, {elapsed:.3f}s"
    )
    return EXIT_OK


def cmd_stream(args: argparse.Namespace) -> int:
    if args.checkpoint < 0:
        print("error: --checkpoint must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.kind in ("subspace", "affine") and args.j is None:
        print("error: --kind subspace/affine requires --j", file=sys.stderr)
        return EXIT_USAGE
    if args.kind == "kmeans" and args.k is None:
        print("error: --kind kmeans requires --k", file=sys.stderr)
        return EXIT_USAGE
    config = StreamConfig(
        kind=args.kind,
        eps=args.epsilon,
        j=args.j,
        k=args.k,
        delta=args.delta,
        seed=args.seed if args.seed is not None else 0,
    )
    stream = CoresetStream(config)
    fh = sys.stdin if args.input == "-" else open(args.input)
    count = 0
    try:
        for lineno, line in enumerate(fh, start=1):
            if args.header and lineno == 1:
                continue
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                stream.insert(np.array([float(v) for v in line.split(",")]))
            except (ValueError, TinycoreError) as exc:
                if args.skip_malformed:
                    logger.warning("line %d skipped: %s", lineno, exc)
                    continue
                raise TinycoreError(f"line {lineno}: {exc}") from exc
            count += 1
            if args.checkpoint and count % args.checkpoint == 0:
                print(
                    f"checkpoint n={count} live={stream.live_points()} "
                    f"epoch={stream.epoch} reduces={stream.reduce_count}",
                    file=sys.stderr,
                )
    finally:
        if fh is not sys.stdin:
            fh.close()
    if count == 0:
        raise TinycoreError("empty input")
    core = stream.query()
    cf = CoresetFile(
        n_source=count,
        delta=core.delta,
        eps=args.epsilon,
        seed=config.seed,
        kind=args.kind,
        construction=f"stream-{args.kind}",
        points=np.asarray(core.points),
        weights=np.asarray(core.weights),
    )
    _write(args.output, cf, args.format)
    print(
        f"stream: {count} points -> {cf.m} summary points, delta={cf.delta:.6g}, "
        f"peak_live={stream.peak_live_points}, reduces={stream.reduce_count}"
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    cf = read_coreset_file(args.coreset)
    points = load_points(args.data, args.weighted, args.header)
    if cf.d != points.d:
        raise TinycoreError(f"dimension mismatch: coreset d={cf.d}, data d={points.d}")
    core = cf.to_coreset()
    rng = np.random.default_rng(args.seed)
    scale = float(np.max(np.abs(points.rows))) + 1.0
    ratios = []
    for i in range(args.count):
        shape = _random_query(rng, points.d, args.query_kind, args.j, args.k, scale)
        true_cost = dist2(points, shape)
        est = coreset_cost(core, shape)
        ratio = est / true_cost if true_cost > 0 else (1.0 if est == 0 else float("inf"))
        ratios.append(ratio)
        print(f"query {i:04d}: true={true_cost:.8g} coreset={est:.8g} ratio={ratio:.8f}")
    ratios = np.asarray(ratios)
    max_dev = float(np.max(np.abs(ratios - 1.0)))
    tol = 3.0 * args.epsilon if args.streamed else args.epsilon
    print(f"max_ratio={np.max(ratios):.8f} mean_ratio={np.mean(ratios):.8f} max_dev={max_dev:.8f} tol={tol:.8f}")
    if max_dev <= tol + 1e-9:
        print("PASS")
        return EXIT_OK
    print("FAIL")
    return EXIT_DATA


def cmd_solve(args: argparse.Namespace) -> int:
    points = load_points(args.input, args.weighted, args.header)
    if args.problem == "kmeans":
        problem = KMeansProblem(k=args.k)

        def solver(ps, pb):
            if ps.n <= 12:
                return exact_tiny_solver(ps, pb)
            return lloyd_solve(ps, min(pb.k, ps.n), args.seed)

    else:
        problem = AffineClusteringProblem(j=args.j, k=1)
        solver = exact_tiny_solver  # the affine 1-clustering fit is exact at any n
    shape = approx_solution(points, problem, args.epsilon, solver, seed=args.seed)
    cost = dist2(points, shape)
    with open(args.output, "w") as fh:
        if isinstance(shape, CenterSet):
            fh.write("# tinycore solution kind=centers cost=%.17g\n" % cost)
            for row in np.asarray(shape.centers):
                fh.write(",".join("%.17g" % v for v in row) + "\n")
        else:
            fh.write("# tinycore solution kind=subspace cost=%.17g\n" % cost)
            if shape.offset is not None:
                fh.write("offset," + ",".join("%.17g" % v for v in np.asarray(shape.offset)) + "\n")
            for col in np.asarray(shape.basis).T:
                fh.write("basis," + ",".join("%.17g" % v for v in col) + "\n")
    print(f"solve: cost on full data = {cost:.8g}")
    return EXIT_OK


def _write(path: str, cf: CoresetFile, fmt: str) -> None:
    if fmt == "binary":
        write_coreset_binary(path, cf)
    else:
        write_coreset_csv(path, cf)


# -- argument parsing ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tinycore", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    core = sub.add_parser("coreset", help="batch coreset construction")
    core_sub = core.add_subparsers(dest="problem", required=True)
    km = core_sub.add_parser("kmeans", help="k-means sensitivity-sampling coreset")
    km.add_argument("--k", type=int, required=True)
    km.add_argument("--epsilon", type=float, required=True)
    km.add_argument("--delta", type=float, default=0.1)
    km.add_argument("--seed", type=int, required=True)
    km.add_argument("--small", action="store_true", help="dimension-independent variant")
    _common_io(km)
    ss = core_sub.add_parser("subspace", help="linear or affine subspace coreset")
    ss.add_argument("--j", type=int, required=True)
    ss.add_argument("--epsilon", type=float, required=True)
    ss.add_argument("--affine", action="store_true")
    ss.add_argument("--seed", type=int, default=0, help="recorded in the header only")
    _common_io(ss)

    st = sub.add_parser("stream", help="single-pass streaming coreset")
    st.add_argument("--kind", choices=["subspace", "affine", "kmeans"], required=True)
    st.add_argument("--j", type=int, default=None)
    st.add_argument("--k", type=int, default=None)
    st.add_argument("--epsilon", type=float, required=True)
    st.add_argument("--delta", type=float, default=0.1)
    st.add_argument("--seed", type=int, required=True)
    st.add_argument("--checkpoint", type=int, default=0, help="log state every N points")
    st.add_argument("--skip-malformed", action="store_true")
    st.add_argument("input", help="input CSV file or - for stdin")
    st.add_argument("-o", "--output", default="out.cs")
    st.add_argument("--format", choices=["binary", "csv"], default="binary")
    st.add_argument("--header", action="store_true", help="skip the first line")

    ev = sub.add_parser("eval", help="evaluate a coreset file against its source data")
    ev.add_argument("coreset")
    ev.add_argument("data")
    ev.add_argument("--query-kind", choices=["centers", "subspace", "affine"], required=True)
    ev.add_argument("--j", type=int, default=1)
    ev.add_argument("--k", type=int, default=1)
    ev.add_argument("--count", type=int, default=200)
    ev.add_argument("--epsilon", type=float, required=True)
    ev.add_argument("--seed", type=int, required=True)
    ev.add_argument("--streamed", action="store_true", help="allow the 3*eps streaming slack")
    ev.add_argument("--weighted", action="store_true")
    ev.add_argument("--header", action="store_true")

    so = sub.add_parser("solve", help="approximate solution via reduce + coreset + solver")
    so_sub = so.add_subparsers(dest="problem", required=True)
    sk = so_sub.add_parser("kmeans")
    sk.add_argument("--k", type=int, required=True)
    sk.add_argument("--epsilon", type=float, required=True)
    sk.add_argument("--seed", type=int, required=True)
    _common_io(sk)
    sa = so_sub.add_parser("affine")
    sa.add_argument("--j", type=int, required=True)
    sa.add_argument("--epsilon", type=float, required=True)
    sa.add_argument("--seed", type=int, required=True)
    _common_io(sa)
    return parser


def _common_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input CSV file")
    p.add_argument("-o", "--output", default="out.cs")
    p.add_argument("--format", choices=["binary", "csv"], default="binary")
    p.add_argument("--weighted", action="store_true", help="last CSV column is a weight")
    p.add_argument("--header", action="store_true", help="skip the first line")


def main(argv: Optional[list[str]] = None) -> int:
    level = os.environ.get("TINYCORE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "coreset": cmd_coreset,
        "stream": cmd_stream,
        "eval": cmd_eval,
        "solve": cmd_solve,
    }
    try:
        return handlers[args.command](args)
    except TinycoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
