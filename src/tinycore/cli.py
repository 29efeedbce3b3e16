"""Command-line tool: build, stream, evaluate and solve over coreset files.

Commands
    coreset   batch construction (subspace / affine / k-means / small k-means)
    stream    single-pass construction over stdin or a file
    eval      compare coreset cost against true cost on queries at the data's scale
    solve     k centers by reduce + coreset + solver, or the exact best affine
              j-subspace, which --epsilon and --seed do not change

Every command reads its points through one reader: `-` is stdin,
`--weighted` splits off the last column (a one-column input is rejected at
its first block), and input without a row is an error.  CSV input skips
blank lines and `#` comments.  A line that does not parse (an undecodable
byte included), is ragged or holds a non-finite value is an error naming
`file:line`; `stream --skip-malformed` warns and drops it.
Input is parsed in blocks of about 64 KiB of lines.  A block of plain
numbers goes to numpy's C reader; any other block, and any block it
declines, is read line by line with Python's float(), which alone decides
what is accepted, so both give the same rows and errors.  `stream` holds
one block at a time and extends the stream block by block, so from a live
pipe its `--checkpoint` lines come once per block rather than once per
line; their text does not change.

Exit codes: 0 success, 1 data or validation error, 2 usage error.  All
randomized commands require --seed, in [0, 2**63).  The TINYCORE_LOG
environment variable sets the log level.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import math
import os
import struct
import sys
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import __version__
from .clustering import (
    approx_solution,
    best_affine_subspace,
    brute_force_kmeans,
    kmeans_coreset,
    lloyd_solve,
    small_kmeans_coreset,
)
from .coreset import Coreset, coreset_cost, _subspace_coreset
from .errors import TinycoreError, check_real
from .linalg import CenterSet, PointSet, Subspace, dist2, _too_large, _Tsqr
from .sensitivity import _d2_pass
from .streaming import STREAM_KINDS, CoresetStream, StreamConfig

logger = logging.getLogger("tinycore.cli")

MAGIC = b"TCS1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQQddq16s32s")

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    """A bad flag, found before any file is opened: `main` prints it and exits 2."""


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
        """The coreset, sharing the points and weights when they are read-only
        (as :func:`read_coreset_binary` gives them), else copying them."""
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
        raw = fh.read()
    # checked on the bytes: a body that is not a whole number of floats has no array
    if len(raw) != m * (d + 1) * 8:
        raise TinycoreError("coreset body size does not match its header")
    rows = np.frombuffer(raw, dtype="<f8").reshape(m, d + 1)
    # one copy each out of the file, read-only, so to_coreset() shares them
    points, weights = rows[:, :d].copy(), rows[:, d].copy()
    for a in (points, weights):
        a.setflags(write=False)
    try:
        kind, construction = (f.rstrip(b"\0").decode() for f in (kind, construction))
    except UnicodeDecodeError as exc:
        raise TinycoreError(f"{path}: bad coreset header field: {exc}") from exc
    return CoresetFile(
        n_source=n,
        delta=delta,
        eps=eps,
        seed=seed,
        kind=kind,
        construction=construction,
        points=points,
        weights=weights,
    )


def _csv_line(values) -> str:
    return ",".join("%.17g" % v for v in values) + "\n"


def write_coreset_csv(path: str, cf: CoresetFile) -> None:
    with open(path, "w") as fh:
        fh.write("# tinycore coreset v%d\n" % FORMAT_VERSION)
        fh.write(
            "# n=%d m=%d d=%d delta=%.17g eps=%.17g seed=%d kind=%s construction=%s\n"
            % (cf.n_source, cf.m, cf.d, cf.delta, cf.eps, cf.seed, cf.kind, cf.construction)
        )
        fh.writelines(map(_csv_line, np.column_stack([cf.points, cf.weights])))


def read_coreset_csv(path: str) -> CoresetFile:
    meta: dict[str, str] = {}
    with open(path, "rb") as fh:
        blocks = list(_csv_blocks(fh, path, header=False, meta=meta))
    if not blocks:
        raise TinycoreError(f"{path}: empty coreset file")
    arr = np.concatenate(blocks)
    try:
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
    except ValueError as exc:
        raise TinycoreError(f"{path}: bad coreset header field: {exc}") from exc


def read_coreset_file(path: str) -> CoresetFile:
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_coreset_binary(path)
    return read_coreset_csv(path)


_BLOCK_BYTES = 1 << 16  # the size hint of each `readlines` call, so one block is about 64 KiB of lines

# The bytes on which numpy's C reader and float() agree.  On others they can
# differ: numpy strips \x1c-\x1f and, read as latin-1, \x85 and \xa0 around a
# field, which float() rejects, and float() reads `1_0`, which numpy rejects.
_C_READER_BYTES = b"0123456789.eE+-, \t\n"


def _c_block(lines: list[bytes], width: Optional[int]) -> Optional[np.ndarray]:
    """The lines as one array read by numpy's C reader (numpy >= 1.23), or None.

    Only a block of `_C_READER_BYTES` (and \\r directly before \\n) is given
    to it, and its result is kept only with one row per line, of `width`
    columns if set, all finite: then it holds the doubles that float() gives.
    Any other block, one with a bad or blank line included, is declined
    without a warning, for the per-line float() loop to decide.
    """
    data = b"".join(lines)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    # an all-blank block would make loadtxt warn "input contained no data"
    if data.translate(None, _C_READER_BYTES) or not data.strip():
        return None
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if block.shape[0] != len(lines) or width not in (None, block.shape[1]) or not np.isfinite(block).all():
        return None
    return block


def _csv_blocks(
    fh, name: str, header: bool, skip: bool = False, meta: Optional[dict] = None
) -> Iterator[np.ndarray]:
    """Yield the rows of the binary CSV file `fh` as n x d float arrays, one per
    block of lines.  A bad line raises `name:lineno: ...` once the good rows
    before it are yielded, or with `skip` is logged and dropped.  `key=value`
    tokens of `#` comments go into the dict `meta`, if given.

    Each block goes to numpy's C reader first (:func:`_c_block`), and if it
    declines, line by line to float(), so float() alone decides which lines
    are accepted and what they hold."""
    width = None
    lineno = 0  # the number of the line before the block
    while lines := fh.readlines(_BLOCK_BYTES):
        if header and lineno == 0:
            lineno, lines = 1, lines[1:]
        block = _c_block(lines, width)
        if block is not None:
            width = block.shape[1]
            lineno += len(lines)
            yield block
            continue
        rows = []
        for line in map(bytes.strip, lines):
            lineno += 1
            if not line:
                continue
            if line.startswith(b"#"):
                if meta is not None:
                    tokens = line[1:].decode(errors="replace").split()
                    meta.update(tok.split("=", 1) for tok in tokens if "=" in tok)
                continue
            try:
                row = [float(v) for v in line.split(b",")]
            except ValueError as exc:
                problem = f"cannot parse row: {exc}"
            else:
                if width is not None and len(row) != width:
                    problem = f"expected {width} columns, got {len(row)}"
                elif not all(map(math.isfinite, row)):
                    problem = "non-finite value"
                else:
                    width = len(row)
                    rows.append(row)
                    continue
            if not skip:
                if rows:
                    yield np.array(rows)
                raise TinycoreError(f"{name}:{lineno}: {problem}")
            logger.warning("%s:%d: skipped: %s", name, lineno, problem)
        if rows:
            yield np.array(rows)


def _point_blocks(
    path: str, header: bool, weighted: bool, skip: bool = False
) -> Iterator[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Yield the CSV input `path` (`-` is stdin) as (rows, weights), one pair
    per block of :func:`_csv_blocks`: the weights are the last column split
    off with `weighted`, else None.  Input without a row raises
    `name: empty input` once it is read through."""
    name, empty = "<stdin>" if path == "-" else path, True
    with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
        for block in _csv_blocks(fh, name, header, skip):
            if weighted and block.shape[1] < 2:
                raise TinycoreError(f"{name}: weighted rows need >= 2 columns")
            empty = False
            yield (block[:, :-1], block[:, -1]) if weighted else (block, None)
    if empty:
        raise TinycoreError(f"{name}: empty input")


def load_points(path: str, weighted: bool, header: bool) -> PointSet:
    """Read a CSV of points (`-` is stdin), optionally with a trailing weight
    column.  The blocks' rows and weights are each concatenated once and
    flagged read-only, so the point set keeps them without a copy."""
    rows, weights = zip(*_point_blocks(path, header, weighted))
    rows, weights = np.concatenate(rows), np.concatenate(weights) if weighted else None
    for a in (rows, weights)[: 1 + weighted]:
        a.setflags(write=False)
    return PointSet(rows, weights)


def _random_query(rng: np.random.Generator, points: PointSet, kind: str, j: int, k: int, i: int):
    """Query `i` at the data's own scale.  Center sets are k data rows, or
    for odd `i` k D² seeds of the rows, each moved in a normal direction by
    up to the rows' RMS spread about their mean.  Affine offsets are a data
    row; linear subspaces are uniform."""
    if kind == "centers":
        frame, d = points.frame, points.d
        if i % 2:
            picked = _d2_pass(frame, np.ones(points.n), k, rng, 1)[0][0]
        else:
            picked = rng.integers(points.n, size=k)
        spread = math.sqrt(np.mean(frame.norms) / d)  # per coordinate
        if not math.isfinite(spread):
            raise _too_large()
        return CenterSet(points.rows[picked] + rng.random() * spread * rng.standard_normal((k, d)))
    basis, _ = np.linalg.qr(rng.standard_normal((points.d, j)))
    offset = points.rows[rng.integers(points.n)] if kind == "affine" else None
    return Subspace(basis=basis, offset=offset)


def _check_j(j: int, d: int) -> None:
    if not 1 <= j <= d - 1:
        raise TinycoreError(f"--j {j} out of range: subspaces need 1 <= j <= d - 1 = {d - 1}")


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise TinycoreError(f"--k {k} out of range: k-means needs 1 <= k <= n = {n}")


# -- commands -----------------------------------------------------------


def cmd_coreset(args: argparse.Namespace) -> int:
    if args.problem == "kmeans":
        points = load_points(args.input, args.weighted, args.header)
        n = points.n
        t0 = time.perf_counter()
        _check_k(args.k, n)
        builder = small_kmeans_coreset if args.small else kmeans_coreset
        core = builder(points, args.k, args.epsilon, args.delta, args.seed)
        construction = "small-kmeans" if args.small else "kmeans"
        kind = "kmeans"
    else:
        t0 = time.perf_counter()  # the rows are factored as they are read
        acc = _Tsqr(centred=args.affine)
        for rows, weights in _point_blocks(args.input, args.header, args.weighted):
            if acc.n == 0:  # the first block gives d, against which --j is checked
                _check_j(args.j, rows.shape[1])
            acc.feed(rows, weights)
        core, n = _subspace_coreset(acc, args.j, args.epsilon), acc.n
        construction = kind = "affine" if args.affine else "subspace"
    elapsed = time.perf_counter() - t0
    cf = _write_coreset(args, core, n, kind, construction)
    print(
        f"coreset: {n} x {cf.d} -> {cf.m} points, "
        f"delta={cf.delta:.6g}, total_weight={np.sum(cf.weights):.6g}, {elapsed:.3f}s"
    )
    return EXIT_OK


def cmd_stream(args: argparse.Namespace) -> int:
    if args.checkpoint < 0:
        raise _UsageError("--checkpoint must be >= 0")
    if args.kind in ("subspace", "affine") and args.j is None:
        raise _UsageError("--kind subspace/affine requires --j")
    if args.kind == "kmeans" and args.k is None:
        raise _UsageError("--kind kmeans requires --k")
    count, every = 0, args.checkpoint
    for block, _ in _point_blocks(args.input, args.header, False, args.skip_malformed):
        if count == 0:  # the first block gives d, against which --j is checked
            if args.kind != "kmeans":
                _check_j(args.j, block.shape[1])
            stream = CoresetStream(StreamConfig(
                kind=args.kind, eps=args.epsilon, j=args.j, k=args.k, delta=args.delta, seed=args.seed
            ))
        # extend up to each --checkpoint multiple, so its line shows the state at that count
        start = 0
        while start < len(block):
            stop = min(len(block), start + every - count % every) if every else len(block)
            stream.extend(block[start:stop])
            count += stop - start
            start = stop
            if every and count % every == 0:
                print(
                    f"checkpoint n={count} live={stream.live_points()} "
                    f"epoch={stream.epoch} reduces={stream.reduce_count}",
                    file=sys.stderr,
                )
    if args.kind == "kmeans":
        _check_k(args.k, count)
    cf = _write_coreset(args, stream.query(), count, args.kind, f"stream-{args.kind}")
    print(
        f"stream: {count} points -> {cf.m} summary points, delta={cf.delta:.6g}, "
        f"peak_live={stream.peak_live_points}, reduces={stream.reduce_count}"
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise _UsageError("--count must be >= 1")
    if args.query_kind == "centers" and args.k < 1:
        raise _UsageError("--k must be >= 1")
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        raise _UsageError("--epsilon must be finite and > 0")
    cf = read_coreset_file(args.coreset)
    points = load_points(args.data, args.weighted, args.header)
    if cf.d != points.d:
        raise TinycoreError(f"dimension mismatch: coreset d={cf.d}, data d={points.d}")
    if args.query_kind != "centers":
        _check_j(args.j, points.d)
    core = cf.to_coreset()
    rng = np.random.default_rng(args.seed)
    ratios = []
    for i in range(args.count):
        with np.errstate(over="ignore", invalid="ignore"):  # squares past float64 fail below
            shape = _random_query(rng, points, args.query_kind, args.j, args.k, i)
            true_cost, est = dist2(points, shape), coreset_cost(core, shape)
        for what, cost in (("data", true_cost), ("coreset", est)):
            if not math.isfinite(cost):
                raise TinycoreError(f"query {i}: the cost on the {what} is {cost}, not finite")
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
        _check_k(args.k, points.n)

        def solver(ps, k):
            if ps.n <= 12:
                return brute_force_kmeans(ps, k)
            return lloyd_solve(ps, min(k, ps.n), args.seed)

        shape = approx_solution(points, args.k, args.epsilon, solver, seed=args.seed)
    else:
        _check_j(args.j, points.d)
        check_real("eps", args.epsilon, hi=1)  # as for k-means, though the fit below is exact
        shape = best_affine_subspace(points, args.j)
    cost = dist2(points, shape)
    if not math.isfinite(cost):
        raise TinycoreError(f"the solution's cost on the full data is {cost}, not finite")
    with open(args.output, "w") as fh:
        if isinstance(shape, CenterSet):
            fh.write("# tinycore solution kind=centers cost=%.17g\n" % cost)
            fh.writelines(map(_csv_line, np.asarray(shape.centers)))
        else:
            fh.write("# tinycore solution kind=subspace cost=%.17g\n" % cost)
            if shape.offset is not None:
                fh.write("offset," + _csv_line(np.asarray(shape.offset)))
            for col in np.asarray(shape.basis).T:
                fh.write("basis," + _csv_line(col))
    print(f"solve: cost on full data = {cost:.8g}")
    return EXIT_OK


def _write_coreset(
    args: argparse.Namespace, core: Coreset, n_source: int, kind: str, construction: str
) -> CoresetFile:
    """Write `core` to --output in --format, with --epsilon and --seed in its header."""
    cf = CoresetFile(
        n_source=n_source,
        delta=core.delta,
        eps=args.epsilon,
        seed=args.seed,
        kind=kind,
        construction=construction,
        points=np.asarray(core.points),
        weights=np.asarray(core.weights),
    )
    write = write_coreset_binary if args.format == "binary" else write_coreset_csv
    write(args.output, cf)
    return cf


# -- argument parsing ----------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every call returns the
    same parser, whose `parse_args` makes a fresh namespace each time."""
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
    st.add_argument("--kind", choices=STREAM_KINDS, required=True)
    st.add_argument("--j", type=int, default=None)
    st.add_argument("--k", type=int, default=None)
    st.add_argument("--epsilon", type=float, required=True)
    st.add_argument("--delta", type=float, default=0.1)
    st.add_argument("--seed", type=int, required=True)
    st.add_argument("--checkpoint", type=int, default=0, help="log state every N points")
    st.add_argument("--skip-malformed", action="store_true")
    st.add_argument("input", help="input CSV file or - for stdin")
    st.add_argument("-o", "--output", default="out.cs")
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

    so = sub.add_parser("solve", help="k-means via reduce + coreset + solver, or the exact affine fit")
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
    for p in (km, ss, st):  # solutions are always CSV
        p.add_argument("--format", choices=["binary", "csv"], default="binary")
    return parser


def _common_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input CSV file")
    p.add_argument("-o", "--output", default="out.cs")
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
        if not 0 <= args.seed < 2**63:  # the TCS1 header stores it as a signed 64-bit integer
            raise _UsageError("--seed must be in [0, 2**63)")
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TinycoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
