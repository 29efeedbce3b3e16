"""Merge-and-reduce streaming summaries for subspace and k-means coresets.

Incoming points fill a buffer; a full buffer is compressed to a level
coreset and cascaded through a binary counter of buckets (`linalg._carry`,
the counter of the TSQR tree too), re-compressing the newer coreset and the
held one on every carry and summing the offsets.  A reduce feeds its parts
(the buffer's row blocks at unit weight) straight into one level builder:
one TSQR accumulator for subspaces, one stacked point set for k-means, with
the bytes of the public builder on `merge_coresets` of the parts.  Epochs double in
length; at the end of epoch h the surviving buckets are folded into one
per-epoch summary and the working precision tightens to eps / (10 * (h + 1)),
which keeps the total multiplicative error of a point that passes through
every level within (1 + eps).  Randomized reduces spend failure budget
delta / j^2 on the j-th construction, so the whole stream stays within delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coreset import Coreset, _subspace_coreset, coreset_size_linear
from .clustering import kmeans_coreset
from .errors import (
    EmptyState, InvalidArgument, InvalidInput, as_floats, check_int, check_real, check_seed, size_limit,
)
from .linalg import PointSet, _Tsqr, _carry

STREAM_KINDS = ("subspace", "affine", "kmeans")
DEFAULT_C_STREAM = 1.0
MEMORY_FACTOR = 3.0


@dataclass(frozen=True)
class StreamConfig:
    """Problem kind and parameters fixed for the lifetime of a stream."""

    kind: str
    eps: float
    j: Optional[int] = None
    k: Optional[int] = None
    delta: float = 0.1
    seed: int = 0
    c_stream: float = DEFAULT_C_STREAM

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in STREAM_KINDS:
            raise InvalidArgument(f"kind must be one of {STREAM_KINDS}")
        check_real("eps", self.eps, hi=1, closed=True)
        check_seed(self.seed)
        if self.kind in ("subspace", "affine"):
            check_int("j", self.j)
        else:
            check_int("k", self.k)
            check_real("delta", self.delta, hi=1)
            check_real("c_stream", self.c_stream)


class CoresetStream:
    """Single-writer merge-and-reduce state machine.

    Queries take a consistent snapshot and do not mutate the state, so the
    same stream prefix always yields byte-identical summaries.
    """

    def __init__(self, config: StreamConfig):
        self.config = config
        self._d: Optional[int] = None
        self._buffer: list[np.ndarray] = []  # row blocks not yet reduced
        self._buffered = 0
        self._buckets: list[Optional[Coreset]] = []
        self._summaries: list[Coreset] = []
        self._epoch = 1
        self._points_seen = 0
        self._live = 0
        self.reduce_count = 0
        self.peak_live_points = 0

    # -- sizing ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def points_seen(self) -> int:
        return self._points_seen

    def gamma(self) -> float:
        """The current epoch's level precision."""
        return self.config.eps / (10.0 * self._epoch)

    def level_size(self) -> int:
        """Target coreset size for one reduce at the current epoch's precision."""
        cfg, gamma = self.config, self.gamma()
        if cfg.kind == "kmeans":
            with size_limit("level size"):
                return max(2 * cfg.k + 2, math.ceil(cfg.c_stream * cfg.k / gamma))
        # an affine level holds twice the rows of a linear one
        return (2 if cfg.kind == "affine" else 1) * coreset_size_linear(cfg.j, gamma)

    def live_points(self) -> int:
        return self._live

    def memory_bound(self) -> float:
        """Instrumented ceiling: live points stay below c * level_size * epoch."""
        return MEMORY_FACTOR * max(self._epoch, 1) * self.level_size() + 2 * self.level_size()

    # -- reduction ------------------------------------------------------

    def _seed(self, *key: int) -> int:
        mix = np.random.SeedSequence([self.config.seed, self.reduce_count + 2, *key])
        return int(mix.generate_state(1)[0])

    def _compress(self, parts: list[Coreset], blocks: Sequence[np.ndarray], final: bool) -> Coreset:
        """One coreset of the union of the parts and the unit-weight row blocks
        (fed in that order) at the level precision, a subspace one at eps if final, offsets added."""
        cfg = self.config
        if cfg.kind == "kmeans":
            rows = np.vstack([*(p.points for p in parts), *blocks])
            w = np.concatenate([*(p.weights for p in parts), *(np.ones(b.shape[0]) for b in blocks)])
            # k-means level coresets carry offset 0, so there is none to add
            return kmeans_coreset(
                PointSet(rows, w),
                cfg.k,
                self.gamma(),  # only checked: the sample size is pinned
                # the j-th construction, j = reduce_count + 2, spends delta / j^2 (delta/4 first)
                cfg.delta / (self.reduce_count + 2) ** 2,
                self._seed(self._points_seen) if final else self._seed(),
                sample_size=self.level_size(),
            )
        eps = cfg.eps if final else self.gamma()
        # the TSQR bytes depend on the row count alone, not on where blocks are cut;
        # linear level inputs carry unit weights throughout; fed with them, a
        # 12000 x 5 subspace stream gave the same bytes in 2.2 ms, not 1.9 ms
        # (best of 300, one BLAS thread), so they go in unweighted
        acc = _Tsqr(centred=cfg.kind == "affine")
        for p in parts:
            acc.feed(p.points, p.weights if acc.centred else None)
        for b in blocks:
            acc.feed(b, np.ones(b.shape[0]) if acc.centred else None)
        return _subspace_coreset(acc, cfg.j, eps, offset=float(sum(p.delta for p in parts)))

    def _reduce(self, parts: list[Coreset], blocks: Sequence[np.ndarray] = ()) -> Coreset:
        """Replace live parts and blocks by their compression at the current level precision."""
        out = self._compress(parts, blocks, final=False)
        self.reduce_count += 1
        self._live += out.size - sum(p.size for p in parts) - sum(b.shape[0] for b in blocks)
        return out

    def _flush_buffer(self) -> None:
        carry = self._reduce([], self._buffer)
        self._buffer, self._buffered = [], 0
        _carry(self._buckets, carry, lambda held, new: self._reduce([new, held]))

    def _roll_epoch(self) -> None:
        occupied = [b for b in self._buckets if b is not None]
        self._buckets = []
        if len(occupied) == 1:
            self._summaries.append(occupied[0])
        elif occupied:
            self._summaries.append(self._reduce(occupied))
        self._epoch += 1

    # -- public API -----------------------------------------------------

    def insert(self, point: np.ndarray) -> None:
        """Take one point, a d-vector or a 1 x d row: `extend` of a one-row block."""
        block = np.atleast_2d(as_floats(point, InvalidInput, "stream point"))
        if block.ndim != 2 or block.shape[0] != 1:
            raise InvalidInput("insert takes one point, a d-vector or a 1 x d row")
        self.extend(block)

    def extend(self, points: np.ndarray) -> None:
        """Take an n x d block (copied), flushing and rolling exactly where
        row-by-row inserts would; a block with a bad row is rejected whole."""
        block = np.atleast_2d(np.array(as_floats(points, InvalidInput, "stream points")))
        if block.ndim != 2 or block.shape[1] == 0:
            raise InvalidInput("stream blocks must be n x d arrays with d >= 1")
        if block.shape[0] == 0:
            return
        if not np.isfinite(block).all():
            raise InvalidInput("stream point contains non-finite entries")
        if self._d is None:
            if self.config.kind != "kmeans":  # else the first reduce would fail
                check_int("subspace dimension", self.config.j, 1, block.shape[1] - 1)
            self._d = block.shape[1]
        elif block.shape[1] != self._d:
            raise InvalidInput(f"point dimension {block.shape[1]} != stream dimension {self._d}")
        n, start = block.shape[0], 0
        while start < n:
            threshold = 2 * self.level_size()
            epoch_end = 2 ** (self._epoch + 1) - 2  # epoch h holds the 2^h rows after 2^h - 2
            take = min(n - start, threshold - self._buffered, epoch_end - self._points_seen)
            self._buffer.append(block[start : start + take])
            start += take
            self._buffered += take
            self._points_seen += take
            self._live += take
            flush = self._buffered >= threshold
            roll = self._points_seen >= epoch_end
            if flush or roll:
                # a row-by-row feed sees the state one row before the reduce, never the one at it
                self.peak_live_points = max(self.peak_live_points, self._live - 1)
                if flush:
                    self._flush_buffer()
                if roll:
                    self._roll_epoch()
            self.peak_live_points = max(self.peak_live_points, self._live)

    def query(self) -> Coreset:
        """Compress everything seen so far into one coreset at full precision."""
        if self._points_seen == 0:
            raise EmptyState("no points have been inserted")
        parts = self._summaries + [b for b in self._buckets if b is not None]
        return self._compress(parts, self._buffer, final=True)

    def occupied_levels(self) -> list[int]:
        return [i for i, b in enumerate(self._buckets) if b is not None]
