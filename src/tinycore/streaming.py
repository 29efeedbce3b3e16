"""Merge-and-reduce streaming summaries for subspace and k-means coresets.

Incoming points fill a buffer; a full buffer is compressed to a level
coreset and cascaded through a binary counter of buckets, re-compressing on
every carry and summing the offsets.  Epochs double in length; at the end
of epoch h the surviving buckets are folded into one per-epoch summary and
the working precision tightens to eps / (10 * (h + 1)), which keeps the
total multiplicative error of a point that passes through every level
within (1 + eps).  Randomized reduces spend failure budget delta / j^2 on
the j-th construction, so the whole stream stays within delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coreset import (
    Coreset,
    affine_subspace_coreset_weighted,
    coreset_size_linear,
    linear_subspace_coreset,
    merge_coresets,
)
from .clustering import kmeans_coreset
from .errors import EmptyState, InvalidArgument, InvalidInput, as_floats, check_int, check_real, check_seed
from .linalg import PointSet

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
        self._epoch_seen = 0
        self._constructions = 2  # failure budget schedule starts at delta/4
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
        gamma = self.gamma()
        cfg = self.config
        if cfg.kind == "subspace":
            return coreset_size_linear(cfg.j, gamma)
        if cfg.kind == "affine":
            return 2 * coreset_size_linear(cfg.j, gamma)
        return max(2 * cfg.k + 2, math.ceil(cfg.c_stream * cfg.k / gamma))

    def live_points(self) -> int:
        return self._live

    def memory_bound(self) -> float:
        """Instrumented ceiling: live points stay below c * level_size * epoch."""
        return MEMORY_FACTOR * max(self._epoch, 1) * self.level_size() + 2 * self.level_size()

    # -- reduction ------------------------------------------------------

    def _next_seed(self) -> int:
        mix = np.random.SeedSequence([self.config.seed, self._constructions])
        return int(mix.generate_state(1)[0])

    def _compress(self, parts: list[Coreset], eps: float, seed: int) -> Coreset:
        """One coreset of the union of the parts at precision eps, offsets added."""
        pts, wts, delta = merge_coresets(parts)
        cfg = self.config
        if cfg.kind == "subspace":
            # level inputs carry unit weights throughout the linear stream
            out = linear_subspace_coreset(PointSet(pts), cfg.j, eps)
        elif cfg.kind == "affine":
            out = affine_subspace_coreset_weighted(PointSet(pts, wts), cfg.j, eps)
        else:
            out = kmeans_coreset(
                PointSet(pts, wts),
                cfg.k,
                min(eps, 0.999),  # the config admits eps = 1, the sampler does not
                cfg.delta / self._constructions**2,
                seed,
                sample_size=self.level_size(),
            )
        return Coreset(points=out.points, weights=out.weights, delta=out.delta + delta)

    def _reduce(self, parts: list[Coreset]) -> Coreset:
        """Replace live parts by their compression at the current level precision."""
        out = self._compress(parts, self.gamma(), self._next_seed())
        self._constructions += 1
        self.reduce_count += 1
        self._live += out.size - sum(p.size for p in parts)
        return out

    def _buffer_coreset(self) -> Coreset:
        return Coreset(points=np.vstack(self._buffer), weights=np.ones(self._buffered), delta=0.0)

    def _flush_buffer(self) -> None:
        carry = self._reduce([self._buffer_coreset()])
        self._buffer, self._buffered = [], 0
        for level, other in enumerate(self._buckets):
            if other is None:
                self._buckets[level] = carry
                return
            self._buckets[level] = None
            carry = self._reduce([carry, other])
        self._buckets.append(carry)

    def _roll_epoch(self) -> None:
        occupied = [b for b in self._buckets if b is not None]
        self._buckets = []
        if len(occupied) == 1:
            self._summaries.append(occupied[0])
        elif occupied:
            self._summaries.append(self._reduce(occupied))
        self._epoch += 1
        self._epoch_seen = 0

    def _feed(self, block: np.ndarray) -> None:
        """Take an n x d block, flushing and rolling exactly where row-by-row
        inserts would; a block with a bad row is rejected whole."""
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
            take = min(n - start, threshold - self._buffered, 2**self._epoch - self._epoch_seen)
            self._buffer.append(block[start : start + take])
            start += take
            self._buffered += take
            self._points_seen += take
            self._epoch_seen += take
            self._live += take
            flush = self._buffered >= threshold
            roll = self._epoch_seen >= 2**self._epoch
            if flush or roll:
                # a row-by-row feed sees the state one row before the reduce, never the one at it
                self.peak_live_points = max(self.peak_live_points, self._live - 1)
                if flush:
                    self._flush_buffer()
                if roll:
                    self._roll_epoch()
            self.peak_live_points = max(self.peak_live_points, self._live)

    # -- public API -----------------------------------------------------

    def insert(self, point: np.ndarray) -> None:
        self._feed(np.array(as_floats(point, InvalidInput, "stream point")).reshape(1, -1))

    def extend(self, points: np.ndarray) -> None:
        block = np.atleast_2d(np.array(as_floats(points, InvalidInput, "stream points")))
        if block.ndim != 2:
            raise InvalidInput("stream blocks must be n x d arrays")
        self._feed(block)

    def query(self) -> Coreset:
        """Compress everything seen so far into one coreset at full precision."""
        if self._points_seen == 0:
            raise EmptyState("no points have been inserted")
        parts = self._summaries + [b for b in self._buckets if b is not None]
        if self._buffer:
            parts.append(self._buffer_coreset())
        mix = np.random.SeedSequence([self.config.seed, self._constructions, self._points_seen])
        return self._compress(parts, self.config.eps, int(mix.generate_state(1)[0]))

    def occupied_levels(self) -> list[int]:
        return [i for i, b in enumerate(self._buckets) if b is not None]
