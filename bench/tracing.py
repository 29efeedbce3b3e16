"""Spans around tinycore's public functions, installed from outside `src/`.

`Recorder.install` wraps each function named in TARGETS (and the stream
methods in METHODS) and puts the wrapper in the module that defines the
function and in every tinycore module that imported it by name.
`uninstall` puts the originals back. A span is [name, start, end, parent
index]; its self time is its duration minus the durations of its direct
children. Spans stay in memory and are written out once, by `write`.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import tinycore
import tinycore.cli
import tinycore.streaming

TARGETS = {
    "linalg": ("svd", "dist2_rows", "dist2"),
    "coreset": (
        "coreset_cost",
        "linear_subspace_coreset",
        "affine_subspace_coreset",
        "affine_subspace_coreset_weighted",
    ),
    "dimred": ("reduce", "lift_coreset"),
    "sensitivity": ("bicriteria_kmeans", "kmeans_sensitivities", "sensitivity_sample"),
    "clustering": ("kmeans_coreset", "small_kmeans_coreset"),
    "cli": ("load_points", "cmd_stream", "write_coreset_binary", "write_coreset_csv"),
}
METHODS = ("insert", "extend", "query")  # of streaming.CoresetStream

SUBSPACE_BUILDERS = {f"coreset.{n}" for n in TARGETS["coreset"][1:]}
KMEANS_BUILDERS = {"clustering.kmeans_coreset", "clustering.small_kmeans_coreset"}
STREAM_FEED = {"streaming.insert", "streaming.extend"}
DIST2 = {"linalg.dist2_rows", "linalg.dist2"}

# name -> unit, in the order the traced run prints them
UNITS = {
    "linalg.svd_s": "s",
    "linalg.svd_calls": "count",
    "linalg.dist2_s": "s",
    "coreset.build_self_s": "s",
    "coreset.cost_s": "s",
    "coreset.cost_calls": "count",
    "dimred.reduce_self_s": "s",
    "dimred.lift_s": "s",
    "dimred.capped_reduces": "count",
    "sensitivity.bicriteria_s": "s",
    "sensitivity.sensitivities_s": "s",
    "sensitivity.sample_s": "s",
    "sensitivity.sampled_points": "points",
    "clustering.kmeans_coreset_self_s": "s",
    "streaming.insert_overhead_us": "us",
    "streaming.reduce_s": "s",
    "streaming.query_s": "s",
    "streaming.reduces": "count",
    "streaming.peak_live_points": "points",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.round_s": "s",
    "trace.overhead_pct": "%",
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)  # taken at span boundaries
        self.peak_live = 0
        self.patched: list[tuple[object, str, object]] = []
        self.group_start = 0
        self.t0 = time.perf_counter()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _hooks(self) -> dict:
        counts = self.counts

        def reduced(args, kwargs, out):
            points = _arg(args, kwargs, 0, "points")
            counts["dimred.capped_reduces"] += out.m == min(points.n, points.d)

        def sampled(args, kwargs, out):
            counts["sensitivity.sampled_points"] += out.size

        def queried(args, kwargs, out):
            stream = args[0]
            self.peak_live = max(self.peak_live, stream.peak_live_points)
            counts["stream_rows"] += stream.points_seen

        def written(args, kwargs, out):
            counts["cli.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

        return {
            "dimred.reduce": reduced,
            "sensitivity.sensitivity_sample": sampled,
            "streaming.query": queried,
            "cli.write_coreset_binary": written,
            "cli.write_coreset_csv": written,
        }

    def install(self) -> None:
        hooks = self._hooks()
        replace = {}
        for module, names in TARGETS.items():
            mod = sys.modules[f"tinycore.{module}"]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                replace[id(orig)] = (orig, self._wrap(f"{module}.{fn_name}", orig, hooks.get(f"{module}.{fn_name}")))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tinycore" and not mod_name.startswith("tinycore."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and value is replace[id(value)][0]:
                    self.patched.append((mod, attr, value))
                    setattr(mod, attr, replace[id(value)][1])
        cls = tinycore.streaming.CoresetStream
        for method in METHODS:
            orig = cls.__dict__[method]
            self.patched.append((cls, method, orig))
            setattr(cls, method, self._wrap(f"streaming.{method}", orig, hooks.get(f"streaming.{method}")))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched = []

    # -- layer metrics --------------------------------------------------------

    def open_group(self) -> None:
        self.group_start = len(self.spans)

    def close_group(self, scale: float) -> None:
        """Add the layer times of the spans since open_group, calibrated by `scale`."""
        spans = self.spans[self.group_start :]
        base = self.group_start
        covered = defaultdict(float)
        for name, t0, t1, parent in spans:
            if parent >= base:
                covered[parent] += t1 - t0
        tot = self.totals
        for i, (name, t0, t1, parent) in enumerate(spans, start=base):
            dur = (t1 - t0) * scale
            own = dur - covered[i] * scale
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            if name == "linalg.svd":
                tot["linalg.svd_s"] += dur
                self.counts["linalg.svd_calls"] += 1
            elif name in DIST2 and parent_name not in DIST2:
                tot["linalg.dist2_s"] += dur
            elif name in SUBSPACE_BUILDERS:
                tot["coreset.build_self_s"] += own
            elif name == "coreset.coreset_cost":
                tot["coreset.cost_s"] += dur
                self.counts["coreset.cost_calls"] += 1
            elif name == "dimred.reduce":
                tot["dimred.reduce_self_s"] += own
            elif name == "dimred.lift_coreset":
                tot["dimred.lift_s"] += dur
            elif name == "sensitivity.bicriteria_kmeans":
                tot["sensitivity.bicriteria_s"] += dur
            elif name == "sensitivity.kmeans_sensitivities":
                tot["sensitivity.sensitivities_s"] += dur
            elif name == "sensitivity.sensitivity_sample":
                tot["sensitivity.sample_s"] += dur
            elif name in STREAM_FEED:
                tot["stream_overhead_s"] += own
            elif name == "streaming.query":
                tot["streaming.query_s"] += dur
            elif name == "cli.load_points":
                tot["cli.parse_s"] += dur
            elif name == "cli.cmd_stream":
                tot["cli.parse_s"] += own  # the command's own line loop: read, split, float()
            elif name.startswith("cli.write_coreset"):
                tot["cli.write_s"] += dur
            if name in KMEANS_BUILDERS:
                tot["clustering.kmeans_coreset_self_s"] += own
            if (name in SUBSPACE_BUILDERS or name in KMEANS_BUILDERS) and parent_name in STREAM_FEED:
                tot["streaming.reduce_s"] += dur
                self.counts["streaming.reduces"] += 1

    def metrics(self, traced_rounds: int, round_s: float, overhead: float) -> dict:
        """Every layer metric per traced round (the insert overhead per streamed row).

        round_s is the calibrated time of a traced round's builds and queries,
        the base of each layer's share.
        """
        out = {}
        for name, unit in UNITS.items():
            if name == "streaming.insert_overhead_us":
                rows = self.counts["stream_rows"]
                value = self.totals["stream_overhead_s"] / rows * 1e6 if rows else 0.0
            elif name == "streaming.peak_live_points":
                value = float(self.peak_live)
            elif name == "trace.round_s":
                value = round_s
            elif name == "trace.overhead_pct":
                value = overhead * 100
            elif unit == "s":
                value = self.totals[name] / traced_rounds
            else:
                value = self.counts[name] / traced_rounds
            out[name] = (value, unit)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent"],
                 "spans": [[n, t0 - self.t0, t1 - self.t0, p] for n, t0, t1, p in self.spans]},
                fh,
            )
