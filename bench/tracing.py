"""In-process spans around xtrap's public functions, and the per-layer
metrics derived from them.

Wrappers are installed from the benchmark's own files: every loaded xtrap
module attribute that *is* one of the wrapped functions is replaced, so a
name another module imported directly (``resample.knn``,
``resample.score_run``) nests as a child span too. A name that no longer
exists is skipped and listed in ``Tracer.missing``; its metrics are then
absent, and the run goes on.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    failed: bool = False


def _lines(run) -> int:
    return sum(len(run.ranking(q)) for q in run.query_ids())


# (module, attribute, span name, counter(args, kwargs, result) -> dict).
# Counters read only positional arguments and result attributes that are
# part of each function's documented contract.
WRAPPED = (
    ("xtrap.cli", "main", "cli.main", None),
    ("xtrap.dataio", "read_embeddings", "dataio.read_embeddings",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("xtrap.dataio", "parse_queries", "dataio.parse_queries", None),
    ("xtrap.dataio", "parse_run", "dataio.parse_run", lambda a, k, r: {"lines": _lines(r)}),
    ("xtrap.dataio", "write_run", "dataio.write_run", lambda a, k, r: {"lines": _lines(a[0])}),
    ("xtrap.dataio", "parse_qrels", "dataio.parse_qrels", lambda a, k, r: {"lines": len(r)}),
    ("xtrap.simindex", "knn", "simindex.knn",
     lambda a, k, r: {"pairs": len(a[0]) * len(a[1]), "dim": a[0].dim}),
    ("xtrap.simindex", "write_neighbor_lists", "simindex.write_neighbor_lists", None),
    ("xtrap.simindex", "Bm25Index.__init__", "simindex.bm25_index", None),
    ("xtrap.simindex", "bm25_search", "simindex.bm25_search", None),
    ("xtrap.simindex", "recall_candidates", "simindex.recall_candidates", None),
    ("xtrap.resample", "restrain_interpolation", "resample.restrain_interpolation",
     lambda a, k, r: {"full_scan": len(a[0]) * len(a[1])}),
    ("xtrap.resample", "restrain_extrapolation", "resample.restrain_extrapolation", None),
    ("xtrap.resample", "kmeans", "resample.kmeans", lambda a, k, r: {"iterations": r.iterations}),
    ("xtrap.resample", "resttest_split", "resample.resttest_split", None),
    ("xtrap.resample", "write_manifest", "resample.write_manifest", None),
    ("xtrap.resample", "read_manifest", "resample.read_manifest", None),
    ("xtrap.resample", "resttest_aggregate", "resample.resttest_aggregate", None),
    ("xtrap.metrics", "score_run", "metrics.score_run",
     lambda a, k, r: {"queries": r.evaluated_count + len(r.skipped_ids)}),
    ("xtrap.metrics", "write_metric_report", "metrics.write_metric_report", None),
    ("xtrap.analysis", "pca_project", "analysis.pca_project", None),
    ("xtrap.analysis", "pca_components", "analysis.pca_components", None),
    ("xtrap.analysis", "relevant_overlap", "analysis.relevant_overlap", None),
)


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.missing: list[str] = []
        self.counter_errors: list[str] = []

    def wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1].id if tracer.stack else None
            span = Span(len(tracer.spans), parent, name, time.perf_counter())
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except Exception as e:  # a changed signature must not fail the run
                    tracer.counter_errors.append(f"{name}: {type(e).__name__}: {e}")
            return result

        return traced

    def install(self, wrapped=WRAPPED) -> None:
        import importlib

        for module_name, attr, name, counter in wrapped:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, counter)
            if path:  # a method: patch the class itself
                setattr(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "xtrap" or mod_name.startswith("xtrap.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self) -> dict:
        return {
            "spans": [vars(s) for s in self.spans],
            "missing": self.missing,
            "counter_errors": self.counter_errors,
        }


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; names of missing wrappers are absent."""
    spans = trace["spans"]
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    present = {name for _, _, name, _ in WRAPPED} - set(trace["missing"])
    out: dict[str, float] = {}

    def self_s(name: str) -> float:
        return sum(own[s["id"]] for s in by_name.get(name, []))

    def total(name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, []))

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    for _, _, name, _ in WRAPPED:
        if name in present:
            out[f"{name}_s"] = self_s(name)

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    if "simindex.bm25_search" in present:
        out["simindex.bm25_search.calls"] = calls("simindex.bm25_search")
    if "analysis.pca_components" in present:
        out["analysis.pca_components.failed"] = sum(s["failed"] for s in by_name.get("analysis.pca_components", []))
    name = "dataio.read_embeddings"
    if name in present:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.mib_per_s"] = rate(total(name, "bytes") / 2**20, self_s(name))
    for name in ("dataio.parse_run", "dataio.write_run", "dataio.parse_qrels"):
        if name in present:
            out[f"{name}.lines_per_s"] = rate(total(name, "lines"), self_s(name))
    name = "simindex.knn"
    if name in present:
        flops = sum(2 * s["counts"].get("pairs", 0) * s["counts"].get("dim", 0) for s in by_name.get(name, []))
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.pairs_scored"] = total(name, "pairs")
        out[f"{name}.gflops"] = rate(flops / 1e9, self_s(name))
    name = "resample.restrain_interpolation"
    if name in present:
        parents = {s["id"] for s in by_name.get(name, [])}
        children = [s for s in by_name.get("simindex.knn", []) if s["parent"] in parents]
        out[f"{name}.knn_calls"] = len(children)
        out[f"{name}.scan_ratio"] = rate(sum(s["counts"].get("pairs", 0) for s in children), total(name, "full_scan"))
    name = "resample.kmeans"
    if name in present:
        iters = total(name, "iterations")
        out[f"{name}.iterations"] = iters
        out[f"{name}.s_per_iter"] = rate(sum(s["end"] - s["start"] for s in by_name.get(name, [])), iters)
    if "metrics.score_run" in present:
        out["metrics.score_run.queries"] = total("metrics.score_run", "queries")
    return out
