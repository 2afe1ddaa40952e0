"""Interpolation/extrapolation evaluation toolkit for ad-hoc retrieval benchmarks.

Resamples the training/test queries of a Cranfield-style benchmark by
query-embedding similarity, scores externally produced run files with
standard ranking metrics, and audits train-test judgment overlap.
Ranking models stay outside the toolkit; they interact with it only
through query, qrels, run, and embedding files.
"""

import importlib
import os

# OpenBLAS reads this once, when numpy loads it: its idle threads then sleep
# after 2^20 cycles instead of spinning for 2^28 (about 0.1 s of a core)
# after every call. A user's value wins; other BLAS builds ignore it.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

# public name -> home module; each module loads at its first name's lookup
_HOMES = {
    **dict.fromkeys(("DataError", "EmbeddingSet", "ParseError", "QrelSet", "QuerySet", "RunSet",
                     "parse_qrels", "parse_queries", "parse_run", "read_embeddings",
                     "write_embeddings", "write_qrels", "write_queries", "write_run"), "dataio"),
    **dict.fromkeys(("MetricReport", "MetricSpec", "score_run"), "metrics"),
    **dict.fromkeys(("Bm25Index", "bm25_search", "knn", "recall_candidates", "tokenize"), "simindex"),
    **dict.fromkeys(("FoldSpec", "KMeansConfig", "KMeansResult", "ReSTrainConfig", "SplitSpec",
                     "kmeans", "read_manifest", "restrain_extrapolation",
                     "restrain_interpolation", "resttest_aggregate", "resttest_split",
                     "write_manifest"), "resample"),
    **dict.fromkeys(("GradeThreshold", "cohens_kappa", "kendall_tau_b", "pca_components",
                     "pca_project", "relevant_overlap", "spearman"), "analysis"),
}
__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _HOMES.values():  # a submodule not yet imported
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
