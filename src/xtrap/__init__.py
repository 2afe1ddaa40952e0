"""Interpolation/extrapolation evaluation toolkit for ad-hoc retrieval benchmarks.

Resamples the training/test queries of a Cranfield-style benchmark by
query-embedding similarity, scores externally produced run files with
standard ranking metrics, and audits train-test judgment overlap.
Ranking models stay outside the toolkit; they interact with it only
through query, qrels, run, and embedding files.
"""

from .dataio import (
    DataError,
    EmbeddingSet,
    ParseError,
    QrelSet,
    QuerySet,
    RunSet,
    parse_qrels,
    parse_queries,
    parse_run,
    read_embeddings,
    write_embeddings,
    write_qrels,
    write_queries,
    write_run,
)
from .metrics import MetricReport, MetricSpec, score_run
from .simindex import (
    Bm25Index,
    Bm25Params,
    bm25_grid_search,
    bm25_search,
    knn,
    recall_candidates,
    tokenize,
)
from .resample import (
    FoldSpec,
    KMeansConfig,
    KMeansResult,
    ReSTrainConfig,
    SplitSpec,
    kmeans,
    read_manifest,
    restrain_extrapolation,
    restrain_interpolation,
    resttest_aggregate,
    resttest_split,
    write_manifest,
)
from .analysis import (
    GradeThreshold,
    OverlapReport,
    cohens_kappa,
    kendall_tau_b,
    median_label,
    pca_components,
    pca_project,
    relevant_overlap,
    spearman,
)

__version__ = "0.1.0"
