"""Query-to-query similarity: exact dense kNN and lexical BM25.

Both channels rank training queries for each test query. The dense
channel is an exhaustive scan over the training matrix (no approximate
index): scores are computed in float64 block by block, and ties are
broken by ascending neighbor id, so results are exactly reproducible and
independent of block size. The lexical channel is a small in-memory
inverted index over the training query texts. Both channels select
their top k with one primitive, `_top_k`.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass

import numpy as np

from .dataio import DataError, EmbeddingSet, QrelSet, QuerySet, RunSet, atomic_output
from .metrics import MetricSpec, score_run

logger = logging.getLogger(__name__)

MEASURES = ("inner_product", "cosine")

_TOKEN_RE = re.compile(r"[^\W_]+")

# rows per score block in the kNN scan; keeps the block score matrix and
# the float64 cast of the training block within a few hundred MB
_KNN_BLOCK_ELEMENTS = 32 * 1024 * 1024
_KNN_BLOCK_MIN_ROWS = 1024


@dataclass(frozen=True)
class NeighborList:
    """Ranked training neighbors of one test query, best first."""

    query_id: str
    neighbors: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not self.k1 > 0:
            raise ValueError("k1 must be > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise ValueError(f"unknown similarity measure {measure!r}")


def _normalized_rows(matrix: np.ndarray, ids, what: str) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"cosine requires nonzero vectors; {what} id {ids[zero[0]]} is zero")
    return matrix / norms[:, None]


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest scores in each row, in ascending
    column order; ties at the k-th value go to the lower columns.

    A row narrower than k keeps every column.
    """
    n_rows, width = scores.shape
    if width <= k:
        return np.tile(np.arange(width), (n_rows, 1))
    # copy the k-th column out so the partitioned copy can be freed
    kth = np.partition(scores, width - k, axis=1)[:, width - k].copy()
    rows, cols = np.nonzero(scores >= kth[:, None])
    if rows.size > n_rows * k:
        # some row ties at its k-th value across the cut: keep everything
        # above it, then the lowest-column ties up to k entries
        tied = scores[rows, cols] == kth[rows]
        above = np.bincount(rows[~tied], minlength=n_rows)
        ties = np.bincount(rows[tied], minlength=n_rows)
        tie_rank = np.cumsum(tied) - 1 - (np.cumsum(ties) - ties)[rows]
        cols = cols[~tied | (tie_rank < (k - above)[rows])]
    return cols.reshape(n_rows, k)


def knn(
    test: EmbeddingSet,
    train: EmbeddingSet,
    k: int,
    measure: str = "inner_product",
) -> list[NeighborList]:
    """Exact top-k training neighbors for every test query.

    Scores descend; ties break by ascending neighbor id.
    """
    _check_measure(measure)
    if k < 1:
        raise ValueError("k must be >= 1")
    if test.dim != train.dim:
        raise DataError(f"dimension mismatch: test dim {test.dim}, train dim {train.dim}")
    n_train = len(train)
    if n_train == 0:
        raise DataError("training embedding set is empty")
    if k > n_train:
        logger.warning("k=%d exceeds training set size %d; returning all neighbors", k, n_train)
        k = n_train

    # process training rows in ascending-id order so positional order == id order
    order = sorted(range(n_train), key=train.ids.__getitem__)
    sorted_ids = [train.ids[i] for i in order]
    order = np.asarray(order, dtype=np.intp)

    queries = test.matrix.astype(np.float64)
    if measure == "cosine":
        queries = _normalized_rows(queries, test.ids, "test")
        # validate train norms without materializing a float64 copy
        sq = np.einsum("ij,ij->i", train.matrix, train.matrix, dtype=np.float64)
        zero = np.flatnonzero(sq == 0.0)
        if zero.size:
            raise DataError(f"cosine requires nonzero vectors; train id {train.ids[zero[0]]} is zero")

    n_test = len(test)
    block = max(_KNN_BLOCK_MIN_ROWS, min(n_train, _KNN_BLOCK_ELEMENTS // max(1, n_test)))
    # running best per test query, columns in ascending position; stacking
    # a later block's picks to the right keeps that order, so the tie rule
    # of _top_k is the ascending-id rule
    best_pos = np.empty((n_test, 0), dtype=np.intp)
    best_scores = np.empty((n_test, 0), dtype=np.float64)
    for base in range(0, n_train, block):
        train_block = train.matrix[order[base : base + block]].astype(np.float64)
        if measure == "cosine":
            train_block /= np.linalg.norm(train_block, axis=1)[:, None]
        scores = queries @ train_block.T
        picks = _top_k(scores, k)
        pos = np.hstack([best_pos, picks + base])
        merged = np.hstack([best_scores, np.take_along_axis(scores, picks, axis=1)])
        keep = _top_k(merged, k)
        best_pos = np.take_along_axis(pos, keep, axis=1)
        best_scores = np.take_along_axis(merged, keep, axis=1)

    ranked = np.argsort(-best_scores, axis=1, kind="stable")
    pos_rows = np.take_along_axis(best_pos, ranked, axis=1).tolist()
    score_rows = np.take_along_axis(best_scores, ranked, axis=1).tolist()
    return [
        NeighborList(query_id=qid, neighbors=tuple((sorted_ids[p], s) for p, s in zip(ps, ss)))
        for qid, ps, ss in zip(test.ids, pos_rows, score_rows)
    ]


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric codepoint; no stemming."""
    return _TOKEN_RE.findall(text.lower())


class Bm25Index:
    """Inverted index over a query set, queries acting as documents."""

    def __init__(self, docs: QuerySet):
        if len(docs) == 0:
            raise DataError("cannot build a BM25 index over an empty query set")
        # ordinals follow ascending doc id, so a lower ordinal is a lower id
        self.doc_ids = tuple(sorted(docs.ids))
        self.n = len(docs)
        lens = np.zeros(self.n, dtype=np.float64)
        postings: dict[str, tuple[list[int], list[int]]] = {}
        for ordinal, doc_id in enumerate(self.doc_ids):
            terms = tokenize(docs.text(doc_id))
            lens[ordinal] = len(terms)
            counts: dict[str, int] = {}
            for t in terms:
                counts[t] = counts.get(t, 0) + 1
            for t, tf in counts.items():
                entry = postings.setdefault(t, ([], []))
                entry[0].append(ordinal)
                entry[1].append(tf)
        self.postings = {
            t: (np.asarray(ords, dtype=np.int64), np.asarray(tfs, dtype=np.float64))
            for t, (ords, tfs) in postings.items()
        }
        self.doc_lens = lens
        self.avgdl = float(lens.sum() / self.n)
        # length-normalization ratio; zero-length corpus has no postings at all
        self.len_ratio = lens / self.avgdl if self.avgdl > 0 else np.zeros_like(lens)


def bm25_search(
    index: Bm25Index,
    query_text: str,
    k: int,
    params: Bm25Params = Bm25Params(),
    query_id: str = "",
) -> NeighborList:
    """Top-k docs by BM25 score, ties by ascending doc id; zero scores excluded.

    score(q,d) = sum over distinct matched terms of
    idf(t) * tf*(k1+1) / (tf + k1*(1-b+b*len/avgdl)), with the
    non-negative idf(t) = ln(1 + (N-df+0.5)/(df+0.5)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.zeros(index.n, dtype=np.float64)
    # first-occurrence order keeps the float sum independent of the hash seed
    for term in dict.fromkeys(tokenize(query_text)):
        posting = index.postings.get(term)
        if posting is None:
            continue
        ordinals, tfs = posting
        df = len(ordinals)
        idf = math.log(1.0 + (index.n - df + 0.5) / (df + 0.5))
        norm = params.k1 * (1.0 - params.b + params.b * index.len_ratio[ordinals])
        scores[ordinals] += idf * tfs * (params.k1 + 1.0) / (tfs + norm)
    matched = np.flatnonzero(scores > 0.0)
    top = matched[_top_k(scores[None, matched], k)[0]]
    top = top[np.argsort(-scores[top], kind="stable")]
    return NeighborList(
        query_id=query_id,
        neighbors=tuple((index.doc_ids[o], float(scores[o])) for o in top),
    )


def bm25_grid_search(
    index: Bm25Index,
    train_queries: QuerySet,
    qrels: QrelSet,
    grid: list[Bm25Params],
    spec: MetricSpec,
) -> Bm25Params:
    """Pick the grid point maximizing the metric; ties favor lower (k1, b)."""
    if not grid:
        raise ValueError("parameter grid must not be empty")

    def mean(params: Bm25Params) -> float:
        rankings = {
            q.id: bm25_search(index, q.text, spec.cutoff, params, query_id=q.id).neighbors
            for q in train_queries
        }
        return score_run(RunSet(rankings), qrels, spec).mean

    return max(grid, key=lambda p: (mean(p), -p.k1, -p.b))


def recall_candidates(
    test: QuerySet,
    train: QuerySet,
    test_emb: EmbeddingSet,
    train_emb: EmbeddingSet,
    per_channel: int = 10,
    measure: str = "inner_product",
    params: Bm25Params = Bm25Params(),
) -> dict[str, list[str]]:
    """Annotation candidate pool per test query: embedding channel first,
    then unseen BM25 entries; at most 2 * per_channel ids."""
    if per_channel < 1:
        raise ValueError("per_channel must be >= 1")
    te = test_emb.subset(test.ids)
    tr = train_emb.subset(train.ids)
    dense = knn(te, tr, per_channel, measure=measure)
    index = Bm25Index(train)
    pools: dict[str, list[str]] = {}
    for query, dense_list in zip(test, dense):
        pool = [nid for nid, _ in dense_list.neighbors]
        seen = set(pool)
        lexical = bm25_search(index, query.text, per_channel, params, query_id=query.id)
        for nid, _ in lexical.neighbors:
            if nid not in seen:
                seen.add(nid)
                pool.append(nid)
        pools[query.id] = pool
    return pools


def write_neighbor_lists(lists: list[NeighborList], path) -> None:
    """TSV `test_id<TAB>rank<TAB>neighbor_id<TAB>score`, 6 significant digits."""
    with atomic_output(path) as f:
        for nl in lists:
            for rank, (nid, score) in enumerate(nl.neighbors, start=1):
                f.write(f"{nl.query_id}\t{rank}\t{nid}\t{score:.6g}\n")


def write_candidate_pools(pools: dict[str, list[str]], path) -> None:
    """TSV `test_id<TAB>rank<TAB>neighbor_id` in pool order."""
    with atomic_output(path) as f:
        for qid, pool in pools.items():
            for rank, nid in enumerate(pool, start=1):
                f.write(f"{qid}\t{rank}\t{nid}\n")
