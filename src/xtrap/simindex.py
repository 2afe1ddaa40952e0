"""Query-to-query similarity: exact dense kNN and lexical BM25.

Both channels rank training queries for each test query. The dense
channel is an exhaustive scan over the training matrix (no approximate
index): scores are computed in float64 block by block, and ties are
broken by ascending neighbor id, so results are exactly reproducible and
independent of block size or thread count. The lexical channel is a
small in-memory inverted index over the training query texts.
"""

from __future__ import annotations

import logging
import math
import re
from concurrent.futures import ThreadPoolExecutor
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


def knn(
    test: EmbeddingSet,
    train: EmbeddingSet,
    k: int,
    measure: str = "inner_product",
    exclude_self: bool = False,
    threads: int = 1,
) -> list[NeighborList]:
    """Exact top-k training neighbors for every test query.

    Scores descend; ties break by ascending neighbor id. With
    `exclude_self`, a training vector sharing the test query's id is
    skipped. `threads` only splits the work; results are identical to a
    sequential run.
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

    self_pos = None
    if exclude_self:
        pos_of = {eid: p for p, eid in enumerate(sorted_ids)}
        self_pos = [pos_of.get(qid, -1) for qid in test.ids]

    n_test = len(test)
    block = max(_KNN_BLOCK_MIN_ROWS, min(n_train, _KNN_BLOCK_ELEMENTS // max(1, n_test)))
    cand_pos: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(n_test)]
    cand_scores: list[np.ndarray] = [np.empty(0, dtype=np.float64) for _ in range(n_test)]

    def scan_chunk(row_lo: int, row_hi: int, train_block: np.ndarray, base: int) -> None:
        scores = queries[row_lo:row_hi] @ train_block.T
        if self_pos is not None:
            for r in range(row_lo, row_hi):
                p = self_pos[r]
                if base <= p < base + train_block.shape[0]:
                    scores[r - row_lo, p - base] = -np.inf
        width = scores.shape[1]
        if width > k:
            kth = np.partition(scores, width - k, axis=1)[:, width - k]
            mask = scores >= kth[:, None]
        else:
            mask = np.ones_like(scores, dtype=bool)
        if self_pos is not None:
            mask &= scores != -np.inf
        rows, cols = np.nonzero(mask)
        starts = np.searchsorted(rows, np.arange(row_hi - row_lo + 1))
        for r in range(row_hi - row_lo):
            new_cols = cols[starts[r] : starts[r + 1]]
            if new_cols.size == 0:
                continue
            i = row_lo + r
            # concatenation stays ascending in position: old candidates come
            # from earlier blocks, new_cols are ascending within this block
            pos = np.concatenate([cand_pos[i], new_cols + base])
            sc = np.concatenate([cand_scores[i], scores[r, new_cols]])
            if pos.size > k:
                keep = np.argsort(-sc, kind="stable")[:k]
                keep.sort()
                pos, sc = pos[keep], sc[keep]
            cand_pos[i], cand_scores[i] = pos, sc

    n_workers = max(1, threads)
    chunk_bounds = [
        (lo, min(n_test, lo + math.ceil(n_test / n_workers)))
        for lo in range(0, n_test, max(1, math.ceil(n_test / n_workers)))
    ]
    for base in range(0, n_train, block):
        rows = order[base : base + block]
        train_block = train.matrix[rows].astype(np.float64)
        if measure == "cosine":
            train_block /= np.linalg.norm(train_block, axis=1)[:, None]
        if n_workers == 1 or n_test < 2:
            scan_chunk(0, n_test, train_block, base)
        else:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                futures = [pool.submit(scan_chunk, lo, hi, train_block, base) for lo, hi in chunk_bounds]
                for fut in futures:
                    fut.result()

    results = []
    for i, qid in enumerate(test.ids):
        final = np.argsort(-cand_scores[i], kind="stable")[:k]
        neighbors = tuple(
            (sorted_ids[int(cand_pos[i][j])], float(cand_scores[i][j])) for j in final
        )
        results.append(NeighborList(query_id=qid, neighbors=neighbors))
    return results


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric codepoint; no stemming."""
    return _TOKEN_RE.findall(text.lower())


class Bm25Index:
    """Inverted index over a query set, queries acting as documents."""

    def __init__(self, docs: QuerySet):
        if len(docs) == 0:
            raise DataError("cannot build a BM25 index over an empty query set")
        self.doc_ids = docs.ids
        self.n = len(docs)
        lens = np.zeros(self.n, dtype=np.float64)
        postings: dict[str, tuple[list[int], list[int]]] = {}
        for ordinal, query in enumerate(docs):
            terms = tokenize(query.text)
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
    if matched.size == 0:
        return NeighborList(query_id=query_id, neighbors=())
    if matched.size > k:
        kth = np.partition(scores[matched], matched.size - k)[matched.size - k]
        matched = matched[scores[matched] >= kth]
    ranked = sorted(matched, key=lambda o: (-scores[o], index.doc_ids[o]))[:k]
    return NeighborList(
        query_id=query_id,
        neighbors=tuple((index.doc_ids[o], float(scores[o])) for o in ranked),
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
    threads: int = 1,
) -> dict[str, list[str]]:
    """Annotation candidate pool per test query: embedding channel first,
    then unseen BM25 entries; at most 2 * per_channel ids."""
    if per_channel < 1:
        raise ValueError("per_channel must be >= 1")
    te = test_emb.subset(test.ids)
    tr = train_emb.subset(train.ids)
    dense = knn(te, tr, per_channel, measure=measure, threads=threads)
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
