"""Query-to-query similarity: exact dense kNN and lexical BM25.

Both channels rank training queries for each test query. The dense
channel is an exhaustive scan over the training matrix (no approximate
index). Each block of training rows is screened with one float32 GEMM
against the stored float32 matrix. A column survives when its float32
score lies within a certified rounding bound (Higham's inner-product
bound for the float32 and the float64 dot product) of a lower bound on
the k-th best float64 score, so no column of the exact top k is dropped.
That lower bound, the floor, comes from a whole-block `_top_k` only until
it is finite; after that a block raises it from its screen survivors
alone, because a column below the screen cannot raise it. Survivors are
located as flat indices of the block, split into rows and columns by
`divmod`, which is far cheaper than a 2-D `np.nonzero` and gives the same
row-major order. Only the survivors are rescored in float64, one dot
product per pair, and ties are broken by ascending neighbor id. Every
score is therefore the float64 dot product of the two vectors (of the
unit vectors for cosine), whatever the block size or the order of the
training rows; a float64 GEMM cannot promise that, because BLAS rounds an
entry of `Q @ T[cols].T` differently from the same entry of `Q @ T.T`.
The lexical channel is a small in-memory inverted index over the training
query texts. Both channels select their top k with one primitive,
`_top_k`.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import DataError, EmbeddingSet, QrelSet, QuerySet, RunSet, atomic_output
from .metrics import MetricSpec, score_run

logger = logging.getLogger(__name__)

MEASURES = ("inner_product", "cosine")

_TOKEN_RE = re.compile(r"[^\W_]+")

# rows per float32 score block in the kNN scan: the block's scores and the
# partition copy inside _top_k peak at 8 bytes per element (256 MiB here)
_KNN_BLOCK_ELEMENTS = 32 * 1024 * 1024
_KNN_BLOCK_MIN_ROWS = 1024


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
    # the norm is the same per-vector dot product that scores a pair
    norms = np.sqrt(np.vecdot(matrix, matrix))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"cosine requires nonzero vectors; {what} id {ids[zero[0]]} is zero")
    return matrix / norms[:, None]


def _float32_floor(values: np.ndarray) -> np.ndarray:
    """The largest float32 at or below each float64 value."""
    out = values.astype(np.float32)
    above = out > values
    out[above] = np.nextafter(out[above], np.float32(-np.inf))
    return out


def _rounding_bounds(dim: int) -> tuple[float, float]:
    """Rounding constants of the float32 screens of `knn` and k-means.

    `gamma` is Higham's bound for a dot product of length m in float32 plus
    the same in float64, gamma_m = m u / (1 - m u), with m = dim + 3 so that
    it also counts a few casts and products around the dot product; 2^-20
    widens it past the float64 arithmetic of the bounds built from it.
    `tiny` = dim 2^-149 covers float32 underflow: each product or cast of
    the dot product loses at most 2^-150 absolutely.
    """
    m = dim + 3
    gamma = sum(m * u / (1.0 - m * u) if m * u < 0.5 else math.inf for u in (2.0**-24, 2.0**-53))
    return gamma * (1.0 + 2.0**-20), dim * 2.0**-149


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
    # the same row-major pairs as a 2-D np.nonzero, at a tenth of its cost
    rows, cols = np.divmod(np.flatnonzero(scores >= kth[:, None]), width)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k training neighbors for every test query.

    Returns `(index, scores)`, two `(len(test), k)` arrays: row i holds the
    neighbors of `test.ids[i]` best first, as `intp` row positions in
    `train` and their float64 scores. A score is the float64 dot product of
    the two vectors, or of the two unit vectors for cosine. Scores descend;
    ties break by ascending neighbor id.
    """
    _check_measure(measure)
    n_train = len(train)
    # before the k check: a caller capping k at the training size passes k=0
    if n_train == 0:
        raise DataError("training embedding set is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if test.dim != train.dim:
        raise DataError(f"dimension mismatch: test dim {test.dim}, train dim {train.dim}")
    if k > n_train:
        logger.warning("k=%d exceeds training set size %d; returning all neighbors", k, n_train)
        k = n_train

    # rank of each training row in ascending id order; it only breaks ties
    id_rank = np.empty(n_train, dtype=np.intp)
    id_rank[sorted(range(n_train), key=train.ids.__getitem__)] = np.arange(n_train)
    n_test, dim = test.matrix.shape
    cosine = measure == "cosine"

    queries = test.matrix.astype(np.float64)
    train_norms = np.sqrt(np.einsum("ij,ij->i", train.matrix, train.matrix, dtype=np.float64))
    if cosine:
        queries = _normalized_rows(queries, test.ids, "test")
        zero = np.flatnonzero(train_norms == 0.0)
        if zero.size:
            raise DataError(f"cosine requires nonzero vectors; train id {train.ids[zero[0]]} is zero")
        query_norms = np.ones(n_test)
        inv_norms = 1.0 / train_norms
        # a clamped factor only occurs in a block whose bound is infinite
        inv_norms32 = np.minimum(inv_norms, 2.0**100).astype(np.float32)
    else:
        query_norms = np.sqrt(np.vecdot(queries, queries))
    # an exact power-of-two scale keeps float32 scores far from overflow
    peak = float(query_norms.max(initial=0.0) * train_norms.max())
    scale = 2.0 ** -max(0, math.ceil(math.log2(peak)) - 100) if peak > 0.0 else 1.0
    screen = (queries * scale).astype(np.float32)
    # |float32 score - scale * float64 score| is at most row_bound * max|t| +
    # tiny * (1 + max|t|) over a block for inner product, and row_bound +
    # tiny * (1 + max 1/|t|) for cosine; gamma's m = dim + 3 counts the
    # query's casts and the 1/|t| product
    gamma, tiny = _rounding_bounds(dim)
    row_bound = gamma * scale * query_norms

    block = max(_KNN_BLOCK_MIN_ROWS, min(n_train, _KNN_BLOCK_ELEMENTS // max(1, n_test)))
    # per test query: the k largest lower bounds on float64 scores seen so
    # far, whose minimum `floor` bounds the final k-th score from below
    best_low = np.empty((n_test, 0), dtype=np.float64)
    floor = np.full(n_test, -np.inf)
    found_rows, found_cols, found_high = [], [], []
    for base in range(0, n_train, block):
        stop = min(n_train, base + block)
        scores = screen @ train.matrix[base:stop].T
        if cosine:
            scores *= inv_norms32[base:stop]
            col_max = float(inv_norms[base:stop].max())
            err = row_bound + tiny * (1.0 + col_max)
            if col_max > 2.0**100:
                err = np.full(n_test, np.inf)
        else:
            col_max = float(train_norms[base:stop].max())
            err = row_bound * col_max + tiny * (1.0 + col_max)
        # flat indices into the block: divmod by its width is row-major
        width = stop - base
        if np.isfinite(floor).all():
            # k lower bounds are held, and a column below the screen has a
            # lower bound at or below the floor: only the survivors can raise
            # it, and they raise it as far as the whole block would
            flat = np.flatnonzero(scores >= _float32_floor(floor - err)[:, None])
            rows = flat // width
            low = scores.reshape(-1)[flat] - err[rows]
            raises = low > floor[rows]
            if raises.any():
                rows, low = rows[raises], low[raises]
                counts = np.bincount(rows, minlength=n_test)
                rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
                if counts.max() > k:
                    # keep a row's k largest raising bounds: a row raised by a
                    # whole block would widen the pad below to the block
                    low = low[np.lexsort((-low, rows))]  # rows stay ascending
                    keep = rank < k
                    rows, low, rank = rows[keep], low[keep], rank[keep]
                # each row's held bounds, then its raising ones, padded with -inf
                held = np.full((n_test, k + rank.max() + 1), -np.inf)
                held[:, :k] = best_low
                held[rows, k + rank] = low
                best_low = np.take_along_axis(held, _top_k(held, k), axis=1)
                floor = best_low.min(axis=1)
                flat = flat[scores.reshape(-1)[flat] >= _float32_floor(floor - err)[flat // width]]
        else:
            picks = np.take_along_axis(scores, _top_k(scores, k), axis=1)
            low = np.hstack([best_low, picks - err[:, None]])
            best_low = np.take_along_axis(low, _top_k(low, k), axis=1)
            if best_low.shape[1] == k:
                floor = best_low.min(axis=1)
            flat = np.flatnonzero(scores >= _float32_floor(floor - err)[:, None])
        rows, cols = np.divmod(flat, width)
        found_rows.append(rows)
        found_cols.append(cols + base)
        found_high.append(scores.reshape(-1)[flat] + err[rows])
        del scores  # before the next GEMM allocates its block

    # prune once more against the final floor, then group by test query
    rows = np.concatenate(found_rows)
    keep = np.concatenate(found_high) >= floor[rows]
    rows = rows[keep]
    cols = np.concatenate(found_cols)[keep]
    by_row = np.argsort(rows, kind="stable")
    groups = np.split(cols[by_row], np.cumsum(np.bincount(rows, minlength=n_test))[:-1])
    logger.info(
        "knn: %d pairs screened in float32, %d survivors rescored in float64 (%.3f x n_test*k)",
        n_test * n_train, rows.size, rows.size / max(1, n_test * k),
    )

    index = np.empty((n_test, k), dtype=np.intp)
    top_scores = np.empty((n_test, k))
    for i, (query, cand) in enumerate(zip(queries, groups)):
        vecs = train.matrix[cand].astype(np.float64)
        if cosine:
            vecs /= np.sqrt(np.vecdot(vecs, vecs))[:, None]
        # one dot product per pair: a gemv rounds a row by its batch position
        exact = np.vecdot(vecs, query)
        top = np.lexsort((id_rank[cand], -exact))[:k]
        index[i] = cand[top]
        top_scores[i] = exact[top]
    return index, top_scores


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
        self.avgdl = float(lens.sum() / self.n)
        # length-normalization ratio; zero-length corpus has no postings at all
        self.len_ratio = lens / self.avgdl if self.avgdl > 0 else np.zeros_like(lens)


def bm25_search(
    index: Bm25Index,
    query_text: str,
    k: int,
    params: Bm25Params = Bm25Params(),
) -> tuple[tuple[str, float], ...]:
    """Top-k (doc id, score) pairs by BM25 score, best first, ties by
    ascending doc id; zero scores excluded.

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
    return tuple((index.doc_ids[o], float(scores[o])) for o in top)


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
        rankings = {q.id: bm25_search(index, q.text, spec.cutoff, params) for q in train_queries}
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
    dense, _ = knn(te, tr, per_channel, measure=measure)
    index = Bm25Index(train)
    pools: dict[str, list[str]] = {}
    for query, row in zip(test, dense.tolist()):
        pool = [tr.ids[j] for j in row]
        seen = set(pool)
        for nid, _ in bm25_search(index, query.text, per_channel, params):
            if nid not in seen:
                seen.add(nid)
                pool.append(nid)
        pools[query.id] = pool
    return pools


def write_neighbor_lists(
    test_ids: Sequence[str], train_ids: Sequence[str], index: np.ndarray, scores: np.ndarray, path
) -> None:
    """TSV `test_id<TAB>rank<TAB>neighbor_id<TAB>score` from `knn`'s arrays,
    6 significant digits."""
    with atomic_output(path) as f:
        for qid, row, row_scores in zip(test_ids, index.tolist(), scores.tolist()):
            for rank, (j, score) in enumerate(zip(row, row_scores), start=1):
                f.write(f"{qid}\t{rank}\t{train_ids[j]}\t{score:.6g}\n")


def write_candidate_pools(pools: dict[str, list[str]], path) -> None:
    """TSV `test_id<TAB>rank<TAB>neighbor_id` in pool order."""
    with atomic_output(path) as f:
        for qid, pool in pools.items():
            for rank, nid in enumerate(pool, start=1):
                f.write(f"{qid}\t{rank}\t{nid}\n")
