"""Query-to-query similarity: exact dense kNN and lexical BM25.

Both channels rank training queries for each test query. The dense
channel is an exhaustive scan over the training matrix (no approximate
index). Each block of training rows is screened with one float32 GEMM
against the stored float32 matrix. A column survives when its float32
score lies within a certified rounding bound (Higham's inner-product
bound for the float32 and the float64 dot product) of a lower bound on
the k-th best float64 score, so no column of the exact top k is dropped.
That lower bound, the floor, starts from the first block's k largest lower
bounds, which `_top_k` returns as values (the block is at least k wide); each
later block raises it from its screen survivors alone, as no other can.
Survivors are located as flat indices of the block, split into rows and
columns by `divmod`, which is far cheaper than a 2-D `np.nonzero` and gives
the same row-major order. Only the survivors are rescored in float64, one
dot product per pair over row blocks of pairs, and one `lexsort` ranks them,
ties by ascending neighbor id. Every score is the float64 dot product of the
two vectors (of the unit vectors for cosine), summed by `_rowdot` in an order
fixed by the length, whatever the blocks, row order, BLAS kernel or thread
count; BLAS, whose sums follow its CPU kernel, runs only float32 screens.
`knn` is a scan (`_scan`) and a rank (`_rank`): a scan to depth D ranks every
k <= D exactly as `knn(k)` does, rescoring the same pairs when the blocks match.
The lexical channel is a small in-memory inverted index over the training
query texts, scored by BM25 at the textbook k1=1.2, b=0.75. Both channels
take their k-th values from one primitive, `_top_k`.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter, namedtuple
from typing import Sequence

from . import _np as np
from .dataio import DataError, EmbeddingSet, QuerySet, atomic_output

logger = logging.getLogger(__name__)

MEASURES = ("inner_product", "cosine")

_TOKEN_RE = re.compile(r"[^\W_]+")

# float64 elements per row block of both exact passes, kNN's rescoring and
# k-means' distances: a block's operands stay in L2 cache; no result depends on it
_BLOCK_ELEMENTS = 48 * 1024
# float32 score elements per kNN block for any n_test (a block is at least k
# rows): its scores and _top_k's partition copy take 8 bytes each (256 MiB)
_KNN_BLOCK_ELEMENTS = 32 * 1024 * 1024
# einsum's internal buffer, fixed at 8,192 elements whatever np.setbufsize says:
# it chunks a longer row's sum only in a cast or a one-row call, so `_rowdot` always does
_ROWDOT_CHUNK = 8192

_BM25_K1 = 1.2
_BM25_B = 0.75


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise ValueError(f"unknown similarity measure {measure!r}")


def _check_train(test: EmbeddingSet, train: EmbeddingSet) -> None:
    """What every comparison of a test set with a training set needs: a
    training set that is not empty and has the test set's dimension."""
    if len(train) == 0:
        raise DataError("training set is empty")
    if test.dim != train.dim:
        raise DataError(f"dimension mismatch: test dim {test.dim}, train dim {train.dim}")


def _check_query_sets(train_emb: EmbeddingSet, test_emb: EmbeddingSet) -> None:
    """The input rule of resampling and candidate pools, in this order: a non-empty
    test set, a non-empty training set of its dimension, and no id in both sets."""
    if len(test_emb) == 0:
        raise DataError("test set is empty")
    _check_train(test_emb, train_emb)
    overlap = set(test_emb.ids).intersection(train_emb.ids)
    if overlap:
        raise DataError(f"train and test query ids overlap: {sorted(overlap)[:5]}")


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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The float64 dot product of each row pair, summed per `_ROWDOT_CHUNK` columns
    in column order, so a row's value follows only its length, not its call."""
    out = np.einsum("ij,ij->i", a[:, :_ROWDOT_CHUNK], b[:, :_ROWDOT_CHUNK], dtype=np.float64)
    for lo in range(_ROWDOT_CHUNK, a.shape[1], _ROWDOT_CHUNK):
        out += np.einsum("ij,ij->i", a[:, lo:lo + _ROWDOT_CHUNK], b[:, lo:lo + _ROWDOT_CHUNK], dtype=np.float64)
    return out


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The k largest values along the last axis, in no particular order
    (kNN's floor starts from the least of them); a row of at most k values
    comes back whole."""
    width = scores.shape[-1]
    if width <= k:
        return scores
    return np.partition(scores, width - k, axis=-1)[..., width - k:]


# what `_scan` returns and `_rank` reads
_Pool = namedtuple("_Pool", "train train_norms queries cosine best_low rows cols high")


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
    # before the k check: a caller capping k at the training size passes k=0
    _check_train(test, train)
    if k < 1:
        raise ValueError("k must be >= 1")
    n_train = len(train)
    if k > n_train:
        logger.warning("k=%d exceeds training set size %d; returning all neighbors", k, n_train)
        k = n_train
    return _rank(_scan(test, train, k, measure), k)


def _scan(test: EmbeddingSet, train: EmbeddingSet, depth: int, measure: str) -> _Pool:
    """`knn`'s float32 screen to `depth` (1 <= depth <= len(train)): a pool of
    the float64 queries (unit for cosine), each query's `depth` largest lower
    bounds on float64 scores, and the survivors (rows[i], cols[i]) with upper
    bounds high[i], among which lies each query's exact top `depth`."""
    n_train = len(train)
    n_test, dim = test.matrix.shape
    cosine = measure == "cosine"
    queries = test.matrix.astype(np.float64)
    # a query's norm is the same per-vector dot product that scores a pair
    query_norms = np.sqrt(_rowdot(queries, queries))
    train_norms = np.sqrt(_rowdot(train.matrix, train.matrix))
    if cosine:
        for what, ids, norms in (("test", test.ids, query_norms), ("train", train.ids, train_norms)):
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise DataError(f"cosine requires nonzero vectors; {what} id {ids[zero[0]]} is zero")
        queries /= query_norms[:, None]
        query_norms = np.ones(n_test)
        inv_norms = 1.0 / train_norms
        # float32 holds 2^126; below it, underflow costs at most tiny * 2^126
        # = dim 2^-23 of a block's bound, so only a norm below float32's
        # normal range, whose clamped factor is inexact, makes it infinite
        inv_norms32 = np.minimum(inv_norms, 2.0**126).astype(np.float32)
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

    block = max(depth, min(n_train, _KNN_BLOCK_ELEMENTS // max(1, n_test)))
    found_rows, found_cols, found_high = [], [], []
    for base in range(0, n_train, block):
        stop = min(n_train, base + block)
        scores = screen @ train.matrix[base:stop].T
        if cosine:
            scores *= inv_norms32[base:stop]
            col_max = float(inv_norms[base:stop].max())
            err = row_bound + (tiny * (1.0 + col_max) if col_max <= 2.0**126 else math.inf)
        else:
            col_max = float(train_norms[base:stop].max())
            err = row_bound * col_max + tiny * (1.0 + col_max)
        if base == 0:
            # the block is at least depth wide: per test query, the depth
            # largest lower bounds on float64 scores so far, whose minimum
            # `floor` bounds the final depth-th score (-inf keeps every column)
            best_low = _top_k(scores, depth) - err[:, None]
            floor = best_low.min(axis=1)
        # flat indices into the block: divmod by its width is row-major
        width = stop - base
        flat = np.flatnonzero(scores >= _float32_floor(floor - err)[:, None])
        if base > 0:
            # a column below the screen has a lower bound at or below the
            # floor: only the survivors can raise it, and they raise it as far
            # as the whole block would
            rows = flat // width
            low = scores.reshape(-1)[flat] - err[rows]
            raises = low > floor[rows]
            if raises.any():
                rows, low = rows[raises], low[raises]
                counts = np.bincount(rows, minlength=n_test)
                rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
                if counts.max() > depth:
                    # keep a row's depth largest raising bounds: a row raised by a
                    # whole block would widen the pad below to the block
                    low = low[np.lexsort((-low, rows))]  # rows stay ascending
                    keep = rank < depth
                    rows, low, rank = rows[keep], low[keep], rank[keep]
                # each row's held bounds, then its raising ones, padded with -inf
                held = np.full((n_test, depth + rank.max() + 1), -np.inf)
                held[:, :depth] = best_low
                held[rows, depth + rank] = low
                best_low = _top_k(held, depth)
                floor = best_low.min(axis=1)
                flat = flat[scores.reshape(-1)[flat] >= _float32_floor(floor - err)[flat // width]]
        rows, cols = np.divmod(flat, width)
        found_rows.append(rows)
        found_cols.append(cols + base)
        found_high.append(scores.reshape(-1)[flat] + err[rows])
        del scores  # before the next GEMM allocates its block

    rows, cols, high = (np.concatenate(found) for found in (found_rows, found_cols, found_high))
    return _Pool(train, train_norms, queries, cosine, best_low, rows, cols, high)


def _rank(pool: _Pool, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`knn`'s arrays for any k <= the pool's depth, bitwise. The depth-k
    floor is the k-th largest lower bound of all columns at any depth, so
    the prune keeps the pairs of a depth-k scan over the same blocks (as
    when the depth is within the block budget's rows)."""
    train, train_norms, queries, cosine, best_low, rows, cols, high = pool
    n_test, dim = queries.shape
    # prune once more, against the depth-k floor
    keep = high >= _top_k(best_low, k).min(axis=1)[rows]
    rows, cols = rows[keep], cols[keep]
    logger.info(
        "knn: %d pairs screened in float32, %d survivors rescored in float64 (%.3f x n_test*k)",
        n_test * len(train), rows.size, rows.size / max(1, n_test * k),
    )
    exact = np.empty(rows.size)
    step = max(1, _BLOCK_ELEMENTS // dim)
    for lo in range(0, rows.size, step):
        pairs = slice(lo, lo + step)
        vecs = train.matrix[cols[pairs]].astype(np.float64)
        if cosine:
            vecs /= train_norms[cols[pairs], None]  # the unit vectors of the scan's norms
        # one dot product per pair: a gemv rounds a row by its batch position
        exact[pairs] = _rowdot(vecs, queries[rows[pairs]])
    # by query, score descending, then ascending id; a query keeps >= k survivors
    counts = np.bincount(rows, minlength=n_test)
    top = np.lexsort((train.id_rank[cols], -exact, rows))[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return cols[top], exact[top]


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
            for t, tf in Counter(terms).items():
                entry = postings.setdefault(t, ([], []))
                entry[0].append(ordinal)
                entry[1].append(tf)
        self.postings = {
            t: (np.asarray(ords, dtype=np.int64), np.asarray(tfs, dtype=np.float64))
            for t, (ords, tfs) in postings.items()
        }
        avgdl = float(lens.sum() / self.n)
        # length-normalization ratio; zero-length corpus has no postings at all
        self.len_ratio = lens / avgdl if avgdl > 0 else np.zeros_like(lens)


def bm25_search(index: Bm25Index, query_text: str, k: int) -> tuple[tuple[str, float], ...]:
    """Top-k (doc id, score) pairs by BM25 score, best first, ties by
    ascending doc id; zero scores excluded.

    score(q,d) = sum over distinct matched terms of
    idf(t) * tf*(k1+1) / (tf + k1*(1-b+b*len/avgdl)), with k1=1.2, b=0.75
    and the non-negative idf(t) = ln(1 + (N-df+0.5)/(df+0.5)).
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
        norm = _BM25_K1 * (1.0 - _BM25_B + _BM25_B * index.len_ratio[ordinals])
        scores[ordinals] += idf * tfs * (_BM25_K1 + 1.0) / (tfs + norm)
    top = np.flatnonzero(scores > 0.0)
    if top.size > k:
        top = top[scores[top] >= _top_k(scores[top], k).min()]
    # score descending, then ascending ordinal, which is ascending doc id
    top = top[np.lexsort((top, -scores[top]))[:k]]
    return tuple((index.doc_ids[o], float(scores[o])) for o in top)


def recall_candidates(
    test: QuerySet,
    train: QuerySet,
    test_emb: EmbeddingSet,
    train_emb: EmbeddingSet,
    per_channel: int = 10,
    measure: str = "inner_product",
) -> dict[str, list[str]]:
    """Annotation candidate pool per test query: embedding channel first,
    then unseen BM25 entries; at most 2 * per_channel ids."""
    if per_channel < 1:
        raise ValueError("per_channel must be >= 1")
    te = test_emb.subset(test.ids)
    tr = train_emb.subset(train.ids)
    _check_query_sets(tr, te)
    dense, _ = knn(te, tr, min(per_channel, len(tr)), measure=measure)
    index = Bm25Index(train)
    pools: dict[str, list[str]] = {}
    for (qid, text), row in zip(test, dense.tolist()):
        pool = [tr.ids[j] for j in row]
        seen = set(pool)
        # bm25_search returns each doc at most once, so only the dense ids can repeat
        pools[qid] = pool + [nid for nid, _ in bm25_search(index, text, per_channel) if nid not in seen]
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
