"""Independent straight-line reimplementations used as test oracles.

Everything here is written directly from the definitions (full sorts,
all-pairs enumeration, textbook formulas) and deliberately avoids the
library's code paths, so agreement between the two is meaningful. The
exception is the section at the end: verbatim copies of replaced library
code (the line-by-line run and qrels readers, the O(n^2) Kendall loop, the
EVEC reader over a whole-file `bytes` copy, PCA over float64 chunk copies)
and of code a faster version may replace (the BM25 index and scoring), kept
so that their replacements can be checked against them.
"""

from __future__ import annotations

import logging
import math
import re
import struct
from typing import Iterator

import numpy as np

from xtrap.analysis import DataError, _check_pairs, _tie_term
from xtrap.dataio import (
    EMBEDDING_MAGIC,
    EMBEDDING_VERSION,
    EmbeddingSet,
    ParseError,
    QrelSet,
    QuerySet,
    RunSet,
    _binary_error,
    _located,
    _read_embeddings_tsv,
)

logger = logging.getLogger(__name__)


def rank_docs(entries):
    """Canonical ranking rule: score descending, doc id ascending."""
    return [d for d, _ in sorted(entries, key=lambda e: (-e[1], e[0]))]


def mrr_at(ranked_docs, grades, cutoff, threshold):
    for i, d in enumerate(ranked_docs[:cutoff]):
        if grades.get(d, 0) >= threshold:
            return 1.0 / (i + 1)
    return 0.0


def dcg_of(rels, gain, cutoff):
    total = 0.0
    for i, r in enumerate(rels[:cutoff]):
        g = float(r) if gain == "linear" else float(2**r - 1)
        total += g / math.log2(i + 2)
    return total


def ndcg_at(ranked_docs, grades, cutoff, gain):
    got = [grades.get(d, 0) for d in ranked_docs]
    ideal = sorted(grades.values(), reverse=True)
    denom = dcg_of(ideal, gain, cutoff)
    if denom == 0.0:
        return 0.0
    return dcg_of(got, gain, cutoff) / denom


def recall_at(ranked_docs, grades, cutoff, threshold):
    relevant = {d for d, g in grades.items() if g >= threshold}
    if not relevant:
        return None
    return len(relevant & set(ranked_docs[:cutoff])) / len(relevant)


def knn_all_pairs(test_ids, test_mat, train_ids, train_mat, k, measure):
    """Full sort over every (test, train) pair; returns [(qid, [(nid, score)])].

    A score is the float64 dot product summed by numpy's einsum loop (of the
    unit vectors for cosine, each norm the square root of such a product),
    not by BLAS, whose summation order follows the CPU kernel it picks."""

    def dot(a, b):
        return np.einsum("i,i->", a, b)

    out = []
    for qid, q in zip(test_ids, test_mat):
        q = np.asarray(q, dtype=np.float64)
        scored = []
        for nid, t in zip(train_ids, train_mat):
            t = np.asarray(t, dtype=np.float64)
            if measure == "cosine":
                s = float(dot(q / np.sqrt(dot(q, q)), t / np.sqrt(dot(t, t))))
            else:
                s = float(dot(q, t))
            scored.append((nid, s))
        scored.sort(key=lambda e: (-e[1], e[0]))
        out.append((qid, scored[:k]))
    return out


_WORD = re.compile(r"[^\W_]+")


def bm25_scores(corpus, query_text, k1, b):
    """Doc id -> score over a {doc_id: text} corpus, straight from the formula."""
    tokenized = {d: _WORD.findall(t.lower()) for d, t in corpus.items()}
    n = len(corpus)
    avgdl = sum(len(t) for t in tokenized.values()) / n
    scores = {}
    for d, terms in tokenized.items():
        s = 0.0
        for t in set(_WORD.findall(query_text.lower())):
            tf = terms.count(t)
            if tf == 0:
                continue
            df = sum(1 for other in tokenized.values() if t in other)
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            s += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(terms) / avgdl))
        if s > 0:
            scores[d] = s
    return scores


def spearman_brute(xs, ys):
    """Counting ranks (1 + #smaller + half the other ties) then Pearson."""

    def ranks(vals):
        return [
            1.0
            + sum(1 for w in vals if w < v)
            + 0.5 * (sum(1 for w in vals if w == v) - 1)
            for v in vals
        ]

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def kendall_brute(xs, ys):
    """Classify every pair as concordant/discordant/tied and apply tau-b."""
    n = len(xs)
    concordant = discordant = ties_x_only = ties_y_only = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x_only += 1
            elif dy == 0:
                ties_y_only += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    cd = concordant + discordant
    return (concordant - discordant) / math.sqrt((cd + ties_x_only) * (cd + ties_y_only))


def kmeans_best_inertia(mat, k, restarts=100, iters=200):
    """Plain Lloyd from random starts; the best inertia over many restarts."""
    X = np.asarray(mat, dtype=np.float64)
    best = math.inf
    for seed in range(restarts):
        rng = np.random.default_rng(seed)
        centers = X[rng.choice(len(X), size=k, replace=False)].copy()
        assign = np.zeros(len(X), dtype=int)
        for _ in range(iters):
            d = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
            assign = d.argmin(axis=1)
            new_centers = centers.copy()
            for j in range(k):
                members = X[assign == j]
                if len(members):
                    new_centers[j] = members.mean(axis=0)
            if np.allclose(new_centers, centers, atol=1e-12):
                break
            centers = new_centers
        inertia = float(((X - centers[assign]) ** 2).sum())
        best = min(best, inertia)
    return best


def round_robin_union(neighbor_id_lists, target):
    """Column-by-column dedup over plain id lists, truncated to target."""
    seq, seen = [], set()
    depth = max((len(lst) for lst in neighbor_id_lists), default=0)
    for rank in range(depth):
        for lst in neighbor_id_lists:
            if rank < len(lst) and lst[rank] not in seen:
                seen.add(lst[rank])
                seq.append(lst[rank])
    return seq[:target]


def kmeans_lloyd(mat, k, seed, max_iters=100, tol=1e-4, normalize=False):
    """k-means++ seeding from PCG64(seed), then Lloyd's loop with every
    distance a float64 einsum of (float64 row - centroid), one centroid at a
    time. Returns (assignment, centroids, history, iterations); raises
    ValueError where the library raises DataError."""
    X = np.asarray(mat, dtype=np.float32)
    n = len(X)
    if normalize:
        norms = np.sqrt(np.einsum("ij,ij->i", X, X, dtype=np.float64))
        if (norms == 0.0).any():
            raise ValueError("zero vector")
        X = (X.astype(np.float64) / norms[:, None]).astype(np.float32)
    X64 = X.astype(np.float64)

    def distances(centroids):
        out = np.empty((n, len(centroids)))
        for j, centroid in enumerate(centroids):
            diff = X64 - centroid
            out[:, j] = np.einsum("ij,ij->i", diff, diff)
        return out

    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = [int(rng.integers(n))]
    d2 = distances(X64[chosen[-1]][None])[:, 0]
    for _ in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            unused = sorted(set(range(n)) - set(chosen))
            idx = unused[int(rng.integers(len(unused)))]
        chosen.append(idx)
        d2 = np.minimum(d2, distances(X64[idx][None])[:, 0])
    centroids = X64[chosen]

    d2 = distances(centroids)
    assignment = np.argmin(d2, axis=1)
    d2min = d2[np.arange(n), assignment]
    history = [float(d2min.sum())]
    iterations = 0
    for iterations in range(1, max_iters + 1):
        new_centroids = centroids.copy()
        counts = np.bincount(assignment, minlength=k)
        for j in range(k):
            if counts[j]:
                new_centroids[j] = X[assignment == j].sum(axis=0, dtype=np.float64) / counts[j]
        stealable = d2min.copy()
        for j in np.flatnonzero(counts == 0):
            victim = int(np.argmax(stealable))
            new_centroids[j] = X64[victim]
            stealable[victim] = -1.0
        d2 = distances(new_centroids)
        new_assignment = np.argmin(d2, axis=1)
        d2min = d2[np.arange(n), new_assignment]
        inertia = float(d2min.sum())
        if inertia > history[-1] * (1.0 + 1e-12) + 1e-12:
            raise ValueError("inertia increased")
        history.append(inertia)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        if shift < tol:
            break
    return assignment, centroids, history, iterations


# Replaced library code, copied verbatim: the line-by-line run and qrels
# readers (with `_iter_lines`), which build the library's containers and
# have since gained the number rule of `_c_number` on every number field, the
# O(n^2) Kendall tau-b loop, the EVEC reader that sliced a `bytes` copy
# of the whole file (with the `read_embeddings` that fed it), and PCA's
# passes over float64 copies of each row chunk.


def _c_number(field: str) -> bool:
    """The number rule of the text formats: int() and float() also read a
    digit-group '_' and non-ASCII digits, which a number field may not hold."""
    return "_" not in field and field.isascii()


def _iter_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) with terminators removed.

    Blank lines are skipped; invalid UTF-8 raises ParseError.
    """
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            if raw.endswith(b"\n"):
                raw = raw[:-1]
            if raw.endswith(b"\r"):
                raw = raw[:-1]
            if not raw:
                continue
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(path, f"invalid UTF-8: {e}", lineno) from e


def parse_qrels(path) -> QrelSet:
    """Read ``qid 0 docid rel`` records; later duplicates overwrite with a warning."""
    records: list[tuple[str, str, int]] = []
    oversized = 0
    for lineno, line in _iter_lines(path):
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(path, f"expected 'qid 0 docid rel' (4 fields), got {len(fields)}", lineno)
        qid, _, docid, rel_s = fields
        try:
            if not _c_number(rel_s):
                raise ValueError
            rel = int(rel_s)
        except ValueError:
            raise ParseError(path, f"relevance grade must be an integer, got {rel_s!r}", lineno) from None
        if rel < 0:
            raise ParseError(path, f"negative relevance grade {rel}", lineno)
        if rel > 3:
            oversized += 1
        records.append((qid, docid, rel))
    qrels = QrelSet.from_records(records)
    if qrels.overwrites:
        logger.warning("%s: %d duplicate (query, doc) pairs; later records win", path, qrels.overwrites)
    if oversized:
        logger.warning("%s: %d grades exceed 3 (expected 0-3 TREC DL or 0/1 MS MARCO style)", path, oversized)
    return qrels


def parse_run(path) -> RunSet:
    """Read a TREC run file; ranking order is re-derived from the scores."""
    rankings: dict[str, list[tuple[str, float]]] = {}
    file_order: dict[str, list[tuple[int, float]]] = {}
    seen: set[tuple[str, str]] = set()
    tag: str | None = None
    for lineno, line in _iter_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(
                path, f"expected 'qid Q0 docid rank score tag' (6 fields), got {len(fields)}", lineno
            )
        qid, _, docid, rank_s, score_s, line_tag = fields
        try:
            if not _c_number(rank_s):
                raise ValueError
            rank = int(rank_s)
        except ValueError:
            raise ParseError(path, f"rank must be an integer, got {rank_s!r}", lineno) from None
        try:
            if not _c_number(score_s):
                raise ValueError
            score = float(score_s)
        except ValueError:
            raise ParseError(path, f"score must be a number, got {score_s!r}", lineno) from None
        if not math.isfinite(score):
            raise ParseError(path, f"non-finite score {score!r} for ({qid}, {docid})", lineno)
        if (qid, docid) in seen:
            raise ParseError(path, f"duplicate (query, doc) pair ({qid}, {docid})", lineno)
        seen.add((qid, docid))
        if tag is None:
            tag = line_tag
        rankings.setdefault(qid, []).append((docid, score))
        file_order.setdefault(qid, []).append((rank, score))
    contradictions = 0
    for qid, entries in file_order.items():
        by_rank = sorted(range(len(entries)), key=lambda i: entries[i][0])
        scores = [entries[i][1] for i in by_rank]
        if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            contradictions += 1
    if contradictions:
        logger.warning(
            "%s: rank field contradicts score order for %d queries; ranks re-derived from scores",
            path,
            contradictions,
        )
    return RunSet(rankings, tag=tag)


def kendall_tau_b_quadratic(pairs: PairedScores) -> float:
    """Tau-b: (concordant - discordant) normalized with tie corrections."""
    x, y = _check_pairs(pairs)
    n = len(x)
    # one row of the pair matrix at a time keeps memory O(n); the sum is an
    # integer, so the order of accumulation cannot change it
    concordant_minus_discordant = 0.0
    for i in range(n - 1):
        concordant_minus_discordant += float(
            (np.sign(x[i + 1 :] - x[i]) * np.sign(y[i + 1 :] - y[i])).sum()
        )
    n0 = n * (n - 1) / 2.0
    denom = math.sqrt((n0 - _tie_term(x)) * (n0 - _tie_term(y)))
    if denom == 0.0:
        raise DataError("undefined correlation: all values tied in a coordinate")
    return concordant_minus_discordant / denom


def read_embeddings(path) -> EmbeddingSet:
    """Read an embedding file: EVEC if it starts with the magic ``EVEC``, else TSV.

    EVEC layout, little-endian throughout: magic ``EVEC``, u32 version=1,
    u64 count, u32 dim, then per record a u16 id byte length, the UTF-8 id,
    and dim float32 components. A TSV file whose first id begins with
    ``EVEC`` is therefore read as EVEC, and rejected; `write_embeddings`
    writes EVEC only.
    """
    # unbuffered: after a buffered partial read, read() gathers the rest in
    # chunks, which took twice as long as one read sized by the file
    with open(path, "rb", buffering=0) as f:
        if f.read(len(EMBEDDING_MAGIC)) == EMBEDDING_MAGIC:
            f.seek(0)
            return _read_embeddings_binary(path, f.read())
    return _read_embeddings_tsv(path)


def _read_embeddings_binary(path, data: bytes) -> EmbeddingSet:
    off = len(EMBEDDING_MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise _binary_error(path, off, f"truncated file while reading {what}")
        chunk = data[off : off + n]
        off += n
        return chunk

    (version,) = struct.unpack("<I", take(4, "version"))
    if version != EMBEDDING_VERSION:
        raise _binary_error(path, 4, f"unsupported version {version}")
    (count,) = struct.unpack("<Q", take(8, "count"))
    (dim,) = struct.unpack("<I", take(4, "dim"))
    if dim < 1:
        raise _binary_error(path, 16, "dim must be positive")
    if count * (2 + 4 * dim) > len(data) - off:
        raise _binary_error(
            path, 8, f"count {count} of dim {dim} needs more than the {len(data) - off} bytes after the header"
        )
    ids: list[str] = []
    matrix = np.empty((count, dim), dtype=np.float32)
    vec_bytes = 4 * dim
    for i in range(count):
        (id_len,) = struct.unpack("<H", take(2, f"id length of record {i}"))
        try:
            eid = take(id_len, f"id of record {i}").decode("utf-8")
        except UnicodeDecodeError as e:
            raise _binary_error(path, off, f"record {i}: id is not valid UTF-8: {e}") from e
        raw = take(vec_bytes, f"vector of record {i}")
        matrix[i] = np.frombuffer(raw, dtype="<f4")
        ids.append(eid)
    if off != len(data):
        raise _binary_error(path, off, f"{len(data) - off} trailing bytes after {count} records")
    with _located(path):
        return EmbeddingSet(ids, matrix)


class Bm25Index:
    """The inverted index of `xtrap.simindex.Bm25Index`, copied verbatim."""

    def __init__(self, docs: QuerySet):
        if len(docs) == 0:
            raise DataError("cannot build a BM25 index over an empty query set")
        # ordinals follow ascending doc id, so a lower ordinal is a lower id
        self.doc_ids = tuple(sorted(docs.ids))
        self.n = len(docs)
        lens = np.zeros(self.n, dtype=np.float64)
        postings: dict[str, tuple[list[int], list[int]]] = {}
        for ordinal, doc_id in enumerate(self.doc_ids):
            terms = _WORD.findall(docs.text(doc_id).lower())
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


def bm25_search(index: Bm25Index, query_text: str, k: int) -> tuple[tuple[str, float], ...]:
    """`xtrap.simindex.bm25_search` at k1=1.2, b=0.75, with the same float
    expression; the top k come from a full sort on (-score, doc id)."""
    k1, b = 1.2, 0.75
    scores = np.zeros(index.n, dtype=np.float64)
    # first-occurrence order keeps the float sum independent of the hash seed
    for term in dict.fromkeys(_WORD.findall(query_text.lower())):
        posting = index.postings.get(term)
        if posting is None:
            continue
        ordinals, tfs = posting
        df = len(ordinals)
        idf = math.log(1.0 + (index.n - df + 0.5) / (df + 0.5))
        norm = k1 * (1.0 - b + b * index.len_ratio[ordinals])
        scores[ordinals] += idf * tfs * (k1 + 1.0) / (tfs + norm)
    # a lower ordinal is a lower doc id
    top = sorted(np.flatnonzero(scores > 0.0).tolist(), key=lambda o: (-scores[o], o))[:k]
    return tuple((index.doc_ids[o], float(scores[o])) for o in top)


def pca_float64_copies(points: EmbeddingSet, out_dims: int, chunk_rows: int):
    """`analysis._pca` and `pca_project` as three passes over float64 copies
    of `chunk_rows`-row chunks (the column sum, the centred covariance and
    the centred projection). Returns (mean, components, eigenvalues,
    projection); the validation of `out_dims` is left to the library."""

    def _row_chunks(matrix: np.ndarray) -> Iterator[np.ndarray]:
        """Float64 copies of `matrix`'s rows, in bounded chunks in row order."""
        for lo in range(0, matrix.shape[0], chunk_rows):
            yield matrix[lo : lo + chunk_rows].astype(np.float64)

    n, dim = len(points), points.dim
    # column mean, then sample covariance (divisor n-1), in float64, chunked
    total = np.zeros(dim, dtype=np.float64)
    for block in _row_chunks(points.matrix):
        total += block.sum(axis=0)
    mean = total / n
    cov = np.zeros((dim, dim), dtype=np.float64)
    for block in _row_chunks(points.matrix):
        block -= mean
        cov += block.T @ block
    values, vectors = np.linalg.eigh(cov / (n - 1))
    components = vectors[:, ::-1][:, :out_dims].T.copy()
    peaks = np.argmax(np.abs(components), axis=1)
    components *= np.sign(components[np.arange(out_dims), peaks])[:, None]
    rows = []
    for block in _row_chunks(points.matrix):
        block -= mean
        rows.append(block @ components.T)
    eigenvalues = tuple(max(float(v), 0.0) for v in values[::-1][:out_dims])
    return mean, components, eigenvalues, np.vstack(rows)
