"""Seeded input generation for the three benchmark workloads.

Everything here is the benchmark's own numpy code: no xtrap import, so the
program under test only ever sees the files written here. The same seed and
scale always give byte-identical files.
"""

from __future__ import annotations

import pickle
import struct
from pathlib import Path

import numpy as np

DIM = 768

# Sizes per scale. "full" is what a benchmark run measures; "tiny" is the
# self-test. The restrain sizes keep the ratios of a 100k x 1k, size 20000
# run at a fourteenth of its kNN work: with 20 planted clusters the round-robin
# union covers about 0.49, 0.84 and 1.35 of the target at depths
# size/n_test x 1, 2 and 4, so restrain deepens twice (three kNN scans) for
# every seed.
SCALES = {
    "full": {
        "restrain": dict(n_train=12000, n_test=600, n_cand=100, clusters=20, knn_k=100,
                         size=2400, exclude=5, per_channel=10),
        "resttest": dict(n_train=12000, n_test=1000, clusters=30, k=5, max_iters=5),
        "scoring": dict(n_test=1000, judged=40, eval_depth=100, fold_depth=20,
                        n_train_qrels=100000, folds=5, n_fold_train=4000),
    },
    "tiny": {
        "restrain": dict(n_train=2000, n_test=100, n_cand=20, clusters=30, knn_k=20,
                         size=400, exclude=5, per_channel=10),
        "resttest": dict(n_train=1200, n_test=100, clusters=30, k=5, max_iters=5),
        "scoring": dict(n_test=100, judged=40, eval_depth=60, fold_depth=20,
                        n_train_qrels=5000, folds=5, n_fold_train=400),
    },
}

# Cluster centers for resttest are faint (a twentieth of the noise scale),
# so the data are close to a plain Gaussian cloud: Lloyd's algorithm is
# still moving at --max-iters for every seed, and the covariance spectrum has
# no gap above its noise edge, which is the regime where xtrap's PCA power
# iteration fails at this commit (checked on seeds 0-23).
RESTTEST_CENTER_SCALE = 0.05

VOCAB = 20000
WORDS_PER_CLUSTER = 60


def _ids(rng: np.random.Generator, n: int) -> list[str]:
    """Unique 7-digit numeric ids (MS MARCO style), in random order."""
    nums = rng.choice(9_000_000, size=n, replace=False) + 1_000_000
    return [str(v) for v in nums.tolist()]


def write_evec(path: Path, ids: list[str], matrix: np.ndarray) -> None:
    """EVEC v1: magic, u32 version, u64 count, u32 dim, then per record a
    u16 id length, the UTF-8 id and dim little-endian float32 values."""
    n, dim = matrix.shape
    id_len = len(ids[0])
    if any(len(i) != id_len for i in ids):
        raise ValueError("write_evec needs fixed-length ascii ids")
    rec = np.dtype([("len", "<u2"), ("id", f"S{id_len}"), ("vec", "<f4", (dim,))])
    records = np.empty(n, dtype=rec)
    records["len"] = id_len
    records["id"] = np.array(ids, dtype=f"S{id_len}")
    records["vec"] = matrix
    with open(path, "wb") as f:
        f.write(b"EVEC" + struct.pack("<IQI", 1, n, dim))
        f.write(records.tobytes())


def write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(f"{line}\n" for line in lines))


def _texts(rng: np.random.Generator, cluster_of: np.ndarray) -> list[str]:
    """Query texts: cluster-topic words mixed with Zipf-distributed background words."""
    n = len(cluster_of)
    lengths = rng.integers(3, 9, size=n)
    total = int(lengths.sum())
    topical = rng.random(total) < 0.5
    topic_words = rng.integers(0, WORDS_PER_CLUSTER, size=total)
    background = np.minimum(rng.zipf(1.3, size=total), VOCAB) - 1
    owner = np.repeat(cluster_of, lengths)
    words = np.where(topical, VOCAB + owner * WORDS_PER_CLUSTER + topic_words, background)
    out, pos = [], 0
    for length in lengths.tolist():
        out.append(" ".join(f"w{w}" for w in words[pos : pos + length].tolist()))
        pos += length
    return out


def _planted(rng, n: int, clusters: int, centers: np.ndarray, balanced: bool) -> tuple[np.ndarray, np.ndarray]:
    cluster_of = np.arange(n) % clusters if balanced else rng.integers(0, clusters, size=n)
    matrix = centers[cluster_of] + rng.standard_normal((n, centers.shape[1]))
    return matrix.astype(np.float32), cluster_of


def gen_restrain(work: Path, seed: int, p: dict) -> dict:
    """Train and test queries in planted clusters (text + EVEC), plus a
    TREC-DL-sized subset of the test queries for `candidates`."""
    rng = np.random.default_rng([seed, 1])
    ids = _ids(rng, p["n_train"] + p["n_test"])
    train_ids, test_ids = ids[: p["n_train"]], ids[p["n_train"] :]
    centers = rng.standard_normal((p["clusters"], DIM))
    train_m, train_c = _planted(rng, p["n_train"], p["clusters"], centers, balanced=True)
    test_m, test_c = _planted(rng, p["n_test"], p["clusters"], centers, balanced=False)
    train_t, test_t = _texts(rng, train_c), _texts(rng, test_c)
    write_lines(work / "train.queries", (f"{i}\t{t}" for i, t in zip(train_ids, train_t)))
    write_lines(work / "test.queries", (f"{i}\t{t}" for i, t in zip(test_ids, test_t)))
    n_cand = p["n_cand"]
    write_lines(work / "cand.queries", (f"{i}\t{t}" for i, t in zip(test_ids[:n_cand], test_t[:n_cand])))
    write_evec(work / "train.evec", train_ids, train_m)
    write_evec(work / "test.evec", test_ids, test_m)
    return {
        "train_ids": train_ids, "test_ids": test_ids, "train": train_m, "test": test_m,
        "train_texts": train_t, "test_texts": test_t,
    }


def gen_resttest(work: Path, seed: int, p: dict) -> dict:
    """Train and test queries in planted clusters, for k-means folds and PCA."""
    rng = np.random.default_rng([seed, 2])
    ids = _ids(rng, p["n_train"] + p["n_test"])
    train_ids, test_ids = ids[: p["n_train"]], ids[p["n_train"] :]
    centers = rng.standard_normal((p["clusters"], DIM)) * RESTTEST_CENTER_SCALE
    train_m, train_c = _planted(rng, p["n_train"], p["clusters"], centers, balanced=True)
    test_m, test_c = _planted(rng, p["n_test"], p["clusters"], centers, balanced=False)
    write_lines(work / "train.queries", (f"{i}\t{t}" for i, t in zip(train_ids, _texts(rng, train_c))))
    write_lines(work / "test.queries", (f"{i}\t{t}" for i, t in zip(test_ids, _texts(rng, test_c))))
    write_evec(work / "train.evec", train_ids, train_m)
    write_evec(work / "test.evec", test_ids, test_m)
    return {"train_ids": train_ids, "test_ids": test_ids, "train": train_m, "test": test_m}


def gen_scoring(work: Path, seed: int, p: dict) -> dict:
    """TREC-DL-shaped test qrels, MS MARCO-shaped train qrels, a fold
    manifest, and the rankings that the write_runs step writes as runs."""
    rng = np.random.default_rng([seed, 3])
    n_test, judged, folds = p["n_test"], p["judged"], p["folds"]
    qids = _ids(rng, n_test + p["n_train_qrels"])
    test_ids, train_qids = qids[:n_test], qids[n_test:]
    n_docs = 8_000_000
    # MS MARCO train qrels: one relevant passage per query, a few with two
    train_docs = rng.integers(0, n_docs, size=p["n_train_qrels"])
    extra = rng.random(p["n_train_qrels"]) < 0.06
    extra_docs = rng.integers(0, n_docs, size=int(extra.sum()))
    train_lines = [f"{q} 0 D{d} 1" for q, d in zip(train_qids, train_docs.tolist())]
    train_lines += [f"{q} 0 D{d} 1" for q, d in zip(np.array(train_qids)[extra].tolist(), extra_docs.tolist())]
    write_lines(work / "train.qrels", train_lines)
    train_relevant = np.unique(np.concatenate([train_docs, extra_docs]))

    # TREC DL test qrels: ~judged docs per query with grades 0-3; about 3% of
    # judged docs are also relevant for some training query (the overlap audit)
    test_qrels: dict[str, dict[str, int]] = {}
    grade_p = [0.5, 0.25, 0.15, 0.10]
    for qid in test_ids:
        k = int(rng.integers(judged // 2, judged * 3 // 2 + 1))
        from_train = rng.random(k) < 0.03
        docs = np.where(from_train, rng.choice(train_relevant, size=k), rng.integers(0, n_docs, size=k))
        docs = np.unique(docs)
        grades = rng.choice(4, size=len(docs), p=grade_p)
        test_qrels[qid] = {f"D{d}": int(g) for d, g in zip(docs.tolist(), grades.tolist())}
    write_lines(work / "test.qrels", (f"{q} 0 {d} {g}" for q, docs in test_qrels.items() for d, g in docs.items()))

    # Fold manifest in the resttest format: training ids first, then buckets
    fold_train = train_qids[: p["n_fold_train"]]
    bucket_of = {i: int(b) for i, b in zip(fold_train + test_ids, rng.integers(0, folds, size=len(fold_train) + n_test))}
    lines = ["#regime=resttest", f"#seed={seed}", f"#k={folds}", "[training]"]
    lines += fold_train
    for b in range(folds):
        lines.append(f"[bucket {b}]")
        lines += [i for i in fold_train if bucket_of[i] == b] + [i for i in test_ids if bucket_of[i] == b]
    write_lines(work / "folds.manifest", lines)

    def ranking(qid: str, depth: int, quality: float) -> list[tuple[str, float]]:
        """Half judged docs scored by grade plus noise, half random unjudged docs."""
        docs = list(test_qrels[qid])
        picks = rng.choice(len(docs), size=min(len(docs), depth // 2), replace=False)
        ids = [docs[j] for j in picks.tolist()]
        scores = (quality * np.array([test_qrels[qid][d] for d in ids]) + rng.standard_normal(len(ids))).tolist()
        filler = [d for d in (f"D{v}" for v in rng.integers(0, n_docs, size=2 * depth).tolist())
                  if d not in test_qrels[qid]]
        filler = list(dict.fromkeys(filler))[: depth - len(ids)]
        return list(zip(ids + filler, scores + rng.standard_normal(len(filler)).tolist()))

    eval_run = {q: ranking(q, p["eval_depth"], 0.8) for q in test_ids}
    fold_runs = [{q: ranking(q, p["fold_depth"], 0.4 + 0.2 * f) for q in test_ids} for f in range(folds)]
    with open(work / "rankings.pkl", "wb") as f:
        pickle.dump({"eval": eval_run, "folds": fold_runs}, f, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "test_ids": test_ids, "test_qrels": test_qrels, "train_relevant": {f"D{d}" for d in train_relevant.tolist()},
        "bucket_of": bucket_of, "eval_run": eval_run, "fold_runs": fold_runs, "folds": folds,
    }


GENERATORS = {"restrain": gen_restrain, "resttest": gen_resttest, "scoring": gen_scoring}


def file_sizes(work: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in sorted(work.iterdir()) if p.is_file()}
