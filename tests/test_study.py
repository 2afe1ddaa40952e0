"""A small study run through the CLI and checked against the oracles.

Each example writes query and embedding files, runs `knn` and `restrain` in
both regimes through `cli.main`, twice each, and compares every output with
the oracle pipeline composed in the same order: `oracles.knn_all_pairs`,
then `oracles.round_robin_union` for interpolation, then the extrapolation
rule: drop every test query's top-E neighbours, list the remaining training
queries in query-file order and draw `--size` of them with
`PCG64(seed).choice(len(remaining), size, replace=False)`.
"""

import string
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_embeddings
from xtrap import cli
from xtrap.dataio import QuerySet, write_embeddings
from xtrap.resample import RNG_ALGORITHM, read_manifest
from xtrap.simindex import MEASURES

# ids of mixed length, unique through their numbered suffix; lowercase, so
# that no TSV id starts with the EVEC magic
_PREFIXES = st.text(alphabet=string.ascii_lowercase + string.digits, max_size=6)


def _write_embedding_file(path: Path, ids, matrix, evec: bool) -> str:
    if evec:
        write_embeddings(make_embeddings(ids, matrix), path)
    else:
        path.write_text("".join(f"{eid}\t{' '.join(f'{v:g}' for v in row)}\n" for eid, row in zip(ids, matrix)))
    return str(path)


@st.composite
def studies(draw):
    n_train, n_test, n_extra = draw(st.integers(1, 10)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    n = n_train + n_test + n_extra
    ids = [f"{draw(_PREFIXES)}_{i}" for i in range(n)]
    dim = draw(st.integers(1, 4))
    # rows drawn from a few distinct integer vectors, so that duplicates and
    # exact ties are common
    distinct = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    matrix = np.asarray([distinct[p] for p in picks], dtype=np.float32).reshape(n, dim)
    matrix[~matrix.any(axis=1), 0] = 1  # cosine needs nonzero vectors
    vectors = dict(zip(ids, matrix))
    train_ids, test_ids, extra_ids = ids[:n_train], ids[n_train : n_train + n_test], ids[n_train + n_test :]
    # one shared embedding file, or one per side; each holds the rows that no
    # query file names, and each lists its rows in an order of its own
    if draw(st.booleans()):
        files = [draw(st.permutations(ids))] * 2
    else:
        files = [draw(st.permutations(train_ids + extra_ids)), draw(st.permutations(test_ids + extra_ids))]
    return {
        "train_ids": train_ids,
        "test_ids": test_ids,
        "vectors": vectors,
        "train_file": files[0],
        "test_file": files[1],
        "evec": (draw(st.booleans()), draw(st.booleans())),
        "measure": draw(st.sampled_from(MEASURES)),
        "k": draw(st.integers(1, len(files[0]) + 1)),
        "size": draw(st.integers(1, n_train)),
        "depth": draw(st.integers(1, n_train + 1)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _write_inputs(work: Path, study, texts) -> tuple[str, str, str, str]:
    """(train queries, test queries, train embeddings, test embeddings) files;
    `texts` gives each query's text."""
    train_q, test_q = work / "train_q.tsv", work / "test_q.tsv"
    train_q.write_text("".join(f"{i}\t{texts[i]}\n" for i in study["train_ids"]))
    test_q.write_text("".join(f"{i}\t{texts[i]}\n" for i in study["test_ids"]))
    vectors = study["vectors"]
    train_e, test_e = (
        _write_embedding_file(work / name, ids, [vectors[i] for i in ids], evec)
        for name, ids, evec in zip(("train.emb", "test.emb"), (study["train_file"], study["test_file"]),
                                   study["evec"])
    )
    return str(train_q), str(test_q), train_e, test_e


def _run_twice(argv, out: Path) -> int:
    """Exit code of `argv -o out`; a second run must write the same bytes."""
    rc = cli.main([*argv, "-o", str(out)])
    again = out.with_name(out.name + ".again")
    assert cli.main([*argv, "-o", str(again)]) == rc
    if rc == 0:
        assert again.read_bytes() == out.read_bytes()
    else:
        assert not out.exists() and not again.exists()
    return rc


def _neighbor_ids(test_ids, train_ids, vectors, depth, measure):
    lists = oracles.knn_all_pairs(
        test_ids, [vectors[i] for i in test_ids], train_ids, [vectors[i] for i in train_ids], depth, measure
    )
    return [[nid for nid, _ in neighbors] for _, neighbors in lists]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(studies())
def test_knn_and_restrain_match_the_oracle_pipeline(tmp_path, study):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    vectors, measure = study["vectors"], study["measure"]
    texts = {i: f"text of {i}" for i in study["train_ids"] + study["test_ids"]}
    train_q, test_q, train_e, test_e = _write_inputs(work, study, texts)

    # knn: every row of both files, k capped at the training file's rows
    out = work / "knn.tsv"
    assert _run_twice(["knn", "--test-emb", test_e, "--train-emb", train_e, "-k", str(study["k"]),
                       "--measure", measure], out) == 0
    want = oracles.knn_all_pairs(
        study["test_file"], [vectors[i] for i in study["test_file"]],
        study["train_file"], [vectors[i] for i in study["train_file"]], study["k"], measure,
    )
    assert [line.split("\t") for line in out.read_text().splitlines()] == [
        [qid, str(rank), nid, f"{score:.6g}"]
        for qid, neighbors in want
        for rank, (nid, score) in enumerate(neighbors, start=1)
    ]

    # restrain: the query files pick and order the rows of the embedding files
    train_ids, test_ids = study["train_ids"], study["test_ids"]
    full = _neighbor_ids(test_ids, train_ids, vectors, len(train_ids), measure)
    size, depth, seed = study["size"], study["depth"], study["seed"]
    provenance = {"seed": str(seed), "exclude_depth": str(depth), "target_size": str(size),
                  "measure": measure, "rng": RNG_ALGORITHM}
    common = ["--train-queries", train_q, "--test-queries", test_q, "--train-emb", train_e,
              "--test-emb", test_e, "-E", str(depth), "--size", str(size), "--seed", str(seed),
              "--measure", measure]

    out = work / "inter.manifest"
    assert _run_twice(["restrain", "--regime", "inter", *common], out) == 0
    split = read_manifest(out)
    assert (split.regime, split.provenance) == ("interpolation", provenance)
    assert split.training_ids == tuple(oracles.round_robin_union(full, size))
    assert split.test_ids == tuple(test_ids)

    out = work / "extra.manifest"
    excluded = {nid for neighbors in full for nid in neighbors[:depth]}
    remaining = [i for i in train_ids if i not in excluded]
    rc = _run_twice(["restrain", "--regime", "extra", *common], out)
    if len(remaining) < size:
        assert rc == 2
        return
    assert rc == 0
    split = read_manifest(out)
    assert (split.regime, split.provenance) == ("extrapolation", provenance)
    picks = np.random.Generator(np.random.PCG64(seed)).choice(len(remaining), size, replace=False)
    assert split.training_ids == tuple(remaining[p] for p in picks.tolist())
    assert split.test_ids == tuple(test_ids)


# query words in mixed case, so that BM25's lowercasing matters, and doc ids
# whose string order is not their numeric order
_WORDS = st.sampled_from(["cat", "Cat", "dog", "a", "b2", "x_y"])
_DOCS = st.sampled_from(["d1", "d2", "d10", "e", "d1a"])


@st.composite
def pipelines(draw):
    """A study plus query texts, a bucket count, graded judgments and one run
    per fold; run scores are small integers, so that ties are common, and
    each run file lists its lines in a drawn order."""
    study = draw(studies())
    queries = study["train_ids"] + study["test_ids"]
    # every query draws its own docs for the judgments and for each run; a
    # query that draws none is unjudged, or absent from that run
    judged = {q: docs for q in queries if (docs := draw(st.dictionaries(_DOCS, st.integers(0, 3))))}
    k = draw(st.integers(2, len(queries) + 1))
    runs = []
    for _ in range(k):
        lines = [(q, d, s) for q in queries for d, s in draw(st.dictionaries(_DOCS, st.integers(-2, 2))).items()]
        runs.append(draw(st.permutations(lines)))
    return {
        **study,
        "texts": {q: " ".join(draw(st.lists(_WORDS, max_size=4))) for q in queries},
        "per_channel": draw(st.integers(1, len(study["train_ids"]) + 1)),
        "k": k,
        "max_iters": draw(st.sampled_from([1, 2, 100])),
        "normalize": draw(st.booleans()),
        "qrels": judged,
        "runs": runs,
        "metric": (draw(st.sampled_from(["mrr", "ndcg", "recall"])), draw(st.integers(1, 4)),
                   draw(st.integers(1, 3)), draw(st.sampled_from(["linear", "exponential"]))),
    }


def _write_run(path: Path, lines) -> str:
    """A run file of (query, doc, score) lines in the given order; a line's
    rank field is its rank within its query."""
    rank = {}
    for q in {q for q, _, _ in lines}:
        entries = [(d, float(s)) for qq, d, s in lines if qq == q]
        rank.update({(q, d): r for r, d in enumerate(oracles.rank_docs(entries), start=1)})
    path.write_text("".join(f"{q} Q0 {d} {rank[q, d]} {s:.1f} t\n" for q, d, s in lines))
    return str(path)


def _oracle_score(entries, grades, metric):
    """The metric of one ranking from the definitions; None where it cannot
    be scored: the query is unjudged, or recall has no relevant doc."""
    if grades is None:
        return None
    kind, cutoff, threshold, gain = metric
    ranked = oracles.rank_docs(entries)
    if kind == "mrr":
        return oracles.mrr_at(ranked, grades, cutoff, threshold)
    if kind == "ndcg":
        return oracles.ndcg_at(ranked, grades, cutoff, gain)
    return oracles.recall_at(ranked, grades, cutoff, threshold)


def _oracle_run_scores(path, qrels, metric) -> dict[str, float]:
    """Each scorable query of the run at `path`, as `oracles.parse_run` reads it."""
    run = oracles.parse_run(path)
    scores = {q: _oracle_score(run.ranking(q), qrels.get(q), metric) for q in run.query_ids()}
    return {q: s for q, s in scores.items() if s is not None}


def _mean(values: dict[str, float]) -> float:
    return sum(values[q] for q in sorted(values)) / len(values) if values else 0.0


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pipelines())
def test_candidates_resttest_eval_and_aggregate_match_the_oracle_pipeline(tmp_path, study):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    vectors, measure, texts = study["vectors"], study["measure"], study["texts"]
    train_ids, test_ids = study["train_ids"], study["test_ids"]
    train_q, test_q, train_e, test_e = _write_inputs(work, study, texts)
    inputs = ["--train-queries", train_q, "--test-queries", test_q, "--train-emb", train_e, "--test-emb", test_e]

    # candidates: the dense top ids, then the BM25 ids not among them
    p = study["per_channel"]
    out = work / "candidates.tsv"
    assert _run_twice(["candidates", *inputs, "--per-channel", str(p), "--measure", measure], out) == 0
    index = oracles.Bm25Index(QuerySet(train_ids, [texts[i] for i in train_ids]))
    want = []
    for qid, dense in zip(test_ids, _neighbor_ids(test_ids, train_ids, vectors, p, measure)):
        pool = dense + [nid for nid, _ in oracles.bm25_search(index, texts[qid], p) if nid not in dense]
        want += [f"{qid}\t{rank}\t{nid}" for rank, nid in enumerate(pool, start=1)]
    assert out.read_text().splitlines() == want

    # eval: a run with interleaved queries scores as its copy sorted by
    # query and rank does
    qrels_path = work / "qrels.txt"
    qrels_path.write_text("".join(f"{q} 0 {d} {g}\n" for q, docs in study["qrels"].items() for d, g in docs.items()))
    qrels = study["qrels"]
    kind, cutoff, threshold, gain = study["metric"]
    label = f"{kind}@{cutoff}"
    metric = ["--qrels", str(qrels_path), "--metric", label, "--rel-threshold", str(threshold), "--gain", gain]
    run_paths = [_write_run(work / f"fold{f}.run", lines) for f, lines in enumerate(study["runs"])]
    scores = _oracle_run_scores(run_paths[0], qrels, study["metric"])
    want = [f"{label}\t{q}\t{scores[q]:.4f}" for q in sorted(scores)] + [f"{label}\tALL\t{_mean(scores):.4f}"]
    by_query = sorted(study["runs"][0], key=lambda line: (line[0], -line[2], line[1]))
    for name, path in (("eval.tsv", run_paths[0]), ("eval_sorted.tsv", _write_run(work / "sorted.run", by_query))):
        out = work / name
        assert _run_twice(["eval", "--run", path, *metric], out) == 0
        assert out.read_text().splitlines() == want

    # resttest: Lloyd's buckets over the training rows, then the test rows,
    # in query-file order
    k, seed, max_iters, normalize = study["k"], study["seed"], study["max_iters"], study["normalize"]
    manifest = work / "folds.manifest"
    rc = _run_twice(["resttest", *inputs, "-k", str(k), "--seed", str(seed), "--max-iters", str(max_iters),
                     *(["--normalize"] if normalize else [])], manifest)
    rows = train_ids + test_ids
    try:
        assignment = oracles.kmeans_lloyd(np.asarray([vectors[i] for i in rows]), k, seed, max_iters=max_iters,
                                          normalize=normalize)[0] if k <= len(rows) else None
    except ValueError:  # where the library raises DataError
        assignment = None
    if assignment is None:
        assert rc == 2
        return
    assert rc == 0
    folds = read_manifest(manifest)
    assert folds.buckets == tuple(tuple(i for i, a in zip(rows, assignment) if a == b) for b in range(k))
    assert folds.train_ids == tuple(train_ids)
    assert folds.provenance == {"seed": str(seed), "max_iters": str(max_iters), "tol": "0.0001",
                                "normalize": str(normalize).lower(), "rng": RNG_ALGORITHM}

    # aggregate: a test query's extrapolation score is its own bucket's run's,
    # its interpolation score the mean over the other runs; unscored is 0
    fold_scores = [_oracle_run_scores(path, qrels, study["metric"]) for path in run_paths]
    per_query = {}
    for qid, b in zip(test_ids, assignment[len(train_ids) :].tolist()):
        # whether a query can be scored depends on its judgments alone
        if _oracle_score([], qrels.get(qid), study["metric"]) is not None:
            inter = [fold.get(qid, 0.0) for f, fold in enumerate(fold_scores) if f != b]
            per_query[qid] = (sum(inter) / len(inter), fold_scores[b].get(qid, 0.0))
    out = work / "aggregate.tsv"
    assert _run_twice(["aggregate", "--manifest", str(manifest), "--runs", *run_paths, *metric], out) == 0
    means = [_mean({q: pair[i] for q, pair in per_query.items()}) for i in (0, 1)]
    assert out.read_text().splitlines() == [
        f"{label}\t{q}\t{per_query[q][0]:.4f}\t{per_query[q][1]:.4f}" for q in sorted(per_query)
    ] + [f"{label}\tALL\t{means[0]:.4f}\t{means[1]:.4f}"]
