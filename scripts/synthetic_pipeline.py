#!/usr/bin/env python3
"""End-to-end smoke experiment on a planted-structure dataset.

Builds a synthetic benchmark whose queries form well-separated clusters,
with nearby queries sharing relevant docs. A deliberately memorizing toy
"model" scores each doc by summing query-embedding dot products against
the training queries that were judged relevant for it, so it can only do
well on test queries that have similar training queries. The dataset is
pushed through both resampling pipelines via the CLI:

  restrain (inter + extra manifests) -> toy runs -> eval
  resttest (k=3 fold manifest)       -> toy runs per fold -> aggregate

On data like this, interpolation scores should beat extrapolation
scores; the final lines print both for each pipeline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from xtrap import cli
from xtrap.dataio import (
    EmbeddingSet,
    QrelSet,
    RunSet,
    write_embeddings,
    write_qrels,
    write_queries,
    write_run,
)
from xtrap.dataio import Query, QuerySet
from xtrap.resample import read_manifest

CLUSTERS = 8
TRAIN_PER_CLUSTER = 40
TEST_PER_CLUSTER = 3
DOCS_PER_CLUSTER = 5
DIM = 8
SPREAD = 0.5
CENTER_SCALE = 10.0


def planted_dataset(rng):
    """Queries in CLUSTERS blobs; every query is relevant to its blob's docs."""
    train_ids, train_rows, test_ids, test_rows = [], [], [], []
    records = []
    cluster_of = {}
    for c in range(CLUSTERS):
        center = np.zeros(DIM)
        center[c] = CENTER_SCALE
        docs = [f"doc-c{c}-{i}" for i in range(DOCS_PER_CLUSTER)]
        for i in range(TRAIN_PER_CLUSTER):
            qid = f"train-c{c}-{i:03d}"
            train_ids.append(qid)
            train_rows.append(rng.normal(loc=center, scale=SPREAD))
            cluster_of[qid] = c
            records += [(qid, d, 1) for d in docs]
        for i in range(TEST_PER_CLUSTER):
            qid = f"test-c{c}-{i}"
            test_ids.append(qid)
            test_rows.append(rng.normal(loc=center, scale=SPREAD))
            cluster_of[qid] = c
            records += [(qid, d, 1) for d in docs]
    train_emb = EmbeddingSet(train_ids, np.asarray(train_rows, dtype=np.float32))
    test_emb = EmbeddingSet(test_ids, np.asarray(test_rows, dtype=np.float32))
    return train_emb, test_emb, QrelSet.from_records(records), cluster_of


def toy_model_run(training_ids, train_emb, train_qrels, test_emb, test_ids):
    """score(q, d) = sum over training queries t of <q, t> * [t judged relevant for d]."""
    picked = train_emb.subset(training_ids)
    doc_ids = sorted(train_qrels.relevant_docs())
    doc_pos = {d: i for i, d in enumerate(doc_ids)}
    relevance = np.zeros((len(picked), len(doc_ids)))
    for row, tid in enumerate(picked.ids):
        for d, rel in train_qrels.docs(tid).items():
            if rel >= 1:
                relevance[row, doc_pos[d]] = 1.0
    queries = test_emb.subset(test_ids)
    scores = queries.matrix.astype(np.float64) @ picked.matrix.astype(np.float64).T @ relevance
    rankings = {
        qid: [(d, float(s)) for d, s in zip(doc_ids, scores[i])]
        for i, qid in enumerate(test_ids)
    }
    return RunSet(rankings)


def run_cli(*argv):
    rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"xtrap {' '.join(argv[:1])} failed with exit code {rc}")


def mean_of(report_path):
    last = Path(report_path).read_text().splitlines()[-1].split("\t")
    assert last[1] == "ALL"
    return tuple(float(v) for v in last[2:]) if len(last) > 3 else float(last[2])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True, help="directory for generated files")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    train_emb, test_emb, qrels, cluster_of = planted_dataset(rng)
    paths = {name: str(work / name) for name in (
        "train.queries", "test-restrain.queries", "test-resttest.queries",
        "train.evec", "test.evec", "qrels.txt",
    )}
    write_queries(QuerySet([Query(i, f"synthetic query {i}") for i in train_emb.ids]), paths["train.queries"])
    # ReSTrain test queries: clusters 0-3 only, so clusters 4-7 stay available
    # for a feasible extrapolation training set
    restrain_test = [qid for qid in test_emb.ids if cluster_of[qid] < 4]
    write_queries(QuerySet([Query(i, f"synthetic query {i}") for i in restrain_test]), paths["test-restrain.queries"])
    write_queries(QuerySet([Query(i, f"synthetic query {i}") for i in test_emb.ids]), paths["test-resttest.queries"])
    write_embeddings(train_emb, paths["train.evec"])
    write_embeddings(test_emb, paths["test.evec"])
    write_qrels(qrels, paths["qrels.txt"])

    target = 4 * TRAIN_PER_CLUSTER
    results = {}

    for regime in ("inter", "extra"):
        manifest = work / f"restrain-{regime}.manifest"
        run_cli("restrain", "--regime", regime,
                "--train-queries", paths["train.queries"],
                "--test-queries", paths["test-restrain.queries"],
                "--train-emb", paths["train.evec"], "--test-emb", paths["test.evec"],
                "-E", str(TRAIN_PER_CLUSTER), "--size", str(target),
                "--seed", str(args.seed), "-o", str(manifest))
        split = read_manifest(manifest)
        run = toy_model_run(split.training_ids, train_emb, qrels, test_emb, restrain_test)
        run_path = work / f"restrain-{regime}.run"
        write_run(run, run_path, tag=f"toy-{regime}")
        report = work / f"restrain-{regime}.eval"
        run_cli("eval", "--run", str(run_path), "--qrels", paths["qrels.txt"],
                "--metric", "ndcg@10", "-o", str(report))
        results[regime] = mean_of(report)

    print(f"restrain ndcg@10 interpolation {results['inter']:.4f} extrapolation {results['extra']:.4f}")

    fold_manifest = work / "resttest.manifest"
    run_cli("resttest",
            "--train-queries", paths["train.queries"],
            "--test-queries", paths["test-resttest.queries"],
            "--train-emb", paths["train.evec"], "--test-emb", paths["test.evec"],
            "-k", "3", "--seed", str(args.seed), "-o", str(fold_manifest))
    folds = read_manifest(fold_manifest)
    run_paths = []
    for fold in range(folds.k):
        run = toy_model_run(folds.fold_training_ids(fold), train_emb, qrels, test_emb, list(test_emb.ids))
        run_path = work / f"resttest-fold{fold}.run"
        write_run(run, run_path, tag=f"toy-fold{fold}")
        run_paths.append(str(run_path))
    agg_report = work / "resttest.agg"
    run_cli("aggregate", "--manifest", str(fold_manifest), "--qrels", paths["qrels.txt"],
            "--runs", *run_paths, "--metric", "ndcg@10", "-o", str(agg_report))
    inter, extra = mean_of(agg_report)
    print(f"resttest ndcg@10 interpolation {inter:.4f} extrapolation {extra:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
