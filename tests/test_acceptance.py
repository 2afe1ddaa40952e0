"""Acceptance suite: one test (or test group) per numbered criterion.

Run with `python -m pytest tests/test_acceptance.py -v -s` to get one
pass/fail line per criterion plus the explicit ACCEPTANCE summaries.
"""

import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import FIXTURES, knn_lists, make_embeddings, make_queries, random_embeddings
from xtrap import cli
from xtrap.dataio import QrelSet, RunSet
from xtrap.metrics import MetricSpec, score_run
from xtrap.resample import (
    KMeansConfig,
    ReSTrainConfig,
    kmeans,
    restrain_extrapolation,
    restrain_interpolation,
    resttest_split,
)
from xtrap.simindex import knn
from xtrap.analysis import cohens_kappa, kendall_tau_b, spearman

GiB = 1024**3

REFERENCE_OVERLAP = {
    "trec19": {"geq:1": 79.0, "geq:2": 60.0, "eq:3": 26.0},
    "trec20": {"geq:1": 76.0, "geq:2": 46.0, "eq:3": 31.0},
}
OVERLAP_TOLERANCE_PP = 2.0


def overlap_percents(test_qrels_path, train_qrels_path, tmp_path, tag):
    out = tmp_path / f"overlap-{tag}.tsv"
    started = time.monotonic()
    rc = cli.main(
        ["overlap", "--test-qrels", str(test_qrels_path), "--train-qrels", str(train_qrels_path),
         "--thresholds", "geq:1,geq:2,eq:3", "-o", str(out)]
    )
    elapsed = time.monotonic() - started
    assert rc == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    return {row[0]: float(row[3]) for row in rows}, elapsed


class TestC1OverlapAudit:
    def test_c1_overlap_fixture(self, tmp_path):
        """Packaged fixture qrels reproduce the published overlap rows."""
        total_elapsed = 0.0
        for name, expected in REFERENCE_OVERLAP.items():
            percents, elapsed = overlap_percents(
                FIXTURES / f"{name}-fixture.qrels", FIXTURES / "train-fixture.qrels", tmp_path, name
            )
            total_elapsed += elapsed
            for label, want in expected.items():
                assert abs(percents[label] - want) <= OVERLAP_TOLERANCE_PP, (name, label, percents)
        assert total_elapsed < 60.0
        print("\nACCEPTANCE C1 (fixture overlap rows within 2pp): PASS")

    def test_c1_overlap_real_data(self, tmp_path):
        """Same audit on the real public qrels, when they are present."""
        data_dir = Path(os.environ.get("XTRAP_DATA_DIR", "data"))
        files = {
            "trec19": data_dir / "2019qrels-pass.txt",
            "trec20": data_dir / "2020qrels-pass.txt",
            "train": data_dir / "qrels.train.tsv",
        }
        if not all(p.exists() for p in files.values()):
            pytest.skip(
                f"public qrels not found under {data_dir}/ "
                "(run scripts/download_qrels.py; this sandbox has no general network access)"
            )
        total_elapsed = 0.0
        for name in ("trec19", "trec20"):
            percents, elapsed = overlap_percents(files[name], files["train"], tmp_path, f"real-{name}")
            total_elapsed += elapsed
            for label, want in REFERENCE_OVERLAP[name].items():
                assert abs(percents[label] - want) <= OVERLAP_TOLERANCE_PP, (name, label, percents)
        assert total_elapsed < 60.0
        print("\nACCEPTANCE C1 (real-data overlap rows within 2pp): PASS")


def random_metric_instance(rng):
    """One query: a run over <=20 docs plus graded judgments (0-3)."""
    n_docs = int(rng.integers(1, 21))
    docs = [f"d{j:02d}" for j in range(n_docs)]
    ranking = [(d, float(s)) for d, s in zip(docs, rng.normal(size=n_docs))]
    records = [("q", d, int(rng.integers(0, 4))) for d in docs if rng.random() < 0.75]
    if rng.random() < 0.5:
        records.append(("q", "dZZ", int(rng.integers(1, 4))))
    return RunSet({"q": ranking}), QrelSet.from_records(records)


class TestC2MetricOracles:
    SPECS = [
        MetricSpec("mrr", 10),
        MetricSpec("ndcg", 10, gain="linear"),
        MetricSpec("ndcg", 10, gain="exponential"),
        MetricSpec("recall", 100),
    ]

    def test_c2_metric_oracle_suite(self, rng):
        instances = 0
        while instances < 220:
            run, qrels = random_metric_instance(rng)
            if not qrels.has_query("q"):
                continue
            instances += 1
            grades = qrels.docs("q")
            ranked = oracles.rank_docs(run.ranking("q"))
            for spec in self.SPECS:
                report = score_run(run, qrels, spec)
                if spec.kind == "mrr":
                    want = oracles.mrr_at(ranked, grades, spec.cutoff, spec.rel_threshold)
                elif spec.kind == "ndcg":
                    want = oracles.ndcg_at(ranked, grades, spec.cutoff, spec.gain)
                else:
                    want = oracles.recall_at(ranked, grades, spec.cutoff, spec.rel_threshold)
                if want is None:
                    assert report.skipped_ids == ["q"]
                else:
                    assert report.per_query["q"] == pytest.approx(want, abs=1e-9)
        print(f"\nACCEPTANCE C2 (metrics match oracle on {instances} instances at 1e-9): PASS")

    def test_c2_hand_derived_ndcg_examples(self):
        run = RunSet({"q1": [("d2", 2.0), ("d1", 1.0)]})
        qrels = QrelSet.from_records([("q1", "d1", 3), ("q1", "d2", 1)])
        linear = score_run(run, qrels, MetricSpec("ndcg", 10)).mean
        want_linear = (1.0 + 3.0 / math.log2(3)) / (3.0 + 1.0 / math.log2(3))
        assert linear == pytest.approx(want_linear, abs=1e-12)
        assert round(linear, 4) == 0.7967
        exponential = score_run(run, qrels, MetricSpec("ndcg", 10, gain="exponential")).mean
        want_exp = (1.0 + 7.0 / math.log2(3)) / (7.0 + 1.0 / math.log2(3))
        assert exponential == pytest.approx(want_exp, abs=1e-12)
        assert round(exponential, 4) == 0.7098
        print("\nACCEPTANCE C2 (hand-derived NDCG examples exact): PASS")


class TestC3KnnExactness:
    def test_c3_knn_matches_full_sort_oracle(self, rng):
        instances = 0
        for trial in range(100):
            n_train = int(rng.integers(2, 201))
            n_test = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 17))
            k = int(rng.integers(1, n_train + 1))
            if trial % 5 == 0:
                base = rng.integers(-4, 5, size=(max(1, n_train // 2), dim)).astype(np.float32)
                mat = np.vstack([base, base])[:n_train]
                zero_rows = np.abs(mat).sum(axis=1) == 0
                mat[zero_rows, 0] = 1.0  # cosine needs nonzero vectors
                train = make_embeddings([f"t{i:03d}" for i in range(len(mat))], mat)
            else:
                train = random_embeddings(rng, "t", n_train, dim)
            test = random_embeddings(rng, "q", n_test, dim)
            for measure in ("inner_product", "cosine"):
                got = knn_lists(test, train, k, measure=measure)
                want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, k, measure)
                assert len(got) == len(want)
                for (qid, neighbors), (want_qid, expected) in zip(got, want):
                    assert qid == want_qid
                    assert [n for n, _ in neighbors] == [n for n, _ in expected]
            instances += 1
        assert instances == 100
        print("\nACCEPTANCE C3 (kNN equals full-sort oracle on 100 instances x both measures): PASS")


class TestC4KMeans:
    def test_c4_kmeans_properties(self, rng):
        histories = []
        for seed in range(6):
            points = random_embeddings(rng, f"r{seed}-", 80, 6)
            result = kmeans(points, KMeansConfig(k=4, seed=seed))
            histories.append(result.history)
        # k=1 closed form
        points = random_embeddings(rng, "m", 40, 5)
        result = kmeans(points, KMeansConfig(k=1, seed=3))
        histories.append(result.history)
        mean = points.matrix.astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(result.centroids[0], mean, atol=1e-6)
        # two-blob recovery
        ids, rows, blob_of = [], [], {}
        for b, sign in enumerate((-1.0, 1.0)):
            for i in range(20):
                eid = f"b{b}-{i}"
                ids.append(eid)
                rows.append(rng.normal(loc=sign * 10.0, scale=0.5, size=4))
                blob_of[eid] = b
        blobs = make_embeddings(ids, np.asarray(rows))
        result = kmeans(blobs, KMeansConfig(k=2, seed=17))
        histories.append(result.history)
        buckets_by_blob = {b: {result.assignment[i] for i in ids if blob_of[i] == b} for b in (0, 1)}
        assert all(len(v) == 1 for v in buckets_by_blob.values())
        assert buckets_by_blob[0] != buckets_by_blob[1]
        best = oracles.kmeans_best_inertia(blobs.matrix, k=2, restarts=100)
        assert result.inertia == pytest.approx(best, abs=1e-6)
        # determinism
        cfg = KMeansConfig(k=3, seed=1234)
        again = random_embeddings(rng, "d", 50, 4)
        assert kmeans(again, cfg).assignment == kmeans(again, cfg).assignment
        # inertia monotone on every recorded run
        for history in histories:
            for prev, cur in zip(history, history[1:]):
                assert cur <= prev + 1e-9
        print("\nACCEPTANCE C4 (k-means inertia monotone, k=1 mean, blob recovery, determinism): PASS")


class TestC5ReSTrain:
    def test_c5_restrain_invariants(self, rng):
        train_emb = random_embeddings(rng, "t", 1000, 8)
        test_emb = random_embeddings(rng, "q", 50, 8)
        train, test = make_queries(train_emb.ids), make_queries(test_emb.ids)

        splits = [
            restrain_interpolation(train, test, train_emb, test_emb, ReSTrainConfig(target_size=size))
            for size in (50, 100, 200)
        ]
        assert [len(s.training_ids) for s in splits] == [50, 100, 200]
        assert splits[1].training_ids[:50] == splits[0].training_ids
        assert splits[2].training_ids[:100] == splits[1].training_ids

        cfg = ReSTrainConfig(target_size=200, exclude_depth=8, seed=31)
        extra = restrain_extrapolation(train, test, train_emb, test_emb, cfg)
        assert len(extra.training_ids) == 200
        recomputed = {
            nid
            for _, lst in oracles.knn_all_pairs(
                test_emb.ids, test_emb.matrix, train_emb.ids, train_emb.matrix, 8, "inner_product"
            )
            for nid, _ in lst
        }
        assert not recomputed & set(extra.training_ids)
        print("\nACCEPTANCE C5 (prefix monotonicity, exact sizes, exclusion disjointness): PASS")


class TestC6ReSTTest:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_c6_fold_coverage(self, rng, k):
        train_emb = random_embeddings(rng, "t", 60, 5)
        test_emb = random_embeddings(rng, "q", 18, 5)
        folds = resttest_split(
            make_queries(train_emb.ids), make_queries(test_emb.ids), train_emb, test_emb,
            KMeansConfig(k=k, seed=7),
        )
        extra_counts = {qid: 0 for qid in test_emb.ids}
        inter_counts = {qid: 0 for qid in test_emb.ids}
        for fold in range(k):
            for qid in folds.fold_extrapolation_test_ids(fold):
                extra_counts[qid] += 1
            for qid in folds.fold_interpolation_test_ids(fold):
                inter_counts[qid] += 1
        assert all(c == 1 for c in extra_counts.values())
        assert all(c == k - 1 for c in inter_counts.values())
        print(f"\nACCEPTANCE C6 (fold coverage exact at k={k}): PASS")

    def test_c6_aggregate_nested_mean_oracle(self):
        from xtrap.resample import FoldSpec, resttest_aggregate

        qids = [f"q{i}" for i in range(1, 7)]
        folds = FoldSpec(k=3, buckets=(("q1", "q2"), ("q3", "q4"), ("q5", "q6")), train_ids=())
        hits = [
            {"q1": 1, "q2": 2, "q3": 3, "q4": 4, "q5": 5, "q6": 0},
            {"q1": 2, "q2": 3, "q3": 4, "q4": 5, "q5": 1, "q6": 2},
            {"q1": 3, "q2": 4, "q3": 5, "q4": 0, "q5": 2, "q6": 3},
        ]
        runs = []
        for table in hits:
            rankings = {
                q: [(f"r{q}-{i}", float(5 - i)) for i in range(n)] for q, n in table.items()
            }
            runs.append(RunSet(rankings))
        qrels = QrelSet.from_records([(q, f"r{q}-{i}", 1) for q in qids for i in range(5)])
        report = resttest_aggregate(runs, folds, qrels, MetricSpec("recall"))
        bucket = {"q1": 0, "q2": 0, "q3": 1, "q4": 1, "q5": 2, "q6": 2}
        extra = sum(hits[bucket[q]][q] / 5 for q in qids) / 6
        inter = sum(
            sum(hits[f][q] / 5 for f in range(3) if f != bucket[q]) / 2 for q in qids
        ) / 6
        assert report.extrapolation == pytest.approx(extra, abs=1e-12)
        assert report.interpolation == pytest.approx(inter, abs=1e-12)
        print("\nACCEPTANCE C6 (aggregate matches nested-mean oracle): PASS")


class TestC7Correlations:
    def test_c7_brute_force_agreement(self, rng):
        checked = 0
        while checked < 50:
            n = int(rng.integers(3, 20))
            xs = rng.integers(0, 6, size=n).astype(float)
            ys = rng.integers(0, 6, size=n).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            pairs = [(f"m{i}", float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]
            assert spearman(pairs) == pytest.approx(oracles.spearman_brute(xs, ys), abs=1e-12)
            assert kendall_tau_b(pairs) == pytest.approx(oracles.kendall_brute(xs, ys), abs=1e-12)
            checked += 1
        print("\nACCEPTANCE C7 (spearman/kendall match brute force on 50 tied inputs at 1e-12): PASS")

    def test_c7_closed_form_examples(self):
        increasing = [("a", 1, 10), ("b", 2, 20), ("c", 3, 30), ("d", 4, 40)]
        assert spearman(increasing) == pytest.approx(1.0, abs=1e-12)
        decreasing = [("a", 1, 40), ("b", 2, 30), ("c", 3, 20), ("d", 4, 10)]
        assert spearman(decreasing) == pytest.approx(-1.0, abs=1e-12)
        one_inversion = [("a", 1, 1), ("b", 2, 2), ("c", 3, 4), ("d", 4, 3)]
        assert kendall_tau_b(one_inversion) == pytest.approx(4.0 / 6.0, abs=1e-12)
        assert cohens_kappa(list("xxyy"), list("xyxy")) == pytest.approx(0.0, abs=1e-12)
        assert cohens_kappa(list("xxxy"), list("xxyy")) == pytest.approx(0.5, abs=1e-12)
        print("\nACCEPTANCE C7 (closed-form correlation/agreement examples exact): PASS")


def available_memory_gib() -> float:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / (1024**2)
    except OSError:
        pass
    return float("inf")


class TestC8Performance:
    def test_c8_knn_at_benchmark_scale(self):
        if available_memory_gib() < 6.0:
            pytest.skip("needs ~6 GiB free memory for the 500k x 768 training matrix")
        from xtrap.dataio import EmbeddingSet

        rng = np.random.default_rng(7)
        train_mat = rng.random((500_000, 768), dtype=np.float32) - np.float32(0.5)
        test_mat = rng.random((1_000, 768), dtype=np.float32) - np.float32(0.5)
        train = EmbeddingSet([f"t{i:06d}" for i in range(500_000)], train_mat)
        test = EmbeddingSet([f"q{i:04d}" for i in range(1_000)], test_mat)
        started = time.monotonic()
        index, scores = knn(test, train, 100)
        elapsed = time.monotonic() - started
        peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / GiB
        assert index.shape == scores.shape == (1_000, 100)
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        assert peak_gib < 4.0, f"peak RSS {peak_gib:.2f} GiB"
        print(f"\nACCEPTANCE C8 (500k x 1k x 768 kNN in {elapsed:.1f}s, peak {peak_gib:.2f} GiB): PASS")


class TestC9Smoke:
    def test_c9_pipeline_interpolation_beats_extrapolation(self, tmp_path):
        # the subprocess does not see pytest's pythonpath setting
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, str(Path(__file__).parent.parent / "scripts" / "synthetic_pipeline.py"),
             "--workdir", str(tmp_path / "smoke"), "--seed", "42"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        summary = {}
        for line in result.stdout.splitlines():
            match = re.match(r"(restrain|resttest) ndcg@10 interpolation ([\d.]+) extrapolation ([\d.]+)", line)
            if match:
                summary[match.group(1)] = (float(match.group(2)), float(match.group(3)))
        assert set(summary) == {"restrain", "resttest"}, result.stdout
        for pipeline, (inter, extra) in summary.items():
            assert inter >= extra, (pipeline, inter, extra)
        print(
            "\nACCEPTANCE C9 (planted-structure smoke: "
            f"restrain {summary['restrain'][0]:.3f}>={summary['restrain'][1]:.3f}, "
            f"resttest {summary['resttest'][0]:.3f}>={summary['resttest'][1]:.3f}): PASS"
        )
