import math

import pytest

import oracles
from xtrap.dataio import QrelSet, RunSet
from xtrap.metrics import MetricSpec, score_run, write_metric_report


def run_of(docs_scores):
    return RunSet({"q1": docs_scores})


def qrels_of(grades):
    return QrelSet.from_records([("q1", d, g) for d, g in grades.items()])


class TestMetricSpec:
    def test_defaults_by_kind(self):
        assert MetricSpec("mrr").cutoff == 10
        assert MetricSpec("ndcg").cutoff == 10
        assert MetricSpec("recall").cutoff == 100

    def test_labels(self):
        assert MetricSpec("ndcg").label == "ndcg@10"
        assert MetricSpec("recall", cutoff=50).label == "recall@50"

    def test_parse(self):
        assert MetricSpec.parse("mrr@10") == MetricSpec("mrr", 10)
        assert MetricSpec.parse("recall") == MetricSpec("recall", 100)
        with pytest.raises(ValueError):
            MetricSpec.parse("map@10")
        with pytest.raises(ValueError):
            MetricSpec.parse("mrr@x")

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricSpec("mrr", cutoff=0)
        with pytest.raises(ValueError):
            MetricSpec("ndcg", gain="cubic")
        with pytest.raises(ValueError):
            MetricSpec("mrr", rel_threshold=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=r"^unknown metric kind 'map'$"):
            MetricSpec("map")


class TestMrr:
    def test_first_ranked_relevant(self):
        report = score_run(run_of([("d1", 2.0), ("d2", 1.0)]), qrels_of({"d1": 1}), MetricSpec("mrr"))
        assert report.mean == 1.0

    def test_relevant_outside_cutoff_scores_zero(self):
        docs = [(f"d{i:02d}", 100.0 - i) for i in range(11)]
        report = score_run(run_of(docs), qrels_of({"d10": 1}), MetricSpec("mrr", cutoff=10))
        assert report.mean == 0.0

    def test_rank_four(self):
        docs = [("d1", 4.0), ("d2", 3.0), ("d3", 2.0), ("d4", 1.0)]
        report = score_run(run_of(docs), qrels_of({"d4": 1}), MetricSpec("mrr"))
        assert report.mean == 0.25

    def test_threshold_binarization(self):
        docs = [("d1", 2.0), ("d2", 1.0)]
        qrels = qrels_of({"d1": 1, "d2": 3})
        assert score_run(run_of(docs), qrels, MetricSpec("mrr", rel_threshold=2)).mean == 0.5

    def test_query_without_qrels_is_skipped(self):
        run = RunSet({"q1": [("d1", 1.0)], "q2": [("d1", 1.0)]})
        report = score_run(run, qrels_of({"d1": 1}), MetricSpec("mrr"))
        assert report.skipped_ids == ["q2"]
        assert report.evaluated_count == 1


class TestNdcg:
    def test_ideal_ranking_is_one(self):
        docs = [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)]
        report = score_run(run_of(docs), qrels_of({"d1": 3, "d2": 2, "d3": 1}), MetricSpec("ndcg"))
        assert report.mean == pytest.approx(1.0, abs=1e-12)

    def test_hand_linear(self):
        report = score_run(run_of([("d2", 2.0), ("d1", 1.0)]), qrels_of({"d1": 3, "d2": 1}), MetricSpec("ndcg"))
        want = (1.0 + 3.0 / math.log2(3)) / (3.0 + 1.0 / math.log2(3))
        assert report.mean == pytest.approx(want, abs=1e-12)

    def test_hand_exponential(self):
        spec = MetricSpec("ndcg", gain="exponential")
        report = score_run(run_of([("d2", 2.0), ("d1", 1.0)]), qrels_of({"d1": 3, "d2": 1}), spec)
        want = (1.0 + 7.0 / math.log2(3)) / (7.0 + 1.0 / math.log2(3))
        assert report.mean == pytest.approx(want, abs=1e-12)

    def test_idcg_zero_counts_as_zero(self, caplog):
        with caplog.at_level("WARNING"):
            report = score_run(run_of([("d1", 1.0)]), qrels_of({"d1": 0}), MetricSpec("ndcg"))
        assert report.per_query == {"q1": 0.0}
        assert report.evaluated_count == 1
        assert any("zero ideal DCG" in r.message for r in caplog.records)

    @pytest.mark.parametrize("kind", ["mrr", "ndcg", "recall"])
    def test_zero_ideal_dcg_counted_from_the_grades(self, caplog, kind):
        # q2 grades only 0, q3 is judged with no docs at all
        qrels = QrelSet({"q1": {"d1": 1}, "q2": {"d1": 0, "d2": 0}, "q3": {}, "q4": {"d2": 2}})
        run = RunSet({q: [("d1", 2.0), ("d2", 1.0)] for q in ("q1", "q2", "q3", "q4")})
        with caplog.at_level("WARNING"):
            report = score_run(run, qrels, MetricSpec(kind))
        messages = [r.getMessage() for r in caplog.records]
        if kind == "ndcg":
            assert messages == ["ndcg@10: 2 queries have zero ideal DCG; scored 0"]
            assert report.per_query["q2"] == report.per_query["q3"] == 0.0
        else:
            assert not any("zero ideal DCG" in m for m in messages)


class TestRecall:
    def test_all_inside_cutoff(self):
        docs = [("d1", 2.0), ("d2", 1.0)]
        report = score_run(run_of(docs), qrels_of({"d1": 1, "d2": 1}), MetricSpec("recall"))
        assert report.mean == 1.0

    def test_half_retrieved(self):
        report = score_run(run_of([("d1", 1.0)]), qrels_of({"d1": 1, "dX": 2}), MetricSpec("recall"))
        assert report.mean == 0.5

    def test_zero_relevant_skipped(self):
        report = score_run(run_of([("d1", 1.0)]), qrels_of({"d1": 0}), MetricSpec("recall"))
        assert report.skipped_ids == ["q1"]
        assert report.evaluated_count == 0
        assert report.mean == 0.0

    def test_cutoff_applies(self):
        docs = [(f"d{i:03d}", 1000.0 - i) for i in range(120)]
        qrels = qrels_of({"d000": 1, "d110": 1})
        report = score_run(run_of(docs), qrels, MetricSpec("recall", cutoff=100))
        assert report.mean == 0.5


def random_instance(rng, n_queries=10):
    """A run + qrels pair with <=20 docs and grades 0-3 per query."""
    rankings = {}
    records = []
    for qi in range(n_queries):
        qid = f"q{qi:03d}"
        n_docs = int(rng.integers(1, 21))
        docs = [f"d{j:02d}" for j in range(n_docs)]
        scores = rng.normal(size=n_docs)
        rankings[qid] = [(d, float(s)) for d, s in zip(docs, scores)]
        for d in docs:
            if rng.random() < 0.7:
                records.append((qid, d, int(rng.integers(0, 4))))
        # some judged docs missing from the run
        if rng.random() < 0.5:
            records.append((qid, "dZZ", int(rng.integers(0, 4))))
    return RunSet(rankings), QrelSet.from_records(records)


def oracle_report(run, qrels, spec):
    values = {}
    skipped = []
    for qid in run.query_ids():
        if not qrels.has_query(qid):
            skipped.append(qid)
            continue
        grades = qrels.docs(qid)
        ranked = oracles.rank_docs(run.ranking(qid))
        if spec.kind == "mrr":
            values[qid] = oracles.mrr_at(ranked, grades, spec.cutoff, spec.rel_threshold)
        elif spec.kind == "ndcg":
            values[qid] = oracles.ndcg_at(ranked, grades, spec.cutoff, spec.gain)
        else:
            v = oracles.recall_at(ranked, grades, spec.cutoff, spec.rel_threshold)
            if v is None:
                skipped.append(qid)
            else:
                values[qid] = v
    return values, skipped


ALL_SPECS = [
    MetricSpec("mrr", 10),
    MetricSpec("ndcg", 10),
    MetricSpec("ndcg", 10, gain="exponential"),
    MetricSpec("recall", 100),
    MetricSpec("mrr", 10, rel_threshold=2),
    MetricSpec("recall", 5, rel_threshold=2),
]


class TestOracleEquivalence:
    def test_random_instances_match_oracle(self, rng):
        for trial in range(30):
            run, qrels = random_instance(rng)
            for spec in ALL_SPECS:
                report = score_run(run, qrels, spec)
                want_values, want_skipped = oracle_report(run, qrels, spec)
                assert set(report.per_query) == set(want_values)
                for qid, want in want_values.items():
                    assert report.per_query[qid] == pytest.approx(want, abs=1e-9)
                assert sorted(report.skipped_ids) == sorted(want_skipped)


class TestProperties:
    def test_values_within_unit_interval(self, rng):
        for _ in range(10):
            run, qrels = random_instance(rng, n_queries=5)
            for spec in ALL_SPECS:
                report = score_run(run, qrels, spec)
                assert 0.0 <= report.mean <= 1.0
                assert all(0.0 <= v <= 1.0 for v in report.per_query.values())

    def test_permutation_invariance(self, rng):
        run, qrels = random_instance(rng, n_queries=6)
        base = [score_run(run, qrels, s).per_query for s in ALL_SPECS]
        for _ in range(5):
            shuffled = {}
            for qid in run.query_ids():
                entries = list(run.ranking(qid))
                rng.shuffle(entries)
                shuffled[qid] = entries
            other = RunSet(shuffled)
            got = [score_run(other, qrels, s).per_query for s in ALL_SPECS]
            assert got == base

    def test_swapping_relevant_upward_never_hurts(self, rng):
        spec_m = MetricSpec("mrr")
        spec_n = MetricSpec("ndcg")
        for _ in range(30):
            n = int(rng.integers(3, 12))
            docs = [f"d{i:02d}" for i in range(n)]
            grades = {d: int(rng.integers(0, 4)) for d in docs}
            scores = sorted(rng.normal(size=n), reverse=True)
            order = list(docs)
            rel_positions = [i for i in range(1, n) if grades[order[i]] >= 1 and grades[order[i - 1]] == 0]
            if not rel_positions:
                continue
            i = rel_positions[0]
            swapped = list(order)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            qrels = QrelSet.from_records([("q1", d, g) for d, g in grades.items()])
            before = RunSet({"q1": list(zip(order, scores))})
            after = RunSet({"q1": list(zip(swapped, scores))})
            assert score_run(after, qrels, spec_m).mean >= score_run(before, qrels, spec_m).mean
            assert score_run(after, qrels, spec_n).mean >= score_run(before, qrels, spec_n).mean


class TestReportSerialization:
    def test_tsv_shape(self, tmp_path):
        run = RunSet({"q2": [("d1", 1.0)], "q1": [("d1", 1.0)]})
        qrels = QrelSet.from_records([("q1", "d1", 1), ("q2", "d2", 1)])
        report = score_run(run, qrels, MetricSpec("mrr"))
        out = tmp_path / "report.tsv"
        write_metric_report(report, out)
        lines = out.read_text().splitlines()
        assert lines == ["mrr@10\tq1\t1.0000", "mrr@10\tq2\t0.0000", "mrr@10\tALL\t0.5000"]
