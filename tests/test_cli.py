import os
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, make_embeddings
from xtrap import cli, resample
from xtrap.dataio import read_embeddings, write_embeddings, write_run, RunSet
from xtrap.resample import read_manifest


def write(path, text):
    path.write_text(text)
    return str(path)


def emb_file(tmp_path, name, ids, matrix, format="binary"):
    path = tmp_path / name
    write_embeddings(make_embeddings(ids, matrix), path, format=format)
    return str(path)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["eval", "--no-such-flag"])
        assert exc.value.code == 1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([])
        assert exc.value.code == 1

    def test_missing_file_is_data_error(self, tmp_path):
        rc = cli.main(
            ["eval", "--run", str(tmp_path / "nope"), "--qrels", str(tmp_path / "nope2"),
             "--metric", "mrr@10", "-o", str(tmp_path / "out")]
        )
        assert rc == 2

    def test_parse_error_is_data_error(self, tmp_path):
        run = write(tmp_path / "run.txt", "garbage line\n")
        qrels = write(tmp_path / "q.txt", "q1 0 d1 1\n")
        rc = cli.main(["eval", "--run", run, "--qrels", qrels, "--metric", "mrr@10",
                       "-o", str(tmp_path / "out")])
        assert rc == 2

    def test_bad_metric_is_usage_error(self, tmp_path):
        run = write(tmp_path / "run.txt", "q1 Q0 d1 1 1.0 t\n")
        qrels = write(tmp_path / "q.txt", "q1 0 d1 1\n")
        rc = cli.main(["eval", "--run", run, "--qrels", qrels, "--metric", "map@10",
                       "-o", str(tmp_path / "out")])
        assert rc == 1

    def test_help_exits_zero_and_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["restrain", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--regime", "--train-queries", "--test-queries", "--train-emb",
                     "--test-emb", "-E", "--size", "--seed", "--measure",
                     "-o", "-v", "-q"):
            assert flag in out


def test_threads_flag_is_usage_error(tmp_path):
    test = emb_file(tmp_path, "test.evec", ["q"], [[1.0, 0.0]])
    train = emb_file(tmp_path, "train.evec", ["a"], [[1.0, 0.0]])
    with pytest.raises(SystemExit) as exc:
        cli.main(["knn", "--test-emb", test, "--train-emb", train, "-k", "1",
                  "-o", str(tmp_path / "out"), "--threads", "2"])
    assert exc.value.code == 1


def test_emb_format_flag_is_usage_error(tmp_path):
    test = emb_file(tmp_path, "test.evec", ["q"], [[1.0, 0.0]])
    train = emb_file(tmp_path, "train.evec", ["a"], [[1.0, 0.0]])
    with pytest.raises(SystemExit) as exc:
        cli.main(["knn", "--test-emb", test, "--train-emb", train, "-k", "1",
                  "-o", str(tmp_path / "out"), "--emb-format", "binary"])
    assert exc.value.code == 1


class TestEval:
    def test_spec_example_output(self, tmp_path, capsys):
        run = write(tmp_path / "run.txt", "q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\n")
        qrels = write(tmp_path / "qrels.txt", "q1 0 d1 1\n")
        out = tmp_path / "report.tsv"
        assert cli.main(["eval", "--run", run, "--qrels", qrels, "--metric", "mrr@10",
                         "-o", str(out)]) == 0
        assert out.read_text().endswith("mrr@10\tALL\t1.0000\n")
        assert "mean over 1 queries: 1.0000" in capsys.readouterr().out

    def test_gain_and_threshold_flags(self, tmp_path):
        run = write(tmp_path / "run.txt", "q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\n")
        qrels = write(tmp_path / "qrels.txt", "q1 0 d1 1\nq1 0 d2 3\n")
        out = tmp_path / "report.tsv"
        assert cli.main(["eval", "--run", run, "--qrels", qrels, "--metric", "mrr@10",
                         "--rel-threshold", "2", "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "mrr@10\tq1\t0.5000"
        assert cli.main(["eval", "--run", run, "--qrels", qrels, "--metric", "ndcg@10",
                         "--gain", "exponential", "-o", str(out)]) == 0


class TestKnnAndCandidates:
    def test_knn_tsv(self, tmp_path, capsys):
        train = emb_file(tmp_path, "train.evec", ["a", "b"], [[1, 0], [0, 1]])
        test = emb_file(tmp_path, "test.evec", ["q"], [[1, 0]])
        out = tmp_path / "nn.tsv"
        assert cli.main(["knn", "--test-emb", test, "--train-emb", train, "-k", "2",
                         "-o", str(out)]) == 0
        assert out.read_text() == "q\t1\ta\t1\nq\t2\tb\t0\n"

    def test_knn_tsv_embeddings_sniffed(self, tmp_path):
        train = emb_file(tmp_path, "train.tsv", ["a", "b"], [[1, 0], [0, 1]], format="tsv")
        test = emb_file(tmp_path, "test.tsv", ["q"], [[1, 0]], format="tsv")
        out = tmp_path / "nn.tsv"
        assert cli.main(["knn", "--test-emb", test, "--train-emb", train, "-k", "1",
                         "-o", str(out)]) == 0
        assert out.read_text().startswith("q\t1\ta\t")

    def test_candidates(self, tmp_path):
        train_q = write(tmp_path / "train.tsv", "t1\tred fox\nt2\tblue whale\n")
        test_q = write(tmp_path / "test.tsv", "q\tred fox\n")
        train = emb_file(tmp_path, "train.evec", ["t1", "t2"], [[1, 0], [0, 1]])
        test = emb_file(tmp_path, "test.evec", ["q"], [[0, 1]])
        out = tmp_path / "cand.tsv"
        assert cli.main(["candidates", "--test-queries", test_q, "--train-queries", train_q,
                         "--test-emb", test, "--train-emb", train, "--per-channel", "1",
                         "-o", str(out)]) == 0
        assert out.read_text() == "q\t1\tt2\nq\t2\tt1\n"


def restrain_inputs(tmp_path, rng, n_train=40, n_test=4, dim=4):
    train_ids = [f"t{i:02d}" for i in range(n_train)]
    test_ids = [f"q{i}" for i in range(n_test)]
    files = {
        "train_q": write(tmp_path / "train_q.tsv", "".join(f"{i}\ttext {i}\n" for i in train_ids)),
        "test_q": write(tmp_path / "test_q.tsv", "".join(f"{i}\ttext {i}\n" for i in test_ids)),
        "train_e": emb_file(tmp_path, "train.evec", train_ids, rng.normal(size=(n_train, dim))),
        "test_e": emb_file(tmp_path, "test.evec", test_ids, rng.normal(size=(n_test, dim))),
    }
    return files


class TestRestrainCli:
    def test_identical_invocations_byte_identical(self, tmp_path, rng):
        files = restrain_inputs(tmp_path, rng)
        outs = []
        for name in ("m1.txt", "m2.txt"):
            out = tmp_path / name
            assert cli.main(["restrain", "--regime", "extra",
                             "--train-queries", files["train_q"], "--test-queries", files["test_q"],
                             "--train-emb", files["train_e"], "--test-emb", files["test_e"],
                             "-E", "2", "--size", "10", "--seed", "7", "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_depth_defaults_mirror(self, tmp_path, rng):
        files = restrain_inputs(tmp_path, rng)
        out = tmp_path / "m.txt"
        assert cli.main(["restrain", "--regime", "inter",
                         "--train-queries", files["train_q"], "--test-queries", files["test_q"],
                         "--train-emb", files["train_e"], "--test-emb", files["test_e"],
                         "-E", "3", "--size", "12", "-o", str(out)]) == 0
        split = read_manifest(out)
        assert split.provenance["exclude_depth"] == "3"
        assert "include_depth" not in split.provenance
        assert "#include_depth=" not in out.read_text()

    def test_include_depth_flag_is_usage_error(self, tmp_path, rng):
        files = restrain_inputs(tmp_path, rng)
        with pytest.raises(SystemExit) as exc:
            cli.main(["restrain", "--regime", "inter",
                      "--train-queries", files["train_q"], "--test-queries", files["test_q"],
                      "--train-emb", files["train_e"], "--test-emb", files["test_e"],
                      "-I", "3", "--size", "12", "-o", str(tmp_path / "m.txt")])
        assert exc.value.code == 1

    def test_empty_training_set_is_data_error(self, tmp_path, rng, capsys):
        files = restrain_inputs(tmp_path, rng)
        empty = write(tmp_path / "empty.tsv", "")
        for regime in ("inter", "extra"):
            rc = cli.main(["restrain", "--regime", regime,
                           "--train-queries", empty, "--test-queries", files["test_q"],
                           "--train-emb", files["train_e"], "--test-emb", files["test_e"],
                           "-E", "2", "--size", "1", "-o", str(tmp_path / "m.txt")])
            assert rc == 2
            assert "xtrap: data error:" in capsys.readouterr().err

    def test_infeasible_size_is_data_error(self, tmp_path, rng):
        files = restrain_inputs(tmp_path, rng)
        rc = cli.main(["restrain", "--regime", "extra",
                       "--train-queries", files["train_q"], "--test-queries", files["test_q"],
                       "--train-emb", files["train_e"], "--test-emb", files["test_e"],
                       "-E", "40", "--size", "10", "-o", str(tmp_path / "m.txt")])
        assert rc == 2


class TestResttestAndAggregate:
    def test_pipeline(self, tmp_path, rng):
        files = restrain_inputs(tmp_path, rng, n_train=30, n_test=6)
        manifest = tmp_path / "folds.txt"
        assert cli.main(["resttest",
                         "--train-queries", files["train_q"], "--test-queries", files["test_q"],
                         "--train-emb", files["train_e"], "--test-emb", files["test_e"],
                         "-k", "3", "--seed", "5", "-o", str(manifest)]) == 0
        folds = read_manifest(manifest)
        assert folds.k == 3

        qrels_lines = []
        run_paths = []
        test_ids = folds.test_ids
        for qid in test_ids:
            qrels_lines.append(f"{qid} 0 rel-{qid} 1\n")
        qrels = write(tmp_path / "qrels.txt", "".join(qrels_lines))
        for fold in range(3):
            rankings = {qid: [(f"rel-{qid}", 2.0), ("junk", 1.0)] for qid in test_ids}
            path = tmp_path / f"run{fold}.txt"
            write_run(RunSet(rankings), path)
            run_paths.append(str(path))
        out = tmp_path / "agg.tsv"
        assert cli.main(["aggregate", "--manifest", str(manifest), "--qrels", qrels,
                         "--runs", *run_paths, "--metric", "mrr@10", "-o", str(out)]) == 0
        assert out.read_text().endswith("mrr@10\tALL\t1.0000\t1.0000\n")

    def test_aggregate_rejects_split_manifest(self, tmp_path, rng):
        files = restrain_inputs(tmp_path, rng)
        manifest = tmp_path / "split.txt"
        assert cli.main(["restrain", "--regime", "inter",
                         "--train-queries", files["train_q"], "--test-queries", files["test_q"],
                         "--train-emb", files["train_e"], "--test-emb", files["test_e"],
                         "--size", "10", "-o", str(manifest)]) == 0
        qrels = write(tmp_path / "qrels.txt", "q0 0 d1 1\n")
        rc = cli.main(["aggregate", "--manifest", str(manifest), "--qrels", qrels,
                       "--runs", qrels, "--metric", "mrr@10", "-o", str(tmp_path / "o")])
        assert rc == 2

    def test_aggregate_counts_runs_before_reading_any(self, tmp_path, capsys):
        manifest = write(tmp_path / "folds.txt", "#regime=resttest\n#k=2\n[training]\n[bucket 0]\nq0\n[bucket 1]\n")
        qrels = write(tmp_path / "qrels.txt", "q0 0 d1 1\n")
        missing = str(tmp_path / "no-such-run")
        rc = cli.main(["aggregate", "--manifest", manifest, "--qrels", qrels,
                       "--runs", missing, missing, missing, "--metric", "mrr@10", "-o", str(tmp_path / "o")])
        assert rc == 2
        assert "expected 2 fold runs, got 3" in capsys.readouterr().err

    def test_unexpected_bucket_section_is_data_error(self, tmp_path, capsys):
        manifest = write(tmp_path / "folds.txt",
                         "#regime=resttest\n#k=2\n[training]\n[bucket 0]\nq0\n[bucket 1]\nq1\n[bucket 2]\nq2\n")
        qrels = write(tmp_path / "qrels.txt", "q0 0 d1 1\nq1 0 d1 1\nq2 0 d1 1\n")
        rc = cli.main(["aggregate", "--manifest", manifest, "--qrels", qrels,
                       "--runs", qrels, qrels, "--metric", "mrr@10", "-o", str(tmp_path / "o")])
        assert rc == 2
        assert f"{manifest}:8: unexpected section [bucket 2] for #regime=resttest" in capsys.readouterr().err

    def test_invalid_utf8_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "folds.txt"
        manifest.write_bytes(b"#regime=resttest\n#k=2\n[training]\n\xff\n")
        qrels = write(tmp_path / "qrels.txt", "q0 0 d1 1\n")
        rc = cli.main(["aggregate", "--manifest", str(manifest), "--qrels", qrels,
                       "--runs", qrels, qrels, "--metric", "mrr@10", "-o", str(tmp_path / "o")])
        assert rc == 2
        assert f"{manifest}:4: invalid UTF-8" in capsys.readouterr().err

    def test_kmeans_inertia_increase_is_data_error(self, tmp_path, rng, monkeypatch, capsys):
        # each distance computation returns ten times larger distances than the last
        real = resample._sq_distances
        calls = []

        def growing(X, rows, centroids, cols):
            calls.append(None)
            return real(X, rows, centroids, cols) * 10.0 ** len(calls)

        monkeypatch.setattr(resample, "_sq_distances", growing)
        files = restrain_inputs(tmp_path, rng, n_train=30, n_test=6)
        rc = cli.main(["resttest",
                       "--train-queries", files["train_q"], "--test-queries", files["test_q"],
                       "--train-emb", files["train_e"], "--test-emb", files["test_e"],
                       "-k", "3", "--seed", "5", "-o", str(tmp_path / "folds.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error: k-means inertia increased at iteration 1" in err
        assert "Traceback" not in err

    def test_nan_tol_is_usage_error(self, tmp_path, rng, capsys):
        files = restrain_inputs(tmp_path, rng)
        out = tmp_path / "folds.txt"
        assert run_resample(RESAMPLE_RUNS["resttest"] + ["--tol", "nan"], files, out) == 1
        assert "xtrap: error: tol must be >= 0" in capsys.readouterr().err
        assert not out.exists()


RESAMPLE_RUNS = {
    "restrain-inter": ["restrain", "--regime", "inter", "--size", "5"],
    "restrain-extra": ["restrain", "--regime", "extra", "-E", "1", "--size", "5"],
    "resttest": ["resttest", "-k", "3", "--seed", "5"],
    "candidates": ["candidates", "--per-channel", "3"],
}


def run_resample(command, files, out):
    return cli.main([*command, "--train-queries", files["train_q"], "--test-queries", files["test_q"],
                     "--train-emb", files["train_e"], "--test-emb", files["test_e"], "-o", str(out)])


@pytest.mark.parametrize("name", RESAMPLE_RUNS)
def test_resampling_rejects_shared_id(tmp_path, rng, capsys, name):
    # t00 is both a training and a test query. As a training query it is the
    # farthest from both test vectors, and the default seed's size-5 sample
    # leaves it out, so no split would contain it: the inputs must be rejected.
    # candidates must not list the test query t00 in its own pool either
    files = restrain_inputs(tmp_path, rng, n_train=30, dim=2)
    train_matrix = np.vstack([[-10.0, 0.0], [1.0, 0.0] + 0.1 * rng.normal(size=(29, 2))])
    files["train_e"] = emb_file(tmp_path, "train.evec", [f"t{i:02d}" for i in range(30)], train_matrix)
    files["test_q"] = write(tmp_path / "test_q.tsv", "t00\ttext t00\nq1\ttext q1\n")
    files["test_e"] = emb_file(tmp_path, "test.evec", ["t00", "q1"], [[1.0, 0.1], [1.0, -0.1]])
    assert run_resample(RESAMPLE_RUNS[name], files, tmp_path / "out") == 2
    assert "xtrap: data error: train and test query ids overlap: ['t00']" in capsys.readouterr().err


@pytest.mark.parametrize("name", RESAMPLE_RUNS)
def test_resampling_rejects_empty_test_set(tmp_path, rng, capsys, name):
    files = restrain_inputs(tmp_path, rng)
    files["test_q"] = write(tmp_path / "empty.tsv", "")
    assert run_resample(RESAMPLE_RUNS[name], files, tmp_path / "out") == 2
    assert "xtrap: data error: test set is empty" in capsys.readouterr().err


@pytest.mark.parametrize("name", RESAMPLE_RUNS)
def test_embedding_files_are_aligned_with_query_files(tmp_path, rng, capsys, name):
    files = restrain_inputs(tmp_path, rng)
    aligned = tmp_path / "aligned.out"
    assert run_resample(RESAMPLE_RUNS[name], files, aligned) == 0
    # rows out of query order, plus an id that no query names
    for key in ("train_e", "test_e"):
        emb = read_embeddings(files[key])
        order = rng.permutation(len(emb))
        ids = [emb.ids[i] for i in order] + [f"x-{key}"]
        files[key] = emb_file(tmp_path, f"shuffled-{key}.evec", ids, np.vstack([emb.matrix[order], np.ones(4)]))
    shuffled = tmp_path / "shuffled.out"
    assert run_resample(RESAMPLE_RUNS[name], files, shuffled) == 0
    assert shuffled.read_bytes() == aligned.read_bytes()

    emb = read_embeddings(files["test_e"])
    kept = [i for i in emb.ids if i != "q2"]
    files["test_e"] = emb_file(tmp_path, "missing.evec", kept, np.vstack([emb.vector(i) for i in kept]))
    capsys.readouterr()
    assert run_resample(RESAMPLE_RUNS[name], files, tmp_path / "missing.out") == 2
    assert "xtrap: data error: no embedding for id q2" in capsys.readouterr().err


class TestOverlapCli:
    def test_fixture_reproduces_published_rows(self, tmp_path, capsys):
        out = tmp_path / "overlap.tsv"
        assert cli.main(["overlap",
                         "--test-qrels", str(FIXTURES / "trec19-fixture.qrels"),
                         "--train-qrels", str(FIXTURES / "train-fixture.qrels"),
                         "--thresholds", "geq:1,geq:2,eq:3", "-o", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        percents = {row[0]: float(row[3]) for row in rows}
        assert percents["geq:1"] == pytest.approx(79.0, abs=2.0)
        assert percents["geq:2"] == pytest.approx(60.0, abs=2.0)
        assert percents["eq:3"] == pytest.approx(26.0, abs=2.0)

    def test_custom_thresholds(self, tmp_path):
        test = write(tmp_path / "t.qrels", "q1 0 a 3\nq2 0 b 1\n")
        train = write(tmp_path / "tr.qrels", "x 0 a 1\n")
        out = tmp_path / "o.tsv"
        assert cli.main(["overlap", "--test-qrels", test, "--train-qrels", train,
                         "--thresholds", "eq:1,geq:3", "-o", str(out)]) == 0
        assert out.read_text() == "eq:1\t0\t2\t0.00\ngeq:3\t1\t2\t50.00\n"


class TestCorrelateCli:
    def test_both_methods(self, tmp_path):
        pairs = write(tmp_path / "pairs.tsv", "a\t1\t1\nb\t2\t2\nc\t3\t4\nd\t4\t3\n")
        out = tmp_path / "corr.tsv"
        assert cli.main(["correlate", "--pairs", pairs, "--method", "both", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "spearman\t0.8000"
        assert lines[1] == "kendall\t0.6667"

    def test_degenerate_input_is_data_error(self, tmp_path):
        pairs = write(tmp_path / "pairs.tsv", "a\t1\t5\nb\t2\t5\n")
        rc = cli.main(["correlate", "--pairs", pairs, "--method", "spearman",
                       "-o", str(tmp_path / "o")])
        assert rc == 2


class TestKappaCli:
    def test_three_raters_pairwise_and_mean(self, tmp_path):
        a = write(tmp_path / "a.tsv", "i1\tx\ni2\tx\ni3\tx\ni4\ty\n")
        b = write(tmp_path / "b.tsv", "i1\tx\ni2\tx\ni3\ty\ni4\ty\n")
        c = write(tmp_path / "c.tsv", "i1\tx\ni2\tx\ni3\tx\ni4\ty\n")
        out = tmp_path / "kappa.tsv"
        assert cli.main(["kappa", "--labels", a, b, c, "-o", str(out)]) == 0
        lines = dict(line.split("\t") for line in out.read_text().splitlines())
        assert lines["rater1-rater2"] == "0.5000"
        assert lines["rater1-rater3"] == "1.0000"
        assert lines["rater2-rater3"] == "0.5000"
        assert lines["mean"] == "0.6667"

    def test_mismatched_items_is_data_error(self, tmp_path):
        a = write(tmp_path / "a.tsv", "i1\tx\n")
        b = write(tmp_path / "b.tsv", "i2\tx\n")
        rc = cli.main(["kappa", "--labels", a, b, "-o", str(tmp_path / "o")])
        assert rc == 2

    def test_wrong_file_count_is_usage_error(self, tmp_path):
        a = write(tmp_path / "a.tsv", "i1\tx\n")
        rc = cli.main(["kappa", "--labels", a, "-o", str(tmp_path / "o")])
        assert rc == 1


class TestPcaCli:
    def test_projection_with_manifest_groups(self, tmp_path, rng):
        files = restrain_inputs(tmp_path, rng, n_train=20, n_test=3)
        manifest = tmp_path / "m.txt"
        assert cli.main(["restrain", "--regime", "inter",
                         "--train-queries", files["train_q"], "--test-queries", files["test_q"],
                         "--train-emb", files["train_e"], "--test-emb", files["test_e"],
                         "--size", "8", "-o", str(manifest)]) == 0
        both = tmp_path / "both.evec"
        train_ids = [f"t{i:02d}" for i in range(20)]
        test_ids = [f"q{i}" for i in range(3)]
        write_embeddings(
            make_embeddings(train_ids + test_ids, rng.normal(size=(23, 4))), both
        )
        out = tmp_path / "pca.tsv"
        assert cli.main(["pca", "--emb", str(both), "--manifest", str(manifest),
                         "-o", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert len(rows) == 23
        groups = {row[0]: row[3] for row in rows}
        split = read_manifest(manifest)
        for tid in split.training_ids:
            assert groups[tid] == "train-inter"
        for qid in split.test_ids:
            assert groups[qid] == "test"
        ungrouped = set(train_ids) - set(split.training_ids)
        assert all(groups[u] == "none" for u in ungrouped)

    def test_projection_without_manifest(self, tmp_path, rng):
        emb = emb_file(tmp_path, "e.evec", ["a", "b", "c"], rng.normal(size=(3, 3)))
        out = tmp_path / "pca.tsv"
        assert cli.main(["pca", "--emb", emb, "-o", str(out)]) == 0
        for line in out.read_text().splitlines():
            assert line.endswith("\tnone")

    def test_fold_manifest_groups_by_bucket(self, tmp_path, rng):
        files = restrain_inputs(tmp_path, rng, n_train=12, n_test=4)
        manifest = tmp_path / "folds.txt"
        assert cli.main(["resttest",
                         "--train-queries", files["train_q"], "--test-queries", files["test_q"],
                         "--train-emb", files["train_e"], "--test-emb", files["test_e"],
                         "-k", "2", "--seed", "3", "-o", str(manifest)]) == 0
        out = tmp_path / "pca.tsv"
        assert cli.main(["pca", "--emb", files["train_e"], "--manifest", str(manifest),
                         "-o", str(out)]) == 0
        folds = read_manifest(manifest)
        groups = {row.split("\t")[0]: row.split("\t")[3] for row in out.read_text().splitlines()}
        for eid, bucket in folds.bucket_of.items():
            if eid in groups:
                assert groups[eid] == f"bucket-{bucket}"

    @pytest.mark.parametrize("section", ["test-extrapolation", "bogus"])
    def test_unexpected_split_section_is_data_error(self, tmp_path, rng, capsys, section):
        emb = emb_file(tmp_path, "e.evec", ["t1", "q1"], rng.normal(size=(2, 3)))
        manifest = write(tmp_path / "m.txt", "#regime=interpolation\n#seed=1\n[training]\nt1\n"
                         f"[test-interpolation]\nq1\n[{section}]\nt2\n")
        assert cli.main(["pca", "--emb", emb, "--manifest", manifest, "-o", str(tmp_path / "pca.tsv")]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:7: unexpected section [{section}] for #regime=interpolation" in err

    def test_manifest_with_include_depth_header_still_reads(self, tmp_path, rng):
        # manifests written before -I was removed carry an #include_depth header
        emb = emb_file(tmp_path, "e.evec", ["t1", "t2", "q1"], rng.normal(size=(3, 3)))
        manifest = write(tmp_path / "m.txt", "#regime=interpolation\n#seed=42\n#exclude_depth=1\n"
                         "#include_depth=1\n#measure=inner_product\n#rng=pcg64\n#target_size=1\n"
                         "[training]\nt1\n[test-interpolation]\nq1\n")
        split = read_manifest(manifest)
        assert split.training_ids == ("t1",) and split.test_ids == ("q1",)
        assert split.provenance["include_depth"] == "1"
        out = tmp_path / "pca.tsv"
        assert cli.main(["pca", "--emb", emb, "--manifest", manifest, "-o", str(out)]) == 0
        groups = {row.split("\t")[0]: row.split("\t")[3] for row in out.read_text().splitlines()}
        assert groups == {"t1": "train-inter", "t2": "none", "q1": "test"}

    def test_huge_evec_count_is_data_error(self, tmp_path, capsys):
        emb = tmp_path / "huge.evec"
        emb.write_bytes(b"EVEC" + struct.pack("<IQI", 1, 2**40, 768) + bytes(64))
        assert cli.main(["pca", "--emb", str(emb), "-o", str(tmp_path / "pca.tsv")]) == 2
        assert f"{emb}: offset 8: count 1099511627776" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_tsv_embeddings_from_a_named_pipe(self, tmp_path):
        # a pipe is read once: the format is sniffed from the file the TSV
        # is then parsed from, not from a second open that waits forever
        fifo = tmp_path / "emb.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w") as f:
                f.write("a\t1 0 0\nb\t0 2 0\nc\t0 0 3\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        out = tmp_path / "pca.tsv"
        try:
            result = subprocess.run(
                [sys.executable, "-m", "xtrap", "pca", "--emb", str(fifo), "-o", str(out)],
                capture_output=True, text=True, env=_subprocess_env(), timeout=30,
            )
        finally:
            # release the writer if the command never opened the pipe
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert result.returncode == 0, result.stderr
        assert [line.split("\t")[0] for line in out.read_text().splitlines()] == ["a", "b", "c"]


class TestOutputPath:
    def test_symlink_output_written_through(self, tmp_path):
        pairs = write(tmp_path / "p.tsv", "a\t1\t2\nb\t2\t3\nc\t3\t1\n")
        real = tmp_path / "real.tsv"
        real.write_text("old\n")
        link = tmp_path / "link.tsv"
        link.symlink_to(real)
        assert cli.main(["correlate", "--pairs", pairs, "-o", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == real.resolve()
        assert real.read_text() == "spearman\t-0.5000\nkendall\t-0.3333\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tsv", "p.tsv", "real.tsv"]

    def test_missing_output_directory_names_output(self, tmp_path, capsys):
        pairs = write(tmp_path / "p.tsv", "a\t1\t2\nb\t2\t3\n")
        out = tmp_path / "no-such-dir" / "corr.tsv"
        assert cli.main(["correlate", "--pairs", pairs, "-o", str(out)]) == 2
        assert f"No such file or directory: '{out}'" in capsys.readouterr().err


def _subprocess_env() -> dict[str, str]:
    # the subprocess does not see pytest's pythonpath setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "xtrap", "--help"], capture_output=True, text=True, env=_subprocess_env()
    )
    assert result.returncode == 0
    assert "COMMAND" in result.stdout


# records the BLAS idle setting at the moment `import xtrap` first asks for numpy
_NUMPY_IMPORT_PROBE = """
import os, sys

class Probe:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Probe())
import xtrap
print(Probe.seen)
"""


def _env_with_blas_timeout(timeout: str | None) -> dict[str, str]:
    env = _subprocess_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)  # set in this process by its own `import xtrap`
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    return env


@pytest.mark.parametrize("exported, expected", [(None, "20"), ("8", "8")])
def test_blas_idle_default_set_before_numpy_loads(exported, expected):
    # OpenBLAS reads the variable once, when numpy loads it
    result = subprocess.run([sys.executable, "-c", _NUMPY_IMPORT_PROBE], capture_output=True,
                            text=True, env=_env_with_blas_timeout(exported), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr([expected])


def test_blas_idle_setting_changes_no_output(tmp_path):
    rng = np.random.default_rng(5)
    files = restrain_inputs(tmp_path, rng, n_train=2000, n_test=50, dim=64)
    commands = {
        "knn.tsv": ["knn", "--test-emb", files["test_e"], "--train-emb", files["train_e"], "-k", "10"],
        "folds.manifest": ["resttest", "--train-queries", files["train_q"], "--test-queries",
                           files["test_q"], "--train-emb", files["train_e"], "--test-emb",
                           files["test_e"], "-k", "5", "--seed", "3"],
        "pca.tsv": ["pca", "--emb", files["train_e"], "--manifest", "{out}/folds.manifest"],
    }
    outputs = []
    for timeout in ("28", None):  # OpenBLAS's own default, then xtrap's
        env = _env_with_blas_timeout(timeout)
        out = tmp_path / f"out-{timeout}"
        out.mkdir()
        for name, argv in commands.items():
            argv = [arg.format(out=out) for arg in argv] + ["-o", str(out / name)]
            result = subprocess.run([sys.executable, "-m", "xtrap", *argv], capture_output=True,
                                    text=True, env=env, timeout=120)
            assert result.returncode == 0, result.stderr
        outputs.append({name: (out / name).read_bytes() for name in commands})
    assert outputs[0] == outputs[1]


# {bad} is the fuzzed file; the other fields name valid inputs
TOTALITY_COMMANDS = [
    ["pca", "--emb", "{bad}"],
    ["knn", "--test-emb", "{bad}", "--train-emb", "{emb}", "-k", "2"],
    ["knn", "--test-emb", "{emb}", "--train-emb", "{bad}", "-k", "2"],
    ["eval", "--run", "{bad}", "--qrels", "{qrels}", "--metric", "ndcg@10"],
    ["eval", "--run", "{run}", "--qrels", "{bad}", "--metric", "ndcg@10"],
    ["aggregate", "--manifest", "{bad}", "--qrels", "{qrels}", "--runs", "{run}", "{run}",
     "--metric", "mrr@10"],
    ["correlate", "--pairs", "{bad}"],
    ["kappa", "--labels", "{bad}", "{labels}"],
    ["overlap", "--test-qrels", "{bad}", "--train-qrels", "{qrels}"],
    ["overlap", "--test-qrels", "{qrels}", "--train-qrels", "{bad}"],
]
# the resampling commands read four files; each takes the fuzzed one in turn
_RESAMPLE_SLOTS = [("--train-queries", "{train_q}"), ("--test-queries", "{test_q}"),
                   ("--train-emb", "{emb}"), ("--test-emb", "{test_emb}")]
_RESAMPLE_COMMANDS = [
    ["restrain", "--regime", "inter", "--size", "2"],
    ["restrain", "--regime", "extra", "-E", "1", "--size", "1"],
    ["resttest", "-k", "2"],
    ["candidates", "--per-channel", "2"],
]
RESAMPLE_TOTALITY_COMMANDS = [
    command + [arg for flag, valid in _RESAMPLE_SLOTS for arg in (flag, "{bad}" if flag == bad else valid)]
    for command in _RESAMPLE_COMMANDS
    for bad, _ in _RESAMPLE_SLOTS
]
TOTALITY_COMMANDS += RESAMPLE_TOTALITY_COMMANDS
# an empty training query file once made `restrain --regime extra` exit 1
EMPTY_TRAINING_QUERIES = next(
    c for c in RESAMPLE_TOTALITY_COMMANDS if "extra" in c and c[c.index("--train-queries") + 1] == "{bad}"
)
TOTALITY_PREFIXES = [b"", b"EVEC", b"EVEC\x01\x00\x00\x00", b"#regime=resttest\n#k=2\n[training]\n", b"a\t"]


def _run_with_valid_inputs(command, bad_bytes):
    """Exit code of `command` with `bad_bytes` as {bad} and valid other inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {"bad": tmp / "bad", "emb": tmp / "e.evec", "qrels": tmp / "qrels.txt",
                 "run": tmp / "run.txt", "labels": tmp / "labels.tsv", "train_q": tmp / "train_q.tsv",
                 "test_q": tmp / "test_q.tsv", "test_emb": tmp / "test.evec"}
        files["bad"].write_bytes(bad_bytes)
        write_embeddings(make_embeddings(["t0", "t1", "t2"], [[1, 0], [0, 1], [1, 1]]), files["emb"])
        write_embeddings(make_embeddings(["q0", "q1"], [[1, 0.5], [-1, 0]]), files["test_emb"])
        files["train_q"].write_text("t0\tred apple\nt1\tgreen pear\nt2\tred pear\n")
        files["test_q"].write_text("q0\tred\nq1\tpear tree\n")
        files["qrels"].write_text("q0 0 d0 1\nq1 0 d1 2\n")
        files["run"].write_text("q0 Q0 d0 1 2.0 t\nq1 Q0 d0 1 1.0 t\n")
        files["labels"].write_text("i0\tyes\ni1\tno\n")
        argv = [arg.format(**files) for arg in command] + ["-o", str(tmp / "out")]
        return cli.main(argv)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(TOTALITY_COMMANDS), prefix=st.sampled_from(TOTALITY_PREFIXES),
       data=st.binary(max_size=200))
@example(command=EMPTY_TRAINING_QUERIES, prefix=b"", data=b"")
def test_cli_total_on_arbitrary_file(command, prefix, data):
    """Any bytes as a command's one file input exit 0 or 2 and never raise."""
    assert _run_with_valid_inputs(command, prefix + data) in (0, 2)


@pytest.mark.parametrize("command", RESAMPLE_TOTALITY_COMMANDS, ids=" ".join)
def test_resample_totality_inputs_are_valid(command):
    # with the slot's own valid file in place of {bad} the command succeeds,
    # so in the property above only the fuzzed file can make it fail
    valid = dict(_RESAMPLE_SLOTS)[command[command.index("{bad}") - 1]]
    assert _run_with_valid_inputs([arg.replace("{bad}", valid) for arg in command], b"") == 0
