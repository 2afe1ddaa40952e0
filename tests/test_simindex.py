import ast
import functools
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
import xtrap
from conftest import knn_lists, make_embeddings, make_queries, random_embeddings
from xtrap import simindex
from xtrap.dataio import DataError
from xtrap.simindex import (
    MEASURES,
    Bm25Index,
    _rank,
    _scan,
    _top_k,
    bm25_search,
    knn,
    recall_candidates,
    tokenize,
    write_neighbor_lists,
)


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("How tall—is Everest?") == ["how", "tall", "is", "everest"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alphanumeric_split(self):
        assert tokenize("a1-b2") == ["a1", "b2"]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]


class TestKnn:
    def test_orthogonal_basis(self):
        train = make_embeddings(["a", "b"], [[1, 0], [0, 1]])
        test = make_embeddings(["q"], [[1, 0]])
        assert knn_lists(test, train, 1) == [("q", [("a", 1.0)])]
        assert knn_lists(test, train, 2) == [("q", [("a", 1.0), ("b", 0.0)])]

    def test_returns_row_positions_and_scores(self):
        train = make_embeddings(["c", "a", "b"], [[0, 1], [1, 0], [1, 1]])
        test = make_embeddings(["q0", "q1"], [[1, 0], [0, 2]])
        index, scores = knn(test, train, 2)
        assert index.dtype == np.intp and scores.dtype == np.float64
        # ties go to the lower id, not the lower row: b (row 2) before c (row 0)
        assert index.tolist() == [[1, 2], [2, 0]]
        assert scores.tolist() == [[1.0, 1.0], [2.0, 2.0]]

    def test_k_larger_than_train_warns(self, caplog):
        train = make_embeddings(["a"], [[1.0]])
        test = make_embeddings(["q"], [[1.0]])
        with caplog.at_level("WARNING"):
            index, scores = knn(test, train, 5)
        assert index.shape == scores.shape == (1, 1)
        assert any("exceeds" in r.message for r in caplog.records)

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            knn(make_embeddings(["q"], [[1, 0]]), make_embeddings(["a"], [[1.0]]), 1)

    def test_cosine_zero_vector_rejected(self):
        train = make_embeddings(["a", "z"], [[1, 0], [0, 0]])
        test = make_embeddings(["q"], [[1, 0]])
        with pytest.raises(DataError) as exc:
            knn(test, train, 1, measure="cosine")
        assert "z" in str(exc.value)

    def test_tie_break_ascending_id(self):
        # three identical vectors must rank by id
        train = make_embeddings(["c", "a", "b"], [[1, 0]] * 3)
        test = make_embeddings(["q"], [[2, 0]])
        ((_, neighbors),) = knn_lists(test, train, 3)
        assert [n for n, _ in neighbors] == ["a", "b", "c"]

    @pytest.mark.parametrize("measure", ["inner_product", "cosine"])
    def test_matches_all_pairs_oracle(self, rng, measure):
        for trial in range(25):
            n_train = int(rng.integers(1, 60))
            n_test = int(rng.integers(1, 10))
            dim = int(rng.integers(1, 9))
            k = int(rng.integers(1, n_train + 1))
            train = random_embeddings(rng, "t", n_train, dim)
            test = random_embeddings(rng, "q", n_test, dim)
            got = knn_lists(test, train, k, measure=measure)
            want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, k, measure)
            assert len(got) == len(want)
            for (qid, neighbors), (want_qid, expected) in zip(got, want):
                assert qid == want_qid
                assert [n for n, _ in neighbors] == [n for n, _ in expected]
                np.testing.assert_allclose(
                    [s for _, s in neighbors], [s for _, s in expected], rtol=1e-12, atol=1e-12
                )

    def test_ties_within_one_block_match_oracle(self, rng):
        # duplicated integer vectors force exact score ties
        base = rng.integers(-3, 4, size=(20, 4)).astype(np.float32)
        mat = np.vstack([base, base, base])
        train = make_embeddings([f"t{i:03d}" for i in range(60)], mat)
        test = make_embeddings(["q0", "q1"], rng.integers(-3, 4, size=(2, 4)))
        got = knn_lists(test, train, 17)
        want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, 17, "inner_product")
        for (_, neighbors), (_, expected) in zip(got, want):
            assert [n for n, _ in neighbors] == [n for n, _ in expected]

    def test_ties_across_scan_blocks_match_oracle(self, rng, monkeypatch):
        # tiny blocks force the candidate merge to span many block boundaries,
        # with exact ties landing in different blocks
        monkeypatch.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", 7)
        base = rng.integers(-2, 3, size=(15, 3)).astype(np.float32)
        mat = np.vstack([base, base, base, base])
        train = make_embeddings([f"t{i:03d}" for i in range(60)], mat)
        test = make_embeddings(["q0", "q1", "q2"], rng.integers(-2, 3, size=(3, 3)))
        for k in (1, 7, 23, 60):
            got = knn_lists(test, train, k)
            want = oracles.knn_all_pairs(
                test.ids, test.matrix, train.ids, train.matrix, k, "inner_product"
            )
            assert got == want

    def test_partitions_whole_block_only_until_floor_is_finite(self, rng, monkeypatch):
        # four 50-row blocks: the first raises every floor to a finite value,
        # and the later three raise it from their screen survivors alone
        monkeypatch.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", 50 * 6)
        widths = []

        def counting_top_k(scores, k):
            # score blocks are float32; the merges of lower bounds are float64
            if scores.dtype == np.float32:
                widths.append(scores.shape[1])
            return _top_k(scores, k)

        monkeypatch.setattr("xtrap.simindex._top_k", counting_top_k)
        train = random_embeddings(rng, "t", 200, 5)
        test = random_embeddings(rng, "q", 6, 5)
        for measure in MEASURES:
            widths.clear()
            got = knn_lists(test, train, 4, measure=measure)
            assert widths == [50]
            want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, 4, measure)
            assert got == want

    def test_whole_later_blocks_raising_the_floor(self, rng, monkeypatch):
        # training rows ascend along the queries' direction, so each later
        # 50-row block raises every floor with more than k of its columns
        monkeypatch.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", 50 * 6)
        matrix = rng.normal(size=(200, 5))
        train = make_embeddings([f"t{i:03d}" for i in range(200)], matrix[np.argsort(matrix[:, 0])])
        queries = rng.normal(scale=0.1, size=(6, 5))
        queries[:, 0] = 1.0
        test = make_embeddings([f"q{i}" for i in range(6)], queries)
        for measure in MEASURES:
            got = knn_lists(test, train, 4, measure=measure)
            want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, 4, measure)
            assert got == want

    def test_float32_tie_is_separated_in_float64(self):
        # q.t_b = 1 + 2^-24 rounds to 1 = q.t_a in float32; only the float64
        # rescore puts t_b, the larger id, first
        train = make_embeddings(["a", "b"], [[1, 0], [1, 2.0**-12]])
        test = make_embeddings(["q"], [[1, 2.0**-12]])
        assert knn_lists(test, train, 1) == [("q", [("b", 1.0 + 2.0**-24)])]

    @pytest.mark.parametrize("measure", ["inner_product", "cosine"])
    def test_extreme_magnitudes_match_oracle(self, measure):
        # unscaled float32 products of the big query overflow (inf - inf is
        # NaN for the first row), and 1/|t| of the subnormal rows overflows
        # float32
        rows = [[1e38, -1e38], [1e38, 1e38], [-1e38, -1e38], [1, 0], [0, -1],
                [3e-45, 0], [1e-42, 1e-42], [1, 1]]
        train = make_embeddings([f"t{i}" for i in range(len(rows))], rows)
        test = make_embeddings(["big", "one", "tiny"], [[1e37, 1e37], [1, 2], [1e-40, -3e-41]])
        for k in range(1, len(rows) + 1):
            got = knn_lists(test, train, k, measure=measure)
            want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, k, measure)
            assert got == want

    def test_infinite_first_floor_keeps_later_columns(self, monkeypatch):
        # blocks of k rows; under cosine the first holds a row whose 1/|t|
        # overflows float32, so its error bound and every floor start at -inf
        # and the later blocks' survivor passes must keep every column
        monkeypatch.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", 1)
        rows = [[3e-45, 0], [1, 1], [1e-42, 1e-42], [1, 0], [0, -1], [-2, 1], [1, 3]]
        train = make_embeddings([f"t{i}" for i in range(len(rows))], rows)
        test = make_embeddings(["a", "b"], [[1, 2], [-1, 0.5]])
        for k in range(1, len(rows) + 1):
            got = knn_lists(test, train, k, measure="cosine")
            want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, k, "cosine")
            assert got == want

    def test_tiny_normal_norm_keeps_its_block_bound_finite(self, rng, monkeypatch, caplog):
        # a norm of 2^-114 is in float32's normal range: its exact 1/|t|
        # widens the cosine bound of the first of four blocks by 8 * 2^-35
        # only, so that block is screened like the others
        monkeypatch.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", 4 * 250)
        matrix = rng.normal(size=(1000, 8))
        matrix[3] *= 2.0**-114 / np.linalg.norm(matrix[3])
        train = make_embeddings([f"t{i:04d}" for i in range(1000)], matrix)
        test = random_embeddings(rng, "q", 4, 8)
        with caplog.at_level("INFO", logger="xtrap.simindex"):
            got = knn_lists(test, train, 10, measure="cosine")
        (message,) = [r.getMessage() for r in caplog.records]
        assert float(re.search(r"\(([0-9.]+) x n_test\*k\)", message)[1]) < 1.5
        assert got == oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, 10, "cosine")

    def test_budget_alone_sizes_the_first_block(self, rng, monkeypatch):
        # a budget of 300 rows per block over 1,500 training rows; only a
        # wider k widens the first block
        monkeypatch.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", 300 * 4)
        widths = []

        def counting_top_k(scores, k):
            if scores.dtype == np.float32:
                widths.append(scores.shape[1])
            return _top_k(scores, k)

        monkeypatch.setattr("xtrap.simindex._top_k", counting_top_k)
        train = random_embeddings(rng, "t", 1500, 5)
        test = random_embeddings(rng, "q", 4, 5)
        for k in (3, 400):
            for measure in MEASURES:
                widths.clear()
                got = knn_lists(test, train, k, measure=measure)
                assert widths == [max(k, 300)]
                want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, k, measure)
                assert got == want

    def test_empty_test_set(self):
        train = make_embeddings(["a"], [[1, 0]])
        test = make_embeddings([], np.zeros((0, 2)))
        for measure in MEASURES:
            index, scores = knn(test, train, 1, measure=measure)
            assert index.shape == scores.shape == (0, 1)

    def test_zero_test_rows_give_typed_empty_arrays(self):
        train = make_embeddings(["a", "b", "c"], [[1, 0], [0, 1], [1, 1]])
        test = make_embeddings([], np.zeros((0, 2)))
        for k in (1, 3):
            for measure in MEASURES:
                index, scores = knn(test, train, k, measure=measure)
                assert index.shape == scores.shape == (0, k)
                assert index.dtype == np.intp and scores.dtype == np.float64

    def test_memory_is_bounded(self, rng, monkeypatch):
        # four blocks of 10k training rows; a float64 score block and its
        # partition copy alone would take 4 float32 blocks
        monkeypatch.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", 2_000_000)
        train = random_embeddings(rng, "t", 40_000, 32)
        test = random_embeddings(rng, "q", 200, 32)
        score_block = 200 * 10_000 * 4
        tracemalloc.start()
        try:
            index, scores = knn(test, train, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * score_block + test.matrix.size * 8
        assert index.shape == scores.shape == (200, 10)

    def test_logs_screen_counts(self, caplog):
        train = make_embeddings(["a", "b", "c"], [[1, 0], [0, 1], [1, 1]])
        test = make_embeddings(["q"], [[1, 0]])
        with caplog.at_level("INFO", logger="xtrap.simindex"):
            knn(test, train, 2)
        assert [r.getMessage() for r in caplog.records] == [
            "knn: 3 pairs screened in float32, 2 survivors rescored in float64 (1.000 x n_test*k)"
        ]

    def test_scaling_train_by_power_of_two_is_exact(self, rng):
        train = random_embeddings(rng, "t", 40, 5)
        test = random_embeddings(rng, "q", 6, 5)
        scaled = make_embeddings(train.ids, train.matrix * np.float32(2.0))
        index, scores = knn(test, train, 7)
        doubled_index, doubled = knn(test, scaled, 7)
        assert doubled_index.tolist() == index.tolist()
        assert doubled.tolist() == (2.0 * scores).tolist()

    def test_scaling_leaves_cosine_scores_unchanged(self, rng):
        train = random_embeddings(rng, "t", 40, 5)
        test = random_embeddings(rng, "q", 6, 5)
        scaled = make_embeddings(train.ids, train.matrix * np.float32(2.0))
        assert knn_lists(test, train, 7, measure="cosine") == knn_lists(test, scaled, 7, measure="cosine")

    def test_arbitrary_scaling_keeps_order(self, rng):
        train = random_embeddings(rng, "t", 50, 4)
        test = random_embeddings(rng, "q", 5, 4)
        scaled = make_embeddings(train.ids, train.matrix * np.float32(3.7))
        index, scores = knn(test, train, 8)
        scaled_index, scaled_scores = knn(test, scaled, 8)
        assert scaled_index.tolist() == index.tolist()
        np.testing.assert_allclose(3.7 * scores, scaled_scores, rtol=1e-6)


class TestBm25:
    def test_hand_evaluated_score(self):
        index = Bm25Index(make_queries(["d1", "d2"], ["cat", "dog"]))
        (doc,) = bm25_search(index, "cat", 5)
        assert doc[0] == "d1"
        assert doc[1] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_no_match_is_empty(self):
        index = Bm25Index(make_queries(["d1", "d2"], ["cat", "dog"]))
        assert bm25_search(index, "bird", 5) == ()

    def test_empty_query_is_empty(self):
        index = Bm25Index(make_queries(["d1"], ["cat"]))
        assert bm25_search(index, "", 5) == ()

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            Bm25Index(make_queries([], []))

    def test_scores_match_formula_oracle(self, rng):
        vocab = ["cat", "dog", "fish", "bird", "tree", "car"]
        ids = [f"d{i:02d}" for i in range(20)]
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(1, 9)).tolist()) for _ in ids
        ]
        index = Bm25Index(make_queries(ids, texts))
        corpus = dict(zip(ids, texts))
        for query in ["cat dog", "fish", "bird tree car", "cat cat dog"]:
            got = dict(bm25_search(index, query, 20))
            want = oracles.bm25_scores(corpus, query, 1.2, 0.75)
            assert set(got) == set(want)
            for d in want:
                assert got[d] == pytest.approx(want[d], abs=1e-9)

    def test_tie_breaks_by_doc_id(self):
        index = Bm25Index(make_queries(["b", "a"], ["cat", "cat"]))
        result = bm25_search(index, "cat", 2)
        assert [d for d, _ in result] == ["a", "b"]
        # the tie crosses the cut, and file order is not id order
        index = Bm25Index(make_queries(["c", "b", "a"], ["cat", "cat", "cat"]))
        result = bm25_search(index, "cat", 2)
        assert [d for d, _ in result] == ["a", "b"]

    def test_hand_evaluated_score_with_tf_and_length(self):
        # tf=2 and len/avgdl=1.8, so both k1=1.2 and b=0.75 enter the score
        index = Bm25Index(make_queries(["d1", "d2", "d3"], ["cat cat dog", "dog", "fish"]))
        (doc,) = bm25_search(index, "cat", 5)
        norm = 1.2 * (1 - 0.75 + 0.75 * 3 / (5 / 3))
        assert doc[0] == "d1"
        assert doc[1] == pytest.approx(np.log(8 / 3) * 2 * 2.2 / (2 + norm), abs=1e-12)

    def test_longer_doc_with_same_tf_scores_lower(self):
        # at b=0 the two would tie and "a" would come first
        index = Bm25Index(make_queries(["a", "b", "c"], ["cat x y z", "cat", "dog"]))
        result = bm25_search(index, "cat", 5)
        assert [d for d, _ in result] == ["b", "a"]
        assert result[0][1] > result[1][1]

    def test_more_occurrences_at_fixed_length_increase_score(self, rng):
        # a "dog" of d0 turns into a "cat": length, avgdl and the df of "cat" stay
        for _ in range(20):
            reps = int(rng.integers(1, 5))
            others = [f"filler {i}" for i in range(int(rng.integers(1, 6)))]
            texts = ["cat " * reps + "dog", *others]
            more = ["cat " * (reps + 1), *others]
            ids = [f"d{i}" for i in range(len(texts))]
            base = dict(bm25_search(Bm25Index(make_queries(ids, texts)), "cat", 10))
            bumped = dict(bm25_search(Bm25Index(make_queries(ids, more)), "cat", 10))
            assert bumped["d0"] > base["d0"]


class TestRecallCandidates:
    def test_union_bounds(self, rng):
        train_ids = [f"t{i:02d}" for i in range(30)]
        train = make_queries(train_ids, [f"topic {i} words" for i in range(30)])
        test = make_queries(["q1", "q2"], ["topic 3 words", "unrelated text"])
        train_emb = make_embeddings(train_ids, rng.normal(size=(30, 4)))
        test_emb = make_embeddings(["q1", "q2"], rng.normal(size=(2, 4)))
        pools = recall_candidates(test, train, test_emb, train_emb, per_channel=5)
        for pool in pools.values():
            assert 5 <= len(pool) <= 10
            assert len(set(pool)) == len(pool)

    def test_identical_channels_collapse(self, rng):
        # embeddings aligned with lexical overlap so both channels agree
        train = make_queries(["t1", "t2"], ["red fox", "blue whale"])
        test = make_queries(["q"], ["red fox"])
        train_emb = make_embeddings(["t1", "t2"], [[1, 0], [0, 1]])
        test_emb = make_embeddings(["q"], [[1, 0]])
        pools = recall_candidates(test, train, test_emb, train_emb, per_channel=1)
        assert pools["q"] == ["t1"]

    def test_disjoint_channels_concatenate(self):
        # embedding channel prefers t1, lexical only matches t2
        train = make_queries(["t1", "t2"], ["zzz nothing", "red fox"])
        test = make_queries(["q"], ["red fox"])
        train_emb = make_embeddings(["t1", "t2"], [[1, 0], [0, 1]])
        test_emb = make_embeddings(["q"], [[1, 0]])
        pools = recall_candidates(test, train, test_emb, train_emb, per_channel=1)
        assert pools["q"] == ["t1", "t2"]

    def test_matches_set_union_oracle(self, rng):
        train_ids = [f"t{i:02d}" for i in range(30)]
        vocab = ["sun", "moon", "star", "rain", "wind", "snow"]
        train_texts = [" ".join(rng.choice(vocab, size=3).tolist()) for _ in train_ids]
        test_ids = [f"q{i}" for i in range(6)]
        test_texts = [" ".join(rng.choice(vocab, size=2).tolist()) for _ in test_ids]
        train = make_queries(train_ids, train_texts)
        test = make_queries(test_ids, test_texts)
        train_emb = make_embeddings(train_ids, rng.normal(size=(30, 6)))
        test_emb = make_embeddings(test_ids, rng.normal(size=(6, 6)))
        pools = recall_candidates(test, train, test_emb, train_emb, per_channel=4)

        dense = {qid: [n for n, _ in lst] for qid, lst in knn_lists(test_emb, train_emb, 4)}
        index = Bm25Index(train)
        for qid, text in zip(test_ids, test_texts):
            lexical = [n for n, _ in bm25_search(index, text, 4)]
            assert set(pools[qid]) == set(dense[qid]) | set(lexical)
            assert pools[qid][: len(dense[qid])] == dense[qid]

    def test_pool_is_dense_list_then_new_bm25_ids_in_bm25_order(self, rng):
        train_ids = [f"t{i:02d}" for i in range(30)]
        vocab = ["sun", "moon", "star", "rain", "wind", "snow"]
        train = make_queries(train_ids, [" ".join(rng.choice(vocab, size=3).tolist()) for _ in train_ids])
        test = make_queries([f"q{i}" for i in range(6)], [" ".join(rng.choice(vocab, size=2).tolist()) for _ in range(6)])
        train_emb = make_embeddings(train_ids, rng.normal(size=(30, 6)))
        test_emb = make_embeddings(test.ids, rng.normal(size=(6, 6)))
        pools = recall_candidates(test, train, test_emb, train_emb, per_channel=5)
        index = Bm25Index(train)
        for qid, dense in knn_lists(test_emb, train_emb, 5):
            dense = [nid for nid, _ in dense]
            lexical = [nid for nid, _ in bm25_search(index, test.text(qid), 5)]
            assert pools[qid] == dense + [nid for nid in lexical if nid not in dense]

    def test_missing_embedding_names_id(self, rng):
        train = make_queries(["t1"], ["a"])
        test = make_queries(["q1"], ["a"])
        train_emb = make_embeddings(["other"], [[1.0]])
        test_emb = make_embeddings(["q1"], [[1.0]])
        with pytest.raises(DataError) as exc:
            recall_candidates(test, train, test_emb, train_emb)
        assert "t1" in str(exc.value)


@pytest.mark.parametrize("call, message", [
    (lambda emb, queries: knn(emb, emb, 0), "k must be >= 1"),
    (lambda emb, queries: knn(emb, emb, 1, measure="l2"), "unknown similarity measure 'l2'"),
    (lambda emb, queries: bm25_search(Bm25Index(queries), "red", 0), "k must be >= 1"),
    (lambda emb, queries: recall_candidates(queries, queries, emb, emb, per_channel=0), "per_channel must be >= 1"),
], ids=["knn-k", "knn-measure", "bm25-k", "candidates-per-channel"])
def test_out_of_range_arguments_are_usage_errors(call, message):
    emb = make_embeddings(["a"], [[1.0]])
    queries = make_queries(["a"], ["red fox"])
    with pytest.raises(ValueError) as exc:
        call(emb, queries)
    assert type(exc.value) is ValueError and str(exc.value) == message


class TestSerialization:
    def test_neighbor_tsv_format_and_determinism(self, tmp_path, rng):
        train = random_embeddings(rng, "t", 20, 3)
        test = random_embeddings(rng, "q", 3, 3)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_neighbor_lists(test.ids, train.ids, *knn(test, train, 4), p1)
        write_neighbor_lists(test.ids, train.ids, *knn(test, train, 4), p2)
        assert p1.read_bytes() == p2.read_bytes()
        line = p1.read_text().splitlines()[0].split("\t")
        assert len(line) == 4
        assert line[0] == "q0000" and line[1] == "1"

    def test_scores_use_six_significant_digits(self, tmp_path):
        index = np.array([[1, 0]], dtype=np.intp)
        scores = np.array([[0.123456789, 123456789.0]])
        path = tmp_path / "n.tsv"
        write_neighbor_lists(["q"], ["b", "a"], index, scores, path)
        assert path.read_text() == "q\t1\ta\t0.123457\nq\t2\tb\t1.23457e+08\n"


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=2, max_size=25
    ),
    st.integers(1, 8),
)
def test_knn_property_matches_oracle(vectors, k):
    mat = np.asarray(vectors, dtype=np.float32)
    train = make_embeddings([f"t{i:02d}" for i in range(len(vectors))], mat)
    test = make_embeddings(["q"], [[1, 2, 3]])
    ((_, neighbors),) = knn_lists(test, train, min(k, len(vectors)))
    (want,) = oracles.knn_all_pairs(
        test.ids, test.matrix, train.ids, train.matrix, min(k, len(vectors)), "inner_product"
    )
    assert [n for n, _ in neighbors] == [n for n, _ in want[1]]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 800), st.integers(1, 10), st.data())
def test_knn_screen_matches_oracle_exactly(dim, n_base, data):
    # parallel rows (t, 3t) tie up to the last bit under cosine, and the
    # 2^-12 fractions of the queries make float32 round inner products
    small = st.integers(-3, 3)
    base = data.draw(arrays(np.int8, (n_base, dim), elements=small)).astype(np.float32)
    mat = np.vstack([base, 3 * base])
    mat[~mat.any(axis=1), 0] = 1  # cosine needs nonzero vectors
    whole = data.draw(arrays(np.int8, (2, dim), elements=small))
    frac = data.draw(arrays(np.int8, (2, dim), elements=small))
    queries = (whole + frac * 2.0**-12).astype(np.float32)
    queries[~queries.any(axis=1), 0] = 1
    order = data.draw(st.permutations(range(len(mat))))
    train = make_embeddings([f"t{i:02d}" for i in order], mat)
    test = make_embeddings(["q0", "q1"], queries)
    k = data.draw(st.integers(1, len(mat)))
    for measure in MEASURES:
        want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, k, measure)
        for rows in (1, 7, None):
            with pytest.MonkeyPatch.context() as mp:
                if rows is not None:
                    mp.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", rows * len(test))
                got = knn_lists(test, train, k, measure=measure)
            assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 48), st.integers(1, 30), st.integers(1, 4), st.data())
def test_knn_matches_oracle_on_anisotropic_embeddings(seed, dim, n_base, n_test, data):
    # rows share a unit mean direction and spread along a 1/i spectrum, as
    # dense retrievers' embeddings do (mean cosine about 0.64), so scores
    # crowd a narrow band; multiples of 2^-12 and duplicated rows tie exactly
    rng = np.random.default_rng(seed)
    mean = rng.normal(size=dim)
    spread = rng.normal(size=(n_base + n_test, dim)) / np.arange(1, dim + 1)
    rows = 0.8 * mean / np.linalg.norm(mean) + 0.6 * spread / np.linalg.norm(spread, axis=1, keepdims=True)
    rows = np.round(rows * 2.0**12) * 2.0**-12
    copies = data.draw(st.lists(st.integers(0, n_base - 1), max_size=n_base))
    mat = np.vstack([rows[:n_base], rows[copies]])
    order = data.draw(st.permutations(range(len(mat))))
    train = make_embeddings([f"t{i:02d}" for i in order], mat)
    test = make_embeddings([f"q{i}" for i in range(n_test)], rows[n_base:])
    k = data.draw(st.integers(1, len(mat)))
    for measure in MEASURES:
        want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, k, measure)
        for rows_per_block in (3, None):
            with pytest.MonkeyPatch.context() as mp:
                if rows_per_block is not None:
                    mp.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", rows_per_block * n_test)
                got = knn_lists(test, train, k, measure=measure)
            assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.integers(1, 5), st.data())
def test_knn_bitwise_for_any_block_size(dim, n_train, n_test, data):
    # integer components tie exactly, within a rescoring block and across
    # the boundary of one; blocks of one and five pairs, and scan blocks k wide
    small = st.integers(-2, 2)
    train_mat = data.draw(arrays(np.int8, (n_train, dim), elements=small)).astype(np.float32)
    test_mat = data.draw(arrays(np.int8, (n_test, dim), elements=small)).astype(np.float32)
    for mat in (train_mat, test_mat):
        mat[~mat.any(axis=1), 0] = 1  # cosine needs nonzero vectors
    order = data.draw(st.permutations(range(n_train)))
    train = make_embeddings([f"t{i:02d}" for i in order], train_mat)
    test = make_embeddings([f"q{i}" for i in range(n_test)], test_mat)
    k = data.draw(st.integers(1, n_train))
    for measure in MEASURES:
        results = set()
        for rescore in (dim, 5 * dim, None):
            for scan in (k * n_test, None):
                with pytest.MonkeyPatch.context() as mp:
                    if rescore is not None:
                        mp.setattr("xtrap.simindex._BLOCK_ELEMENTS", rescore)
                    if scan is not None:
                        mp.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", scan)
                    index, scores = knn(test, train, k, measure=measure)
                results.add((index.tobytes(), scores.tobytes()))
        assert len(results) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.integers(1, 5), st.data())
def test_rank_of_a_deeper_scan_is_knn(dim, n_base, n_test, data):
    # one scan to depth D serves every k <= D: knn(k)'s arrays, and the same
    # survivors rescored whenever the two scans share their blocks, as with
    # the default budget or one of D rows per block; with blocks one depth
    # wide a row scaled by 1e20 widens its block's bounds only in the deeper
    # scan, so only the arrays must match. Integer components and duplicated
    # rows tie exactly
    small = st.integers(-2, 2)
    base = data.draw(arrays(np.int8, (n_base, dim), elements=small)).astype(np.float32)
    mat = np.vstack([base, base[data.draw(st.lists(st.integers(0, n_base - 1), max_size=n_base))]])
    mat *= np.asarray(data.draw(st.lists(st.sampled_from([1.0, 1.0, 1e-20, 1e20]), min_size=len(mat),
                                         max_size=len(mat))), dtype=np.float32)[:, None]
    test_mat = data.draw(arrays(np.int8, (n_test, dim), elements=small)).astype(np.float32)
    for m in (mat, test_mat):
        m[~m.any(axis=1), 0] = 1  # cosine needs nonzero vectors
    order = data.draw(st.permutations(range(len(mat))))
    train = make_embeddings([f"t{i:02d}" for i in order], mat)
    test = make_embeddings([f"q{i}" for i in range(n_test)], test_mat)
    depth = data.draw(st.integers(1, len(mat)))
    ks = sorted({1, data.draw(st.integers(1, depth)), depth})
    for measure in MEASURES:
        for scan in (1, depth * n_test, None):
            for rescore in (dim, None):
                with pytest.MonkeyPatch.context() as mp:
                    if scan is not None:
                        mp.setattr("xtrap.simindex._KNN_BLOCK_ELEMENTS", scan)
                    if rescore is not None:
                        mp.setattr("xtrap.simindex._BLOCK_ELEMENTS", rescore)
                    pool = _scan(test, train, depth, measure)
                    rows = min(len(mat), simindex._KNN_BLOCK_ELEMENTS // n_test)
                    for k in ks:
                        with mock.patch.object(simindex.logger, "info") as info:
                            got = _rank(pool, k)
                            want = knn(test, train, k, measure=measure)
                        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                        if max(k, rows) == max(depth, rows):  # the same blocks
                            assert info.call_args_list[0] == info.call_args_list[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [8192, 8193, 16385, 24577])
def test_rowdot_of_a_row_follows_only_its_length(dtype, dim):
    # einsum sums a row of more than 8,192 elements in one pass when the call
    # holds two or more float64 rows, and in 8,192-element chunks otherwise
    rng = np.random.default_rng(dim)
    a, b = (rng.standard_normal((12, dim)).astype(dtype) for _ in range(2))
    want = [np.einsum("i,i->", x.astype(np.float64), y.astype(np.float64)) for x, y in zip(a, b)]
    for rows in (1, 2, 5, 12):
        got = np.concatenate([simindex._rowdot(a[lo:lo + rows], b[lo:lo + rows]) for lo in range(0, 12, rows)])
        assert got.tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("dim", [8193, 12000, 24577])
def test_knn_matches_oracle_and_any_block_size_above_the_einsum_buffer(dim):
    rng = np.random.default_rng(dim)
    train = random_embeddings(rng, "t", 30, dim)
    test = random_embeddings(rng, "q", 3, dim)
    for measure in MEASURES:
        results = set()
        # rescoring blocks of one pair, of five pairs and the default
        for rescore in (dim, 5 * dim, None):
            with pytest.MonkeyPatch.context() as mp:
                if rescore is not None:
                    mp.setattr("xtrap.simindex._BLOCK_ELEMENTS", rescore)
                results.add(b"".join(a.tobytes() for a in knn(test, train, 10, measure=measure)))
        assert len(results) == 1
        want = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, 10, measure)
        assert knn_lists(test, train, 10, measure=measure) == want


_KNN_KMEANS_PROBE = """
import hashlib
import numpy as np
from xtrap.dataio import EmbeddingSet
from xtrap.resample import KMeansConfig, kmeans
from xtrap.simindex import MEASURES, knn

def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

rng = np.random.default_rng(7)
for n_train, n_test, dim, k in ((3000, 200, 768, 50), (400, 20, 12000, 10)):
    train = EmbeddingSet([f"t{i}" for i in range(n_train)], rng.standard_normal((n_train, dim), dtype=np.float32))
    test = EmbeddingSet([f"q{i}" for i in range(n_test)], rng.standard_normal((n_test, dim), dtype=np.float32))
    for measure in MEASURES:
        print(dim, measure, digest(*knn(test, train, k, measure=measure)))
    result = kmeans(train, KMeansConfig(k=5, seed=3, max_iters=10))
    print(dim, "kmeans", result.iterations, digest(result.centroids, result.assignment, np.array(result.history)))
"""


def _simd_dispatch_names() -> str:
    # numpy's dispatch list names the SIMD levels it may pick above its
    # build's baseline, so disabling all of them works under any numpy
    # version; the list is private, so only the case that needs it skips
    # where it is gone
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        pytest.skip("numpy does not expose its SIMD dispatch list")
    return " ".join(__cpu_dispatch__)


# an environment value may be a function, called when its case runs
_PROBE_ENVIRONMENTS = {
    "default": {},
    "one-blas-thread": {"OPENBLAS_NUM_THREADS": "1"},
    **{f"openblas-{core.lower()}": {"OPENBLAS_CORETYPE": core} for core in ("Haswell", "SandyBridge", "Prescott")},
    "numpy-simd-baseline": {"NPY_DISABLE_CPU_FEATURES": _simd_dispatch_names},
}
# sha256 of the probe's output, recorded under numpy 2.4.6
_KNN_KMEANS_PROBE_SHA256 = "c0401aa04b96fa97074a6079ae6fdd865de4b953c3652a86333b783531fc9636"


@functools.cache
def _probe_output(name: str) -> str:
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update({key: value() if callable(value) else value for key, value in _PROBE_ENVIRONMENTS[name].items()})
    src = str(Path(xtrap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _KNN_KMEANS_PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout


@pytest.mark.parametrize("name", _PROBE_ENVIRONMENTS)
def test_knn_and_kmeans_bitwise_for_any_blas_kernel_thread_count_or_simd_level(name):
    # the float32 screens' GEMMs round by the BLAS kernel and thread count;
    # the results must not: every exact float64 pass is summed by `_rowdot`
    # in numpy's einsum loop, whatever SIMD level numpy dispatches to; at
    # 12,000 dims OpenBLAS would split a float64 dot product over its threads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "OPENBLAS_CORETYPE" in _PROBE_ENVIRONMENTS[name] and "DYNAMIC_ARCH" not in blas.get(
            "openblas configuration", ""):
        pytest.skip("OPENBLAS_CORETYPE selects a kernel only in a DYNAMIC_ARCH OpenBLAS")
    output = _probe_output(name)
    assert output == _probe_output("default")
    assert hashlib.sha256(output.encode()).hexdigest() == _KNN_KMEANS_PROBE_SHA256, output


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(0, 12),
    st.integers(1, 8),
    st.booleans(),
    st.sampled_from([np.float32, np.float64]),
    st.data(),
)
def test_top_k_matches_lexsort_oracle(n_rows, width, k, one_row, dtype, data):
    # values from a small range force many ties, also across the cut; a 1-D
    # input is a single row
    shape = (width,) if one_row else (n_rows, width)
    size = width if one_row else n_rows * width
    values = data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    scores = np.asarray(values, dtype=dtype).reshape(shape)
    got = _top_k(scores, k)
    assert got.dtype == dtype
    assert got.shape == shape[:-1] + (min(k, width),)
    for row in np.ndindex(shape[:-1]):
        # each row's values in any order: sorted, they are its k largest
        assert np.sort(got[row]).tolist() == np.sort(scores[row])[width - min(k, width):].tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["cat", "Dog!", "fish", "bird"]), max_size=6), min_size=1, max_size=12),
    st.lists(st.lists(st.sampled_from(["cat", "dog", "fish", "bird", "owl"]), max_size=5), min_size=1, max_size=4),
    st.integers(1, 14),
    st.randoms(use_true_random=False),
)
# one doc above the k-th score, and three docs tied at it for the one slot left
@example([["fish"], ["cat"], ["cat"], ["cat"]], [["cat", "fish"]], 2, Random(0))
def test_bm25_search_matches_verbatim_oracle(texts, queries, k, random):
    # four terms over short texts repeat texts and scores, so ties are common,
    # also across the cut; queries repeat terms, and "owl" matches no doc
    ids = [f"d{i:02d}" for i in range(len(texts))]
    random.shuffle(ids)  # file order is not id order
    docs = make_queries(ids, [" ".join(t) for t in texts])
    index, reference = Bm25Index(docs), oracles.Bm25Index(docs)
    for terms in queries:
        query = " ".join(terms)
        assert bm25_search(index, query, k) == oracles.bm25_search(reference, query, k)


def test_only_top_k_partitions():
    # every k-selection goes through simindex._top_k; str.partition(sep)
    # calls (one string literal argument) are not selections
    offenders = []
    for path in sorted(Path(xtrap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed: set[int] = set()
        if path.name == "simindex.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_top_k":
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in ("partition", "argpartition"):
                continue
            str_method = (
                isinstance(func, ast.Attribute)
                and name == "partition"
                and len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            )
            if not str_method:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_rowdot_sums_exact_dot_products():
    # every exact float64 score, norm and distance of kNN and k-means is
    # `_rowdot`'s: einsum is called only inside it, and no BLAS dot product
    # (whose sums follow the CPU kernel and thread count) at all
    offenders = []
    for name in ("simindex.py", "resample.py"):
        tree = ast.parse((Path(xtrap.__file__).parent / name).read_text(encoding="utf-8"))
        allowed = {id(n) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                   and node.name == "_rowdot" for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in ("vecdot", "dot", "inner") or (called == "einsum" and id(node) not in allowed):
                offenders.append(f"{name}:{node.lineno}: {called}")
    assert offenders == []


_HASH_SEED_PROBE = """
import sys
from xtrap.dataio import QuerySet
from xtrap.simindex import Bm25Index, bm25_search

vocab = [f"term{i}" for i in range(24)]
ids = ["d0"] + [f"f{i}" for i in range(23)]
texts = [" ".join(vocab)] + [" ".join(vocab[: i + 1]) for i in range(23)]
result = bm25_search(Bm25Index(QuerySet(ids, texts)), " ".join(reversed(vocab)), 24)
sys.stdout.write(repr(result))
"""


def test_bm25_scores_independent_of_hash_seed():
    # a query of many distinct terms sums their float contributions; the
    # sum must not follow the per-process string hash order
    env = dict(os.environ)
    src = str(Path(xtrap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = set()
    for seed in range(8):
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
