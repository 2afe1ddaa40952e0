import logging
import math
import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import anisotropic_rows, make_embeddings, random_embeddings
from xtrap.dataio import DataError, ParseError, QrelSet, RunSet
from xtrap.metrics import MetricSpec, score_run
from xtrap.resample import (
    FoldSpec,
    KMeansConfig,
    ReSTrainConfig,
    SplitSpec,
    _kmeanspp_init,
    _sq_distances,
    _update_centroids,
    kmeans,
    read_manifest,
    restrain_extrapolation,
    restrain_interpolation,
    resttest_aggregate,
    resttest_split,
    write_manifest,
)
from xtrap.simindex import MEASURES, knn


def blob_points(rng, centers, per_blob, dim, spread=0.5, prefix="p"):
    ids, rows, blob_of = [], [], {}
    for b, center in enumerate(centers):
        for i in range(per_blob):
            eid = f"{prefix}{b}-{i:03d}"
            ids.append(eid)
            rows.append(rng.normal(loc=center, scale=spread, size=dim))
            blob_of[eid] = b
    return make_embeddings(ids, np.asarray(rows)), blob_of


class TestKMeans:
    def test_k1_closed_form(self, rng):
        points = random_embeddings(rng, "p", 30, 4)
        result = kmeans(points, KMeansConfig(k=1, seed=7))
        mean = points.matrix.astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(result.centroids[0], mean, atol=1e-6)
        want = float(((points.matrix.astype(np.float64) - mean) ** 2).sum())
        assert result.inertia == pytest.approx(want, rel=1e-9)

    def test_k_equals_n_distinct(self):
        points = make_embeddings(["a", "b", "c"], [[0, 0], [5, 0], [0, 5]])
        result = kmeans(points, KMeansConfig(k=3, seed=3))
        assert result.inertia == 0.0
        assert sorted(result.assignment.tolist()) == [0, 1, 2]

    def test_two_blob_recovery_and_oracle_inertia(self, rng):
        points, blob_of = blob_points(rng, [(-10.0,) * 4, (10.0,) * 4], per_blob=20, dim=4)
        result = kmeans(points, KMeansConfig(k=2, seed=11))
        by_blob = {0: set(), 1: set()}
        for eid, bucket in zip(points.ids, result.assignment.tolist()):
            by_blob[blob_of[eid]].add(bucket)
        assert by_blob[0] != by_blob[1]
        assert all(len(s) == 1 for s in by_blob.values())
        best = oracles.kmeans_best_inertia(points.matrix, k=2, restarts=100)
        assert result.inertia == pytest.approx(best, abs=1e-6)

    def test_same_seed_same_assignment(self, rng):
        points = random_embeddings(rng, "p", 50, 3)
        cfg = KMeansConfig(k=4, seed=99)
        assert np.array_equal(kmeans(points, cfg).assignment, kmeans(points, cfg).assignment)

    def test_different_seeds_allowed_to_differ(self, rng):
        points = random_embeddings(rng, "p", 50, 3)
        a = kmeans(points, KMeansConfig(k=4, seed=1))
        b = kmeans(points, KMeansConfig(k=4, seed=2))
        assert a.history[-1] > 0 and b.history[-1] > 0

    def test_history_non_increasing(self, rng):
        for seed in range(8):
            points = random_embeddings(rng, f"s{seed}-", 60, 5)
            result = kmeans(points, KMeansConfig(k=5, seed=seed))
            for prev, cur in zip(result.history, result.history[1:]):
                assert cur <= prev + 1e-9

    def test_k_exceeding_points_rejected(self, rng):
        with pytest.raises(DataError):
            kmeans(random_embeddings(rng, "p", 3, 2), KMeansConfig(k=4))

    def test_normalize_flag(self, rng):
        points = random_embeddings(rng, "p", 20, 3)
        result = kmeans(points, KMeansConfig(k=2, seed=5, normalize=True))
        assert len(result.assignment) == 20
        zero = make_embeddings(["a", "b"], [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DataError):
            kmeans(zero, KMeansConfig(k=2, normalize=True))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_seeding_makes_one_exact_pass_per_draw_after_the_first(self, rng, k):
        X = rng.normal(size=(40, 3)).astype(np.float32)
        with mock.patch("xtrap.resample._sq_distances", wraps=_sq_distances) as passes:
            _kmeanspp_init(X, k, np.random.Generator(np.random.PCG64(1)))
        assert passes.call_count == k - 1
        assert all(len(call.args[1]) == len(X) for call in passes.call_args_list)
        # one broadcast float64 centroid per pass
        assert all(call.args[2].shape == (X.shape[1],) and call.args[2].dtype == np.float64
                   for call in passes.call_args_list)

    def test_empty_cluster_repair_seizes_farthest(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]], dtype=np.float32)
        assignment = np.array([0, 0, 0])
        d2min = np.array([0.25, 0.25, 90.25])
        centroids = _update_centroids(X, assignment, 2, d2min)
        np.testing.assert_allclose(centroids[1], [10.0, 0.0])

    @pytest.mark.parametrize("d2min, seized", [
        ([0.5, 3.0, 1.0, 3.0, 0.25], [1, 3]),  # a tie: the lower row first
        ([0.5, 2.0, 1.0, 3.0, 0.25], [3, 1]),
    ])
    def test_empty_clusters_seize_farthest_rows_in_order(self, d2min, seized):
        X = np.array([[1.0, 2.0], [3.0, -1.0], [0.1, 0.2], [7.0, 5.0], [0.3, 0.7]], dtype=np.float32)
        assignment = np.array([0, 0, 2, 2, 0])
        centroids = _update_centroids(X, assignment, 4, np.array(d2min))
        for j, members in ((0, [0, 1, 4]), (2, [2, 3])):
            assert centroids[j].tobytes() == (X[members].sum(axis=0, dtype=np.float64) / len(members)).tobytes()
        # clusters 1 and 3 are empty: 1 takes the farthest row, 3 the next
        assert centroids[[1, 3]].tobytes() == X[seized].astype(np.float64).tobytes()

    def test_duplicate_points_with_large_k(self):
        mat = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5, dtype=np.float32)
        points = make_embeddings([f"p{i}" for i in range(10)], mat)
        result = kmeans(points, KMeansConfig(k=3, seed=0))
        assert len(result.assignment) == len(points.ids)
        for prev, cur in zip(result.history, result.history[1:]):
            assert cur <= prev + 1e-9

    def test_normalize_peak_below_float64_copy(self, rng):
        # the float32 unit rows take half of a float64 copy; the rest is
        # blocks, per-cluster gathers and per-row results
        points = random_embeddings(rng, "p", 4096, 512)
        tracemalloc.start()
        try:
            kmeans(points, KMeansConfig(k=4, seed=1, max_iters=1, normalize=True))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < points.matrix.size * 8

    def test_logs_iterations_inertia_and_screen(self, rng, caplog):
        points = random_embeddings(rng, "p", 200, 6)
        with caplog.at_level(logging.INFO, logger="xtrap.resample"):
            result = kmeans(points, KMeansConfig(k=4, seed=3))
        pattern = r"kmeans: (\d+) iterations, inertia (\S+); assignment screen decided (\d+) rows, (\d+) rescored in float64"
        (match,) = [m for r in caplog.records if (m := re.fullmatch(pattern, r.getMessage()))]
        assert int(match[1]) == result.iterations
        assert match[2] == repr(result.inertia)
        # every assignment, the first and one per iteration, covers all rows
        assert int(match[3]) + int(match[4]) == 200 * (result.iterations + 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kmeans_matches_float64_lloyd_oracle(data):
    # duplicated rows and exact midpoints of two rows are equidistant from
    # two centroids; the 2^-12 fractions make float32 round the screen's dot
    # products; 2^66 overflows float32 products and 2^-140 is subnormal
    dim = data.draw(st.integers(1, 40))
    n_pool = data.draw(st.integers(1, 12))
    small = st.integers(-3, 3)
    whole = data.draw(arrays(np.int8, (n_pool, dim), elements=small))
    frac = data.draw(arrays(np.int8, (n_pool, dim), elements=small))
    pool = whole + frac * 2.0**-12
    index = st.integers(0, n_pool - 1)
    picks = data.draw(st.lists(index, min_size=1, max_size=30))
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=10))
    rows = np.vstack([pool[picks]] + [(pool[[a]] + pool[[b]]) / 2 for a, b in pairs])
    scale = data.draw(st.sampled_from([1.0, 2.0**-140, 2.0**60, 2.0**66]))
    points = make_embeddings([f"p{i:02d}" for i in range(len(rows))], rows * scale)
    k = data.draw(st.integers(1, len(rows)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    normalize = data.draw(st.booleans())
    cfg = KMeansConfig(k=k, seed=seed, normalize=normalize)
    try:
        want = oracles.kmeans_lloyd(points.matrix, k, seed, normalize=normalize)
    except ValueError:
        want = None
    # blocks of one row and of seven rows, then the default blocks
    for block_rows in (1, 7, None):
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                mp.setattr("xtrap.resample._SCREEN_ROWS", block_rows)
                mp.setattr("xtrap.resample._BLOCK_ELEMENTS", block_rows * dim)
            if want is None:
                with pytest.raises(DataError):
                    kmeans(points, cfg)
                continue
            got = kmeans(points, cfg)
        assert got.assignment.dtype == np.intp
        assert np.array_equal(got.assignment, want[0])
        assert got.centroids.tobytes() == want[1].tobytes()
        assert list(got.history) == want[2]
        assert got.iterations == want[3]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kmeans_tol_stop_matches_float64_lloyd_oracle(data):
    # tol 0 never stops before the fixpoint, an infinite tol stops at
    # iteration 1; the 2^-12 and 2^-16 scales make shifts below 1e-4 common
    dim = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 30))
    rows = data.draw(arrays(np.int8, (n, dim), elements=st.integers(-3, 3)))
    scale = data.draw(st.sampled_from([1.0, 2.0**-12, 2.0**-16]))
    points = make_embeddings([f"p{i:02d}" for i in range(n)], rows * scale)
    k = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    tol = data.draw(st.sampled_from([0.0, 1e-4, math.inf]))
    got = kmeans(points, KMeansConfig(k=k, seed=seed, tol=tol))
    want = oracles.kmeans_lloyd(points.matrix, k, seed, tol=tol)
    assert np.array_equal(got.assignment, want[0])
    assert got.centroids.tobytes() == want[1].tobytes()
    assert list(got.history) == want[2]
    assert got.iterations == want[3]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 48), st.integers(1, 30), st.data())
def test_kmeans_matches_float64_lloyd_oracle_on_anisotropic_embeddings(seed, dim, n_base, data):
    # the points crowd one narrow cone, so many are nearly equidistant from
    # two centroids; duplicated rows tie exactly
    base = anisotropic_rows(seed, n_base, dim)
    copies = data.draw(st.lists(st.integers(0, n_base - 1), max_size=n_base))
    rows = np.vstack([base, base[copies]])
    points = make_embeddings([f"p{i:02d}" for i in range(len(rows))], rows)
    k = data.draw(st.integers(1, len(rows)))
    for normalize in (False, True):
        cfg = KMeansConfig(k=k, seed=seed, normalize=normalize)
        want = oracles.kmeans_lloyd(points.matrix, k, seed, normalize=normalize)
        for block_rows in (1, 7, None):
            with pytest.MonkeyPatch.context() as mp:
                if block_rows is not None:
                    mp.setattr("xtrap.resample._SCREEN_ROWS", block_rows)
                    mp.setattr("xtrap.resample._BLOCK_ELEMENTS", block_rows * dim)
                got = kmeans(points, cfg)
            assert np.array_equal(got.assignment, want[0])
            assert got.centroids.tobytes() == want[1].tobytes()
            assert list(got.history) == want[2]
            assert got.iterations == want[3]


@pytest.mark.parametrize("dim", [12000, 24577])
def test_kmeans_bitwise_for_any_block_size_above_the_einsum_buffer(dim):
    # einsum sums a row of more than 8,192 elements in one pass when the call
    # holds two or more float64 rows; the oracle's one call over all rows
    # does so too, so only the block sizes are compared here
    points = random_embeddings(np.random.default_rng(dim), "p", 40, dim)
    for normalize in (False, True):
        results = set()
        # blocks of one row and of seven rows, then the default blocks
        for block_rows in (1, 7, None):
            with pytest.MonkeyPatch.context() as mp:
                if block_rows is not None:
                    mp.setattr("xtrap.resample._SCREEN_ROWS", block_rows)
                    mp.setattr("xtrap.resample._BLOCK_ELEMENTS", block_rows * dim)
                got = kmeans(points, KMeansConfig(k=3, seed=dim, normalize=normalize))
            results.add((got.assignment.tobytes(), got.centroids.tobytes(), np.array(got.history).tobytes()))
        assert len(results) == 1


def test_kmeans_tol_stops_before_the_fixpoint():
    # seed 8 picks the points 5 and 7; 0..6 go to 5 (6 ties, the lower index
    # wins) and 7 to 7. Iteration 1 moves the centroids to 3 and 7, a shift
    # of 2 < tol, so it stops there although point 5 still changes bucket
    points = make_embeddings([f"p{i}" for i in range(8)], [[float(i)] for i in range(8)])
    result = kmeans(points, KMeansConfig(k=2, seed=8, tol=3.0))
    assert result.iterations == 1
    assert result.assignment.tolist() == [0, 0, 0, 0, 0, 0, 1, 1]
    assert result.centroids.tolist() == [[3.0], [7.0]]
    assert result.history == (56.0, 20.0)
    # without the tol stop the same start reaches its fixpoint at iteration 3
    assert kmeans(points, KMeansConfig(k=2, seed=8, tol=0.0)).iterations == 3


@pytest.mark.parametrize("config, fields, message", [
    (KMeansConfig, {"k": 0}, "k must be >= 1"),
    (KMeansConfig, {"max_iters": 0}, "max_iters must be >= 1"),
    (KMeansConfig, {"tol": -1e-4}, "tol must be >= 0"),
    (ReSTrainConfig, {"target_size": 0}, "target_size must be >= 1"),
    (ReSTrainConfig, {"target_size": 1, "exclude_depth": 0}, "exclude_depth must be >= 1"),
    (ReSTrainConfig, {"target_size": 1, "measure": "l2"}, "unknown similarity measure 'l2'"),
])
def test_configs_reject_invalid_fields(config, fields, message):
    with pytest.raises(ValueError) as exc:
        config(**fields)
    assert type(exc.value) is ValueError and str(exc.value) == message


def neighbor_id_lists(test_emb, train_emb, depth):
    pairs = oracles.knn_all_pairs(
        test_emb.ids, test_emb.matrix, train_emb.ids, train_emb.matrix, depth, "inner_product"
    )
    return [[nid for nid, _ in lst] for _, lst in pairs]


class TestRestrainInterpolation:
    def test_saturation_is_permutation(self, rng):
        train_emb = random_embeddings(rng, "t", 30, 4)
        test_emb = random_embeddings(rng, "q", 5, 4)
        split = restrain_interpolation(train_emb, test_emb, ReSTrainConfig(target_size=30))
        assert sorted(split.training_ids) == sorted(train_emb.ids)
        assert split.test_ids == test_emb.ids
        assert split.regime == "interpolation"

    def test_single_test_query_top3(self, rng):
        train_emb = random_embeddings(rng, "t", 20, 4)
        test_emb = random_embeddings(rng, "q", 1, 4)
        split = restrain_interpolation(train_emb, test_emb, ReSTrainConfig(target_size=3))
        want = neighbor_id_lists(test_emb, train_emb, 3)[0]
        assert list(split.training_ids) == want

    def test_matches_round_robin_oracle(self, rng):
        train_emb = random_embeddings(rng, "t", 50, 6)
        test_emb = random_embeddings(rng, "q", 5, 6)
        split = restrain_interpolation(train_emb, test_emb, ReSTrainConfig(target_size=20))
        want = oracles.round_robin_union(neighbor_id_lists(test_emb, train_emb, 50), 20)
        assert list(split.training_ids) == want

    def test_prefix_monotone_across_targets(self, rng):
        train_emb = random_embeddings(rng, "t", 200, 8)
        test_emb = random_embeddings(rng, "q", 10, 8)
        splits = [
            restrain_interpolation(train_emb, test_emb, ReSTrainConfig(target_size=size))
            for size in (20, 50, 120)
        ]
        assert [len(s.training_ids) for s in splits] == [20, 50, 120]
        assert splits[1].training_ids[:20] == splits[0].training_ids
        assert splits[2].training_ids[:50] == splits[1].training_ids

    def test_split_independent_of_scan_depth(self, rng, monkeypatch):
        # the share count only sets the first scan's depth: exact top-D is a
        # prefix of top-D' for D < D', so the round-robin union is the same
        train_emb = random_embeddings(rng, "t", 300, 8)
        test_emb = random_embeddings(rng, "q", 12, 8)
        depths = []

        def recording_knn(test, train, k, measure):
            depths.append(k)
            return knn(test, train, k, measure=measure)

        monkeypatch.setattr("xtrap.resample.knn", recording_knn)
        # lift the cap on the ranks past the share, which is 0 at 300 rows,
        # so that each share count starts at its own depth
        monkeypatch.setattr("xtrap.resample._SCAN_TRAIN_ROWS_PER_EXTRA_RANK", 1)
        for size in (10, 40, 170, 300):
            splits, first_depths = set(), []
            for shares in (1, 2, 4, 8):
                monkeypatch.setattr("xtrap.resample._SCAN_SHARES", shares)
                depths.clear()
                cfg = ReSTrainConfig(target_size=size)
                splits.add(restrain_interpolation(train_emb, test_emb, cfg).training_ids)
                first_depths.append(depths[0])
            assert len(set(first_depths)) == 4
            assert len(splits) == 1
            assert len(splits.pop()) == size

    @staticmethod
    def _split_and_scans(monkeypatch, train_emb, test_emb, size):
        depths = []

        def counting_knn(test, train, k, measure):
            depths.append(k)
            return knn(test, train, k, measure=measure)

        monkeypatch.setattr("xtrap.resample.knn", counting_knn)
        split = restrain_interpolation(train_emb, test_emb, ReSTrainConfig(target_size=size))
        return list(split.training_ids), depths

    def test_one_scan_when_four_shares_reach_size(self, rng, monkeypatch):
        # 20 nearby test queries share neighbors: the union of their top-2
        # (the share 40 / 20) or top-4 falls short of 40, the union of their
        # top-8 does not, and 4,096 training rows allow 6 ranks past the share
        train_emb = random_embeddings(rng, "t", 4096, 8)
        test_emb = make_embeddings(
            [f"q{i:02d}" for i in range(20)], 1.0 + 0.5 * rng.normal(size=(20, 8))
        )
        oracle = neighbor_id_lists(test_emb, train_emb, 64)
        assert len(oracles.round_robin_union([lst[:4] for lst in oracle], 40)) < 40
        assert len(oracles.round_robin_union([lst[:8] for lst in oracle], 40)) == 40
        got, depths = self._split_and_scans(monkeypatch, train_emb, test_emb, 40)
        assert depths == [8]
        assert got == oracles.round_robin_union(oracle, 40)

    def test_extra_depth_is_capped_by_training_size(self, rng, monkeypatch):
        # q and -q have disjoint top-50 lists, so their share of 100 fills
        # it; 1,024 training rows allow 2 ranks past the share, not 150
        train_emb = random_embeddings(rng, "t", 1024, 4)
        q = rng.normal(size=4)
        test_emb = make_embeddings(["q0", "q1"], [q, -q])
        got, depths = self._split_and_scans(monkeypatch, train_emb, test_emb, 100)
        assert depths == [52]
        assert got == oracles.round_robin_union(neighbor_id_lists(test_emb, train_emb, 52), 100)

    def test_one_test_query_scans_to_size(self, rng, monkeypatch):
        # one list of depth size already holds size ids: the rank past the
        # share that 600 training rows allow is not scanned
        train_emb = random_embeddings(rng, "t", 600, 4)
        test_emb = random_embeddings(rng, "q", 1, 4)
        got, depths = self._split_and_scans(monkeypatch, train_emb, test_emb, 30)
        assert depths == [30]
        assert got == neighbor_id_lists(test_emb, train_emb, 30)[0]

    def test_identical_test_queries_rescan_and_log(self, rng, monkeypatch, caplog):
        # 10 copies of one query have one neighbor list, so the union at the
        # share ceil(50 / 10) = 5 holds 5 ids (200 training rows allow no
        # rank past it): the depth doubles up to the size
        train_emb = random_embeddings(rng, "t", 200, 6)
        test_emb = make_embeddings([f"q{i}" for i in range(10)], np.tile(rng.normal(size=6), (10, 1)))
        with caplog.at_level("INFO", logger="xtrap.resample"):
            got, depths = self._split_and_scans(monkeypatch, train_emb, test_emb, 50)
        assert depths == [5, 10, 20, 40, 50]
        assert got == oracles.round_robin_union(neighbor_id_lists(test_emb, train_emb, 200), 50)
        assert [r.getMessage() for r in caplog.records if r.name == "xtrap.resample"] == [
            "restrain inter: depth 50, 5 knn scan(s), union of 50 for size 50"
        ]

    def test_target_too_large_rejected(self, rng):
        train_emb = random_embeddings(rng, "t", 5, 2)
        test_emb = random_embeddings(rng, "q", 2, 2)
        with pytest.raises(DataError):
            restrain_interpolation(train_emb, test_emb, ReSTrainConfig(target_size=6))


class TestRestrainExtrapolation:
    def test_exclude_everything_rejected(self, rng):
        train_emb = random_embeddings(rng, "t", 10, 3)
        test_emb = random_embeddings(rng, "q", 2, 3)
        cfg = ReSTrainConfig(target_size=1, exclude_depth=10)
        with pytest.raises(DataError) as exc:
            restrain_extrapolation(train_emb, test_emb, cfg)
        assert "max feasible" in str(exc.value)

    def test_leave_one_out(self, rng):
        train_emb = random_embeddings(rng, "t", 12, 4)
        test_emb = random_embeddings(rng, "q", 1, 4)
        cfg = ReSTrainConfig(target_size=11, exclude_depth=1)
        split = restrain_extrapolation(train_emb, test_emb, cfg)
        nearest = neighbor_id_lists(test_emb, train_emb, 1)[0][0]
        assert sorted(split.training_ids) == sorted(set(train_emb.ids) - {nearest})
        assert split.regime == "extrapolation"

    def test_disjoint_from_recomputed_neighborhoods(self, rng):
        train_emb = random_embeddings(rng, "t", 200, 6)
        test_emb = random_embeddings(rng, "q", 10, 6)
        cfg = ReSTrainConfig(target_size=50, exclude_depth=5, seed=17)
        split = restrain_extrapolation(train_emb, test_emb, cfg)
        assert len(split.training_ids) == 50
        excluded = {nid for lst in neighbor_id_lists(test_emb, train_emb, 5) for nid in lst}
        assert not excluded & set(split.training_ids)

    def test_same_seed_reproduces(self, rng):
        train_emb = random_embeddings(rng, "t", 50, 4)
        test_emb = random_embeddings(rng, "q", 4, 4)
        cfg = ReSTrainConfig(target_size=20, exclude_depth=2, seed=5)
        args = (train_emb, test_emb, cfg)
        assert restrain_extrapolation(*args).training_ids == restrain_extrapolation(*args).training_ids


def fixed_knn(index):
    """A `knn` stand-in whose depth-k result is the first k columns of `index`."""

    def fake(test, train, k, measure):
        return index[:, :k], np.zeros((len(index), k))

    return fake


def stub_inputs(n_train, n_test):
    """Embedding sets for a faked `knn`: only the ids matter."""
    return (
        make_embeddings([f"t{i}" for i in range(n_train)], np.zeros((n_train, 1))),
        make_embeddings([f"q{i}" for i in range(n_test)], np.zeros((n_test, 1))),
    )


@settings(max_examples=200, deadline=None)
@given(
    n_train=st.integers(1, 8),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    size_share=st.floats(0.0, 1.0),
)
@example(n_train=6, picks=[0], seed=0, size_share=1.0)  # a single row
@example(n_train=6, picks=[1, 1, 1, 1], seed=0, size_share=1.0)  # every row identical
@example(n_train=6, picks=[0, 1, 2], seed=0, size_share=0.0)  # size 1: a depth-1 scan
def test_interpolation_union_matches_round_robin_oracle(n_train, picks, seed, size_share):
    # each row is one of three permutations of a few training rows, so the
    # rows overlap heavily; a full row holds every id, so any size is reached
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(n_train) for _ in range(3)]
    index = np.asarray([perms[p] for p in picks], dtype=np.intp)
    size = max(1, round(size_share * n_train))
    train_emb, test_emb = stub_inputs(n_train, len(picks))
    with mock.patch("xtrap.resample.knn", fixed_knn(index)):
        split = restrain_interpolation(train_emb, test_emb, ReSTrainConfig(target_size=size))
    want = oracles.round_robin_union([[train_emb.ids[j] for j in row] for row in index.tolist()], size)
    assert list(split.training_ids) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_extrapolation_remaining_ids_in_train_order(n_train, n_test, seed, data):
    rng = np.random.default_rng(seed)
    index = np.asarray([rng.permutation(n_train) for _ in range(n_test)], dtype=np.intp)
    depth = data.draw(st.integers(1, n_train))
    train_emb, test_emb = stub_inputs(n_train, n_test)
    excluded = {train_emb.ids[j] for j in index[:, :depth].ravel().tolist()}
    remaining = [t for t in train_emb.ids if t not in excluded]
    size = data.draw(st.integers(1, max(1, len(remaining))))
    cfg = ReSTrainConfig(target_size=size, exclude_depth=depth, seed=seed)
    with mock.patch("xtrap.resample.knn", fixed_knn(index)):
        if not remaining:
            with pytest.raises(DataError, match="leaves 0 training queries"):
                restrain_extrapolation(train_emb, test_emb, cfg)
            return
        split = restrain_extrapolation(train_emb, test_emb, cfg)
    # the sample is drawn from the remaining ids in train order
    picked = np.random.Generator(np.random.PCG64(seed)).choice(len(remaining), size=size, replace=False)
    assert split.training_ids == tuple(remaining[i] for i in picked.tolist())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 48), st.integers(1, 30), st.integers(1, 4), st.data())
def test_restrain_matches_oracles_on_anisotropic_embeddings(seed, dim, n_base, n_test, data):
    # the real knn on scores that crowd a narrow band, with exact ties
    # between duplicated rows, against the all-pairs oracle's full lists
    rows = anisotropic_rows(seed, n_base + n_test, dim)
    copies = data.draw(st.lists(st.integers(0, n_base - 1), max_size=n_base))
    mat = np.vstack([rows[:n_base], rows[copies]])
    order = data.draw(st.permutations(range(len(mat))))
    train = make_embeddings([f"t{i:02d}" for i in order], mat)
    test = make_embeddings([f"q{i}" for i in range(n_test)], rows[n_base:])
    size = data.draw(st.integers(1, len(train)))
    depth = data.draw(st.integers(1, len(train)))
    for measure in MEASURES:
        pairs = oracles.knn_all_pairs(test.ids, test.matrix, train.ids, train.matrix, len(train), measure)
        neighbors = [[nid for nid, _ in lst] for _, lst in pairs]
        cfg = ReSTrainConfig(target_size=size, exclude_depth=depth, seed=seed, measure=measure)
        split = restrain_interpolation(train, test, cfg)
        assert list(split.training_ids) == oracles.round_robin_union(neighbors, size)
        excluded = {nid for lst in neighbors for nid in lst[:depth]}
        remaining = [t for t in train.ids if t not in excluded]
        if len(remaining) < size:
            with pytest.raises(DataError, match=f"leaves {len(remaining)} training queries"):
                restrain_extrapolation(train, test, cfg)
            continue
        split = restrain_extrapolation(train, test, cfg)
        # the sample is drawn from the ids outside every top-E list, in train order
        picked = np.random.Generator(np.random.PCG64(seed)).choice(len(remaining), size=size, replace=False)
        assert split.training_ids == tuple(remaining[i] for i in picked.tolist())


class TestSplitSpecValidation:
    def test_overlap_rejected(self):
        with pytest.raises(DataError):
            SplitSpec("interpolation", ("a", "b"), ("b",))

    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            SplitSpec("interpolation", ("a", "a"), ("b",))

    def test_unknown_regime_rejected(self):
        with pytest.raises(DataError):
            SplitSpec("weird", ("a",), ("b",))


@pytest.mark.parametrize("build, message", [
    (lambda: SplitSpec("interpolation", ("a",), ("b", "b")), "duplicate [test-interpolation] id b (records 0 and 1)"),
    (lambda: SplitSpec("interpolation", ("a b",), ("c",)),
     "[training] id must be a non-empty token, got 'a b' (record 0)"),
    (lambda: FoldSpec(k=3, buckets=(("a",), ("b",)), train_ids=()), "expected 3 buckets, got 2"),
    (lambda: FoldSpec(k=2, buckets=(("a", "b"), ("c", "b")), train_ids=()),
     "buckets must partition the queries; found a duplicate id b"),
])
def test_spec_rules_name_what_broke_them(build, message):
    with pytest.raises(DataError) as exc:
        build()
    assert str(exc.value) == message


def test_fold_training_ids_are_unique(tmp_path):
    # a repeated training id is as malformed as an id in two buckets; a
    # manifest that repeats one fails to read, naming the file
    message = re.escape("duplicate [training] id a (records 0 and 1)")
    with pytest.raises(DataError, match=f"^{message}$"):
        FoldSpec(k=2, buckets=(("a",), ("b",)), train_ids=("a", "a"))
    path = tmp_path / "folds.txt"
    path.write_text("#regime=resttest\n#k=2\n[training]\na\na\n[bucket 0]\na\n[bucket 1]\nb\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}$"):
        read_manifest(path)


class TestResttestSplit:
    def test_k1_rejected(self, rng):
        train_emb = random_embeddings(rng, "t", 5, 2)
        test_emb = random_embeddings(rng, "q", 2, 2)
        with pytest.raises(ValueError) as exc:
            resttest_split(train_emb, test_emb, KMeansConfig(k=1))
        assert not isinstance(exc.value, DataError)
        assert "k must be >= 2" in str(exc.value)

    def test_two_blobs_fold_semantics(self, rng):
        train_emb, train_blob = blob_points(rng, [(-8.0, -8.0), (8.0, 8.0)], 5, 2, prefix="t")
        test_emb, test_blob = blob_points(rng, [(-8.0, -8.0), (8.0, 8.0)], 2, 2, prefix="q")
        folds = resttest_split(train_emb, test_emb, KMeansConfig(k=2, seed=4))
        bucket_of = folds.bucket_of
        blob_bucket = {b: bucket_of[f"t{b}-000"] for b in (0, 1)}
        assert blob_bucket[0] != blob_bucket[1]
        for b in (0, 1):
            fold = blob_bucket[b]
            other = [i for i in train_emb.ids if train_blob[i] != b]
            assert sorted(folds.fold_training_ids(fold)) == sorted(other)
            extra = [i for i in test_emb.ids if test_blob[i] == b]
            assert sorted(folds.fold_extrapolation_test_ids(fold)) == sorted(extra)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_fold_coverage_invariants(self, rng, k):
        train_emb = random_embeddings(rng, "t", 40, 4)
        test_emb = random_embeddings(rng, "q", 15, 4)
        folds = resttest_split(train_emb, test_emb, KMeansConfig(k=k, seed=21))
        extra_seen = {qid: 0 for qid in test_emb.ids}
        inter_seen = {qid: 0 for qid in test_emb.ids}
        for fold in range(k):
            for qid in folds.fold_extrapolation_test_ids(fold):
                extra_seen[qid] += 1
            for qid in folds.fold_interpolation_test_ids(fold):
                inter_seen[qid] += 1
            bucket = set(folds.buckets[fold])
            assert not bucket & set(folds.fold_training_ids(fold))
        assert all(c == 1 for c in extra_seen.values())
        assert all(c == k - 1 for c in inter_seen.values())

    def test_bucket_without_test_queries_warns(self, rng, caplog):
        train_emb, _ = blob_points(rng, [(-9.0,), (0.0,), (9.0,)], 4, 1, spread=0.2, prefix="t")
        test_emb, _ = blob_points(rng, [(-9.0,), (0.0,)], 2, 1, spread=0.2, prefix="q")
        with caplog.at_level("WARNING"):
            resttest_split(train_emb, test_emb, KMeansConfig(k=3, seed=2))
        assert any("no test queries" in r.message for r in caplog.records)

    def test_id_overlap_rejected(self, rng):
        emb = random_embeddings(rng, "x", 6, 2)
        with pytest.raises(DataError):
            resttest_split(emb, emb, KMeansConfig(k=2))

    def test_dim_mismatch_rejected(self, rng):
        train_emb = random_embeddings(rng, "t", 5, 2)
        test_emb = random_embeddings(rng, "q", 2, 3)
        with pytest.raises(DataError) as exc:
            resttest_split(train_emb, test_emb, KMeansConfig(k=2))
        assert str(exc.value) == "dimension mismatch: test dim 3, train dim 2"

    def test_empty_training_set_rejected(self, rng):
        train_emb = make_embeddings([], np.zeros((0, 2)))
        with pytest.raises(DataError) as exc:
            resttest_split(train_emb, random_embeddings(rng, "q", 4, 2), KMeansConfig(k=2))
        assert str(exc.value) == "training set is empty"


def recall_run(query_hits: dict[str, int], total=5):
    """Run retrieving `hits` of each query's `total` relevant docs r{q}-*."""
    rankings = {}
    for qid, hits in query_hits.items():
        docs = [(f"r{qid}-{i}", float(total - i)) for i in range(hits)]
        docs += [(f"junk{i}", 0.5 - i) for i in range(3)]
        rankings[qid] = docs
    return RunSet(rankings)


def recall_qrels(qids, total=5):
    return QrelSet.from_records([(q, f"r{q}-{i}", 1) for q in qids for i in range(total)])


class TestResttestAggregate:
    def fold_spec(self, buckets, train_ids=()):
        return FoldSpec(k=len(buckets), buckets=tuple(map(tuple, buckets)), train_ids=tuple(train_ids))

    def test_all_ones(self):
        folds = self.fold_spec([("q1",), ("q2",)])
        runs = [recall_run({"q1": 5, "q2": 5}), recall_run({"q1": 5, "q2": 5})]
        report = resttest_aggregate(runs, folds, recall_qrels(["q1", "q2"]), MetricSpec("recall"))
        assert report.interpolation == 1.0
        assert report.extrapolation == 1.0

    def test_k2_single_query(self):
        folds = self.fold_spec([("q1",), ()])
        runs = [recall_run({"q1": 2}), recall_run({"q1": 4})]
        report = resttest_aggregate(runs, folds, recall_qrels(["q1"]), MetricSpec("recall"))
        assert report.extrapolation == pytest.approx(0.4)
        assert report.interpolation == pytest.approx(0.8)

    def test_k3_nested_means_oracle(self):
        qids = [f"q{i}" for i in range(1, 7)]
        folds = self.fold_spec([("q1", "q2"), ("q3", "q4"), ("q5", "q6")])
        hits = [
            {"q1": 1, "q2": 2, "q3": 3, "q4": 4, "q5": 5, "q6": 0},
            {"q1": 2, "q2": 3, "q3": 4, "q4": 5, "q5": 1, "q6": 2},
            {"q1": 3, "q2": 4, "q3": 5, "q4": 0, "q5": 2, "q6": 3},
        ]
        runs = [recall_run(h) for h in hits]
        report = resttest_aggregate(runs, folds, recall_qrels(qids), MetricSpec("recall"))
        # spreadsheet-style expectations
        table = {q: [hits[f][q] / 5 for f in range(3)] for q in qids}
        bucket = {"q1": 0, "q2": 0, "q3": 1, "q4": 1, "q5": 2, "q6": 2}
        extra = {q: table[q][bucket[q]] for q in qids}
        inter = {
            q: sum(table[q][f] for f in range(3) if f != bucket[q]) / 2 for q in qids
        }
        assert report.extrapolation == pytest.approx(sum(extra.values()) / 6, abs=1e-12)
        assert report.interpolation == pytest.approx(sum(inter.values()) / 6, abs=1e-12)
        for q in qids:
            assert report.per_query[q] == (
                pytest.approx(inter[q], abs=1e-12),
                pytest.approx(extra[q], abs=1e-12),
            )

    def test_fold_count_mismatch(self):
        folds = self.fold_spec([("q1",), ("q2",)])
        with pytest.raises(DataError):
            resttest_aggregate([recall_run({"q1": 1})], folds, recall_qrels(["q1"]), MetricSpec("recall"))

    def test_holds_one_run_at_a_time(self):
        folds = self.fold_spec([("q1",), ("q2",), ()])
        hits = [{"q1": 1, "q2": 2}, {"q1": 3, "q2": 4}, {"q1": 5, "q2": 0}]
        held = []

        def fold_runs():
            for h in hits:
                assert all(ref() is None for ref in held), "an earlier run is still referenced"
                run = recall_run(h)
                held.append(weakref.ref(run))
                yield run
                del run

        report = resttest_aggregate(fold_runs(), folds, recall_qrels(["q1", "q2"]), MetricSpec("recall"))
        assert len(held) == 3
        assert report == resttest_aggregate(
            [recall_run(h) for h in hits], folds, recall_qrels(["q1", "q2"]), MetricSpec("recall")
        )

    def test_fold_count_mismatch_from_an_iterable(self):
        folds = self.fold_spec([("q1",), ("q2",)])
        runs = (recall_run({"q1": 1}) for _ in range(3))
        with pytest.raises(DataError, match="expected 2 fold runs, got 3"):
            resttest_aggregate(runs, folds, recall_qrels(["q1"]), MetricSpec("recall"))

    def test_missing_query_scores_zero_with_warning(self, caplog):
        folds = self.fold_spec([("q1",), ("q2",)])
        runs = [recall_run({"q1": 5}), recall_run({"q1": 5, "q2": 5})]
        with caplog.at_level("WARNING"):
            report = resttest_aggregate(runs, folds, recall_qrels(["q1", "q2"]), MetricSpec("recall"))
        # q2 missing from fold-0 run: its interpolation fold is 0 -> scored 0
        assert report.per_query["q2"] == (0.0, 1.0)
        assert any("missing" in r.message for r in caplog.records)

    def test_counts_every_missing_fold_score(self, caplog):
        folds = self.fold_spec([("q1",), ("q2",), ("q3",)])
        runs = [recall_run({"q1": 5, "q2": 5}), recall_run({"q3": 5}), recall_run({"q1": 5, "q2": 5, "q3": 5})]
        with caplog.at_level("WARNING"):
            report = resttest_aggregate(runs, folds, recall_qrels(["q1", "q2", "q3"]), MetricSpec("recall"))
        assert [r.getMessage() for r in caplog.records] == ["3 fold-query scores missing from the runs; scored 0"]
        assert report.per_query == {"q1": (0.5, 1.0), "q2": (1.0, 0.0), "q3": (0.5, 1.0)}

    def test_query_without_judgments_skipped(self):
        folds = self.fold_spec([("q1", "qX"), ("q2",)])
        runs = [recall_run({"q1": 5, "q2": 5}), recall_run({"q1": 5, "q2": 5})]
        report = resttest_aggregate(runs, folds, recall_qrels(["q1", "q2"]), MetricSpec("recall"))
        assert report.skipped_ids == ["qX"]
        assert set(report.per_query) == {"q1", "q2"}

    @pytest.mark.parametrize("kind", ["mrr", "ndcg", "recall"])
    @pytest.mark.parametrize("threshold", [1, 2])
    def test_scores_the_queries_score_run_evaluates(self, kind, threshold):
        # q1: a grade-2 doc; q2: grade-1 docs only; q3: grade 0 only; q4: unjudged
        qrels = QrelSet.from_records(
            [("q1", "a", 2), ("q1", "b", 1), ("q2", "a", 1), ("q2", "c", 1), ("q3", "a", 0)]
        )
        run = RunSet({q: [("a", 2.0), ("b", 1.0)] for q in ("q1", "q2", "q3", "q4")})
        spec = MetricSpec(kind, rel_threshold=threshold)
        folds = self.fold_spec([("q1", "q2"), ("q3", "q4")])
        scored = score_run(run, qrels, spec)
        report = resttest_aggregate([run, run], folds, qrels, spec)
        assert set(report.per_query) == set(scored.per_query)
        assert sorted(report.skipped_ids) == sorted(scored.skipped_ids)
        if kind == "recall":
            assert ("q2" in scored.skipped_ids) == (threshold == 2)


class TestManifest:
    def test_splitspec_roundtrip(self, tmp_path, rng):
        train_emb = random_embeddings(rng, "t", 30, 4)
        test_emb = random_embeddings(rng, "q", 5, 4)
        split = restrain_interpolation(train_emb, test_emb, ReSTrainConfig(target_size=10, seed=9))
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        write_manifest(split, p1)
        back = read_manifest(p1)
        assert back == split
        write_manifest(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.startswith("#regime=interpolation\n#seed=9\n")
        assert "[training]" in text and "[test-interpolation]" in text
        assert "\r" not in text

    def test_foldspec_roundtrip(self, tmp_path, rng):
        train_emb = random_embeddings(rng, "t", 20, 3)
        test_emb = random_embeddings(rng, "q", 8, 3)
        folds = resttest_split(train_emb, test_emb, KMeansConfig(k=3, seed=13))
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        write_manifest(folds, p1)
        back = read_manifest(p1)
        assert back == folds
        write_manifest(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "#regime=resttest"
        assert lines[1] == "#seed=13"
        assert lines[2] == "#k=3"

    def test_extrapolation_section_name(self, tmp_path):
        split = SplitSpec("extrapolation", ("t1",), ("q1",), {"seed": "1"})
        path = tmp_path / "m.txt"
        write_manifest(split, path)
        assert "[test-extrapolation]" in path.read_text()
        assert read_manifest(path) == split

    def test_reserved_prefix_rejected(self, tmp_path):
        split = SplitSpec("interpolation", ("#bad",), ("q1",))
        with pytest.raises(DataError):
            write_manifest(split, tmp_path / "m.txt")

    @pytest.mark.parametrize("bad", ["a\nb", "", "a b", "a\tb", "a\r", "a\u00a0b"])
    def test_non_token_id_rejected_when_built(self, bad):
        # the token rule of every record id, so no spec reaches a manifest
        # with one: "a\nb" would read back as ("a", "b"), "a\r" as "a" and ""
        # as no id at all
        for build, section in ((lambda: SplitSpec("interpolation", (bad,), ("c",)), "[training]"),
                               (lambda: SplitSpec("extrapolation", ("c",), (bad,)), "[test-extrapolation]"),
                               (lambda: FoldSpec(2, (("c",), (bad,)), ("c",)), "[bucket 1]")):
            with pytest.raises(DataError) as exc:
                build()
            assert str(exc.value) == f"{section} id must be a non-empty token, got {bad!r} (record 0)"

    def test_unknown_spec_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="^cannot serialize object$"):
            write_manifest(object(), tmp_path / "m.txt")
        assert list(tmp_path.iterdir()) == []

    def test_splitspec_roundtrip_property(self, tmp_path):
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        token = st.text(
            alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
            min_size=1,
            max_size=10,
        ).filter(lambda s: not s.startswith(("#", "[")))

        @settings(max_examples=50, deadline=None)
        @given(ids=st.lists(token, min_size=1, max_size=12, unique=True), split=st.integers(0, 12))
        def roundtrip(ids, split):
            split = min(split, len(ids))
            spec = SplitSpec(
                regime="extrapolation",
                training_ids=tuple(ids[:split]),
                test_ids=tuple(ids[split:]),
                provenance={"seed": "1", "rng": "pcg64"},
            )
            path = tmp_path / "prop.manifest"
            write_manifest(spec, path)
            assert read_manifest(path) == spec

        roundtrip()

    def test_malformed_manifests(self, tmp_path):
        from xtrap.dataio import ParseError

        cases = {
            "no-regime.txt": "#seed=1\n[training]\na\n",
            "bad-header.txt": "#regime=interpolation\n#oops\n[training]\na\n",
            "orphan-id.txt": "#regime=interpolation\nid-before-section\n",
            "missing-k.txt": "#regime=resttest\n[training]\na\n",
            "missing-bucket.txt": "#regime=resttest\n#k=2\n[training]\n[bucket 0]\na\n",
        }
        for name, content in cases.items():
            path = tmp_path / name
            path.write_text(content)
            with pytest.raises(ParseError):
                read_manifest(path)

    @pytest.mark.parametrize("text, where, message", [
        ("#regime=interpolation\n[training]\na\n#seed=1\n", ":4", "header line after a section started"),
        ("#regime=interpolation\n[training]\na\n[training]\nb\n", ":4", "duplicate section [training]"),
        ("#regime=interpolation\n#seed=1\n#seed=2\n[training]\n", ":3", "duplicate header #seed"),
        ("#regime=extrapolation\n#regime=interpolation\n[training]\n", ":2", "duplicate header #regime"),
        ("#regime=resttest\n#k=x\n[training]\n", ":2", "#k must be an integer"),
        *((f"#regime=resttest\n#k={k}\n[training]\n[bucket 0]\na\n[bucket 1]\nb\n", ":2",
           "k must be >= 2: a single bucket leaves no training data") for k in ("1", "0", "-1")),
        ("#regime=sideways\n[training]\n", ":1", "unknown regime 'sideways'"),
    ])
    def test_malformed_manifest_messages(self, tmp_path, text, where, message):
        from xtrap.dataio import ParseError

        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_manifest(path)
        assert str(exc.value) == f"{path}{where}: {message}"


# manifests whose ids `write_manifest` refuses, as (text, message); each
# whitespace kind once in a training, a test and a bucket section
UNWRITABLE_MANIFESTS = {
    f"{section}-U+{ord(ws):04X}": case
    for ws in [" ", "\t", "\x0b", "\x85", "\xa0"]
    for section, case in [
        ("training", (f"#regime=extrapolation\n[training]\nt0\nt{ws}1\n[test-extrapolation]\nq1\n",
                      f"[training] id must be a non-empty token, got {f't{ws}1'!r} (record 1)")),
        ("test", (f"#regime=interpolation\n[training]\nt1\n[test-interpolation]\nq{ws}1\n",
                  f"[test-interpolation] id must be a non-empty token, got {f'q{ws}1'!r} (record 0)")),
        ("bucket", (f"#regime=resttest\n#k=2\n[training]\nt1\n[bucket 0]\nt1\n[bucket 1]\nq{ws}1\n",
                    f"[bucket 1] id must be a non-empty token, got {f'q{ws}1'!r} (record 0)")),
    ]
}
UNWRITABLE_MANIFESTS["reserved-prefix"] = (
    "#regime=interpolation\n[training]\n[x\n[test-interpolation]\nq1\n",
    "id '[x' cannot be written to a manifest (reserved prefix)",
)
UNWRITABLE_MANIFESTS["carriage-return-in-header"] = (
    "#regime=interpolation\n#note=a\rb\n[training]\n[test-interpolation]\nq1\n",
    "provenance 'note'='a\\rb' cannot be written to a manifest header",
)


@pytest.mark.parametrize("name", UNWRITABLE_MANIFESTS)
def test_read_manifest_refuses_what_write_manifest_refuses(tmp_path, name):
    text, message = UNWRITABLE_MANIFESTS[name]
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as exc:
        read_manifest(path)
    assert str(exc.value) == f"{path}: {message}"


# id lines that probe every line kind the reader tells apart
_ID_LINE = st.text(st.sampled_from(["a", "b", " ", "\t", "\x0b", "\x85", "\xa0", "\r", "#", "=", "[", "]"]),
                   max_size=4) | st.sampled_from(["[training]", "[bucket 0]", "[bucket 1]", "[test-interpolation]"])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["interpolation", "extrapolation", "resttest"]), st.lists(_ID_LINE, max_size=4),
       st.lists(_ID_LINE, max_size=4), st.lists(_ID_LINE, max_size=4))
def test_every_manifest_read_writes_back(tmp_path_factory, regime, training, first, second):
    # a canonical layout with arbitrary id lines: the reader either refuses
    # the file or returns a spec that writes and reads back equal
    if regime == "resttest":
        sections = [("training", training), ("bucket 0", training + first), ("bucket 1", second)]
        headers = ["#regime=resttest", "#k=2"]
    else:
        sections = [("training", training), (f"test-{regime}", first + second)]
        headers = [f"#regime={regime}"]
    lines = headers + [line for name, ids in sections for line in [f"[{name}]", *ids]]
    tmp = tmp_path_factory.mktemp("roundtrip")
    path = tmp / "m.txt"
    path.write_bytes("\n".join(lines).encode() + b"\n")
    try:
        spec = read_manifest(path)
    except ParseError:
        return
    write_manifest(spec, tmp / "back.txt")
    assert read_manifest(tmp / "back.txt") == spec


# provenance text that probes the header syntax: `=`, both line breaks, a
# `#`, the reserved keys, and `seed`, which is written first
_HEADER_TEXT = st.text(st.sampled_from(["a", "k", "=", "#", " ", "\n", "\r"]), max_size=3) | st.sampled_from(
    ["regime", "k", "seed"])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["interpolation", "extrapolation", "resttest"]),
       st.lists(st.sampled_from(["t1", "t2", "q1", "q2", "#x", "[y"]), min_size=2, unique=True),
       st.integers(0, 6), st.dictionaries(_HEADER_TEXT, _HEADER_TEXT, max_size=3))
def test_every_written_manifest_reads_back(tmp_path_factory, regime, ids, cut, provenance):
    # a spec either writes and reads back equal, or is refused with the
    # target untouched, and only for a header or an id that would not read
    # back as written
    cut = min(cut, len(ids) - 1)
    if regime == "resttest":
        spec = FoldSpec(2, (tuple(ids[:cut + 1]), tuple(ids[cut + 1:])), tuple(ids[:cut]), provenance)
    else:
        spec = SplitSpec(regime, tuple(ids[:cut]), tuple(ids[cut:]), provenance)
    reserved = ("regime", "k") if regime == "resttest" else ("regime",)
    refused = any(key in reserved or "=" in key or {"\n", "\r"} & {*key, *value} for key, value in
                  provenance.items()) or any(i.startswith(("#", "[")) for i in ids)
    tmp = tmp_path_factory.mktemp("provenance")
    path = tmp / "m.txt"
    path.write_bytes(b"old\n")
    if refused:
        with pytest.raises(DataError):
            write_manifest(spec, path)
        assert path.read_bytes() == b"old\n"
        assert list(tmp.iterdir()) == [path]
    else:
        write_manifest(spec, path)
        assert read_manifest(path) == spec
