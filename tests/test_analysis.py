import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_embeddings, random_embeddings
from xtrap import analysis
from xtrap.dataio import DataError, ParseError, QrelSet
from xtrap.analysis import (
    DEFAULT_THRESHOLDS,
    GradeThreshold,
    _pca,
    cohens_kappa,
    kendall_tau_b,
    pca_components,
    pca_project,
    read_labels,
    read_pairs,
    relevant_overlap,
    spearman,
    write_overlap_report,
)


def qrels_from(triples):
    return QrelSet.from_records(triples)


class TestGradeThreshold:
    def test_parse(self):
        assert GradeThreshold.parse("geq:2") == GradeThreshold("geq", 2)
        assert GradeThreshold.parse("eq:3") == GradeThreshold("eq", 3)

    def test_parse_errors(self):
        for bad in ("gte:2", "geq", "geq:x"):
            with pytest.raises(ValueError):
                GradeThreshold.parse(bad)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match=r"^threshold value must be >= 0$"):
            GradeThreshold("geq", -1)

    def test_matches(self):
        assert GradeThreshold("geq", 2).matches(3)
        assert not GradeThreshold("geq", 2).matches(1)
        assert GradeThreshold("eq", 3).matches(3)
        assert not GradeThreshold("eq", 3).matches(2)


class TestRelevantOverlap:
    def test_disjoint_universes(self):
        test = qrels_from([("q1", "a", 3), ("q2", "b", 2)])
        train = qrels_from([("t1", "x", 1), ("t2", "y", 1)])
        report = relevant_overlap(test, train)
        assert all(row.count == 0 for row in report)

    def test_full_overlap(self):
        test = qrels_from([("q1", "a", 3), ("q2", "b", 3)])
        train = qrels_from([("t1", "a", 1), ("t2", "b", 1)])
        report = relevant_overlap(test, train)
        assert all(row.count == 2 and row.percent == 100.0 for row in report)

    def test_grade_zero_training_doc_does_not_count(self):
        test = qrels_from([("q1", "a", 3)])
        train = qrels_from([("t1", "a", 0)])
        report = relevant_overlap(test, train)
        assert all(row.count == 0 for row in report)

    def test_thresholds_select_different_queries(self):
        test = qrels_from(
            [("q1", "a", 3), ("q2", "b", 2), ("q3", "c", 1), ("q4", "d", 3)]
        )
        train = qrels_from([("t", "a", 1), ("t", "b", 1), ("t", "c", 1)])
        report = relevant_overlap(test, train, DEFAULT_THRESHOLDS)
        by_label = {row.threshold.label: row.count for row in report}
        assert by_label == {"geq:1": 3, "geq:2": 2, "eq:3": 1}

    def test_monotone_in_threshold(self, rng):
        for _ in range(10):
            test_triples = [
                (f"q{i}", f"d{int(rng.integers(0, 30)):02d}", int(rng.integers(0, 4)))
                for i in range(20)
            ]
            train_triples = [
                (f"t{i}", f"d{int(rng.integers(0, 30)):02d}", int(rng.integers(0, 2)))
                for i in range(30)
            ]
            report = relevant_overlap(
                qrels_from(test_triples),
                qrels_from(train_triples),
                [GradeThreshold("geq", 1), GradeThreshold("geq", 2), GradeThreshold("geq", 3)],
            )
            counts = [row.count for row in report]
            assert counts[0] >= counts[1] >= counts[2]

    def test_empty_test_qrels_rejected(self):
        with pytest.raises(DataError):
            relevant_overlap(QrelSet({}), qrels_from([("t", "a", 1)]))

    def test_tsv_format(self, tmp_path):
        test = qrels_from([("q1", "a", 3), ("q2", "b", 1)])
        train = qrels_from([("t1", "a", 1)])
        report = relevant_overlap(test, train)
        out = tmp_path / "overlap.tsv"
        write_overlap_report(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "geq:1\t1\t2\t50.00"
        assert lines[2] == "eq:3\t1\t2\t50.00"


class TestSpearman:
    def test_perfect_positive(self):
        assert spearman([("a", 1, 10), ("b", 2, 20), ("c", 3, 30)]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert spearman([("a", 1, 30), ("b", 2, 20), ("c", 3, 10)]) == pytest.approx(-1.0)

    def test_hand_case(self):
        pairs = [("a", 1, 2), ("b", 2, 1), ("c", 3, 4), ("d", 4, 3), ("e", 5, 5)]
        assert spearman(pairs) == pytest.approx(0.8, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError):
            spearman([("a", 1, 5), ("b", 2, 5), ("c", 3, 5)])

    def test_too_few_pairs(self):
        with pytest.raises(DataError):
            spearman([("a", 1, 2)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DataError, match=r"^correlation inputs must be finite$"):
            spearman([("a", 1.0, 2.0), ("b", bad, 3.0), ("c", 3.0, 1.0)])

    def test_monotone_transform_invariance(self, rng):
        xs = rng.normal(size=20)
        ys = rng.normal(size=20)
        pairs = [(f"m{i}", float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]
        transformed = [(l, float(np.exp(x)), float(y**3 + 5 * y)) for l, x, y in pairs]
        assert spearman(transformed) == pytest.approx(spearman(pairs), abs=1e-12)

    def test_ties_match_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 15))
            xs = rng.integers(0, 5, size=n).astype(float)
            ys = rng.integers(0, 5, size=n).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            pairs = [(f"m{i}", float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]
            assert spearman(pairs) == pytest.approx(oracles.spearman_brute(xs, ys), abs=1e-12)


class TestKendall:
    def test_monotone_distinct(self):
        pairs = [("a", 1, 2), ("b", 2, 5), ("c", 3, 9), ("d", 4, 11)]
        assert kendall_tau_b(pairs) == pytest.approx(1.0)

    def test_one_inversion(self):
        pairs = [("a", 1, 1), ("b", 2, 2), ("c", 3, 4), ("d", 4, 3)]
        assert kendall_tau_b(pairs) == pytest.approx(4.0 / 6.0, abs=1e-12)

    def test_all_ties_rejected(self):
        with pytest.raises(DataError):
            kendall_tau_b([("a", 1, 1), ("b", 1, 2)])

    def test_random_tied_inputs_match_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 16))
            xs = rng.integers(0, 6, size=n).astype(float)
            ys = rng.integers(0, 6, size=n).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            pairs = [(f"m{i}", float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]
            assert kendall_tau_b(pairs) == pytest.approx(
                oracles.kendall_brute(xs, ys), abs=1e-12
            )

    def test_memory_is_linear_in_pairs(self, rng):
        # an n x n pair matrix at 5k pairs would take 200 MB per copy
        xs = rng.integers(0, 50, size=5000)
        ys = xs + rng.integers(0, 50, size=5000)
        pairs = [(f"m{i}", float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]
        tracemalloc.start()
        try:
            tau = kendall_tau_b(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert 0.0 < tau < 1.0

    def test_monotone_transform_invariance(self, rng):
        xs = rng.normal(size=15)
        ys = rng.normal(size=15)
        pairs = [(f"m{i}", float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]
        transformed = [(l, float(2 * x + 1), float(np.expm1(y))) for l, x, y in pairs]
        assert kendall_tau_b(transformed) == pytest.approx(kendall_tau_b(pairs), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]), st.sampled_from([-0.0, 0.0, 1.0, 2.0])),
            min_size=2,
            max_size=40,
        )
    )
    @example(pairs=[(0.0, 1.0), (-0.0, 2.0), (0.0, 1.0)])  # x all tied: undefined
    @example(pairs=[(1.0, 0.0), (2.0, -0.0), (3.0, 0.0), (0.0, 1.0)])  # -0.0 ties with 0.0
    def test_knight_is_bitwise_the_quadratic_loop(self, pairs):
        labeled = [(f"m{i}", x, y) for i, (x, y) in enumerate(pairs)]
        try:
            expected = oracles.kendall_tau_b_quadratic(labeled)
        except DataError as e:
            with pytest.raises(DataError) as raised:
                kendall_tau_b(labeled)
            assert str(raised.value) == str(e)
            return
        got = kendall_tau_b(labeled)
        assert got.hex() == expected.hex()
        assert got == pytest.approx(oracles.kendall_brute(*zip(*pairs)), abs=1e-12)

    def test_knight_matches_the_quadratic_loop_on_large_inputs(self, rng):
        for n, levels in ((2, 2), (3, 1), (1000, 7), (4097, 40), (3000, 10**6)):
            xs = rng.integers(0, levels, size=n).astype(float)
            ys = (xs + rng.integers(0, levels, size=n)).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                ys[0], xs[0] = ys[0] + 1.0, xs[0] + 1.0
            pairs = [(f"m{i}", float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]
            assert kendall_tau_b(pairs).hex() == oracles.kendall_tau_b_quadratic(pairs).hex()


class TestKappa:
    def test_identical_raters(self):
        assert cohens_kappa(list("xyxy"), list("xyxy")) == 1.0

    def test_hand_zero(self):
        assert cohens_kappa(list("xxyy"), list("xyxy")) == pytest.approx(0.0, abs=1e-12)

    def test_hand_half(self):
        assert cohens_kappa(list("xxxy"), list("xxyy")) == pytest.approx(0.5, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            cohens_kappa(["x"], ["x", "y"])

    def test_empty(self):
        with pytest.raises(DataError):
            cohens_kappa([], [])

    def test_both_constant_and_equal(self):
        assert cohens_kappa(["x", "x"], ["x", "x"]) == 1.0

    def test_never_exceeds_one(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 12))
            a = rng.choice(list("abc"), size=n).tolist()
            b = rng.choice(list("abc"), size=n).tolist()
            try:
                kappa = cohens_kappa(a, b)
            except DataError:
                continue
            assert kappa <= 1.0 + 1e-12
            if a == b:
                assert kappa == pytest.approx(1.0)

    def test_hand_rounds_once(self):
        # 11/32 exactly; rounding p_o, p_e and their quotient apart gave
        # 0.34374999999999994, which a 4-decimal report printed as 0.3437
        assert cohens_kappa(list("xxzyyzx"), list("xxxzyzz")) == 0.34375

    @settings(max_examples=300, deadline=None)
    @example(pairs=list(zip("xxzyyzx", "xxxzyzz")))
    @given(pairs=st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from("xyz")), min_size=1, max_size=40))
    def test_equals_exact_rational_rounded(self, pairs):
        a, b = (list(labels) for labels in zip(*pairs))
        n = len(a)
        observed = Fraction(sum(x == y for x, y in pairs), n)
        expected = sum(Fraction(a.count(c) * b.count(c), n * n) for c in set(a))
        want = 1.0 if expected == 1 else float((observed - expected) / (1 - expected))
        assert cohens_kappa(a, b) == want


@st.composite
def pca_inputs(draw):
    """(rows, out_dims): float32 values with -0.0, subnormals and +-1e30, the
    rows drawn from a small pool, so that rows repeat."""
    values = st.one_of(st.sampled_from([0.0, -0.0, 1e-45, -1e-40, 1e30, -1e30]), st.floats(-1e3, 1e3, width=32))
    dim = draw(st.integers(1, 6))
    pool = draw(st.lists(st.lists(values, min_size=dim, max_size=dim), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=14))
    return [pool[i] for i in picks], draw(st.integers(1, dim))


class TestPca:
    def test_axis_recovery(self, rng):
        mat = np.zeros((30, 3), dtype=np.float32)
        mat[:, 1] = rng.normal(size=30)
        points = make_embeddings([f"p{i}" for i in range(30)], mat)
        components, eigenvalues = pca_components(points, 2)
        np.testing.assert_allclose(np.abs(components[0]), [0, 1, 0], atol=1e-9)
        assert eigenvalues[0] > 0
        assert eigenvalues[1] == pytest.approx(0.0, abs=1e-9)

    def test_full_rank_projection_preserves_distances(self, rng):
        mat = rng.normal(size=(25, 2)).astype(np.float32)
        points = make_embeddings([f"p{i}" for i in range(25)], mat)
        proj = pca_project(points, 2)
        assert proj.shape == (25, 2) and proj.dtype == np.float64
        orig = mat.astype(np.float64)
        for i in range(0, 25, 5):
            for j in range(25):
                want = np.linalg.norm(orig[i] - orig[j])
                got = np.linalg.norm(proj[i] - proj[j])
                assert got == pytest.approx(want, abs=1e-6)

    def test_matches_dense_eigensolver(self, rng):
        mat = rng.normal(size=(100, 8)).astype(np.float32)
        points = make_embeddings([f"p{i}" for i in range(100)], mat)
        components, eigenvalues = pca_components(points, 2)
        X = mat.astype(np.float64)
        X -= X.mean(axis=0)
        cov = X.T @ X / (len(X) - 1)
        want = np.linalg.eigh(cov)[0][::-1]
        assert eigenvalues[0] == pytest.approx(want[0], abs=1e-6)
        assert eigenvalues[1] == pytest.approx(want[1], abs=1e-6)

    def test_components_orthonormal(self, rng):
        mat = rng.normal(size=(60, 6)).astype(np.float32)
        points = make_embeddings([f"p{i}" for i in range(60)], mat)
        components, _ = pca_components(points, 3)
        gram = components @ components.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_sign_convention(self, rng):
        mat = rng.normal(size=(40, 5)).astype(np.float32)
        points = make_embeddings([f"p{i}" for i in range(40)], mat)
        components, _ = pca_components(points, 2)
        for row in components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_validations(self, rng):
        single = make_embeddings(["a"], [[1.0, 2.0]])
        with pytest.raises(DataError):
            pca_components(single, 1)
        pair = make_embeddings(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DataError):
            pca_components(pair, 3)

    def test_projection_deterministic(self, rng):
        mat = rng.normal(size=(30, 4)).astype(np.float32)
        points = make_embeddings([f"p{i}" for i in range(30)], mat)
        a = pca_project(points, 2)
        b = pca_project(points, 2)
        assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(inputs=pca_inputs(), chunk=st.sampled_from(["dim", "3 dim", "default"]))
    @example(inputs=([[-0.0, -0.0]] * 3, 1), chunk="dim")
    @example(inputs=([[1e30, -1e-45, 0.0], [-1e30, 1e-40, 1.0], [1e30, -1e-45, 0.0]], 2), chunk="3 dim")
    def test_passes_are_bitwise_the_float64_copies(self, inputs, chunk):
        rows, out_dims = inputs
        points = make_embeddings([f"p{i}" for i in range(len(rows))], rows)
        dim = points.dim
        elements = {"dim": dim, "3 dim": 3 * dim, "default": analysis._CHUNK_ELEMENTS}[chunk]
        want = oracles.pca_float64_copies(points, out_dims, max(1, elements // dim))
        with mock.patch.object(analysis, "_CHUNK_ELEMENTS", elements):
            mean, components, eigenvalues = _pca(points, out_dims)
            projection = pca_project(points, out_dims)
        assert mean.tobytes() == want[0].tobytes()
        assert components.tobytes() == want[1].tobytes()
        assert [v.hex() for v in eigenvalues] == [v.hex() for v in want[2]]
        assert projection.tobytes() == want[3].tobytes()

    def test_project_peak_below_two_chunks(self, rng, monkeypatch):
        # one float64 chunk buffer per pass, plus the projection's rows and
        # numpy's cast buffers: a second live chunk would break the bound
        points = random_embeddings(rng, "p", 5000, 64)
        monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", 1000 * 64)
        tracemalloc.start()
        try:
            pca_project(points, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 1000 * 64 * 8


class TestFileFormats:
    def test_read_pairs(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("model-a\t0.5\t0.7\nmodel-b\t0.6\t0.8\n")
        assert read_pairs(path) == [("model-a", 0.5, 0.7), ("model-b", 0.6, 0.8)]

    def test_read_pairs_errors(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\t1\n")
        with pytest.raises(ParseError):
            read_pairs(bad)
        bad.write_text("a\tx\t2\n")
        with pytest.raises(ParseError):
            read_pairs(bad)
        bad.write_text("a\tinf\t2\n")
        with pytest.raises(ParseError):
            read_pairs(bad)
        bad.write_text("a\t1_0\t2\n")
        with pytest.raises(ParseError):
            read_pairs(bad)
        bad.write_text("a\t1\t\u0662\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_pairs(bad)

    def test_read_labels(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("item1\tfull\nitem2\tzero\n")
        assert list(read_labels(path).items()) == [("item1", "full"), ("item2", "zero")]
        path.write_text("item1\tfull\nitem1\tzero\n")
        with pytest.raises(ParseError):
            read_labels(path)
        for text, message in (("item1\tfull\nitem2\t\n", "2: empty label"), ("\tfull\n", "1: empty item id")):
            path.write_text(text)
            with pytest.raises(ParseError) as exc:
                read_labels(path)
            assert str(exc.value) == f"{path}:{message}"
