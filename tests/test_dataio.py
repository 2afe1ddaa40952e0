import ast
import logging
import os
import re
import stat
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import xtrap
from xtrap import dataio
from xtrap.dataio import (
    EMBEDDING_MAGIC,
    DataError,
    EmbeddingSet,
    ParseError,
    QrelSet,
    QuerySet,
    RunSet,
    parse_qrels,
    parse_queries,
    parse_run,
    read_embeddings,
    write_embeddings,
    write_qrels,
    write_queries,
    write_run,
)

from conftest import make_embeddings, make_queries
from xtrap.analysis import read_labels, read_pairs
from xtrap.resample import read_manifest


def write_text(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return path


@pytest.mark.parametrize("name, builtin, refusal", [
    ("_int", int, "invalid literal for int() with base 10: {!r}"),
    ("_float", float, "could not convert string to float: {!r}"),
])
def test_number_helpers_are_the_builtins_under_the_number_rule(name, builtin, refusal):
    parse = getattr(dataio, name)
    for text in ["7", "-3", " 12 ", "+0"]:
        assert type(parse(text)) is builtin and parse(text) == builtin(text)
    # the builtin's own message for what both refuse and for what only the rule refuses
    for text in ["x", "1_0", "\u0661", "\uff12"]:
        with pytest.raises(ValueError) as exc:
            parse(text)
        assert str(exc.value) == refusal.format(text)


class TestParseQueries:
    def test_single_record(self, tmp_path):
        qs = parse_queries(write_text(tmp_path, "q.tsv", "7\thow tall is everest\n"))
        assert list(qs) == [("7", "how tall is everest")]

    def test_duplicate_id_names_id_and_line(self, tmp_path):
        path = write_text(tmp_path, "q.tsv", "1\ta\n1\tb\n")
        with pytest.raises(ParseError) as exc:
            parse_queries(path)
        assert "duplicate query id 1" in str(exc.value)
        assert ":2:" in str(exc.value)

    def test_empty_text_allowed(self, tmp_path):
        qs = parse_queries(write_text(tmp_path, "q.tsv", "1\t\n2\tx\n"))
        assert len(qs) == 2
        assert qs.text("1") == ""
        assert qs.text("2") == "x"

    def test_missing_tab_reports_line(self, tmp_path):
        path = write_text(tmp_path, "q.tsv", "1\ta\nno-tab-here\n")
        with pytest.raises(ParseError) as exc:
            parse_queries(path)
        assert ":2:" in str(exc.value)

    def test_crlf_and_blank_lines(self, tmp_path):
        qs = parse_queries(write_text(tmp_path, "q.tsv", "1\ta\r\n\r\n\n2\tb\r\n"))
        assert qs.ids == ("1", "2")
        assert qs.text("1") == "a"

    def test_whitespace_in_id_rejected(self, tmp_path):
        path = write_text(tmp_path, "q.tsv", "a b\ttext\n")
        with pytest.raises(ParseError):
            parse_queries(path)

    def test_order_preserved(self, tmp_path):
        qs = parse_queries(write_text(tmp_path, "q.tsv", "9\tz\n1\ta\n5\tm\n"))
        assert qs.ids == ("9", "1", "5")

    def test_roundtrip_canonical(self, tmp_path):
        path = write_text(tmp_path, "q.tsv", "9\tsome text\n1\t\xe9l\xe9phant\n")
        qs = parse_queries(path)
        out1 = tmp_path / "o1.tsv"
        out2 = tmp_path / "o2.tsv"
        write_queries(qs, out1)
        write_queries(parse_queries(out1), out2)
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("text", ["x\ny", "x\r\ny", "\n", "x\r"])
    def test_unreadable_text_refused_before_writing(self, tmp_path, text):
        # the reader would split the text over two records or drop its final "\r"
        queries = QuerySet(["b", "a"], ["z", text])
        with pytest.raises(DataError, match="^cannot serialize the text of query a: "):
            write_queries(queries, tmp_path / "q.tsv")
        assert list(tmp_path.iterdir()) == []
        old = write_text(tmp_path, "old.tsv", "old\tcontents\n")
        with pytest.raises(DataError):
            write_queries(queries, old)
        assert old.read_bytes() == b"old\tcontents\n"
        assert list(tmp_path.iterdir()) == [old]

    def test_inner_carriage_return_round_trips(self, tmp_path):
        queries = QuerySet(["a"], ["x\ry\t z"])
        write_queries(queries, tmp_path / "q.tsv")
        assert parse_queries(tmp_path / "q.tsv") == queries


class TestParseQrels:
    def test_single_record(self, tmp_path):
        qrels = parse_qrels(write_text(tmp_path, "q.txt", "q1 0 d9 2\n"))
        assert qrels.docs("q1")["d9"] == 2

    def test_last_record_wins_with_counter(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            qrels = parse_qrels(write_text(tmp_path, "q.txt", "q1 0 d9 2\nq1 0 d9 3\n"))
        assert qrels.docs("q1")["d9"] == 3
        assert qrels.overwrites == 1
        assert any("duplicate" in r.message for r in caplog.records)

    def test_non_integer_grade(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_qrels(write_text(tmp_path, "q.txt", "q1 Q0 d9 two\n"))
        assert ":1:" in str(exc.value)

    def test_too_few_fields(self, tmp_path):
        with pytest.raises(ParseError):
            parse_qrels(write_text(tmp_path, "q.txt", "q1 0 d9\n"))

    @pytest.mark.parametrize("grade", ["1_0", "\u0661", "\uff11"])
    def test_grade_in_python_only_syntax_rejected(self, tmp_path, grade):
        # int() reads '1_0' as 10 and the Arabic-Indic and fullwidth digits as 1
        path = write_text(tmp_path, "q.txt", f"q1 0 d8 1\nq1 0 d9 {grade}\n")
        with pytest.raises(ParseError) as exc:
            parse_qrels(path)
        assert str(exc.value) == f"{path}:2: relevance grade must be an integer, got {grade!r}"

    def test_ids_keep_underscores_and_non_ascii(self, tmp_path):
        qrels = parse_qrels(write_text(tmp_path, "q.txt", "q_1 0 d\u00e9_9 2\n"))
        assert qrels.docs("q_1") == {"d\u00e9_9": 2}

    def test_negative_grade_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_qrels(write_text(tmp_path, "q.txt", "q1 0 d9 -1\n"))

    def test_large_grade_warns(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            parse_qrels(write_text(tmp_path, "q.txt", "q1 0 d9 7\n"))
        assert any("exceed 3" in r.message for r in caplog.records)

    def test_tab_separated_accepted(self, tmp_path):
        qrels = parse_qrels(write_text(tmp_path, "q.txt", "q1\t0\td9\t1\n"))
        assert qrels.docs("q1")["d9"] == 1

    def test_roundtrip_canonical(self, tmp_path):
        path = write_text(tmp_path, "q.txt", "q2 0 d1 3\nq1 0 d2 0\nq1 0 d1 2\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        write_qrels(parse_qrels(path), out1)
        write_qrels(parse_qrels(out1), out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestParseRun:
    def test_sorted_by_score_desc(self, tmp_path):
        run = parse_run(
            write_text(tmp_path, "r.txt", "q1 Q0 dA 1 1.5 t\nq1 Q0 dB 2 2.5 t\n")
        )
        assert [d for d, _ in run.ranking("q1")] == ["dB", "dA"]

    def test_tie_breaks_by_doc_id(self, tmp_path):
        run = parse_run(
            write_text(tmp_path, "r.txt", "q1 Q0 dB 1 1.0 t\nq1 Q0 dA 2 1.0 t\n")
        )
        assert [d for d, _ in run.ranking("q1")] == ["dA", "dB"]

    def test_rank_contradiction_warns(self, tmp_path, caplog):
        content = "q1 Q0 dA 2 9.0 t\nq1 Q0 dB 1 1.0 t\n"
        with caplog.at_level("WARNING"):
            run = parse_run(write_text(tmp_path, "r.txt", content))
        assert [d for d, _ in run.ranking("q1")] == ["dA", "dB"]
        assert any("contradicts" in r.message for r in caplog.records)

    def test_consistent_ranks_do_not_warn(self, tmp_path, caplog):
        content = "q1 Q0 dA 1 9.0 t\nq1 Q0 dB 2 1.0 t\n"
        with caplog.at_level("WARNING"):
            parse_run(write_text(tmp_path, "r.txt", content))
        assert not any("contradicts" in r.message for r in caplog.records)

    def test_duplicate_pair_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_run(write_text(tmp_path, "r.txt", "q1 Q0 dA 1 2.0 t\nq1 Q0 dA 2 1.0 t\n"))

    def test_non_finite_score_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_run(write_text(tmp_path, "r.txt", "q1 Q0 dA 1 nan t\n"))

    def test_field_count_enforced(self, tmp_path):
        with pytest.raises(ParseError):
            parse_run(write_text(tmp_path, "r.txt", "q1 Q0 dA 1 2.0\n"))

    def test_non_numeric_score_names_the_field(self, tmp_path):
        path = write_text(tmp_path, "r.txt", "q1 Q0 dA 1 2.0 t\nq1 Q0 dB 2 abc t\n")
        with pytest.raises(ParseError) as exc:
            parse_run(path)
        assert str(exc.value) == f"{path}:2: score must be a number, got 'abc'"

    @pytest.mark.parametrize("rank, score, message", [
        ("1", "1_000", "score must be a number, got '1_000'"),
        ("1", "\uff12.5", "score must be a number, got '\uff12.5'"),
        ("1_0", "2.5", "rank must be an integer, got '1_0'"),
        ("\u0661", "2.5", "rank must be an integer, got '\u0661'"),
    ])
    def test_number_in_python_only_syntax_rejected(self, tmp_path, rank, score, message):
        # float('1_000') is 1000, which would rank d1 above d2; trec_eval's atof reads 1
        path = write_text(tmp_path, "r.txt", f"q1 Q0 d2 1 2.0 t\nq1 Q0 d1 {rank} {score} t\n")
        with pytest.raises(ParseError) as exc:
            parse_run(path)
        assert str(exc.value) == f"{path}:2: {message}"

    def test_ids_and_tag_keep_underscores_and_non_ascii(self, tmp_path):
        run = parse_run(write_text(tmp_path, "r.txt", "q_1 Q0 d\u00e9_1 1 2.5 my_r\u00fcn\n"))
        assert run.ranking("q_1") == (("d\u00e9_1", 2.5),)
        assert run.tag == "my_r\u00fcn"

    def test_ordering_is_permutation_invariant(self, tmp_path, rng):
        lines = [
            f"q{i % 3} Q0 d{j:02d} {j} {score} tag"
            for i, (j, score) in enumerate(
                (j, round(float(s), 3)) for j, s in enumerate(rng.normal(size=30))
            )
        ]
        base = parse_run(write_text(tmp_path, "a.txt", "\n".join(lines) + "\n"))
        for trial in range(5):
            shuffled = list(lines)
            rng.shuffle(shuffled)
            other = parse_run(write_text(tmp_path, f"b{trial}.txt", "\n".join(shuffled) + "\n"))
            assert other == base

    def test_roundtrip_canonical(self, tmp_path):
        path = write_text(
            tmp_path, "r.txt", "q1 Q0 dB 1 0.30000000000000004 t\nq1 Q0 dA 2 -1.5e-09 t\n"
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        write_run(parse_run(path), out1)
        write_run(parse_run(out1), out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()


def random_embedding_set(rng, count, dim, id_maker=None):
    id_maker = id_maker or (lambda i: f"id{i}")
    ids = [id_maker(i) for i in range(count)]
    matrix = rng.normal(size=(count, dim)).astype(np.float32)
    return make_embeddings(ids, matrix)


class TestEmbeddingsBinary:
    def test_known_bytes(self, tmp_path):
        blob = EMBEDDING_MAGIC + struct.pack("<IQI", 1, 1, 2)
        blob += struct.pack("<H", 1) + b"q" + np.array([1.0, 0.0], dtype="<f4").tobytes()
        path = write_text(tmp_path, "e.evec", blob)
        es = read_embeddings(path)
        assert es.ids == ("q",)
        assert es.dim == 2
        assert np.array_equal(es.matrix[0], np.array([1.0, 0.0], dtype=np.float32))

    def test_writer_known_bytes(self, tmp_path):
        path = tmp_path / "e.evec"
        write_embeddings(make_embeddings(["q"], [[1.0, 0.0]]), path)
        blob = EMBEDDING_MAGIC + struct.pack("<IQI", 1, 1, 2)
        blob += struct.pack("<H", 1) + b"q" + np.array([1.0, 0.0], dtype="<f4").tobytes()
        assert path.read_bytes() == blob

    def test_writer_refuses_id_over_65535_bytes(self, tmp_path):
        path = tmp_path / "e.evec"
        write_embeddings(make_embeddings(["é" * 32767 + "x"], [[1.0]]), path)
        assert read_embeddings(path).ids == ("é" * 32767 + "x",)
        path.unlink()
        with pytest.raises(DataError, match="exceeds 65535 UTF-8 bytes"):
            write_embeddings(make_embeddings(["a", "é" * 32768], [[1.0], [2.0]]), path)
        assert not path.exists()

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        es = random_embedding_set(rng, 17, 5, id_maker=lambda i: f"qé{i}")
        p1, p2 = tmp_path / "a.evec", tmp_path / "b.evec"
        write_embeddings(es, p1)
        back = read_embeddings(p1)
        assert back == es
        write_embeddings(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_without_magic_is_read_as_tsv(self, tmp_path):
        path = write_text(tmp_path, "e.evec", b"NOPE" + b"\x00" * 20)
        with pytest.raises(ParseError) as exc:
            read_embeddings(path)
        assert str(exc.value).startswith(f"{path}:1: expected 'id<TAB>")

    def test_bad_version(self, tmp_path):
        path = write_text(tmp_path, "e.evec", EMBEDDING_MAGIC + struct.pack("<IQI", 9, 0, 1))
        with pytest.raises(ParseError) as exc:
            read_embeddings(path)
        assert "unsupported version" in str(exc.value)

    def test_zero_dim_rejected(self, tmp_path):
        path = write_text(tmp_path, "e.evec", EMBEDDING_MAGIC + struct.pack("<IQI", 1, 0, 0))
        with pytest.raises(ParseError) as exc:
            read_embeddings(path)
        assert "dim" in str(exc.value)

    def test_every_truncation_errors(self, tmp_path, rng):
        es = random_embedding_set(rng, 3, 4)
        path = tmp_path / "full.evec"
        write_embeddings(es, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            trunc = write_text(tmp_path, "t.evec", blob[:cut])
            with pytest.raises(ParseError):
                read_embeddings(trunc)

    def test_trailing_bytes_error(self, tmp_path, rng):
        es = random_embedding_set(rng, 2, 3)
        path = tmp_path / "full.evec"
        write_embeddings(es, path)
        bloated = write_text(tmp_path, "b.evec", path.read_bytes() + b"x")
        with pytest.raises(ParseError) as exc:
            read_embeddings(bloated)
        assert "trailing" in str(exc.value)

    def test_nan_component_rejected(self, tmp_path):
        blob = EMBEDDING_MAGIC + struct.pack("<IQI", 1, 1, 1)
        blob += struct.pack("<H", 1) + b"q" + np.array([np.nan], dtype="<f4").tobytes()
        with pytest.raises(ParseError) as exc:
            read_embeddings(write_text(tmp_path, "e.evec", blob))
        assert "non-finite" in str(exc.value)

    def test_duplicate_id_rejected(self, tmp_path):
        vec = np.array([0.5], dtype="<f4").tobytes()
        blob = EMBEDDING_MAGIC + struct.pack("<IQI", 1, 2, 1)
        blob += (struct.pack("<H", 1) + b"q" + vec) * 2
        with pytest.raises(ParseError):
            read_embeddings(write_text(tmp_path, "e.evec", blob))

    def test_duplicate_id_names_path_and_both_records(self, tmp_path):
        vec = np.array([0.5], dtype="<f4").tobytes()
        blob = EMBEDDING_MAGIC + struct.pack("<IQI", 1, 3, 1)
        blob += b"".join(struct.pack("<H", 1) + eid + vec for eid in (b"q", b"r", b"q"))
        path = write_text(tmp_path, "e.evec", blob)
        with pytest.raises(ParseError) as exc:
            read_embeddings(path)
        assert str(exc.value) == f"{path}: duplicate embedding id q (records 0 and 2)"

    def test_empty_set_roundtrip(self, tmp_path):
        es = make_embeddings([], np.empty((0, 3), dtype=np.float32))
        path = tmp_path / "e.evec"
        write_embeddings(es, path)
        assert read_embeddings(path) == es

    def test_long_id(self, tmp_path):
        eid = "x" * 300
        es = make_embeddings([eid], [[1.0, 2.0]])
        path = tmp_path / "e.evec"
        write_embeddings(es, path)
        assert read_embeddings(path).ids == (eid,)


def _evec_outcome(reader, path):
    """("ok", ids, dtype, matrix bytes) or ("error", message)."""
    try:
        es = reader(path)
    except ParseError as e:
        return "error", str(e)
    return "ok", es.ids, es.matrix.dtype, es.matrix.tobytes()


def _small_evec_blobs(tmp_path):
    """EVEC files of 3 records: ASCII and multi-byte ids, dims 1 and 3, one empty set."""
    sets = [
        make_embeddings(["a", "bé", "c"], [[1.0], [-2.5], [0.0]]),
        make_embeddings(["q1", "q22", "€"], np.arange(9, dtype=np.float32).reshape(3, 3) - 4.0),
        make_embeddings([], np.empty((0, 2), dtype=np.float32)),
    ]
    blobs = []
    for n, es in enumerate(sets):
        path = tmp_path / f"small{n}.evec"
        write_embeddings(es, path)
        blobs.append(path.read_bytes())
    return blobs


class TestEvecReaderMatchesWholeFileReader:
    """The reader that reads each vector into its row gives the whole-file
    reader's set, or its ParseError text (offsets included)."""

    @staticmethod
    def _check(tmp_path, blob):
        path = write_text(tmp_path, "case.evec", blob)
        assert _evec_outcome(read_embeddings, path) == _evec_outcome(oracles.read_embeddings, path)

    def test_every_truncation_and_a_trailing_byte(self, tmp_path):
        for blob in _small_evec_blobs(tmp_path):
            for cut in range(len(blob) + 1):
                self._check(tmp_path, blob[:cut])
            self._check(tmp_path, blob + b"\0")

    def test_random_byte_flips(self, tmp_path):
        flips = np.random.default_rng(5)
        blobs = _small_evec_blobs(tmp_path)
        for _ in range(2400):
            blob = bytearray(blobs[int(flips.integers(len(blobs)))])
            for pos in flips.integers(len(blob), size=int(flips.integers(1, 4))):
                blob[pos] ^= int(flips.integers(1, 256))
            self._check(tmp_path, bytes(blob))


def test_evec_read_holds_one_matrix(tmp_path, rng):
    es = random_embedding_set(rng, 4096, 256)
    path = tmp_path / "e.evec"
    write_embeddings(es, path)
    tracemalloc.start()
    try:
        back = read_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == es
    assert peak < 1.5 * es.matrix.nbytes


class TestEmbeddingsTsv:
    def test_parse(self, tmp_path):
        es = read_embeddings(write_text(tmp_path, "e.tsv", "q\t0.5 -0.5\n"))
        assert es.dim == 2
        assert np.allclose(es.matrix[0], [0.5, -0.5])

    def test_roundtrip_values_exact(self, tmp_path, rng):
        # %.9g text parses back to the exact float32
        es = random_embedding_set(rng, 9, 4)
        rows = (f"{eid}\t{' '.join('%.9g' % v for v in row)}\n" for eid, row in zip(es.ids, es.matrix))
        assert read_embeddings(write_text(tmp_path, "a.tsv", "".join(rows))) == es

    def test_first_id_with_magic_prefix_read_as_evec(self, tmp_path):
        # the file decides its format: this one is read as EVEC, and rejected
        with pytest.raises(ParseError):
            read_embeddings(write_text(tmp_path, "e.tsv", "EVECx\t1\nb\t2\n"))
        es = read_embeddings(write_text(tmp_path, "f.tsv", "b\t1\nEVECx\t2\n"))
        assert es == make_embeddings(["b", "EVECx"], [[1.0], [2.0]])

    def test_dim_mismatch(self, tmp_path):
        path = write_text(tmp_path, "e.tsv", "a\t1 2\nb\t1 2 3\n")
        with pytest.raises(ParseError) as exc:
            read_embeddings(path)
        assert ":2:" in str(exc.value)

    def test_inf_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            read_embeddings(write_text(tmp_path, "e.tsv", "a\t1 inf\n"))

    @pytest.mark.parametrize("component", ["1_0", "\u0661", "\uff11.5"])
    def test_component_in_python_only_syntax_rejected(self, tmp_path, component):
        path = write_text(tmp_path, "e.tsv", f"a\t1 2\nb\t1 {component}\n")
        with pytest.raises(ParseError) as exc:
            read_embeddings(path)
        assert str(exc.value) == f"{path}:2: vector components must be decimal floats"

    def test_id_and_separators_keep_non_ascii(self, tmp_path):
        # str.split() splits on the no-break space; only the components must be ASCII
        es = read_embeddings(write_text(tmp_path, "e.tsv", "\u00e9_1\t1\u00a02\n"))
        assert es == make_embeddings(["\u00e9_1"], [[1.0, 2.0]])

    def test_float32_overflow_rejected_at_line(self, tmp_path):
        # 1e39 is a finite float64 but inf once stored as float32
        path = write_text(tmp_path, "e.tsv", "a\t1 2\nb\t1 1e39\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as exc:
                read_embeddings(path)
        assert str(exc.value) == f"{path}:2: non-finite component in vector for id b"


class TestContainers:
    def test_runset_rejects_duplicate_docs(self):
        with pytest.raises(DataError):
            RunSet({"q": [("d", 1.0), ("d", 2.0)]})

    def test_runset_rejects_non_finite(self):
        with pytest.raises(DataError):
            RunSet({"q": [("d", float("inf"))]})

    def test_qrels_rejects_negative(self):
        with pytest.raises(DataError):
            QrelSet({"q": {"d": -1}})

    def test_qrels_docs_is_a_read_only_view(self):
        qrels = QrelSet.from_records([("q", "d1", 2), ("q", "d2", 0)])
        docs = qrels.docs("q")
        assert dict(docs) == {"d1": 2, "d2": 0}
        with pytest.raises(TypeError):
            docs["d3"] = 1
        assert qrels.docs("unknown") == {}

    def test_runset_keeps_queries_without_entries(self):
        run = RunSet({"q2": [], "q1": [("b", 1.0), ("a", 1.0), ("c", 2.0)]}, tag="t")
        assert run.query_ids() == ("q2", "q1")
        assert run.ranking("q2") == ()
        assert run.ranking("q1") == (("c", 2.0), ("a", 1.0), ("b", 1.0))
        records = RunSet.from_records([("q1", ("b", 1.0)), ("q3", ("x", 0.0)), ("q1", ("a", 1.0)), ("q1", ("c", 2.0))])
        assert records.ranking("q1") == run.ranking("q1")
        assert records.query_ids() == ("q1", "q3")

    def test_runset_names_the_first_bad_record(self):
        records = [("q1", ("a", 1.0)), ("q2", ("a", 1.0)), ("q1", ("c", 0.0)), ("q1", ("a", 3.0)), ("q2", ("b", 1e999))]
        with pytest.raises(DataError) as exc:
            RunSet.from_records(records)
        assert (str(exc.value), exc.value.record) == ("duplicate (query, doc) pair (q1, a)", 3)
        with pytest.raises(DataError) as exc:
            RunSet({"q1": [("a", 1.0), ("b", 1e308)], "q2": [("c", 1e308), ("d", float("nan"))]})
        assert (str(exc.value), exc.value.record) == ("non-finite score nan for (q2, d)", 3)
        # a record that breaks both rules fails the finite-score one
        with pytest.raises(DataError) as exc:
            RunSet.from_records([("q1", ("a", 1.0)), ("q1", ("a", float("-inf")))])
        assert (str(exc.value), exc.value.record) == ("non-finite score -inf for (q1, a)", 1)

    def test_embeddingset_validations(self):
        with pytest.raises(DataError):
            EmbeddingSet(["a", "a"], np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(DataError):
            EmbeddingSet(["a"], np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(DataError):
            EmbeddingSet(["a"], np.array([[np.inf, 0.0]], dtype=np.float32))

    @pytest.mark.parametrize("ids, matrix, message", [
        (["a", "b"], np.zeros(2, dtype=np.float32), "embedding matrix must be 2-dimensional"),
        (["a"], np.zeros((1, 0), dtype=np.float32), "embedding dim must be positive"),
    ])
    def test_embeddingset_shape_rules(self, ids, matrix, message):
        with pytest.raises(DataError) as exc:
            EmbeddingSet(ids, matrix)
        assert str(exc.value) == message

    def test_embedding_subset_names_missing_id(self):
        es = make_embeddings(["a", "b"], [[1.0], [2.0]])
        with pytest.raises(DataError) as exc:
            es.subset(["a", "zz"])
        assert "zz" in str(exc.value)

    def test_embedding_matrix_is_readonly(self):
        es = make_embeddings(["a"], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            es.matrix[0, 0] = 5.0

    def test_embedding_id_rank_is_computed_once_and_read_only(self):
        es = make_embeddings(["q10", "q2", "q1"], [[1.0], [2.0], [3.0]])
        assert es.id_rank.tolist() == [1, 2, 0]  # string order: q1 < q10 < q2
        assert es.id_rank is es.id_rank
        with pytest.raises(ValueError):
            es.id_rank[0] = 5


class TestIdTokenRule:
    def test_embeddingset_rejects_bad_ids(self):
        for bad in ("", "a b", "a\tb", "a\nb"):
            with pytest.raises(DataError):
                make_embeddings([bad], [[1.0]])

    def test_binary_reader_rejects_whitespace_id(self, tmp_path):
        vec = np.array([0.5], dtype="<f4").tobytes()
        blob = EMBEDDING_MAGIC + struct.pack("<IQI", 1, 1, 1)
        blob += struct.pack("<H", 3) + b"a b" + vec
        with pytest.raises(ParseError):
            read_embeddings(write_text(tmp_path, "e.evec", blob))

    def test_tsv_reader_rejects_empty_id(self, tmp_path):
        with pytest.raises(ParseError):
            read_embeddings(write_text(tmp_path, "e.tsv", "\t1 2\n"))

    def test_write_qrels_rejects_bad_ids(self, tmp_path):
        qrels = QrelSet({"q 1": {"d1": 1}})
        with pytest.raises(DataError):
            write_qrels(qrels, tmp_path / "q.txt")

    @pytest.mark.parametrize("bad_qid", [False, True])
    def test_writers_name_the_first_bad_pair_in_output_order(self, tmp_path, bad_qid):
        qid = "q 1" if bad_qid else "q1"
        docs = ["d1", "d2", "d 3", "", "d5"] if not bad_qid else ["d1", "d2"]
        first_bad = "d1" if bad_qid else "d 3"
        run = RunSet({"q0": [("d0", 9.0)], qid: [(d, 5.0 - i) for i, d in enumerate(docs)]})
        qrels = QrelSet({"q0": {"d0": 1}, qid: {d: 1 for d in docs}})
        for writer, container in ((write_run, run), (write_qrels, qrels)):
            out = write_text(tmp_path, "out.txt", "old contents\n")
            with pytest.raises(DataError) as exc:
                writer(container, out)
            assert str(exc.value) == f"cannot serialize ({qid!r}, {first_bad!r}): ids must be whitespace-free tokens"
            assert out.read_bytes() == b"old contents\n"

    def test_writers_skip_a_bad_query_id_without_pairs(self, tmp_path):
        write_run(RunSet({"q 1": [], "q2": [("d1", 1.0)]}), tmp_path / "r.txt")
        assert (tmp_path / "r.txt").read_text() == "q2 Q0 d1 1 1.0 xtrap\n"

    def test_write_run_rejects_bad_ids_and_tag(self, tmp_path):
        with pytest.raises(DataError):
            write_run(RunSet({"q1": [("d 1", 1.0)]}), tmp_path / "r.txt")
        with pytest.raises(DataError):
            write_run(RunSet({"q1": [("d1", 1.0)]}), tmp_path / "r.txt", tag="bad tag")


# every text reader, with a file that it reads
TEXT_READERS = [
    (parse_queries, "q1\tx\nq2\ty\n"),
    (parse_qrels, "q1 0 d1 1\nq2 0 d1 1\n"),
    (parse_run, "q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\nq2 Q0 d1 1 1.0 t\n"),
    (read_embeddings, "a\t1 2\nb\t3 4\n"),
    (read_manifest, "#regime=interpolation\n#seed=1\n[training]\nt1\n[test-interpolation]\nq1\n"),
    (read_pairs, "a\t1\t2\nb\t2\t1\n"),
    (read_labels, "i1\tx\ni2\ty\n"),
]


class TestByteOrderMark:
    @pytest.mark.parametrize("reader,text", TEXT_READERS, ids=lambda v: getattr(v, "__name__", None))
    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_readers_drop_a_leading_mark(self, tmp_path, reader, text, ending):
        text = text.replace("\n", ending)
        plain = write_text(tmp_path, "plain.txt", text)
        marked = write_text(tmp_path, "marked.txt", "\ufeff" + text)
        assert reader(marked) == reader(plain)

    def test_only_the_first_mark_of_the_file_is_dropped(self, tmp_path):
        path = write_text(tmp_path, "q.tsv", "\ufeff\ufeffa\tx\n\ufeffb\ty\n")
        # one-byte blocks: the second line starts a block of its own
        with mock.patch.object(dataio, "_BLOCK_BYTES", 1):
            assert parse_queries(path).ids == ("\ufeffa", "\ufeffb")
        assert len(parse_queries(write_text(tmp_path, "empty.tsv", "\ufeff"))) == 0

    def test_writers_refuse_a_first_id_that_starts_with_a_mark(self, tmp_path):
        marked = "\ufeffq"
        for writer, container in (
            (write_queries, make_queries([marked, "r"])),
            (write_qrels, QrelSet({"e": {}, marked: {"d": 1}})),
            (write_run, RunSet({"e": [], marked: [("d", 1.0)]})),
        ):
            out = write_text(tmp_path, "out.txt", "old contents\n")
            with pytest.raises(DataError, match=re.escape(f"cannot serialize {marked!r} as the first id")):
                writer(container, out)
            assert out.read_bytes() == b"old contents\n"

    def test_a_mark_after_the_first_line_round_trips(self, tmp_path):
        queries = make_queries(["q", "\ufeffr"])
        write_queries(queries, tmp_path / "q.tsv")
        assert parse_queries(tmp_path / "q.tsv") == queries
        # a first query without records writes no line
        write_qrels(QrelSet({"\ufeffe": {}, "q": {"d": 1}, "\ufeffr": {"d": 2}}), tmp_path / "qrels.txt")
        assert parse_qrels(tmp_path / "qrels.txt") == QrelSet({"q": {"d": 1}, "\ufeffr": {"d": 2}})
        write_run(RunSet({"\ufeffe": [], "q": [("d", 1.0)], "\ufeffr": [("d", 2.0)]}), tmp_path / "r.txt")
        assert parse_run(tmp_path / "r.txt") == RunSet({"q": [("d", 1.0)], "\ufeffr": [("d", 2.0)]})


# line 2 of each file breaks one record rule, which its container checks
RULE_BREAKS = [
    (parse_queries, "q.tsv", "a\tx\nb c\ty\n", "query id must be a non-empty token, got 'b c' (record 1)"),
    (parse_queries, "q.tsv", "a\tx\na\ty\n", "duplicate query id a (records 0 and 1)"),
    (read_embeddings, "e.tsv", "a\t1 2\nb c\t3 4\n", "embedding id must be a non-empty token, got 'b c' (record 1)"),
    (read_embeddings, "e.tsv", "a\t1 2\na\t3 4\n", "duplicate embedding id a (records 0 and 1)"),
    (read_embeddings, "e.tsv", "a\t1 2\nb\t3 nan\n", "non-finite component in vector for id b"),
    (parse_run, "r.txt", "q1 Q0 d1 1 2 t\nq1 Q0 d1 2 1 t\n", "duplicate (query, doc) pair (q1, d1)"),
    (parse_qrels, "q.txt", "q1 0 d1 1\nq1 0 d2 -1\n", "negative relevance grade -1"),
]


class TestRecordRulesOneHome:
    @pytest.mark.parametrize("reader,name,text,message", RULE_BREAKS)
    def test_text_reader_names_the_line(self, tmp_path, reader, name, text, message):
        # record 1 is on line 2, and on line 4 behind two blank lines
        for blank, line in (("", 2), ("\n\n", 4)):
            path = write_text(tmp_path, name, blank + text)
            with pytest.raises(ParseError) as exc:
                reader(path)
            assert str(exc.value) == f"{path}:{line}: {message}"
            assert exc.value.__cause__.record == 1

    def test_evec_whitespace_id_names_its_record(self, tmp_path):
        vec = np.array([0.5], dtype="<f4").tobytes()
        blob = EMBEDDING_MAGIC + struct.pack("<IQI", 1, 2, 1)
        blob += struct.pack("<H", 1) + b"a" + vec + struct.pack("<H", 3) + b"b c" + vec
        path = write_text(tmp_path, "e.evec", blob)
        with pytest.raises(ParseError) as exc:
            read_embeddings(path)
        assert str(exc.value) == f"{path}: embedding id must be a non-empty token, got 'b c' (record 1)"

    def test_containers_name_the_record(self):
        with pytest.raises(DataError) as exc:
            make_queries(["a", "b", "a"])
        assert exc.value.record == 2
        with pytest.raises(DataError) as exc:
            EmbeddingSet(["a", "b"], np.array([[0.0], [np.inf]], dtype=np.float32))
        assert exc.value.record == 1
        with pytest.raises(DataError) as exc:
            EmbeddingSet(["a"], np.zeros((2, 1), dtype=np.float32))
        assert exc.value.record is None

    def test_in_order_subset_is_the_set(self):
        es = make_embeddings(["a", "b", "c"], [[1.0], [2.0], [3.0]])
        assert es.subset(es.ids) is es
        assert es.subset(["a", "b", "c"]) is es

    def test_reordered_subset_follows_the_request(self):
        es = make_embeddings(["a", "b", "c"], [[1.0], [2.0], [3.0]])
        sub = es.subset(["c", "a"])
        assert sub.ids == ("c", "a")
        assert sub.matrix.tolist() == [[3.0], [1.0]]
        with pytest.raises(DataError, match="duplicate embedding id a"):
            es.subset(["a", "a"])

    def test_query_set_is_aligned_columns(self):
        qs = QuerySet(["x", "y"], ["text x", "text y"])
        assert list(qs) == [("x", "text x"), ("y", "text y")]
        assert qs.text("y") == "text y"
        with pytest.raises(DataError, match="2 ids but 1 texts"):
            QuerySet(["x", "y"], ["text x"])

    def test_query_ids_are_one_stored_tuple(self):
        qs = make_queries(["x", "y"])
        assert qs.ids == ("x", "y")
        assert qs.ids is qs.ids


token_ids = st.lists(
    st.text(
        alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
        min_size=1,
        max_size=12,
    ),
    min_size=0,
    max_size=8,
    unique=True,
)


@settings(max_examples=60, deadline=None)
@given(ids=token_ids, dim=st.integers(1, 6), data=st.data())
def test_binary_embedding_roundtrip_property(ids, dim, data):
    values = data.draw(
        st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                min_size=dim,
                max_size=dim,
            ),
            min_size=len(ids),
            max_size=len(ids),
        )
    )
    es = make_embeddings(ids, np.asarray(values, dtype=np.float32).reshape(len(ids), dim))
    with tempfile.NamedTemporaryFile(suffix=".evec") as f:
        write_embeddings(es, f.name)
        assert read_embeddings(f.name) == es


@settings(max_examples=120, deadline=None)
@given(data=st.binary(max_size=200))
def test_text_parsers_total(data):
    """Any byte soup either parses or raises ParseError, never crashes."""
    with tempfile.NamedTemporaryFile(suffix=".txt") as f:
        f.write(data)
        f.flush()
        for parser in (parse_queries, parse_qrels, parse_run):
            try:
                parser(f.name)
            except ParseError:
                pass


# Line soups for the run and qrels readers: records from small pools (so that
# pairs repeat, within a query and across its non-adjacent lines), odd numbers
# ('1_0' and the Arabic-Indic '\u0663' are refused), and now and then a bad
# token, a wrong field count, a blank or whitespace-only line, bad UTF-8, or
# whitespace that str.split() splits on but that is no line break here.
_SPACES = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
_RANKS = ["1", "2", "3", "10", "-1", "1_0", "+5", "\u0663"]
_SCORES = ["1", "2.5", "-0.0", "0.0", "1e-3", "7", "+5", "1_0", "-2"]
_BAD_TOKENS = ["nan", "NaN", "inf", "-Infinity", "1e999", "x", "1.5.2", "0x1", "-1"]
_ODD_LINES = [b"", b"\r", b"\r\r", b" ", b"\t \r", b"\x85", b"\xff", b"\xe2\x82", b"q1 Q0 d\xc3 1 2 t", b"\xed\xa0\x80"]
_QIDS, _DOCIDS = st.sampled_from(["q1", "q2", "q3"]), st.sampled_from([f"d{i}" for i in range(1, 10)])
_RUN_FIELDS = st.tuples(_QIDS, st.sampled_from(["Q0", "0"]), _DOCIDS, st.sampled_from(_RANKS),
                        st.sampled_from(_SCORES), st.sampled_from(["t", "run2", "run_\u00e9"]))
_QREL_FIELDS = st.tuples(_QIDS, st.just("0"), _DOCIDS, st.sampled_from(["0", "1", "2", "3", "7", "+5", "\u0663", "-1"]))


@st.composite
def _soups(draw, fields) -> bytes:
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(_ODD_LINES)))
            continue
        tokens = list(draw(fields))
        if kind == 1:
            tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["x"]
        elif kind == 2:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        gaps = draw(st.lists(st.sampled_from(_SPACES), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        line = gaps[0] * (kind == 3) + "".join(t + g for t, g in zip(tokens, gaps[1:]))
        lines.append((line if kind == 4 else line.rstrip(gaps[-1])).encode("utf-8"))
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines), max_size=len(lines)))
    soup = b"".join(line + end for line, end in zip(lines, ends))
    return soup[: -len(ends[-1])] if lines and draw(st.booleans()) else soup


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__()
        self.texts = []

    def emit(self, record):
        self.texts.append(record.getMessage())


def _outcome(reader, path, *loggers):
    """("ok", result, its tag, its overwrites, warnings) or ("error", message, line, warnings)."""
    collect = _Warnings()
    for name in loggers:
        logging.getLogger(name).addHandler(collect)
    try:
        result = reader(path)
    except ParseError as e:
        return "error", str(e), e.line, collect.texts
    finally:
        for name in loggers:
            logging.getLogger(name).removeHandler(collect)
    return "ok", result, getattr(result, "tag", None), getattr(result, "overwrites", None), collect.texts


def _same_as_line_reader(reader, oracle, soup, block):
    with tempfile.NamedTemporaryFile(suffix=".txt") as f:
        f.write(soup)
        f.flush()
        with mock.patch.object(dataio, "_BLOCK_BYTES", block):
            got = _outcome(reader, f.name, "xtrap.dataio")
            lines = _outcome(lambda p: list(dataio._iter_lines(p)), f.name)
        assert lines == _outcome(lambda p: list(oracles._iter_lines(p)), f.name)
        expected = _outcome(oracle, f.name, oracles.__name__)
    assert got == expected


# block sizes: one byte (every line its own block, completed by readline), a few
# bytes, and the default
_BLOCKS = st.sampled_from([1, 2, 7, 64, dataio._BLOCK_BYTES])


@settings(max_examples=300, deadline=None)
@given(soup=_soups(_RUN_FIELDS), block=_BLOCKS)
@example(soup=b"q1 Q0 d1 1 2.0 t\r\nq1 Q0 d2 2 1.0 t\r\n", block=7)
@example(soup=b"\r\nq1 Q0 d1 1 2.0 t\n\r\r\n", block=1)
@example(soup=b"q1 Q0 d1 1 2 t\n \t\nq1 Q0 d2 2 1 t\n", block=64)
@example(soup="q1\x0bQ0\x1cd1\x851\xa02.0\u2028t\n".encode(), block=2)
@example(soup=b"q1 Q0 d1 1 2.0\n\xff\n", block=1)
@example(soup=b"q1 Q0 d1 1 2 t\nq2 Q0 d1 1 2 t\nq1 Q0 d1 3 1 t\n\xff", block=7)
@example(soup=b"\xffq\nq1 Q0 d1 x 2 t\n", block=64)
@example(soup=b"q1 Q0 d1 1_0 nan t\n", block=64)
@example(soup=b"q1 Q0 d1 +5 inf t\n", block=64)
@example(soup=b"q1 Q0 d1 1 -0.0 t\nq1 Q0 d2 2 0.0 t\nq1 Q0 d3 3 1_0 t\n", block=64)
@example(soup=b"q1 Q0 d1 2 9 t\nq1 Q0 d2 1 1 t\nq2 Q0 d1 1 1 t\nq2 Q0 d2 1 2 t\nq3 Q0 d1 1 2 t\n", block=2)
def test_run_reader_matches_line_reader(soup, block):
    """The block reader gives the line-by-line reader's run, tag and warnings, or its error."""
    _same_as_line_reader(parse_run, oracles.parse_run, soup, block)


@settings(max_examples=300, deadline=None)
@given(soup=_soups(_QREL_FIELDS), block=_BLOCKS)
@example(soup=b"q1 0 d1 -1\nq1 0 d2\n", block=64)
@example(soup=b"q1 0 d1\nq1 0 d2 -1\n", block=64)
@example(soup=b"q1 0 d1 1\nq2 0 d1 7\nq1 0 d1 +5\n\xe2\x82\n", block=1)
def test_qrels_reader_matches_line_reader(soup, block):
    """The block reader gives the line-by-line reader's qrels, overwrites and warnings, or its error."""
    _same_as_line_reader(parse_qrels, oracles.parse_qrels, soup, block)


@settings(max_examples=120, deadline=None)
@given(data=st.binary(max_size=200))
@example(data=b"a\t1e39\n")
def test_binary_reader_total(data):
    """Any bytes, with or without the EVEC magic, parse or raise ParseError."""
    for blob in (data, EMBEDDING_MAGIC + data):
        with tempfile.NamedTemporaryFile(suffix=".emb") as f:
            f.write(blob)
            f.flush()
            try:
                read_embeddings(f.name)
            except ParseError:
                pass


class TestAtomicOutput:
    QUERIES = QuerySet(["q1"], ["hello"])

    def test_failed_write_leaves_old_output(self, tmp_path):
        out = write_text(tmp_path, "qrels.txt", "old contents\n")
        bad = QrelSet({"q1": {"d1": 1}, "q 2": {"d2": 1}})
        with pytest.raises(DataError):
            write_qrels(bad, out)
        assert out.read_bytes() == b"old contents\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_mode_matches_plain_open_and_is_kept(self, tmp_path):
        reference = write_text(tmp_path, "reference", "")
        out = tmp_path / "queries.tsv"
        write_queries(self.QUERIES, out)
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
        out.chmod(0o640)
        write_queries(self.QUERIES, out)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        # a non-blocking reader lets the writer open the FIFO without a thread
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_queries(self.QUERIES, fifo)
            data = os.read(fd, 1024)
        finally:
            os.close(fd)
        assert data == b"q1\thello\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]


    def test_writes_past_a_stale_temp_file(self, tmp_path):
        # a temp file left by a killed run of a process with the same pid
        out = tmp_path / "queries.tsv"
        stale = tmp_path / f".queries.tsv.{os.getpid()}.0.tmp"
        stale.write_text("stale\n")
        write_queries(self.QUERIES, out)
        assert out.read_text() == "q1\thello\n"
        assert stale.read_text() == "stale\n"
        assert sorted(tmp_path.iterdir()) == [stale, out]


def _opens_for_writing(call: ast.Call) -> bool:
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+"))


def test_only_atomic_output_opens_files_for_writing():
    offenders = []
    for path in sorted(Path(xtrap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed: set[int] = set()
        if path.name == "dataio.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "atomic_output":
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"
                and _opens_for_writing(node)
                and id(node) not in allowed
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# where each record rule may be checked: the shared id check, the writers'
# pair check (QrelSet and RunSet do not check ids) and write_run's tag check
# apply _bad_id; the query, embedding and qrels readers check syntax only, and
# the run reader keeps no set of (query, doc) pairs
_BAD_ID_CALLERS = {"_index_ids", "_check_pairs_serializable", "write_run"}
_SYNTAX_ONLY_READERS = {"parse_queries", "parse_qrels", "_read_embeddings_tsv", "_read_embeddings_binary"}


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_finite_score_rule_is_spelled_once():
    # RunSet's record rule is the only finite-score test of a run; parse_run
    # reports its message at the line
    source = "".join(p.read_text(encoding="utf-8") for p in Path(xtrap.__file__).parent.glob("*.py"))
    assert source.count("non-finite score") == 1


def test_record_rules_have_one_home():
    offenders = []
    defined = set()
    for path in sorted(Path(xtrap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if isinstance(scope, ast.Attribute) and scope.attr == "isspace":
                offenders.append(f"{path.name}:{scope.lineno}: isspace")
            if isinstance(scope, ast.ClassDef) and scope.name in ("QuerySet", "EmbeddingSet"):
                defined.add(scope.name)
                calls = {_call_name(n) for n in ast.walk(scope) if isinstance(n, ast.Call)}
                if "_index_ids" not in calls:
                    offenders.append(f"{path.name}:{scope.lineno}: {scope.name} skips _index_ids")
            if not isinstance(scope, ast.FunctionDef):
                continue
            defined.add(scope.name)
            for node in ast.walk(scope):
                called = _call_name(node) if isinstance(node, ast.Call) else None
                if called == "_bad_id" and scope.name not in _BAD_ID_CALLERS:
                    offenders.append(f"{path.name}:{node.lineno}: _bad_id in {scope.name}")
                if scope.name == "parse_run" and (
                    called in ("set", "isfinite") or isinstance(node, (ast.Set, ast.SetComp))
                ):
                    offenders.append(f"{path.name}:{node.lineno}: a set of pairs or a finite test in parse_run")
                if scope.name in _SYNTAX_ONLY_READERS and (
                    called in ("isfinite", "set", "dict", "_index_ids")
                    or isinstance(node, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp))
                ):
                    offenders.append(f"{path.name}:{node.lineno}: record rule in {scope.name}")
    assert offenders == []
    assert {"QuerySet", "EmbeddingSet", "parse_run", *_SYNTAX_ONLY_READERS} <= defined
