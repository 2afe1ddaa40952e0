"""Core domain types and readers/writers for all on-disk formats.

Formats handled here:

- queries:      ``id<TAB>text``, one record per line, UTF-8
- qrels:        ``qid 0 docid rel``, whitespace separated (the second
                field is historical and ignored)
- run files:    ``qid Q0 docid rank score tag`` in TREC format; the rank
                field is re-derived from scores, never trusted
- embeddings:   either a bespoke binary format (magic ``EVEC``, see
                :func:`read_embeddings`) or ``id<TAB>v1 v2 ... vdim`` TSV;
                the file decides: one that starts with ``EVEC`` is EVEC,
                any other is TSV, so :func:`read_embeddings` takes no format.
                An EVEC read holds one copy of the matrix: each vector is
                read from the file straight into its row

All readers accept LF and CRLF line endings; writers emit LF only and go
through :func:`atomic_output`, so an output file is either fully written or
left as it was. Every parsed container is immutable after construction and
safe to share across threads. Text files are read in blocks of about 1 MiB
of whole lines, split on ``\\n`` only.

Readers check syntax (field counts, numbers, UTF-8, the EVEC layout); the
containers check the record rules:

- :class:`QuerySet`, :class:`EmbeddingSet`: unique whitespace-free ids;
  :class:`EmbeddingSet` also finite components
- :class:`QrelSet`: non-negative grades (a repeated pair keeps its last grade)
- :class:`RunSet`: one record per (query, doc) pair, finite scores

A reader re-raises a container's error at the record's ``path:line``, or for
EVEC at the path with the record in the message. The run and qrels readers
hand each record to the container as it is read, so the first failing line
is the one reported, whichever rule it breaks. The run reader rejects a
non-finite score field itself, so that the message quotes the field.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import math
import os
import re
import stat
import struct
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

EMBEDDING_MAGIC = b"EVEC"
EMBEDDING_VERSION = 1

# ids are serialized into whitespace-delimited text formats, so they must
# be non-empty and free of whitespace
_WS = re.compile(r"\s")


def _bad_id(value: str) -> bool:
    return not value or _WS.search(value) is not None


# values per row chunk when a matrix is streamed through float64 temporaries
_CHUNK_ELEMENTS = 16 * 1024 * 1024


def _row_chunks(matrix: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first row, float64 copy of the rows) over bounded row chunks."""
    step = max(1, _CHUNK_ELEMENTS // max(1, matrix.shape[1]))
    for lo in range(0, matrix.shape[0], step):
        yield lo, matrix[lo : lo + step].astype(np.float64)


@contextlib.contextmanager
def atomic_output(path, binary: bool = False) -> Iterator[IO]:
    """Open `path` for writing (UTF-8 text with LF endings unless `binary`).

    A regular file, or a symlink to one, is written to a temp file in the
    target's directory that replaces the target only when the block
    completes; on an error the target is left as it was. The temp file is
    created with the umask's permissions, or the old target's if there was
    one. A target that is not a regular file (a FIFO, a device) is written
    in place.
    """
    mode, kwargs = ("b", {}) if binary else ("", {"encoding": "utf-8", "newline": "\n"})
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w" + mode, **kwargs) as f:
            yield f
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    for n in itertools.count():
        tmp = os.path.join(directory, f".{name}.{os.getpid()}.{n}.tmp")
        try:
            f = open(tmp, "x" + mode, **kwargs)
            break
        except FileExistsError:
            continue
        except OSError as e:  # report the output path, not the temp name
            raise OSError(e.errno, e.strerror, os.fspath(path)) from e
    try:
        with f:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            yield f
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class ParseError(ValueError):
    """A file could not be parsed; carries the path and location."""

    def __init__(self, path, message: str, line: int | None = None):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


class DataError(ValueError):
    """Inputs parsed fine but violate a semantic contract (at `record`, 0-based, if set)."""

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record


@contextlib.contextmanager
def _located(path, line_of: Callable[[int], int] | None = None) -> Iterator[None]:
    """Re-raise a container's DataError as a ParseError at line `line_of(record)`."""
    try:
        yield
    except DataError as e:
        line = line_of(e.record) if line_of is not None and e.record is not None else None
        raise ParseError(path, str(e), line) from e


def _index_ids(ids: Sequence[str], kind: str) -> dict[str, int]:
    """Map each id to its position; every id must be a token, and unique."""
    index: dict[str, int] = {}
    for pos, eid in enumerate(ids):
        if _bad_id(eid):
            raise DataError(f"{kind} id must be a non-empty token, got {eid!r} (record {pos})", pos)
        if eid in index:
            raise DataError(f"duplicate {kind} id {eid} (records {index[eid]} and {pos})", pos)
        index[eid] = pos
    return index


# bytes read per block; a block is completed to the end of its last line
_BLOCK_BYTES = 1 << 20
# blank lines, which readers skip: empty, or a lone "\r" of a CRLF ending
_BLANK = ("", "\r")


def _iter_blocks(path, f: IO[bytes] | None = None, head: bytes = b"") -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based number of the first line, lines) over blocks of whole lines.

    Lines are split on ``\\n`` only and keep a trailing ``\\r``. Invalid UTF-8
    raises ParseError at its line, after the lines before it were yielded.
    `f` is `path` already open, with `head` its bytes read so far: a pipe
    can be opened and read only once.
    """
    with open(path, "rb") if f is None else contextlib.nullcontext(f) as f:
        first = 1
        while block := head + f.read(_BLOCK_BYTES) + f.readline():
            head = b""
            try:
                text, bad = block.decode("utf-8"), b""
            except UnicodeDecodeError as e:
                cut = block.rfind(b"\n", 0, e.start) + 1
                text, bad = block[:cut].decode("utf-8"), block[cut:].split(b"\n", 1)[0]
            lines = text.split("\n")
            if not lines[-1]:  # the empty text after a final "\n"
                lines.pop()
            yield first, lines
            first += len(lines)
            if bad:
                # decoded alone, the line fails too, at its own offset
                try:
                    bad.removesuffix(b"\r").decode("utf-8")
                except UnicodeDecodeError as e:
                    raise ParseError(path, f"invalid UTF-8: {e}", first) from e


def _iter_lines(path, f: IO[bytes] | None = None, head: bytes = b"") -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) with terminators removed.

    Blank lines are skipped; invalid UTF-8 raises ParseError. `f` and `head`
    are as for `_iter_blocks`.
    """
    for first, lines in _iter_blocks(path, f, head):
        for lineno, line in enumerate(lines, first):
            if line not in _BLANK:
                yield lineno, line.removesuffix("\r")


@dataclass(frozen=True)
class Query:
    """One query: a whitespace-free id plus its raw text."""

    id: str
    text: str


class QuerySet:
    """Ordered collection of queries with unique ids; order equals file order."""

    def __init__(self, queries: Iterable[Query]):
        self._queries = tuple(queries)
        self._ids = tuple(q.id for q in self._queries)
        self._index = _index_ids(self._ids, "query")

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    def text(self, query_id: str) -> str:
        return self._queries[self._index[query_id]].text

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._index

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries)

    def __len__(self) -> int:
        return len(self._queries)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuerySet) and self._queries == other._queries


class QrelSet:
    """Graded relevance judgments keyed by (query id, doc id).

    Grades must be non-negative. At most one grade per pair; when built from
    records the last one wins and the overwrite is counted in
    :attr:`overwrites`.
    """

    def __init__(self, grades: Mapping[str, Mapping[str, int]], overwrites: int = 0):
        self._grades: dict[str, dict[str, int]] = {qid: {} for qid in grades}
        self._add((qid, docid, rel) for qid, docs in grades.items() for docid, rel in docs.items())
        self.overwrites = overwrites

    @classmethod
    def from_records(cls, records: Iterable[tuple[str, str, int]]) -> "QrelSet":
        """Group (query id, doc id, grade) records in one pass; a negative
        grade is a DataError at its record, raised before the next is read."""
        qrels = cls({})
        qrels.overwrites = qrels._add(records)
        return qrels

    def _add(self, records: Iterable[tuple[str, str, int]]) -> int:
        """Store each record over any earlier grade; returns the overwrites."""
        grades = self._grades
        overwrites = 0
        for pos, (qid, docid, rel) in enumerate(records):
            if rel < 0:
                raise DataError(f"negative relevance grade {rel}", pos)
            docs = grades.get(qid)
            if docs is None:
                docs = grades[qid] = {}
            elif docid in docs:
                overwrites += 1
            docs[docid] = rel
        return overwrites

    def query_ids(self) -> tuple[str, ...]:
        return tuple(self._grades)

    def docs(self, query_id: str) -> Mapping[str, int]:
        """Read-only view: doc id -> grade (empty if the query is unknown)."""
        return MappingProxyType(self._grades.get(query_id, {}))

    def relevant_docs(self) -> set[str]:
        """The doc ids graded relevant (grade >= 1) for some query."""
        return {docid for docs in self._grades.values() for docid, rel in docs.items() if rel >= 1}

    def grade(self, query_id: str, doc_id: str, default: int = 0) -> int:
        return self._grades.get(query_id, {}).get(doc_id, default)

    def has_query(self, query_id: str) -> bool:
        return query_id in self._grades

    def __len__(self) -> int:
        return sum(len(d) for d in self._grades.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, QrelSet) and self._grades == other._grades


class RunSet:
    """Ranked retrieval results per query.

    A (query, doc) pair appears at most once and every score is finite.
    Rankings are canonicalized at construction: sorted by descending score,
    ties broken by ascending doc id, independent of input order.
    """

    def __init__(self, rankings: Mapping[str, Iterable[tuple[str, float]]], tag: str | None = None):
        records = itertools.chain.from_iterable(zip(itertools.repeat(qid), e) for qid, e in rankings.items())
        self._rankings = _rank_records(records, {qid: {} for qid in rankings})
        self.tag = tag

    @classmethod
    def from_records(cls, records: Iterable[tuple[str, tuple[str, float]]], tag: str | None = None) -> "RunSet":
        """Group (query id, (doc id, score)) records in one pass; a repeated
        pair is a DataError at its record, raised before the next is read."""
        run = cls({}, tag)
        run._rankings = _rank_records(records, {})
        return run

    def query_ids(self) -> tuple[str, ...]:
        return tuple(self._rankings)

    def ranking(self, query_id: str) -> tuple[tuple[str, float], ...]:
        return self._rankings.get(query_id, ())

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._rankings

    def __len__(self) -> int:
        return len(self._rankings)

    def __eq__(self, other) -> bool:
        return isinstance(other, RunSet) and self._rankings == other._rankings


def _rank_records(records: Iterable[tuple[str, tuple[str, float]]], grouped: dict) -> dict[str, tuple]:
    """Group records into `grouped`'s per-query {doc id: entry} dicts, which
    are the duplicate check, checking each record before the next is read;
    then order each query by descending score, ties by ascending doc id."""
    isfinite = math.isfinite
    for pos, (qid, entry) in enumerate(records):
        docid, score = entry
        docs = grouped.get(qid)
        if docs is None:
            docs = grouped[qid] = {}
        elif docid in docs:
            raise DataError(f"duplicate (query, doc) pair ({qid}, {docid})", pos)
        if not isfinite(score):
            raise DataError(f"non-finite score for ({qid}, {docid})", pos)
        docs[docid] = entry
    ranked = {}
    for qid, docs in grouped.items():
        # two stable sorts on C-level keys: doc id, then score descending
        entries = sorted(docs.values(), key=itemgetter(0))
        entries.sort(key=itemgetter(1), reverse=True)
        ranked[qid] = tuple(entries)
    return ranked


class EmbeddingSet:
    """Fixed-dimension float32 vector per id, stored as one (n, dim) matrix.

    Takes ownership of `matrix` when no dtype conversion is needed: the
    array is frozen in place, so callers must not rely on mutating it.
    """

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise DataError("embedding matrix must be 2-dimensional")
        if matrix.shape[1] < 1:
            raise DataError("embedding dim must be positive")
        if matrix.shape[0] != len(ids):
            raise DataError(f"{len(ids)} ids but {matrix.shape[0]} vectors")
        self._ids = tuple(ids)
        self._index = _index_ids(self._ids, "embedding")
        # min and max propagate nan and hold any inf, without a full-size mask
        if matrix.size and not np.isfinite([matrix.min(), matrix.max()]).all():
            bad = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
            raise DataError(f"non-finite component in vector for id {ids[bad]}", bad)
        if matrix.flags.writeable:
            matrix.setflags(write=False)
        self._matrix = matrix

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[1])

    def vector(self, eid: str) -> np.ndarray:
        return self._matrix[self._index[eid]]

    def __contains__(self, eid: str) -> bool:
        return eid in self._index

    def __len__(self) -> int:
        return len(self._ids)

    def subset(self, ids: Sequence[str]) -> "EmbeddingSet":
        """Project onto `ids` in the given order (the set itself if that is its
        own order); unknown ids are an error."""
        if tuple(ids) == self._ids:
            return self
        try:
            positions = [self._index[eid] for eid in ids]
        except KeyError as e:
            raise DataError(f"no embedding for id {e.args[0]}") from None
        return EmbeddingSet(list(ids), self._matrix[positions])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EmbeddingSet)
            and self._ids == other._ids
            and bool(np.array_equal(self._matrix, other._matrix))
        )


def parse_queries(path) -> QuerySet:
    """Read ``id<TAB>text`` records, preserving file order."""
    queries: list[Query] = []
    lines: list[int] = []
    for lineno, line in _iter_lines(path):
        if "\t" not in line:
            raise ParseError(path, "expected 'id<TAB>text'", lineno)
        queries.append(Query(*line.split("\t", 1)))
        lines.append(lineno)
    with _located(path, lines.__getitem__):
        return QuerySet(queries)


def write_queries(queries: QuerySet, path) -> None:
    with atomic_output(path) as f:
        for q in queries:
            f.write(f"{q.id}\t{q.text}\n")


def parse_qrels(path) -> QrelSet:
    """Read ``qid 0 docid rel`` records; later duplicates overwrite with a warning."""
    oversized = 0
    lineno = 0

    def records() -> Iterator[tuple[str, str, int]]:
        nonlocal oversized, lineno
        for first, lines in _iter_blocks(path):
            for lineno, line in enumerate(lines, first):
                fields = line.split()
                if len(fields) != 4:
                    if line in _BLANK:
                        continue
                    raise ParseError(path, f"expected 'qid 0 docid rel' (4 fields), got {len(fields)}", lineno)
                qid, _, docid, rel_s = fields
                try:
                    rel = int(rel_s)
                except ValueError:
                    message = f"relevance grade must be an integer, got {rel_s!r}"
                    raise ParseError(path, message, lineno) from None
                if rel > 3:
                    oversized += 1
                yield qid, docid, rel

    # the container checks each record before the next line is read
    with _located(path, lambda record: lineno):
        qrels = QrelSet.from_records(records())
    if qrels.overwrites:
        logger.warning("%s: %d duplicate (query, doc) pairs; later records win", path, qrels.overwrites)
    if oversized:
        logger.warning("%s: %d grades exceed 3 (expected 0-3 TREC DL or 0/1 MS MARCO style)", path, oversized)
    return qrels


def _check_pairs_serializable(qid: str, docids: Sequence[str]) -> None:
    """Raise at the first (qid, doc id) pair, in `docids` order, that is not two tokens."""
    if docids and (_bad_id(qid) or not all(docids) or _WS.search("".join(docids))):
        docid = next(d for d in docids if _bad_id(qid) or _bad_id(d))
        raise DataError(f"cannot serialize ({qid!r}, {docid!r}): ids must be whitespace-free tokens")


def write_qrels(qrels: QrelSet, path) -> None:
    with atomic_output(path) as f:
        for qid in qrels.query_ids():
            docs = qrels.docs(qid)
            _check_pairs_serializable(qid, list(docs))
            f.write("".join([f"{qid} 0 {docid} {rel}\n" for docid, rel in docs.items()]))


def parse_run(path) -> RunSet:
    """Read a TREC run file; ranking order is re-derived from the scores."""
    # per query, the rank and score of each line in file order: rank, score, rank, ...
    file_order: dict[str, list] = {}
    tag: str | None = None
    lineno = 0

    def records() -> Iterator[tuple[str, tuple[str, float]]]:
        nonlocal tag, lineno
        isfinite = math.isfinite
        for first, lines in _iter_blocks(path):
            for lineno, line in enumerate(lines, first):
                fields = line.split()
                if len(fields) != 6:
                    if line in _BLANK:
                        continue
                    raise ParseError(
                        path, f"expected 'qid Q0 docid rank score tag' (6 fields), got {len(fields)}", lineno
                    )
                qid, _, docid, rank_s, score_s, line_tag = fields
                try:
                    rank = int(rank_s)
                except ValueError:
                    raise ParseError(path, f"rank must be an integer, got {rank_s!r}", lineno) from None
                try:
                    score = float(score_s)
                except ValueError:
                    raise ParseError(path, f"score must be a number, got {score_s!r}", lineno) from None
                if not isfinite(score):
                    raise ParseError(path, f"non-finite score {score_s}", lineno)
                order = file_order.get(qid)
                if order is None:
                    file_order[qid] = [rank, score]
                    if tag is None:
                        tag = line_tag
                else:
                    order.append(rank)
                    order.append(score)
                yield qid, (docid, score)

    # the container checks each record before the next line is read
    with _located(path, lambda record: lineno):
        run = RunSet.from_records(records())
    run.tag = tag  # the first line's, known once the records were read
    contradictions = sum(_ranks_contradict_scores(order[::2], order[1::2]) for order in file_order.values())
    if contradictions:
        logger.warning(
            "%s: rank field contradicts score order for %d queries; ranks re-derived from scores",
            path,
            contradictions,
        )
    return run


def _ranks_contradict_scores(ranks: list[int], scores: list[float]) -> bool:
    """Whether the scores, in rank order (file order among equal ranks), ever rise."""
    if ranks != sorted(ranks):
        scores = [score for _, score in sorted(zip(ranks, scores), key=itemgetter(0))]
    # a list is non-increasing exactly when it equals its stable descending sort
    return scores != sorted(scores, reverse=True)


def write_run(run: RunSet, path, tag: str | None = None) -> None:
    """Write in TREC format with re-derived 1-based ranks; scores use repr (lossless)."""
    tag = tag or run.tag or "xtrap"
    if _bad_id(tag):
        raise DataError(f"run tag must be a whitespace-free token, got {tag!r}")
    with atomic_output(path) as f:
        for qid in run.query_ids():
            ranking = run.ranking(qid)
            _check_pairs_serializable(qid, [docid for docid, _ in ranking])
            head, tail = f"{qid} Q0 ", f" {tag}\n"
            f.write("".join([f"{head}{d} {rank} {score!r}{tail}" for rank, (d, score) in enumerate(ranking, 1)]))


def _binary_error(path, offset: int, message: str) -> ParseError:
    return ParseError(path, f"offset {offset}: {message}")


def read_embeddings(path) -> EmbeddingSet:
    """Read an embedding file: EVEC if it starts with the magic ``EVEC``, else TSV.

    EVEC layout, little-endian throughout: magic ``EVEC``, u32 version=1,
    u64 count, u32 dim, then per record a u16 id byte length, the UTF-8 id,
    and dim float32 components. A TSV file whose first id begins with
    ``EVEC`` is therefore read as EVEC, and rejected; `write_embeddings`
    refuses to write one.
    """
    with open(path, "rb") as f:
        head = f.read(len(EMBEDDING_MAGIC))
        if head == EMBEDDING_MAGIC:
            return _read_embeddings_binary(path, f)
        return _read_embeddings_tsv(path, f, head)


def _read_embeddings_binary(path, f: IO[bytes]) -> EmbeddingSet:
    """Read the EVEC records after the magic; each vector is read straight
    into its row of the matrix, and an error's offset is the file position."""
    read, readinto = f.read, f.readinto

    def take(n: int, what: str) -> bytes:
        chunk = read(n)
        if len(chunk) < n:
            raise _binary_error(path, f.tell() - len(chunk), f"truncated file while reading {what}")
        return chunk

    (version,) = struct.unpack("<I", take(4, "version"))
    if version != EMBEDDING_VERSION:
        raise _binary_error(path, 4, f"unsupported version {version}")
    (count,) = struct.unpack("<Q", take(8, "count"))
    (dim,) = struct.unpack("<I", take(4, "dim"))
    if dim < 1:
        raise _binary_error(path, 16, "dim must be positive")
    size = os.fstat(f.fileno()).st_size
    if count * (2 + 4 * dim) > size - f.tell():
        raise _binary_error(
            path, 8, f"count {count} of dim {dim} needs more than the {size - f.tell()} bytes after the header"
        )
    ids: list[str] = []
    matrix = np.empty((count, dim), dtype="<f4")
    rows = memoryview(matrix.reshape(-1).view(np.uint8))
    vec_bytes = 4 * dim
    for i in range(count):
        (id_len,) = struct.unpack("<H", take(2, f"id length of record {i}"))
        try:
            ids.append(take(id_len, f"id of record {i}").decode("utf-8"))
        except UnicodeDecodeError as e:
            raise _binary_error(path, f.tell(), f"record {i}: id is not valid UTF-8: {e}") from e
        got = readinto(rows[i * vec_bytes : (i + 1) * vec_bytes])
        if got < vec_bytes:
            raise _binary_error(path, f.tell() - got, f"truncated file while reading vector of record {i}")
    if f.tell() != size:
        raise _binary_error(path, f.tell(), f"{size - f.tell()} trailing bytes after {count} records")
    with _located(path):
        return EmbeddingSet(ids, matrix)


def _read_embeddings_tsv(path, f: IO[bytes] | None = None, head: bytes = b"") -> EmbeddingSet:
    """Read TSV records; `f` and `head` are as for `_iter_blocks`."""
    ids: list[str] = []
    rows: list[np.ndarray] = []
    lines: list[int] = []
    for lineno, line in _iter_lines(path, f, head):
        if "\t" not in line:
            raise ParseError(path, "expected 'id<TAB>v1 v2 ...'", lineno)
        eid, rest = line.split("\t", 1)
        parts = rest.split()
        if not parts:
            raise ParseError(path, "empty vector", lineno)
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ParseError(path, "vector components must be decimal floats", lineno) from None
        # a finite 1e39 overflows to inf in the cast; the set rejects the row
        with np.errstate(over="ignore"):
            row = np.asarray(values, dtype=np.float32)
        if rows and len(row) != len(rows[0]):
            raise ParseError(path, f"expected {len(rows[0])} components, got {len(row)}", lineno)
        ids.append(eid)
        rows.append(row)
        lines.append(lineno)
    if not rows:
        raise ParseError(path, "no embedding records found")
    with _located(path, lines.__getitem__):
        return EmbeddingSet(ids, np.vstack(rows))


def write_embeddings(embeddings: EmbeddingSet, path, format: str = "binary") -> None:
    if format == "binary":
        _write_embeddings_binary(embeddings, path)
    elif format == "tsv":
        _write_embeddings_tsv(embeddings, path)
    else:
        raise ValueError(f"unknown embedding format {format!r}")


def _write_embeddings_binary(embeddings: EmbeddingSet, path) -> None:
    matrix = np.ascontiguousarray(embeddings.matrix, dtype="<f4")
    with atomic_output(path, binary=True) as f:
        f.write(EMBEDDING_MAGIC)
        f.write(struct.pack("<IQI", EMBEDDING_VERSION, len(embeddings), embeddings.dim))
        for i, eid in enumerate(embeddings.ids):
            id_bytes = eid.encode("utf-8")
            if len(id_bytes) > 0xFFFF:
                raise DataError(f"id {eid[:32]!r}... exceeds 65535 UTF-8 bytes")
            f.write(struct.pack("<H", len(id_bytes)))
            f.write(id_bytes)
            f.write(matrix[i].tobytes())


def _write_embeddings_tsv(embeddings: EmbeddingSet, path) -> None:
    if embeddings.ids and embeddings.ids[0].startswith(EMBEDDING_MAGIC.decode()):
        raise DataError(
            f"id {embeddings.ids[0]} cannot start a TSV embedding file: "
            "a file that begins with EVEC is read as EVEC"
        )
    # %.9g is lossless for float32 round-trips
    with atomic_output(path) as f:
        for i, eid in enumerate(embeddings.ids):
            comps = " ".join("%.9g" % v for v in embeddings.matrix[i])
            f.write(f"{eid}\t{comps}\n")
