"""Dataset resampling for interpolation/extrapolation evaluation.

Two strategies are provided. The first keeps the original test set and
rebuilds the training set from query-similarity neighborhoods: the
interpolation variant unions the nearest training queries of every test
query (round-robin over neighbor ranks, deduplicated, truncated to the
requested size); the extrapolation variant removes every test query's
nearest training queries and samples the remainder. The second strategy
clusters training and test queries together with k-means and evaluates
leave-one-bucket-out: models train on k-1 buckets, the held-out bucket's
test queries score extrapolation, the rest score interpolation, and each
test query is therefore scored k-1 times for interpolation. Both take
the training and test embedding sets as the query sets: their ids, in
their order.

k-means is exact in float64 and bitwise reproducible. k-means++ seeding
samples from the exact float64 squared distances of every row. Each Lloyd
assignment first scores every (row, centroid) pair with a float32 GEMM
and a certified rounding bound, the same screen `knn` uses; only the
centroids that the bound cannot rule out get an exact float64 distance, so
the assignment, its lowest-index tie rule and every inertia equal those of
a float64 distance to every centroid.

All randomness flows through numpy's PCG64 generator seeded from the
config, and the algorithm identifier is recorded in the split manifest,
so identical configs reproduce identical splits on any platform.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import _np as np
from .dataio import DataError, EmbeddingSet, ParseError, QrelSet, RunSet
from .dataio import _index_ids, _int, _iter_lines, _located, atomic_output
from .metrics import MetricSpec, evaluable, mean_by_query, score_run
from .simindex import _BLOCK_ELEMENTS, _check_measure, _check_query_sets, _rounding_bounds, _rowdot, knn

logger = logging.getLogger(__name__)

RNG_ALGORITHM = "pcg64"

_SINGLE_BUCKET = "k must be >= 2: a single bucket leaves no training data"

# rows per block of the assignment screen: per GEMM call, and per block of
# its float64 per-pair temporaries; a call over fewer rows touches less of
# OpenBLAS's work buffers (about 60 MiB of RSS for one call over 200k x 768)
_SCREEN_ROWS = 4096
# restrain_interpolation's one kNN scan goes past each test query's even
# share ceil(size / n_test) of the union, because overlapping neighborhoods
# shrink the union below n_test x depth: to 4 shares in all (the fewest that
# reached the size in one scan on both overlapping inputs measured, 12k x 600
# and 200k x 1k; 2 shares needed a second scan), and by at most
# n_train / 512 ranks. Rescoring a pair in float64 costs about as much as
# screening 350 in float32 (768 dims, 2 cores), so the extra depth costs at
# most about two thirds of the rescan it saves: inputs whose union one share
# fills, such as a few test queries in distinct topics, pay little for it
_SCAN_SHARES = 4
_SCAN_TRAIN_ROWS_PER_EXTRA_RANK = 512


@dataclass(frozen=True)
class KMeansConfig:
    k: int = 5
    seed: int = 42
    max_iters: int = 100
    tol: float = 1e-4
    normalize: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")

    def provenance(self) -> dict[str, str]:
        return {
            "seed": str(self.seed),
            "max_iters": str(self.max_iters),
            "tol": repr(self.tol),
            "normalize": str(self.normalize).lower(),
            "rng": RNG_ALGORITHM,
        }


@dataclass(frozen=True)
class ReSTrainConfig:
    """Exclusion depth, output size, and seed for training-set resampling."""

    target_size: int
    exclude_depth: int = 1
    seed: int = 42
    measure: str = "inner_product"

    def __post_init__(self):
        if self.target_size < 1:
            raise ValueError("target_size must be >= 1")
        if self.exclude_depth < 1:
            raise ValueError("exclude_depth must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _check_measure(self.measure)

    def provenance(self) -> dict[str, str]:
        return {
            "seed": str(self.seed),
            "exclude_depth": str(self.exclude_depth),
            "target_size": str(self.target_size),
            "measure": self.measure,
            "rng": RNG_ALGORITHM,
        }


@dataclass(frozen=True)
class KMeansResult:
    """`assignment` is the `intp` bucket of each row of the clustered points."""

    centroids: np.ndarray
    assignment: np.ndarray
    inertia: float
    history: tuple[float, ...]
    iterations: int


@dataclass(frozen=True)
class SplitSpec:
    """Which ids train and which test, for one resampled dataset."""

    regime: str
    training_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.regime not in ("interpolation", "extrapolation"):
            raise DataError(f"unknown regime {self.regime!r}")
        # ids are named by their manifest section
        training = _index_ids(self.training_ids, "[training]")
        overlap = training.keys() & _index_ids(self.test_ids, f"[test-{self.regime}]")
        if overlap:
            raise DataError(f"training and test ids overlap: {sorted(overlap)[:5]}")


@dataclass(frozen=True)
class FoldSpec:
    """Leave-one-bucket-out folds over a k-means bucketing.

    `buckets[i]` lists the ids assigned to bucket i, training queries
    first, each group in its original order. Fold f trains on the
    training queries outside bucket f, extrapolates on the test queries
    inside it, and interpolates on the test queries outside it.
    """

    k: int
    buckets: tuple[tuple[str, ...], ...]
    train_ids: tuple[str, ...]
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 2:
            raise DataError(_SINGLE_BUCKET)
        if len(self.buckets) != self.k:
            raise DataError(f"expected {self.k} buckets, got {len(self.buckets)}")
        _index_ids(self.train_ids, "[training]")
        bucket_of: dict[str, int] = {}
        for b, bucket in enumerate(self.buckets):
            for i in _index_ids(bucket, f"[bucket {b}]"):
                if bucket_of.setdefault(i, b) != b:
                    raise DataError(f"buckets must partition the queries; found a duplicate id {i}")
        missing = self._train_set.difference(bucket_of)
        if missing:
            raise DataError(f"training ids missing from buckets: {sorted(missing)[:5]}")

    @functools.cached_property
    def _train_set(self) -> frozenset[str]:
        return frozenset(self.train_ids)

    @property
    def bucket_of(self) -> dict[str, int]:
        return {i: b for b, bucket in enumerate(self.buckets) for i in bucket}

    @property
    def test_ids(self) -> tuple[str, ...]:
        return tuple(i for bucket in self.buckets for i in bucket if i not in self._train_set)

    def fold_training_ids(self, fold: int) -> tuple[str, ...]:
        return tuple(
            i for b, bucket in enumerate(self.buckets) if b != fold for i in bucket if i in self._train_set
        )

    def fold_extrapolation_test_ids(self, fold: int) -> tuple[str, ...]:
        return tuple(i for i in self.buckets[fold] if i not in self._train_set)

    def fold_interpolation_test_ids(self, fold: int) -> tuple[str, ...]:
        return tuple(
            i for b, bucket in enumerate(self.buckets) if b != fold for i in bucket if i not in self._train_set
        )


def _sq_distances(X: np.ndarray, rows: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Exact float64 squared distance from X[rows[p]] to the float64 `centroid`, per row p.

    The float32 rows are not copied to float64: subtracting the broadcast
    centroid casts each element exactly, so a row's distance is the same
    `_rowdot` of its own difference vector whatever the blocking.
    """
    out = np.empty(len(rows), dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // X.shape[1])
    for lo in range(0, len(rows), step):
        block = slice(lo, lo + step)
        diff = X[rows[block]] - centroid
        out[block] = _rowdot(diff, diff)
    return out


def _assign(
    X: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest centroid of every row (lowest index on ties) and its exact distance.

    A float32 GEMM gives the expanded distance |x|^2 - 2 x.c + |c|^2 of
    every pair. It lies within `err` of the exact float64 distance, so a
    centroid whose lower bound exceeds the row's best upper bound cannot be
    nearest, and only the survivors get an exact distance. Returns the
    assignment, its exact distances and the number of rows that had more
    than one survivor.
    """
    n, dim = X.shape
    gamma, tiny = _rounding_bounds(dim)
    c_sq = _rowdot(centroids, centroids)
    c_norms = np.sqrt(c_sq)
    c32 = centroids.astype(np.float32).T
    assignment = np.empty(n, dtype=np.intp)
    d2min = np.empty(n, dtype=np.float64)
    rescored = 0
    for lo in range(0, n, _SCREEN_ROWS):
        block = slice(lo, lo + _SCREEN_ROWS)
        x_sq = sq_norms[block, None]
        # err covers the float32 dot product and centroid cast, the float64
        # norms and sums, and the exact distance's own float64 rounding (a
        # sum of dim squares of rounded differences): all are relative to
        # (|x| + |c|)^2, which bounds both norms and 4 |x.c|; the absolute
        # term covers float32 underflow of the 2 x.c products
        x_norms = np.sqrt(x_sq)
        err = gamma * (x_norms + c_norms) ** 2 + 4.0 * tiny * (1.0 + x_norms)
        with np.errstate(over="ignore", invalid="ignore"):
            approx = x_sq - 2.0 * np.matmul(X[block], c32) + c_sq
            high = approx + err
            survive = approx - err <= high.min(axis=1)[:, None]
        # a float32 overflow leaves inf or nan: every centroid of the row survives
        survive[~np.isfinite(high).all(axis=1)] = True
        exact = np.full(survive.shape, np.inf)
        for j, centroid in enumerate(centroids):
            rows = np.flatnonzero(survive[:, j])
            exact[rows, j] = _sq_distances(X, rows + lo, centroid)
        assignment[block] = np.argmin(exact, axis=1)
        d2min[block] = exact.min(axis=1)
        rescored += int(np.count_nonzero(survive.sum(axis=1) > 1))
    return assignment, d2min, rescored


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seed centroids with the k-means++ scheme (D^2 sampling).

    The sampling reads every bit of `d2`, so each draw after the first
    costs one exact pass over all rows: k seeds take k-1 passes.
    """
    n = X.shape[0]
    rows = np.arange(n)
    chosen = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    for _ in range(1, k):
        d2 = np.minimum(d2, _sq_distances(X, rows, X[chosen[-1]].astype(np.float64)))
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all points coincide with a chosen center; pick any unused point
            unused = np.setdiff1d(rows, chosen)
            idx = int(unused[rng.integers(len(unused))])
        chosen.append(idx)
    return X[chosen].astype(np.float64)


def _update_centroids(X: np.ndarray, assignment: np.ndarray, k: int, d2min: np.ndarray) -> np.ndarray:
    """Cluster means; empty clusters, lowest first, seize the points farthest from their centroids."""
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    counts = np.bincount(assignment, minlength=k)
    stealable = d2min.copy()
    for j in range(k):
        if counts[j]:
            members = np.flatnonzero(assignment == j)
            centroids[j] = X[members].sum(axis=0, dtype=np.float64) / counts[j]
        else:
            victim = int(np.argmax(stealable))
            centroids[j] = X[victim].astype(np.float64)
            stealable[victim] = -1.0
    return centroids


def kmeans(points: EmbeddingSet, cfg: KMeansConfig) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding and a deterministic PRNG.

    Stops on an assignment fixpoint, when no centroid moves more than
    `tol` (L2), or after `max_iters`. The recorded inertia history is
    checked to be non-increasing every iteration; an increase raises
    DataError. Every distance that decides a result is the exact float64
    one; the float32 screen of `_assign` only skips centroids that cannot
    be nearest.
    """
    n = len(points)
    if cfg.k > n:
        raise DataError(f"k={cfg.k} exceeds the number of points ({n})")
    X = points.matrix
    if cfg.normalize:
        norms = np.sqrt(_rowdot(X, X))
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DataError(f"cannot normalize zero vector for id {points.ids[zero[0]]}")
        # a buffered divide: each float64 quotient is rounded into the float32 output
        X = np.divide(X, norms[:, None], out=np.empty_like(X))
    sq_norms = _rowdot(X, X)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    centroids = _kmeanspp_init(X, cfg.k, rng)
    assignment, d2min, rescored = _assign(X, sq_norms, centroids)
    history = [float(d2min.sum())]

    for iterations in range(1, cfg.max_iters + 1):
        new_centroids = _update_centroids(X, assignment, cfg.k, d2min)
        new_assignment, d2min, more = _assign(X, sq_norms, new_centroids)
        rescored += more
        inertia = float(d2min.sum())
        if inertia > history[-1] * (1.0 + 1e-12) + 1e-12:
            raise DataError(
                f"k-means inertia increased at iteration {iterations}: "
                f"{history[-1]!r} -> {inertia!r}"
            )
        history.append(inertia)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        if shift < cfg.tol:
            break

    # every assignment, the first and one per iteration, screens all n rows
    logger.info(
        "kmeans: %d iterations, inertia %r; assignment screen decided %d rows, %d rescored in float64",
        iterations, history[-1], n * len(history) - rescored, rescored,
    )
    return KMeansResult(
        centroids=centroids,
        assignment=assignment,
        inertia=history[-1],
        history=tuple(history),
        iterations=iterations,
    )


def restrain_interpolation(train_emb: EmbeddingSet, test_emb: EmbeddingSet, cfg: ReSTrainConfig) -> SplitSpec:
    """Training set = nearest training queries of the test set, exactly target_size.

    Per-test neighbor lists are merged in round-robin rank order and
    deduplicated. The union is rank-major and exact top-D is a prefix of
    top-D' for D < D', so the union at any depth is a prefix of the union
    at a deeper one: the split does not depend on the scan depth, and a
    smaller target yields a prefix of a larger one.
    """
    _check_query_sets(train_emb, test_emb)
    n_train = len(train_emb)
    if cfg.target_size > n_train:
        raise DataError(
            f"target_size {cfg.target_size} exceeds the {n_train} available training queries"
        )
    share = math.ceil(cfg.target_size / len(test_emb))
    extra = min((_SCAN_SHARES - 1) * share, n_train // _SCAN_TRAIN_ROWS_PER_EXTRA_RANK)
    # one list of depth target_size holds target_size distinct ids, so no
    # scan needs to go deeper than that
    depth = min(cfg.target_size, share + extra)
    scans = 0
    while True:
        index, _ = knn(test_emb, train_emb, depth, measure=cfg.measure)
        scans += 1
        # the union in round-robin order: rank 1 of every test query, then
        # rank 2, ..., each row position at its first occurrence
        rank_major = index.T.ravel()
        _, first = np.unique(rank_major, return_index=True)
        if len(first) >= cfg.target_size:
            break
        # short, so depth < target_size <= n_train
        depth = min(cfg.target_size, depth * 2)
    logger.info(
        "restrain inter: depth %d, %d knn scan(s), union of %d for size %d",
        depth, scans, len(first), cfg.target_size,
    )
    union = rank_major[np.sort(first)[: cfg.target_size]]
    return SplitSpec(
        regime="interpolation",
        training_ids=tuple(train_emb.ids[j] for j in union.tolist()),
        test_ids=test_emb.ids,
        provenance=cfg.provenance(),
    )


def restrain_extrapolation(train_emb: EmbeddingSet, test_emb: EmbeddingSet, cfg: ReSTrainConfig) -> SplitSpec:
    """Training set sampled from queries outside every test query's neighborhood."""
    _check_query_sets(train_emb, test_emb)
    depth = min(cfg.exclude_depth, len(train_emb))
    index, _ = knn(test_emb, train_emb, depth, measure=cfg.measure)
    remaining = np.setdiff1d(np.arange(len(train_emb)), index)
    if len(remaining) < cfg.target_size:
        raise DataError(
            f"excluding top-{cfg.exclude_depth} neighborhoods leaves {len(remaining)} "
            f"training queries; max feasible target_size is {len(remaining)}"
        )
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    picks = rng.choice(len(remaining), size=cfg.target_size, replace=False)
    return SplitSpec(
        regime="extrapolation",
        training_ids=tuple(train_emb.ids[j] for j in remaining[picks].tolist()),
        test_ids=test_emb.ids,
        provenance=cfg.provenance(),
    )


def resttest_split(train_emb: EmbeddingSet, test_emb: EmbeddingSet, cfg: KMeansConfig) -> FoldSpec:
    """Cluster training and test queries together and derive leave-one-bucket-out folds."""
    if cfg.k < 2:
        raise ValueError(_SINGLE_BUCKET)
    _check_query_sets(train_emb, test_emb)
    combined = EmbeddingSet(train_emb.ids + test_emb.ids, np.vstack([train_emb.matrix, test_emb.matrix]))
    assignment = kmeans(combined, cfg).assignment
    # a stable sort keeps training ids first and each group in row order
    ends = np.cumsum(np.bincount(assignment, minlength=cfg.k))[:-1]
    rows = np.split(np.argsort(assignment, kind="stable"), ends)
    for b in np.flatnonzero(np.bincount(assignment[len(train_emb) :], minlength=cfg.k) == 0).tolist():
        logger.warning("bucket %d contains no test queries; fold %d contributes no extrapolation scores", b, b)
    return FoldSpec(
        k=cfg.k,
        buckets=tuple(tuple(combined.ids[j] for j in bucket.tolist()) for bucket in rows),
        train_ids=train_emb.ids,
        provenance=cfg.provenance(),
    )


@dataclass
class AggregateReport:
    """Fold-averaged scores: one extrapolation score per test query, the
    mean of k-1 interpolation scores per test query, and their means."""

    label: str
    interpolation: float
    extrapolation: float
    per_query: dict[str, tuple[float, float]]
    skipped_ids: list[str] = field(default_factory=list)


def resttest_aggregate(
    fold_runs: Iterable[RunSet],
    fold_spec: FoldSpec,
    qrels: QrelSet,
    spec: MetricSpec,
) -> AggregateReport:
    """Score every fold's run and combine per the leave-one-bucket-out protocol.

    Each run is scored and released before the next one is taken from
    `fold_runs`, so a generator of parsed runs holds one run at a time.
    """
    reports = []
    for run in fold_runs:
        reports.append(score_run(run, qrels, spec))
        del run
    if len(reports) != fold_spec.k:
        raise DataError(f"expected {fold_spec.k} fold runs, got {len(reports)}")
    per_query: dict[str, tuple[float, float]] = {}
    skipped: list[str] = []
    missing = 0
    # bucket by bucket is the order of fold_spec.test_ids
    for extra_fold in range(fold_spec.k):
        for qid in fold_spec.fold_extrapolation_test_ids(extra_fold):
            if not evaluable(qrels, qid, spec):
                skipped.append(qid)
                continue
            scores = [report.per_query.get(qid) for report in reports]
            missing += scores.count(None)
            inter = [score or 0.0 for f, score in enumerate(scores) if f != extra_fold]
            per_query[qid] = (sum(inter) / len(inter), scores[extra_fold] or 0.0)
    if missing:
        logger.warning("%d fold-query scores missing from the runs; scored 0", missing)
    if skipped:
        logger.warning("%s: skipped %d test queries without usable judgments", spec.label, len(skipped))
    return AggregateReport(
        label=spec.label,
        interpolation=mean_by_query({qid: inter for qid, (inter, _) in per_query.items()}),
        extrapolation=mean_by_query({qid: extra for qid, (_, extra) in per_query.items()}),
        per_query=per_query,
        skipped_ids=skipped,
    )


def write_aggregate_report(report: AggregateReport, path) -> None:
    """TSV `metric<TAB>qid<TAB>interpolation<TAB>extrapolation` plus an ALL row."""
    with atomic_output(path) as f:
        for qid in sorted(report.per_query):
            inter, extra = report.per_query[qid]
            f.write(f"{report.label}\t{qid}\t{inter:.4f}\t{extra:.4f}\n")
        f.write(f"{report.label}\tALL\t{report.interpolation:.4f}\t{report.extrapolation:.4f}\n")


def _check_section_ids(ids: Sequence[str]) -> None:
    """No id of a manifest section starts with `#` or `[`, as a header line does;
    the specs hold the token and uniqueness rule."""
    reserved = next((eid for eid in ids if eid.startswith(("#", "["))), None)
    if reserved is not None:
        raise DataError(f"id {reserved!r} cannot be written to a manifest (reserved prefix)")


def _check_provenance(provenance: dict[str, str], reserved: tuple[str, ...]) -> None:
    """Each `#key=value` header reads back as written: the key is not `reserved`
    and holds no `=`, and neither key nor value holds a line break."""
    for key, value in provenance.items():
        if key in reserved or "=" in key or any(c in key + value for c in "\n\r"):
            raise DataError(f"provenance {key!r}={value!r} cannot be written to a manifest header")


def write_manifest(spec: SplitSpec | FoldSpec, path) -> None:
    """Write a split/fold manifest.

    Header lines `#key=value` (regime first, then seed, then `#k` for
    fold manifests, then the remaining provenance keys sorted), followed
    by one id per line, each a token, under `[training]`, `[test-interpolation]`,
    `[test-extrapolation]`, or `[bucket i]` sections. LF line endings. What
    would not read back as written raises DataError before the file opens.
    """
    if isinstance(spec, SplitSpec):
        regime, k_header, training = spec.regime, [], spec.training_ids
        sections = [(f"test-{spec.regime}", spec.test_ids)]
    elif isinstance(spec, FoldSpec):
        regime, k_header, training = "resttest", [f"#k={spec.k}"], spec.train_ids
        sections = [(f"bucket {b}", bucket) for b, bucket in enumerate(spec.buckets)]
    else:
        raise TypeError(f"cannot serialize {type(spec).__name__}")
    _check_provenance(spec.provenance, ("regime", "k") if k_header else ("regime",))
    prov = dict(spec.provenance)
    lines = [f"#regime={regime}"]
    if "seed" in prov:
        lines.append(f"#seed={prov.pop('seed')}")
    lines += k_header + [f"#{key}={prov[key]}" for key in sorted(prov)]
    for name, ids in [("training", training), *sections]:
        _check_section_ids(ids)
        lines.append(f"[{name}]")
        lines.extend(ids)
    with atomic_output(path) as f:
        f.write("\n".join(lines) + "\n")


def read_manifest(path) -> SplitSpec | FoldSpec:
    """Read back a manifest written by :func:`write_manifest`.

    Headers other than ``#regime`` and ``#k`` are free-form provenance. A
    bad ``#regime`` or ``#k`` value, a repeated header, or a section that the
    regime does not define, is an error at its line. An id or a header that
    `write_manifest` would refuse is an error too, so every manifest read can
    be written back.
    """
    headers: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    sections: dict[str, list[str]] = {}
    starts: dict[str, int] = {}
    current: str | None = None
    for lineno, line in _iter_lines(path):
        if line.startswith("#"):
            if current is not None:
                raise ParseError(path, "header line after a section started", lineno)
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise ParseError(path, "header must look like #key=value", lineno)
            if key in headers:
                raise ParseError(path, f"duplicate header #{key}", lineno)
            headers[key] = value
            header_lines[key] = lineno
        elif line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current in sections:
                raise ParseError(path, f"duplicate section [{current}]", lineno)
            sections[current] = []
            starts[current] = lineno
        else:
            if current is None:
                raise ParseError(path, "id line before any section header", lineno)
            sections[current].append(line)
    regime = headers.pop("regime", None)
    if regime in ("interpolation", "extrapolation"):
        names = ["training", f"test-{regime}"]
    elif regime == "resttest":
        if "k" not in headers:
            raise ParseError(path, "missing #k header")
        try:
            k = _int(headers.pop("k"))
        except ValueError:
            raise ParseError(path, "#k must be an integer", header_lines["k"]) from None
        if k < 2:
            raise ParseError(path, _SINGLE_BUCKET, header_lines["k"])
        # with k >= len(sections) some bucket below len(sections) is missing,
        # so the list stays no longer than the file
        names = ["training", *(f"bucket {b}" for b in range(min(k, len(sections))))]
    elif regime is None:
        raise ParseError(path, "missing #regime header")
    else:
        raise ParseError(path, f"unknown regime {regime!r}", header_lines["regime"])
    for name in names:
        if name not in sections:
            raise ParseError(path, f"missing [{name}] section")
    expected = set(names)
    for name, lineno in starts.items():
        if name not in expected:
            raise ParseError(path, f"unexpected section [{name}] for #regime={regime}", lineno)
    with _located(path):
        _check_provenance(headers, ())
        if regime == "resttest":
            buckets = tuple(tuple(sections[name]) for name in names[1:])
            spec = FoldSpec(k=k, buckets=buckets, train_ids=tuple(sections["training"]), provenance=headers)
        else:
            spec = SplitSpec(regime, tuple(sections["training"]), tuple(sections[names[1]]), provenance=headers)
        # after the spec, so that a broken spec rule is reported as that rule
        for name in names:
            _check_section_ids(sections[name])
    return spec
