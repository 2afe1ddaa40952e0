"""Auditing and meta-analysis: train-test judgment overlap, rank
correlations, inter-annotator agreement, and 2-D PCA for split plots.

The overlap audit answers "how many test queries share at least one
relevant passage with the training judgments" at configurable grade
thresholds. Correlations follow the tie-corrected textbook definitions
(average ranks for Spearman, tau-b tie terms for Kendall). PCA solves
the dense d x d covariance with a symmetric eigensolver and fixes each
axis' sign, so projections are reproducible; it is meant for plotting,
not for the resampling protocol itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import DataError, EmbeddingSet, ParseError, QrelSet, _iter_lines, _row_chunks, atomic_output


@dataclass(frozen=True)
class GradeThreshold:
    """Binarization rule for graded judgments: grade == value or grade >= value."""

    mode: str
    value: int

    def __post_init__(self):
        if self.mode not in ("geq", "eq"):
            raise ValueError(f"threshold mode must be 'geq' or 'eq', got {self.mode!r}")
        if self.value < 0:
            raise ValueError("threshold value must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "GradeThreshold":
        mode, sep, value = text.strip().partition(":")
        if not sep:
            raise ValueError(f"bad threshold {text!r}, expected 'geq:N' or 'eq:N'")
        try:
            return cls(mode=mode, value=int(value))
        except ValueError as e:
            raise ValueError(f"bad threshold {text!r}: {e}") from None

    def matches(self, grade: int) -> bool:
        return grade == self.value if self.mode == "eq" else grade >= self.value

    @property
    def label(self) -> str:
        return f"{self.mode}:{self.value}"


DEFAULT_THRESHOLDS = (
    GradeThreshold("geq", 1),
    GradeThreshold("geq", 2),
    GradeThreshold("eq", 3),
)


@dataclass(frozen=True)
class OverlapRow:
    threshold: GradeThreshold
    count: int
    total: int

    @property
    def percent(self) -> float:
        return 100.0 * self.count / self.total


@dataclass(frozen=True)
class OverlapReport:
    rows: tuple[OverlapRow, ...]


def relevant_overlap(
    test_qrels: QrelSet,
    train_qrels: QrelSet,
    thresholds: Sequence[GradeThreshold] = DEFAULT_THRESHOLDS,
) -> OverlapReport:
    """Fraction of test queries sharing a relevant doc with the training judgments.

    A test query counts at a threshold when one of its docs both satisfies
    the threshold in the test qrels and is relevant (grade >= 1) for any
    training query.
    """
    test_ids = test_qrels.query_ids()
    if not test_ids:
        raise DataError("test qrels are empty")
    train_relevant = train_qrels.relevant_docs()
    counts = [0] * len(thresholds)
    for qid in test_ids:
        # the test grades of the query's docs that are relevant in training
        shared = [rel for docid, rel in test_qrels.docs(qid).items() if docid in train_relevant]
        for i, th in enumerate(thresholds):
            counts[i] += any(th.matches(rel) for rel in shared)
    return OverlapReport(
        rows=tuple(OverlapRow(threshold=th, count=c, total=len(test_ids)) for th, c in zip(thresholds, counts))
    )


def write_overlap_report(report: OverlapReport, path) -> None:
    """TSV `threshold<TAB>count<TAB>total<TAB>percent`."""
    with atomic_output(path) as f:
        for row in report.rows:
            f.write(f"{row.threshold.label}\t{row.count}\t{row.total}\t{row.percent:.2f}\n")


PairedScores = Sequence[tuple[str, float, float]]


def read_pairs(path) -> list[tuple[str, float, float]]:
    """TSV `label<TAB>x<TAB>y` with finite decimal values."""
    pairs: list[tuple[str, float, float]] = []
    for lineno, line in _iter_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(path, f"expected 'label<TAB>x<TAB>y', got {len(fields)} fields", lineno)
        label, xs, ys = fields
        try:
            x, y = float(xs), float(ys)
        except ValueError:
            raise ParseError(path, "x and y must be decimal numbers", lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(path, "x and y must be finite", lineno)
        pairs.append((label, x, y))
    return pairs


def _check_pairs(pairs: PairedScores) -> tuple[np.ndarray, np.ndarray]:
    if len(pairs) < 2:
        raise DataError("correlation needs at least 2 pairs")
    x = np.asarray([p[1] for p in pairs], dtype=np.float64)
    y = np.asarray([p[2] for p in pairs], dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("correlation inputs must be finite")
    return x, y


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values assigned the mean of their rank range."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)
    return ((end - counts + 1 + end) / 2.0)[group]


def spearman(pairs: PairedScores) -> float:
    """Pearson correlation of the two rank vectors (average ranks for ties)."""
    x, y = _check_pairs(pairs)
    rx, ry = _average_ranks(x), _average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise DataError("undefined correlation: zero variance in a rank vector")
    return float(dx @ dy) / (sx * sy)


def _tie_term(values: np.ndarray) -> float:
    """Sum of t*(t-1)/2 over tie groups."""
    _, counts = np.unique(values, return_counts=True)
    return float((counts * (counts - 1) // 2).sum())


def _discordant_pairs(y: np.ndarray) -> int:
    """Pairs i < j with y[i] > y[j], by bottom-up merge counting.

    Each of the log2(n) passes merges sorted blocks of `width` values
    pairwise. A value's dense rank plus n times its pair's index is a key
    that keeps the left halves in one sorted array, so one `searchsorted`
    counts, for every value of a right half, the larger values of its left
    half; a stable sort of the keys then merges each pair.
    """
    n = len(y)
    _, rank = np.unique(y, return_inverse=True)
    rank = rank.astype(np.int64)
    position = np.arange(n)
    discordant = 0
    width = 1
    while width < n:
        pair = position // (2 * width)
        key = rank + pair * n
        left = (position // width) % 2 == 0
        left_keys, right_keys, right_pair = key[left], key[~left], pair[~left]
        at_most = np.searchsorted(left_keys, right_keys, side="right")
        through_pair = np.searchsorted(left_keys, (right_pair + 1) * n, side="left")
        discordant += int((through_pair - at_most).sum())
        rank = np.sort(key, kind="stable") - pair * n
        width *= 2
    return discordant


def kendall_tau_b(pairs: PairedScores) -> float:
    """Tau-b: (concordant - discordant) normalized with tie corrections.

    Knight's merge-sort algorithm (Knight 1966, JASA 61:436): sorted by
    (x, y), the discordant pairs are the inversions of y, and C - D follows
    exactly, as an integer, from them and the tie counts.
    """
    x, y = _check_pairs(pairs)
    n = len(x)
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    # lengths of the runs of equal (x, y), which the sort made contiguous
    runs = np.diff(np.flatnonzero(np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True]))
    tied_both = int((runs * (runs - 1) // 2).sum())
    tied_x, tied_y = _tie_term(x), _tie_term(y)
    concordant_minus_discordant = (
        n * (n - 1) // 2 - int(tied_x) - int(tied_y) + tied_both - 2 * _discordant_pairs(y)
    )
    n0 = n * (n - 1) / 2.0
    denom = math.sqrt((n0 - tied_x) * (n0 - tied_y))
    if denom == 0.0:
        raise DataError("undefined correlation: all values tied in a coordinate")
    return concordant_minus_discordant / denom


def read_labels(path) -> list[tuple[str, str]]:
    """TSV `item_id<TAB>label`, one labeled item per line."""
    items: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in _iter_lines(path):
        if "\t" not in line:
            raise ParseError(path, "expected 'item_id<TAB>label'", lineno)
        item, label = line.split("\t", 1)
        if item in seen:
            raise ParseError(path, f"duplicate item id {item}", lineno)
        seen.add(item)
        items.append((item, label))
    return items


def cohens_kappa(labels_a: Sequence, labels_b: Sequence) -> float:
    """Chance-corrected agreement between two raters over the same items."""
    if len(labels_a) != len(labels_b):
        raise DataError(f"label vectors differ in length: {len(labels_a)} vs {len(labels_b)}")
    n = len(labels_a)
    if n == 0:
        raise DataError("label vectors are empty")
    observed = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    counts_a: dict = {}
    counts_b: dict = {}
    for a in labels_a:
        counts_a[a] = counts_a.get(a, 0) + 1
    for b in labels_b:
        counts_b[b] = counts_b.get(b, 0) + 1
    expected = sum(counts_a[c] * counts_b.get(c, 0) for c in counts_a) / (n * n)
    if expected == 1.0:
        if observed == 1.0:
            return 1.0
        raise DataError("kappa undefined: expected agreement is 1 but raters disagree")
    return (observed - expected) / (1.0 - expected)


def median_label(labels: Sequence) -> object:
    """Middle element after sorting; requires an odd number of labels."""
    if len(labels) == 0 or len(labels) % 2 == 0:
        raise DataError(f"median label needs an odd number of labels, got {len(labels)}")
    return sorted(labels)[len(labels) // 2]


def _column_mean(points: EmbeddingSet) -> np.ndarray:
    """Per-coordinate mean accumulated in float64, chunked."""
    total = np.zeros(points.dim, dtype=np.float64)
    for _, block in _row_chunks(points.matrix):
        total += block.sum(axis=0)
    return total / len(points)


def _pca(points: EmbeddingSet, out_dims: int) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """(mean, components, eigenvalues): `pca_components` plus the column
    mean that centred the covariance, so a projection needs no second pass."""
    n, dim = len(points), points.dim
    if n < 2:
        raise DataError("PCA needs at least 2 points")
    if out_dims < 1 or out_dims > dim:
        raise DataError(f"out_dims must be in [1, {dim}], got {out_dims}")
    # sample covariance (divisor n-1) accumulated in float64, chunked
    mean = _column_mean(points)
    cov = np.zeros((dim, dim), dtype=np.float64)
    for _, block in _row_chunks(points.matrix):
        block -= mean
        cov += block.T @ block
    values, vectors = np.linalg.eigh(cov / (n - 1))
    components = vectors[:, ::-1][:, :out_dims].T.copy()
    peaks = np.argmax(np.abs(components), axis=1)
    components *= np.sign(components[np.arange(out_dims), peaks])[:, None]
    return mean, components, tuple(max(float(v), 0.0) for v in values[::-1][:out_dims])


def pca_components(points: EmbeddingSet, out_dims: int = 2) -> tuple[np.ndarray, tuple[float, ...]]:
    """Top principal axes from a dense symmetric eigensolver on the covariance.

    Returns (components matrix of shape (out_dims, dim), eigenvalues in
    descending order, clamped at 0). Each component's largest-magnitude
    coordinate is made positive so outputs are reproducible.
    """
    _, components, values = _pca(points, out_dims)
    return components, values


def pca_project(points: EmbeddingSet, out_dims: int = 2) -> dict[str, np.ndarray]:
    """Project every embedding onto the top principal axes; id -> coordinates."""
    mean, components, _ = _pca(points, out_dims)
    out: dict[str, np.ndarray] = {}
    for lo, block in _row_chunks(points.matrix):
        block -= mean
        for i, row in enumerate(block @ components.T):
            out[points.ids[lo + i]] = row
    return out


def write_pca_projection(
    projection: dict[str, np.ndarray], groups: dict[str, str] | None, path
) -> None:
    """TSV `id<TAB>x<TAB>y<TAB>group`; ids without a group get 'none'."""
    groups = groups or {}
    with atomic_output(path) as f:
        for eid, coords in projection.items():
            values = "\t".join(f"{v:.6g}" for v in coords)
            f.write(f"{eid}\t{values}\t{groups.get(eid, 'none')}\n")
