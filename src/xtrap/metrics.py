"""Ranking metrics over run files: MRR, NDCG, and Recall at a cutoff.

Conventions match the standard TREC evaluation tool: NDCG uses a
log2(rank+1) discount with linear gains by default (exponential gain
2^rel - 1 behind a flag), queries whose ideal DCG is zero score 0 and
stay in the average, and queries absent from the qrels are skipped.
Graded judgments are binarized at `rel_threshold` for MRR and Recall
(TREC DL convention is threshold 2 on its four-point scale; default
here is 1).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping

from .dataio import DataError, QrelSet, RunSet, _int, atomic_output

logger = logging.getLogger(__name__)

KINDS = ("mrr", "ndcg", "recall")
GAINS = ("linear", "exponential")
_DEFAULT_CUTOFF = {"mrr": 10, "ndcg": 10, "recall": 100}


@dataclass(frozen=True)
class MetricSpec:
    """Which metric to compute and how."""

    kind: str
    cutoff: int | None = None
    rel_threshold: int = 1
    gain: str = "linear"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", _DEFAULT_CUTOFF[self.kind])
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.rel_threshold < 1:
            raise ValueError("rel_threshold must be >= 1")
        if self.gain not in GAINS:
            raise ValueError(f"unknown gain {self.gain!r}")

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.cutoff}"

    @classmethod
    def parse(cls, text: str, **fields) -> "MetricSpec":
        """Parse 'mrr@10', 'ndcg@10', 'recall@100' (cutoff optional); `fields`
        sets the other fields."""
        kind, sep, cut = text.partition("@")
        kind = kind.strip().lower()
        if kind not in KINDS:
            raise ValueError(f"unknown metric {text!r} (expected mrr/ndcg/recall, e.g. ndcg@10)")
        cutoff = None
        if sep:
            try:
                cutoff = _int(cut)
            except ValueError:
                raise ValueError(f"bad cutoff in metric {text!r}") from None
        return cls(kind=kind, cutoff=cutoff, **fields)


@dataclass
class MetricReport:
    """Per-query scores plus their mean over evaluated queries."""

    label: str
    mean: float
    per_query: dict[str, float]
    evaluated_count: int
    skipped_ids: list[str] = field(default_factory=list)


def _gain(rel: int, gain: str) -> float:
    """The gain of a positive grade; OverflowError past a float64."""
    if gain == "exponential" and rel >= 1024:
        raise OverflowError  # 2**rel - 1 rounds to at least 2.0**1024: skip the int
    return float(rel) if gain == "linear" else float(2**rel - 1)


def _query_mrr(ranking, grades, spec: MetricSpec) -> float:
    for rank, (docid, _) in enumerate(ranking[: spec.cutoff], start=1):
        if grades.get(docid, 0) >= spec.rel_threshold:
            return 1.0 / rank
    return 0.0


def _query_ndcg(ranking, grades, spec: MetricSpec) -> float:
    dcg = 0.0
    for rank, (docid, _) in enumerate(ranking[: spec.cutoff], start=1):
        rel = grades.get(docid, 0)
        if rel > 0:
            dcg += _gain(rel, spec.gain) / math.log2(rank + 1)
    ideal = sorted(grades.values(), reverse=True)[: spec.cutoff]
    idcg = sum(
        _gain(rel, spec.gain) / math.log2(rank + 1)
        for rank, rel in enumerate(ideal, start=1)
        if rel > 0
    )
    if math.isinf(idcg):
        raise OverflowError
    return dcg / idcg if idcg else 0.0


def _query_recall(ranking, grades, spec: MetricSpec) -> float:
    """Share of the docs at the threshold in the ranking; `evaluable` ensures there is one."""
    relevant = {d for d, rel in grades.items() if rel >= spec.rel_threshold}
    hits = sum(1 for docid, _ in ranking[: spec.cutoff] if docid in relevant)
    return hits / len(relevant)


_QUERY_METRICS = {"mrr": _query_mrr, "ndcg": _query_ndcg, "recall": _query_recall}


def evaluable(qrels: QrelSet, query_id: str, spec: MetricSpec) -> bool:
    """Whether `spec` can score `query_id`: the qrels judge it, and for recall
    it has a doc at the threshold."""
    if spec.kind == "recall":
        return any(rel >= spec.rel_threshold for rel in qrels.docs(query_id).values())
    return qrels.has_query(query_id)


def mean_by_query(per_query: Mapping[str, float]) -> float:
    """Mean summed in ascending query-id order, a fixed float order; 0.0 with no queries."""
    return sum(per_query[qid] for qid in sorted(per_query)) / len(per_query) if per_query else 0.0


def score_run(run: RunSet, qrels: QrelSet, spec: MetricSpec) -> MetricReport:
    """Score every query of `run` by `spec`; queries it cannot score are skipped."""
    per_query: dict[str, float] = {}
    skipped: list[str] = []
    idcg_zero = 0
    query_metric = _QUERY_METRICS[spec.kind]
    for qid in sorted(run.query_ids()):
        if not evaluable(qrels, qid, spec):
            skipped.append(qid)
            continue
        grades = qrels.docs(qid)
        try:
            per_query[qid] = query_metric(run.ranking(qid), grades, spec)
        except OverflowError:
            raise DataError(
                f"{spec.label}: query {qid}: the {spec.gain} gains of grades up to "
                f"{max(grades.values())} overflow a float64"
            ) from None
        # the ideal DCG is 0 exactly when no grade is positive
        idcg_zero += spec.kind == "ndcg" and max(grades.values(), default=0) == 0
    if idcg_zero:
        logger.warning("%s: %d queries have zero ideal DCG; scored 0", spec.label, idcg_zero)
    if skipped:
        logger.warning("%s: skipped %d queries without usable judgments", spec.label, len(skipped))
    mean = mean_by_query(per_query)
    return MetricReport(
        label=spec.label, mean=mean, per_query=per_query, evaluated_count=len(per_query), skipped_ids=skipped
    )


def write_metric_report(report: MetricReport, path) -> None:
    """TSV rows `metric<TAB>qid<TAB>value` plus a final ALL row with the mean."""
    with atomic_output(path) as f:
        for qid in sorted(report.per_query):
            f.write(f"{report.label}\t{qid}\t{report.per_query[qid]:.4f}\n")
        f.write(f"{report.label}\tALL\t{report.mean:.4f}\n")
