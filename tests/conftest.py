from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from xtrap.dataio import EmbeddingSet, QuerySet
from xtrap.simindex import knn

FIXTURES = Path(__file__).parent / "fixtures"


def make_embeddings(ids, matrix) -> EmbeddingSet:
    return EmbeddingSet(list(ids), np.asarray(matrix, dtype=np.float32))


def random_embeddings(rng, prefix: str, count: int, dim: int, scale: float = 1.0) -> EmbeddingSet:
    ids = [f"{prefix}{i:04d}" for i in range(count)]
    return make_embeddings(ids, rng.normal(scale=scale, size=(count, dim)))


def make_queries(ids, texts=None) -> QuerySet:
    if texts is None:
        texts = [f"text of {qid}" for qid in ids]
    return QuerySet(ids, texts)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def knn_lists(test, train, k, measure="inner_product"):
    """`knn`'s arrays as [(test id, [(train id, score), ...]), ...], the
    shape of `oracles.knn_all_pairs`."""
    index, scores = knn(test, train, k, measure=measure)
    return [
        (qid, [(train.ids[j], s) for j, s in zip(row, row_scores)])
        for qid, row, row_scores in zip(test.ids, index.tolist(), scores.tolist())
    ]
