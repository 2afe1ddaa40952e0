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


def anisotropic_rows(seed, n, dim):
    """Rows that share a unit mean direction and spread along a 1/i spectrum,
    as dense retrievers' embeddings do (mean cosine about 0.64), in multiples
    of 2^-12; no row is zero, since its norm is at least 0.8 - 0.6."""
    rng = np.random.default_rng(seed)
    mean = rng.normal(size=dim)
    spread = rng.normal(size=(n, dim)) / np.arange(1, dim + 1)
    rows = 0.8 * mean / np.linalg.norm(mean) + 0.6 * spread / np.linalg.norm(spread, axis=1, keepdims=True)
    return np.round(rows * 2.0**12) * 2.0**-12


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
