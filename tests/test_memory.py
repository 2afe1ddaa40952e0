"""Per-command memory budgets, measured with tracemalloc through `cli.main`.

tracemalloc counts numpy's buffers and Python's objects, not OpenBLAS's own
work space, so a peak repeats to within about 1% in one process and does not
follow the BLAS thread count. Each command's budget is

    peak <= HEADROOM * (a * matrices + b * buffer)

where `matrices` is the bytes of the float32 input matrices, `buffer` the
bytes of the module's declared block (kNN's float32 score block,
`_KNN_BLOCK_ELEMENTS`; PCA's float64 chunk, `_CHUNK_ELEMENTS`) and `b` the
number of such blocks the design keeps alive: kNN's score block and its
partition copy, and PCA's one chunk buffer. `a` is today's peak less the
blocks, over the matrices. Both blocks are shrunk here so that neither the
blocks nor the Python objects of the ids dominate: a second score block in
`knn`, or a float64 copy of the matrix in `resttest`, breaks its budget.

A budget is lowered by the change that earns it, and never raised to let a
change pass; a change that needs more memory says so as a behaviour change.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import make_embeddings
from xtrap import analysis, cli, simindex
from xtrap.dataio import write_embeddings

N_TRAIN, N_TEST, DIM = 6000, 400, 256
MATRICES = (N_TRAIN + N_TEST) * DIM * 4  # 6.25 MiB
KNN_BLOCK_ELEMENTS = 1_000_000  # 3.81 MiB of float32 scores: 2,500 training rows, 3 blocks
CHUNK_ELEMENTS = 1000 * DIM  # 1.95 MiB of float64: 1,000 rows, 6 chunks
HEADROOM = 1.10

# command: (arguments, a, b, declared buffer bytes); the measured peaks, in
# MiB (2 vCPUs, numpy 2.4.6 with OpenBLAS, Python 3.11), are in the comments
BUDGETS = {
    # 15.76-15.77 MiB
    "knn": (["knn", "-k", "20"], 1.302, 2, KNN_BLOCK_ELEMENTS * 4),
    # 15.80-15.81 MiB
    "restrain-inter": (["restrain", "--regime", "inter", "--size", "3000"], 1.310, 2, KNN_BLOCK_ELEMENTS * 4),
    # 15.67-15.68 MiB
    "restrain-extra": (["restrain", "--regime", "extra", "-E", "5", "--size", "3000"], 1.288, 2,
                       KNN_BLOCK_ELEMENTS * 4),
    # 16.80-16.82 MiB
    "candidates": (["candidates", "--per-channel", "10"], 1.471, 2, KNN_BLOCK_ELEMENTS * 4),
    # 16.10 MiB
    "resttest": (["resttest", "-k", "5", "--max-iters", "5"], 2.577, 0, 0),
    # 9.75 MiB
    "pca": (["pca"], 1.248, 1, CHUNK_ELEMENTS * 8),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """File arguments per command: EVEC matrices of Gaussian rows, and query
    files whose texts are their ids."""
    tmp = tmp_path_factory.mktemp("memory")
    rng = np.random.default_rng(19)
    paths = {}
    for name, prefix, n in (("train", "t", N_TRAIN), ("test", "q", N_TEST)):
        ids = [f"{prefix}{i:05d}" for i in range(n)]
        write_embeddings(make_embeddings(ids, rng.normal(size=(n, DIM))), tmp / f"{name}.evec")
        (tmp / f"{name}.tsv").write_text("".join(f"{i}\t{i}\n" for i in ids))
        paths[name] = str(tmp / f"{name}.tsv"), str(tmp / f"{name}.evec")
    resample_inputs = ["--train-queries", paths["train"][0], "--test-queries", paths["test"][0],
                       "--train-emb", paths["train"][1], "--test-emb", paths["test"][1]]
    return {
        "knn": ["--test-emb", paths["test"][1], "--train-emb", paths["train"][1]],
        "restrain": resample_inputs,
        "candidates": resample_inputs,
        "resttest": resample_inputs,
        "pca": ["--emb", paths["train"][1]],
    }, tmp / "out"


@pytest.mark.parametrize("name", BUDGETS)
def test_command_peak_within_budget(inputs, monkeypatch, name):
    files, output = inputs
    args, a, b, buffer = BUDGETS[name]
    monkeypatch.setattr(simindex, "_KNN_BLOCK_ELEMENTS", KNN_BLOCK_ELEMENTS)
    monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", CHUNK_ELEMENTS)
    tracemalloc.start()
    try:
        assert cli.main([*args, *files[args[0]], "-q", "-o", str(output)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    measured_a = (peak - b * buffer) / MATRICES
    assert peak <= HEADROOM * (a * MATRICES + b * buffer), f"{peak / 2**20:.2f} MiB, a = {measured_a:.3f}"
