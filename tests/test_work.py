"""Per-command work budgets, read from the INFO lines of `cli.main`.

A work count does not follow the host's speed, so it gates a change that is
smaller than the spread of its CPU time. Each command runs on two
geometries at 768 dims: planted Gaussian clusters, and `anisotropic_rows`,
whose rows crowd one cone as dense retrievers' embeddings do. The counts
come from the three INFO lines the library logs today:

- `knn`: float64 survivors rescored per n_test*k, the largest over the
  command's `knn` calls; its excess over 1 follows the float32 screen's
  rounding bound;
- `restrain --regime inter`: the number of `knn` scans;
- k-means (`resttest`): Lloyd iterations, and rows rescored in float64 over
  all its assignments.

Scan and iteration counts follow exact float64 results alone. Survivor and
rescored-row counts follow the float32 screens, whose sums a BLAS kernel or
thread count may round otherwise, so each bound sits above today's count
with headroom. A budget is lowered by the change that earns it, and never
raised to let a change pass; a change that needs more work says so.
"""

import logging
import re

import numpy as np
import pytest

from conftest import anisotropic_rows, make_embeddings
from xtrap import cli
from xtrap.dataio import write_embeddings

N_TRAIN, N_TEST, DIM = 3000, 200, 768
CLUSTERS, CENTER_SCALE = 10, 3.0

COMMANDS = {
    "knn": ["knn", "-k", "10"],
    "restrain-inter": ["restrain", "--regime", "inter", "--size", "600"],
    "resttest": ["resttest", "-k", "5"],
}

KNN = re.compile(r"knn: \d+ pairs screened in float32, \d+ survivors rescored in float64 \(([\d.]+) x n_test\*k\)")
RESTRAIN = re.compile(r"restrain inter: depth \d+, (\d+) knn scan\(s\), union of \d+ for size \d+")
KMEANS = re.compile(
    r"kmeans: (\d+) iterations, inertia \S+; assignment screen decided \d+ rows, (\d+) rescored in float64"
)

# (command, geometry): {count: bound}; the measured counts, the same under
# one and two OpenBLAS threads and the SkylakeX, Haswell and Sandybridge
# kernels (numpy 2.4.6, Python 3.11), are in the comments
BUDGETS = {
    ("knn", "planted"): {"rescored per n_test*k": 1.040},  # 1.030
    ("knn", "anisotropic"): {"rescored per n_test*k": 1.020},  # 1.014
    ("restrain-inter", "planted"): {"rescored per n_test*k": 1.035, "knn scans": 4},  # 1.025, 3
    ("restrain-inter", "anisotropic"): {"rescored per n_test*k": 1.015, "knn scans": 2},  # 1.008, 1
    ("resttest", "planted"): {"kmeans iterations": 3, "kmeans rows rescored": 30},  # 2, 3
    ("resttest", "anisotropic"): {"kmeans iterations": 60, "kmeans rows rescored": 300},  # 56, 231
}


def _planted(rng, n, centers, balanced):
    cluster_of = np.arange(n) % len(centers) if balanced else rng.integers(0, len(centers), size=n)
    return centers[cluster_of] + rng.standard_normal((n, centers.shape[1]))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Command arguments per geometry: EVEC matrices, and query files whose
    texts are their ids."""
    tmp = tmp_path_factory.mktemp("work")
    rng = np.random.default_rng(21)
    centers = rng.standard_normal((CLUSTERS, DIM)) * CENTER_SCALE
    rows = anisotropic_rows(21, N_TRAIN + N_TEST, DIM)
    geometries = {
        "planted": (_planted(rng, N_TRAIN, centers, True), _planted(rng, N_TEST, centers, False)),
        "anisotropic": (rows[:N_TRAIN], rows[N_TRAIN:]),
    }
    files = {}
    for geometry, matrices in geometries.items():
        paths = {}
        for name, prefix, matrix in zip(("train", "test"), "tq", matrices):
            ids = [f"{prefix}{i:05d}" for i in range(len(matrix))]
            write_embeddings(make_embeddings(ids, matrix), tmp / f"{geometry}-{name}.evec")
            (tmp / f"{geometry}-{name}.tsv").write_text("".join(f"{i}\t{i}\n" for i in ids))
            paths[name] = str(tmp / f"{geometry}-{name}.tsv"), str(tmp / f"{geometry}-{name}.evec")
        resample_inputs = ["--train-queries", paths["train"][0], "--test-queries", paths["test"][0],
                           "--train-emb", paths["train"][1], "--test-emb", paths["test"][1]]
        files[geometry] = {
            "knn": ["--test-emb", paths["test"][1], "--train-emb", paths["train"][1]],
            "restrain": resample_inputs,
            "resttest": resample_inputs,
        }
    return files, tmp / "out"


def _counts(messages):
    """The budgeted counts in a command's INFO lines."""
    counts = {}
    ratios = [float(m.group(1)) for m in map(KNN.fullmatch, messages) if m]
    if ratios:
        counts["rescored per n_test*k"] = max(ratios)
    for m in filter(None, map(RESTRAIN.fullmatch, messages)):
        counts["knn scans"] = int(m.group(1))
    for m in filter(None, map(KMEANS.fullmatch, messages)):
        counts["kmeans iterations"], counts["kmeans rows rescored"] = int(m.group(1)), int(m.group(2))
    return counts


@pytest.mark.parametrize("name, geometry", BUDGETS)
def test_command_work_within_budget(inputs, caplog, name, geometry):
    files, output = inputs
    args = COMMANDS[name]
    with caplog.at_level(logging.INFO, logger="xtrap"):
        assert cli.main([*args, *files[geometry][args[0]], "-q", "-o", str(output)]) == 0
    counts = _counts([r.getMessage() for r in caplog.records])
    budget = BUDGETS[name, geometry]
    assert set(counts) == set(budget), counts
    over = {count: (counts[count], bound) for count, bound in budget.items() if counts[count] > bound}
    assert over == {}, f"(measured, bound): {over}"
