"""A small study run through the CLI and checked against the oracles.

Each example writes query and embedding files, runs `knn` and `restrain` in
both regimes through `cli.main`, twice each, and compares every output with
the oracle pipeline composed in the same order: `oracles.knn_all_pairs`,
then `oracles.round_robin_union` for interpolation, then the extrapolation
rule: drop every test query's top-E neighbours, list the remaining training
queries in query-file order and draw `--size` of them with
`PCG64(seed).choice(len(remaining), size, replace=False)`.
"""

import string
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_embeddings
from xtrap import cli
from xtrap.dataio import write_embeddings
from xtrap.resample import RNG_ALGORITHM, read_manifest
from xtrap.simindex import MEASURES

# ids of mixed length, unique through their numbered suffix; lowercase, so
# that no TSV id starts with the EVEC magic
_PREFIXES = st.text(alphabet=string.ascii_lowercase + string.digits, max_size=6)


def _write_embedding_file(path: Path, ids, matrix, evec: bool) -> str:
    if evec:
        write_embeddings(make_embeddings(ids, matrix), path)
    else:
        path.write_text("".join(f"{eid}\t{' '.join(f'{v:g}' for v in row)}\n" for eid, row in zip(ids, matrix)))
    return str(path)


@st.composite
def studies(draw):
    n_train, n_test, n_extra = draw(st.integers(1, 10)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    n = n_train + n_test + n_extra
    ids = [f"{draw(_PREFIXES)}_{i}" for i in range(n)]
    dim = draw(st.integers(1, 4))
    # rows drawn from a few distinct integer vectors, so that duplicates and
    # exact ties are common
    distinct = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    matrix = np.asarray([distinct[p] for p in picks], dtype=np.float32).reshape(n, dim)
    matrix[~matrix.any(axis=1), 0] = 1  # cosine needs nonzero vectors
    vectors = dict(zip(ids, matrix))
    train_ids, test_ids, extra_ids = ids[:n_train], ids[n_train : n_train + n_test], ids[n_train + n_test :]
    # one shared embedding file, or one per side; each holds the rows that no
    # query file names, and each lists its rows in an order of its own
    if draw(st.booleans()):
        files = [draw(st.permutations(ids))] * 2
    else:
        files = [draw(st.permutations(train_ids + extra_ids)), draw(st.permutations(test_ids + extra_ids))]
    return {
        "train_ids": train_ids,
        "test_ids": test_ids,
        "vectors": vectors,
        "train_file": files[0],
        "test_file": files[1],
        "evec": (draw(st.booleans()), draw(st.booleans())),
        "measure": draw(st.sampled_from(MEASURES)),
        "k": draw(st.integers(1, len(files[0]) + 1)),
        "size": draw(st.integers(1, n_train)),
        "depth": draw(st.integers(1, n_train + 1)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _run_twice(argv, out: Path) -> int:
    """Exit code of `argv -o out`; a second run must write the same bytes."""
    rc = cli.main([*argv, "-o", str(out)])
    again = out.with_name(out.name + ".again")
    assert cli.main([*argv, "-o", str(again)]) == rc
    if rc == 0:
        assert again.read_bytes() == out.read_bytes()
    else:
        assert not out.exists() and not again.exists()
    return rc


def _neighbor_ids(test_ids, train_ids, vectors, depth, measure):
    lists = oracles.knn_all_pairs(
        test_ids, [vectors[i] for i in test_ids], train_ids, [vectors[i] for i in train_ids], depth, measure
    )
    return [[nid for nid, _ in neighbors] for _, neighbors in lists]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(studies())
def test_knn_and_restrain_match_the_oracle_pipeline(tmp_path, study):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    vectors, measure = study["vectors"], study["measure"]
    train_q, test_q = work / "train_q.tsv", work / "test_q.tsv"
    train_q.write_text("".join(f"{i}\ttext of {i}\n" for i in study["train_ids"]))
    test_q.write_text("".join(f"{i}\ttext of {i}\n" for i in study["test_ids"]))
    train_e, test_e = (
        _write_embedding_file(work / name, ids, [vectors[i] for i in ids], evec)
        for name, ids, evec in zip(("train.emb", "test.emb"), (study["train_file"], study["test_file"]),
                                   study["evec"])
    )

    # knn: every row of both files, k capped at the training file's rows
    out = work / "knn.tsv"
    assert _run_twice(["knn", "--test-emb", test_e, "--train-emb", train_e, "-k", str(study["k"]),
                       "--measure", measure], out) == 0
    want = oracles.knn_all_pairs(
        study["test_file"], [vectors[i] for i in study["test_file"]],
        study["train_file"], [vectors[i] for i in study["train_file"]], study["k"], measure,
    )
    assert [line.split("\t") for line in out.read_text().splitlines()] == [
        [qid, str(rank), nid, f"{score:.6g}"]
        for qid, neighbors in want
        for rank, (nid, score) in enumerate(neighbors, start=1)
    ]

    # restrain: the query files pick and order the rows of the embedding files
    train_ids, test_ids = study["train_ids"], study["test_ids"]
    full = _neighbor_ids(test_ids, train_ids, vectors, len(train_ids), measure)
    size, depth, seed = study["size"], study["depth"], study["seed"]
    provenance = {"seed": str(seed), "exclude_depth": str(depth), "target_size": str(size),
                  "measure": measure, "rng": RNG_ALGORITHM}
    common = ["--train-queries", str(train_q), "--test-queries", str(test_q), "--train-emb", train_e,
              "--test-emb", test_e, "-E", str(depth), "--size", str(size), "--seed", str(seed),
              "--measure", measure]

    out = work / "inter.manifest"
    assert _run_twice(["restrain", "--regime", "inter", *common], out) == 0
    split = read_manifest(out)
    assert (split.regime, split.provenance) == ("interpolation", provenance)
    assert split.training_ids == tuple(oracles.round_robin_union(full, size))
    assert split.test_ids == tuple(test_ids)

    out = work / "extra.manifest"
    excluded = {nid for neighbors in full for nid in neighbors[:depth]}
    remaining = [i for i in train_ids if i not in excluded]
    rc = _run_twice(["restrain", "--regime", "extra", *common], out)
    if len(remaining) < size:
        assert rc == 2
        return
    assert rc == 0
    split = read_manifest(out)
    assert (split.regime, split.provenance) == ("extrapolation", provenance)
    picks = np.random.Generator(np.random.PCG64(seed)).choice(len(remaining), size, replace=False)
    assert split.training_ids == tuple(remaining[p] for p in picks.tolist())
    assert split.test_ids == tuple(test_ids)
