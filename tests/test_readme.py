"""README's library example runs as written, on small versions of its files,
and every command of its shell tour parses."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np

from xtrap import cli
from xtrap.dataio import QrelSet, QuerySet, RunSet, write_embeddings, write_qrels, write_queries, write_run

from conftest import random_embeddings

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(tmp_path, rng, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    train = random_embeddings(rng, "t", 300, 8)
    test = random_embeddings(rng, "q", 20, 8)
    write_embeddings(train, tmp_path / "train.evec")
    write_embeddings(test, tmp_path / "test.evec")
    words = ["cat", "dog", "fish", "bird", "frog"]
    for emb, name in ((train, "train.tsv"), (test, "test.tsv")):
        texts = [" ".join(rng.choice(words, size=3).tolist()) for _ in emb.ids]
        write_queries(QuerySet(emb.ids, texts), tmp_path / name)
    write_qrels(QrelSet({qid: {f"d{i}": 1} for i, qid in enumerate(test.ids)}), tmp_path / "qrels.txt")
    run = RunSet({qid: [(f"d{i}", 1.0), ("other", 0.5)] for i, qid in enumerate(test.ids)})
    write_run(run, tmp_path / "model.run")

    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)

    assert namespace["report"].mean == 1.0
    assert capsys.readouterr().out.startswith("1.0 ")
    assert namespace["index"].shape == (20, 10)
    assert set(namespace["lexical"]) == set(test.ids)
    assert len(namespace["split"].training_ids) == 100
    buckets = namespace["buckets"]
    assert buckets.dtype == np.intp and buckets.shape == (300,)
    assert namespace["coords"].shape == (20, 2)


def test_readme_tour_commands_parse():
    # every `xtrap` command of the shell tour, continuation lines joined
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("xtrap ")]
    assert len(commands) == 11  # a split that loses a command fails here
    for argv in commands:
        assert cli.build_parser().parse_args(argv[1:]).func is not None, argv
