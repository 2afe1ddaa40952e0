"""The write_runs step: what a model author does with the library.

Builds xtrap run sets from in-memory rankings and writes them with
``xtrap.dataio.write_run``: one evaluation run and one run per fold.
Run from a workload directory that holds ``in/rankings.pkl``:

    PYTHONPATH=src python3 bench/write_runs.py WORKDIR
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

from xtrap import dataio


def write_runs(work: Path) -> None:
    # the pickle is written by this benchmark's own set-up in the same run
    with open(work / "in" / "rankings.pkl", "rb") as f:
        rankings = pickle.load(f)
    dataio.write_run(dataio.RunSet(rankings["eval"]), work / "out" / "eval.run", tag="bench-eval")
    for fold, run in enumerate(rankings["folds"]):
        dataio.write_run(dataio.RunSet(run), work / "out" / f"fold{fold}.run", tag=f"bench-fold{fold}")


if __name__ == "__main__":
    write_runs(Path(sys.argv[1]))
