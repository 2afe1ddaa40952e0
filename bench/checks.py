"""Output checks: oracles and invariants computed from the generated inputs.

Nothing here imports xtrap. Each check takes the run's work directory and
the oracle context built once after set-up, and returns a list of problems
(empty when the output is right).
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def _manifest(path: Path) -> tuple[dict[str, str], dict[str, list[str]]]:
    headers: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    current = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                headers[key] = value
            elif line.startswith("["):
                current = line[1:-1]
                sections[current] = []
            else:
                sections.setdefault(current, []).append(line)
    return headers, sections


def _close(a: float, b: float, rel: float, abs_: float) -> bool:
    return abs(a - b) <= abs_ + rel * abs(b)


# ---------------------------------------------------------------- oracles


def exact_topk(test: np.ndarray, train: np.ndarray, train_ids: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 inner-product top-k with full sort and ascending-id tie-break.

    Returns (positions into train_ids, scores), each of shape (n_test, k).
    """
    id_rank = np.empty(len(train_ids), dtype=np.int64)
    id_rank[np.argsort(np.array(train_ids), kind="stable")] = np.arange(len(train_ids))
    train64 = train.astype(np.float64)
    n = len(train_ids)
    pos = np.empty((len(test), k), dtype=np.int64)
    val = np.empty((len(test), k), dtype=np.float64)
    for lo in range(0, len(test), 256):
        scores = test[lo : lo + 256].astype(np.float64) @ train64.T
        kth = np.partition(scores, n - k, axis=1)[:, n - k]
        for r, row in enumerate(scores):
            cand = np.flatnonzero(row >= kth[r])  # every score tied with the k-th too
            order = cand[np.lexsort((id_rank[cand], -row[cand]))][:k]
            pos[lo + r], val[lo + r] = order, row[order]
    return pos, val


def round_robin(neighbor_ids: list[list[str]]) -> list[str]:
    seq, seen = [], set()
    for rank in range(max(map(len, neighbor_ids))):
        for ids in neighbor_ids:
            if rank < len(ids) and ids[rank] not in seen:
                seen.add(ids[rank])
                seq.append(ids[rank])
    return seq


def pca_oracle(matrix: np.ndarray) -> np.ndarray:
    """Top-2 principal-axis coordinates via a dense symmetric eigensolver.

    Sign convention as documented by xtrap: each component's largest-magnitude
    coordinate is positive.
    """
    x = matrix.astype(np.float64)
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (len(x) - 1)
    _, vecs = np.linalg.eigh(cov)
    comps = vecs[:, ::-1][:, :2].T.copy()
    for c in comps:
        if c[int(np.argmax(np.abs(c)))] < 0:
            c *= -1
    return centered @ comps.T


def ndcg_at(ranking: list[str], grades: dict[str, int], cutoff: int) -> float:
    dcg = sum(grades.get(d, 0) / math.log2(r + 1) for r, d in enumerate(ranking[:cutoff], start=1) if grades.get(d, 0) > 0)
    ideal = sorted(grades.values(), reverse=True)[:cutoff]
    idcg = sum(g / math.log2(r + 1) for r, g in enumerate(ideal, start=1) if g > 0)
    return dcg / idcg if idcg else 0.0


def rr_at(ranking: list[str], grades: dict[str, int], cutoff: int, threshold: int = 1) -> float:
    for r, d in enumerate(ranking[:cutoff], start=1):
        if grades.get(d, 0) >= threshold:
            return 1.0 / r
    return 0.0


def ranked(entries: list[tuple[str, float]]) -> list[tuple[str, float]]:
    return sorted(entries, key=lambda e: (-e[1], e[0]))


def run_text(run: dict[str, list[tuple[str, float]]], tag: str) -> bytes:
    """The documented TREC rendering: re-derived ranks, repr scores, LF."""
    return "".join(
        f"{q} Q0 {d} {r} {s!r} {tag}\n"
        for q, entries in run.items()
        for r, (d, s) in enumerate(ranked(entries), start=1)
    ).encode("utf-8")


def build_context(workload: str, data: dict, p: dict) -> dict:
    """Everything the checks need, computed once per set-up."""
    ctx = dict(data, params=p)
    if workload == "restrain":
        depth = max(p["knn_k"], p["exclude"], p["per_channel"])
        pos, val = exact_topk(data["test"], data["train"], data["train_ids"], depth)
        ids = np.array(data["train_ids"])
        ctx["top_ids"] = [ids[row].tolist() for row in pos]
        ctx["top_scores"] = val
    elif workload == "resttest":
        ctx["pca"] = pca_oracle(data["train"])
    elif workload == "scoring":
        ctx["run_sha"] = {"eval.run": hashlib.sha256(run_text(data["eval_run"], "bench-eval")).hexdigest()}
        for f, run in enumerate(data["fold_runs"]):
            ctx["run_sha"][f"fold{f}.run"] = hashlib.sha256(run_text(run, f"bench-fold{f}")).hexdigest()
    return ctx


# ----------------------------------------------------------------- checks


def check_knn(out: Path, ctx: dict) -> list[str]:
    k = ctx["params"]["knn_k"]
    rows = _rows(out / "knn.tsv")
    errors = []
    expected_rows = len(ctx["test_ids"]) * k
    if len(rows) != expected_rows:
        return [f"knn.tsv has {len(rows)} rows, expected {expected_rows}"]
    for t, qid in enumerate(ctx["test_ids"]):
        block = rows[t * k : (t + 1) * k]
        want_ids = ctx["top_ids"][t][:k]
        for r, row in enumerate(block):
            if len(row) != 4 or row[0] != qid or row[1] != str(r + 1) or row[2] != want_ids[r]:
                errors.append(f"knn.tsv query {qid} rank {r + 1}: got {row[:3]}, expected neighbor {want_ids[r]}")
                break
            if not _close(float(row[3]), ctx["top_scores"][t][r], 1e-5, 1e-9):
                errors.append(f"knn.tsv query {qid} rank {r + 1}: score {row[3]} vs oracle {ctx['top_scores'][t][r]!r}")
                break
        if len(errors) >= 5:
            break
    return errors


def check_restrain_inter(out: Path, ctx: dict) -> list[str]:
    size = ctx["params"]["size"]
    headers, sections = _manifest(out / "inter.manifest")
    train = sections.get("training", [])
    errors = []
    if headers.get("regime") != "interpolation":
        errors.append(f"regime {headers.get('regime')!r}, expected interpolation")
    if sections.get("test-interpolation") != ctx["test_ids"]:
        errors.append("test section differs from the test queries")
    if len(train) != size:
        errors.append(f"{len(train)} training ids, expected exactly {size}")
    if set(train) & set(ctx["test_ids"]):
        errors.append("training ids overlap the test ids")
    rank1 = round_robin([ids[:1] for ids in ctx["top_ids"]])
    if train[: len(rank1)] != rank1:
        errors.append("training ids do not start with the rank-1 neighbors in test order")
    if train != round_robin(ctx["top_ids"])[:size]:
        errors.append("training ids differ from the round-robin union of exact neighbor lists")
    return errors


def check_restrain_extra(out: Path, ctx: dict) -> list[str]:
    p = ctx["params"]
    headers, sections = _manifest(out / "extra.manifest")
    train = sections.get("training", [])
    errors = []
    if headers.get("regime") != "extrapolation":
        errors.append(f"regime {headers.get('regime')!r}, expected extrapolation")
    if sections.get("test-extrapolation") != ctx["test_ids"]:
        errors.append("test section differs from the test queries")
    if len(train) != p["size"] or len(set(train)) != len(train):
        errors.append(f"{len(train)} training ids ({len(set(train))} distinct), expected {p['size']}")
    if not set(train) <= set(ctx["train_ids"]):
        errors.append("training ids outside the training queries")
    excluded = {i for ids in ctx["top_ids"] for i in ids[: p["exclude"]]}
    hit = set(train) & excluded
    if hit:
        errors.append(f"{len(hit)} training ids lie in a test query's top-{p['exclude']} neighbors")
    return errors


def check_candidates(out: Path, ctx: dict) -> list[str]:
    p = ctx["params"]
    per = p["per_channel"]
    rows = _rows(out / "cand.tsv")
    pools: dict[str, list[str]] = {}
    for row in rows:
        pools.setdefault(row[0], []).append(row[2] if len(row) == 3 else "")
    errors = []
    want_q = ctx["test_ids"][: p["n_cand"]]
    if list(pools) != want_q:
        return [f"pools cover {len(pools)} queries, expected the {len(want_q)} candidate queries in order"]
    train_ids = set(ctx["train_ids"])
    for t, qid in enumerate(want_q):
        pool = pools[qid]
        if pool[:per] != ctx["top_ids"][t][:per]:
            errors.append(f"pool of {qid} does not start with its exact top-{per} neighbors")
        if len(pool) > 2 * per or len(set(pool)) != len(pool) or not set(pool) <= train_ids:
            errors.append(f"pool of {qid} has {len(pool)} entries, duplicates or unknown ids")
        if len(errors) >= 5:
            break
    return errors


def check_resttest(out: Path, ctx: dict) -> list[str]:
    k = ctx["params"]["k"]
    headers, sections = _manifest(out / "folds.manifest")
    errors = []
    if headers.get("regime") != "resttest" or headers.get("k") != str(k):
        errors.append(f"header regime={headers.get('regime')!r} k={headers.get('k')!r}, expected resttest and {k}")
    if sections.get("training") != ctx["train_ids"]:
        errors.append("[training] section differs from the training queries")
    buckets = [sections.get(f"bucket {b}") for b in range(k)]
    if any(b is None for b in buckets) or len(sections) != k + 1:
        return errors + [f"expected [training] and {k} bucket sections, got {sorted(sections)}"]
    members = [i for b in buckets for i in b]
    if len(members) != len(set(members)) or set(members) != set(ctx["train_ids"]) | set(ctx["test_ids"]):
        errors.append(f"buckets hold {len(members)} ids ({len(set(members))} distinct); they must partition train plus test")
    order = {i: n for n, i in enumerate(ctx["train_ids"] + ctx["test_ids"])}
    if any([order.get(i, -1) for i in b] != sorted(order.get(i, -1) for i in b) for b in buckets):
        errors.append("a bucket does not list its training queries first, each group in input order")
    return errors


def pca_groups(manifest: Path) -> dict[str, str]:
    """The plot group xtrap gives each id of a fold manifest: bucket-<b>."""
    _, sections = _manifest(manifest)
    return {i: name.replace(" ", "-") for name, ids in sections.items() if name.startswith("bucket") for i in ids}


def check_pca(out: Path, ctx: dict) -> list[str]:
    group = pca_groups(out / "folds.manifest")
    rows = _rows(out / "pca.tsv")
    if [r[0] for r in rows] != ctx["train_ids"]:
        return ["pca.tsv ids differ from the embedded training queries"]
    oracle = ctx["pca"]
    scale = oracle.std(axis=0)
    errors = []
    for i, row in enumerate(rows):
        if len(row) != 4 or row[3] != group.get(row[0], "none"):
            errors.append(f"pca.tsv row {i + 1}: bad shape or group {row[3:]}")
        elif any(abs(float(row[1 + j]) - oracle[i, j]) > 1e-4 * scale[j] + 1e-5 * abs(oracle[i, j]) for j in range(2)):
            errors.append(f"pca.tsv row {i + 1}: coordinates {row[1:3]} vs oracle {oracle[i].tolist()}")
        if len(errors) >= 5:
            break
    return errors


def check_write_runs(out: Path, ctx: dict) -> list[str]:
    return [
        f"{name} sha256 differs from the documented rendering of its rankings"
        for name, digest in ctx["run_sha"].items()
        if sha256(out / name) != digest
    ]


def _report_values(path: Path, label: str) -> dict[str, list[float]]:
    values = {}
    for row in _rows(path):
        if row[0] != label:
            raise ValueError(f"row label {row[0]!r}, expected {label!r}")
        values[row[1]] = [float(v) for v in row[2:]]
    return values


def _compare(got: dict[str, list[float]], want: dict[str, list[float]], what: str) -> list[str]:
    if list(got) != list(want):
        return [f"{what} rows cover {len(got)} keys in another order or set than the {len(want)} expected"]
    errors = []
    for key, values in want.items():
        if len(got[key]) != len(values) or any(abs(a - b) > 6e-5 for a, b in zip(got[key], values)):
            errors.append(f"{what} {key}: got {got[key]}, oracle {values}")
        if len(errors) >= 5:
            break
    return errors


def check_eval(out: Path, ctx: dict) -> list[str]:
    per_query = {}
    for qid in sorted(ctx["eval_run"]):
        ranking = [d for d, _ in ranked(ctx["eval_run"][qid])]
        per_query[qid] = [ndcg_at(ranking, ctx["test_qrels"][qid], 10)]
    want = dict(per_query)
    want["ALL"] = [sum(v[0] for v in per_query.values()) / len(per_query)]
    return _compare(_report_values(out / "eval.tsv", "ndcg@10"), want, "eval ndcg@10")


def check_aggregate(out: Path, ctx: dict) -> list[str]:
    fold_rr = [
        {q: rr_at([d for d, _ in ranked(run[q])], ctx["test_qrels"][q], 10) for q in run}
        for run in ctx["fold_runs"]
    ]
    want = {}
    for qid in sorted(ctx["test_ids"]):
        extra_fold = ctx["bucket_of"][qid]
        inter = [fold_rr[f][qid] for f in range(ctx["folds"]) if f != extra_fold]
        want[qid] = [sum(inter) / len(inter), fold_rr[extra_fold][qid]]
    want["ALL"] = [sum(v[i] for v in want.values()) / len(want) for i in (0, 1)]
    return _compare(_report_values(out / "agg.tsv", "mrr@10"), want, "aggregate mrr@10")


THRESHOLDS = (("geq:1", lambda g: g >= 1), ("geq:2", lambda g: g >= 2), ("eq:3", lambda g: g == 3))


def check_overlap(out: Path, ctx: dict) -> list[str]:
    qrels, relevant = ctx["test_qrels"], ctx["train_relevant"]
    total = len(qrels)
    want = []
    for label, match in THRESHOLDS:
        count = sum(1 for docs in qrels.values() if any(match(g) and d in relevant for d, g in docs.items()))
        want.append([label, str(count), str(total), f"{100.0 * count / total:.2f}"])
    got = _rows(out / "overlap.tsv")
    return [] if got == want else [f"overlap rows {got}, set oracle {want}"]
