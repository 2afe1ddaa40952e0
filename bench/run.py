#!/usr/bin/env python3
"""Benchmark of the xtrap CLI on seeded synthetic workloads.

Run from the repository root:

    python3 bench/run.py --workload restrain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test

Workloads (one closed loop: each command starts when the previous one ends):

- restrain: knn, restrain --regime inter, restrain --regime extra, candidates
- resttest: resttest (k-means folds), pca
- scoring:  write_runs (library dataio.write_run), eval, aggregate, overlap

Each run generates its inputs from --seed (several times, to time set-up),
then repeats passes over the workload's steps for --seconds, each step one
`python -m xtrap` process started with the default thread settings. Every
step's output is checked against an oracle computed from the generated
inputs. With --trace 1 the untraced passes are followed by one traced pass
in a single process, with spans around xtrap's public functions, and the
per-layer metrics are reported instead of the end-to-end ones.

The last stdout line is the result JSON; the full record (provenance, exit
codes, stderr tails, output digests) is written under bench/_work/results.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_REPEATS = 3
MIN_PASSES = 3
MAX_PASSES = 40
STEP_TIMEOUT_S = 120
PINNED_HASH_SEED = "0"
PROBE_HASH_SEED = "1"
# Thread settings are left at their defaults: these would override them.
THREAD_ENV = ("XTRAP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Wall times are not end-to-end metrics: on a shared VM the hypervisor's CPU
# steal moves them by half from run to run, while the steps' CPU time moves
# by a tenth. They are reported per layer (wall_s, step.<name>_s).
END_TO_END = {"cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


@dataclass(frozen=True)
class Step:
    name: str
    argv: list[str] | None  # xtrap arguments; None for the write_runs library step
    outputs: tuple[str, ...]
    check: Callable[[Path, dict], list[str]]
    corrupt: Callable[[Path, dict], None]


# ------------------------------------------------------------ corruptions
# Each one damages a step's output the way a plausible bug would; the
# self-test requires the step's check to flag it.


def _edit(path: Path, fn) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(f"{line}\n" for line in fn(lines)), encoding="utf-8")


def _set_field(lines, row, col, value, sep="\t"):
    fields = lines[row].split(sep)
    fields[col] = value(fields[col])
    lines[row] = sep.join(fields)
    return lines


def _swap_rank12(lines):
    a, b = lines[0].split("\t"), lines[1].split("\t")
    a[2], b[2] = b[2], a[2]
    return ["\t".join(a), "\t".join(b)] + lines[2:]


def _replace_training_id(lines, index, new_id):
    start = lines.index("[training]") + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("["))
    lines[start + index if index >= 0 else end + index] = new_id
    return lines


CORRUPT = {
    "knn": lambda out, ctx: _edit(out / "knn.tsv", _swap_rank12),
    "restrain_inter": lambda out, ctx: _edit(out / "inter.manifest", lambda l: _replace_training_id(l, -1, ctx["test_ids"][0])),
    "restrain_extra": lambda out, ctx: _edit(out / "extra.manifest", lambda l: _replace_training_id(l, 0, ctx["top_ids"][0][0])),
    "candidates": lambda out, ctx: _edit(out / "cand.tsv", lambda l: _set_field(l, 0, 2, lambda v: ctx["top_ids"][0][ctx["params"]["per_channel"]])),
    "resttest": lambda out, ctx: _edit(out / "folds.manifest", lambda l: l[:-1]),
    "pca": lambda out, ctx: _edit(out / "pca.tsv", lambda l: _set_field(l, 0, 1, lambda v: repr(float(v) + 10.0))),
    "write_runs": lambda out, ctx: _edit(out / "eval.run", lambda l: _set_field(l, 0, 4, lambda v: v + "1", sep=" ")),
    "eval": lambda out, ctx: _edit(out / "eval.tsv", lambda l: _set_field(l, -1, 2, lambda v: f"{float(v) + 0.01:.4f}")),
    "aggregate": lambda out, ctx: _edit(out / "agg.tsv", lambda l: _set_field(l, 0, 2, lambda v: f"{float(v) + 0.01:.4f}")),
    "overlap": lambda out, ctx: _edit(out / "overlap.tsv", lambda l: _set_field(l, 0, 1, lambda v: str(int(v) + 1))),
}


def workload_steps(workload: str, p: dict, seed: int) -> list[Step]:
    def step(name, argv, outputs, check):
        return Step(name, argv, tuple(outputs), check, CORRUPT[name])

    if workload == "restrain":
        emb = ["--train-emb", "in/train.evec", "--test-emb", "in/test.evec"]
        queries = ["--train-queries", "in/train.queries", "--test-queries", "in/test.queries"]
        return [
            step("knn", ["knn", "--test-emb", "in/test.evec", "--train-emb", "in/train.evec",
                         "-k", str(p["knn_k"]), "-o", "out/knn.tsv"], ["knn.tsv"], checks.check_knn),
            step("restrain_inter", ["restrain", "--regime", "inter", *queries, *emb, "--size", str(p["size"]),
                                    "--seed", str(seed), "-o", "out/inter.manifest"],
                 ["inter.manifest"], checks.check_restrain_inter),
            step("restrain_extra", ["restrain", "--regime", "extra", *queries, *emb, "-E", str(p["exclude"]),
                                    "--size", str(p["size"]), "--seed", str(seed), "-o", "out/extra.manifest"],
                 ["extra.manifest"], checks.check_restrain_extra),
            step("candidates", ["candidates", "--test-queries", "in/cand.queries", "--train-queries",
                                "in/train.queries", *emb, "--per-channel", str(p["per_channel"]),
                                "-o", "out/cand.tsv"], ["cand.tsv"], checks.check_candidates),
        ]
    if workload == "resttest":
        return [
            step("resttest", ["resttest", "--train-queries", "in/train.queries", "--test-queries",
                              "in/test.queries", "--train-emb", "in/train.evec", "--test-emb", "in/test.evec",
                              "-k", str(p["k"]), "--seed", str(seed), "--max-iters", str(p["max_iters"]),
                              "-o", "out/folds.manifest"], ["folds.manifest"], checks.check_resttest),
            step("pca", ["pca", "--emb", "in/train.evec", "--manifest", "out/folds.manifest",
                         "-o", "out/pca.tsv"], ["pca.tsv"], checks.check_pca),
        ]
    folds = [f"out/fold{f}.run" for f in range(p["folds"])]
    return [
        step("write_runs", None, ["eval.run"] + [f"fold{f}.run" for f in range(p["folds"])],
             checks.check_write_runs),
        step("eval", ["eval", "--run", "out/eval.run", "--qrels", "in/test.qrels", "--metric", "ndcg@10",
                      "-o", "out/eval.tsv"], ["eval.tsv"], checks.check_eval),
        step("aggregate", ["aggregate", "--manifest", "in/folds.manifest", "--qrels", "in/test.qrels",
                           "--runs", *folds, "--metric", "mrr@10", "-o", "out/agg.tsv"],
             ["agg.tsv"], checks.check_aggregate),
        step("overlap", ["overlap", "--test-qrels", "in/test.qrels", "--train-qrels", "in/train.qrels",
                         "--thresholds", "geq:1,geq:2,eq:3", "-o", "out/overlap.tsv"],
             ["overlap.tsv"], checks.check_overlap),
    ]


# ---------------------------------------------------------------- running


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    env["PYTHONPATH"] = str(SRC)
    # One fixed hash seed for every step process, so that identical invocations
    # of one commit give identical outputs and the sha256 digests can be compared
    # between commits. hash_seed_probe() reports outputs that depend on it.
    env["PYTHONHASHSEED"] = PINNED_HASH_SEED
    return env


def command(step: Step) -> list[str]:
    if step.argv is None:
        return [sys.executable, str(BENCH / "write_runs.py"), "."]
    return [sys.executable, "-m", "xtrap", *step.argv]


def run_step(step: Step, work: Path, env: dict) -> dict:
    """One step as its own process; time, CPU and peak RSS from wait4."""
    logs = work / "logs"
    with open(logs / f"{step.name}.out", "wb") as out, open(logs / f"{step.name}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command(step), cwd=work, env=env, stdout=out, stderr=err)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (logs / f"{step.name}.err").read_bytes().decode("utf-8", "replace")
    return {
        "name": step.name, "exit": proc.returncode, "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_mib": usage.ru_maxrss / 1024.0,
        "stderr_tail": stderr[-400:],
    }


def check_step(step: Step, result: dict, work: Path, ctx: dict, digests: dict) -> None:
    """Adds 'ok', 'wrong_output', 'errors' and 'sha256' to a step result.

    A step fails when it exits non-zero, when its output fails its check
    (a wrong output), or when its output differs from the first pass's
    (identical invocations must give byte-identical outputs).
    """
    errors, wrong = [], False
    if result["exit"] != 0:
        errors.append(f"exit code {result['exit']}")
    else:
        out = work / "out"
        try:
            errors += step.check(out, ctx)
        except Exception as e:  # a malformed output is a failed check, not a crash of the benchmark
            errors.append(f"output unreadable: {type(e).__name__}: {e}")
        wrong = bool(errors)
        result["sha256"] = {name: checks.sha256(out / name) for name in step.outputs if (out / name).is_file()}
        for name, digest in result["sha256"].items():
            first = digests.setdefault(name, digest)
            if first != digest:
                errors.append(f"{name} differs from the first pass's output")
    result["ok"] = not errors
    result["wrong_output"] = wrong
    result["errors"] = errors[:5]


def clear_outputs(work: Path) -> None:
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()


def run_pass(steps: list[Step], work: Path, env: dict, ctx: dict, digests: dict) -> list[dict]:
    clear_outputs(work)
    results = [run_step(step, work, env) for step in steps]
    for step, result in zip(steps, results):
        check_step(step, result, work, ctx, digests)
    return results


def hash_seed_probe(steps: list[Step], work: Path, env: dict, ctx: dict, digests: dict) -> dict:
    """One untimed pass under another hash seed; the steps whose outputs change.

    Not counted in `failed`: whether near-ties swap under two hash seeds
    depends on the inputs, so the count would differ from seed to seed.
    """
    results = run_pass(steps, work, dict(env, PYTHONHASHSEED=PROBE_HASH_SEED), ctx, dict(digests))
    return {"hash_seed": PROBE_HASH_SEED, "pinned_hash_seed": PINNED_HASH_SEED,
            "changed": {r["name"]: r["errors"] for r in results if not r["ok"] and r["exit"] == 0}}


def traced_pass(steps: list[Step], work: Path, env: dict, ctx: dict, digests: dict, extra_wrapped=()) -> dict:
    clear_outputs(work)
    plan = {"steps": [{"name": s.name, "argv": s.argv} for s in steps], "extra_wrapped": list(extra_wrapped)}
    (work / "plan.json").write_text(json.dumps(plan))
    env = dict(env, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    with open(work / "logs" / "traced.err", "wb") as err:
        proc = subprocess.run([sys.executable, str(BENCH / "traced_pass.py"), "plan.json", "spans.json"],
                              cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err,
                              timeout=STEP_TIMEOUT_S * len(steps))
    if proc.returncode != 0:
        raise RuntimeError(f"traced pass exited {proc.returncode}: "
                           f"{(work / 'logs' / 'traced.err').read_text(errors='replace')[-400:]}")
    trace = json.loads((work / "spans.json").read_text())
    for step, result in zip(steps, trace["steps"]):
        check_step(step, result, work, ctx, digests)
    return trace


# ------------------------------------------------------------- provenance


def blas_info() -> dict:
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as e:  # the layout of numpy's build config is not a stable API
        info = {"error": f"{type(e).__name__}: {e}"}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
    except OSError as e:
        info["threads_error"] = str(e)
    return info


def provenance(workload: str, seed: int, in_dir: Path, data: dict, env: dict) -> dict:
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            commit = git[1]
    except (OSError, subprocess.SubprocessError):
        pass
    # the steps' BLAS, as seen under the steps' environment
    probe = f"import json, sys; sys.path.insert(0, {str(BENCH)!r}); import run; print(json.dumps(run.blas_info()))"
    blas = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    try:
        blas_seen = json.loads(blas.stdout)
    except json.JSONDecodeError:
        blas_seen = {"error": blas.stderr[-300:]}
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "xtrap").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    shapes = {k: list(v.shape) for k, v in data.items() if isinstance(v, np.ndarray)}
    return {
        "workload": workload, "seed": seed, "git_commit": commit, "src_sha256": src_digest.hexdigest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas_seen,
        "thread_env_removed": sorted(k for k in THREAD_ENV if k in os.environ),
        "input_shapes": shapes, "input_bytes": inputs.file_sizes(in_dir),
    }


# ------------------------------------------------------------------ main


def prepare(workload: str, seed: int, scale: str, work: Path, repeats: int):
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    (work / "logs").mkdir()
    p = inputs.SCALES[scale][workload]
    times = []
    for _ in range(repeats):
        # CPU time, not wall time: set-up runs in this process, and on a
        # shared host its wall time mostly measures the neighbours
        start = time.process_time()
        data = inputs.GENERATORS[workload](work / "in", seed, p)
        times.append(time.process_time() - start)
    # flush the inputs now, so that their write-back does not land in a timed step
    for path in (work / "in").iterdir():
        with open(path, "rb+") as f:
            os.fsync(f.fileno())
    return p, data, times


def cpu_ticks() -> tuple[int, int]:
    """(all, steal) CPU ticks of the machine so far, from /proc/stat; zeros where unreadable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
        return sum(fields), fields[7]
    except (OSError, ValueError, IndexError):
        return 0, 0


def verify_program(env: dict) -> None:
    """Fail unless `python -m xtrap` resolves to this checkout's src/ (also warms imports)."""
    if not (SRC / "xtrap" / "cli.py").is_file():
        raise SystemExit(f"bench: no xtrap sources at {SRC}; run from a full checkout")
    proc = subprocess.run([sys.executable, "-c", "import xtrap.cli, sys; sys.stdout.write(xtrap.__file__)"],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0 or Path(proc.stdout).resolve().parent != (SRC / "xtrap").resolve():
        raise SystemExit(f"bench: xtrap does not import from {SRC}: {proc.stdout or proc.stderr[-300:]}")


def median_metrics(passes: list[list[dict]]) -> dict[str, float]:
    step_medians = {r["name"]: statistics.median(p[i]["wall_s"] for p in passes) for i, r in enumerate(passes[0])}
    return {
        "wall_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in p) for p in passes),
        "peak_rss_mib": max(r["maxrss_mib"] for p in passes for r in p),
        **{f"step.{name}_s": v for name, v in step_medians.items()},
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    env = child_env()
    verify_program(env)
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    try:
        p, data, setup_times = prepare(workload, seed, "full", work, 1 if trace else SETUP_REPEATS)
        ctx = checks.build_context(workload, data, p)
        steps = workload_steps(workload, p, seed)
        digests: dict[str, str] = {}
        passes = []
        steal_before = cpu_ticks()
        start = time.perf_counter()
        while len(passes) < MAX_PASSES and (len(passes) < MIN_PASSES or time.perf_counter() - start < seconds):
            passes.append(run_pass(steps, work, env, ctx, digests))
        ticks = [after - before for before, after in zip(steal_before, cpu_ticks())]
        # share of this VM's CPU time taken by the hypervisor while the passes ran
        steal_share = ticks[1] / ticks[0] if ticks[0] else 0.0
        measured = median_metrics(passes)
        measured["setup_s"] = statistics.median(setup_times)
        runs = [r for p_ in passes for r in p_]
        record = {
            "provenance": provenance(workload, seed, work / "in", data, env),
            "setup_cpu_s": setup_times,
            "steal_share": steal_share,
            "passes": [[{k: r[k] for k in ("name", "exit", "wall_s", "cpu_s", "maxrss_mib", "ok", "errors")}
                        for r in p_] for p_ in passes],
            "stderr_tails": {r["name"]: r["stderr_tail"] for r in runs if r["stderr_tail"]},
            "output_sha256": digests,
            "hash_seed_probe": hash_seed_probe(steps, work, env, ctx, digests),
        }
        if trace:
            tr = traced_pass(steps, work, env, ctx, digests)
            runs += tr["steps"]
            layers = tracing.layer_metrics(tr)
            layers["trace.overhead_s"] = sum(s["wall_s"] for s in tr["steps"]) - measured["wall_s"]
            layers["wall_s"] = measured["wall_s"]
            layers["steal_share"] = steal_share
            # every workload reports every step, 0 s for the steps it does not run
            for other in inputs.GENERATORS:
                for step in workload_steps(other, inputs.SCALES["full"][other], seed):
                    layers[f"step.{step.name}_s"] = measured.get(f"step.{step.name}_s", 0.0)
            metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
            record.update(traced_steps=tr["steps"], wrappers_missing=tr["missing"],
                          counter_errors=tr["counter_errors"], spans=len(tr["spans"]))
        else:
            metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END.items()}
        result = {
            "correct": not any(r["wrong_output"] for r in runs),
            "attempted": len(runs),
            "failed": sum(not r["ok"] for r in runs),
            "metrics": metrics,
        }
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_unit(name: str) -> str:
    for suffix, unit in ((".mib_per_s", "MiB/s"), (".lines_per_s", "lines/s"), (".gflops", "GFLOP/s"),
                         (".scan_ratio", "ratio"), ("steal_share", "ratio"), (".s_per_iter", "s"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


# -------------------------------------------------------------- self-test


def write_oracle_pca(out: Path, ctx: dict) -> None:
    """pca.tsv as xtrap documents it (id, x, y, group at 6 significant digits), from the oracle."""
    group = checks.pca_groups(out / "folds.manifest")
    rows = (f"{i}\t{x:.6g}\t{y:.6g}\t{group.get(i, 'none')}" for i, (x, y) in zip(ctx["train_ids"], ctx["pca"]))
    inputs.write_lines(out / "pca.tsv", rows)


def self_test() -> int:
    """Tiny pass over every workload: every check must accept the real output
    and flag a corrupted copy. Where pca exits non-zero (the known failure at
    this commit), its check is tried on an oracle-written output instead."""
    env = child_env()
    verify_program(env)
    problems = []
    for workload in inputs.GENERATORS:
        work = WORK / f"selftest-{workload}-{os.getpid()}"
        try:
            p, data, _ = prepare(workload, 7, "tiny", work, 1)
            ctx = checks.build_context(workload, data, p)
            steps = workload_steps(workload, p, 7)
            results = run_pass(steps, work, env, ctx, {})
            for step, r in zip(steps, results):
                status = "ok" if r["ok"] else f"FAILED {r['errors']}"
                print(f"self-test {workload}/{step.name}: {status}")
                if step.name == "pca" and r["exit"] != 0:
                    # the known failure: check the check on the documented output format instead
                    write_oracle_pca(work / "out", ctx)
                elif not r["ok"]:
                    problems.append(f"{workload}/{step.name} failed on real output: {r['errors']}")
                    continue
                if step.check(work / "out", ctx):
                    problems.append(f"{workload}/{step.name}: check rejected a correct output")
                step.corrupt(work / "out", ctx)
                if not step.check(work / "out", ctx):
                    problems.append(f"{workload}/{step.name}: check passed a corrupted output")
            gone = ("xtrap.metrics", "no_such_function", "metrics.no_such_function")
            tr = traced_pass(steps, work, env, ctx, {}, extra_wrapped=[gone])
            layers = tracing.layer_metrics(tr)
            if gone[2] not in tr["missing"] or not all(s["exit"] in (0, 2) for s in tr["steps"]):
                problems.append(f"{workload}: traced pass mishandled a missing wrapper name: {tr['missing']}")
            print(f"self-test {workload}/traced: {len(tr['spans'])} spans, {len(layers)} layer metrics")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"self-test problem: {problem}", file=sys.stderr)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny end-to-end pass plus corrupted-output checks")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result, record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    record["result"] = result
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    probe = record["hash_seed_probe"]
    for name, errors in probe["changed"].items():
        print(f"{args.workload} {name}: output changes under PYTHONHASHSEED={probe['hash_seed']}: {errors}")
    print(f"{args.workload}: {result['attempted']} steps run, {result['failed']} failed, "
          f"outputs correct: {result['correct']}; record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
