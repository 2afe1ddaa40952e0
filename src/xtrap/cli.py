"""Command-line front end; the only process entry point.

Every command reads the files named by its flags, writes machine-readable
output only to the path given by -o, prints a short human summary to
stdout, and sends warnings to stderr. Exit codes: 0 success, 1 usage
error, 2 data error. All randomness derives from --seed, so identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import sys

from . import analysis, dataio, metrics, resample, simindex

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors with exit code 2; this toolkit uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", required=True, help="output file path")
    parser.add_argument("-v", "--verbose", action="count", default=0, help="more logging")
    parser.add_argument("-q", "--quiet", action="store_true", help="errors only")


def _add_measure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--measure", choices=simindex.MEASURES, default=resample.ReSTrainConfig.measure)


def cmd_knn(args) -> int:
    if args.k < 1:
        raise ValueError("k must be >= 1")
    test = dataio.read_embeddings(args.test_emb)
    train = dataio.read_embeddings(args.train_emb)
    index, scores = simindex.knn(test, train, args.k, measure=args.measure)
    simindex.write_neighbor_lists(test.ids, train.ids, index, scores, args.output)
    print(f"wrote top-{index.shape[1]} neighbors for {len(test)} queries to {args.output}")
    return EXIT_OK


def _add_resample_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--train-queries", required=True, help="training queries, id<TAB>text")
    parser.add_argument("--test-queries", required=True, help="test queries, id<TAB>text")
    parser.add_argument("--train-emb", required=True, help="an embedding per training query (EVEC or TSV)")
    parser.add_argument("--test-emb", required=True, help="an embedding per test query (EVEC or TSV)")


def _read_aligned(args) -> tuple[dataio.QuerySet, dataio.QuerySet, dataio.EmbeddingSet, dataio.EmbeddingSet]:
    """(train, test, train_emb, test_emb), each embedding set subset onto its
    query file as soon as it is read; the train side is read first."""
    train = dataio.parse_queries(args.train_queries)
    with dataio._located(args.train_emb):
        train_emb = dataio.read_embeddings(args.train_emb).subset(train.ids)
    test = dataio.parse_queries(args.test_queries)
    with dataio._located(args.test_emb):
        test_emb = dataio.read_embeddings(args.test_emb).subset(test.ids)
    return train, test, train_emb, test_emb


def cmd_candidates(args) -> int:
    if args.per_channel < 1:
        raise ValueError("per_channel must be >= 1")
    train, test, train_emb, test_emb = _read_aligned(args)
    pools = simindex.recall_candidates(
        test,
        train,
        test_emb,
        train_emb,
        per_channel=args.per_channel,
        measure=args.measure,
    )
    simindex.write_candidate_pools(pools, args.output)
    total = sum(len(p) for p in pools.values())
    print(f"wrote {total} candidates for {len(pools)} test queries to {args.output}")
    return EXIT_OK


def cmd_restrain(args) -> int:
    cfg = resample.ReSTrainConfig(
        target_size=args.size,
        exclude_depth=args.exclude_depth,
        seed=args.seed,
        measure=args.measure,
    )
    _, _, train_emb, test_emb = _read_aligned(args)
    if args.regime == "inter":
        split = resample.restrain_interpolation(train_emb, test_emb, cfg)
    else:
        split = resample.restrain_extrapolation(train_emb, test_emb, cfg)
    resample.write_manifest(split, args.output)
    print(
        f"{split.regime} split: {len(split.training_ids)} training / "
        f"{len(split.test_ids)} test queries -> {args.output}"
    )
    return EXIT_OK


def cmd_resttest(args) -> int:
    cfg = resample.KMeansConfig(
        k=args.k,
        seed=args.seed,
        max_iters=args.max_iters,
        tol=args.tol,
        normalize=args.normalize,
    )
    if args.k < 2:
        raise ValueError(resample._SINGLE_BUCKET)
    _, _, train_emb, test_emb = _read_aligned(args)
    folds = resample.resttest_split(train_emb, test_emb, cfg)
    resample.write_manifest(folds, args.output)
    sizes = ", ".join(str(len(b)) for b in folds.buckets)
    print(f"{folds.k} buckets (sizes {sizes}) over {len(train_emb)} train + {len(test_emb)} test -> {args.output}")
    return EXIT_OK


def _add_metric(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", required=True, help="mrr@10, ndcg@10, or recall@100")
    parser.add_argument("--rel-threshold", type=dataio._int, default=metrics.MetricSpec.rel_threshold,
                        help="binarization grade (TREC DL convention: 2)")
    parser.add_argument("--gain", choices=metrics.GAINS, default=metrics.MetricSpec.gain, help="ndcg gain function")


def _metric_spec(args) -> metrics.MetricSpec:
    return metrics.MetricSpec.parse(args.metric, rel_threshold=args.rel_threshold, gain=args.gain)


def cmd_eval(args) -> int:
    spec = _metric_spec(args)
    run = dataio.parse_run(args.run)
    qrels = dataio.parse_qrels(args.qrels)
    report = metrics.score_run(run, qrels, spec)
    metrics.write_metric_report(report, args.output)
    print(f"{report.label} mean over {report.evaluated_count} queries: {report.mean:.4f}")
    if report.skipped_ids:
        print(f"skipped {len(report.skipped_ids)} queries without usable judgments")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    spec = _metric_spec(args)
    fold_spec = resample.read_manifest(args.manifest)
    if not isinstance(fold_spec, resample.FoldSpec):
        raise dataio.DataError(
            f"{args.manifest} is an {fold_spec.regime} split manifest, not a resttest fold manifest"
        )
    if len(args.runs) != fold_spec.k:
        raise dataio.DataError(f"expected {fold_spec.k} fold runs, got {len(args.runs)}")
    qrels = dataio.parse_qrels(args.qrels)
    runs = (dataio.parse_run(path) for path in args.runs)
    report = resample.resttest_aggregate(runs, fold_spec, qrels, spec)
    resample.write_aggregate_report(report, args.output)
    print(
        f"{report.label} over {len(report.per_query)} test queries: "
        f"interpolation {report.interpolation:.4f}, extrapolation {report.extrapolation:.4f}"
    )
    return EXIT_OK


def cmd_overlap(args) -> int:
    thresholds = [analysis.GradeThreshold.parse(t) for t in args.thresholds.split(",") if t.strip()]
    if not thresholds:
        raise ValueError("at least one threshold is required")
    test_qrels = dataio.parse_qrels(args.test_qrels)
    train_qrels = dataio.parse_qrels(args.train_qrels)
    rows = analysis.relevant_overlap(test_qrels, train_qrels, thresholds)
    analysis.write_overlap_report(rows, args.output)
    for row in rows:
        print(f"{row.threshold.label}: {row.count}/{row.total} test queries ({row.percent:.1f}%)")
    return EXIT_OK


def _write_values(rows: list[tuple[str, float]], path) -> None:
    """TSV `name<TAB>value`, 4 decimals."""
    with dataio.atomic_output(path) as f:
        for name, value in rows:
            f.write(f"{name}\t{value:.4f}\n")


def cmd_correlate(args) -> int:
    pairs = analysis.read_pairs(args.pairs)
    lines = []
    if args.method in ("spearman", "both"):
        lines.append(("spearman", analysis.spearman(pairs)))
    if args.method in ("kendall", "both"):
        lines.append(("kendall", analysis.kendall_tau_b(pairs)))
    _write_values(lines, args.output)
    for name, value in lines:
        print(f"{name} over {len(pairs)} pairs: {value:.4f}")
    return EXIT_OK


def cmd_kappa(args) -> int:
    if not 2 <= len(args.labels) <= 3:
        raise ValueError("kappa needs 2 or 3 label files")
    raters = [analysis.read_labels(path) for path in args.labels]
    for path, rater in zip(args.labels[1:], raters[1:]):
        if rater.keys() != raters[0].keys():
            raise dataio.DataError(f"{path} labels a different item set than {args.labels[0]}")
    aligned = [[rater[item] for item in raters[0]] for rater in raters]
    pairs = itertools.combinations(enumerate(aligned, 1), 2)
    results = [(f"rater{a}-rater{b}", analysis.cohens_kappa(x, y)) for (a, x), (b, y) in pairs]
    if len(results) > 1:
        results.append(("mean", sum(v for _, v in results) / len(results)))
    _write_values(results, args.output)
    for name, value in results:
        print(f"kappa {name}: {value:.4f}")
    return EXIT_OK


def cmd_pca(args) -> int:
    groups: dict[str, str] | None = None
    if args.manifest:
        spec = resample.read_manifest(args.manifest)
        if isinstance(spec, resample.SplitSpec):
            train_group = "train-inter" if spec.regime == "interpolation" else "train-extra"
            groups = {i: train_group for i in spec.training_ids}
            groups.update({i: "test" for i in spec.test_ids})
        else:
            groups = {i: f"bucket-{b}" for i, b in spec.bucket_of.items()}
    emb = dataio.read_embeddings(args.emb)
    with dataio._located(args.emb):
        coords = analysis.pca_project(emb, out_dims=2)
    analysis.write_pca_projection(emb.ids, coords, groups, args.output)
    print(f"projected {len(coords)} embeddings to 2 dims -> {args.output}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="xtrap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("knn", help="exact top-k similar training queries per test query")
    p.add_argument("--test-emb", required=True, help="test query embeddings")
    p.add_argument("--train-emb", required=True, help="training query embeddings")
    p.add_argument("-k", type=dataio._int, required=True, help="neighbors per test query")
    _add_measure(p)
    _add_common(p)
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("candidates", help="annotation candidate pools (embedding + BM25 channels)")
    _add_resample_inputs(p)
    p.add_argument("--per-channel", type=dataio._int, default=10, help="neighbors per channel")
    _add_measure(p)
    _add_common(p)
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("restrain", help="resample the training set against a fixed test set")
    p.add_argument("--regime", choices=("inter", "extra"), required=True)
    _add_resample_inputs(p)
    p.add_argument("-E", "--exclude-depth", type=dataio._int, default=resample.ReSTrainConfig.exclude_depth,
                   help="neighbors excluded per test query (extrapolation)")
    p.add_argument("--size", type=dataio._int, required=True, help="target training set size")
    p.add_argument("--seed", type=dataio._int, default=resample.ReSTrainConfig.seed)
    _add_measure(p)
    _add_common(p)
    p.set_defaults(func=cmd_restrain)

    p = sub.add_parser("resttest", help="k-means bucket folds over train and test queries")
    _add_resample_inputs(p)
    p.add_argument("-k", type=dataio._int, default=resample.KMeansConfig.k, help="bucket count")
    p.add_argument("--seed", type=dataio._int, default=resample.KMeansConfig.seed)
    p.add_argument("--max-iters", type=dataio._int, default=resample.KMeansConfig.max_iters)
    p.add_argument("--tol", type=dataio._float, default=resample.KMeansConfig.tol,
                   help="centroid-shift stopping tolerance")
    p.add_argument("--normalize", action="store_true", help="L2-normalize vectors before clustering")
    _add_common(p)
    p.set_defaults(func=cmd_resttest)

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    _add_metric(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("aggregate", help="combine per-fold runs per the bucket-fold protocol")
    p.add_argument("--manifest", required=True, help="resttest fold manifest")
    p.add_argument("--qrels", required=True)
    p.add_argument("--runs", nargs="+", required=True, help="one run file per fold, in fold order")
    _add_metric(p)
    _add_common(p)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("overlap", help="train-test relevant-doc overlap at grade thresholds")
    p.add_argument("--test-qrels", required=True)
    p.add_argument("--train-qrels", required=True)
    p.add_argument("--thresholds", default=",".join(t.label for t in analysis.DEFAULT_THRESHOLDS),
                   help="comma-separated geq:N / eq:N")
    _add_common(p)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("correlate", help="rank correlation of paired scores")
    p.add_argument("--pairs", required=True, help="TSV label<TAB>x<TAB>y")
    p.add_argument("--method", choices=("spearman", "kendall", "both"), default="both")
    _add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("kappa", help="pairwise Cohen's kappa between 2 or 3 raters")
    p.add_argument("--labels", nargs="+", required=True, help="2 or 3 TSV files item_id<TAB>label")
    _add_common(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("pca", help="2-D PCA projection of embeddings for plotting")
    p.add_argument("--emb", required=True)
    p.add_argument("--manifest", default=None, help="split manifest used to label groups")
    _add_common(p)
    p.set_defaults(func=cmd_pca)

    return parser


def _configure_logging(args) -> None:
    # each -v lowers the level by one step, from WARNING down to DEBUG
    level = logging.ERROR if args.quiet else max(logging.DEBUG, logging.WARNING - 10 * args.verbose)
    # basicConfig does nothing once the root logger has a handler, so a
    # second main() in one process sets its level itself
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    try:
        return args.func(args)
    except (dataio.ParseError, dataio.DataError) as e:
        sys.stderr.write(f"xtrap: data error: {e}\n")
        return EXIT_DATA
    except OSError as e:
        sys.stderr.write(f"xtrap: {e}\n")
        return EXIT_DATA
    except ValueError as e:
        sys.stderr.write(f"xtrap: error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
