"""Command-line interface.

Subcommands: gen, partition, covertness, analyze, eval.
Every subcommand is deterministic given its flags plus --seed: reruns
produce byte-identical output files. Wall-clock numbers (which cannot be
deterministic) go to stderr only.

Exit codes: 0 success, 1 usage error, 2 input validation error,
3 internal pipeline error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import logging
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import classify, community, generate, homophily, pipeline
from .classify import LabeledSample
from .features import feature_names
from .model import InputError, load_catalog, load_graph, serialize_graph

logger = logging.getLogger("homgraph")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# Flag definitions, by name. Each subcommand takes only the ones its command
# function reads, plus --out, so no flag is accepted and then ignored.
_FLAGS = {
    "--catalog": dict(metavar="FILE", help="sensitive-API catalog file"),
    "--threshold": dict(type=float, default=3.0, help="coupling threshold (default 3)"),
    "--k": dict(type=int, default=1, help="kNN neighbor count (default 1)"),
    "--folds": dict(type=int, default=10, help="cross-validation folds (default 10)"),
    "--seed": dict(type=int, default=0, help="pseudorandom seed (default 0)"),
    "--hops": dict(type=int, default=1, help="caller hops in the malicious part (default 1)"),
    "--out": dict(metavar="PATH", help="output file or directory"),
}
_ANALYSIS_FLAGS = ("--catalog", "--threshold", "--seed")


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in (*names, "--out"):
        parser.add_argument(name, **_FLAGS[name])


def _check_threshold(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise InputError(f"{name} must be finite and positive, got {value}")
    return value


def _write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text`` to ``path``, or each string of an iterable as it comes;
    a failure to create, open or write the file is an ``InputError``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _emit(text: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(text)
    else:
        _write_text(Path(out), text)


def _json_text(payload) -> Iterator[str]:
    """``json.dumps(payload, indent=1) + "\\n"``, yielded in pieces of at most
    4,096 encoder chunks so the whole text is never held; NaN and inf raise."""
    chunks = pipeline.JSON_ENCODER.iterencode(payload)
    for first in chunks:
        yield "".join(itertools.chain((first,), itertools.islice(chunks, 4095)))
    yield "\n"


def _json_list_text(texts: Sequence[str]) -> Iterator[str]:
    """``_json_text`` of the list whose items' JSON texts are ``texts``, one
    piece per item. The encoder escapes newlines in strings, so each raw
    ``"\\n"`` in a text is a line break, indented one level more here."""
    for i, text in enumerate(texts):
        yield ("[\n " if i == 0 else ",\n ") + text.replace("\n", "\n ")
    yield "\n]\n" if texts else "[]\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="homgraph",
                     description="Call-graph homophily analytics for covert-malware triage")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_gen = sub.add_parser("gen", help="generate a synthetic corpus")
    _add_flags(p_gen, "--catalog", "--seed")
    defaults = generate.SyntheticSpec()
    p_gen.add_argument("--benign", type=int, default=0, help="benign graph count")
    p_gen.add_argument("--covert", type=int, default=0, help="covert graph count")
    p_gen.add_argument("--nodes", type=int, default=defaults.node_count)
    p_gen.add_argument("--communities", type=int, default=defaults.community_count)
    p_gen.add_argument("--planted-size", type=int,
                       default=defaults.planted_sensitive_community_size)
    p_gen.add_argument("--intra-p", type=float, default=defaults.intra_edge_prob)
    p_gen.add_argument("--inter-p", type=float, default=defaults.inter_edge_prob)
    p_gen.add_argument("--apis", type=int, default=defaults.sensitive_api_count,
                       help="sensitive APIs planted per graph")
    p_gen.add_argument("--coupling-target", type=float,
                       default=defaults.planted_coupling_target,
                       help="coupling target of covert planted communities")
    p_gen.add_argument("--benign-coupling-target", type=float,
                       default=defaults.benign_coupling_target,
                       help="coupling target of benign sensitive communities")
    p_gen.set_defaults(func=cmd_gen)

    p_part = sub.add_parser("partition", help="partition one graph and report verdicts")
    _add_flags(p_part, *_ANALYSIS_FLAGS)
    p_part.add_argument("path", metavar="GRAPH")
    p_part.set_defaults(func=cmd_partition)

    p_cov = sub.add_parser("covertness", help="covertness profile of one graph")
    _add_flags(p_cov, "--catalog", "--hops")
    p_cov.add_argument("path", metavar="GRAPH")
    p_cov.set_defaults(func=cmd_covertness)

    p_an = sub.add_parser("analyze", help="feature records and partition reports")
    _add_flags(p_an, *_ANALYSIS_FLAGS)
    p_an.add_argument("paths", nargs="+", metavar="GRAPH",
                      help="graph documents or directories")
    p_an.set_defaults(func=cmd_analyze)

    p_ev = sub.add_parser("eval", help="cross-validated metrics over a corpus")
    _add_flags(p_ev, *_ANALYSIS_FLAGS, "--k", "--folds")
    p_ev.add_argument("paths", nargs="*", metavar="GRAPH",
                      help="graph documents or directories")
    p_ev.add_argument("--features", metavar="CSV",
                      help="reuse a feature file from a prior analyze run")
    p_ev.add_argument("--sweep", metavar="T1,T2,...",
                      help="also evaluate each coupling threshold in the list")
    p_ev.set_defaults(func=cmd_eval, threshold=None)  # unset, so --features can refuse it

    return parser


def cmd_gen(args: argparse.Namespace) -> int:
    if args.out is None:
        raise InputError("gen requires --out DIRECTORY")
    spec = generate.SyntheticSpec(
        node_count=args.nodes,
        community_count=args.communities,
        intra_edge_prob=args.intra_p,
        inter_edge_prob=args.inter_p,
        planted_sensitive_community_size=args.planted_size,
        planted_coupling_target=args.coupling_target,
        benign_coupling_target=args.benign_coupling_target,
        sensitive_api_count=args.apis,
        seed=args.seed,
    )
    catalog = load_catalog(args.catalog)
    members = generate.corpus_members(spec, args.benign, args.covert, catalog)
    out_dir = Path(args.out)
    entries = pipeline.fork_map(
        lambda member: _write_graph(spec, catalog, *member, out_dir), members)
    manifest = {"spec": asdict(spec), "catalog": catalog.source, "graphs": entries}
    _write_text(out_dir / "manifest.json", _json_text(manifest))
    print(f"wrote {len(entries)} graphs + manifest to {out_dir}", file=sys.stderr)
    return EXIT_OK


def _write_graph(spec: generate.SyntheticSpec, catalog, label: str, index: int,
                 out_dir: Path) -> dict:
    """Generate, serialize and write one graph; its manifest entry."""
    graph, truth = generate.generate_graph(spec, catalog, label, index)
    file_name = f"{graph.app_id}.json"
    _write_text(out_dir / file_name, serialize_graph(graph))
    return {
        "app_id": truth.app_id,
        "label": truth.label,
        "file": file_name,
        "planted_nodes": sorted(truth.planted_nodes),
        "api_indices": list(truth.api_indices),
        "planted_coupling": truth.planted_coupling,
    }


def cmd_partition(args: argparse.Namespace) -> int:
    _check_threshold("--threshold", args.threshold)
    graph = load_graph(args.path, load_catalog(args.catalog))
    partition = community.detect_multilevel(graph, args.seed)
    outcome = homophily.partition_suspicious(graph, partition, args.threshold)
    _emit(_json_text(pipeline.partition_report(graph, partition, outcome)), args.out)
    return EXIT_OK


def cmd_covertness(args: argparse.Namespace) -> int:
    if args.hops < 0:
        raise InputError(f"--hops must be non-negative, got {args.hops}")
    graph = load_graph(args.path, load_catalog(args.catalog))
    report = homophily.covertness(graph, args.hops)
    _emit(_json_text(pipeline.covertness_report_dict(graph, report)), args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.out is None:
        raise InputError("analyze requires --out DIRECTORY")
    _check_threshold("--threshold", args.threshold)
    catalog = load_catalog(args.catalog)
    analyses = pipeline.analyze_corpus(pipeline.graph_files(args.paths), catalog,
                                       args.threshold, args.seed)
    if not analyses:
        raise InputError("every graph in the corpus failed to analyze")
    out_dir = Path(args.out)
    _write_text(out_dir / "features.csv", _feature_lines(analyses, catalog))
    _write_text(out_dir / "partitions.json", _json_list_text([a.report for a in analyses]))
    print(f"analyzed {len(analyses)} graphs into {out_dir}", file=sys.stderr)
    return EXIT_OK


def _feature_lines(analyses, catalog) -> Iterator[str]:
    """The feature file's lines, each formatted by ``csv`` as it is needed."""
    writer = csv.writer(SimpleNamespace(write=str))  # writerow returns the line
    yield writer.writerow(["app_id", "label", *feature_names(catalog)])
    for a in analyses:
        yield writer.writerow([a.app_id, a.label or "", *map(repr, a.vectors[0].tolist())])


def read_features_csv(path: str | Path) -> list[LabeledSample]:
    path = Path(path)
    samples = []
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[:2] != ["app_id", "label"]:
                raise InputError(f"{path}: not a feature file (bad header)")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise InputError(f"{path}:{line_no}: expected {len(header)} columns")
                app_id, label, *values = row
                if not label:
                    logger.warning("%s:%d: unlabeled sample %r excluded", path, line_no, app_id)
                    continue
                vector = np.array([_finite(v, path, line_no, c)
                                   for v, c in zip(values, header[2:])])
                samples.append(LabeledSample(app_id, label, vector))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read features file {path}: {exc}") from exc
    return samples


def _finite(text: str, path: Path, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InputError(f"{path}:{line_no}: column {column}: {text!r} is not a finite number")
    return value


def _metrics_dict(report: classify.MetricsReport) -> dict:
    return {
        "TPR": report.tpr,
        "FNR": report.fnr,
        "TNR": report.tnr,
        "FPR": report.fpr,
        "A": report.accuracy,
        "P": report.precision,
        "R": report.recall,
        "F1": report.f_measure,
    }


def _cv_dict(report: classify.CrossValidationReport) -> dict:
    micro = report.micro_counts
    return {
        "macro": _metrics_dict(report.macro),
        "micro_counts": {"TP": micro.tp, "TN": micro.tn, "FP": micro.fp, "FN": micro.fn},
        "micro": _metrics_dict(classify.metrics(micro)),
    }


def cmd_eval(args: argparse.Namespace) -> int:
    threshold = (_FLAGS["--threshold"]["default"] if args.threshold is None
                 else _check_threshold("--threshold", args.threshold))
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    if args.folds < 2:
        raise InputError(f"--folds must be at least 2, got {args.folds}")
    thresholds = _parse_thresholds(args.sweep) if args.sweep else []
    if args.features and args.paths:
        raise InputError("eval takes graph paths or --features, not both")
    if not (args.features or args.paths):
        raise InputError("eval needs graph paths or --features")

    payload: dict = {
        "seed": args.seed,
        "k": args.k,
        "folds": args.folds,
        "threshold": threshold,
        "algorithm": community.MULTILEVEL,
    }
    if args.features:
        for flag, value in (("--sweep", args.sweep), ("--catalog", args.catalog),
                            ("--threshold", args.threshold)):
            if value is not None:
                raise InputError(f"{flag} needs graph paths (features are already extracted)")
        samples = read_features_csv(args.features)
    else:
        catalog = load_catalog(args.catalog)
        analyses = pipeline.analyze_corpus(
            pipeline.graph_files(args.paths), catalog, threshold, args.seed,
            thresholds, reports=False,
        )
        samples, *swept = pipeline.samples_by_threshold(analyses)
    payload["samples"] = len(samples)
    payload["report"] = _cv_dict(classify.cross_validate(samples, args.folds, args.k, args.seed))
    if thresholds:
        rows = classify.threshold_sweep(
            thresholds, swept, k=args.k, folds=args.folds, seed=args.seed
        )
        payload["sweep"] = [
            {"threshold": row.threshold, "samples": row.sample_count, **_cv_dict(row.report)}
            for row in rows
        ]
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def _parse_thresholds(raw: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise InputError(f"bad --sweep list {raw!r}: {exc}") from exc
    if not values:
        raise InputError("--sweep list is empty")
    return [_check_threshold("--sweep thresholds", value) for value in values]


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"homgraph: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("internal error: %s", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
