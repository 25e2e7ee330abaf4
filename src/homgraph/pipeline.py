"""End-to-end orchestration shared by the CLI subcommands.

Per-graph analysis takes a coupling threshold and a seed; the defaults are
the best-performing configuration (threshold 3). Communities always come
from multilevel detection. The catalog is loaded by the caller, and
classifier settings (k, folds) go straight to ``classify``. Every command
that reads many graphs runs one corpus loop, :func:`map_graphs`: each graph
is parsed and handed to a per-graph function, and only that function's
result is kept before the next file is read. :func:`fork_map` spreads the
calls over one process per usable CPU, and the loop alone decides which
graphs are skipped. For ``analyze`` and ``eval`` the function detects,
couples once for every threshold and featurizes once per distinct
suspicious union; their results come out stably sorted by app_id.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence, TypeVar

import numpy as np

from . import community, homophily
from .classify import LabeledSample
from .features import featurize
from .model import CallGraph, InputError, SensitiveApiCatalog, apply_catalog, load_graph

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: The encoder of every JSON output: one-space indent, NaN and inf raise.
JSON_ENCODER = json.JSONEncoder(indent=1, allow_nan=False)


@dataclass(frozen=True, eq=False)
class GraphAnalysis:
    """What is kept of one graph: features at the configured threshold, then
    at each sweep threshold, and the partition report's JSON text (encoded by
    :data:`JSON_ENCODER`) unless left out."""

    app_id: str
    label: str | None
    vectors: tuple[np.ndarray, ...]
    report: str | None


def analyze_graph(
    graph: CallGraph,
    catalog: SensitiveApiCatalog,
    threshold: float = 3.0,
    seed: int = 0,
    sweep: Sequence[float] = (),
    report: bool = True,
) -> GraphAnalysis:
    """Multilevel detection, one coupling pass, features at ``threshold`` then
    at each ``sweep`` threshold, and the report encoded in this process."""
    partition = community.detect_multilevel(graph, seed)
    outcome = homophily.partition_suspicious(graph, partition, threshold)
    outcomes = (outcome, *homophily.at_thresholds(graph, outcome, sweep))
    # Outcomes with the same suspicious union share its subgraph object.
    features: dict[int, np.ndarray] = {}
    for o in outcomes:
        if id(o.suspicious_subgraph) not in features:
            features[id(o.suspicious_subgraph)] = featurize(o, catalog)
    return GraphAnalysis(
        app_id=graph.app_id,
        label=graph.ground_truth,
        vectors=tuple(features[id(o.suspicious_subgraph)] for o in outcomes),
        report=(JSON_ENCODER.encode(partition_report(graph, partition, outcome))
                if report else None),
    )


class Skip(NamedTuple):
    """A graph left out of a corpus run, and whether it was read first."""

    read: bool
    warning: str


def map_graphs(
    fn: Callable[[CallGraph], R],
    sources: Iterable[CallGraph | str | Path],
    catalog: SensitiveApiCatalog | None = None,
) -> list[R]:
    """``fn`` of each graph, or of each graph file named, through
    :func:`fork_map`; results in source order.

    Given file paths, each process loads its own share one file at a time,
    so it holds one graph in memory. With ``catalog``, every graph, read or
    given, is flagged by :func:`apply_catalog`; otherwise its own flags are
    kept. A file that cannot be read, or a graph on which ``fn`` raises
    ``InputError``, is skipped with a warning, logged here in source order
    after the run; the run fails only if no graph could be read. Any other
    error is a fault and propagates.
    """
    def run(source: CallGraph | str | Path) -> R | Skip:
        try:
            graph = source if isinstance(source, CallGraph) else load_graph(source)
        except InputError as exc:
            return Skip(False, f"skipping {source}: {exc}")
        try:
            return fn(graph if catalog is None else apply_catalog(graph, catalog))
        except InputError as exc:
            return Skip(True, f"skipping graph {graph.app_id!r}: {exc}")

    sources = list(sources)
    results: list[R] = []
    read = 0
    for outcome in fork_map(run, sources):
        if isinstance(outcome, Skip):
            logger.warning(outcome.warning)
            read += outcome.read
        else:
            results.append(outcome)
            read += 1
    if not read:
        raise InputError(f"no readable graph documents among {len(sources)} file(s)")
    return results


def analyze_corpus(
    sources: Iterable[CallGraph | str | Path],
    catalog: SensitiveApiCatalog,
    threshold: float = 3.0,
    seed: int = 0,
    sweep: Sequence[float] = (),
    reports: bool = True,
) -> list[GraphAnalysis]:
    """:func:`analyze_graph` of each source through :func:`map_graphs`,
    stably sorted by app_id."""
    return sorted(
        map_graphs(lambda g: analyze_graph(g, catalog, threshold, seed, sweep, reports),
                   sources, catalog),
        key=lambda a: a.app_id)


def graph_files(paths: Iterable[str | Path]) -> list[Path]:
    """Each path that is not a directory, and each directory's ``*.json``
    files but ``manifest.json`` in name order, in argument order."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(p for p in path.glob("*.json") if p.name != "manifest.json"))
        else:
            files.append(path)
    return files


def load_corpus(
    paths: Iterable[str | Path], catalog: SensitiveApiCatalog | None = None
) -> list[CallGraph]:
    """Every readable graph of :func:`graph_files`, in memory, sorted by app_id."""
    return sorted(map_graphs(lambda g: g, graph_files(paths), catalog), key=lambda g: g.app_id)


def samples_by_threshold(analyses: Sequence[GraphAnalysis]) -> list[list[LabeledSample]]:
    """One dataset per threshold, in ``GraphAnalysis.vectors`` order; an
    unlabeled graph is logged and left out of every one."""
    for a in analyses:
        if a.label is None:
            logger.warning("graph %r has no label; excluded from dataset", a.app_id)
    labeled = [a for a in analyses if a.label is not None]
    slots = len(analyses[0].vectors) if analyses else 1
    return [[LabeledSample(a.app_id, a.label, a.vectors[i]) for a in labeled]
            for i in range(slots)]


def partition_report(graph: CallGraph, partition: community.CommunityPartition,
                     outcome: homophily.PartitionOutcome) -> dict:
    """JSON-ready partition report for one analyzed graph, naming nodes by id."""
    return {
        "app_id": graph.app_id,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "community_count": partition.community_count,
        "modularity_q": partition.modularity_q,
        "threshold": outcome.threshold,
        "benign_node_count": len(outcome.benign_nodes),
        "sensitive_communities": [
            {
                "size": len(sc.nodes),
                "nodes": [graph.ids[p] for p in sc.nodes.tolist()],
                "coupling": _coupling_dict(sc.coupling),
                "verdict": sc.verdict,
            }
            for sc in outcome.sensitive_communities
        ],
        "suspicious_nodes": list(outcome.suspicious_subgraph.ids),
        "suspicious_edge_count": outcome.suspicious_subgraph.edge_count,
    }


def _coupling_dict(report: homophily.CouplingReport) -> dict:
    return {
        "n_a": report.n_a,
        "n_b": report.n_b,
        "e_a": report.e_a,
        "e_b": report.e_b,
        "s": report.s,
        "c": report.c,
        # Coupling has one denominator; the key stays so report bytes do not change.
        "denominator": "total",
    }


def covertness_report_dict(graph: CallGraph, report: homophily.CovertnessReport) -> dict:
    """JSON-ready covertness report for one graph, naming nodes by id."""
    return {
        "app_id": graph.app_id,
        "node_count": graph.node_count,
        "malicious_node_count": len(report.malicious_nodes),
        "malicious_nodes": [graph.ids[p] for p in report.malicious_nodes.tolist()],
        "proportion": report.proportion,
        "coupling": _coupling_dict(report.coupling_normal_malicious),
        "category": report.category,
        "covert_candidate": report.covert_candidate,
    }


def worker_count() -> int:
    """Processes a corpus command may run in: the CPUs this process may use
    (``taskset -c 0`` makes it one), else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process."""


def fork_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``[fn(item) for item in items]``, with ``items[k::W]`` run in process k.

    Process 0 is this one. The other ``W - 1``, where ``W = min(worker_count(),
    len(items))``, are ``os.fork`` children that pickle their results back
    over a pipe. With ``W == 1``, or no ``os.fork``, nothing is forked. As in
    the serial loop, the exception raised is that of the first item, in item
    order, whose call raised; a child that ends without sending its results
    is a ``RuntimeError``. Every child is reaped before this returns or
    raises.
    """
    workers = min(worker_count(), len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    reaped = 0
    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(fn, items[k::workers], write_end)
            os.close(write_end)
            children.append((pid, read_end))
        shares = [(*_run_share(fn, items[0::workers]), None)]
        for pid, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            try:
                shares.append(pickle.loads(data))
            except Exception:
                raise RuntimeError(f"worker process {pid} exited with code {code} "
                                   "before sending its results") from None
    finally:
        for pid, _ in children[reaped:]:  # only when this process was interrupted
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, read_end in children:
            os.close(read_end)
    failed = [(k + len(done) * workers, exc, tb)
              for k, (done, exc, tb) in enumerate(shares) if exc is not None]
    if failed:
        _, exc, tb = min(failed, key=lambda f: f[0])
        if tb is None:
            raise exc
        raise exc from _WorkerTraceback(tb)
    results: list = [None] * len(items)
    for k, (done, _, _) in enumerate(shares):
        results[k::workers] = done
    return results


def _run_share(fn: Callable[[T], R], share: Sequence[T]) -> tuple[list[R], Exception | None]:
    """Results of ``fn`` on ``share`` up to the first exception, and that."""
    done = []
    for item in share:
        try:
            done.append(fn(item))
        except Exception as exc:
            return done, exc
    return done, None


def _serve(fn: Callable[[T], R], share: Sequence[T], write_end: int) -> NoReturn:
    """In a forked child: run ``share``, pickle the outcome and the formatted
    traceback of any exception into the pipe, and exit without returning."""
    status = 1
    try:
        done, exc = _run_share(fn, share)
        tb = None
        if exc is not None:
            tb = "".join(traceback.format_exception(exc))
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception that cannot cross the pipe
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        with open(write_end, "wb") as pipe:
            pickle.dump((done, exc, tb), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
