"""The benchmark's three workloads: inputs, the measured command loop, checks.

Every workload drives the public CLI entry point ``homgraph.cli.main``
in this process, in a closed loop: the next command starts only after the
previous one returns. A unit of work repeats while the next unit is
expected to end within the run's ``--seconds``; at least one unit always
runs.

Why these workloads:

* ``corpus``: the gen -> analyze -> eval chain at half the acceptance
  count (100 + 100 graphs of 812 nodes). The only workload that reaches
  ``generate``, ``serialize_graph``, the ``pipeline`` worker pool,
  ``classify`` and the threshold sweep. Each graph has one sensitive
  community, so partition and featurize are cheap.
* ``triage``: one analyst request per large graph, ``partition FILE`` then
  ``covertness FILE``, on 100 distinct criterion-10-shape graphs (5,612
  nodes). The single-graph latency path: parse and Louvain dominate; the
  pool, ``classify`` and the serializer are bypassed.
* ``scattered``: ``analyze DIR --catalog FILE`` on 16 criterion-10-shape
  graphs with 300 nodes each renamed to entries of a 426-entry catalog,
  spread over about 160 communities. The only workload with many sensitive
  communities per graph, a suspicious subgraph of about 4k nodes,
  426-entry name matching and 2,982-dimensional features.

One operation is one graph that a command should emit a row or report for.
It fails on a non-zero exit, a missing row or report, or a failed check.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

SWEEP = "1,2,3,4,5"
INPUT_SHARDS = 2
MODULARITY_SAMPLES = 3
# Acceptance criterion 6 asks for macro FNR and FPR <= 0.05 on the 200+200
# corpus at seed 0. On 100+100 graphs and an arbitrary seed the 1-NN error
# rate per class is about 0.00-0.06 (one graph is 0.01), so that target is
# reported, not gated. The gate sits where a working classifier fails with
# odds under 1e-3 even at a 0.06 true rate, and a broken one (0.5) cannot pass.
TARGET_RATE = 0.05
MAX_RATE = 0.15
MIN_JACCARD = 0.9
DESK_FEATURES = 70
SCATTERED_FEATURES = 7 * inputs.CATALOG_SIZE


@dataclass(frozen=True)
class Timing:
    """One timed command, or one triage sample of two commands."""

    kind: str  # "gen", "analyze", "eval", "sample" or "setup"
    unit: int
    graphs: int
    seconds: float
    start: float
    end: float


@dataclass
class Figures:
    """Timings turned into the reported figures, all under one scaling."""

    graph_samples: list[float]  # seconds per graph, one entry per graph handled
    analyze_rates: list[float]  # graphs per second of the analysing command(s)
    command_s: dict[str, list[float]]  # seconds per command kind


@dataclass
class Outcome:
    """What one run measured and checked."""

    timings: list[Timing] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    outputs: list[Path] = field(default_factory=list)
    fingerprint: str | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def operations(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)

    def figures(self, scale) -> Figures:
        """Figures with each command timing multiplied by ``scale(start, end)``.

        Set-up spawns stay unscaled: a speed probe in this process samples
        the waiting parent, not the fresh process being timed. A unit's
        per-graph time is its commands' total over its graph count, since a
        batch command cannot show per-graph spread without tracing.
        """
        command_s: dict[str, list[float]] = {}
        units: dict[int, list[tuple[Timing, float]]] = {}
        for t in self.timings:
            seconds = t.seconds * (1.0 if t.kind == "setup" else scale(t.start, t.end))
            command_s.setdefault(t.kind, []).append(seconds)
            if t.kind != "setup":
                units.setdefault(t.unit, []).append((t, seconds))
        graph_samples: list[float] = []
        for parts in units.values():
            graphs = max(t.graphs for t, _ in parts)
            graph_samples += [sum(s for _, s in parts) / graphs] * graphs
        analyses = [(t, s) for parts in units.values() for t, s in parts if t.kind == "analyze"]
        if analyses:
            rates = [t.graphs / s for t, s in analyses]
        else:
            rates = [len(graph_samples) / sum(graph_samples)]
        return Figures(graph_samples, rates, command_s)


def run_cli(outcome: Outcome, kind: str, unit: int, graphs: int, argv: list) -> int:
    """One CLI command, timed from call to return; returns its exit code."""
    from homgraph.cli import main

    gc.collect()
    start = time.perf_counter()
    code = main([str(a) for a in argv])
    end = time.perf_counter()
    outcome.timings.append(Timing(kind, unit, graphs, end - start, start, end))
    return code


def load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _feature_rows(path: Path, width: int) -> dict[str, bool]:
    """app_id -> whether its row has ``width`` finite features."""
    rows: dict[str, bool] = {}
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for row in reader:
                values = row[2:]
                ok = len(values) == width
                try:
                    ok = ok and all(math.isfinite(float(v)) for v in values)
                except ValueError:
                    ok = False
                rows[row[0]] = ok
    except OSError:
        pass
    return rows


def modularity_agrees(graph_path: Path, report: dict,
                      catalog_path: Path | None) -> tuple[bool, str]:
    """Reported Q equals networkx's modularity of the same partition, within 1e-9.

    Partition reports list only sensitive communities, so the partition is
    recomputed through the public ``homgraph.detect_multilevel`` with the
    CLI's default seed 0; its Q and community count must equal the report's.
    """
    import homgraph
    import networkx as nx

    catalog = homgraph.load_catalog(catalog_path) if catalog_path else None
    graph = homgraph.load_graph(graph_path, catalog)
    partition = homgraph.detect_multilevel(graph, 0)
    doc = json.loads(graph_path.read_text(encoding="utf-8"))
    g = nx.Graph()
    g.add_nodes_from(n["id"] for n in doc["nodes"])
    g.add_edges_from((u, v) for u, v in doc["edges"] if u != v)
    q_nx = nx.algorithms.community.modularity(g, partition.communities())
    q = report.get("modularity_q")
    ok = (
        isinstance(q, float)
        and abs(q_nx - q) <= 1e-9
        and partition.modularity_q == q
        and partition.community_count == report.get("community_count")
    )
    return ok, f"{graph_path.stem}: report {q!r}, networkx {q_nx!r}"


def _sample_modularity(outcome: Outcome, name: str, pairs, seed: int,
                       catalog_path: Path | None) -> int:
    """Check a seeded sample of (graph file, report) pairs; return failures."""
    rng = random.Random(seed)
    chosen = rng.sample(pairs, min(MODULARITY_SAMPLES, len(pairs)))
    bad = 0
    for path, report in chosen:
        ok, detail = modularity_agrees(path, report, catalog_path)
        bad += not outcome.check(name, ok, detail)
    return bad


def _features_report(u: dict, analyzed: bool) -> dict | None:
    """The cross-validation report of ``eval --features`` on a unit's analysis.

    Run after timing. Features are written with ``repr``, so the report
    must equal the one ``eval`` computed from the graphs.
    """
    if not analyzed:
        return None
    from homgraph.cli import main

    out = u["dir"] / "eval-features.json"
    code = main(["eval", "--features", str(u["analysis"] / "features.csv"), "--out", str(out)])
    payload = load_json(out) if code == 0 else None
    return payload.get("report") if payload else None


class Workload:
    name = ""
    catalog_name: str | None = None

    def __init__(self, work: Path, seed: int, seconds: float) -> None:
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.inputs = work / "inputs"

    @property
    def catalog_path(self) -> Path | None:
        return self.work / self.catalog_name if self.catalog_name else None

    def prepare(self, outcome: Outcome) -> None:
        """Write the inputs in child processes and take their fingerprint."""
        procs = [
            subprocess.Popen(
                [sys.executable, str(Path(inputs.__file__)), "write", "--workload", self.name,
                 "--seed", str(self.seed), "--out", str(self.inputs),
                 "--shard", str(shard), "--shards", str(INPUT_SHARDS)],
                stdout=subprocess.PIPE, text=True,
            )
            for shard in range(INPUT_SHARDS)
        ]
        outs = [proc.communicate()[0] for proc in procs]
        if any(proc.returncode != 0 for proc in procs):
            raise RuntimeError(f"input writers exited {[p.returncode for p in procs]}")
        digests = dict(line.split() for out in outs for line in out.splitlines())
        outcome.fingerprint = inputs.Fingerprint(digests).hexdigest()

    def measure(self, outcome: Outcome, on_command) -> None:
        start = time.perf_counter()
        last = 0.0
        unit = 0
        while unit == 0 or (time.perf_counter() - start) + last <= self.seconds:
            t0 = time.perf_counter()
            self.unit(outcome, unit, on_command)
            last = time.perf_counter() - t0
            unit += 1

    def unit(self, outcome: Outcome, index: int, on_command) -> None:
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> None:
        raise NotImplementedError


class Corpus(Workload):
    name = "corpus"
    graphs = inputs.CORPUS_BENIGN + inputs.CORPUS_COVERT

    def prepare(self, outcome: Outcome) -> None:
        self.units: list[dict] = []

    def unit(self, outcome, index, on_command):
        d = self.work / f"unit{index}"
        corpus, analysis, report = d / "corpus", d / "analysis", d / "eval.json"
        commands = {
            "gen": inputs.corpus_gen_argv(self.seed, corpus),
            "analyze": ["analyze", corpus, "--out", analysis],
            "eval": ["eval", corpus, "--sweep", SWEEP, "--out", report],
        }
        codes = {}
        for kind, argv in commands.items():
            on_command()
            codes[kind] = run_cli(outcome, kind, index, self.graphs, argv)
        self.units.append(dict(dir=d, corpus=corpus, analysis=analysis, report=report,
                               codes=codes))

    def verify(self, outcome):
        for i, u in enumerate(self.units):
            self._verify_unit(outcome, u, first=i == 0)

    def _verify_unit(self, outcome, u, first):
        n = self.graphs
        manifest = load_json(u["corpus"] / "manifest.json") if u["codes"]["gen"] == 0 else None
        entries = manifest["graphs"] if manifest else []
        ids = [g["app_id"] for g in entries]
        files = [u["corpus"] / g["file"] for g in entries]
        present = [p for p in files if p.exists()]
        gen_ok = outcome.check("gen: exit 0 and every listed graph written",
                               manifest is not None and len(ids) == n and len(present) == n,
                               f"{len(present)} of {n} graphs")
        outcome.operations(n, n - len(present) if gen_ok else n)
        if first and gen_ok:
            outcome.fingerprint = inputs.corpus_fingerprint(u["corpus"])
        outcome.outputs += [*files, u["corpus"] / "manifest.json"]

        # analyze: one finite 70-feature row and one partition report per graph
        analyzed = u["codes"]["analyze"] == 0
        rows = _feature_rows(u["analysis"] / "features.csv", DESK_FEATURES) if analyzed else {}
        reports = {r.get("app_id"): r for r in load_json(u["analysis"] / "partitions.json") or []}
        complete = {a for a in ids if rows.get(a) and a in reports}
        failed = set(ids) - complete
        outcome.check("analyze: exit 0, finite rows and reports for every graph",
                      len(complete) == n and len(rows) == n, f"{len(complete)} of {n} complete")
        planted = {g["app_id"]: set(g["planted_nodes"]) for g in entries if g["label"] == "malware"}
        jaccards = []
        for app_id, nodes in planted.items():
            suspicious = set(reports.get(app_id, {}).get("suspicious_nodes", []))
            union = nodes | suspicious
            jaccards.append(len(nodes & suspicious) / len(union) if union else 0.0)
        mean_j = sum(jaccards) / len(jaccards) if jaccards else 0.0
        if not outcome.check("analyze: mean Jaccard(suspicious, planted) over covert >= 0.9",
                             mean_j >= MIN_JACCARD, f"{mean_j:.4f}"):
            failed |= set(planted)
        pairs = [(f, reports[a]) for f, a in zip(files, ids) if a in reports]
        if _sample_modularity(outcome, "analyze: modularity_q equals networkx", pairs,
                              self.seed, None):
            failed |= set(ids)
        outcome.operations(n, n - len(complete - failed))
        outcome.outputs += [u["analysis"] / "features.csv", u["analysis"] / "partitions.json"]

        # eval: every graph is a sample at every threshold, and detection holds
        payload = load_json(u["report"]) if u["codes"]["eval"] == 0 else None
        if payload is None:
            outcome.check("eval: exit 0", False)
            outcome.operations(n, n)
            return
        counts = [payload.get("samples", 0)]
        counts += [row.get("samples", 0) for row in payload.get("sweep", [])]
        missing = max(n - c for c in counts)
        outcome.check("eval: every graph a sample in the report and each of 5 sweep rows",
                      missing == 0 and len(counts) == 6, f"samples {counts}")
        macro = payload.get("report", {}).get("macro", {})
        fnr, fpr = macro.get("FNR", 1.0), macro.get("FPR", 1.0)
        target = "within" if max(fnr, fpr) <= TARGET_RATE else "outside"
        rates_ok = outcome.check(f"eval: macro FNR and FPR <= {MAX_RATE}",
                                 fnr <= MAX_RATE and fpr <= MAX_RATE,
                                 f"FNR {fnr:.4f}, FPR {fpr:.4f} ({target} the "
                                 f"{TARGET_RATE} acceptance target)")
        agrees = outcome.check("eval: report equals eval --features on analyze's features.csv",
                               payload.get("report") == _features_report(u, analyzed),
                               "cross-validation of the analyze output")
        ok = rates_ok and agrees and len(counts) == 6
        outcome.operations(n, missing if ok else n)
        outcome.outputs.append(u["report"])


class Triage(Workload):
    name = "triage"

    def prepare(self, outcome):
        super().prepare(outcome)
        self.files = sorted(self.inputs.glob("*.json"))
        self.results: list[tuple[Path, int, int, Path, Path]] = []

    def measure(self, outcome, on_command):
        start = time.perf_counter()
        out = self.work / "out"
        i = 0
        while i < len(self.files) or time.perf_counter() - start < self.seconds:
            path = self.files[i % len(self.files)]
            p_out = out / f"{i:04d}-{path.stem}.partition.json"
            c_out = out / f"{i:04d}-{path.stem}.covertness.json"
            on_command()
            p_code = run_cli(outcome, "sample", i, 1, ["partition", path, "--out", p_out])
            on_command()
            c_code = run_cli(outcome, "sample", i, 1, ["covertness", path, "--out", c_out])
            self.results.append((path, p_code, c_code, p_out, c_out))
            i += 1

    def verify(self, outcome):
        pairs, bad = [], 0
        for path, p_code, c_code, p_out, c_out in self.results:
            stem = path.stem
            part = load_json(p_out) if p_code == 0 else None
            cov = load_json(c_out) if c_code == 0 else None
            p_ok = isinstance(part, dict) and part.get("app_id") == stem
            c_ok = isinstance(cov, dict) and cov.get("app_id") == stem
            outcome.operations(2, (not p_ok) + (not c_ok))
            bad += (not p_ok) + (not c_ok)
            if p_ok:
                pairs.append((path, part))
            outcome.outputs += [p_out, c_out]
        outcome.check("partition and covertness: exit 0 with a report for every sample",
                      bad == 0, f"{bad} failed of {2 * len(self.results)}")
        outcome.failed += _sample_modularity(outcome, "partition: modularity_q equals networkx",
                                             pairs, self.seed, None)


class Scattered(Workload):
    name = "scattered"
    catalog_name = "catalog.txt"
    graphs = inputs.SCATTERED_BENIGN + inputs.SCATTERED_COVERT

    def prepare(self, outcome):
        super().prepare(outcome)
        self.files = sorted(self.inputs.glob("*.json"))
        self.units: list[tuple[int, Path]] = []

    def unit(self, outcome, index, on_command):
        out = self.work / f"analysis{index}"
        on_command()
        code = run_cli(outcome, "analyze", index, self.graphs,
                       ["analyze", self.inputs, "--catalog", self.catalog_path, "--out", out])
        self.units.append((code, out))

    def verify(self, outcome):
        ids = [p.stem for p in self.files]
        for code, out in self.units:
            rows = _feature_rows(out / "features.csv", SCATTERED_FEATURES) if code == 0 else {}
            reports = {r.get("app_id"): r for r in load_json(out / "partitions.json") or []}
            failed = {a for a in ids if not rows.get(a) or a not in reports}
            outcome.check("analyze: 16 rows of 2,982 finite features and 16 reports",
                          not failed and len(rows) == len(ids) == self.graphs,
                          f"{len(ids) - len(failed)} of {self.graphs} complete")
            pairs = [(p, reports[p.stem]) for p in self.files if p.stem in reports]
            if _sample_modularity(outcome, "analyze: modularity_q equals networkx", pairs,
                                  self.seed, self.catalog_path):
                failed = set(ids)
            outcome.operations(self.graphs, len(failed))
            outcome.outputs += [out / "features.csv", out / "partitions.json"]


WORKLOADS = {w.name: w for w in (Corpus, Triage, Scattered)}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles`` inclusive interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
