"""homgraph benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The run imports ``homgraph`` from ``src/`` with no install, writes its
inputs and outputs under ``.perfbench_out/`` and removes them at the end,
keeping only a result record (and, when traced, the span log) in
``.perfbench_out/results/``. Human-readable lines go first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace
1`` wraps every layer module's public functions (see ``tracer.py``) and
reports the per-layer metrics, plus the end-to-end figures measured under
tracing as ``traced.*``; when an untraced record of the same workload and
seed exists, it also prints the tracing overhead (traced minus untraced).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import speed
import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SPAWNS = 5

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "analyze_graphs_per_s": "1/s",
         "graph_p50_s": "s", "graph_p90_s": "s", "gen_s": "s", "eval_sweep_s": "s",
         "triage_p50_s": "s", "triage_p90_s": "s", "error_rate": "ratio"}


def measure_setup(outcome: workloads.Outcome, catalog: Path | None) -> None:
    """Fresh processes that import the CLI and load the workload's catalog.

    Called before and after the commands, so the median spans the run
    rather than one moment of a host whose speed drifts.
    """
    path = str(catalog) if catalog else None
    code = f"import homgraph.cli, homgraph; homgraph.load_catalog({path!r})"
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        end = time.perf_counter()
        outcome.timings.append(workloads.Timing("setup", -1, 0, end - start, start, end))


def label_propagation_s(corpus_dir: Path) -> float | None:
    """Total label-propagation time on the corpus graphs (ROADMAP item 3)."""
    import homgraph

    detect = getattr(homgraph, "detect_label_propagation", None)
    if detect is None:
        return None
    total = 0.0
    for path in sorted(corpus_dir.glob("*.json")):
        if path.name == "manifest.json":
            continue
        graph = homgraph.load_graph(path)
        start = time.perf_counter()
        detect(graph, 0)
        total += time.perf_counter() - start
    return total


def provenance(args, figures: workloads.Figures, probe: SpeedProbe) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    from homgraph import pipeline

    workers = os.environ.get("HOMGRAPH_WORKERS")
    default = getattr(pipeline, "worker_count", None)
    if workers is None:
        workers = f"unset; program default {default() if default else 'unknown'}"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "homgraph").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            source.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": inputs.HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "homgraph_workers": workers, "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "speed_probe": {"samples": len(probe.samples), "median_chunk_s": probe.median_chunk_s(),
                        "nominal_chunk_s": speed.NOMINAL_S},
        "samples": {"graphs": len(figures.graph_samples),
                    **{f"{k}_runs": len(v) for k, v in figures.command_s.items()}},
    }


def named_metrics(workload: str, outcome: workloads.Outcome, figures: workloads.Figures,
                  peak_mb: float) -> dict[str, tuple[float, int]]:
    """The user-facing figures of this workload by name: name -> (value, samples)."""
    out: dict[str, tuple[float, int]] = {}
    for kind, name in (("setup", "setup_s"), ("gen", "gen_s"), ("eval", "eval_sweep_s")):
        values = figures.command_s.get(kind)
        if values:
            out[name] = (statistics.median(values), len(values))
    samples = figures.graph_samples
    if workload == "triage":
        out["triage_p50_s"] = (workloads.percentile(samples, 50), len(samples))
        out["triage_p90_s"] = (workloads.percentile(samples, 90), len(samples))
    else:
        rates = figures.analyze_rates
        out["analyze_graphs_per_s"] = (statistics.median(rates), len(rates))
    out["peak_rss_mb"] = (peak_mb, 1)
    out["error_rate"] = (outcome.failed / outcome.attempted if outcome.attempted else 1.0,
                         outcome.attempted)
    return out


def end_to_end(figures: workloads.Figures, peak_mb: float) -> dict[str, float]:
    values = {
        "peak_rss_mb": peak_mb,
        "analyze_graphs_per_s": statistics.median(figures.analyze_rates),
        "graph_p50_s": workloads.percentile(figures.graph_samples, 50),
        "graph_p90_s": workloads.percentile(figures.graph_samples, 90),
    }
    if figures.command_s.get("setup"):
        values["setup_s"] = statistics.median(figures.command_s["setup"])
    return values



def file_hashes(paths) -> dict[str, str]:
    hashes = {}
    for path in paths:
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            digest = None
        hashes[str(path.relative_to(OUT))] = digest
    return hashes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="homgraph benchmark run")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "homgraph" / "cli.py").is_file():
        print(f"perfbench: no homgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}"
    try:
        outcome = workloads.Outcome()
        workload = workloads.WORKLOADS[args.workload](work, args.seed, args.seconds)
        workload.prepare(outcome)
        import homgraph.cli  # noqa: F401  the import belongs to set-up, not to a command

        probe = SpeedProbe()
        probe.start()
        if not args.trace:
            measure_setup(outcome, workload.catalog_path)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            workload.measure(outcome, tracer.begin_command if tracer else lambda: None)
        finally:
            probe.stop()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            measure_setup(outcome, workload.catalog_path)
        layer: dict[str, float | None] = {}
        if tracer:
            tracer.uninstall()
            layer = tracer.metrics()
            layer["community.label_propagation_s"] = (
                label_propagation_s(workload.units[0]["corpus"])
                if args.workload == "corpus" else 0.0)
            span_count = tracer.write_spans(Path(f"{stem}-spans.jsonl"))

        workload.verify(outcome)
        expected = inputs.recorded(args.workload, args.seed)
        if expected is not None:
            if not outcome.check("inputs: fingerprint matches the recorded one",
                                 outcome.fingerprint == expected,
                                 f"{outcome.fingerprint} vs {expected}"):
                outcome.failed = outcome.attempted
        hashes = file_hashes(outcome.outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    figures = outcome.figures(probe.factor)
    raw = outcome.figures(lambda start, end: 1.0)
    named = named_metrics(args.workload, outcome, figures, peak_mb)
    e2e = end_to_end(figures, peak_mb)
    record = {
        "provenance": provenance(args, figures, probe),
        "fingerprint": outcome.fingerprint,
        "fingerprint_recorded": expected,
        "named_metrics": {k: {"value": v, "unit": UNITS[k], "samples": n}
                          for k, (v, n) in named.items()},
        "end_to_end": e2e,
        "raw_named_metrics": {k: v for k, (v, _) in
                              named_metrics(args.workload, outcome, raw, peak_mb).items()},
        "raw_end_to_end": end_to_end(raw, peak_mb),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in outcome.checks],
        "output_sha256": hashes,
    }

    print(f"workload {args.workload}, seed {args.seed} (held-out seed {inputs.HELD_OUT_SEED}), "
          f"trace {args.trace}")
    for key in ("nproc", "cpu", "python", "numpy", "homgraph_workers", "git_commit",
                "source_sha256", "speed_probe", "samples"):
        print(f"  {key}: {record['provenance'][key]}")
    print(f"  input fingerprint: {outcome.fingerprint}"
          + ("" if expected is not None else " (no recorded fingerprint for this seed)"))
    for name, ok, detail in outcome.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    combined = hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()
    print(f"  outputs: {len(hashes)} files, combined sha256 {combined}")
    label = "traced " if args.trace else ""
    for name, (value, n) in named.items():
        unscaled = record["raw_named_metrics"][name]
        print(f"  {label}{name} = {value:.6g} {UNITS[name]} (samples {n}; "
              f"{unscaled:.6g} before speed normalization)")

    if args.trace:
        layer.update({f"traced.{k}": v for k, v in e2e.items()})
        for name in ("gen_s", "eval_sweep_s"):  # 0 where the workload has no such command
            layer[f"traced.{name}"] = named.get(name, (0.0, 0))[0]
        untraced = workloads.load_json(Path(f"{stem}-trace0.json"))
        if untraced:
            base = {k: v["value"] for k, v in untraced["named_metrics"].items()}
            overhead = {k: named[k][0] - base[k] for k in named
                        if k in base and k not in ("setup_s", "error_rate")}
            record["tracing_overhead"] = overhead
            for k, v in overhead.items():
                print(f"  tracing overhead {k}: {v:+.6g} {UNITS[k]} (traced minus untraced)")
        for name, value in sorted(layer.items()):
            if value is None:
                print(f"  layer metric {name}: absent (wrapped name not found)")
        print(f"  spans: {span_count} written to {stem.relative_to(ROOT)}-spans.jsonl")
        metrics = {k: v for k, v in layer.items() if v is not None}
        record["per_layer"] = layer
    else:
        metrics = e2e
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in _benchmark_metrics()}
    result = {
        "correct": outcome.failed == 0 and all(ok for _, ok, _ in outcome.checks),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _benchmark_metrics() -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [*spec["end_to_end"], *spec["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
