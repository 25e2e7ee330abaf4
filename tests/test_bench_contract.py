"""The benchmark's name contract with the program.

``perfbench/tracer.py`` wraps homgraph's public functions by name, and
``perfbench/run.py --trace 1`` drops every per-layer metric whose wrapped
name is gone (the tracer returns it as None). A rename in ``src/`` can
therefore remove a metric that ``BENCHMARK.json`` declares. This runs a
tiny version of every workload's commands, and of every other
subcommand, under the tracer and checks that each declared metric is
produced.
"""

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

import homgraph
from homgraph.cli import main
from homgraph.generate import SyntheticSpec, generate_corpus
from homgraph.model import serialize_graph

from oracles import with_sparse_ids

ROOT = Path(__file__).resolve().parent.parent
# Measured by run.py itself, on traced corpus runs only, through this entry point.
LABEL_PROPAGATION = "community.label_propagation_s"


def perfbench(name):
    """The perfbench module ``name``, imported as ``perfbench/run.py`` sees it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


@pytest.fixture
def installed_tracer():
    tracer = perfbench("tracer").Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


@pytest.fixture
def workloads():
    return perfbench("workloads")


def gen_argv(corpus):
    return ["gen", "--benign", "3", "--covert", "3", "--seed", "2", "--out", corpus]


def test_modularity_check_passes_on_sparse_ids(workloads, tmp_path):
    # The benchmark checks each sampled partition report against networkx,
    # which names nodes by the graph file's ids; those ids here are sparse,
    # one at least 2**63, so no position passes for an id.
    pytest.importorskip("networkx")
    (graph, _), = generate_corpus(SyntheticSpec(seed=4), 0, 1, homgraph.load_catalog())
    graph, _ = with_sparse_ids(graph, 4)
    path = tmp_path / "sparse.json"
    path.write_text(serialize_graph(graph), encoding="utf-8")
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("android.telephony\nandroid.location\n", encoding="utf-8")
    for catalog_path in (None, catalog):
        out = tmp_path / "partition.json"
        flags = ["--catalog", str(catalog_path)] if catalog_path else []
        assert main(["partition", str(path), *flags, "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        ok, detail = workloads.modularity_agrees(path, report, catalog_path)
        assert ok, detail


def test_every_per_layer_metric_is_produced(installed_tracer, tmp_path):
    corpus = tmp_path / "corpus"
    covert = corpus / "malware-0000.json"
    commands = [
        gen_argv(corpus),
        ["analyze", corpus, "--out", tmp_path / "analysis"],
        ["eval", corpus, "--folds", "3", "--sweep", "1,3", "--out", tmp_path / "eval.json"],
        ["partition", covert, "--out", tmp_path / "partition.json"],
        ["covertness", covert, "--out", tmp_path / "covertness.json"],
    ]
    for argv in commands:
        installed_tracer.begin_command()
        assert main([str(a) for a in argv]) == 0, argv[0]
    metrics = installed_tracer.metrics()
    assert sorted(k for k, v in metrics.items() if v is None) == []
    # run.py prints the metrics as its last line, which must stay strict JSON.
    assert sorted(k for k, v in metrics.items()
                  if type(v) not in (int, float) or not math.isfinite(v)) == []
    json.dumps(metrics, allow_nan=False)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        m["name"] for m in spec["per_layer"]
        if not m["name"].startswith("traced.") and m["name"] != LABEL_PROPAGATION
    }
    assert sorted(declared - metrics.keys()) == []
    # Flagging and the census each have one entry point, so the metrics
    # that time them see real work; the detect hook reads Louvain's q_trace
    # and community count, so those must be real too.
    for name in ("features.census_s", "features.triads_classified", "model.apply_catalog_s",
                 "community.levels", "community.count"):
        assert metrics[name] > 0, name


def test_label_propagation_entry_point(tmp_path):
    # No command runs label propagation, so only this keeps the declared
    # metric from reading nothing.
    corpus = tmp_path / "corpus"
    assert main([str(a) for a in gen_argv(corpus)]) == 0
    seconds = perfbench("run").label_propagation_s(corpus)
    assert type(seconds) is float and math.isfinite(seconds) and seconds > 0
