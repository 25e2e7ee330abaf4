"""Benchmark inputs: graph files the program reads, and their fingerprints.

The triage and scattered workloads read graph files that this module
writes with its own fixed compact JSON encoder, so a change to the
program's serializer cannot change what those workloads parse. The corpus
workload's graphs are written by the program's own ``gen`` command; only
their fingerprint is computed here.

A fingerprint is a SHA-256 over the parsed graph structure (app ids,
labels, node ids and names, edges), not over file bytes, so re-encoding a
graph keeps its fingerprint while a generator change does not.

Run as a script to write one workload's inputs (the benchmark does this in
two child processes, one per shard, so generation never inflates the
measured process)::

    python3 perfbench/inputs.py write --workload triage --seed 1 --out DIR

or to record the fingerprints that runs are checked against::

    python3 perfbench/inputs.py record --seeds 0-20
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

# A seed no tuning run used; later changes confirm a claimed gain on it.
HELD_OUT_SEED = 90001

CORPUS_BENIGN = 100
CORPUS_COVERT = 100
TRIAGE_GRAPHS = 100
SCATTERED_BENIGN = 8
SCATTERED_COVERT = 8
SCATTERED_RENAMED = 300
CATALOG_SIZE = 426

# Acceptance criterion 10's graph shape: 5,612 nodes, about 12.3k edges.
CRITERION_10 = dict(
    node_count=5612,
    community_count=224,
    intra_edge_prob=0.18,
    inter_edge_prob=0.0001,
    planted_sensitive_community_size=12,
)


def catalog_entries() -> list[str]:
    """The scattered workload's production-sized catalog."""
    return [f"api.pkg.C{i}.m{i}" for i in range(CATALOG_SIZE)]


def _derive(seed: int, *parts: object) -> int:
    material = ":".join(map(str, (seed, *parts))).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _doc(graph, app_id: str, names: dict[int, str] | None = None) -> dict:
    names = names or {}
    return {
        "app_id": app_id,
        "label": graph.ground_truth,
        "nodes": [
            {"id": n.id, "name": names.get(n.id, n.name), "sensitive": n.sensitive or n.id in names}
            for n in graph.nodes
        ],
        "edges": [[u, v] for u, v in graph.edges],
    }


def _encode(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _one_graph(spec, label_index: int, catalog):
    from homgraph import generate_corpus

    benign, covert = (1, 0) if label_index == 0 else (0, 1)
    graph, truth = generate_corpus(spec, benign, covert, catalog)[0]
    return graph, truth


def triage_docs(seed: int, shard: int = 0, shards: int = 1):
    """One criterion-10-shape graph per distinct generator seed, alternating labels."""
    from homgraph import SyntheticSpec

    base = SyntheticSpec(**CRITERION_10)
    for i in range(shard, TRIAGE_GRAPHS, shards):
        spec = replace(base, seed=_derive(seed, "triage", i))
        graph, _ = _one_graph(spec, i % 2, None)
        yield _doc(graph, f"triage-{i:03d}")


def scattered_docs(seed: int, shard: int = 0, shards: int = 1):
    """Criterion-10-shape graphs with catalog APIs spread over many communities.

    Each graph keeps its planted community and has ``SCATTERED_RENAMED``
    further nodes, drawn uniformly from the benign part, renamed to distinct
    catalog entries. That gives about 160 sensitive communities per graph.
    """
    from homgraph import SensitiveApiCatalog, SyntheticSpec

    entries = catalog_entries()
    catalog = SensitiveApiCatalog(entries=tuple(entries))
    base = SyntheticSpec(**CRITERION_10)
    labels = [0] * SCATTERED_BENIGN + [1] * SCATTERED_COVERT
    for i in range(shard, len(labels), shards):
        label_index = labels[i]
        spec = replace(base, seed=_derive(seed, "scattered", i))
        graph, truth = _one_graph(spec, label_index, catalog)
        rng = random.Random(_derive(seed, "rename", i))
        benign_nodes = [n.id for n in graph.nodes if n.id not in truth.planted_nodes]
        chosen = rng.sample(benign_nodes, SCATTERED_RENAMED)
        apis = rng.sample(range(CATALOG_SIZE), SCATTERED_RENAMED)
        names = {nid: f"{entries[api]}()" for nid, api in zip(chosen, apis)}
        yield _doc(graph, f"scattered-{i:02d}", names)


def write_inputs(workload: str, seed: int, out: Path,
                 shard: int = 0, shards: int = 1) -> Fingerprint:
    """Write one shard of a workload's graph files (and the catalog) into ``out``."""
    docs = {"triage": triage_docs, "scattered": scattered_docs}[workload](seed, shard, shards)
    out.mkdir(parents=True, exist_ok=True)
    fp = Fingerprint()
    for doc in docs:
        (out / f"{doc['app_id']}.json").write_text(_encode(doc), encoding="utf-8")
        fp.add(doc)
    if workload == "scattered" and shard == 0:
        catalog = "\n".join(catalog_entries()) + "\n"
        (out.parent / "catalog.txt").write_text(catalog, encoding="utf-8")
    return fp


class Fingerprint:
    """Order-independent SHA-256 over the structure of a set of graph documents."""

    def __init__(self, items: dict[str, str] | None = None) -> None:
        self.items: dict[str, str] = dict(items or {})  # app_id -> per-graph digest

    def add(self, doc: dict) -> None:
        nodes = sorted((n["id"], n["name"]) for n in doc["nodes"])
        edges = sorted((u, v) for u, v in doc.get("edges", []))
        canonical = json.dumps([doc["app_id"], doc.get("label"), nodes, edges],
                               separators=(",", ":"))
        self.items[doc["app_id"]] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def hexdigest(self) -> str:
        h = hashlib.sha256()
        for app_id in sorted(self.items):
            h.update(f"{app_id}:{self.items[app_id]}\n".encode("utf-8"))
        return h.hexdigest()


def fingerprint_files(paths) -> str:
    fp = Fingerprint()
    for path in paths:
        fp.add(json.loads(Path(path).read_text(encoding="utf-8")))
    return fp.hexdigest()


def corpus_gen_argv(seed: int, out: Path) -> list[str]:
    return ["gen", "--benign", str(CORPUS_BENIGN), "--covert", str(CORPUS_COVERT),
            "--seed", str(seed), "--out", str(out)]


def corpus_fingerprint(corpus_dir: Path) -> str:
    """Fingerprint of the graphs listed in a ``gen`` manifest."""
    manifest = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
    return fingerprint_files(corpus_dir / g["file"] for g in manifest["graphs"])


def recorded(workload: str, seed: int) -> str | None:
    if not FINGERPRINTS.exists():
        return None
    table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    return table.get("workloads", {}).get(workload, {}).get(str(seed))


def _seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _record(seeds: list[int], scratch: Path) -> None:
    from homgraph.cli import main

    table = {"workloads": {}}
    if FINGERPRINTS.exists():
        table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    for seed in [*seeds, HELD_OUT_SEED]:
        for workload in ("corpus", "triage", "scattered"):
            shutil.rmtree(scratch, ignore_errors=True)
            if workload == "corpus":
                if main(corpus_gen_argv(seed, scratch)) != 0:
                    raise SystemExit(f"gen failed for seed {seed}")
                digest = corpus_fingerprint(scratch)
            else:
                digest = write_inputs(workload, seed, scratch / "graphs").hexdigest()
            table["workloads"].setdefault(workload, {})[str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}", file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    for workload, by_seed in table["workloads"].items():
        table["workloads"][workload] = dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
    table["held_out_seed"] = HELD_OUT_SEED
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    w = sub.add_parser("write", help="write one shard of a workload's inputs and print "
                                     "one 'app_id digest' line per graph")
    w.add_argument("--workload", choices=("triage", "scattered"), required=True)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--out", type=Path, required=True)
    w.add_argument("--shard", type=int, default=0)
    w.add_argument("--shards", type=int, default=1)
    r = sub.add_parser("record", help="record fingerprints for a seed list, e.g. 0-20")
    r.add_argument("--seeds", type=_seed_list, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.action == "write":
        fp = write_inputs(args.workload, args.seed, args.out, args.shard, args.shards)
        for app_id, digest in sorted(fp.items.items()):
            print(app_id, digest)
    else:
        _record(args.seeds, ROOT / ".perfbench_out" / "fingerprint-scratch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
