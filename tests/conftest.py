from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from homgraph.model import SensitiveApiCatalog
from oracles import normalize


def make_graph(n, edges, sensitive=(), names=None, app_id="test", label=None):
    """Small-graph builder: nodes 0..n-1, explicit directed edges."""
    sens = set(sensitive)
    nodes = [
        {"id": i, "name": names[i] if names else f"com.test.Cls{i}.fn{i}", "sensitive": i in sens}
        for i in range(n)
    ]
    return normalize({"app_id": app_id, "label": label, "nodes": nodes, "edges": list(edges)})


class ProcessLog:
    """A list that this process and its forked workers append to alike: each
    value is a JSON line appended to ``path``, so the values a worker
    records are not lost with its copy of memory when it exits."""

    def __init__(self, path: Path):
        self.path = path
        path.touch()

    def append(self, value) -> None:
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(value) + "\n")

    def values(self) -> list:
        return [json.loads(line) for line in self.path.read_text(encoding="utf-8").splitlines()]


def random_digraph(rng: random.Random, n, edge_prob=0.15, sensitive_count=0):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < edge_prob
    ]
    sensitive = rng.sample(range(n), sensitive_count) if sensitive_count else ()
    return make_graph(n, edges, sensitive=sensitive)


def barbell():
    """Two 4-cliques joined by one bridge edge (0, 4)."""
    edges = []
    for base in (0, 4):
        for a in range(4):
            for b in range(a + 1, 4):
                edges.append((base + a, base + b))
    edges.append((0, 4))
    return make_graph(8, edges, app_id="barbell")


def triangle_ring(cliques=8):
    """Ring of triangles: triangle t joined to t+1 by one edge."""
    edges = []
    total = 3 * cliques
    for t in range(cliques):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        edges += [(a, b), (b, c), (a, c), (c, (3 * (t + 1)) % total)]
    return make_graph(total, edges, app_id=f"ring{cliques}")


@pytest.fixture
def desk_catalog():
    from homgraph.model import load_catalog

    return load_catalog()


@pytest.fixture
def tiny_catalog():
    return SensitiveApiCatalog(entries=("api5", "api6"))
