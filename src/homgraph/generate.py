"""Synthetic benign/covert call-graph corpus with planted ground truth.

Each graph is a set of benign communities (random intra/inter wiring) plus
one planted sensitive community holding the sensitive-API nodes. The number
of cross edges between the planted community and the rest is solved from
the requested coupling target, so covert graphs land in the low-coupling
band (default target 2, inside (1, 3]) and benign graphs land clearly above
the detection threshold (default target 4). Everything is a pure function
of the spec seed; per-graph seeds derive from it by hashing.

``corpus_members`` checks the spec for every requested label before any
graph is made, so ``gen`` writes nothing for a spec that either label
cannot meet; ``iter_corpus`` then generates one graph at a time.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .homophily import coupling_from_counts
from .model import (
    BENIGN,
    MALWARE,
    CallGraph,
    InputError,
    SensitiveApiCatalog,
    load_catalog,
)


class InfeasibleSpecError(InputError):
    """The synthetic spec cannot be realized."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one generation regime.

    ``planted_coupling_target`` is the coupling the planted community aims
    at in covert graphs; ``benign_coupling_target`` plays the same role in
    benign graphs, where the sensitive community must sit well above the
    detection threshold. In benign graphs each planted API additionally
    receives ``benign_api_caller_count`` direct benign callers, the way app
    code invokes utility APIs; covert payloads keep their APIs internal.
    """

    node_count: int = 812
    community_count: int = 32
    intra_edge_prob: float = 0.30
    inter_edge_prob: float = 0.0008
    planted_sensitive_community_size: int = 12
    planted_coupling_target: float = 2.0
    benign_coupling_target: float = 4.0
    benign_api_caller_count: int = 4
    sensitive_api_count: int = 5
    seed: int = 0


@dataclass(frozen=True)
class PlantedTruth:
    """What the generator planted in one graph."""

    app_id: str
    label: str
    planted_nodes: frozenset[int]
    api_indices: tuple[int, ...]
    planted_coupling: float


def _derive_seed(base: int, *parts: object) -> int:
    material = ":".join([str(base), *map(str, parts)]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _validate_spec(spec: SyntheticSpec, catalog: SensitiveApiCatalog) -> None:
    size = spec.planted_sensitive_community_size
    if size < 3:
        raise InfeasibleSpecError(f"planted community size {size} must be >= 3")
    if size >= spec.node_count:
        raise InfeasibleSpecError(
            f"planted community size {size} must be smaller than "
            f"node_count {spec.node_count}"
        )
    if spec.community_count < 1:
        raise InfeasibleSpecError("community_count must be >= 1")
    if spec.node_count - size < spec.community_count:
        raise InfeasibleSpecError("not enough nodes for the benign communities")
    for name in ("intra_edge_prob", "inter_edge_prob"):
        p = getattr(spec, name)
        if not 0.0 <= p <= 1.0:
            raise InfeasibleSpecError(f"{name}={p} outside [0, 1]")
    if not 1 <= spec.sensitive_api_count <= min(len(catalog), size - 1):
        raise InfeasibleSpecError(
            f"sensitive_api_count {spec.sensitive_api_count} must be in "
            f"[1, min(catalog={len(catalog)}, planted size - 1={size - 1})]; "
            "at least one planted node must stay a non-API gateway"
        )
    for name in ("planted_coupling_target", "benign_coupling_target"):
        target = getattr(spec, name)
        if not (math.isfinite(target) and target > 0):
            raise InfeasibleSpecError(f"{name} must be finite and positive, got {target}")


def corpus_members(
    spec: SyntheticSpec,
    benign_count: int,
    covert_count: int,
    catalog: SensitiveApiCatalog,
) -> list[tuple[str, int]]:
    """Check the spec for every requested label, then list the ``(label,
    index)`` of each graph to generate: benign graphs first."""
    if benign_count < 0 or covert_count < 0:
        raise InfeasibleSpecError("graph counts must be non-negative")
    _validate_spec(spec, catalog)
    counts = ((BENIGN, benign_count), (MALWARE, covert_count))
    for label, count in counts:
        if count:
            _cross_edges(spec, label)
    return [(label, i) for label, count in counts for i in range(count)]


def iter_corpus(
    spec: SyntheticSpec,
    benign_count: int,
    covert_count: int,
    catalog: SensitiveApiCatalog | None = None,
) -> Iterator[tuple[CallGraph, PlantedTruth]]:
    """Validate now, then yield ``benign_count`` benign and ``covert_count``
    covert graphs, each generated only when it is asked for."""
    if catalog is None:
        catalog = load_catalog()
    members = corpus_members(spec, benign_count, covert_count, catalog)
    return (generate_graph(spec, catalog, label, i) for label, i in members)


def generate_corpus(
    spec: SyntheticSpec,
    benign_count: int,
    covert_count: int,
    catalog: SensitiveApiCatalog | None = None,
) -> list[tuple[CallGraph, PlantedTruth]]:
    """Generate ``benign_count`` benign and ``covert_count`` covert graphs."""
    return list(iter_corpus(spec, benign_count, covert_count, catalog))


def _block_sizes(total: int, blocks: int) -> list[int]:
    base, extra = divmod(total, blocks)
    return [base + (1 if b < extra else 0) for b in range(blocks)]


def _sample_block_pairs(
    rng: random.Random, left: list[int], right: list[int] | None, count: int
) -> set[tuple[int, int]]:
    """``count`` distinct unordered pairs, within ``left`` or across the lists."""
    if right is None:
        available = len(left) * (len(left) - 1) // 2
    else:
        available = len(left) * len(right)
    if count > available:
        raise InfeasibleSpecError(f"cannot draw {count} pairs from {available}")
    if count * 2 > available:
        # dense request: enumerate-and-sample instead of rejection sampling
        universe = (
            [(a, b) for i, a in enumerate(left) for b in left[i + 1:]]
            if right is None
            else [(a, b) for a in left for b in right]
        )
        chosen = rng.sample(universe, count)
        return {(u, v) if u < v else (v, u) for u, v in chosen}
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < count:
        u = rng.choice(left)
        v = rng.choice(right) if right is not None else rng.choice(left)
        if u == v:
            continue
        pairs.add((u, v) if u < v else (v, u))
    return pairs


def _cross_edges(spec: SyntheticSpec, label: str) -> tuple[int, float]:
    """Cross-edge count whose measured coupling is nearest ``label``'s
    target, and that coupling. The benign blocks are disjoint and each draws
    exactly ``round(p * available)`` pairs, so both follow from the spec
    alone, and a spec is checked without generating a graph."""
    n_a = spec.planted_sensitive_community_size
    n_b = spec.node_count - n_a
    sizes = _block_sizes(n_b, spec.community_count)
    e_a = n_a * (n_a - 1) // 2
    e_b = sum(round(spec.intra_edge_prob * (n * (n - 1) // 2)) for n in sizes)
    e_b += sum(round(spec.inter_edge_prob * a * b) for a, b in combinations(sizes, 2))
    target = spec.planted_coupling_target if label == MALWARE else spec.benign_coupling_target
    chance = 2.0 * (n_a / (n_a + n_b)) * (n_b / (n_a + n_b))
    r = target * chance
    if r >= 1.0:
        raise InfeasibleSpecError(
            f"coupling target {target} unreachable: needs cross-edge "
            f"fraction {r:.3f} >= 1"
        )
    estimate = max(1, round(r * (e_a + e_b) / (1.0 - r)))
    measured = {s: coupling_from_counts(n_a, n_b, e_a, e_b, s).c
                for s in (estimate - 1, estimate, estimate + 1) if s >= 1}
    cross_count = min(measured, key=lambda s: abs(measured[s] - target))
    if cross_count > n_b:
        raise InfeasibleSpecError(
            f"coupling target {target} needs {cross_count} cross edges but only "
            f"{n_b} distinct benign endpoints exist"
        )
    return cross_count, measured[cross_count]


def generate_graph(
    spec: SyntheticSpec,
    catalog: SensitiveApiCatalog,
    label: str,
    index: int,
) -> tuple[CallGraph, PlantedTruth]:
    """Graph ``index`` of ``label``, from its own seed-derived random stream."""
    rng = random.Random(_derive_seed(spec.seed, label, index))
    planted_size = spec.planted_sensitive_community_size
    rest_n = spec.node_count - planted_size
    cross_count, measured = _cross_edges(spec, label)

    blocks: list[list[int]] = []
    cursor = 0
    for size in _block_sizes(rest_n, spec.community_count):
        blocks.append(list(range(cursor, cursor + size)))
        cursor += size
    planted = list(range(rest_n, spec.node_count))

    pairs: set[tuple[int, int]] = set()
    for block in blocks:
        available = len(block) * (len(block) - 1) // 2
        want = round(spec.intra_edge_prob * available)
        pairs.update(_sample_block_pairs(rng, block, None, want))
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            want = round(spec.inter_edge_prob * len(blocks[bi]) * len(blocks[bj]))
            pairs.update(_sample_block_pairs(rng, blocks[bi], blocks[bj], want))

    # Planted community is a clique: dense enough to survive detection.
    pairs.update(combinations(planted, 2))

    # Cross edges attach only to the non-API "gateway" members of the
    # planted community, spread evenly over gateways and benign blocks.
    # API nodes keep pure intra-community wiring (they are callees of the
    # payload), which lets detection coalesce the community reliably.
    api_indices = tuple(sorted(rng.sample(range(len(catalog)), spec.sensitive_api_count)))
    api_nodes = {planted[i]: api_indices[i] for i in range(len(api_indices))}
    workers = planted[len(api_indices):]
    # Half the workers carry the cross edges; the rest keep pure internal
    # wiring and act as a coalescence anchor for community detection.
    gateways = workers[: max(1, len(workers) // 2)]

    # Benign graphs route a few cross edges straight into each API as direct
    # benign callers; everything else lands on gateways. Each benign node
    # carries at most one cross edge and every block gets an equal share;
    # concentrated cross endpoints would drag whole benign chunks into the
    # planted community during detection.
    api_callers = 0
    if label == BENIGN:
        api_callers = min(
            spec.benign_api_caller_count * len(api_indices), cross_count
        )
    stride = max(1, cross_count // api_callers) if api_callers else 0
    caller_slots = {i * stride for i in range(api_callers)}
    per_block = _block_sizes(cross_count, len(blocks))
    forced: set[tuple[int, int]] = set()  # caller -> API arcs, kept in this direction
    api_list = sorted(api_nodes)
    slot = 0
    caller_seen = 0
    # cross_count <= rest_n, so no block's quota exceeds its size.
    for block, quota in zip(blocks, per_block):
        for v in rng.sample(block, quota):
            if slot in caller_slots:
                u = api_list[caller_seen % len(api_list)]
                forced.add((v, u))
                caller_seen += 1
            else:
                u = gateways[slot % len(gateways)]
            pairs.add((v, u))
            slot += 1

    # Node ids are positions: benign blocks first, then the planted clique.
    names = [f"com.synth.app{b}.Module{pos // 10}.fn{nid}"
             for b, block in enumerate(blocks) for pos, nid in enumerate(block)]
    names += [f"{catalog.entries[api_nodes[nid]]}()" if nid in api_nodes
              else f"com.synth.payload.Worker{pos}.run" for pos, nid in enumerate(planted)]
    flags = [nid in api_nodes for nid in range(spec.node_count)]
    for name, flag in zip(names, flags):
        if flag != (catalog.pattern.search(name) is not None):
            raise InfeasibleSpecError(f"catalog entry collides with generated name {name!r}")

    # One arc per pair, in a random direction unless it is a forced caller arc.
    edges = [(u, v) if (u, v) in forced or rng.random() < 0.5 else (v, u)
             for u, v in sorted(pairs)]

    app_id = f"{label}-{index:04d}"
    graph = CallGraph.from_edges(app_id, range(spec.node_count), names, flags, edges, label)
    truth = PlantedTruth(
        app_id=app_id,
        label=label,
        planted_nodes=frozenset(planted),
        api_indices=api_indices,
        planted_coupling=measured,
    )
    return graph, truth
