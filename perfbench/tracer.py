"""Per-layer tracing of homgraph from outside the program.

``Tracer.install`` replaces every public function of the layer modules
with a timing wrapper, in every homgraph module namespace that holds it,
so a call is seen wherever its caller looks the name up (both
``features.featurize`` and ``pipeline.featurize``, for example). Layers
are the modules of ``src/homgraph``.

Every call updates in-memory aggregates: calls, busy time, self time
(duration minus child calls) and the counts of the groups below. Calls of
at least ``SPAN_MIN_S`` are also kept as spans (name, start, end, parent,
graph id, thread) and written out at the end; shorter calls, such as
per-node name matching, are counted but not listed one by one.

Each thread keeps its own parent stack. A call that starts on a pool
thread with an empty stack takes the main thread's innermost open call as
its parent, and its wait since that parent started is its queue wait.
Durations are wall time on the main thread and thread CPU time on pool
threads, so time a pool thread spends waiting for the interpreter lock is
not counted as busy; ``pipeline.parallelism`` is then the pool's CPU time
over the wall time of the corpus call that fed it.

A name that a refactor removes is skipped when wrapping; the metrics that
need it come back as ``None`` (absent) instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from pathlib import Path

PACKAGE = "homgraph"
LAYERS = ("model", "generate", "community", "homophily", "features", "classify",
          "pipeline", "cli")

SPAN_MIN_S = 0.0005

# Metric groups: a call counts toward a group only when no caller on its
# stack is already in the group, so nested or aliased calls count once.
GROUPS = {
    "model.parse": ("model.load_graph", "model.parse_graph"),
    "model.apply_catalog": ("model.apply_catalog",),
    "model.serialize": ("model.serialize_graph",),
    "generate.generate": ("generate.generate_corpus",),
    "community.detect": ("community.detect", "community.detect_multilevel"),
    "homophily.partition": ("homophily.partition_suspicious",),
    "homophily.covertness": ("homophily.covertness",),
    "features.featurize": ("features.featurize",),
    "features.census": ("features.triad_census",),
    "classify.cross_validate": ("classify.cross_validate",),
    "classify.threshold_sweep": ("classify.threshold_sweep",),
    "pipeline.load_corpus": ("pipeline.load_corpus",),
    "pipeline.analyze_corpus": ("pipeline.analyze_corpus",),
    "pipeline.analyze_graph": ("pipeline.analyze_graph",),
}


def _graph_id(args) -> str | None:
    for arg in args:
        app_id = getattr(arg, "app_id", None)
        if isinstance(app_id, str):
            return app_id
        if isinstance(arg, (str, Path)) and str(arg).endswith(".json"):
            return Path(arg).stem
    return None


# A frame is a list, which is cheaper to build than an object, indexed by:
FN, SPAN, PARENT, MASK, START, CHILD_S, CROSS, CPU0 = range(8)


class _ThreadState:
    """Aggregates of one thread, merged when metrics are derived."""

    def __init__(self, n_fns: int, n_groups: int) -> None:
        self.stack: list[list] = []
        self.pooled = False
        self.calls = [0] * n_fns
        self.busy = [0.0] * n_fns
        self.self_s = [0.0] * n_fns
        self.queue_wait = 0.0
        self.queued = 0
        self.group_s = [0.0] * n_groups
        self.group_calls = [0] * n_groups
        self.spans: list[tuple] = []
        self.samples: dict[str, list[float]] = {}
        self.graphs: dict[str, set] = {}


class Tracer:
    """Wraps the layer modules' public functions and derives per-layer metrics."""

    def __init__(self) -> None:
        self.fns: list[str] = []  # "layer.name", by function index
        self.fn_layer: list[str] = []
        self.groups: list[str] = [*LAYERS, *GROUPS]
        self.present_groups: set[str] = set()
        self.command = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._main: _ThreadState | None = None  # the installing thread
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
        originals: dict[int, tuple[str, object]] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith(PACKAGE + ".") and home in modules:
                    originals.setdefault(id(obj), (f"{home}.{obj.__name__}", obj))
        wrappers = {}
        for key, (qualname, fn) in sorted(originals.items(), key=lambda kv: kv[1][0]):
            wrappers[key] = self._wrap(fn, qualname)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and not attr.startswith("_"):
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        self._main = self._state()
        self._t0 = time.perf_counter()

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def begin_command(self) -> None:
        """Mark the start of a CLI command; graph counts are per command."""
        self.command += 1

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(len(self.fns), len(self.groups))
            state.pooled = self._main is not None
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, fn, qualname: str):
        idx = len(self.fns)
        layer = qualname.partition(".")[0]
        self.fns.append(qualname)
        self.fn_layer.append(layer)
        bits = [self.groups.index(layer)]
        bits += [self.groups.index(g) for g, names in GROUPS.items() if qualname in names]
        self.present_groups.update(self.groups[b] for b in bits)
        fn_mask = 0
        for b in bits:
            fn_mask |= 1 << b
        group_bits = tuple((b, 1 << b) for b in bits)
        hooks = tuple((1 << b, _HOOKS[self.groups[b]]) for b in bits
                      if self.groups[b] in _HOOKS)
        tracer = self
        local = self._local
        ids = self._ids
        perf = time.perf_counter
        cpu = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = getattr(local, "state", None) or tracer._state()
            stack = state.stack
            pooled = state.pooled
            cross = False
            if stack:
                parent = stack[-1]
            elif pooled and tracer._main.stack:
                parent = tracer._main.stack[-1]
                cross = True
            else:
                parent = None
            parent_mask = parent[MASK] if parent is not None else 0
            frame = [idx, next(ids), parent, parent_mask | fn_mask, 0.0, 0.0, None,
                     cpu() if pooled else 0.0]
            stack.append(frame)
            start = frame[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                # Thread CPU time on pool threads, so lock waits are not busy time.
                dur = cpu() - frame[CPU0] if pooled else end - start
                stack.pop()
                covered = frame[CHILD_S]
                if frame[CROSS]:
                    covered += _union_length(frame[CROSS], start, end)
                state.calls[idx] += 1
                state.busy[idx] += dur
                state.self_s[idx] += dur - covered if dur > covered else 0.0
                if cross:
                    tracer._cross_child(state, parent, start, end)
                elif parent is not None:
                    parent[CHILD_S] += dur
                for bit, mask in group_bits:
                    if not parent_mask & mask:
                        state.group_s[bit] += dur
                        state.group_calls[bit] += 1
                if end - start >= SPAN_MIN_S:
                    tracer._span(state, frame, end, args)
            for mask, hook in hooks:
                if not parent_mask & mask:
                    hook(tracer, state, args, result)
            return result

        return wrapper

    def _cross_child(self, state, parent, start, end):
        with self._states_lock:
            parent[CROSS] = parent[CROSS] or []
            parent[CROSS].append((start, end))
        state.queue_wait += start - parent[START]
        state.queued += 1

    def _span(self, state, frame, end, args):
        parent = frame[PARENT]
        state.spans.append((frame[SPAN], parent[SPAN] if parent else None, frame[FN],
                            frame[START] - self._t0, end - self._t0, _graph_id(args),
                            threading.get_ident()))

    # -- hooks ----------------------------------------------------------

    def _sample(self, state, name: str, value: float) -> None:
        state.samples.setdefault(name, []).append(float(value))

    def _graph(self, state, name: str, args) -> None:
        state.graphs.setdefault(name, set()).add((self.command, _graph_id(args)))

    # -- results ----------------------------------------------------------

    def _merged(self):
        n_f, n_g = len(self.fns), len(self.groups)
        calls, busy, self_s = [0] * n_f, [0.0] * n_f, [0.0] * n_f
        group_s, group_calls = [0.0] * n_g, [0] * n_g
        samples: dict[str, list[float]] = {}
        graphs: dict[str, set] = {}
        queue_wait, queued = 0.0, 0
        for st in self._states:
            for i in range(n_f):
                calls[i] += st.calls[i]
                busy[i] += st.busy[i]
                self_s[i] += st.self_s[i]
            for g in range(n_g):
                group_s[g] += st.group_s[g]
                group_calls[g] += st.group_calls[g]
            for k, v in st.samples.items():
                samples.setdefault(k, []).extend(v)
            for k, v in st.graphs.items():
                graphs.setdefault(k, set()).update(v)
            queue_wait += st.queue_wait
            queued += st.queued
        return dict(calls=calls, busy=busy, self_s=self_s,
                    group_s=group_s, group_calls=group_calls, samples=samples,
                    graphs=graphs, queue_wait=queue_wait, queued=queued)

    def metrics(self) -> dict[str, float | None]:
        """Per-layer metric values; ``None`` marks a metric whose names are gone."""
        m = self._merged()
        out: dict[str, float | None] = {}

        def group(name: str) -> int | None:
            return self.groups.index(name) if name in self.present_groups else None

        def group_s(name: str) -> float | None:
            g = group(name)
            return None if g is None else m["group_s"][g]

        def mean(name: str, present: str) -> float | None:
            if group(present) is None:
                return None
            values = m["samples"].get(name, [])
            return sum(values) / len(values) if values else 0.0

        def per_graph(name: str) -> float | None:
            g = group(name)
            if g is None:
                return None
            distinct = len(m["graphs"].get(name, ()))
            return m["group_calls"][g] / distinct if distinct else 0.0

        for layer in LAYERS:
            idx = [i for i, lay in enumerate(self.fn_layer) if lay == layer]
            present = layer in self.present_groups
            out[f"{layer}.busy_s"] = group_s(layer)
            out[f"{layer}.self_s"] = sum(m["self_s"][i] for i in idx) if present else None
            out[f"{layer}.calls"] = sum(m["calls"][i] for i in idx) if present else None

        for grp in GROUPS:  # busy time of each group, as "<group>_s"
            if grp != "pipeline.analyze_graph":
                out[f"{grp}_s"] = group_s(grp)

        out["community.levels"] = mean("levels", "community.detect")
        out["community.count"] = mean("communities", "community.detect")
        out["community.detect_calls_per_graph"] = per_graph("community.detect")
        out["homophily.partition_calls_per_graph"] = per_graph("homophily.partition")
        out["homophily.sensitive_communities"] = mean("sensitive", "homophily.partition")
        out["features.suspicious_nodes"] = mean("suspicious_nodes", "features.featurize")
        out["features.triads_classified"] = mean("triads", "features.census")
        knn = m["samples"].get("knn_queries", [])
        out["classify.knn_queries"] = (
            sum(knn) if group("classify.cross_validate") is not None else None
        )

        analyze_graph = group_s("pipeline.analyze_graph")
        corpus_wall = group_s("pipeline.analyze_corpus")
        out["pipeline.queue_wait_s"] = (
            (m["queue_wait"] / m["queued"] if m["queued"] else 0.0)
            if corpus_wall is not None else None
        )
        skipped = m["samples"].get("skipped", [])
        out["pipeline.skipped"] = sum(skipped) if corpus_wall is not None else None
        if analyze_graph is None or corpus_wall is None:
            out["pipeline.parallelism"] = None
        else:
            out["pipeline.parallelism"] = analyze_graph / corpus_wall if corpus_wall else 0.0
        return out

    def write_spans(self, path: Path) -> int:
        rows = [span for st in self._states for span in st.spans]
        rows.sort(key=lambda s: s[3])
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, idx, start, end, graph, thread in rows:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": self.fns[idx],
                    "start": round(start, 7), "end": round(end, 7),
                    "graph": graph, "thread": thread,
                }) + "\n")
        return len(rows)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# Count hooks run after a successful call that enters their group. They
# read results through attributes only and record nothing when one is missing.

def _hook_detect(tracer, state, args, result):
    q_trace = getattr(result, "q_trace", None)
    count = getattr(result, "community_count", None)
    if q_trace is not None:
        tracer._sample(state, "levels", len(q_trace))
    if count is not None:
        tracer._sample(state, "communities", count)
    tracer._graph(state, "community.detect", args)


def _hook_partition(tracer, state, args, result):
    communities = getattr(result, "sensitive_communities", None)
    if communities is not None:
        tracer._sample(state, "sensitive", len(communities))
    tracer._graph(state, "homophily.partition", args)


def _hook_featurize(tracer, state, args, result):
    subgraph = getattr(args[0], "suspicious_subgraph", None) if args else None
    count = getattr(subgraph, "node_count", None)
    if count is not None:
        tracer._sample(state, "suspicious_nodes", count)


def _hook_census(tracer, state, args, result):
    totals = getattr(result, "total_counts", None)
    if isinstance(totals, dict):
        tracer._sample(state, "triads", sum(totals.values()))


def _hook_cross_validate(tracer, state, args, result):
    if args and hasattr(args[0], "__len__"):
        tracer._sample(state, "knn_queries", len(args[0]))


def _hook_analyze_corpus(tracer, state, args, result):
    if args and hasattr(args[0], "__len__") and hasattr(result, "__len__"):
        tracer._sample(state, "skipped", len(args[0]) - len(result))


_HOOKS = {
    "community.detect": _hook_detect,
    "homophily.partition": _hook_partition,
    "features.featurize": _hook_featurize,
    "features.census": _hook_census,
    "classify.cross_validate": _hook_cross_validate,
    "pipeline.analyze_corpus": _hook_analyze_corpus,
}
