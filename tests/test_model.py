import json
import random

import numpy as np
import pytest

from homgraph.model import (
    CallGraph,
    CatalogError,
    FunctionNode,
    GraphFormatError,
    SensitiveApiCatalog,
    apply_catalog,
    induced_subgraph,
    load_catalog,
    load_graph,
    matching_entries,
    parse_catalog,
    parse_graph,
    serialize_graph,
)

from conftest import make_graph
from oracles import (
    contained_entries,
    document,
    flag_from_catalog,
    mask_of,
    normalize,
    sensitive_ids,
)


def doc(**overrides):
    base = {
        "app_id": "app",
        "nodes": [{"id": 0, "name": "a.B.c"}, {"id": 1, "name": "d.E.f"}],
        "edges": [[0, 1]],
    }
    base.update(overrides)
    return json.dumps(base)


class TestParse:
    def test_normalization_collapses_duplicates_and_self_loops(self):
        g = parse_graph(doc(edges=[[0, 1], [0, 1], [1, 1]]))
        assert g.node_count == 2
        assert g.edges == ((0, 1),)

    def test_dangling_endpoint_reports_location(self):
        with pytest.raises(GraphFormatError, match=r"edges\[0\].*\(0, 7\)"):
            parse_graph(doc(edges=[[0, 7]]))

    def test_duplicate_node_id_reports_location(self):
        with pytest.raises(GraphFormatError, match=r"nodes\[1\].*duplicate node id 0"):
            parse_graph(
                doc(nodes=[{"id": 0, "name": "x"}, {"id": 0, "name": "y"}], edges=[])
            )

    def test_not_json(self):
        with pytest.raises(GraphFormatError, match="not valid JSON"):
            parse_graph(b"{nope")

    def test_bad_utf8_and_deep_nesting_are_format_errors(self):
        with pytest.raises(GraphFormatError, match="^src.json: not valid JSON: 'utf-8' codec"):
            parse_graph(b'{"app_id": "\xff"}', source="src.json")
        with pytest.raises(GraphFormatError, match="^src.json: not valid JSON: "):
            parse_graph("[" * 100_000 + "]" * 100_000, source="src.json")

    def test_root_must_be_object(self):
        with pytest.raises(GraphFormatError, match="root"):
            parse_graph("[1, 2]")

    def test_missing_nodes_rejected(self):
        with pytest.raises(GraphFormatError, match="'nodes'"):
            parse_graph(json.dumps({"app_id": "x", "nodes": [], "edges": []}))

    def test_bad_label_rejected(self):
        with pytest.raises(GraphFormatError, match="label"):
            parse_graph(doc(label="weird"))

    def test_label_round_trip(self):
        g = parse_graph(doc(label="malware"))
        assert g.ground_truth == "malware"

    def test_sensitive_flag_kept_without_catalog(self):
        g = parse_graph(doc(nodes=[{"id": 0, "name": "x", "sensitive": True},
                                   {"id": 1, "name": "y"}], edges=[]))
        assert sensitive_ids(g) == {0}

    def test_catalog_overrides_input_flags(self, tmp_path):
        catalog = SensitiveApiCatalog(entries=("d.E.f",))
        path = tmp_path / "app.json"
        path.write_text(doc(nodes=[{"id": 0, "name": "a.B.c", "sensitive": True},
                                   {"id": 1, "name": "d.E.f"}], edges=[]), encoding="utf-8")
        assert sensitive_ids(load_graph(path, catalog)) == {1}
        assert sensitive_ids(load_graph(path)) == {0}

    def test_round_trip_random_graphs(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(1, 200)
            edges = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 3 * n))
            ]
            sens = rng.sample(range(n), k=min(n, rng.randint(0, 4)))
            g = make_graph(n, edges, sensitive=sens,
                           label=rng.choice([None, "benign", "malware"]))
            again = parse_graph(serialize_graph(g))
            assert again == g

    @pytest.mark.parametrize("bad", [[0, True], [0, 1.0], [0, 1, 1], [0], "01", {"0": 1}])
    def test_malformed_edge_reports_location(self, bad):
        with pytest.raises(GraphFormatError, match=r"edges\[1\]: must be an \[caller_id"):
            parse_graph(doc(edges=[[0, 1], bad]))

    @pytest.mark.parametrize("bad", [True, -1, 1.0, "1", None])
    def test_malformed_node_id_reports_location(self, bad):
        nodes = [{"id": 0, "name": "a"}, {"id": bad, "name": "b"}]
        with pytest.raises(GraphFormatError, match=r"nodes\[1\]: 'id' must be"):
            parse_graph(doc(nodes=nodes, edges=[]))

    @pytest.mark.parametrize("overrides, message", [
        ({"nodes": [{"id": 0, "name": "a"}, [1, "b"]]}, r"nodes\[1\]: must be an object"),
        ({"nodes": [{"id": 0, "name": "a"}, {"id": 1, "name": 7}]},
         r"nodes\[1\]: 'name' must be a string"),
        ({"nodes": [{"id": 0, "name": "a"}, {"id": 1, "name": "b", "sensitive": 1}]},
         r"nodes\[1\]: 'sensitive' must be a boolean"),
        ({"app_id": ""}, r"'app_id' must be a non-empty string"),
        ({"app_id": 5}, r"'app_id' must be a non-empty string"),
        ({"edges": {"0": 1}}, r"'edges' must be an array"),
    ])
    def test_document_errors_are_located(self, overrides, message):
        with pytest.raises(GraphFormatError, match=r"^src\.json: " + message):
            parse_graph(doc(**{"edges": [], **overrides}), source="src.json")

    def test_equals_normalize_then_apply_catalog(self, tmp_path):
        # parse_graph builds the normalized graph with bulk checks, keeping
        # the document's flags, and load_graph then flags from the catalog;
        # each must equal the plain-pass form of the same document.
        path = tmp_path / "app.json"
        rng = random.Random(8)
        catalog = SensitiveApiCatalog(entries=("api.Net", "Tel.id", "x"))
        names = ["com.a.B.c", "lib.api.Net.send()", "pkg.Tel.id()V", "q.x", "w"]
        for _ in range(100):
            ids = rng.sample(range(500), rng.randint(1, 40))
            nodes = [{"id": i, "name": rng.choice(names), "sensitive": rng.random() < 0.3}
                     for i in ids]
            edges = [[rng.choice(ids), rng.choice(ids)] for _ in range(rng.randint(0, 80))]
            edges += rng.sample(edges, len(edges) // 3)
            text = doc(nodes=nodes, edges=edges)
            as_read = json.loads(text)
            assert parse_graph(text) == normalize(as_read)
            path.write_text(text, encoding="utf-8")
            assert load_graph(path) == normalize(as_read)
            assert load_graph(path, catalog) == flag_from_catalog(normalize(as_read), catalog)

    def test_round_trip_unicode_names(self):
        g = make_graph(2, [(0, 1)], names={0: "pkg.Класс.メソッド", 1: "x.Y.z"})
        assert parse_graph(serialize_graph(g)) == g

    def test_round_trip_property(self):
        # Any Unicode app id, name and label; edges may repeat and loop.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data())
        def round_trip(data):
            ids = data.draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=12, unique=True))
            nodes = tuple(
                FunctionNode(id=nid, name=data.draw(st.text()), sensitive=data.draw(st.booleans()))
                for nid in ids
            )
            arc = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
            raw = {
                "app_id": data.draw(st.text(min_size=1)),
                "label": data.draw(st.sampled_from([None, "benign", "malware"])),
                "nodes": [{"id": n.id, "name": n.name, "sensitive": n.sensitive} for n in nodes],
                "edges": data.draw(st.lists(arc, max_size=40)),
            }
            g = normalize(raw)
            assert parse_graph(serialize_graph(g)) == g
            assert parse_graph(json.dumps(raw)) == g

        round_trip()

    def test_parse_equals_normalize_property(self):
        # Shuffled node order, omitted flags, repeated and reversed edges,
        # self-loops, and ids past 2**63 and 2**64: the bulk-checked parse
        # equals the plain-pass normalization of the same document.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ids = st.one_of(st.integers(0, 30), st.integers(2**63 - 2, 2**63 + 2),
                        st.integers(2**64, 2**64 + 7))

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data())
        def agrees(data):
            node_ids = data.draw(st.lists(ids, min_size=1, max_size=12, unique=True))
            nodes = [{"id": nid, "name": data.draw(st.text(max_size=4))} for nid in node_ids]
            for node in nodes:
                flag = data.draw(st.sampled_from([None, False, True]))
                if flag is not None:
                    node["sensitive"] = flag
            nodes = data.draw(st.permutations(nodes))
            arc = st.tuples(st.sampled_from(node_ids), st.sampled_from(node_ids))
            arcs = data.draw(st.lists(arc, max_size=30))
            arcs += [(v, u) for u, v in data.draw(st.lists(st.sampled_from(arcs)))] if arcs else []
            arcs += data.draw(st.lists(st.sampled_from(arcs))) if arcs else []
            document_ = {"app_id": "p", "nodes": nodes, "edges": [list(a) for a in arcs]}
            graph = parse_graph(json.dumps(document_))
            assert graph == normalize(document_)
            assert graph.ids == tuple(sorted(node_ids))
            assert graph.edges == tuple(sorted({(u, v) for u, v in arcs if u != v}))

        agrees()

    def test_first_bad_entry_is_located_property(self):
        # One bad node or edge at a random index i, and possibly a later bad
        # one: the bulk checks fail and the locating loop names i.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        bad_ids = [True, -1, 1.0, "1", None]
        bad_edges = [[0, True], [0, 1.0], [0, 1, 1], [0], "01", {"0": 1}]
        node_error = r"nodes\[{}\]: 'id' must be"
        edge_error = r"edges\[{}\]: must be an \[caller_id"
        dangling_error = r"edges\[{}\]: dangling endpoint"

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data())
        def located(data):
            n = data.draw(st.integers(1, 10))
            nodes = [{"id": nid, "name": f"f{nid}"} for nid in range(n)]
            edges = [[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))]
                     for _ in range(data.draw(st.integers(0, 10)))]
            in_nodes = not edges or data.draw(st.booleans())
            entries = nodes if in_nodes else edges
            i = data.draw(st.integers(0, len(entries) - 1))
            if in_nodes:
                faults = [("id", bad) for bad in bad_ids]
                error = node_error
            else:
                faults = [("edge", bad) for bad in bad_edges] + [("dangling", [0, n + 5])]
            later = data.draw(st.integers(i, len(entries) - 1))
            for k in sorted({i, later}):
                kind, bad = data.draw(st.sampled_from(faults))
                if kind == "id":
                    entries[k]["id"] = bad
                else:
                    entries[k] = bad
                if k == i and not in_nodes:
                    error = dangling_error if kind == "dangling" else edge_error
            text = json.dumps({"app_id": "p", "nodes": nodes, "edges": edges})
            with pytest.raises(GraphFormatError, match="^p.json: " + error.format(i)):
                parse_graph(text, source="p.json")

        located()

    def test_serialize_is_compact_single_line(self):
        g = make_graph(4, [(0, 1), (1, 2), (3, 0)], sensitive=[2], label="malware")
        text = serialize_graph(g)
        assert text.endswith("\n") and text.count("\n") == 1
        assert " " not in text
        assert parse_graph(text) == g


class TestNormalize:
    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 60)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
            nodes = [{"id": i, "name": f"n{i}"} for i in rng.sample(range(n), n)]
            once = normalize({"app_id": "x", "nodes": nodes, "edges": edges})
            assert normalize(document(once)) == once

    def test_unknown_edge_endpoint_rejected(self):
        g = {"app_id": "x", "nodes": [{"id": 0, "name": "a"}], "edges": [(0, 3)]}
        with pytest.raises(GraphFormatError):
            normalize(g)


class TestMatchSensitive:
    def test_descriptor_suffix_matches(self, desk_catalog):
        name = "android.telephony.TelephonyManager.getDeviceId()V"
        index = desk_catalog.entries.index("android.telephony.TelephonyManager.getDeviceId")
        assert matching_entries(name, desk_catalog) == (index,)

    def test_non_member(self, desk_catalog):
        assert matching_entries("com.example.app.MainActivity.onCreate", desk_catalog) == ()

    def test_empty_name(self, desk_catalog):
        assert matching_entries("", desk_catalog) == ()

    def test_whitespace_canonicalized(self, desk_catalog):
        assert matching_entries("  java.lang.Runtime.exec  ", desk_catalog)

    def test_every_contained_entry_found(self):
        # Entries nest and overlap, and one is a single character, so names
        # hit several entries and are shorter or longer than the shortest one.
        # Names splice whole entries between random characters, so one
        # position often starts several entries. Regex metacharacters appear
        # too, so an unescaped pattern misflags.
        rng = random.Random(12)
        alphabet = "ab.()*+?|[]\\^$"
        for _ in range(200):
            entries = tuple(dict.fromkeys(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 12))
            ))
            catalog = SensitiveApiCatalog(entries=entries)
            pieces = entries + tuple(alphabet)
            for _ in range(20):
                core = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
                name = rng.choice(("", " ", "\t")) + core + rng.choice(("", "  "))
                expected = contained_entries(name, catalog)
                assert matching_entries(name, catalog) == expected, (entries, name)
                one_node = json.dumps({"app_id": "x", "nodes": [{"id": 0, "name": name}]})
                flagged = apply_catalog(parse_graph(one_node), catalog).nodes[0].sensitive
                assert flagged == bool(expected), (entries, name)


class TestCatalog:
    def test_parse_skips_comments_and_blanks(self):
        catalog = parse_catalog("# header\n\napi.One\napi.Two  # trailing\n")
        assert catalog.entries == ("api.One", "api.Two")

    def test_order_significant(self):
        catalog = parse_catalog("b.Second\na.First\n")
        assert catalog.entries == ("b.Second", "a.First")

    def test_duplicate_rejected(self):
        with pytest.raises(CatalogError, match=":2: duplicate"):
            parse_catalog("api.One\napi.One\n")

    def test_empty_rejected(self):
        with pytest.raises(CatalogError, match="no entries"):
            parse_catalog("# only a comment\n")

    def test_builtin_catalog_loads(self):
        catalog = load_catalog()
        assert len(catalog) == 10
        assert "android.telephony.TelephonyManager.getDeviceId" in catalog.entries
        assert "android.telephony.SmsManager.sendTextMessage" in catalog.entries


class TestSubgraph:
    def test_induced_edges_exact(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        sub = induced_subgraph(g, mask_of(g, {0, 1, 2}))
        assert {n.id for n in sub.nodes} == {0, 1, 2}
        assert sub.edges == ((0, 1), (0, 2), (1, 2))

    def test_empty_induced_subgraph_allowed(self):
        g = make_graph(3, [(0, 1)])
        sub = induced_subgraph(g, mask_of(g, ()))
        assert sub.node_count == 0 and sub.edges == ()

    def test_sliced_index_equals_rebuilt_index(self):
        # The subgraph's index, sliced from the parent's and renumbered,
        # equals the index built afresh from the subgraph's own nodes and
        # edges, for every subset size down to the empty set.
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 30)
            ids = rng.sample([*range(40), 2**63 + 1, 2**64 + 3], n)
            nodes = [{"id": nid, "name": f"f{nid}", "sensitive": rng.random() < 0.3}
                     for nid in ids]
            edges = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 3 * n))]
            g = normalize({"app_id": "s", "nodes": nodes, "edges": edges})
            sub = induced_subgraph(g, mask_of(g, rng.sample(ids, rng.randint(0, n))))
            rebuilt = CallGraph.from_edges("s", [v.id for v in sub.nodes],
                                           [v.name for v in sub.nodes],
                                           [v.sensitive for v in sub.nodes], sub.edges)
            assert sub == rebuilt
            assert sub.ids == rebuilt.ids
            for name in ("indptr", "indices", "rows", "dyads"):
                a, b = getattr(sub, name), getattr(rebuilt, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_unknown_ids_rejected(self):
        # The subgraph is chosen by a mask over positions: one of the wrong
        # shape or type, such as a set of ids, is rejected.
        g = make_graph(3, [(0, 1)])
        for bad in (np.ones(10, bool), np.ones((3, 1), bool), np.array([0, 1, 1]), {0, 9}):
            with pytest.raises(ValueError, match="mask must be 3 booleans"):
                induced_subgraph(g, bad)

    def test_apply_catalog_recomputes_flags(self):
        g = make_graph(2, [(0, 1)], names={0: "keep.Api.call", 1: "other.X.y"})
        flagged = apply_catalog(g, SensitiveApiCatalog(entries=("keep.Api",)))
        assert sensitive_ids(flagged) == {0}

    def test_apply_catalog_keeps_the_index(self):
        # Flagging replaces only the flags: the graph is indexed once per
        # load, and the flagged graph shares its parent's index arrays and
        # names.
        catalog = SensitiveApiCatalog(entries=("keep.Api",))
        names = {0: "keep.Api.call", 1: "other.X.y", 2: "keep.Api.run", 3: "z"}
        g = make_graph(4, [(0, 1), (2, 3)], sensitive=[0, 3], names=names)
        flagged = apply_catalog(g, catalog)
        assert flagged == flag_from_catalog(g, catalog)
        for name in ("indptr", "indices", "rows", "dyads"):
            assert getattr(flagged, name) is getattr(g, name), name
        assert flagged.names is g.names
        assert g.sensitive.tolist() == [True, False, False, True]


class TestIndex:
    def test_agrees_with_networkx(self):
        # Raw edge lists keep duplicates, self-loops and both directions of a
        # pair, so the index must merge them; ids around and above 2**63
        # must work, since only positions enter the arrays.
        nx = pytest.importorskip("networkx")
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ids = st.one_of(st.integers(0, 40), st.integers(2**63 - 3, 2**63 + 3),
                        st.integers(2**64, 2**70))

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data())
        def agrees(data):
            node_ids = data.draw(st.lists(ids, min_size=1, max_size=12, unique=True))
            arc = st.tuples(st.sampled_from(node_ids), st.sampled_from(node_ids))
            edges = data.draw(st.lists(arc, max_size=40))
            names = [f"f{i}" for i in node_ids]
            g = CallGraph.from_edges("h", node_ids, names, [False] * len(names), edges)
            digraph = nx.DiGraph()
            digraph.add_nodes_from(node_ids)
            digraph.add_edges_from((u, v) for u, v in edges if u != v)
            undirected = digraph.to_undirected()

            ids_ = g.ids
            assert ids_ == tuple(sorted(node_ids))
            assert g.pair_count == undirected.number_of_edges()
            assert g.edge_count == digraph.number_of_edges()
            neighbours = g.neighbours()
            assert [[ids_[j] for j in nbrs] for nbrs in neighbours] == [
                sorted(undirected[u]) for u in ids_
            ]
            assert g.rows.tolist() == [i for i, nbrs in enumerate(neighbours) for _ in nbrs]
            entries = zip(g.rows.tolist(), g.indices.tolist(), g.dyads.tolist())
            for i, j, code in entries:
                u, v = ids_[i], ids_[j]
                assert code == digraph.has_edge(u, v) + 2 * digraph.has_edge(v, u)

        agrees()

    def test_parsed_graph_with_large_ids(self):
        big = 2**63 + 5
        g = parse_graph(doc(nodes=[{"id": big, "name": "a"}, {"id": 3, "name": "b"},
                                   {"id": 9, "name": "c"}],
                            edges=[[big, 3], [3, big], [9, 3], [9, 3], [9, 9]]))
        assert g.ids == (3, 9, big)
        assert g.neighbours() == [[1, 2], [0], [0]]
        assert g.dyads.tolist() == [2, 3, 1, 3]
        assert g.indptr.tolist() == [0, 2, 3, 4]
