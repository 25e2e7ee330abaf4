import json
import random

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
    matching_entries,
    normalize,
    parse_catalog,
    parse_graph,
    serialize_graph,
)

from conftest import make_graph


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
        assert g.sensitive_ids == {0}

    def test_catalog_overrides_input_flags(self):
        catalog = SensitiveApiCatalog(entries=("d.E.f",))
        g = parse_graph(
            doc(nodes=[{"id": 0, "name": "a.B.c", "sensitive": True},
                       {"id": 1, "name": "d.E.f"}], edges=[]),
            catalog=catalog,
        )
        assert g.sensitive_ids == {1}

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

    def test_equals_normalize_then_apply_catalog(self):
        # parse_graph builds the normalized, catalog-flagged graph in one pass;
        # it must equal the two-pass form of the same document.
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
            as_read = CallGraph(
                app_id="app",
                nodes=tuple(FunctionNode(n["id"], n["name"], n["sensitive"]) for n in nodes),
                edges=tuple(tuple(e) for e in edges),
            )
            assert parse_graph(text) == normalize(as_read)
            assert parse_graph(text, catalog) == apply_catalog(normalize(as_read), catalog)

    def test_round_trip_unicode_names(self):
        g = make_graph(2, [(0, 1)], names={0: "pkg.Класс.メソッド", 1: "x.Y.z"})
        assert parse_graph(serialize_graph(g)) == g

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
            g = CallGraph(
                app_id="x",
                nodes=tuple(FunctionNode(i, f"n{i}") for i in range(n)),
                edges=tuple(edges),
            )
            once = normalize(g)
            assert normalize(once) == once

    def test_unknown_edge_endpoint_rejected(self):
        g = CallGraph(
            app_id="x",
            nodes=(FunctionNode(0, "a"),),
            edges=((0, 3),),
        )
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
        # Regex metacharacters appear too, so an unescaped pattern misflags.
        rng = random.Random(12)
        alphabet = "ab.()*+?|[]\\^$"
        for _ in range(200):
            entries = tuple(dict.fromkeys(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 8))
            ))
            catalog = SensitiveApiCatalog(entries=entries)
            for _ in range(20):
                core = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
                name = rng.choice(("", " ", "\t")) + core + rng.choice(("", "  "))
                expected = tuple(i for i, e in enumerate(entries) if e in name.strip())
                assert matching_entries(name, catalog) == expected, (entries, name)
                one_node = json.dumps({"app_id": "x", "nodes": [{"id": 0, "name": name}]})
                flagged = parse_graph(one_node, catalog=catalog).nodes[0].sensitive
                assert flagged == bool(expected), (entries, name)


class TestCatalog:
    def test_parse_skips_comments_and_blanks(self):
        catalog = parse_catalog("# header\n\napi.One\napi.Two  # trailing\n")
        assert catalog.entries == ("api.One", "api.Two")

    def test_order_significant(self):
        catalog = parse_catalog("b.Second\na.First\n")
        assert catalog.entries == ("b.Second", "a.First")

    def test_duplicate_rejected(self):
        with pytest.raises(CatalogError, match="duplicate"):
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
        sub = induced_subgraph(g, {0, 1, 2})
        assert {n.id for n in sub.nodes} == {0, 1, 2}
        assert sub.edges == ((0, 1), (0, 2), (1, 2))

    def test_empty_induced_subgraph_allowed(self):
        g = make_graph(3, [(0, 1)])
        sub = induced_subgraph(g, set())
        assert sub.node_count == 0 and sub.edges == ()

    def test_unknown_ids_rejected(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            induced_subgraph(g, {0, 9})

    def test_apply_catalog_recomputes_flags(self):
        g = make_graph(2, [(0, 1)], names={0: "keep.Api.call", 1: "other.X.y"})
        flagged = apply_catalog(g, SensitiveApiCatalog(entries=("keep.Api",)))
        assert flagged.sensitive_ids == {0}
