import argparse
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest

import homgraph
from homgraph import cli, community, generate, homophily, pipeline
from homgraph.cli import build_parser, main, read_features_csv
from homgraph.model import InputError, load_catalog, serialize_graph

from conftest import ProcessLog, make_graph

GEN_FLAGS = ["--benign", "3", "--covert", "3", "--seed", "7"]


def run(*argv):
    return main(list(argv))


def gen_corpus(tmp_path, name="corpus", extra=()):
    out = tmp_path / name
    assert run("gen", *GEN_FLAGS, *extra, "--out", str(out)) == 0
    return out


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestGen:
    def test_writes_documents_and_manifest(self, tmp_path):
        out = gen_corpus(tmp_path)
        files = sorted(p.name for p in out.iterdir())
        assert "manifest.json" in files
        assert len([f for f in files if f != "manifest.json"]) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["graphs"]) == 6
        assert {g["label"] for g in manifest["graphs"]} == {"benign", "malware"}
        for entry in manifest["graphs"]:
            assert (out / entry["file"]).exists()

    def test_rerun_byte_identical(self, tmp_path):
        first = gen_corpus(tmp_path, "a")
        second = gen_corpus(tmp_path, "b")
        assert read_tree(first) == read_tree(second)

    def test_infeasible_spec_exit_2(self, tmp_path, capsys):
        code = run("gen", "--covert", "1", "--nodes", "10",
                   "--planted-size", "20", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        ("--coupling-target", "planted_coupling_target"),
        ("--benign-coupling-target", "benign_coupling_target"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_coupling_target_exit_2(self, tmp_path, capsys, flag, field, value):
        out = tmp_path / "x"
        assert run("gen", "--benign", "1", "--covert", "1", flag, value, "--out", str(out)) == 2
        assert (f"homgraph: error: {field} must be finite and positive, got {float(value)}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--coupling-target", "--benign-coupling-target"])
    def test_one_infeasible_label_writes_nothing(self, tmp_path, capsys, flag):
        # Benign graphs come first, so a covert target that cannot be met
        # must be caught before any benign graph is written.
        out = tmp_path / "x"
        assert run("gen", "--benign", "3", "--covert", "3", flag, "30", "--out", str(out)) == 2
        assert ("homgraph: error: coupling target 30.0 needs 20360 cross edges but "
                "only 800 distinct benign endpoints exist") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, label", [
        ("--coupling-target", "--covert"),
        ("--benign-coupling-target", "--benign"),
    ])
    def test_infeasible_target_of_absent_label_ignored(self, tmp_path, flag, label):
        out = tmp_path / "x"
        assert run("gen", "--benign", "1", "--covert", "1", label, "0", flag, "30",
                   "--out", str(out)) == 0
        assert len(json.loads((out / "manifest.json").read_text())["graphs"]) == 1

    def test_missing_out_is_input_error(self):
        assert run("gen", "--benign", "1") == 2


class TestUsageErrors:
    def test_unknown_subcommand_exit_1(self):
        assert run("definitely-not-a-command") == 1

    def test_no_subcommand_exit_1(self):
        assert run() == 1

    def test_bad_flag_value_exit_1(self):
        assert run("gen", "--benign", "not-a-number") == 1

    def test_help_exit_0(self, capsys):
        assert run("--help") == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_bad_flag_range_exit_2(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        graph = next(p for p in sorted(corpus.iterdir()) if p.name.startswith("benign"))
        for bad in ("-1", "inf", "nan"):
            capsys.readouterr()
            assert run("partition", str(graph), "--threshold", bad) == 2
            assert (f"--threshold must be finite and positive, got {float(bad)}"
                    in capsys.readouterr().err)
        assert run("covertness", str(graph), "--hops", "-2") == 2

    def test_internal_error_exit_3(self, tmp_path, monkeypatch):
        corpus = gen_corpus(tmp_path)
        graph = next(p for p in sorted(corpus.iterdir()) if p.name.startswith("benign"))

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr("homgraph.homophily.partition_suspicious", boom)
        assert run("partition", str(graph), "--out", str(tmp_path / "x.json")) == 3


ANALYSIS_FLAGS = {"--catalog", "--threshold", "--seed", "--out"}
FLAG_SURFACE = {
    "gen": {"--catalog", "--seed", "--out", "--benign", "--covert", "--nodes",
            "--communities", "--planted-size", "--intra-p", "--inter-p", "--apis",
            "--coupling-target", "--benign-coupling-target"},
    "communities": {"--seed", "--out"},
    "partition": ANALYSIS_FLAGS,
    "analyze": ANALYSIS_FLAGS,
    "covertness": {"--catalog", "--hops", "--out"},
    "eval": ANALYSIS_FLAGS | {"--k", "--folds", "--features", "--sweep"},
}


def subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def option_strings(parser):
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


class TestFlagSurface:
    @pytest.mark.parametrize("command", sorted(FLAG_SURFACE))
    def test_subcommand_takes_only_the_flags_it_reads(self, command):
        assert option_strings(subparsers()[command]) == FLAG_SURFACE[command]

    def test_every_subcommand_is_in_the_table(self):
        parsers = subparsers()
        assert set(parsers) == set(FLAG_SURFACE)
        assert sum(len(option_strings(p)) for p in parsers.values()) == 34

    @pytest.mark.parametrize("argv", [
        ["gen", "--threshold", "3"],
        ["communities", "g.json", "--catalog", "F"],
        ["covertness", "g.json", "--seed", "1"],
        ["partition", "g.json", "--k", "3"],
        ["analyze", "corpus", "--hops", "2"],
        ["eval", "corpus", "--hops", "2"],
        ["analyze", "corpus", "--algo", "label_propagation"],
        ["partition", "g.json", "--coupling-denominator", "total"],
        ["analyze", "corpus", "--coupling-denominator", "total"],
        ["eval", "corpus", "--coupling-denominator", "total"],
        ["covertness", "g.json", "--coupling-denominator", "total"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_formerly_ignored_flag_is_usage_error(self, tmp_path, argv, capsys):
        assert run(*argv, "--out", str(tmp_path / "out")) == 1
        assert f"unrecognized arguments: {argv[-2]} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (["covertness", "g.json", "--hops", "-2"], "--hops must be non-negative, got -2"),
        (["eval", "corpus", "--k", "0"], "--k must be at least 1, got 0"),
        (["eval", "corpus", "--folds", "1"], "--folds must be at least 2, got 1"),
    ], ids=["covertness-hops", "eval-k", "eval-folds"])
    def test_moved_range_checks_exit_2_before_reading(self, tmp_path, argv, message, capsys):
        # The paths do not exist: the check runs before any input is read.
        assert run(*argv) == 2
        assert f"homgraph: error: {message}\n" == capsys.readouterr().err


class TestCommunities:
    def test_report_deterministic(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        out1 = tmp_path / "comm1.json"
        out2 = tmp_path / "comm2.json"
        assert run("communities", str(corpus), "--out", str(out1)) == 0
        assert run("communities", str(corpus), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        algos = [row["algorithm"] for row in report["rows"]]
        assert algos == ["multilevel", "label_propagation"]
        assert report["graph_count"] == 6
        # wall-clock numbers stay out of the deterministic report file
        assert b"runtime" not in out1.read_bytes()
        assert "runtime" in capsys.readouterr().err

    def test_one_graph_in_memory(self, tmp_path, monkeypatch):
        corpus = gen_corpus(tmp_path)
        alive = track_loads(monkeypatch, tmp_path)
        assert run("communities", str(corpus), "--out", str(tmp_path / "comm.json")) == 0
        assert alive.values() == [0] * 6

    def test_path_order_does_not_change_report(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        other = tmp_path / "other"
        other.mkdir()
        for path in sorted(corpus.glob("malware-*.json")):
            path.rename(other / path.name)
        out1, out2 = tmp_path / "comm1.json", tmp_path / "comm2.json"
        assert run("communities", str(corpus), str(other), "--out", str(out1)) == 0
        assert run("communities", str(other), str(corpus), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["graph_count"] == 6


class TestPartition:
    def test_report_fields(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        graph = next(p for p in sorted(corpus.iterdir()) if p.name.startswith("malware"))
        out = tmp_path / "part.json"
        assert run("partition", str(graph), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["app_id"].startswith("malware")
        assert report["community_count"] >= 1
        assert report["sensitive_communities"]
        for sc in report["sensitive_communities"]:
            assert sc["verdict"] in ("suspicious", "filtered_benign")
            assert set(sc["coupling"]) == {"n_a", "n_b", "e_a", "e_b", "s", "c",
                                           "denominator"}
            assert sc["coupling"]["denominator"] == "total"

    def test_computes_no_features(self, tmp_path, monkeypatch):
        # A partition report needs no feature row, so featurize never runs.
        corpus = gen_corpus(tmp_path)
        graph = next(p for p in sorted(corpus.iterdir()) if p.name.startswith("malware"))
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        assert run("partition", str(graph), "--out", str(before)) == 0

        def boom(*args, **kwargs):
            raise RuntimeError("featurize called")

        monkeypatch.setattr("homgraph.features.featurize", boom)
        monkeypatch.setattr("homgraph.pipeline.featurize", boom)
        assert run("partition", str(graph), "--out", str(after)) == 0
        assert after.read_bytes() == before.read_bytes()

    def test_no_sensitive_nodes_reports_empty(self, tmp_path):
        g = make_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)], app_id="plain")
        path = tmp_path / "plain.json"
        path.write_text(serialize_graph(g))
        out = tmp_path / "part.json"
        assert run("partition", str(path), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["sensitive_communities"] == []
        assert report["suspicious_nodes"] == []


class TestCovertness:
    def test_covert_graph_is_candidate(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        graph = next(p for p in sorted(corpus.iterdir()) if p.name.startswith("malware"))
        out = tmp_path / "cov.json"
        assert run("covertness", str(graph), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["covert_candidate"] is True
        assert report["category"] in ("[0,1%)", "[1,2%)")
        assert report["coupling"]["denominator"] == "total"

    def test_benign_graph_not_candidate(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        graph = next(p for p in sorted(corpus.iterdir()) if p.name.startswith("benign"))
        out = tmp_path / "cov.json"
        assert run("covertness", str(graph), "--out", str(out)) == 0
        assert json.loads(out.read_text())["covert_candidate"] is False

    def test_sensitive_free_graph_diagnostic_exit_2(self, tmp_path, capsys):
        g = make_graph(4, [(0, 1), (2, 3)], app_id="clean")
        path = tmp_path / "clean.json"
        path.write_text(serialize_graph(g))
        assert run("covertness", str(path)) == 2
        assert "no sensitive" in capsys.readouterr().err


class TestAnalyze:
    def test_outputs(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "analysis"
        assert run("analyze", str(corpus), "--out", str(out)) == 0
        samples = read_features_csv(out / "features.csv")
        assert len(samples) == 6
        assert [s.app_id for s in samples] == sorted(s.app_id for s in samples)
        partitions = json.loads((out / "partitions.json").read_text())
        assert [p["app_id"] for p in partitions] == [s.app_id for s in samples]
        by_label = {}
        for s in samples:
            by_label.setdefault(s.label, []).append(s)
        for s in by_label["benign"]:
            assert not s.vector.any(), "benign graphs should featurize to zero"
        for s in by_label["malware"]:
            assert s.vector.any()

    def test_covert_suspicious_nodes_cover_planted(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "analysis"
        assert run("analyze", str(corpus), "--out", str(out)) == 0
        manifest = json.loads((corpus / "manifest.json").read_text())
        planted = {
            g["app_id"]: set(g["planted_nodes"])
            for g in manifest["graphs"]
            if g["label"] == "malware"
        }
        partitions = json.loads((out / "partitions.json").read_text())
        for report in partitions:
            if report["app_id"] not in planted:
                continue
            susp = set(report["suspicious_nodes"])
            expected = planted[report["app_id"]]
            jaccard = len(susp & expected) / len(susp | expected)
            assert jaccard >= 0.9

    def test_malformed_file_skipped(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        (corpus / "broken.json").write_text("{not json")
        out = tmp_path / "analysis"
        assert run("analyze", str(corpus), "--out", str(out)) == 0
        assert len(read_features_csv(out / "features.csv")) == 6

    def test_nothing_readable_exit_2(self, tmp_path):
        bad = tmp_path / "junk"
        bad.mkdir()
        (bad / "a.json").write_text("{")
        assert run("analyze", str(bad), "--out", str(tmp_path / "o")) == 2

    def test_deterministic(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        assert run("analyze", str(corpus), "--out", str(out1)) == 0
        assert run("analyze", str(corpus), "--out", str(out2)) == 0
        assert read_tree(out1) == read_tree(out2)


@pytest.fixture(scope="module")
def eval_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eval")
    out = tmp / "corpus"
    assert run("gen", "--benign", "12", "--covert", "12", "--seed", "3",
               "--out", str(out)) == 0
    return out


class TestEval:
    def test_report_schema(self, eval_corpus, tmp_path):
        out = tmp_path / "report.json"
        assert run("eval", str(eval_corpus), "--folds", "4", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert set(report["report"]["macro"]) == {
            "TPR", "FNR", "TNR", "FPR", "A", "P", "R", "F1"
        }
        assert set(report["report"]["micro_counts"]) == {"TP", "TN", "FP", "FN"}
        assert report["samples"] == 24

    def test_deterministic(self, eval_corpus, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run("eval", str(eval_corpus), "--folds", "4", "--out", str(out1)) == 0
        assert run("eval", str(eval_corpus), "--folds", "4", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_rows(self, eval_corpus, tmp_path):
        out = tmp_path / "sweep.json"
        assert run("eval", str(eval_corpus), "--folds", "4",
                   "--sweep", "1,2,3,4,5", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert [row["threshold"] for row in report["sweep"]] == [1, 2, 3, 4, 5]

    def test_sweep_detects_each_graph_once(self, eval_corpus, tmp_path, monkeypatch):
        calls = ProcessLog(tmp_path / "calls.jsonl")
        real = community.detect_multilevel

        def detect(graph, seed=0):
            calls.append(graph.app_id)
            return real(graph, seed)

        monkeypatch.setattr(community, "detect_multilevel", detect)
        out = tmp_path / "sweep.json"
        assert run("eval", str(eval_corpus), "--folds", "4",
                   "--sweep", "1,3", "--out", str(out)) == 0
        assert len(calls.values()) == len(set(calls.values())) == 24
        report = json.loads(out.read_text())
        at_default = next(row for row in report["sweep"] if row["threshold"] == 3)
        assert at_default["macro"] == report["report"]["macro"]

    def test_analyze_then_eval_equals_one_shot(self, eval_corpus, tmp_path):
        analysis = tmp_path / "analysis"
        assert run("analyze", str(eval_corpus), "--out", str(analysis)) == 0
        via_features = tmp_path / "via_features.json"
        assert run("eval", "--features", str(analysis / "features.csv"),
                   "--folds", "4", "--out", str(via_features)) == 0
        one_shot = tmp_path / "one_shot.json"
        assert run("eval", str(eval_corpus), "--folds", "4", "--out", str(one_shot)) == 0
        assert via_features.read_bytes() == one_shot.read_bytes()

    @pytest.mark.parametrize("extra", [[], ["--sweep", "1,3"]], ids=["single", "sweep"])
    def test_k_above_training_fold_exit_2(self, eval_corpus, tmp_path, extra, capsys):
        # 24 samples in 4 folds of 6: every training fold holds 18.
        out = tmp_path / "eval.json"
        assert run("eval", str(eval_corpus), "--folds", "4", "--k", "1000", *extra,
                   "--out", str(out)) == 2
        assert ("homgraph: error: k=1000 exceeds the smallest training fold of 18 samples"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_features_and_paths_mutually_exclusive(self, eval_corpus, tmp_path):
        assert run("eval", str(eval_corpus), "--features", "x.csv") == 2
        assert run("eval") == 2

    def test_sweep_requires_paths(self, eval_corpus, tmp_path):
        analysis = tmp_path / "analysis2"
        assert run("analyze", str(eval_corpus), "--out", str(analysis)) == 0
        assert run("eval", "--features", str(analysis / "features.csv"),
                   "--sweep", "1,3") == 2

    def test_catalog_requires_paths(self, eval_corpus, tmp_path, capsys):
        analysis = tmp_path / "analysis"
        assert run("analyze", str(eval_corpus), "--out", str(analysis)) == 0
        out = tmp_path / "eval.json"
        assert run("eval", "--features", str(analysis / "features.csv"),
                   "--catalog", str(tmp_path / "missing.txt"), "--out", str(out)) == 2
        assert "--catalog needs graph paths" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_bad_list_exits_before_any_graph_is_read(self, tmp_path, monkeypatch, capsys):
        corpus = gen_corpus(tmp_path)
        calls = []
        monkeypatch.setattr(community, "detect_multilevel", lambda *args: calls.append(args))
        for bad in ("0,1", "1,x", " , ", "1,nan", "-2"):
            capsys.readouterr()
            assert run("eval", str(corpus), "--sweep", bad) == 2
            assert "--sweep" in capsys.readouterr().err
        assert calls == []

    def test_rows_equal_single_threshold_runs(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        flags = ["--folds", "3"]
        thresholds = ["1", "2", "3", "4", "5"]
        out = tmp_path / "sweep.json"
        assert run("eval", str(corpus), *flags, "--sweep", ",".join(thresholds),
                   "--out", str(out)) == 0
        rows = json.loads(out.read_text())["sweep"]
        assert len(rows) == len(thresholds)
        assert len({json.dumps(row["macro"]) for row in rows}) > 1
        for t, row in zip(thresholds, rows):
            single = tmp_path / f"t{t}.json"
            assert run("eval", str(corpus), *flags, "--threshold", t,
                       "--out", str(single)) == 0
            payload = json.loads(single.read_text())
            assert row == {"threshold": float(t), "samples": payload["samples"],
                           **payload["report"]}


def track_loads(monkeypatch, tmp_path):
    """Wrap ``pipeline.load_graph``; return a log of, per load, how many
    graphs that its process loaded before it are still alive when it starts."""
    refs, alive = [], ProcessLog(tmp_path / "alive.jsonl")
    real = pipeline.load_graph

    def load_graph(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        graph = real(*args, **kwargs)
        refs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(pipeline, "load_graph", load_graph)
    return alive


class TestGenStreaming:
    def test_writes_each_graph_before_generating_the_next(self, tmp_path, monkeypatch):
        refs = []
        alive, writes = ProcessLog(tmp_path / "alive.jsonl"), ProcessLog(tmp_path / "writes.jsonl")
        real_generate, real_write = generate.generate_graph, cli._write_text

        def generate_graph(*args):
            alive.append(sum(ref() is not None for ref in refs))
            graph, truth = real_generate(*args)
            refs.append(weakref.ref(graph))
            return graph, truth

        def write_text(path, text):
            writes.append([os.getpid(), len(refs), path.name])
            real_write(path, text)

        monkeypatch.setattr(generate, "generate_graph", generate_graph)
        monkeypatch.setattr(cli, "_write_text", write_text)
        gen_corpus(tmp_path)
        # In each process, one write per graph, each right after its graph;
        # then this process writes the manifest.
        *graphs, manifest = writes.values()
        assert manifest[0] == os.getpid() and manifest[2] == "manifest.json"
        per_process = {}
        for pid, generated, _ in graphs:
            per_process.setdefault(pid, []).append(generated)
        assert sum(map(len, per_process.values())) == 6
        for made in per_process.values():
            assert made == list(range(1, len(made) + 1))
        assert manifest[1] == len(per_process[os.getpid()])
        assert alive.values() == [0] * 6

    def test_peak_memory_flat_in_corpus_size(self, tmp_path):
        small = ["--nodes", "400", "--communities", "16", "--intra-p", "0.15"]

        def peak(count):
            tracemalloc.start()
            try:
                assert run("gen", "--benign", count, "--covert", count, *small,
                           "--out", str(tmp_path / count)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak("1")
        assert peak("20") < 1.5 * one


class TestStreaming:
    @pytest.mark.parametrize("command,max_per_graph", [
        (["analyze", "--out", "analysis"], 1),
        (["eval", "--folds", "3", "--sweep", "1,2,3,4,5", "--out", "eval.json"], 2),
    ], ids=["analyze", "eval_sweep"])
    def test_one_graph_in_memory(self, tmp_path, monkeypatch, command, max_per_graph):
        corpus = gen_corpus(tmp_path)
        alive = track_loads(monkeypatch, tmp_path)
        featurized_log = ProcessLog(tmp_path / "featurized.jsonl")
        real = pipeline.featurize

        def featurize(outcome, catalog):
            featurized_log.append(outcome.suspicious_subgraph.app_id)
            return real(outcome, catalog)

        monkeypatch.setattr(pipeline, "featurize", featurize)
        name, *flags = command
        flags[-1] = str(tmp_path / flags[-1])
        assert run(name, str(corpus), *flags) == 0
        assert alive.values() == [0] * 6
        featurized = Counter(featurized_log.values())
        # Each generated graph has one sensitive community, so the main
        # threshold and the sweep give at most two suspicious unions.
        assert len(featurized) == 6
        assert max(featurized.values()) <= max_per_graph

    def test_features_csv_written_row_by_row(self, tmp_path, monkeypatch):
        # The feature file is handed to the writer as lines made one at a
        # time, never as one string of every row; the lines are the file.
        corpus = gen_corpus(tmp_path)
        lines = []
        real = cli._write_text

        def write_text(path, text):
            if path.name == "features.csv":
                assert not isinstance(text, str)
                text = (lines.append(line) or line for line in text)
            real(path, text)

        monkeypatch.setattr(cli, "_write_text", write_text)
        out = tmp_path / "analysis"
        assert run("analyze", str(corpus), "--out", str(out)) == 0
        assert len(lines) == 7 and all(line.count("\r\n") == 1 for line in lines)
        assert "".join(lines).encode("utf-8") == (out / "features.csv").read_bytes()

    def test_duplicate_app_ids_keep_argument_order(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        twin_dir = tmp_path / "twins"
        twin_dir.mkdir()
        twin = make_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)],
                          app_id="benign-0001", label="malware")
        (twin_dir / "twin.json").write_text(serialize_graph(twin))
        big = len(json.loads((corpus / "benign-0001.json").read_text())["nodes"])
        for dirs, nodes, labels in (
            ((corpus, twin_dir), [big, 6], ["benign", "malware"]),
            ((twin_dir, corpus), [6, big], ["malware", "benign"]),
        ):
            out = tmp_path / f"analysis-{dirs[0].name}"
            assert run("analyze", *map(str, dirs), "--out", str(out)) == 0
            reports = json.loads((out / "partitions.json").read_text())
            samples = read_features_csv(out / "features.csv")
            ids = [r["app_id"] for r in reports]
            assert ids == sorted(ids) == [s.app_id for s in samples]
            assert [r["nodes"] for r in reports if r["app_id"] == "benign-0001"] == nodes
            assert [s.label for s in samples if s.app_id == "benign-0001"] == labels

    def test_error_precedence(self, tmp_path, monkeypatch, capsys):
        corpus = gen_corpus(tmp_path)
        junk = tmp_path / "junk"
        junk.mkdir()
        (junk / "a.json").write_text("{")
        (junk / "b.json").write_text("[]")

        def detect(*args):
            raise InputError("synthetic bad input")

        monkeypatch.setattr(community, "detect_multilevel", detect)
        capsys.readouterr()
        for command in ("analyze", "eval"):
            assert run(command, str(junk), "--out", str(tmp_path / command)) == 2
            assert "no readable graph documents among 2 file(s)" in capsys.readouterr().err
        assert run("analyze", str(junk), str(corpus), "--out", str(tmp_path / "a")) == 2
        assert "every graph in the corpus failed to analyze" in capsys.readouterr().err
        assert run("eval", str(junk), str(corpus), "--out", str(tmp_path / "e")) == 2
        assert "need both classes, got []" in capsys.readouterr().err


class TestCrossProcessDeterminism:
    def test_gen_identical_across_hash_seeds(self, tmp_path):
        # The children import the same homgraph as this process: src/ in a
        # checkout, site-packages when installed. The rest of the environment
        # stays minimal so the parent's PYTHONHASHSEED cannot leak in.
        import_root = str(Path(homgraph.__file__).resolve().parent.parent)
        outputs = []
        for tag, hash_seed in (("a", "1"), ("b", "99")):
            out = tmp_path / tag
            env = {
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": import_root,
                "PATH": "/usr/bin:/bin",
            }
            proc = subprocess.run(
                [sys.executable, "-m", "homgraph.cli", "gen", "--benign", "2",
                 "--covert", "2", "--seed", "4", "--out", str(out)],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            tree = read_tree(out)
            # 4 graph documents plus the manifest, so two empty or partial
            # trees cannot compare equal.
            assert len(tree) == 5 and "manifest.json" in tree, sorted(tree)
            outputs.append(tree)
        assert outputs[0] == outputs[1]


def break_one_graph(monkeypatch, corpus):
    """Make community detection raise KeyError, an internal fault, on one graph."""
    target = min(p.stem for p in corpus.glob("*.json") if p.name != "manifest.json")
    real = community.detect_multilevel

    def detect(graph, seed=0):
        if graph.app_id == target:
            raise KeyError("synthetic fault")
        return real(graph, seed)

    monkeypatch.setattr(community, "detect_multilevel", detect)


class TestInternalErrorsNotDropped:
    def test_analyze_exit_3(self, tmp_path, monkeypatch):
        corpus = gen_corpus(tmp_path)
        break_one_graph(monkeypatch, corpus)
        out = tmp_path / "analysis"
        assert run("analyze", str(corpus), "--out", str(out)) == 3
        assert not (out / "features.csv").exists()

    def test_eval_sweep_exit_3(self, tmp_path, monkeypatch):
        corpus = gen_corpus(tmp_path)
        break_one_graph(monkeypatch, corpus)
        assert run("eval", str(corpus), "--folds", "2", "--sweep", "1,3",
                   "--out", str(tmp_path / "sweep.json")) == 3

    def test_threshold_sweep_raises(self, tmp_path, monkeypatch):
        corpus = gen_corpus(tmp_path)
        target = min(p.stem for p in corpus.glob("*.json") if p.name != "manifest.json")
        real = homophily.at_thresholds

        def at_thresholds(graph, *args):
            if graph.app_id == target:
                raise KeyError("synthetic fault")
            return real(graph, *args)

        monkeypatch.setattr(homophily, "at_thresholds", at_thresholds)
        with pytest.raises(KeyError):
            pipeline.analyze_corpus(pipeline.read_graphs([corpus]), load_catalog(),
                                    sweep=(1.0, 3.0))


class TestFeatureFileValidation:
    def write_with(self, src, dst, cells):
        lines = src.read_text().splitlines(keepends=True)
        header = lines[0].rstrip("\r\n").split(",")
        for line_no, column, text in cells:
            row = lines[line_no - 1].rstrip("\r\n").split(",")
            row[header.index(column)] = text
            lines[line_no - 1] = ",".join(row) + "\r\n"
        dst.write_text("".join(lines))
        return dst

    def test_non_finite_values_exit_2(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        analysis = tmp_path / "analysis"
        assert run("analyze", str(corpus), "--out", str(analysis)) == 0
        src = analysis / "features.csv"
        both = self.write_with(src, tmp_path / "both.csv",
                               [(2, "presence[0]", "nan"), (3, "ratio[0][021D]", "inf")])
        capsys.readouterr()
        assert run("eval", "--features", str(both), "--folds", "2") == 2
        assert f"{both}:2: column presence[0]: 'nan'" in capsys.readouterr().err
        only_inf = self.write_with(src, tmp_path / "inf.csv", [(3, "ratio[0][021D]", "-inf")])
        assert run("eval", "--features", str(only_inf), "--folds", "2") == 2
        assert f"{only_inf}:3: column ratio[0][021D]: '-inf'" in capsys.readouterr().err

    def test_non_numeric_value_exit_2(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        analysis = tmp_path / "analysis"
        assert run("analyze", str(corpus), "--out", str(analysis)) == 0
        bad = self.write_with(analysis / "features.csv", tmp_path / "bad.csv",
                              [(4, "presence[1]", "yes")])
        capsys.readouterr()
        assert run("eval", "--features", str(bad), "--folds", "2") == 2
        assert f"{bad}:4: column presence[1]" in capsys.readouterr().err


class TestUndecodableInput:
    """Bad UTF-8, JSON nested past the recursion limit and CSV fields past the
    csv module's limit are input errors (exit 2, naming the file), not
    internal errors."""

    BAD_UTF8 = '{"app_id": "a\xff", "nodes": [{"id": 0, "name": "f"}]}'.encode("latin-1")
    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize("content", [BAD_UTF8, DEEP.encode()], ids=["utf8", "deep"])
    def test_graph_file_exit_2(self, tmp_path, content, capsys):
        path = tmp_path / "g.json"
        path.write_bytes(content)
        assert run("partition", str(path)) == 2
        err = capsys.readouterr().err
        assert "homgraph: error: " in err and str(path) in err
        assert "Traceback" not in err

    def test_catalog_file_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(serialize_graph(make_graph(3, [(0, 1)])))
        catalog = tmp_path / "cat.txt"
        catalog.write_bytes(b"api.one\n\xfe\xfeapi.two\n")
        assert run("partition", str(graph), "--catalog", str(catalog)) == 2
        assert f"cannot read catalog {catalog}: 'utf-8' codec" in capsys.readouterr().err

    def test_features_file_exit_2(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        analysis = tmp_path / "analysis"
        assert run("analyze", str(corpus), "--out", str(analysis)) == 0
        bad = tmp_path / "bad.csv"
        text = (analysis / "features.csv").read_bytes()
        bad.write_bytes(text.replace(b"malware", b"mal\xffware", 1))
        capsys.readouterr()
        assert run("eval", "--features", str(bad), "--folds", "2") == 2
        assert f"cannot read features file {bad}: 'utf-8' codec" in capsys.readouterr().err

    def test_oversized_csv_field_exit_2(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("app_id,label,presence[0]\na,benign," + "1" * 200_000 + "\n")
        assert run("eval", "--features", str(big)) == 2
        assert f"cannot read features file {big}: field larger" in capsys.readouterr().err

    def test_analyze_directory_skips_them(self, tmp_path, caplog):
        corpus = gen_corpus(tmp_path)
        (corpus / "bad_utf8.json").write_bytes(self.BAD_UTF8)
        (corpus / "deep.json").write_text(self.DEEP)
        out = tmp_path / "analysis"
        assert run("analyze", str(corpus), "--out", str(out)) == 0
        assert len(read_features_csv(out / "features.csv")) == 6
        assert f"skipping {corpus / 'bad_utf8.json'}: cannot read graph" in caplog.text
        assert f"skipping {corpus / 'deep.json'}: {corpus / 'deep.json'}: not valid" in caplog.text


class TestUnwritableOut:
    def test_partition_out_is_directory(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        graph = next(p for p in sorted(corpus.iterdir()) if p.name.startswith("benign"))
        target = tmp_path / "a_dir"
        target.mkdir()
        capsys.readouterr()
        assert run("partition", str(graph), "--out", str(target)) == 2
        err = capsys.readouterr().err
        assert str(target) in err and "Traceback" not in err

    def test_analyze_out_is_file(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        target = tmp_path / "a_file"
        target.write_text("keep")
        capsys.readouterr()
        assert run("analyze", str(corpus), "--out", str(target)) == 2
        err = capsys.readouterr().err
        assert str(target) in err and "Traceback" not in err
        assert target.read_text() == "keep"

    def test_analyze_features_csv_is_directory(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        target = tmp_path / "analysis" / "features.csv"
        target.mkdir(parents=True)
        capsys.readouterr()
        assert run("analyze", str(corpus), "--out", str(target.parent)) == 2
        err = capsys.readouterr().err
        assert f"cannot write {target}" in err and "Traceback" not in err

    def test_gen_out_is_file(self, tmp_path):
        target = tmp_path / "a_file"
        target.write_text("keep")
        assert run("gen", "--benign", "1", "--out", str(target)) == 2
