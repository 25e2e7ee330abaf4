"""Worker processes of the corpus commands (``pipeline.fork_map``).

``gen``, ``analyze`` and ``eval`` run ``items[k::W]`` in process k, where
process 0 is the command's own. Their output files, their skip warnings and
their exit codes must not depend on W, and no worker may outlive the
command. W is forced here by replacing ``pipeline.worker_count``.
"""

import logging
import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import homgraph
from homgraph import community, pipeline
from homgraph.cli import main
from homgraph.model import InputError

import test_golden_outputs as golden

IMPORT_ROOT = str(Path(homgraph.__file__).resolve().parent.parent)


@pytest.fixture(autouse=True)
def time_limit():
    """A hang in a worker or in a wait fails the test rather than stalling
    the suite; the alarm is not inherited by forked workers."""
    def expire(signum, frame):
        raise TimeoutError("test ran over 300 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(300)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(pipeline, "worker_count", lambda: workers)


def count_forks(monkeypatch):
    """Wrap ``os.fork``; the list gains one entry per fork in this process."""
    forks, real = [], os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class Unpicklable(Exception):
    def __init__(self, first, second):  # pickle calls it with one argument
        super().__init__(f"{first} {second}")


class TestForkMap:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("size", [0, 1, 5, 7])
    def test_results_in_item_order_with_share_k_in_process_k(self, monkeypatch,
                                                             workers, size):
        force_workers(monkeypatch, workers)
        forks = count_forks(monkeypatch)
        out = pipeline.fork_map(lambda x: (x * x, os.getpid()), list(range(size)))
        assert [square for square, _ in out] == [x * x for x in range(size)]
        used = min(workers, size)
        assert len(forks) == max(used - 1, 0)
        pids = [pid for _, pid in out]
        shares = [set(pids[k::used]) for k in range(used)]
        assert all(len(share) == 1 for share in shares) and len(set(pids)) == used
        assert not shares or shares[0] == {os.getpid()}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_item_decides(self, monkeypatch, workers):
        # At W = 3 the failing items 4, 5 and 6 sit in three different shares.
        force_workers(monkeypatch, workers)

        def fn(x):
            if x in (4, 5, 6):
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="item 4"):
            pipeline.fork_map(fn, list(range(9)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_exception_keeps_its_traceback(self, monkeypatch):
        force_workers(monkeypatch, 2)

        def fail_in_worker(x):
            if x == 1:
                raise KeyError("synthetic fault")
            return x

        with pytest.raises(KeyError) as info:
            pipeline.fork_map(fail_in_worker, [0, 1])
        assert "in fail_in_worker" in str(info.value.__cause__)

    def test_exception_that_cannot_cross_the_pipe(self, monkeypatch):
        force_workers(monkeypatch, 2)

        def fn(x):
            if x == 1:
                raise Unpicklable("a", "b")
            return x

        with pytest.raises(RuntimeError, match="Unpicklable: a b"):
            pipeline.fork_map(fn, [0, 1])

    def test_worker_count_is_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert pipeline.worker_count() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert pipeline.worker_count() == 5


class TestProcesses:
    @pytest.fixture
    def corpus(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["gen", "--benign", "3", "--covert", "3", "--seed", "7",
                     "--out", str(out)]) == 0
        return out

    def record_threads(self, monkeypatch):
        started, real = [], threading.Thread.start

        def start(thread, *args, **kwargs):
            started.append(thread)
            return real(thread, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", start)
        return started

    @pytest.mark.parametrize("graphs,cpus", [(1, 4), (6, 1)], ids=["one_graph", "one_cpu"])
    def test_forks_nothing_and_starts_no_thread(self, corpus, tmp_path, monkeypatch,
                                                graphs, cpus):
        force_workers(monkeypatch, cpus)
        paths = sorted(p for p in corpus.glob("*.json") if p.name != "manifest.json")
        forks = count_forks(monkeypatch)
        started = self.record_threads(monkeypatch)
        threads = threading.active_count()
        assert main(["analyze", *map(str, paths[:graphs]), "--out", str(tmp_path / "a")]) == 0
        assert forks == [] and started == []
        assert threading.active_count() == threads

    def test_forked_run_starts_no_thread_and_leaves_no_child(self, corpus, tmp_path,
                                                             monkeypatch):
        force_workers(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        started = self.record_threads(monkeypatch)
        threads = threading.active_count()
        assert main(["analyze", str(corpus), "--out", str(tmp_path / "a")]) == 0
        assert len(forks) == 2 and started == []
        assert threading.active_count() == threads
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


UNREADABLE = "benign-0000x.json"  # sorts right after benign-0000.json
SKIPPED = "malware-0000"


@pytest.fixture(scope="module")
def skip_corpus(tmp_path_factory):
    """4 + 4 graphs plus one unreadable file; the unreadable file and the
    graph ``SKIPPED`` sit in a worker's share at W = 2 and at W = 3."""
    out = tmp_path_factory.mktemp("workers") / "corpus"
    assert main(["gen", "--benign", "4", "--covert", "4", "--seed", "5",
                 "--out", str(out)]) == 0
    (out / UNREADABLE).write_text("{not json")
    names = [p.name for p in pipeline.graph_files([out])]
    for name in (UNREADABLE, f"{SKIPPED}.json"):
        assert all(names.index(name) % w for w in (2, 3)), names
    return out


class TestWorkerCountDoesNotMatter:
    COMMANDS = {
        "gen": ["gen", "--benign", "4", "--covert", "4", "--seed", "5"],
        "analyze": ["analyze", "{corpus}"],
        "eval": ["eval", "{corpus}", "--sweep", "1,3", "--folds", "3"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_same_files_and_warnings_at_one_two_and_three_workers(
            self, skip_corpus, tmp_path, monkeypatch, caplog, command):
        real = community.detect_multilevel

        def detect(graph, seed=0):
            if graph.app_id == SKIPPED:
                raise InputError("synthetic bad input")
            return real(graph, seed)

        monkeypatch.setattr(community, "detect_multilevel", detect)
        forks = count_forks(monkeypatch)
        trees, warnings = [], []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            forks.clear()
            caplog.clear()
            out = tmp_path / f"w{workers}"
            argv = [a.format(corpus=skip_corpus) for a in self.COMMANDS[command]]
            with caplog.at_level(logging.WARNING):
                assert main([*argv, "--out", str(out / "o")]) == 0
            assert len(forks) == workers - 1
            trees.append(read_tree(out))
            warnings.append([r.getMessage() for r in caplog.records
                             if r.levelno == logging.WARNING])
        assert trees[0] and trees[0] == trees[1] == trees[2]
        assert warnings[0] == warnings[1] == warnings[2]
        if command != "gen":
            assert [w.split(":")[0] for w in warnings[0]] == [
                f"skipping {skip_corpus / UNREADABLE}", f"skipping graph {SKIPPED!r}"]

    def test_golden_commands_at_one_worker(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 1)
        forks = count_forks(monkeypatch)
        gen, analyze = golden.commands(tmp_path)[:2]
        produced = golden.output_hashes(tmp_path, [gen, analyze])
        assert forks == []
        assert len(produced) == 15
        assert produced == {path: golden.GOLDEN[path] for path in produced}


FAULT_SCRIPT = """
import os, sys
from homgraph import cli, community, pipeline

mode, target, *argv = sys.argv[1:]
pipeline.worker_count = lambda: 2
real = community.detect_multilevel

def detect(graph, seed=0):
    if graph.app_id == target:
        if mode == "exit":
            os._exit(7)
        raise KeyError("synthetic fault")
    return real(graph, seed)

community.detect_multilevel = detect
sys.exit(cli.main(argv))
"""


def run_script(*args):
    """The fault script in a fresh interpreter; a hang fails the test."""
    env = {**os.environ, "PYTHONPATH": IMPORT_ROOT}
    return subprocess.run([sys.executable, "-c", FAULT_SCRIPT, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


class TestWorkerFaults:
    @pytest.fixture
    def corpus(self, tmp_path):
        out = tmp_path / "corpus"
        proc = run_script("none", "", "gen", "--benign", "3", "--covert", "3",
                          "--seed", "7", "--out", out)
        assert proc.returncode == 0, proc.stderr
        return out

    def test_internal_fault_in_a_worker_exits_3(self, corpus, tmp_path):
        # benign-0001 is item 1: the worker's share at W = 2.
        out = tmp_path / "analysis"
        proc = run_script("raise", "benign-0001", "analyze", corpus, "--out", out)
        assert proc.returncode == 3, proc.stderr
        assert "synthetic fault" in proc.stderr and "in detect" in proc.stderr
        assert not (out / "features.csv").exists()

    def test_worker_that_dies_without_a_result_exits_3(self, corpus, tmp_path):
        out = tmp_path / "analysis"
        proc = run_script("exit", "benign-0001", "analyze", corpus, "--out", out)
        assert proc.returncode == 3, proc.stderr
        assert "exited with code 7 before sending its results" in proc.stderr
        assert not (out / "features.csv").exists()

    def test_encode_fault_in_a_worker_writes_nothing(self, corpus, tmp_path, monkeypatch,
                                                      caplog):
        # A NaN in benign-0001's report, item 1: the worker's share at W = 2.
        force_workers(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        real = pipeline.partition_report

        def partition_report(graph, *args):
            report = real(graph, *args)
            return {**report, "q": math.nan} if graph.app_id == "benign-0001" else report

        monkeypatch.setattr(pipeline, "partition_report", partition_report)
        out = tmp_path / "analysis"
        assert main(["analyze", str(corpus), "--out", str(out)]) == 3
        assert len(forks) == 1 and "not JSON compliant" in caplog.text
        assert not (out / "features.csv").exists()
        assert not (out / "partitions.json").exists()

    def test_unwritable_graph_path_in_a_worker_exits_2(self, tmp_path):
        out = tmp_path / "corpus"
        blocked = out / "benign-0001.json"  # item 1: the worker's share
        blocked.mkdir(parents=True)
        proc = run_script("none", "", "gen", "--benign", "3", "--covert", "3",
                          "--seed", "7", "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert f"cannot write {blocked}" in proc.stderr and "Traceback" not in proc.stderr
        assert not (out / "manifest.json").exists()
