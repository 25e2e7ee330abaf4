"""numpy stays the only runtime dependency: every import in the package
names the standard library, numpy, or the package itself. Importing the
CLI also stays cheap: it loads no process-pool module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homgraph

SOURCES = sorted((Path(__file__).parent.parent / "src" / "homgraph").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy"}


def imported_roots(path):
    """Top-level module of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert set(imported_roots(path)) - ALLOWED - {"homgraph"} == set()


def test_sources_found():
    assert len(SOURCES) >= 9


def test_cli_import_loads_no_process_pool():
    # Workers are plain os.fork children with pickled results, so importing
    # the CLI pays for neither multiprocessing nor concurrent.futures.
    import_root = str(Path(homgraph.__file__).resolve().parent.parent)
    code = ("import sys, homgraph.cli; print(sorted(m for m in sys.modules if "
            "m.partition('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": import_root}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
