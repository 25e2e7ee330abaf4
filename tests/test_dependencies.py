"""numpy stays the only runtime dependency: every import in the package
names the standard library, numpy, or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

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
