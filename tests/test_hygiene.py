"""Unused-import guard: every name a module imports must be referenced in it.

No linter ships with the package, so this parses the sources with ast.
`__init__.py` re-exports names and is exempt, and so is any import
statement marked `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p
    for p in [*ROOT.glob("src/signedkn/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"
)


def _imported_names(tree: ast.Module, lines: list[str]):
    """(bound name, line) for each import outside `__future__` and noqa."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            aliases = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "# noqa: F401" in text:
            continue
        for name in aliases:
            yield name, node.lineno


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        (name, line)
        for name, line in _imported_names(tree, source.splitlines())
        if name not in used
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_unused_and_honours_noqa():
    src = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,\n"
        ")\n"
        "def f(x) -> float:\n"
        "    return numpy.linalg.norm(x) * pi\n"
    )
    assert unused_imports(src) == [("os", 2), ("osp", 2), ("tau", 5)]
