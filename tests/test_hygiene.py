"""Source hygiene guards.

Unused imports: every name a module imports must be referenced in it.  No
linter ships with the package, so this parses the sources with ast.
`__init__.py` re-exports names and is exempt, and so is any import
statement marked `# noqa: F401`; such a statement binds exactly one name.

Dead helpers: every module-level `_`-prefixed function in the package must
be referenced, as a name or an attribute, somewhere in the package.

Doc drift: every name README's entry-point list gives for a module must
exist in that module, and every `$ signedkn …` example in README's fenced
blocks must show what the command prints.

One output owner: among the package modules only `cli.py` may import
`json`, `csv` or `io`; the library returns data and the CLI formats it.

One solver owner: among the package modules only `spectra.py` may name
`JACOBI_REL_TOL`, so the solver's stopping rule stays behind one module.

Independent oracles: `tests/oracles.py` imports nothing from signedkn, in
any spelling, so no oracle shares code with the package it checks.

Syntax floor: every package and test module parses as Python 3.10, the
oldest version pyproject.toml admits, whichever Python runs the suite.
ast's feature_version catches newer grammar such as `except*`, not newer
library names.

Test tooling: under the suite's warning filters a failing hypothesis test
is reported as one failure, and the tests after it still run.
"""

import ast
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from signedkn.cli import run

ROOT = Path(__file__).resolve().parent.parent
ALL_SOURCES = sorted([*ROOT.glob("src/signedkn/*.py"), *ROOT.glob("tests/*.py")])
SOURCES = [p for p in ALL_SOURCES if p.name != "__init__.py"]


def _imports(source: str):
    """(bound names, line, marked noqa) for each import outside `__future__`."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            aliases = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            aliases = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        yield aliases, node.lineno, "# noqa: F401" in text


def unused_imports(source: str) -> list[tuple[str, int]]:
    used = {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}
    return [
        (name, line)
        for aliases, line, noqa in _imports(source)
        if not noqa
        for name in aliases
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


def wide_noqa_imports(source: str) -> list[tuple[list[str], int]]:
    """(bound names, line) for each import marked `# noqa: F401` that does
    not bind exactly one name, so the mark exempts no name beside the one
    it is there for."""
    return [
        (aliases, line) for aliases, line, noqa in _imports(source) if noqa and len(aliases) != 1
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_noqa_imports_bind_one_name(path):
    assert wide_noqa_imports(path.read_text()) == []


def test_guard_flags_a_noqa_import_of_several_names():
    src = (
        "from json import dumps  # noqa: F401\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from math import (  # noqa: F401\n"
        "    pi,\n"
        "    tau,\n"
        ")\n"
        "import os, sys  # noqa: F401\n"
        "from csv import *  # noqa: F401\n"
        "from io import StringIO, BytesIO\n"
    )
    assert wide_noqa_imports(src) == [
        (["dumps", "loads"], 2), (["pi", "tau"], 3), (["os", "sys"], 7), ([], 8)
    ]


MIN_PYTHON = (3, 10)


def parses_on_min_python(source: str) -> bool:
    try:
        ast.parse(source, feature_version=MIN_PYTHON)
    except SyntaxError:
        return False
    return True


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_sources_parse_on_min_python(path):
    assert parses_on_min_python(path.read_text())


def test_guard_flags_syntax_newer_than_min_python():
    assert parses_on_min_python("try:\n    pass\nexcept ValueError:\n    pass\n")
    assert not parses_on_min_python("try:\n    pass\nexcept* ValueError:\n    pass\n")


def signedkn_imports(source: str) -> list[int]:
    """Lines that import signedkn or one of its modules, however spelled:
    `import signedkn.graphs as g`, `from signedkn import search`, or
    `__import__` or `import_module` called on a literal name."""

    def is_signedkn(name) -> bool:
        return isinstance(name, str) and name.partition(".")[0] == "signedkn"

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(is_signedkn(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.level == 0 and is_signedkn(node.module)
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            hit = name in ("__import__", "import_module") and is_signedkn(node.args[0].value)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_oracles_import_nothing_from_signedkn():
    assert signedkn_imports((ROOT / "tests" / "oracles.py").read_text()) == []


def test_guard_flags_every_spelling_of_a_signedkn_import():
    src = (
        "import signedkn\n"
        "from signedkn.graphs import build_broom\n"
        "from signedkn import search as s\n"
        "import numpy, signedkn.spectra as sp\n"
        "import signedknx\n"
        "from sympy import Matrix\n"
        "from .signedkn import x\n"
        "def f():\n"
        "    import signedkn.cli\n"
        "    return importlib.import_module('signedkn.graphs'), __import__('signedkn')\n"
        "print('signedkn')\n"
    )
    assert signedkn_imports(src) == [1, 2, 3, 4, 9, 10, 10]


FORMAT_MODULES = {"json", "csv", "io"}


def format_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) for each import of an output-format module, however
    it is spelled: `import json`, `import io as x`, `from csv import writer`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        out += [(m, node.lineno) for m in modules if m.partition(".")[0] in FORMAT_MODULES]
    return out


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(ROOT.glob("src/signedkn/*.py")) if p.name != "cli.py"],
    ids=lambda p: p.name,
)
def test_only_cli_imports_output_formats(path):
    assert format_imports(path.read_text()) == []


def test_guard_flags_every_spelling_of_a_format_import():
    src = (
        "import json\n"
        "import io as stream, math\n"
        "from csv import writer\n"
        "from json.decoder import JSONDecodeError\n"
        "import jsonschema\n"
        "from .io import read\n"
        "def f():\n"
        "    import csv\n"
    )
    assert format_imports(src) == [
        ("json", 1), ("io", 2), ("csv", 3), ("json.decoder", 4), ("csv", 8)
    ]


def solver_tolerance_uses(source: str) -> list[int]:
    """Lines that name JACOBI_REL_TOL: as a name, an attribute or an import."""
    name = "JACOBI_REL_TOL"
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and name in (node.name, node.asname))
    )


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(ROOT.glob("src/signedkn/*.py")) if p.name != "spectra.py"],
    ids=lambda p: p.name,
)
def test_only_spectra_names_the_solver_tolerance(path):
    assert solver_tolerance_uses(path.read_text()) == []


def test_guard_flags_every_use_of_the_solver_tolerance():
    src = (
        "import math\n"
        "from .spectra import (\n"
        "    JACOBI_REL_TOL,\n"
        "    tree_index,\n"
        ")\n"
        "from . import spectra\n"
        "band = 2 * JACOBI_REL_TOL * math.sqrt(12)\n"
        "tol = spectra.JACOBI_REL_TOL\n"
        "JACOBI_REL_TOLERANCE = 1.0\n"
        "from .spectra import tree_index as JACOBI_REL_TOL\n"
    )
    assert solver_tolerance_uses(src) == [3, 7, 8, 10]


def dead_private_functions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each module-level `_`-prefixed function that no
    name or attribute anywhere in sources refers to."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and node.name not in used
    ]


def test_no_dead_private_functions():
    sources = {p.name: p.read_text() for p in ROOT.glob("src/signedkn/*.py")}
    assert dead_private_functions(sources) == []


def test_guard_flags_a_dead_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    pass\n",
        "b.py": "from . import a\n\ndef _by_attribute():\n    a._used()\n\nf = _by_attribute\n",
    }
    assert dead_private_functions(sources) == [("a.py", "_dead")]


def readme_entry_points(text: str) -> dict[str, list[str]]:
    """module -> backticked identifiers of its bullet in README's "The main
    entry points" list (a bullet runs on over its indented lines)."""
    section = text.split("The main entry points:", 1)[1].split("\n\n", 2)[1]
    out: dict[str, list[str]] = {}
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        module, _, rest = bullet.partition(":")
        out[module.strip("`")] = re.findall(r"`([A-Za-z_]\w*)`", rest)
    return out


def test_readme_entry_points_exist():
    entries = readme_entry_points((ROOT / "README.md").read_text())
    assert entries
    for module, names in entries.items():
        mod = importlib.import_module(f"signedkn.{module}")
        assert names, module
        assert [n for n in names if not hasattr(mod, n)] == [], module


def readme_examples(text: str) -> list[tuple[list[str], list[str], bool]]:
    """(argv, shown lines, cut) for each `$ signedkn …` line in README's
    fenced blocks.  The shown lines run to the next blank, `$` or fence
    line; a `...` line, indented or not, ends them early and sets cut."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", text, flags=re.M | re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ signedkn "):
                continue
            shown, cut = [], False
            for out in lines[i + 1 :]:
                if not out or out.startswith("$ "):
                    break
                if out.strip() == "...":
                    cut = True
                    break
                shown.append(out)
            examples.append((shlex.split(line)[2:], shown, cut))
    return examples


README_EXAMPLES = readme_examples((ROOT / "README.md").read_text())


def test_readme_has_cli_examples():
    assert len(README_EXAMPLES) >= 5
    assert all(shown for _, shown, _ in README_EXAMPLES)


@pytest.mark.parametrize(
    "argv, shown, cut", README_EXAMPLES, ids=[" ".join(a) for a, _, _ in README_EXAMPLES]
)
def test_readme_example_shows_what_the_cli_prints(capsys, argv, shown, cut):
    assert run(argv) == 0
    out = capsys.readouterr().out
    if shown[0].startswith("{"):
        # JSON wrapped to fit the page: its lines join without separators
        got, want = out.replace("\n", ""), "".join(shown)
    else:
        got, want = out, "".join(line + "\n" for line in shown)
    if cut:
        got = got[: len(want)]
    assert got == want


def test_readme_examples_parse_cuts_and_wrapped_json():
    text = (
        "```\n$ signedkn verify --n 6 --k 3 --format text\nfirst\n  ...\nlast\n"
        "\n$ signedkn spectrum --prufer ''\n{\"a\": 1,\n \"b\": 2}\n```\n"
        "```\npip install -e .\n```\n"
    )
    assert readme_examples(text) == [
        (["verify", "--n", "6", "--k", "3", "--format", "text"], ["first"], True),
        (["spectrum", "--prufer", ""], ['{"a": 1,', ' "b": 2}'], False),
    ]


FAILING_GIVEN = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # hypothesis's failure report imports libcst, whose import warns; under
    # filterwarnings = ["error"] that warning would end the run as an
    # INTERNALERROR before test_after
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
