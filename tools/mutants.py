"""Operator mutation testing with the standard library alone.

    python tools/mutants.py MODULE FUNCTION [FUNCTION ...] --tests TEST [TEST ...]
                            [--out TABLE.json]

Run from the root of the repository.  MODULE is a source file, for example
src/signedkn/search.py, and each FUNCTION a function in it, or a method as
Class.method.  Every operator site inside those functions, docstrings
excluded, gives one mutant with one change:

    + <-> -, * -> +, / -> *, // -> *, ^ -> |, | -> ^, & -> |, << -> >>
    (augmented assignments too), > <-> >=, < <-> <=, == <-> !=,
    the int and float constants 1, 2 and 4 -> one more, and the numpy
    ufuncs bitwise_or <-> bitwise_xor, left_shift -> right_shift,
    negative -> invert.

The mutant is the function unparsed with its one change, put in place of
the function's lines in a copy of the repository; the rest of the file,
comments included, is left as it is.  The unchanged function, unparsed the
same way, must pass first, and its run's time sets the timeout: ten times
as long.  Each mutant then runs as

    python -m pytest -x -q -p no:cacheprovider TEST ...

in the copy, with its src on PYTHONPATH and no bytecode written, under
that timeout.  A mutant is "killed" when pytest fails, "survived" when it
passes, and "never ends" when the timeout stops it: a mutant that hangs
the suite is a fault the suite does not report, so it is not counted as
killed.  The JSON table goes to --out, or to stdout, and one progress
line per mutant to stderr.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

BINOPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Add,
    ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult,
    ast.BitXor: ast.BitOr,
    ast.BitOr: ast.BitXor,
    ast.BitAnd: ast.BitOr,
    ast.LShift: ast.RShift,
}
COMPARISONS = {
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}
CONSTANTS = (1, 2, 4)
# a mutant may run this many times as long as the unchanged function's run
TIMEOUT_FACTOR = 10
UFUNCS = {
    "bitwise_or": "bitwise_xor",
    "bitwise_xor": "bitwise_or",
    "left_shift": "right_shift",
    "negative": "invert",
}


def find_function(tree: ast.Module, name: str) -> ast.FunctionDef:
    """The function, or Class.method, called name in tree."""
    scope: list[ast.stmt] = tree.body
    *outer, last = name.split(".")
    for part in outer:
        scope = next(n for n in scope if isinstance(n, ast.ClassDef) and n.name == part).body
    for node in scope:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == last:
            return node
    raise SystemExit(f"no function {name}")


def body_nodes(func: ast.FunctionDef) -> list[ast.AST]:
    """Every node of func's body, docstring excluded, in a fixed order."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return [node for stmt in body for node in ast.walk(stmt)]


def mutations(node: ast.AST) -> list[tuple[str, object]]:
    """(label, change) for each mutant of node; change is what apply takes."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOPS:
        new = BINOPS[type(node.op)]
        return [(f"{type(node.op).__name__} -> {new.__name__}", new)]
    if isinstance(node, ast.Compare):
        swaps = [(i, type(op), COMPARISONS.get(type(op))) for i, op in enumerate(node.ops)]
        return [(f"{op.__name__} -> {new.__name__}", (i, new)) for i, op, new in swaps if new]
    if (
        isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value in CONSTANTS
    ):
        return [(f"{node.value!r} -> {node.value + 1!r}", node.value + 1)]
    if isinstance(node, ast.Attribute) and node.attr in UFUNCS:
        return [(f"{node.attr} -> {UFUNCS[node.attr]}", UFUNCS[node.attr])]
    return []


def apply(node: ast.AST, change: object) -> None:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = change()
    elif isinstance(node, ast.Compare):
        i, op = change
        node.ops[i] = op()
    elif isinstance(node, ast.Constant):
        node.value = change
    else:
        node.attr = change


def spliced(lines: list[str], func: ast.FunctionDef) -> str:
    """The module's lines with func's def..end lines replaced by func
    unparsed, at its indentation; its decorators stay as they are."""
    func = copy.copy(func)
    func.decorator_list = []
    text = textwrap.indent(ast.unparse(func), " " * func.col_offset)
    return "".join(lines[: func.lineno - 1]) + text + "\n" + "".join(lines[func.end_lineno :])


def run_tests(root: Path, tests: list[str], timeout: float | None) -> tuple[str, str, float]:
    """(status, first failure line, seconds) of one pytest run in root."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:
        # the timeout, or the runner itself stopped: end pytest and its children
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return "never ends", "", round(time.perf_counter() - start, 1)
    seconds = round(time.perf_counter() - start, 1)
    if proc.returncode == 0:
        return "survived", "", seconds
    failure = next(
        (line for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))),
        out.strip().splitlines()[-1] if out.strip() else f"exit {proc.returncode}",
    )
    return "killed", failure, seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module")
    parser.add_argument("functions", nargs="+")
    parser.add_argument("--tests", nargs="+", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    # stopped by a signal, the runner still removes its copy of the repository
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    source = Path(args.module).read_text()
    lines = source.splitlines(keepends=True)
    table, timeouts = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(
            ".", root,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_state"
            ),
        )
        target = root / args.module
        for name in args.functions:
            func = find_function(ast.parse(source), name)
            target.write_text(spliced(lines, func))
            status, failure, seconds = run_tests(root, args.tests, None)
            if status != "survived":
                raise SystemExit(f"{name} unparsed but unchanged does not pass: {failure}")
            timeouts[name] = timeout = round(TIMEOUT_FACTOR * seconds, 1)
            nodes = body_nodes(func)
            sites = [(i, m) for i, node in enumerate(nodes) for m in mutations(node)]
            for i, (label, change) in sites:
                # a fresh parse per mutant, so each carries one change
                mutant = find_function(ast.parse(source), name)
                node = body_nodes(mutant)[i]
                apply(node, change)
                target.write_text(spliced(lines, mutant))
                status, failure, seconds = run_tests(root, args.tests, timeout)
                row = {
                    "function": name,
                    "line": node.lineno,
                    "source": lines[node.lineno - 1].strip(),
                    "mutation": label,
                    "status": status,
                    "first_failure": failure,
                    "seconds": seconds,
                }
                table.append(row)
                print(f"{name}:{row['line']} {label}: {status} ({seconds} s)", file=sys.stderr)

    statuses = ("killed", "survived", "never ends")
    counts = {s: sum(r["status"] == s for r in table) for s in statuses}
    by_function = {
        name: f"{sum(r['status'] == 'killed' for r in table if r['function'] == name)}"
        f"/{sum(r['function'] == name for r in table)}"
        for name in args.functions
    }
    result = {
        "module": args.module,
        "tests": args.tests,
        "timeout_s": timeouts,
        "total": len(table),
        **counts,
        "by_function": by_function,
        "table": table,
    }
    text = json.dumps(result, indent=1, ensure_ascii=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
