"""Command-line front end.

Subcommands: spectrum, balance, verify, sweep, chain, climb, enumerate.
This module alone writes the output formats (JSON, JSONL, CSV and text);
the library returns data. Each subcommand's handler returns its exit code
and its whole output text, which `run` writes once, to stdout or to --out;
diagnostics go to stderr.
Exit codes: 0 success, 1 usage or internal error, 2 when a verification
subcommand observes something the extremal statements rule out (argmax is
not the broom, a tie at the top, a non-monotone chain).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from pathlib import Path

from .balance import bipartition, find_negative_triangle
from .errors import MalformedInputError, SignedKnError
from .graphs import (
    PruferSequence,
    Tree,
    canonical_code,
    format_prufer,
    leaf_count,
    parse_edge_list,
    parse_prufer,
    prufer_decode,
    prufer_encode,
    random_tree_with_leaf_count,
    signed_complete_from_tree,
)
from .perturb import hill_climb
from .search import (
    CHAIN_GAP_TOL,
    SearchReport,
    double_star_chain,
    enumerate_tree_classes,
    verify_max_index,
)
from .spectra import spectrum_of, tree_index


class _UsageError(Exception):
    pass


class _ParserExit(Exception):
    """argparse ended the call itself (--help); args[0] is the exit status."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):  # only error() passes a message
        raise _ParserExit(status)


def _add_tree_input(p: _Parser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--prufer", help="comma-separated Prufer code (empty for n=2)")
    grp.add_argument("--edges", help="path to an edge-list file: 'n' then 'u v' lines")


def _add_output(p: _Parser, formats: tuple[str, ...], handler) -> None:
    """--format and --out, and the handler that returns the text they shape."""
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(handler=handler)


def _build_parser() -> _Parser:
    parser = _Parser(prog="signedkn")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("spectrum", help="adjacency spectrum of (K_n, T-)")
    _add_tree_input(p)
    _add_output(p, ("json", "text"), _cmd_spectrum)

    p = sub.add_parser("balance", help="balance flag with witness")
    _add_tree_input(p)
    _add_output(p, ("json", "text"), _cmd_balance)

    p = sub.add_parser("verify", help="exhaustive argmax check at one (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_output(p, ("json", "csv", "text"), _cmd_verify)

    p = sub.add_parser("sweep", help="verify across a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument(
        "--all-k",
        action="store_true",
        help="include the edge cases k=2, n-2, n-1 (default: 3 <= k <= n-3)",
    )
    _add_output(p, ("json", "csv", "text"), _cmd_sweep)

    p = sub.add_parser("chain", help="double-star chain at one n")
    p.add_argument("--n", type=int, required=True)
    _add_output(p, ("json", "csv", "text"), _cmd_chain)

    p = sub.add_parser("climb", help="hill climb from a random k-leaf tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=500)
    _add_output(p, ("json", "csv", "text"), _cmd_climb)

    p = sub.add_parser("enumerate", help="tree isomorphism classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--method", choices=("generate", "prufer"), default="generate")
    _add_output(p, ("json", "csv", "text"), _cmd_enumerate)

    return parser


def _load_tree(args) -> Tree:
    if args.prufer is not None:
        return prufer_decode(parse_prufer(args.prufer))
    try:
        text = Path(args.edges).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"edge list {args.edges} is not UTF-8: {exc}") from exc
    return parse_edge_list(text)


def _csv(header: list[str], rows) -> str:
    """CSV text with bare newline line ends; None is an empty cell, a float its repr."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _cmd_spectrum(args) -> tuple[int, str]:
    s = spectrum_of(signed_complete_from_tree(_load_tree(args)))
    if args.format == "json":
        payload = {
            "n": s.n,
            "values": [float(v) for v in s.values],
            "lambda1": s.lambda1,
            "lambdan": s.lambdan,
            "radius": s.radius,
        }
        return 0, json.dumps(payload) + "\n"
    lines = [
        f"n={s.n} lambda1={s.lambda1!r} lambdan={s.lambdan!r} "
        f"radius={s.radius!r}",
        "values: " + " ".join(repr(float(v)) for v in s.values),
    ]
    return 0, "\n".join(lines) + "\n"


def _cmd_balance(args) -> tuple[int, str]:
    g = signed_complete_from_tree(_load_tree(args))
    split = bipartition(g)
    if split is not None:
        plus, minus = (sorted(side) for side in split)
        payload = {"n": g.n, "balanced": True, "bipartition": [plus, minus]}
        text = f"balanced: plus={plus} minus={minus}"
    else:
        tri = find_negative_triangle(g)
        payload = {"n": g.n, "balanced": False, "negative_triangle": list(tri)}
        text = f"unbalanced: negative triangle {tri}"
    if args.format == "json":
        text = json.dumps(payload)
    return 0, text + "\n"


def _report_summary(r: SearchReport) -> dict:
    return {
        "n": r.n,
        "k": r.k,
        "mode": r.mode,
        "classes": len(r.classes),
        "argmax_code": r.argmax_code,
        "lambda1": max(c.lambda1 for c in r.classes),
        "runner_up_gap": r.runner_up_gap,
        "matches_broom": r.matches_broom,
        "tied": len(r.tied_codes),
    }


def _report_discovery(r: SearchReport) -> bool:
    return (not r.matches_broom) or len(r.tied_codes) > 1


def _cmd_verify(args) -> tuple[int, str]:
    r = verify_max_index(args.n, args.k)
    code = 2 if _report_discovery(r) else 0
    if args.format == "json":
        # the report's fields in their own order, but with the classes last
        payload = {f: v for f, v in vars(r).items() if f != "classes"}
        payload["classes"] = [vars(c) for c in r.classes]
        return code, json.dumps(payload) + "\n"
    prufers = [format_prufer(PruferSequence(c.prufer)) for c in r.classes]
    if args.format == "csv":
        header = ["n", "k", "canonical_code", "prufer", "leaf_count", "lambda1", "is_argmax"]
        rows = [
            [r.n, r.k, c.canonical_code, prufer, c.leaf_count, c.lambda1, c.is_argmax]
            for c, prufer in zip(r.classes, prufers)
        ]
        return code, _csv(header, rows)
    lines = [
        f"n={r.n} k={r.k} mode={r.mode} classes={len(r.classes)} "
        f"matches_broom={r.matches_broom} gap={r.runner_up_gap!r}",
    ]
    for c, prufer in zip(r.classes, prufers):
        mark = " *" if c.is_argmax else ""
        lines.append(f"  {c.canonical_code} prufer={prufer} lambda1={c.lambda1!r}{mark}")
    return code, "\n".join(lines) + "\n"


def _cmd_sweep(args) -> tuple[int, str]:
    if args.n_min > args.n_max:
        raise SignedKnError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    reports = [
        verify_max_index(n, k)
        for n in range(args.n_min, args.n_max + 1)
        for k in (range(2, n) if args.all_k else range(3, n - 2))
    ]
    summaries = [_report_summary(r) for r in reports]
    code = 2 if any(_report_discovery(r) for r in reports) else 0
    if args.format == "json":
        return code, json.dumps({"reports": summaries}) + "\n"
    if args.format == "csv":
        header = "n k mode classes argmax_code lambda1 runner_up_gap matches_broom tied"
        return code, _csv(header.split(), [s.values() for s in summaries])
    lines = [
        f"n={s['n']} k={s['k']} matches_broom={s['matches_broom']} "
        f"lambda1={s['lambda1']!r} gap={s['runner_up_gap']!r}"
        for s in summaries
    ]
    ok = sum(1 for s in summaries if s["matches_broom"])
    lines.append(f"{ok}/{len(summaries)} cases match the broom")
    return code, "\n".join(lines) + "\n"


def _cmd_chain(args) -> tuple[int, str]:
    rows = double_star_chain(args.n)
    gaps_ok = all(b[2] - a[2] > CHAIN_GAP_TOL for a, b in zip(rows, rows[1:]))
    code = 0 if gaps_ok else 2
    if args.format == "json":
        payload = {
            "n": args.n,
            "chain": [{"s": s, "t": t, "lambda1": lam} for s, t, lam in rows],
            "monotone": gaps_ok,
        }
        return code, json.dumps(payload) + "\n"
    if args.format == "csv":
        return code, _csv(["s", "t", "lambda1"], rows)
    lines = [f"T({s},{t}): lambda1={lam!r}" for s, t, lam in rows]
    lines.append("strictly increasing" if gaps_ok else "NOT strictly increasing")
    return code, "\n".join(lines) + "\n"


def _cmd_climb(args) -> tuple[int, str]:
    rng = random.Random(args.seed)
    start = random_tree_with_leaf_count(args.n, args.k, rng)
    final, trace = hill_climb(start, max_steps=args.max_steps)
    final_rec = {
        "n": args.n,
        "k": args.k,
        "seed": args.seed,
        "start_prufer": format_prufer(prufer_encode(start)),
        "final_prufer": format_prufer(prufer_encode(final)),
        "final_code": canonical_code(final),
        "final_lambda1": tree_index(final),
        "steps": len(trace),
    }
    if args.format == "csv":
        rows = [
            [st.step, st.kind, " ".join(str(v) for v in st.vertices), st.lambda1]
            for st in trace
        ]
        return 0, _csv(["step", "kind", "vertices", "lambda1"], rows)
    if args.format == "json":
        lines = [json.dumps(vars(st)) for st in trace]
        lines.append(json.dumps({"final": final_rec}))
    else:
        lines = [
            f"step {st.step}: {st.kind} {st.vertices} lambda1={st.lambda1!r}"
            for st in trace
        ]
        lines.append(
            f"final lambda1={final_rec['final_lambda1']!r} after {len(trace)} steps "
            f"(prufer {final_rec['final_prufer'] or 'empty'})"
        )
    return 0, "\n".join(lines) + "\n"


def _cmd_enumerate(args) -> tuple[int, str]:
    classes = enumerate_tree_classes(args.n, args.method, args.k)
    rows = [
        {
            "canonical_code": code,
            "prufer": format_prufer(prufer_encode(t)),
            "leaf_count": leaf_count(t),
        }
        for code, t in classes.items()
    ]
    if args.format == "json":
        payload = {"n": args.n, "count": len(rows), "classes": rows}
        return 0, json.dumps(payload) + "\n"
    if args.format == "csv":
        # quoted by hand: csv.writer leaves the 0- and 1-symbol codes (n <= 3) bare
        lines = ["canonical_code,prufer,leaf_count"]
        lines += [f"{r['canonical_code']},\"{r['prufer']}\",{r['leaf_count']}" for r in rows]
    else:
        lines = [
            f"{r['canonical_code']} prufer={r['prufer'] or '(empty)'} "
            f"leaves={r['leaf_count']}"
            for r in rows
        ]
        lines.append(f"{len(rows)} classes")
    return 0, "\n".join(lines) + "\n"


# Built once: each parser holds reference cycles that only the cyclic
# collector frees, so one per call piles up garbage across in-process calls.
_PARSER = _build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _ParserExit as exc:
        return exc.args[0]
    try:
        code, text = args.handler(args)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except (SignedKnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
