"""Command-line front end.

Subcommands: spectrum, balance, verify, sweep, chain, climb, enumerate.
Machine-readable output goes to stdout (or --out), diagnostics to stderr.
Exit codes: 0 success, 1 usage or internal error, 2 when a verification
subcommand observes something the extremal statements rule out (argmax is
not the broom, a tie at the top, a non-monotone chain).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .balance import bipartition, find_negative_triangle, is_balanced
from .errors import SignedKnError
from .graphs import (
    PruferSequence,
    Tree,
    _check_leaf_count,
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
from .perturb import hill_climb, trace_to_jsonl
from .search import (
    CHAIN_GAP_TOL,
    SearchReport,
    double_star_chain,
    enumerate_tree_classes,
    report_to_csv,
    report_to_json,
    verify_max_index,
)
from .spectra import spectrum_of, tree_index


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_tree_input(p: _Parser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--prufer", help="comma-separated Prufer code (empty for n=2)")
    grp.add_argument("--edges", help="path to an edge-list file: 'n' then 'u v' lines")


def _add_output(p: _Parser, formats: tuple[str, ...]) -> None:
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out", help="write output to this path instead of stdout")


def _build_parser() -> _Parser:
    parser = _Parser(prog="signedkn")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("spectrum", help="adjacency spectrum of (K_n, T-)")
    _add_tree_input(p)
    _add_output(p, ("json", "text"))

    p = sub.add_parser("balance", help="balance flag with witness")
    _add_tree_input(p)
    _add_output(p, ("json", "text"))

    p = sub.add_parser("verify", help="exhaustive argmax check at one (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_output(p, ("json", "csv", "text"))

    p = sub.add_parser("sweep", help="verify across a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument(
        "--all-k",
        action="store_true",
        help="include the edge cases k=2, n-2, n-1 (default: 3 <= k <= n-3)",
    )
    _add_output(p, ("json", "csv", "text"))

    p = sub.add_parser("chain", help="double-star chain at one n")
    p.add_argument("--n", type=int, required=True)
    _add_output(p, ("json", "csv", "text"))

    p = sub.add_parser("climb", help="hill climb from a random k-leaf tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=500)
    _add_output(p, ("json", "csv", "text"))

    p = sub.add_parser("enumerate", help="tree isomorphism classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--method", choices=("generate", "prufer"), default="generate")
    _add_output(p, ("json", "csv", "text"))

    return parser


def _load_tree(args) -> Tree:
    if args.prufer is not None:
        return prufer_decode(parse_prufer(args.prufer))
    return parse_edge_list(Path(args.edges).read_text())


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args) -> int:
    t = _load_tree(args)
    s = spectrum_of(signed_complete_from_tree(t))
    if args.format == "json":
        _emit(s.to_json() + "\n", args.out)
    else:
        lines = [
            f"n={s.n} lambda1={s.lambda1!r} lambdan={s.lambdan!r} "
            f"radius={s.radius!r}",
            "values: " + " ".join(repr(float(v)) for v in s.values),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_balance(args) -> int:
    t = _load_tree(args)
    g = signed_complete_from_tree(t)
    if is_balanced(g):
        plus, minus = bipartition(g)
        payload = {
            "n": g.n,
            "balanced": True,
            "bipartition": [sorted(plus), sorted(minus)],
        }
        text = f"balanced: plus={sorted(plus)} minus={sorted(minus)}"
    else:
        tri = find_negative_triangle(g)
        payload = {"n": g.n, "balanced": False, "negative_triangle": list(tri)}
        text = f"unbalanced: negative triangle {tri}"
    if args.format == "json":
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        _emit(text + "\n", args.out)
    return 0


def _report_summary(r: SearchReport) -> dict:
    best = next(c for c in r.classes if c.is_argmax)
    return {
        "n": r.n,
        "k": r.k,
        "mode": r.mode,
        "classes": len(r.classes),
        "argmax_code": r.argmax_code,
        "lambda1": best.lambda1,
        "runner_up_gap": r.runner_up_gap,
        "matches_broom": r.matches_broom,
        "tied": len(r.tied_codes),
    }


def _report_discovery(r: SearchReport) -> bool:
    return (not r.matches_broom) or len(r.tied_codes) > 1


def _cmd_verify(args) -> int:
    r = verify_max_index(args.n, args.k)
    if args.format == "json":
        _emit(report_to_json(r) + "\n", args.out)
    elif args.format == "csv":
        _emit(report_to_csv(r), args.out)
    else:
        s = _report_summary(r)
        lines = [
            f"n={r.n} k={r.k} mode={r.mode} classes={s['classes']} "
            f"matches_broom={r.matches_broom} gap={r.runner_up_gap!r}",
        ]
        for c in r.classes:
            mark = " *" if c.is_argmax else ""
            prufer = format_prufer(PruferSequence(r.n, c.prufer))
            lines.append(
                f"  {c.canonical_code} prufer={prufer} lambda1={c.lambda1!r}{mark}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 2 if _report_discovery(r) else 0


def _cmd_sweep(args) -> int:
    if args.n_min > args.n_max:
        raise SignedKnError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    summaries = []
    discovery = False
    for n in range(args.n_min, args.n_max + 1):
        ks = range(2, n) if args.all_k else range(3, n - 2)
        for k in ks:
            r = verify_max_index(n, k)
            summaries.append(_report_summary(r))
            discovery = discovery or _report_discovery(r)
    if args.format == "json":
        _emit(json.dumps({"reports": summaries}) + "\n", args.out)
    elif args.format == "csv":
        lines = ["n,k,mode,classes,argmax_code,lambda1,runner_up_gap,matches_broom,tied"]
        for s in summaries:
            gap = "" if s["runner_up_gap"] is None else repr(s["runner_up_gap"])
            lines.append(
                f"{s['n']},{s['k']},{s['mode']},{s['classes']},{s['argmax_code']},"
                f"{s['lambda1']!r},{gap},{s['matches_broom']},{s['tied']}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [
            f"n={s['n']} k={s['k']} matches_broom={s['matches_broom']} "
            f"lambda1={s['lambda1']!r} gap={s['runner_up_gap']!r}"
            for s in summaries
        ]
        ok = sum(1 for s in summaries if s["matches_broom"])
        lines.append(f"{ok}/{len(summaries)} cases match the broom")
        _emit("\n".join(lines) + "\n", args.out)
    return 2 if discovery else 0


def _cmd_chain(args) -> int:
    rows = double_star_chain(args.n)
    gaps_ok = all(b[2] - a[2] > CHAIN_GAP_TOL for a, b in zip(rows, rows[1:]))
    if args.format == "json":
        payload = {
            "n": args.n,
            "chain": [{"s": s, "t": t, "lambda1": lam} for s, t, lam in rows],
            "monotone": gaps_ok,
        }
        _emit(json.dumps(payload) + "\n", args.out)
    elif args.format == "csv":
        lines = ["s,t,lambda1"] + [f"{s},{t},{lam!r}" for s, t, lam in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"T({s},{t}): lambda1={lam!r}" for s, t, lam in rows]
        lines.append("strictly increasing" if gaps_ok else "NOT strictly increasing")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if gaps_ok else 2


def _cmd_climb(args) -> int:
    rng = random.Random(args.seed)
    start = random_tree_with_leaf_count(args.n, args.k, rng)
    final, trace = hill_climb(start, max_steps=args.max_steps)
    final_rec = {
        "n": args.n,
        "k": args.k,
        "seed": args.seed,
        "start_prufer": format_prufer(prufer_encode(start)),
        "final_prufer": format_prufer(prufer_encode(final)),
        "final_code": canonical_code(final).code,
        "final_lambda1": tree_index(final),
        "steps": len(trace),
    }
    if args.format == "json":
        _emit(trace_to_jsonl(trace) + json.dumps({"final": final_rec}) + "\n", args.out)
    elif args.format == "csv":
        lines = ["step,kind,vertices,lambda1"]
        lines += [
            f"{st.step},{st.kind},{' '.join(str(v) for v in st.vertices)},{st.lambda1!r}"
            for st in trace
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [
            f"step {st.step}: {st.kind} {st.vertices} lambda1={st.lambda1!r}"
            for st in trace
        ]
        lines.append(
            f"final lambda1={final_rec['final_lambda1']!r} after {len(trace)} steps "
            f"(prufer {final_rec['final_prufer'] or 'empty'})"
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.k is not None:
        _check_leaf_count(args.n, args.k)
    trees = enumerate_tree_classes(args.n, method=args.method)
    if args.k is not None:
        trees = [t for t in trees if leaf_count(t) == args.k]
    rows = [
        {
            "canonical_code": canonical_code(t).code,
            "prufer": format_prufer(prufer_encode(t)),
            "leaf_count": leaf_count(t),
        }
        for t in trees
    ]
    if args.format == "json":
        _emit(
            json.dumps({"n": args.n, "count": len(rows), "classes": rows}) + "\n",
            args.out,
        )
    elif args.format == "csv":
        lines = ["canonical_code,prufer,leaf_count"]
        lines += [f"{r['canonical_code']},\"{r['prufer']}\",{r['leaf_count']}" for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [
            f"{r['canonical_code']} prufer={r['prufer'] or '(empty)'} "
            f"leaves={r['leaf_count']}"
            for r in rows
        ]
        lines.append(f"{len(rows)} classes")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "balance": _cmd_balance,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "chain": _cmd_chain,
    "climb": _cmd_climb,
    "enumerate": _cmd_enumerate,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.cmd](args)
    except (SignedKnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
