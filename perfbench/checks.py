"""Output checks for the benchmark's CLI calls.

Every check is made against an independent reference: trees are rebuilt
from the printed Prufer codes by a decoder written here, and λ1 comes from
LAPACK (numpy.linalg.eigvalsh), which the program itself never uses.  The
checker runs after the timed passes, so none of this is measured.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import defaultdict

import numpy as np

# Free-tree class counts (OEIS A000055), kept here rather than read from
# the program so the count check stays independent of it.
FREE_TREE_COUNTS = {6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}

LAMBDA_TOL = 1e-10  # agreement of a printed λ1 with the LAPACK reference
IMPROVE_TOL = 1e-10  # a climb step must raise λ1 by more than this
TIE_TOL = 1e-9  # a climb may end at most this far above the broom


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def prufer_edges(n: int, symbols) -> set[tuple[int, int]]:
    """Decode with the smallest-leaf convention into (min, max) edges."""
    deg = [1] * n
    for s in symbols:
        deg[s] += 1
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    edges = set()
    for s in symbols:
        leaf = heapq.heappop(heap)
        edges.add((min(leaf, s), max(leaf, s)))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(heap, s)
    u, v = heapq.heappop(heap), heapq.heappop(heap)
    edges.add((min(u, v), max(u, v)))
    return edges


def parse_prufer(text: str) -> tuple[int, list[int]]:
    symbols = [int(p) for p in text.split(",")] if text.strip() else []
    return len(symbols) + 2, symbols


def signed_adjacency(n: int, edges) -> np.ndarray:
    a = np.ones((n, n)) - np.eye(n)
    for u, v in edges:
        a[u, v] = a[v, u] = -1.0
    return a


def ref_lambda1(n: int, edges) -> float:
    return float(np.linalg.eigvalsh(signed_adjacency(n, edges))[-1])


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def broom_edges(n: int, k: int) -> set[tuple[int, int]]:
    """Hub 0 with k-1 pendants 1..k-1 and the path 0, k, k+1, ..., n-1."""
    return {(0, v) for v in range(1, k)} | {(0, k)} | {(v, v + 1) for v in range(k, n - 1)}


def double_star_edges(s: int, t: int) -> set[tuple[int, int]]:
    n = s + t + 2
    return {(0, 1)} | {(0, v) for v in range(2, s + 2)} | {(1, v) for v in range(s + 2, n)}


def is_broom(n: int, edges, k: int) -> bool:
    """One hub of degree k with k-1 pendant neighbours; every other vertex
    has degree at most 2 (so the rest is a path hanging off the hub)."""
    deg = degrees(n, edges)
    hubs = [v for v in range(n) if deg[v] == k]
    if len(hubs) != 1 or any(d > 2 for v, d in enumerate(deg) if v != hubs[0]):
        return False
    hub = hubs[0]
    pendants = sum(1 for u, v in edges if hub in (u, v) and deg[u + v - hub] == 1)
    return pendants == k - 1


def edge_sign(edges, u: int, v: int) -> int:
    return -1 if (min(u, v), max(u, v)) in edges else 1


class Checker:
    """Counts checks attempted and failed; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_records(records, known_digests=None) -> Checker:
    """Check every recorded CLI call.

    records is a list of (argv, exit_code, stdout, digest) where stdout is
    None for a repeat of an argv already seen: a repeat is only compared by
    digest.  known_digests maps an argv key to the digest an earlier run of
    the same code printed for it.
    """
    ck = Checker()
    first: dict[str, tuple] = {}
    for argv, rc, out, dig in records:
        key = " ".join(argv)
        if key in first:
            ck.check(dig == first[key][3], f"stdout of '{key}' differs between passes")
            continue
        first[key] = (argv, rc, out, dig)
        if known_digests and key in known_digests:
            ck.check(dig == known_digests[key], f"stdout of '{key}' differs from an earlier run")
    calls = [rec for rec in first.values() if rec[2] is not None]
    _check_sweep(ck, [c for c in calls if c[0][0] in ("verify", "balance", "chain")])
    _check_enumerate(ck, [c for c in calls if c[0][0] == "enumerate"])
    for argv, rc, out, _ in calls:
        if argv[0] == "climb":
            _guard(ck, argv, lambda: _check_climb(ck, argv, rc, out))
    return ck


def _guard(ck: Checker, argv, fn) -> None:
    """Run one call's checks; unparsable output is one failed check."""
    try:
        fn()
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        ck.check(False, f"'{' '.join(argv)}' output unreadable: {exc!r}")


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _check_sweep(ck: Checker, calls) -> None:
    counts: dict[int, dict[int, int]] = defaultdict(dict)
    for argv, rc, out, _ in calls:
        if argv[0] == "verify":
            _guard(ck, argv, lambda: _check_verify(ck, argv, rc, out, counts))
        elif argv[0] == "balance":
            _guard(ck, argv, lambda: _check_balance(ck, argv, rc, out))
        else:
            _guard(ck, argv, lambda: _check_chain(ck, argv, rc, out))
    for n, per_k in counts.items():
        if len(per_k) == n - 2:  # every k in 2..n-1 was verified
            ck.check(
                sum(per_k.values()) == FREE_TREE_COUNTS.get(n),
                f"n={n}: class counts sum to {sum(per_k.values())}",
            )


def _check_verify(ck: Checker, argv, rc, out, counts) -> None:
    n, k = int(_arg(argv, "--n")), int(_arg(argv, "--k"))
    tag = f"verify n={n} k={k}"
    ck.check(rc == 0, f"{tag}: exit code {rc}")
    rep = json.loads(out)
    classes = rep["classes"]
    counts[n][k] = len(classes)
    lams = []
    for c in classes:
        edges = prufer_edges(n, c["prufer"])
        ck.check(n - len(set(c["prufer"])) == k, f"{tag}: class {c['canonical_code']} leaves")
        lam = ref_lambda1(n, edges)
        lams.append(lam)
        ck.check(abs(c["lambda1"] - lam) <= LAMBDA_TOL, f"{tag}: λ1 {c['lambda1']!r} vs {lam!r}")
    ck.check(
        len({c["canonical_code"] for c in classes}) == len(classes),
        f"{tag}: repeated class code",
    )
    best = [c for c in classes if c["is_argmax"]]
    if not ck.check(len(best) == 1, f"{tag}: {len(best)} argmax entries"):
        return
    best = best[0]
    ck.check(best["canonical_code"] == rep["argmax_code"], f"{tag}: argmax code mismatch")
    ck.check(
        max(lams) - lams[classes.index(best)] <= LAMBDA_TOL, f"{tag}: argmax is not the largest λ1"
    )
    best_edges = prufer_edges(n, best["prufer"])
    if 3 <= k <= n - 2:  # the reduced range, and k = n-2
        ck.check(rep["matches_broom"] is True, f"{tag}: argmax is not the broom")
        ck.check(is_broom(n, best_edges, k), f"{tag}: argmax tree is not broom-shaped")
        ck.check(len(rep["tied_codes"]) == 1, f"{tag}: tie at the top")
        gap = rep["runner_up_gap"]
        ck.check(gap is None or gap > 0, f"{tag}: runner-up gap {gap!r}")
    if k == n - 1:
        ck.check(abs(best["lambda1"] - (n - 1)) <= LAMBDA_TOL, f"{tag}: star λ1 != n-1")


def _check_balance(ck: Checker, argv, rc, out) -> None:
    n, symbols = parse_prufer(_arg(argv, "--prufer"))
    edges = prufer_edges(n, symbols)
    tag = f"balance {_arg(argv, '--prufer')}"
    ck.check(rc == 0, f"{tag}: exit code {rc}")
    rep = json.loads(out)
    star = max(degrees(n, edges)) == n - 1
    if star:  # k = n-1: the only balanced signing
        ck.check(rep["balanced"] is True, f"{tag}: star reported unbalanced")
        plus, minus = (set(p) for p in rep["bipartition"])
        side = {v: 1 for v in plus} | {v: -1 for v in minus}
        ck.check(
            len(side) == n
            and all(edge_sign(edges, u, v) == side[u] * side[v] for u in range(n) for v in range(u + 1, n)),
            f"{tag}: bipartition does not witness balance",
        )
    else:
        ck.check(rep["balanced"] is False, f"{tag}: unbalanced signing reported balanced")
        i, j, k = rep["negative_triangle"]
        ck.check(
            len({i, j, k}) == 3
            and edge_sign(edges, i, j) * edge_sign(edges, i, k) * edge_sign(edges, j, k) < 0,
            f"{tag}: ({i}, {j}, {k}) is not a negative triangle",
        )


def _check_chain(ck: Checker, argv, rc, out) -> None:
    n = int(_arg(argv, "--n"))
    tag = f"chain n={n}"
    ck.check(rc == 0, f"{tag}: exit code {rc}")
    rep = json.loads(out)
    rows = rep["chain"]
    ck.check(
        [(r["s"], r["t"]) for r in rows] == [(s, n - 2 - s) for s in range((n - 2) // 2, 0, -1)],
        f"{tag}: wrong double stars",
    )
    for r in rows:
        lam = ref_lambda1(n, double_star_edges(r["s"], r["t"]))
        ck.check(abs(r["lambda1"] - lam) <= LAMBDA_TOL, f"{tag}: T({r['s']},{r['t']}) λ1")
    lams = [r["lambda1"] for r in rows]
    ck.check(all(b > a for a, b in zip(lams, lams[1:])), f"{tag}: not strictly increasing")
    ck.check(rep["monotone"] is True, f"{tag}: reported non-monotone")


def _check_enumerate(ck: Checker, calls) -> None:
    by_n: dict[int, dict[str, list[str]]] = defaultdict(dict)
    for argv, rc, out, _ in calls:
        _guard(ck, argv, lambda: _check_enumerate_call(ck, argv, rc, out, by_n))
    for n, routes in by_n.items():
        if len(routes) == 2:
            ck.check(routes["prufer"] == routes["generate"], f"n={n}: the two routes disagree")


def _check_enumerate_call(ck: Checker, argv, rc, out, by_n) -> None:
    n, method = int(_arg(argv, "--n")), _arg(argv, "--method")
    tag = f"enumerate {method} n={n}"
    ck.check(rc == 0, f"{tag}: exit code {rc}")
    rep = json.loads(out)
    for c in rep["classes"]:
        _, symbols = parse_prufer(c["prufer"])
        ck.check(n - len(set(symbols)) == c["leaf_count"], f"{tag}: leaf count of {c['prufer']}")
    by_n[n][method] = [c["canonical_code"] for c in rep["classes"]]
    ck.check(rep["count"] == FREE_TREE_COUNTS[n], f"{tag}: count")


def _check_climb(ck: Checker, argv, rc, out) -> None:
    n, k = int(_arg(argv, "--n")), int(_arg(argv, "--k"))
    tag = f"climb n={n} k={k} seed={_arg(argv, '--seed')}"
    ck.check(rc == 0, f"{tag}: exit code {rc}")
    lines = [json.loads(ln) for ln in out.splitlines()]
    final = lines[-1]["final"]
    steps = lines[:-1]
    _, start = parse_prufer(final["start_prufer"])
    _, end = parse_prufer(final["final_prufer"])
    tree = prufer_edges(n, start)
    ck.check(n - len(set(start)) == k, f"{tag}: start has the wrong leaf count")
    lam = ref_lambda1(n, tree)
    for i, st in enumerate(steps, 1):
        verts = st["vertices"]
        r, s = verts[0], verts[1]
        t, u = (r, verts[2]) if st["kind"] == "type_i" else (verts[2], verts[3])
        neg, pos = (min(t, u), max(t, u)), (min(r, s), max(r, s))
        ck.check(
            st["step"] == i and neg in tree and pos not in tree,
            f"{tag}: step {i} is not a rotation of the current tree",
        )
        tree = (tree - {neg}) | {pos}
        ref = ref_lambda1(n, tree)
        ck.check(abs(st["lambda1"] - ref) <= LAMBDA_TOL, f"{tag}: step {i} λ1")
        ck.check(ref > lam + IMPROVE_TOL, f"{tag}: step {i} does not raise λ1")
        lam = ref
    ck.check(final["steps"] == len(steps), f"{tag}: step count")
    ck.check(prufer_edges(n, end) == tree, f"{tag}: final tree is not the last rotation")
    ck.check(abs(final["final_lambda1"] - lam) <= LAMBDA_TOL, f"{tag}: final λ1")
    ck.check(n - len(set(end)) == k, f"{tag}: final tree has the wrong leaf count")
    ck.check(
        final["final_lambda1"] <= ref_lambda1(n, broom_edges(n, k)) + TIE_TOL,
        f"{tag}: final λ1 exceeds the broom's",
    )
