"""Enumeration of free-tree isomorphism classes and the exhaustive
verification machinery: the broom-extremality check per (n, k), the
double-star chain, and structural audits of argmax trees.

Two independent enumeration routes are kept deliberately:

  (a) decode every Prufer sequence and deduplicate by canonical code
      (supported for n <= 9; the n=9 sweep covers 9**7 sequences);
  (b) canonical free-tree generation (networkx's implementation of the
      Wright/Richmond/Odlyzko/McKay algorithm) for all n <= 12.

Their agreement is part of the acceptance suite; class counts are pinned
against the known free-tree counting sequence.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass

from .errors import DomainError, InvariantViolationError
from .graphs import (
    PruferSequence,
    Tree,
    _check_leaf_count,
    build_broom,
    build_double_star,
    build_path,
    canonical_code,
    format_prufer,
    leaf_count,
    prufer_decode,
    prufer_encode,
)
# Both names stay bound here for callers that reach them through search,
# perfbench's tracer among them; only tree_index is used in this module.
from .spectra import eigen_decompose, tree_index  # noqa: F401

# Free-tree class counts for n = 2..12, frozen after the dual-method
# enumeration agreed; also the classical counting sequence for free trees.
FREE_TREE_COUNTS = {
    2: 1,
    3: 1,
    4: 2,
    5: 3,
    6: 6,
    7: 11,
    8: 23,
    9: 47,
    10: 106,
    11: 235,
    12: 551,
}

MAX_N = 12
MAX_PRUFER_N = 9

# Two classes within this of the maximum λ1 count as tied.
TIE_TOL = 1e-9

# Successive chain values must rise by more than this.
CHAIN_GAP_TOL = 1e-9


def _first_per_code(trees) -> dict[str, Tree]:
    """The first tree seen for each canonical code, keyed by that code."""
    reps: dict[str, Tree] = {}
    for t in trees:
        reps.setdefault(canonical_code(t).code, t)
    return reps


def _classes_by_prufer(n: int) -> dict[str, Tree]:
    """Decode every sequence in base-n order and keep the first one seen
    for each canonical code."""
    if n > MAX_PRUFER_N:
        raise DomainError(
            f"Prufer enumeration supported for n <= {MAX_PRUFER_N}, got {n}"
        )
    return _first_per_code(
        prufer_decode(PruferSequence(n, symbols))
        for symbols in itertools.product(range(n), repeat=n - 2)
    )


def _classes_by_generation(n: int) -> dict[str, Tree]:
    if n <= 3:
        return _first_per_code([build_path(n)])
    import networkx as nx

    trees = []
    for gnx in nx.nonisomorphic_trees(n):
        nodes = sorted(gnx.nodes())
        ix = {v: i for i, v in enumerate(nodes)}
        trees.append(Tree(n, frozenset((ix[u], ix[v]) for u, v in gnx.edges())))
    if len(trees) != FREE_TREE_COUNTS[n]:
        raise InvariantViolationError(
            f"free-tree generation for n={n} produced {len(trees)} classes, "
            f"expected {FREE_TREE_COUNTS[n]}"
        )
    reps = _first_per_code(trees)
    if len(reps) != len(trees):
        raise InvariantViolationError(
            f"canonical codes collapsed distinct classes at n={n}"
        )
    return reps


def enumerate_tree_classes(n: int, method: str = "generate") -> list[Tree]:
    """One representative per free-tree isomorphism class on n vertices,
    sorted by canonical code.

    method "generate" (default) uses canonical generation; "prufer" decodes
    all n**(n-2) sequences and deduplicates by canonical code (n <= 9).
    """
    if not 2 <= n <= MAX_N:
        raise DomainError(f"class enumeration supports 2 <= n <= {MAX_N}, got {n}")
    if method == "generate":
        reps = _classes_by_generation(n)
    elif method == "prufer":
        reps = _classes_by_prufer(n)
    else:
        raise DomainError(f"unknown enumeration method {method!r}")
    return [reps[code] for code in sorted(reps)]


@dataclass(frozen=True)
class EnumerationCrossCheck:
    """Outcome of running both enumeration routes on the same n."""

    n: int
    count_generation: int
    count_prufer: int
    codes_equal: bool

    @property
    def ok(self) -> bool:
        return self.codes_equal and self.count_generation == self.count_prufer


def cross_check_enumeration(n: int) -> EnumerationCrossCheck:
    gen = enumerate_tree_classes(n, method="generate")
    pru = enumerate_tree_classes(n, method="prufer")
    same = [canonical_code(t).code for t in gen] == [
        canonical_code(t).code for t in pru
    ]
    return EnumerationCrossCheck(n, len(gen), len(pru), same)


def enumerate_with_leaves(n: int, k: int) -> list[Tree]:
    """The classes on n vertices with exactly k leaves."""
    _check_leaf_count(n, k)
    return [t for t in enumerate_tree_classes(n) if leaf_count(t) == k]


@dataclass(frozen=True)
class ClassRecord:
    canonical_code: str
    prufer: tuple[int, ...]
    leaf_count: int
    lambda1: float
    is_argmax: bool


@dataclass(frozen=True)
class SearchReport:
    """Per-(n, k) table of tree classes and their indices.

    mode is "reduced" inside the main parameter range (n >= 6 and
    3 <= k <= n-3) and names the edge case otherwise.  runner_up_gap is
    None when only one class exists.  tied_codes lists every class within
    TIE_TOL of the maximum; more than one entry is a red flag the caller
    should surface, since a tie is never expected in the reduced range.
    """

    n: int
    k: int
    mode: str
    classes: tuple[ClassRecord, ...]
    argmax_code: str
    runner_up_gap: float | None
    matches_broom: bool
    tied_codes: tuple[str, ...]


def _mode_of(n: int, k: int) -> str:
    if k == n - 1:
        return "edge_k_n_minus_1"
    if k == n - 2:
        return "edge_k_n_minus_2"
    if k == 2:
        return "edge_k_2"
    return "reduced"


def verify_max_index(n: int, k: int) -> SearchReport:
    """Compute λ1 for every class with k leaves and test whether the broom
    attains the maximum.

    The reduced range is n >= 6 with 3 <= k <= n-3; other k are accepted
    and labelled as edge cases (k = n-1 is the balanced star, excluded
    from the extremal statement; k = n-2 checks that the argmax is the
    double star with one pendant on one side, which the broom realizes).
    """
    trees = enumerate_with_leaves(n, k)
    lams = [tree_index(t) for t in trees]
    mx = max(lams)
    arg_i = lams.index(mx)
    records = tuple(
        ClassRecord(
            canonical_code=canonical_code(t).code,
            prufer=prufer_encode(t).symbols,
            leaf_count=k,
            lambda1=lam,
            is_argmax=(i == arg_i),
        )
        for i, (t, lam) in enumerate(zip(trees, lams))
    )
    tied = tuple(r.canonical_code for r, lam in zip(records, lams) if mx - lam <= TIE_TOL)
    others = [lam for i, lam in enumerate(lams) if i != arg_i]
    gap = (mx - max(others)) if others else None
    broom_code = canonical_code(build_broom(n, k)).code
    return SearchReport(
        n=n,
        k=k,
        mode=_mode_of(n, k),
        classes=records,
        argmax_code=records[arg_i].canonical_code,
        runner_up_gap=gap,
        matches_broom=records[arg_i].canonical_code == broom_code,
        tied_codes=tied,
    )


def double_star_chain(n: int) -> list[tuple[int, int, float]]:
    """(s, t, λ1) for the double stars with s + t = n - 2, s from
    floor((n-2)/2) down to 1.  Expected strictly increasing λ1."""
    if n < 6:
        raise DomainError(f"double-star chain needs n >= 6, got {n}")
    out = []
    for s in range((n - 2) // 2, 0, -1):
        t = n - 2 - s
        out.append((s, t, tree_index(build_double_star(s, t))))
    return out


@dataclass(frozen=True)
class AuditRecord:
    """Structural-shape checks for a tree claimed extremal at (n, k).

    Applicable for 3 <= k <= n-2; outside that range (path or star) the
    hub properties are degenerate and every check is None."""

    n: int
    k: int
    applicable: bool
    hub: int | None
    max_degree_is_k: bool | None
    unique_max_degree_vertex: bool | None
    hub_pendant_neighbors: bool | None
    non_hub_degrees_le_2: bool | None
    passed: bool


def structural_audit(t: Tree) -> AuditRecord:
    """Check the expected argmax shape for the tree's leaf count k: a
    unique hub of degree k carrying k-1 pendant neighbours, every other
    vertex of degree at most 2."""
    n = t.n
    k = leaf_count(t)
    if not 3 <= k <= n - 2:
        return AuditRecord(
            n=n, k=k, applicable=False, hub=None, max_degree_is_k=None,
            unique_max_degree_vertex=None, hub_pendant_neighbors=None,
            non_hub_degrees_le_2=None, passed=True,
        )
    deg = t.degrees()
    maxdeg = max(deg)
    hub = deg.index(maxdeg)
    adj = t.adjacency()
    max_degree_is_k = maxdeg == k
    unique_max = deg.count(maxdeg) == 1
    pendant_nbs = sum(1 for w in adj[hub] if deg[w] == 1)
    hub_pendant = pendant_nbs == k - 1
    others_le_2 = all(d <= 2 for v, d in enumerate(deg) if v != hub)
    return AuditRecord(
        n=n,
        k=k,
        applicable=True,
        hub=hub,
        max_degree_is_k=max_degree_is_k,
        unique_max_degree_vertex=unique_max,
        hub_pendant_neighbors=hub_pendant,
        non_hub_degrees_le_2=others_le_2,
        passed=max_degree_is_k and unique_max and hub_pendant and others_le_2,
    )


def report_to_json(r: SearchReport) -> str:
    return json.dumps(
        {
            "n": r.n,
            "k": r.k,
            "mode": r.mode,
            "argmax_code": r.argmax_code,
            "runner_up_gap": r.runner_up_gap,
            "matches_broom": r.matches_broom,
            "tied_codes": list(r.tied_codes),
            "classes": [
                {
                    "canonical_code": c.canonical_code,
                    "prufer": list(c.prufer),
                    "leaf_count": c.leaf_count,
                    "lambda1": c.lambda1,
                    "is_argmax": c.is_argmax,
                }
                for c in r.classes
            ],
        }
    )


CSV_COLUMNS = ["n", "k", "canonical_code", "prufer", "leaf_count", "lambda1", "is_argmax"]


def report_to_csv(r: SearchReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for c in r.classes:
        w.writerow(
            [
                r.n,
                r.k,
                c.canonical_code,
                format_prufer(PruferSequence(r.n, c.prufer)),
                c.leaf_count,
                repr(c.lambda1),
                c.is_argmax,
            ]
        )
    return buf.getvalue()
