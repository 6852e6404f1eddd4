"""Enumeration of free-tree isomorphism classes and the exhaustive
verification machinery: the broom-extremality check per (n, k), the
double-star chain, and structural audits of argmax trees.

Two independent enumeration routes are kept deliberately:

  (a) decode every Prufer sequence and deduplicate by canonical code
      (supported for n <= 9; the n=9 sweep covers 9**7 sequences).  A
      numpy kernel decodes PRUFER_BLOCK rows of the base-n sequence order
      at a time, one leaf-peel step per symbol position, which roots each
      tree at n-1, and keys each row by its AHU code rooted there, an
      integer whose binary digits are _rooted_code's string.  Depths below
      n-1 come from ceil(log2(n-1)) rounds of pointer jumping, and one sort
      of the block's depths makes each level of the code a slice.  Only the
      first sequence of each rooted class goes through the scalar
      prufer_decode, whose rooted code must agree with the kernel, and
      canonical_code, which merges the rooted classes into free ones;
  (b) canonical free-tree generation for all n <= 12: an in-house
      generator of the level sequences of Wright, Richmond, Odlyzko and
      McKay yields one parent array per free tree, and leaf counts are
      read from it, so a Tree is built and canonicalised only for the
      classes a caller keeps.

enumerate_tree_classes(n, method, k) is the one entry to both routes, with
or without a leaf count k.  The routes' agreement is part of the
acceptance suite; class counts are pinned against the known free-tree
counting sequence.

The results are plain dataclasses and lists; cli formats them for output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolationError
from .graphs import (
    PruferSequence,
    Tree,
    _check_leaf_count,
    _rooted_code,
    build_broom,
    build_double_star,
    canonical_code,
    leaf_count,
    prufer_decode,
    prufer_encode,
)
from .spectra import tree_indices
# Nothing here calls eigen_decompose; perfbench's restore test checks this binding
# (test_traced_run_reports_every_layer_metric_and_restores_the_package).
from .spectra import eigen_decompose  # noqa: F401

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

# Rows of the Prufer route decoded together.  Each block works on a few
# (PRUFER_BLOCK, n) arrays, so the route's memory stays flat in n**(n-2).
PRUFER_BLOCK = 2048


def _block_symbols(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the base-n order of all Prufer sequences, as
    itertools.product(range(n), repeat=n-2) lists them: row i spells i in
    base n, most significant symbol first."""
    if n == 2:  # the one empty sequence
        return np.zeros((stop - start, 0), np.int32)
    digits = np.unravel_index(np.arange(start, stop), (n,) * (n - 2))
    return np.stack(digits, axis=1).astype(np.int32)


def _peel(symbols: np.ndarray, n: int) -> np.ndarray:
    """Decode a block of Prufer rows together, one leaf-peel step per
    symbol position, taking the smallest degree-1 vertex as prufer_decode
    does.

    parent[r, v] is v's neighbour toward n-1 in row r's tree, and n-1 is
    its own parent."""
    b, m = symbols.shape
    rows = np.arange(b)
    deg = np.ones((b, n), np.int32)
    for j in range(m):
        deg[rows, symbols[:, j]] += 1
    parent = np.full((b, n), n - 1, np.int32)

    def join(leaf, p):
        parent[rows, leaf] = p
        deg[rows, leaf] = 0
        deg[rows, p] -= 1

    for j in range(m):
        join(np.argmax(deg == 1, axis=1), symbols[:, j])
    # The heap never pops n-1 while another leaf is left, so the last edge
    # joins n-1 to the one other vertex still of degree 1.  Every degree is
    # used up after it exactly when those two were all that was left.
    join(np.argmax(deg == 1, axis=1), n - 1)
    if deg.any():
        raise InvariantViolationError(
            f"Prufer peel at n={n} did not end on two leaves, one of them {n - 1}"
        )
    return parent


def _rooted_keys(parent: np.ndarray) -> np.ndarray:
    """The AHU code of each row's tree rooted at n-1, as the integer whose
    binary digits are _rooted_code's '1'/'0' string (2n <= 18 bits).
    parent is rooted at n-1, as _peel returns it.

    A code starts with '1', so ordering codes by (length, string), as
    _rooted_code sorts children, is ordering the integers.  Children are
    joined level by level, deepest first."""
    b, n = parent.shape
    # Vertex v of row r is r*n + v in the flat arrays below.
    base = np.arange(0, b * n, n)[:, None]
    up = (base + parent).ravel()
    # Depth below n-1 by pointer jumping (Wyllie): after round i, jump is
    # the ancestor 2**i levels up, or the root, and depth the distance to
    # it, so ceil(log2(n-1)) rounds reach the root from every depth < n.
    depth = np.ones(b * n, np.int32)
    depth[n - 1 :: n] = 0
    jump = up
    for _ in range((n - 2).bit_length()):
        depth += depth[jump]
        jump = jump[jump]
    if not (jump.reshape(b, n) == base + (n - 1)).all():
        raise InvariantViolationError(
            f"not all {n} vertices are reached from {n - 1} within {n - 1} levels"
        )
    # One sort, deepest first: each level is a slice of it, and the root
    # (depth 0) is last.
    order = np.argsort(-depth, kind="stable")
    bounds = np.cumsum(np.bincount(depth)[::-1]).tolist()
    code = np.full(b * n, 2, np.int32)  # a leaf is "10"
    length = np.full(b * n, 2, np.int32)
    for lo, hi in zip([0, *bounds], bounds[:-1]):
        at = order[lo:hi]
        group = up[at]
        kid = code[at]
        # np.unique sorts with this kind too, and one kind keeps less numpy
        # code resident; the order of equal keys (equal children) is moot
        by = np.argsort((group << 2 * n) | kid, kind="stable")
        group, kid, kid_len = group[by], kid[by], length[at][by]
        # edge[i]: sorted position i starts a parent's children (i < len)
        # or ends the previous parent's (i > 0)
        edge = np.ones(len(group) + 1, bool)
        np.not_equal(group[1:], group[:-1], out=edge[1:-1])
        first = np.flatnonzero(edge[:-1])
        last = np.flatnonzero(edge[1:])
        ends = np.cumsum(kid_len)
        # each child is shifted past its later siblings
        shift = np.repeat(ends[last], last - first + 1) - ends
        joined = np.add.reduceat(kid << shift, first)
        total = np.add.reduceat(kid_len, first)
        pv = group[first]
        code[pv] = (1 << (total + 1)) | (joined << 1)
        length[pv] = total + 2
    return code[n - 1 :: n].astype(np.int64)


def _classes_by_prufer(n: int) -> dict[str, Tree]:
    """Decode every sequence in base-n order, PRUFER_BLOCK rows at a time,
    key each row by its tree's code rooted at n-1, and keep the first row
    seen for each key.

    Rooted-isomorphic trees are isomorphic, so only these rooted classes
    go through the scalar prufer_decode, whose _rooted_code must spell the
    key.  Walked in row order, they keep the first tree per canonical_code,
    which is then the first sequence of its free class."""
    if n > MAX_PRUFER_N:
        raise DomainError(
            f"Prufer enumeration supported for n <= {MAX_PRUFER_N}, got {n}"
        )
    total = n ** (n - 2)
    first: dict[int, int] = {}
    for start in range(0, total, PRUFER_BLOCK):
        symbols = _block_symbols(n, start, min(start + PRUFER_BLOCK, total))
        uniq, at = np.unique(_rooted_keys(_peel(symbols, n)), return_index=True)
        for key, i in zip(uniq.tolist(), at.tolist()):
            first.setdefault(key, start + i)
    reps: dict[str, Tree] = {}
    for key, i in sorted(first.items(), key=lambda item: item[1]):
        t = prufer_decode(PruferSequence(_block_symbols(n, i, i + 1)[0]))
        rooted = _rooted_code(t.adjacency(), n - 1)
        if rooted != format(key, "b"):
            raise InvariantViolationError(
                f"Prufer kernel key {format(key, 'b')} of row {i} at n={n} "
                f"differs from its code rooted at {n - 1}, {rooted}"
            )
        reps.setdefault(canonical_code(t), t)
    if len(reps) != FREE_TREE_COUNTS[n]:
        raise InvariantViolationError(
            f"Prufer enumeration for n={n} produced {len(reps)} classes, "
            f"expected {FREE_TREE_COUNTS[n]}"
        )
    return reps


def _split_tree(layout: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree, its levels lowered by one, and the tree
    left when that subtree is cut off."""
    try:
        m = layout.index(1, 2)
    except ValueError:
        m = len(layout)
    return [d - 1 for d in layout[1:m]], [0, *layout[m:]]


def _next_rooted_tree(layout: list[int], p: int | None = None) -> list[int] | None:
    """The rooted level sequence after layout (Beyer-Hedetniemi), or None
    after the star.  p is the last vertex above level 1 unless given, q its
    parent, and from p on the new sequence repeats the block layout[q:p]."""
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    out = list(layout)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _next_tree(layout: list[int]) -> list[int]:
    """layout if it is the canonical rooting of its free tree, else the
    next sequence that is.  Canonical: the root's first subtree is lower
    than the rest, or as high and smaller, or as high, as large and not
    lexicographically later."""
    left, rest = _split_tree(layout)
    lh, rh = max(left), max(rest)
    if rh > lh or (rh == lh and (len(left), left) <= (len(rest), rest)):
        return layout
    p = len(left)
    out = _next_rooted_tree(layout, p)
    if layout[p] > 2:
        h = max(_split_tree(out)[0])
        out[-(h + 1):] = range(1, h + 2)
    return out


def _free_trees(n: int):
    """Each free tree on n >= 2 vertices once, as its parent array, in the
    level-sequence order of Wright, Richmond, Odlyzko and McKay, "Constant
    time generation of free trees" (SIAM J. Comput. 15, 1986).

    Vertex i is position i of the level sequence, and its parent is the
    nearest earlier vertex one level up; the root 0 has parent -1."""
    # the path, rooted at its centre
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _next_tree(layout)
        parent, last = [-1] * n, [0] * n
        for i in range(1, n):
            parent[i] = last[layout[i] - 1]
            last[layout[i]] = i
        yield parent
        layout = _next_rooted_tree(layout)


def _classes_by_generation(n: int, k: int | None = None) -> dict[str, Tree]:
    """The generated classes on n vertices, or only those with k leaves.
    Leaves are counted on the parent array, so a Tree is built and
    canonicalised only for the classes kept; the class count is checked
    over every generated sequence all the same."""
    # the generator roots the 3-vertex path at its centre; that class has
    # always been represented by the path 0-1-2
    parents = _free_trees(n) if n != 3 else [[-1, 0, 1]]
    trees, count = [], 0
    for parent in parents:
        count += 1
        # a vertex other than 0 is a leaf iff it is no parent; 0 iff it has one child
        if k is not None and n - len(set(parent[1:])) + (parent.count(0) == 1) != k:
            continue
        trees.append(Tree(frozenset(zip(range(1, n), parent[1:]))))
    if count != FREE_TREE_COUNTS[n]:
        raise InvariantViolationError(
            f"free-tree generation for n={n} produced {count} classes, "
            f"expected {FREE_TREE_COUNTS[n]}"
        )
    reps = {canonical_code(t): t for t in trees}
    if len(reps) != len(trees):
        raise InvariantViolationError(
            f"canonical codes collapsed distinct classes at n={n}"
        )
    return reps


def enumerate_tree_classes(
    n: int, method: str = "generate", k: int | None = None
) -> dict[str, Tree]:
    """One representative per free-tree isomorphism class on n vertices,
    keyed by canonical code, in ascending code order; with k, only the
    classes with k leaves.

    method "generate" (default) uses canonical generation, which builds
    only the classes it keeps; "prufer" decodes all n**(n-2) sequences,
    deduplicates by canonical code (n <= 9) and then keeps the k-leaf
    classes.
    """
    if k is not None:
        _check_leaf_count(n, k)
    if not 2 <= n <= MAX_N:
        raise DomainError(f"class enumeration supports 2 <= n <= {MAX_N}, got {n}")
    if method == "generate":
        reps = _classes_by_generation(n, k)
    elif method == "prufer":
        reps = _classes_by_prufer(n)
        if k is not None:
            reps = {code: t for code, t in reps.items() if leaf_count(t) == k}
    else:
        raise DomainError(f"unknown enumeration method {method!r}")
    return dict(sorted(reps.items()))


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
    return EnumerationCrossCheck(n, len(gen), len(pru), list(gen) == list(pru))


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
    classes = enumerate_tree_classes(n, k=k)
    lams = tree_indices(list(classes.values()))
    mx = max(lams)
    arg_i = lams.index(mx)
    records = tuple(
        ClassRecord(
            canonical_code=code,
            prufer=prufer_encode(t).symbols,
            leaf_count=k,
            lambda1=lam,
            is_argmax=(i == arg_i),
        )
        for i, ((code, t), lam) in enumerate(zip(classes.items(), lams))
    )
    tied = tuple(r.canonical_code for r, lam in zip(records, lams) if mx - lam <= TIE_TOL)
    others = [lam for i, lam in enumerate(lams) if i != arg_i]
    gap = (mx - max(others)) if others else None
    broom_code = canonical_code(build_broom(n, k))
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
    sides = [(s, n - 2 - s) for s in range((n - 2) // 2, 0, -1)]
    lams = tree_indices([build_double_star(s, t) for s, t in sides])
    return [(s, t, lam) for (s, t), lam in zip(sides, lams)]


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
