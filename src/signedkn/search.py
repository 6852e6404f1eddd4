"""Enumeration of free-tree isomorphism classes and the exhaustive
verification machinery: the broom-extremality check per (n, k) and the
double-star chain.

Two independent enumeration routes are kept deliberately:

  (a) decode every Prufer sequence (n <= 9; the n=9 sweep covers 9**7
      sequences) and deduplicate, keying each tree by its Matula number
      rooted at n-1 (D. W. Matula, "A natural rooted tree enumeration by
      prime factorization", SIAM Rev. 10, 1968), equal exactly for
      rooted-isomorphic trees.  The route never calls the generator, so
      its agreement with (b) checks both;
  (b) canonical free-tree generation for all n <= 12, by an in-house
      generator of the level sequences of Wright, Richmond, Odlyzko and
      McKay (1986), which the tests check against networkx's
      implementation of the same algorithm for n <= 14.

enumerate_tree_classes(n, method, k) is the one entry to both routes, with
or without a leaf count k.  Each route checks its class count against
FREE_TREE_COUNTS, the free-tree counting sequence, which ends at MAX_N.
The routes agree when their code lists do; the acceptance suite checks it.

The results are plain dataclasses and lists; cli formats them for output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolationError
from .graphs import (
    PruferSequence,
    Tree,
    _bfs_order,
    _check_leaf_count,
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

MAX_N = max(FREE_TREE_COUNTS)
MAX_PRUFER_N = 9

# Two classes within this of the maximum λ1 count as tied.
TIE_TOL = 1e-9

# Successive chain values must rise by more than this.
CHAIN_GAP_TOL = 1e-9

# Rows of the Prufer route decoded together.  Each block works on a few
# (PRUFER_BLOCK, n) arrays, so the route's memory stays flat in n**(n-2).
PRUFER_BLOCK = 2048


def _primes_to(limit: int) -> np.ndarray:
    """The primes up to limit, by the sieve of Eratosthenes."""
    sieve = np.ones(limit + 1, bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


# _PRIME[m] is the m-th prime, the factor that a child of Matula number m
# puts on its parent (_PRIME[0] is never read).  A child in a tree rooted at
# n-1 heads at most MAX_PRUFER_N - 1 = 8 vertices, the largest Matula number
# of a rooted tree that small is 2221, and the 2221st prime is 19577.  The
# same bound sizes the table of keys seen in _classes_by_prufer: no tree on
# MAX_PRUFER_N vertices rooted anywhere numbers more than 19577, which a
# root reaches when its only child heads the 8-vertex tree numbered 2221.
_PRIME = np.concatenate(([0], _primes_to(19577)))


def _check_class_count(route: str, n: int, count: int) -> None:
    """Raise unless route found FREE_TREE_COUNTS[n] classes on n vertices."""
    if n not in FREE_TREE_COUNTS:
        raise DomainError(
            f"{route} for n={n}: class counts are tabulated for "
            f"2 <= n <= MAX_N = {MAX_N}"
        )
    if count != FREE_TREE_COUNTS[n]:
        raise InvariantViolationError(
            f"{route} for n={n} produced {count} classes, "
            f"expected {FREE_TREE_COUNTS[n]}"
        )


def _block_symbols(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the base-n order of all Prufer sequences, as
    itertools.product(range(n), repeat=n-2) lists them, symbol-major: a
    contiguous (n-2, stop-start) array whose column i spells start+i in
    base n, most significant symbol first, so that row j holds every
    sequence's symbol at position j."""
    # int32 holds every row number up to MAX_PRUFER_N**(MAX_PRUFER_N-2),
    # and divides faster than int64
    powers = n ** np.arange(n - 3, -1, -1, dtype=np.int32)
    return np.arange(start, stop, dtype=np.int32) // powers[:, None] % n


def _peel(symbols: np.ndarray) -> np.ndarray:
    """Decode a symbol-major block of Prufer sequences together, one
    leaf-peel step per symbol position, taking the smallest leaf as
    prufer_decode does, and return each sequence's Matula number rooted
    at n-1, where n = len(symbols) + 2.

    Each sequence keeps its leaves as an n-bit mask, bit v for vertex v
    (n <= MAX_PRUFER_N, so a mask fits in any int).  A vertex's degree is
    1 plus its number of occurrences, so the leaves before the first step
    are the vertices absent from the sequence, and symbol s_i becomes a
    leaf right after step i if position i is its last occurrence.  Step i
    takes the mask's lowest bit, multiplies that leaf's number, as a
    prime, into s_i's, clears the bit, and sets s_i's on its last
    occurrence.  A vertex is peeled only once all its neighbours but the
    one toward n-1 are gone, each of them multiplied into its number as
    it was peeled, so its number is complete when it joins its parent.

    Every sequence of n-2 symbols below n is a Prufer code, so the check
    that the peel ends on n-1 and one other leaf fails only on a wrong
    kernel.

    Layouts: symbols is (n-2, b), row i holding position i of the b
    sequences, as _block_symbols makes it.  The numbers are one flat
    array, sequence r's vertex v at v*b + r, and a 2**n table maps a
    mask's lowest bit 1 << v to v*b."""
    m, b = symbols.shape
    n = m + 2
    # a copy, made into offsets in place below; a stack of empty sequences
    # reads as float, and shifts and offsets need ints
    parent_at = symbols.astype(np.intp)
    # later[i] gathers the vertices at position i or later, by m-1 ORs in
    # place; the vertices in no position are the first leaves
    later = np.left_shift(1, parent_at)
    for i in range(m - 2, -1, -1):
        np.bitwise_or(later[i], later[i + 1], out=later[i])
    top = 1 << (n - 1)
    leaves = np.full(b, 2 * top - 1)
    if m:
        leaves ^= later[0]
    # later[i] ^ later[i+1] is s_i's bit if position i is its last
    # occurrence, else nothing
    later[:-1] ^= later[1:]
    rows = np.arange(b)
    parent_at *= b
    parent_at += rows
    offset = np.zeros(2 * top, np.intp)
    offset[1 << np.arange(n)] = np.arange(0, n * b, b)
    num = np.ones(n * b, np.int64)
    low = np.empty(b, np.intp)
    root = rows + (n - 1) * b
    # n-1 is never a row's lowest leaf while three or more vertices are
    # left, so the last step joins n-1 to the one other leaf and must
    # leave n-1 alone in the mask
    for p, grown in zip([*parent_at, root], [*later, 0]):
        np.negative(leaves, out=low)
        low &= leaves
        leaf = offset[low]
        leaf += rows
        num[p] *= _PRIME[num[leaf]]
        leaves ^= low
        leaves |= grown
    if np.any(leaves != top):
        raise InvariantViolationError(
            f"Prufer peel at n={n} did not end on two leaves, one of them {n - 1}"
        )
    return num[root]


def _matula(adj, root: int) -> int:
    """Matula's number of the tree adj rooted at root: 1 for one vertex,
    else the product of _PRIME[m] over the root's children, m the child's
    number."""
    order, up = _bfs_order(adj, root)
    num = [1] * len(order)
    for i in range(len(order) - 1, 0, -1):
        num[up[i]] *= int(_PRIME[num[i]])
    return num[0]


def _classes_by_prufer(n: int) -> dict[str, Tree]:
    """Decode every sequence in base-n order, PRUFER_BLOCK rows at a time,
    key each row by its tree's Matula number rooted at n-1, and keep the
    first row seen for each key.  A boolean table indexed by key marks the
    keys seen, so only rows with a new key go through Python.

    Rooted-isomorphic trees are isomorphic, so only these rooted classes
    go through the scalar prufer_decode, whose _matula must equal the
    key.  Walked in row order, they keep the first tree per canonical_code,
    which is then the first sequence of its free class."""
    if n > MAX_PRUFER_N:
        raise DomainError(
            f"Prufer enumeration supported for n <= {MAX_PRUFER_N}, got {n}"
        )
    total = n ** (n - 2)
    seen = np.zeros(_PRIME[-1] + 1, bool)
    reps: dict[str, Tree] = {}
    for start in range(0, total, PRUFER_BLOCK):
        block = _block_symbols(n, start, min(start + PRUFER_BLOCK, total))
        keys = _peel(block)
        fresh = np.flatnonzero(~seen[keys])
        for i, key in zip(fresh.tolist(), keys[fresh].tolist()):
            if not seen[key]:
                seen[key] = True
                t = prufer_decode(PruferSequence(block[:, i]))
                number = _matula(t.adjacency(), n - 1)
                if number != key:
                    raise InvariantViolationError(
                        f"Prufer kernel key {key} of row {start + i} at n={n} differs "
                        f"from its Matula number rooted at {n - 1}, {number}"
                    )
                reps.setdefault(canonical_code(t), t)
    _check_class_count("Prufer enumeration", n, len(reps))
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


@functools.cache
def _parents_by_leaves(n: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Every generated parent array on n vertices, bucketed by leaf count,
    k ascending, each bucket in generator order.  One generator pass per n
    fills the cache, whose class-count check runs over every sequence; a
    check that raises caches nothing.  The cache holds at most the 986
    classes with n <= MAX_N."""
    # the generator roots the 3-vertex path at its centre; that class
    # has always been represented by the path 0-1-2
    parents = _free_trees(n) if n != 3 else [[-1, 0, 1]]
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for parent in parents:
        # a vertex other than 0 is a leaf iff it is no parent; 0 iff it has one child
        k = n - len(set(parent[1:])) + (parent.count(0) == 1)
        buckets.setdefault(k, []).append(tuple(parent))
    _check_class_count("free-tree generation", n, sum(map(len, buckets.values())))
    return {k: tuple(bucket) for k, bucket in sorted(buckets.items())}


def _classes_by_generation(n: int, k: int | None = None) -> dict[str, Tree]:
    """The generated classes on n vertices, or only those with k leaves.
    Leaves are counted on the parent arrays, so a Tree is built and
    canonicalised only for the classes kept."""
    buckets = _parents_by_leaves(n)
    kept = buckets.get(k, ()) if k is not None else [p for b in buckets.values() for p in b]
    trees = [Tree(frozenset(zip(range(1, n), parent[1:]))) for parent in kept]
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

