"""Labelled trees, the Prufer codec, canonical forms, named tree families,
and signed complete graphs whose negative edges are given by a tree.

Vertices are always the contiguous integers 0..n-1 and edges are stored as
(min, max) pairs so that sets of edges compare reliably.
"""

from __future__ import annotations

import heapq
import operator
import random
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DomainError, InvariantViolationError, MalformedInputError


def _vertex(v, error: type[Exception] = InvariantViolationError) -> int:
    """v as an int: any integer type, numpy's too, but not a float or a
    string, which int() would truncate or parse; else raise error."""
    try:
        return operator.index(v)
    except TypeError:
        raise error(f"vertex label must be an integer, got {v!r}") from None


def _vertex_count(n, needs: str) -> int:
    """n as an int, from any integer type as _vertex takes it, if n >= 2;
    else a DomainError that starts with needs."""
    try:
        m = operator.index(n)
    except TypeError:
        m = None
    if m is None or m < 2:
        raise DomainError(f"{needs}, got {n!r}")
    return m


def _norm_edge(e) -> tuple[int, int]:
    u, v = e
    u, v = _vertex(u), _vertex(v)
    if u == v:
        raise InvariantViolationError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Tree:
    """A labelled tree on vertices 0..n-1, stored as a frozenset of edges.

    Tree(edges) reads n = len(edges) + 1.  Construction checks that there
    is an edge, that all endpoints are in range, and that the edges connect
    (which together with the edge count implies acyclic).  What that check
    builds is kept outside the fields that eq, hash and repr see: the
    neighbour lists as _adj, for adjacency(), and the _bfs_order walk from
    0 as _walk = (order, up).
    """

    n: int = field(init=False)
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        edges = frozenset(_norm_edge(e) for e in self.edges)
        if not edges:
            raise DomainError("tree needs at least one edge")
        n = len(edges) + 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        nbs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolationError(
                    f"edge ({u}, {v}) out of range for n={n}"
                )
            nbs[u].append(v)
            nbs[v].append(u)
        adj = tuple(tuple(sorted(nb)) for nb in nbs)
        order, up = _bfs_order(adj, 0)
        if len(order) != n:
            raise InvariantViolationError("edge set is not connected")
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_walk", (order, up))

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of each vertex, sorted ascending: adjacency()[v] is
        the tuple of v's neighbours.  Built once, at construction."""
        return self._adj

    def degrees(self) -> list[int]:
        return [len(nb) for nb in self._adj]

    def relabel(self, perm: Sequence[int]) -> "Tree":
        """Apply the vertex permutation old -> perm[old]."""
        if sorted(perm) != list(range(self.n)):
            raise DomainError("perm must be a permutation of 0..n-1")
        return Tree(frozenset((perm[u], perm[v]) for u, v in self.edges))


@dataclass(frozen=True)
class PruferSequence:
    """A Prufer code: n-2 symbols, each a vertex label of the target tree;
    PruferSequence(symbols) reads n = len(symbols) + 2."""

    n: int = field(init=False)
    symbols: tuple[int, ...]

    def __post_init__(self):
        symbols = tuple(_vertex(s, MalformedInputError) for s in self.symbols)
        n = len(symbols) + 2
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "symbols", symbols)
        for s in symbols:
            if not 0 <= s < n:
                raise MalformedInputError(f"symbol {s} out of range for n={n}")


def prufer_decode(seq: PruferSequence) -> Tree:
    """Classical decode with the smallest-leaf convention."""
    n = seq.n
    deg = [1] * n
    for s in seq.symbols:
        deg[s] += 1
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for s in seq.symbols:
        leaf = heapq.heappop(heap)
        edges.append((leaf, s))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(heap, s)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((u, v))
    return Tree(frozenset(edges))


def prufer_encode(t: Tree) -> PruferSequence:
    """Inverse of prufer_decode: peel smallest leaves, record their neighbours."""
    n = t.n
    adj = [set(nb) for nb in t.adjacency()]
    heap = [v for v in range(n) if len(adj[v]) == 1]
    heapq.heapify(heap)
    out = []
    for _ in range(n - 2):
        leaf = heapq.heappop(heap)
        nb = next(iter(adj[leaf]))
        out.append(nb)
        adj[nb].discard(leaf)
        if len(adj[nb]) == 1:
            heapq.heappush(heap, nb)
    return PruferSequence(tuple(out))


def leaf_count(t: Tree) -> int:
    """Number of pendant (degree-one) vertices; at least 2 for any tree."""
    return sum(1 for d in t.degrees() if d == 1)


def build_star(n: int) -> Tree:
    """Star with centre 0 and leaves 1..n-1."""
    if n < 2:
        raise DomainError(f"star needs n >= 2, got {n}")
    return Tree(frozenset((0, v) for v in range(1, n)))


def build_path(n: int) -> Tree:
    """Path 0-1-...-(n-1)."""
    if n < 2:
        raise DomainError(f"path needs n >= 2, got {n}")
    return Tree(frozenset((v, v + 1) for v in range(n - 1)))


def build_double_star(a: int, b: int) -> Tree:
    """Two adjacent centres 0 and 1 carrying a and b pendant vertices."""
    if a < 1 or b < 1:
        raise DomainError(f"double star needs a >= 1 and b >= 1, got ({a}, {b})")
    n = a + b + 2
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, a + 2)]
    edges += [(1, v) for v in range(a + 2, n)]
    return Tree(frozenset(edges))


def build_broom(n: int, k: int) -> Tree:
    """Hub 0 with k-1 pendant vertices plus a path on the remaining n-k.

    build_broom(n, 2) is a path and build_broom(n, n-1) is a star; for
    3 <= k <= n-2 the hub is the unique vertex of maximum degree k.
    build_broom(2, 2) is the one edge.
    """
    _check_leaf_count(n, k)
    edges = [(0, v) for v in range(1, min(k + 1, n))]
    edges += [(v, v + 1) for v in range(k, n - 1)]
    return Tree(frozenset(edges))


def random_tree(n: int, rng: random.Random) -> Tree:
    """Uniform random labelled tree via a uniform Prufer sequence."""
    if n < 2:
        raise DomainError(f"random tree needs n >= 2, got {n}")
    symbols = tuple(rng.randrange(n) for _ in range(n - 2))
    return prufer_decode(PruferSequence(symbols))


def _check_leaf_count(n: int, k: int) -> None:
    """Reject a leaf count no tree on n vertices can have: a tree has
    2 <= k <= n-1 leaves, except the one edge (n = 2), which has 2."""
    if not (2 <= k <= n - 1 or k == n == 2):
        raise DomainError(f"need 2 <= k <= n-1, got (n={n}, k={k})")


def random_tree_with_leaf_count(n: int, k: int, rng: random.Random) -> Tree:
    """Random labelled tree with exactly k leaves.

    Uses the fact that a decoded tree has n minus (distinct symbols) leaves:
    pick n-k distinct symbols, place each at least once, fill the rest.
    """
    _check_leaf_count(n, k)
    interior = rng.sample(range(n), n - k)
    symbols = list(interior) + [rng.choice(interior) for _ in range(k - 2)]
    rng.shuffle(symbols)
    return prufer_decode(PruferSequence(tuple(symbols)))


def _bfs_order(adj: Sequence[Sequence[int]], root: int):
    """Breadth-first order from root, neighbours as adj lists them, and up,
    where up[i] is the position in order of order[i]'s parent: up[0] = -1
    and up[i] < i.  order leaves out the vertices root cannot reach."""
    seen = [False] * len(adj)
    seen[root] = True
    order, up = [root], [-1]
    for i, v in enumerate(order):
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
                up.append(i)
    return order, up


def _centroids(t: Tree) -> list[int]:
    """The one or two vertices minimising the largest component left by
    their removal (subtree-size centroid, not the path center)."""
    n = t.n
    order, up = t._walk
    size = [1] * n
    biggest = [0] * n  # largest child subtree
    for i in range(n - 1, 0, -1):
        p = up[i]
        size[p] += size[i]
        biggest[p] = max(biggest[p], size[i])
    return [order[i] for i in range(n) if max(biggest[i], n - size[i]) <= n // 2]


def _rooted_code(adj: Sequence[Sequence[int]], root: int) -> str:
    order, up = _bfs_order(adj, root)
    kids: list[list[str]] = [[] for _ in order]
    for i in range(len(order) - 1, -1, -1):
        code = "1" + "".join(sorted(kids[i], key=lambda c: (len(c), c))) + "0"
        if i:
            kids[up[i]].append(code)
    return code


def canonical_code(t: Tree) -> str:
    """Isomorphism-invariant code of a free tree.

    The code is a balanced string of '1'/'0' characters of length 2n, read
    as open/close marks of an ordered rooted tree: equal codes if and only
    if the underlying free trees are isomorphic.  It is the AHU-style code
    rooted at the centroid; for bicentroidal trees the lexicographically
    smaller of the two rooted codes is used (both have length 2n, so string
    order and numeric order agree)."""
    adj = t.adjacency()
    return min(_rooted_code(adj, c) for c in _centroids(t))


@dataclass(frozen=True)
class SignedCompleteGraph:
    """K_n with a distinguished set of negative edges; all other edges
    are positive.  The negative set is arbitrary here; the constructions
    of interest make it a spanning tree."""

    n: int
    negative_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = _vertex_count(self.n, "signed K_n needs n >= 2")
        object.__setattr__(self, "n", n)
        neg = frozenset(_norm_edge(e) for e in self.negative_edges)
        object.__setattr__(self, "negative_edges", neg)
        for u, v in neg:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvariantViolationError(
                    f"negative edge ({u}, {v}) out of range for n={self.n}"
                )

    def sign(self, u: int, v: int) -> int:
        """Sign of the edge uv: -1 or +1."""
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            raise DomainError(f"({u}, {v}) is not an edge of K_{self.n}")
        return -1 if (min(u, v), max(u, v)) in self.negative_edges else 1


def signed_complete_from_tree(t: Tree) -> SignedCompleteGraph:
    """The signed complete graph whose negative edges are exactly t's edges."""
    return SignedCompleteGraph(t.n, t.edges)


def parse_edge_list(text: str) -> Tree:
    """Parse the edge-list text format: a line "n", then one "u v" per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise MalformedInputError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise MalformedInputError(f"first line must be the vertex count, got {lines[0]!r}")
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise MalformedInputError(f"expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedInputError(f"non-integer endpoint in {ln!r}")
        # a Tree keeps an edge set, so a second copy would vanish silently
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise MalformedInputError(f"repeated edge {edge} in {ln!r}")
        edges.add(edge)
    if n < 2:
        raise MalformedInputError(
            f"edge list is not a tree: tree needs an integer n >= 2, got {n}"
        )
    if len(edges) != n - 1:
        raise MalformedInputError(
            f"edge list is not a tree: tree on {n} vertices needs {n - 1} edges, "
            f"got {len(edges)}"
        )
    try:
        return Tree(edges)
    except (DomainError, InvariantViolationError) as exc:
        raise MalformedInputError(f"edge list is not a tree: {exc}") from exc


def format_edge_list(t: Tree) -> str:
    lines = [str(t.n)]
    lines += [f"{u} {v}" for u, v in sorted(t.edges)]
    return "\n".join(lines) + "\n"


def parse_prufer(text: str) -> PruferSequence:
    """Parse a comma-separated Prufer code; empty input means n=2."""
    stripped = text.strip()
    if not stripped:
        return PruferSequence(())
    try:
        symbols = tuple(int(p.strip()) for p in stripped.split(","))
    except ValueError:
        raise MalformedInputError(f"bad Prufer string {text!r}")
    return PruferSequence(symbols)


def format_prufer(seq: PruferSequence) -> str:
    return ",".join(str(s) for s in seq.symbols)
