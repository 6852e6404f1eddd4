"""Balance detection, switching, and cycle signs for signed complete graphs.

A signed graph is balanced iff it has no negative cycle (Harary 1953), and
switching a vertex set keeps the sign of every cycle (Zaslavsky 1982).  On
K_n let minus be the set of vertices joined to 0 by a negative edge:
switching minus makes every edge at 0 positive, and it is the only
switching that does so with 0 on the plus side.  So g is balanced iff the
switched graph has no negative edge, and then (V - minus, minus) is the
split.  Otherwise each edge uv still negative gives the negative triangle
(0, u, v), and the lexicographically first negative triangle of g is
(0, *min(left)) for the set left of edges still negative.  One switch,
O(n^2), answers all three questions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DomainError
from .graphs import SignedCompleteGraph, _vertex


def cycle_sign(g: SignedCompleteGraph, cycle: Sequence[int]) -> int:
    """Product of edge signs along a closed cycle of distinct vertices."""
    verts = [_vertex(v, DomainError) for v in cycle]
    if len(verts) < 3:
        raise DomainError(f"cycle needs at least 3 vertices, got {len(verts)}")
    if len(set(verts)) != len(verts):
        raise DomainError("cycle must not repeat vertices")
    for v in verts:
        if not 0 <= v < g.n:
            raise DomainError(f"vertex {v} out of range for n={g.n}")
    sign = 1
    for i, u in enumerate(verts):
        sign *= g.sign(u, verts[(i + 1) % len(verts)])
    return sign


def _switched_to_plus(
    g: SignedCompleteGraph,
) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """minus, the vertices joined to 0 by a negative edge, and left, the
    edges still negative after switching minus."""
    minus = frozenset(v for u, v in g.negative_edges if u == 0)
    return minus, switch(g, minus).negative_edges


def is_balanced(g: SignedCompleteGraph) -> bool:
    """True iff some s: V -> {-1, +1} has sign(uv) = s(u) s(v) on every edge."""
    return not _switched_to_plus(g)[1]


def bipartition(g: SignedCompleteGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """The witnessing vertex split (plus side, minus side), or None if
    the graph is unbalanced.  Vertex 0 is always on the plus side."""
    minus, left = _switched_to_plus(g)
    if left:
        return None
    return frozenset(range(g.n)) - minus, minus


def find_negative_triangle(g: SignedCompleteGraph) -> tuple[int, int, int] | None:
    """First triangle (i < j < k) with negative sign product, if any."""
    left = _switched_to_plus(g)[1]
    return (0, *min(left)) if left else None


def switch(g: SignedCompleteGraph, vertices: Iterable[int]) -> SignedCompleteGraph:
    """Flip the sign of every edge with exactly one endpoint in the given
    vertex set (repeats are ignored)."""
    inside = frozenset(_vertex(v, DomainError) for v in vertices)
    for v in inside:
        if not 0 <= v < g.n:
            raise DomainError(f"switch vertex {v} out of range for n={g.n}")
    outside = [v for v in range(g.n) if v not in inside]
    cut = frozenset(
        (a, b) if a < b else (b, a) for a in inside for b in outside
    )
    return SignedCompleteGraph(g.n, g.negative_edges ^ cut)
