"""Balance detection, switching, and cycle signs for signed complete graphs.

On K_n every pair of vertices is adjacent, so balance is equivalent to a
two-part vertex split with all negative edges across the parts, and also
to every triangle having positive sign product.
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


def _bipartition_signs(g: SignedCompleteGraph) -> list[int]:
    # On K_n vertex 0 is adjacent to everything, so s(v) = s(0) * sign(0, v)
    # is the only candidate assignment with s(0) = +1.
    return [1] + [g.sign(0, v) for v in range(1, g.n)]


def is_balanced(g: SignedCompleteGraph) -> bool:
    """True iff some s: V -> {-1, +1} has sign(uv) = s(u) s(v) on every edge."""
    s = _bipartition_signs(g)
    return all(
        g.sign(u, v) == s[u] * s[v] for u in range(g.n) for v in range(u + 1, g.n)
    )


def bipartition(g: SignedCompleteGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """The witnessing vertex split (plus side, minus side), or None if
    the graph is unbalanced.  Vertex 0 is always on the plus side."""
    if not is_balanced(g):
        return None
    s = _bipartition_signs(g)
    plus = frozenset(v for v in range(g.n) if s[v] == 1)
    return plus, frozenset(range(g.n)) - plus


def find_negative_triangle(g: SignedCompleteGraph) -> tuple[int, int, int] | None:
    """First triangle (i < j < k) with negative sign product, if any."""
    for i in range(g.n):
        for j in range(i + 1, g.n):
            sij = g.sign(i, j)
            for k in range(j + 1, g.n):
                if sij * g.sign(i, k) * g.sign(j, k) < 0:
                    return (i, j, k)
    return None


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
