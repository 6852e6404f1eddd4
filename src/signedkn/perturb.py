"""Sign-rotation moves on signed complete graphs and a hill climb over
spanning-tree negative sets with a fixed leaf count.

A type_i move picks a positive edge rs and a negative edge rt sharing the
vertex r and reverses both signs.  A type_ii move does the same for a
positive edge rs and a negative edge tu with all four vertices distinct.
Under eigenvector-entry preconditions these moves never decrease the index,
which is what the climb exploits.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InvariantViolationError,
    PreconditionError,
    StaleEigenvectorError,
)
from .graphs import SignedCompleteGraph, Tree, _bfs_order, _vertex
from .spectra import adjacency_matrix, residual, tree_eigs_above, tree_index
# Nothing here calls eigen_decompose; perfbench's restore test checks this binding
# (test_traced_run_reports_every_layer_metric_and_restores_the_package).
from .spectra import eigen_decompose  # noqa: F401

KINDS = ("type_i", "type_ii")

# Entries within ZERO_TOL of zero (or of each other) are treated as ties
# when classifying a precondition as strict; a strict report therefore
# certifies a margin that solver noise cannot fake.
ZERO_TOL = 1e-12

RESIDUAL_TOL = 1e-8

# λ1 must rise by more than this for a climb step to count as improvement.
IMPROVE_TOL = 1e-10


@dataclass(frozen=True)
class RotationMove:
    """kind "type_i" with vertices (r, s, t), or "type_ii" with (r, s, t, u);
    RotationMove(vertices) reads kind from the number of vertices.

    The move reverses the positive edge rs together with the negative edge
    rt (type_i) or tu (type_ii).
    """

    kind: str = field(init=False)
    vertices: tuple[int, ...]

    def __post_init__(self):
        verts = tuple(_vertex(v, DomainError) for v in self.vertices)
        if len(verts) not in (3, 4):
            raise DomainError(f"a move needs 3 or 4 vertices, got {len(verts)}")
        object.__setattr__(self, "kind", KINDS[len(verts) - 3])
        object.__setattr__(self, "vertices", verts)
        if len(set(verts)) != len(verts):
            raise DomainError(f"move vertices must be distinct, got {verts}")

    @property
    def positive_edge(self) -> tuple[int, int]:
        r, s = self.vertices[0], self.vertices[1]
        return (r, s) if r < s else (s, r)

    @property
    def negative_edge(self) -> tuple[int, int]:
        if self.kind == "type_i":
            r, t = self.vertices[0], self.vertices[2]
        else:
            r, t = self.vertices[2], self.vertices[3]
        return (r, t) if r < t else (t, r)


@dataclass(frozen=True)
class PreconditionReport:
    """Outcome of checking a move against a λ1-eigenvector.

    entries_used holds (x_r, x_s, x_t) or (x_r, x_s, x_t, x_u) from the
    unit-normalized vector.  strict implies satisfied.  Whether λ1 is
    degenerate is top_eigenvector(g).degenerate.
    """

    satisfied: bool
    strict: bool
    entries_used: tuple[float, ...]


def _check_pattern(g: SignedCompleteGraph, m: RotationMove) -> None:
    for v in m.vertices:
        if not 0 <= v < g.n:
            raise DomainError(f"move vertex {v} out of range for n={g.n}")
    pos = m.positive_edge
    if pos in g.negative_edges:
        raise PreconditionError(
            f"edge {pos} must be positive for {m.kind}", edge=pos
        )
    neg = m.negative_edge
    if neg not in g.negative_edges:
        raise PreconditionError(
            f"edge {neg} must be negative for {m.kind}", edge=neg
        )


def apply_rotation(g: SignedCompleteGraph, m: RotationMove) -> SignedCompleteGraph:
    """Reverse the move's positive and negative edge; nothing else changes."""
    _check_pattern(g, m)
    neg = (g.negative_edges - {m.negative_edge}) | {m.positive_edge}
    return SignedCompleteGraph(g.n, neg)


def _classify(kind: str, entries: tuple[float, ...]):
    """Precondition truth table with a zero-tolerance band.

    A quantity within ZERO_TOL of zero counts as zero: it satisfies both
    weak inequalities and neither strict one.
    """
    if kind == "type_i":
        xr, xs, xt = entries
        d = xt - xs
        up = xr >= -ZERO_TOL and d >= -ZERO_TOL
        down = xr <= ZERO_TOL and d <= ZERO_TOL
        satisfied = up or down
        strict = (up and (xr > ZERO_TOL or d > ZERO_TOL)) or (
            down and (xr < -ZERO_TOL or d < -ZERO_TOL)
        )
    else:
        xr, xs, xt, xu = entries
        satisfied = xt * xu - xr * xs >= -ZERO_TOL
        strict = satisfied and max(abs(e) for e in entries) > ZERO_TOL
    return satisfied, strict


def check_precondition(
    g: SignedCompleteGraph, m: RotationMove, x: np.ndarray
) -> PreconditionReport:
    """Evaluate the move's eigenvector-entry precondition.

    x must be a λ1-eigenvector of g: it is unit-normalized and rejected
    with a stale-eigenvector error unless its entries are finite and not
    all zero and its Rayleigh residual is at most RESIDUAL_TOL.  It is
    divided by its largest entry first, so a finite vector whose norm
    leaves the float range is judged like any multiple of it.
    """
    _check_pattern(g, m)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise DomainError(f"eigenvector must have shape ({g.n},), got {x.shape}")
    scale = float(np.max(np.abs(x)))
    if not 0.0 < scale < math.inf:
        raise StaleEigenvectorError(f"eigenvector has largest entry {scale}", math.inf)
    x = x / scale
    x = x / np.linalg.norm(x)
    sym = adjacency_matrix(g)
    lam = float(x @ (sym.entries @ x))
    res = residual(sym, lam, x)
    if not res <= RESIDUAL_TOL:
        raise StaleEigenvectorError(
            f"residual {res:.3e} exceeds {RESIDUAL_TOL:.1e}; "
            "recompute the eigenvector for this graph",
            res,
        )
    entries = tuple(float(x[v]) for v in m.vertices)
    satisfied, strict = _classify(m.kind, entries)
    return PreconditionReport(satisfied=satisfied, strict=strict, entries_used=entries)


@dataclass(frozen=True)
class ClimbStep:
    """One accepted move: 1-based step index, the move, and the new λ1."""

    step: int
    kind: str
    vertices: tuple[int, ...]
    lambda1: float


def _candidate_moves(t: Tree) -> Iterator[tuple[RotationMove, Tree]]:
    """All 1-edge exchanges that keep the negative set a spanning tree with
    the same number of leaves, as rotation moves sorted by vertex tuple.

    Adding cd and removing the edge ab of the c-d path, a the end nearer c,
    keeps the leaf count iff as many of a, b go from degree 2 to 1 as of
    c, d from 1 to 2; a vertex shared by both edges keeps its degree.  The
    move is type_i (c, d, b) when a == c, type_i (d, c, a) when b == d, and
    type_ii (c, d, a, b) otherwise.  Each move and its tree are built when
    the caller reaches them, so a climb that accepts a move early builds
    none of the ones after it.
    """
    n = t.n
    deg = t.degrees()
    labels = []
    for c in range(n):
        order, up = _bfs_order(t.adjacency(), c)
        for i, d in enumerate(order):
            if d <= c or up[i] == 0:  # each pair once; cd already an edge
                continue
            j, b = i, d  # walked up to c at position 0, so a is the end nearer c
            while j:
                j = up[j]
                a = order[j]
                if a == c:
                    if (deg[b] == 2) == (deg[d] == 1):
                        labels.append((c, d, b))
                elif b == d:
                    if (deg[a] == 2) == (deg[c] == 1):
                        labels.append((d, c, a))
                elif (deg[a] == 2) + (deg[b] == 2) == (deg[c] == 1) + (deg[d] == 1):
                    labels.append((c, d, a, b))
                b = a
    for verts in sorted(labels):
        move = RotationMove(verts)
        yield move, Tree((t.edges - {move.negative_edge}) | {move.positive_edge})


def hill_climb(start: Tree, max_steps: int = 500) -> tuple[Tree, list[ClimbStep]]:
    """First-improvement local search maximizing λ1 of (K_n, T-).

    Moves are the spanning-tree 1-exchanges that preserve the start tree's
    leaf count, tried in lexicographic vertex order; a move is accepted as
    soon as the recomputed λ1 rises by more than IMPROVE_TOL.  Stops at a
    local maximum or after max_steps accepted moves.

    A candidate is accepted iff one exact count, tree_eigs_above, finds an
    eigenvalue above thr = λ + IMPROVE_TOL; an integer thr is moved to the
    next float up, as a count meets a zero pivot only at an integer.  Only
    the start and the accepted moves are solved; their λ1 goes in the
    trace.  A zero pivot, or a solve that contradicts its count, raises
    InvariantViolationError.

    The count decides λ1 > thr exactly, so the trace is the one a climb
    that solves every candidate would make.
    """
    if max_steps < 0:
        raise DomainError(f"max_steps must be >= 0, got {max_steps}")
    current = start
    lam = tree_index(current)
    trace: list[ClimbStep] = []
    while len(trace) < max_steps:
        thr = lam + IMPROVE_TOL
        if thr.is_integer():
            thr = math.nextafter(thr, math.inf)
        for move, new_tree in _candidate_moves(current):
            above = tree_eigs_above(new_tree, thr)
            if above is None:
                raise InvariantViolationError(f"count met a zero pivot at {thr!r}")
            if not above:
                continue
            new_lam = tree_index(new_tree)
            if not new_lam > thr:
                raise InvariantViolationError(
                    f"count puts λ1 above {thr!r}, but the solve gives {new_lam!r}"
                )
            current = new_tree
            lam = new_lam
            trace.append(
                ClimbStep(
                    step=len(trace) + 1,
                    kind=move.kind,
                    vertices=move.vertices,
                    lambda1=new_lam,
                )
            )
            break
        else:
            break
    return current, trace
