"""Dense symmetric eigendecomposition via cyclic Jacobi sweeps, plus the
spectral quantities of signed complete graphs: the Spectrum with its index
(largest eigenvalue), least eigenvalue and spectral radius, and the top
eigenvector with a fixed sign convention.

λ1 of (K_n, T-) comes from tree elimination (Jacobs & Trevisan, "Locating
the eigenvalues of trees", Linear Algebra Appl. 434, 2011) with one
bordering vertex for the all-ones part: the tree's leaves are eliminated
first, so each pivot costs O(1).  tree_eigs_above counts the eigenvalues
above a rational x exactly, in Fraction arithmetic; tree_indices finds λ1
of a stack of same-size trees by multisection on the float counts, all
trees and points at once.  tree_index, spectrum_of and top_eigenvector
solve one matrix by Jacobi.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantViolationError
from .graphs import SignedCompleteGraph, Tree, signed_complete_from_tree

# Relative off-diagonal tolerance and sweep cap of the solver.
JACOBI_REL_TOL = 1e-12
MAX_SWEEPS = 100

# Interior points of each bracket per multisection pass of tree_indices:
# a pass narrows every bracket by a factor of _SECTIONS + 1.
_SECTIONS = 16

# Stands in for a float pivot that is exactly 0.0, so that it counts as
# negative and turns its parent's pivot hugely positive; 1/_ZERO_PIVOT
# squared still stays finite.
_ZERO_PIVOT = -(2.0**-200)

# λ1 - λ2 at or below this flags a numerically multiple top eigenvalue.
DEGENERATE_TOL = 1e-9

# |sum of entries| at or below this is treated as a sign-convention tie.
_SUM_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SymMatrix:
    """A real symmetric n x n matrix.  Entries are copied and frozen; n is
    read from their shape."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvariantViolationError(
                f"expected a square matrix, got shape {a.shape}"
            )
        if not np.array_equal(a, a.T):
            raise InvariantViolationError("matrix is not symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, aligned unit eigenvector columns, the
    off-diagonal norm the solver achieved and the Jacobi sweeps it took."""

    values: np.ndarray
    vectors: np.ndarray
    tol: float
    sweeps: int

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def lambda1(self) -> float:
        return float(self.values[0])

    @property
    def lambdan(self) -> float:
        return float(self.values[-1])

    @property
    def radius(self) -> float:
        return max(self.lambda1, -self.lambdan)


@dataclass(frozen=True)
class TopEigenvector:
    """Unit eigenvector for λ1 with the package sign convention, the
    eigenvalue itself, and a flag for numerically multiple λ1."""

    vector: np.ndarray
    value: float
    gap: float
    degenerate: bool


def _off_norm(a):
    """Frobenius norm of the off-diagonal part, summed from those entries
    alone: subtracting the diagonal's share from the full sum cancels."""
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float(np.sum(off * off)))


def _jacobi_sweeps(w, tol):
    """Run cyclic Jacobi sweeps in place on w = [A | I], an n x 2n array.

    A rotation J in the (p, q) plane rotates rows p and q of w, giving Jᵀ A
    on the left and Jᵀ Vᵀ = (V J)ᵀ on the right; copying the new rows into
    columns p and q of A completes Jᵀ A J, which stays exactly symmetric.
    The right block ends as Vᵀ, the transposed eigenvector matrix.

    Returns (achieved off-diagonal Frobenius norm, sweeps used).
    """
    n = w.shape[0]
    off = _off_norm(w[:, :n])
    sweeps = 0
    while off > tol and sweeps < MAX_SWEEPS:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                if apq == 0.0:
                    continue
                theta = (w[q, q] - w[p, p]) / (2.0 * apq)
                if abs(theta) > 1e154:
                    # asymptotic branch: avoids overflow in theta * theta
                    t = 1.0 / (2.0 * theta)
                elif theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app = w[p, p] - t * apq
                aqq = w[q, q] + t * apq
                wp = c * w[p] - s * w[q]
                wq = s * w[p] + c * w[q]
                w[p] = wp
                w[q] = wq
                w[:, p] = wp[:n]
                w[:, q] = wq[:n]
                w[p, p] = app
                w[q, q] = aqq
                w[p, q] = 0.0
                w[q, p] = 0.0
        sweeps += 1
        off = _off_norm(w[:, :n])
    return off, sweeps


def eigen_decompose(m: SymMatrix) -> Spectrum:
    """Full spectrum of a symmetric matrix, sorted descending, with its
    unit eigenvectors as aligned columns.

    Sweeps run until the off-diagonal Frobenius norm is at most
    JACOBI_REL_TOL times the Frobenius norm of the input, up to MAX_SWEEPS.
    Deterministic: identical input gives identical output.
    """
    n = m.n
    w = np.hstack([m.entries, np.eye(n)])
    tol = JACOBI_REL_TOL * m.frobenius()
    off, sweeps = _jacobi_sweeps(w, tol)
    if off > tol:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge: off-norm {off:.3e} > tol {tol:.3e}",
            off_norm=float(off),
        )
    vals = w.diagonal()
    order = np.argsort(-vals, kind="stable")
    values = vals[order]
    values.setflags(write=False)
    vectors = w[:, n:].T[:, order]
    vectors.setflags(write=False)
    return Spectrum(values=values, vectors=vectors, tol=float(off), sweeps=sweeps)


def adjacency_matrix(g: SignedCompleteGraph) -> SymMatrix:
    """A(Σ): zero diagonal, -1 on negative edges, +1 elsewhere."""
    a = np.ones((g.n, g.n)) - np.eye(g.n)
    for u, v in g.negative_edges:
        a[u, v] = -1.0
        a[v, u] = -1.0
    return SymMatrix(a)


def spectrum_of(g: SignedCompleteGraph) -> Spectrum:
    return eigen_decompose(adjacency_matrix(g))


def _leaves_first(t: Tree) -> list[int]:
    """Parent position of each vertex of t, the vertices numbered by their
    position in t's breadth-first walk from vertex 0 (-1 for the root).
    Every parent comes before its children, so eliminating positions n-1
    down to 0 takes each vertex after all of its children: leaves first."""
    order, parent = t._walk
    pos = [0] * t.n
    for i, v in enumerate(order):
        pos[v] = i
    return [-1] + [pos[parent[v]] for v in order[1:]]


def _above(parents: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Whether λ1 > x for each tree and each x of xs, a (b, m) array, from
    the float pivots of tree_eigs_above's bordered matrix.  parents is the
    (b, n) stack of the trees' _leaves_first arrays; each elimination step
    runs on one position of every tree at every point at once.

    A pivot that is exactly 0.0 becomes _ZERO_PIVOT, so it counts as
    negative and leaves its parent a huge positive pivot: the inertia of
    the 2 x 2 block the pair forms, whose determinant is -4.  A zero pivot
    at the root pairs with the border the same way, unless its border
    entry is 0 too, when x is an eigenvalue and not above it.  The corner
    loses all precision after such a pair, but the pair's positive pivot
    has already shown, exactly, that λ1 > x.
    """
    n = parents.shape[1]
    rows = np.arange(len(parents))
    d = np.empty((n, *xs.shape))
    d[:] = -1.0 - xs
    b = np.ones_like(d)
    corner = np.full(xs.shape, -1.0)
    above = np.zeros(xs.shape, bool)
    for v in range(n - 1, -1, -1):
        dv, bv = d[v], b[v]
        dv[dv == 0.0] = _ZERO_PIVOT
        above |= dv > 0.0
        r = bv / dv
        corner -= bv * r
        if v:
            p = parents[:, v]
            d[p, rows] -= 4.0 / dv
            b[p, rows] += 2.0 * r
    return above | (corner > 0.0)


def tree_indices(trees: Sequence[Tree]) -> list[float]:
    """λ1 of (K_n, T-) for each tree of negative edges, all on the same n,
    by multisection on the float counts of _above: no eigensolve.

    Each bracket starts at [(n-1)(n-4)/n - 1, n]: the all-ones Rayleigh
    quotient (n-1)(n-4)/n is at most λ1, and λ1 is at most n - 1, which
    the star attains.  Each pass counts at _SECTIONS evenly spaced points
    inside every bracket; the first point with no eigenvalue above it and
    the point before it are the new ends, until the ends are adjacent
    floats.  The value returned is the upper end: the least float found
    with no eigenvalue above it, λ1 rounded up when the counts are exact.
    Every value is within 4 ulp of that float on all classes with n <= 12.

    A tree's value does not depend on the others in the stack: every step
    is elementwise, and once its ends are adjacent floats, its points
    round to those ends and count as they did before.
    """
    if len({t.n for t in trees}) > 1:
        raise DomainError(
            f"stacked trees must share n, got n in {sorted({t.n for t in trees})}"
        )
    if not trees:
        return []
    n = trees[0].n
    parents = np.array([_leaves_first(t) for t in trees])
    rows = np.arange(len(trees))
    lo = np.full(len(trees), (n - 1) * (n - 4) / n - 1.0)
    hi = np.full(len(trees), float(n))
    frac = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
    while np.any(np.nextafter(lo, hi) < hi):
        xs = lo[:, None] + (hi - lo)[:, None] * frac
        # first point with no eigenvalue above it; _SECTIONS if none
        j = np.argmin(np.c_[_above(parents, xs), np.zeros(len(trees), bool)], axis=1)
        ends = np.c_[lo, xs, hi]
        lo, hi = ends[rows, j], ends[rows, j + 1]
    return hi.tolist()


def tree_index(t: Tree) -> float:
    """λ1 of (K_n, T-) for the given tree of negative edges."""
    return eigen_decompose(adjacency_matrix(signed_complete_from_tree(t))).lambda1


def tree_eigs_above(t: Tree, x: Fraction | float | int) -> int | None:
    """Number of eigenvalues of (K_n, T-) strictly above x, counted exactly,
    or None when an elimination pivot is exactly zero.

    A - xI = D + 11ᵀ with D = -(1+x)I - 2B, B the tree's adjacency matrix,
    is the Schur complement of the corner of M = [[D, 1], [1ᵀ, -1]], so A
    has as many eigenvalues above x as M has positive pivots.  M is
    eliminated leaves first, in reverse breadth-first order from vertex 0,
    and the border last: no step fills in, so each pivot costs O(1).

    A zero pivot needs an integer x: it makes -1-x an eigenvalue of 2B on a
    subtree, or x one of A, and a rational algebraic integer is an integer.
    """
    try:
        x = Fraction(x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"x must be finite, got {x!r}") from exc
    order, parent = t._walk
    d = [-1 - x] * t.n
    b = [Fraction(1)] * t.n
    corner = Fraction(-1)
    above = 0
    for v in reversed(order):
        dv, bv = d[v], b[v]
        if dv == 0:
            return None
        above += dv > 0
        p = parent[v]
        if p >= 0:
            d[p] -= 4 / dv
            b[p] += 2 * bv / dv
        corner -= bv * bv / dv
    if corner == 0:
        return None
    return above + (corner > 0)


def residual(m: SymMatrix, value: float, vector: np.ndarray) -> float:
    """2-norm of A x - value x."""
    return float(np.linalg.norm(m.entries @ vector - value * vector))


def top_eigenvector(g: SignedCompleteGraph) -> TopEigenvector:
    """Unit λ1-eigenvector, sign-normalized: entry sum >= 0, with a
    near-zero sum resolved by making the largest-magnitude entry positive.

    When λ1 - λ2 <= DEGENERATE_TOL the returned vector is still a valid
    eigenvector but the degenerate flag is set; callers that rely on a
    specific eigenvector should check it.
    """
    spec = eigen_decompose(adjacency_matrix(g))
    x = spec.vectors[:, 0].copy()
    total = float(x.sum())
    if total < -_SUM_TIE_TOL:
        x = -x
    elif abs(total) <= _SUM_TIE_TOL:
        if x[int(np.argmax(np.abs(x)))] < 0:
            x = -x
    x.setflags(write=False)
    gap = float(spec.values[0] - spec.values[1])
    return TopEigenvector(
        vector=x,
        value=spec.lambda1,
        gap=gap,
        degenerate=gap <= DEGENERATE_TOL,
    )
