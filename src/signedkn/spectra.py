"""Dense symmetric eigendecomposition via cyclic Jacobi sweeps, plus the
spectral quantities of signed complete graphs: the Spectrum with its index
(largest eigenvalue), least eigenvalue and spectral radius, and the top
eigenvector with a fixed sign convention.

λ1 of (K_n, T-) also comes without an eigensolve, from tree elimination
(Jacobs & Trevisan, "Locating the eigenvalues of trees", Linear Algebra
Appl. 434, 2011): counted exactly by tree_eigs_above, after Bareiss
(Math. Comp. 22, 1968), and found by float multisection in tree_indices.
tree_index, spectrum_of and top_eigenvector solve by Jacobi.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantViolationError
from .graphs import SignedCompleteGraph, Tree, signed_complete_from_tree

# Relative off-diagonal tolerance and sweep cap of the solver.
JACOBI_REL_TOL = 1e-12
MAX_SWEEPS = 100

# Interior points of each bracket per multisection pass of tree_indices:
# a pass narrows every bracket by a factor of _SECTIONS + 1.
_SECTIONS = 16

# Passes after which tree_indices gives up on a bracket: each starts under 6
# wide and a pass narrows it 17-fold, so 14 passes take it under an ulp of
# any λ1 >= 1 (the least is 1, at n = 2), and every class with n <= 12 and
# random trees up to n = 100 close in 12 to 15; an open bracket at 64 is a
# kernel fault.
_MAX_PASSES = 64

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
    """A real symmetric n x n matrix of finite entries.  Entries are copied
    and frozen; n is read from their shape."""

    entries: np.ndarray

    def __post_init__(self):
        try:
            raw = np.asarray(self.entries)
        except ValueError as exc:
            raise DomainError(f"matrix rows must all have one length: {exc}") from None
        if raw.dtype.kind not in "biufO":
            raise DomainError(f"matrix entries must be real numbers, got dtype {raw.dtype}")
        try:
            a = np.array(raw, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"matrix entries must be real numbers: {exc}") from None
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvariantViolationError(
                f"expected a square matrix, got shape {a.shape}"
            )
        finite = np.isfinite(a)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise DomainError(f"matrix entries must be finite, got {a[i, j]} at ({i}, {j})")
        if not np.array_equal(a, a.T):
            raise InvariantViolationError("matrix is not symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def frobenius(self) -> float:
        """‖A‖_F, or inf when the sum of squares overflows."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.entries))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, the off-diagonal norm the solver
    achieved and the Jacobi sweeps it took.

    The aligned unit eigenvector columns, .vectors, are computed when first
    read, by replaying the solver's rotation log on the identity, and kept:
    later reads return the same read-only array.  The log holds one
    (p, q, c, s) entry per rotation applied, at most n(n-1)/2 per sweep:
    about 1000 entries for a solve at n = 16, and about 50k at n = 100.
    """

    values: np.ndarray
    tol: float
    sweeps: int
    # the rotation log, and the order that sorts the solver's diagonal
    _rotations: list = field(repr=False, compare=False)
    _order: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def vectors(self) -> np.ndarray:
        vectors = _replay(self._rotations, self.n).T[:, self._order]
        vectors.setflags(write=False)
        return vectors

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


def _rotate(x, y, c, s):
    """Rows x and y turned by a Jacobi rotation: c*x - s*y and s*x + c*y,
    entry by entry, each product rounded on its own."""
    return [c * a - s * b for a, b in zip(x, y)], [s * a + c * b for a, b in zip(x, y)]


def _jacobi_sweeps(a, tol):
    """Run cyclic Jacobi sweeps in place on the n x n array a.

    A rotation J in the (p, q) plane turns rows p and q of A, giving Jᵀ A;
    copying the new rows into columns p and q completes Jᵀ A J, which stays
    exactly symmetric.  Each rotation applied is logged as (p, q, c, s); a
    pair whose entry is already 0.0 is skipped and not logged.  Turning
    rows p and q of I by the logged rotations in order gives Vᵀ, the
    transposed eigenvector matrix, bit for bit as if those rows had been
    turned alongside A's: the column copy writes only A's columns.

    The rotations run on a's rows as Python lists of floats, which on rows
    this short costs far less than a numpy call per row.  Each entry is the
    same IEEE double operations in the same order as the numpy rows would
    take, so the bits are those of the array version.  The rows go back
    into a before each off-norm, which numpy sums.

    Returns (achieved off-diagonal Frobenius norm, sweeps used, log).
    """
    n = a.shape[0]
    off = _off_norm(a)
    sweeps = 0
    rows = a.tolist()
    log = []
    while off > tol and sweeps < MAX_SWEEPS:
        for p in range(n - 1):
            for q in range(p + 1, n):
                rp, rq = rows[p], rows[q]
                apq = rp[q]
                if apq == 0.0:
                    continue
                theta = (rq[q] - rp[p]) / (2.0 * apq)
                if abs(theta) > 1e154:
                    # asymptotic branch: avoids overflow in theta * theta
                    t = 1.0 / (2.0 * theta)
                elif theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app = rp[p] - t * apq
                aqq = rq[q] + t * apq
                log.append((p, q, c, s))
                wp, wq = _rotate(rp, rq, c, s)
                rows[p], rows[q] = wp, wq
                for r, x, y in zip(rows, wp, wq):
                    r[p] = x
                    r[q] = y
                wp[p] = app
                wq[q] = aqq
                wp[q] = 0.0
                wq[p] = 0.0
        sweeps += 1
        a[:] = rows
        off = _off_norm(a)
    return off, sweeps, log


def _replay(log, n):
    """Vᵀ: the rows of the n x n identity turned by each logged rotation
    in order, with _jacobi_sweeps' own arithmetic."""
    rows = np.eye(n).tolist()
    for p, q, c, s in log:
        rows[p], rows[q] = _rotate(rows[p], rows[q], c, s)
    return np.array(rows)


# ‖A‖_F outside [2**-511, 2**511] (A not zero) puts the squares that the
# off-norm sums outside the normal floats: they overflow to inf, or
# underflow so far that the convergence test reads nothing.
_MIN_NORM, _MAX_NORM = 2.0**-511, 2.0**511


def eigen_decompose(m: SymMatrix) -> Spectrum:
    """Full spectrum of a symmetric matrix, sorted descending.  The unit
    eigenvectors, as aligned columns, are computed only if .vectors is read.

    Sweeps run until the off-diagonal Frobenius norm is at most
    JACOBI_REL_TOL times the Frobenius norm of the input, up to MAX_SWEEPS.
    A nonzero matrix whose Frobenius norm is outside [2**-511, 2**511]
    raises DomainError.  Deterministic: identical input gives identical
    output.
    """
    norm = m.frobenius()
    if norm > _MAX_NORM:
        raise DomainError(
            f"matrix too large for the solver: Frobenius norm {norm:.3e} > 2**511, "
            "so the squares of its entries overflow"
        )
    if norm < _MIN_NORM and m.entries.any():
        raise DomainError(
            f"matrix too small for the solver: Frobenius norm {norm:.3e} < 2**-511, "
            "so the squares of its entries underflow"
        )
    a = np.array(m.entries)
    tol = JACOBI_REL_TOL * norm
    off, sweeps, log = _jacobi_sweeps(a, tol)
    if off > tol:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge: off-norm {off:.3e} > tol {tol:.3e}",
            off_norm=float(off),
        )
    vals = a.diagonal()
    order = np.argsort(-vals, kind="stable")
    values = vals[order]
    values.setflags(write=False)
    return Spectrum(values=values, tol=float(off), sweeps=sweeps, _rotations=log, _order=order)


def adjacency_matrix(g: SignedCompleteGraph) -> SymMatrix:
    """A(Σ): zero diagonal, -1 on negative edges, +1 elsewhere."""
    a = np.ones((g.n, g.n)) - np.eye(g.n)
    for u, v in g.negative_edges:
        a[u, v] = -1.0
        a[v, u] = -1.0
    return SymMatrix(a)


def spectrum_of(g: SignedCompleteGraph) -> Spectrum:
    return eigen_decompose(adjacency_matrix(g))


class _Elimination:
    """The float counts of tree_indices for one stack of trees: above(xs)
    says whether λ1 > x for each tree and each point of a (b, m) array xs,
    from the float pivots of tree_eigs_above's bordered matrix.  parents is
    the (b, n) stack of the trees' walk parents, Tree._walk[1], and m the
    points per tree; each elimination step runs on one position of every
    tree at every point at once.

    The pivots and border entries lie flat, one (b*m)-long row per walk
    position: tree r's entry for point j at position v sits at
    v*b*m + r*m + j.  A step reads its position's row as a slice and
    writes into the parents' entries through that position's row of an
    n x (b*m) table of flat offsets: the parent positions times b*m plus
    each cell's r*m + j.  The table and the pivot, border and corner
    buffers are built once per kernel, so once per tree_indices call, and
    each pass through above() re-initialises the buffers in place.  The
    table and the two n x (b*m) buffers take 24*n*b*m bytes: 0.73 MB for
    the 158 classes of n = 12, k = 6 at m = _SECTIONS, the largest stack
    that verify makes, kept over the call's 13 to 15 passes.

    A pivot that is exactly 0.0 becomes _ZERO_PIVOT, so it counts as
    negative and leaves its parent a huge positive pivot: the inertia of
    the 2 x 2 block the pair forms, whose determinant is -4.  A zero pivot
    at the root pairs with the border the same way, unless its border
    entry is 0 too, when x is an eigenvalue and not above it.  The corner
    loses all precision after such a pair, but the pair's positive pivot
    has already shown, exactly, that λ1 > x.
    """

    def __init__(self, parents: np.ndarray, m: int):
        b, n = parents.shape
        cells = b * m
        # to[v]: the flat offsets of position v's parent entries (the root's
        # row is never read)
        self.to = parents.T.repeat(m, axis=1) * cells + np.arange(cells)
        self.d = np.empty((n, cells))
        self.b = np.empty((n, cells))
        self.corner = np.empty(cells)

    def above(self, xs: np.ndarray) -> np.ndarray:
        d, b, corner = self.d, self.b, self.corner
        d[:] = (-1.0 - xs).ravel()
        b.fill(1.0)
        corner.fill(-1.0)
        flat_d, flat_b = d.ravel(), b.ravel()
        for v in range(len(d) - 1, -1, -1):
            dv, bv = d[v], b[v]
            dv[dv == 0.0] = _ZERO_PIVOT
            r = bv / dv
            corner -= bv * r
            if v:
                to = self.to[v]
                flat_d[to] -= 4.0 / dv
                flat_b[to] += 2.0 * r
        # each row of d now holds its position's pivot
        return ((d > 0.0).any(axis=0) | (corner > 0.0)).reshape(xs.shape)


def tree_indices(trees: Sequence[Tree]) -> list[float]:
    """λ1 of (K_n, T-) for each tree of negative edges, all on the same n,
    by multisection on the float counts of _Elimination: no eigensolve.

    Each bracket starts at [(n-1)(n-4)/n - 1, n]: the all-ones Rayleigh
    quotient (n-1)(n-4)/n is at most λ1, and λ1 is at most n - 1, which
    the star attains.  Each pass counts at _SECTIONS evenly spaced points
    inside every bracket; the first point with no eigenvalue above it and
    the point before it are the new ends, until the ends are adjacent
    floats.  The value returned is the upper end: the least float found
    with no eigenvalue above it, λ1 rounded up when the counts are exact.
    A bracket still open after _MAX_PASSES (64) passes, where correct
    counts take 12 to 15, raises InvariantViolationError.
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
    parents = np.array([t._walk[1] for t in trees])
    # each tree's row: its bracket's ends with the points between them
    ends = np.empty((len(trees), _SECTIONS + 2))
    ends[:, 0] = (n - 1) * (n - 4) / n - 1.0
    ends[:, -1] = n
    lo, xs, hi = ends[:, 0], ends[:, 1:-1], ends[:, -1]
    # a point's flag says an eigenvalue is above it; the last is always False
    flags = np.zeros((len(trees), _SECTIONS + 1), bool)
    flat, row_at = ends.ravel(), np.arange(0, ends.size, _SECTIONS + 2)
    frac = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
    kernel = _Elimination(parents, _SECTIONS)
    # every bracket starts open, at least 4 wide
    for _ in range(_MAX_PASSES):
        xs[:] = lo[:, None] + (hi - lo)[:, None] * frac
        flags[:, :-1] = kernel.above(xs)
        # the first point with no eigenvalue above it, and the one before
        j = row_at + flags.argmin(axis=1)
        lo[:], hi[:] = flat[j], flat[j + 1]
        if not np.any(np.nextafter(lo, hi) < hi):
            return hi.tolist()
    raise InvariantViolationError(
        f"tree_indices at n={n}: {np.count_nonzero(np.nextafter(lo, hi) < hi)} of "
        f"{len(trees)} brackets still open after {_MAX_PASSES} passes"
    )


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

    The count runs in Python integers on Q·M, for x = P/Q: scaling by Q > 0
    keeps every pivot's sign.  When v's turn comes, its pivot is T/E, where
    T is the determinant of v's subtree block K_v of Q·M and E the product
    of its children's T; its border entry is S/E; and R/E is the sum of its
    children's U/T, where a subtree block K with determinant T takes
    Q²·1ᵀK⁻¹1 = U/T off the corner, U = Q²·1ᵀ adj(K) 1.  Eliminating v
    gives U = (S² + T·R) / E for v, an integer: the division is exact, as in
    Bareiss's fraction-free elimination ("Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968), and no number outgrows the subtree determinants and their
    products over a vertex's children.  At the root the corner ends as
    -(Q·T + U)/T.

    A zero pivot needs an integer x: it makes -1-x an eigenvalue of 2B on a
    subtree, or x one of A, and a rational algebraic integer is an integer.
    """
    if isinstance(x, str):
        raise DomainError(f"x must be a number, not the string {x!r}")
    try:
        num, den = Fraction(x).as_integer_ratio()
    except TypeError:
        raise DomainError(f"x must be an int, a float or a Fraction, got {x!r}") from None
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"x must be finite, got {x!r}") from exc
    up = t._walk[1]
    n = t.n
    four_q2, two_q = 4 * den * den, 2 * den
    piv = [-(den + num)] * n  # T
    bord = [den] * n  # S
    prod = [1] * n  # E
    took = [0] * n  # R
    above = 0
    for v in range(n - 1, -1, -1):
        tv, ev, sv = piv[v], prod[v], bord[v]
        if tv == 0:
            return None
        above += (tv > 0) == (ev > 0)
        uv = (sv * sv + tv * took[v]) // ev
        p = up[v]
        if p >= 0:
            ep = prod[p]
            piv[p] = piv[p] * tv - four_q2 * ev * ep
            bord[p] = bord[p] * tv + two_q * sv * ep
            took[p] = took[p] * tv + uv * ep
            prod[p] = ep * tv
    corner = -(den * tv + uv)
    if corner == 0:
        return None
    return above + ((corner > 0) == (tv > 0))


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
