"""Dense symmetric eigendecomposition via cyclic Jacobi sweeps, plus the
spectral quantities of signed complete graphs: index (largest eigenvalue),
least eigenvalue, spectral radius, and the top eigenvector with a fixed
sign convention.

λ1 of several trees of one size is solved as a stack: the matrices rotate
together, one numpy operation per rotation across the stack, each matrix
with the rotations a single solve would give it, so its eigenvalues come
out bit-identical.

tree_eigs_above counts the eigenvalues of (K_n, T-) above a rational x
exactly, in O(n) Fraction steps, by eliminating the tree leaves first
(Jacobs & Trevisan, "Locating the eigenvalues of trees", Linear Algebra
Appl. 434, 2011) with one bordering vertex for the all-ones part.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantViolationError
from .graphs import SignedCompleteGraph, Tree, _bfs_order, signed_complete_from_tree

# Relative off-diagonal tolerance and sweep cap of the solver.
JACOBI_REL_TOL = 1e-12
MAX_SWEEPS = 100

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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "values": [float(v) for v in self.values],
            "lambda1": self.lambda1,
            "lambdan": self.lambdan,
            "radius": self.radius,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


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


def _rotate_stack(a):
    """One cyclic Jacobi sweep in place on a (b, n, n) stack of symmetric
    matrices, rotating A alone: the eigenvalues do not need the [A | I]
    vector block, and A evolves independently of it.

    Each matrix gets the rotations _jacobi_sweeps would give it, in the
    same (p, q) order and with the same arithmetic.  A matrix whose apq is
    0.0 skips that rotation as it does there: the rotation runs on the
    sub-stack of the others, since a c = 1, s = 0 rotation could still
    flip the sign of a zero.
    """
    n = a.shape[1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            nz = a[:, p, q] != 0.0
            if nz.all():
                i = slice(None)
            elif nz.any():
                i = np.flatnonzero(nz)
            else:
                continue
            # every read is taken before the first write: with i a slice,
            # these are views
            apq = a[i, p, q]
            app = a[i, p, p]
            aqq = a[i, q, q]
            theta = (aqq - app) / (2.0 * apq)
            # theta * theta overflows only where the asymptotic branch
            # replaces the result
            with np.errstate(over="ignore"):
                t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            # not copysign: theta = -0.0 takes the positive branch there
            t[theta < 0.0] *= -1.0
            big = np.abs(theta) > 1e154
            if big.any():
                t[big] = 1.0 / (2.0 * theta[big])
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            new_pp = app - t * apq
            new_qq = aqq + t * apq
            rp = a[i, p]
            rq = a[i, q]
            c = c[:, None]
            s = s[:, None]
            wp = c * rp - s * rq
            wq = s * rp + c * rq
            a[i, p] = wp
            a[i, q] = wq
            a[i, :, p] = wp
            a[i, :, q] = wq
            a[i, p, p] = new_pp
            a[i, q, q] = new_qq
            a[i, p, q] = 0.0
            a[i, q, p] = 0.0


def _stacked_values(mats: list[SymMatrix]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of same-size symmetric matrices, as eigen_decompose gives
    them bit for bit, with the sweeps each took: a (b, n) array whose rows
    are sorted descending, and a (b,) array.

    Each matrix keeps its own tolerance, JACOBI_REL_TOL times its Frobenius
    norm, its own _off_norm stopping test and its own sweep count up to
    MAX_SWEEPS.  A sweep runs on the matrices not yet converged, which are
    all on the same sweep.
    """
    work = np.stack([m.entries for m in mats])
    tol = np.array([JACOBI_REL_TOL * m.frobenius() for m in mats])
    b, n, _ = work.shape
    vals = np.empty((b, n))
    sweeps = np.zeros(b, np.int64)
    ids = np.arange(b)
    swept = 0
    while True:
        off = np.array([_off_norm(x) for x in work])
        done = off <= tol[ids]
        vals[ids[done]] = np.diagonal(work[done], axis1=1, axis2=2)
        sweeps[ids[done]] = swept
        if done.all():
            break
        if swept >= MAX_SWEEPS:
            j = int(np.argmin(done))
            raise ConvergenceError(
                f"Jacobi sweeps did not converge on matrix {ids[j]} of {b}: "
                f"off-norm {off[j]:.3e} > tol {tol[ids[j]]:.3e}",
                off_norm=float(off[j]),
            )
        if done.any():
            work, ids = work[~done], ids[~done]
        _rotate_stack(work)
        swept += 1
    order = np.argsort(-vals, axis=1, kind="stable")
    return np.take_along_axis(vals, order, axis=1), sweeps


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


def index(g: SignedCompleteGraph) -> float:
    """λ1, the largest adjacency eigenvalue."""
    return spectrum_of(g).lambda1


def tree_indices(trees: Sequence[Tree]) -> list[float]:
    """λ1 of (K_n, T-) for each tree of negative edges, all on the same n.

    One tree is solved by eigen_decompose; two or more as one stack by
    _stacked_values, which is faster for them and gives the same bits."""
    if len({t.n for t in trees}) > 1:
        raise DomainError(
            f"stacked trees must share n, got n in {sorted({t.n for t in trees})}"
        )
    mats = [adjacency_matrix(signed_complete_from_tree(t)) for t in trees]
    if len(mats) < 2:
        return [eigen_decompose(m).lambda1 for m in mats]
    return _stacked_values(mats)[0][:, 0].tolist()


def tree_index(t: Tree) -> float:
    """λ1 of (K_n, T-) for the given tree of negative edges."""
    return tree_indices([t])[0]


def tree_eigs_above(t: Tree, x: Fraction | float | int) -> int | None:
    """Number of eigenvalues of (K_n, T-) strictly above x, counted exactly,
    or None when an elimination pivot is exactly zero.

    A - xI = D + 11ᵀ with D = -(1+x)I - 2B, B the tree's adjacency matrix,
    is the Schur complement of the corner of M = [[D, 1], [1ᵀ, -1]], so A
    has as many eigenvalues above x as M has positive pivots.  M is
    eliminated leaves first, in reversed breadth-first order from vertex 0,
    and the border last: no step fills in, so each pivot costs O(1).
    """
    try:
        x = Fraction(x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"x must be finite, got {x!r}") from exc
    order, parent = _bfs_order(t.adjacency(), 0)
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


def least_eigenvalue(g: SignedCompleteGraph) -> float:
    return spectrum_of(g).lambdan


def spectral_radius(g: SignedCompleteGraph) -> float:
    return spectrum_of(g).radius


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
