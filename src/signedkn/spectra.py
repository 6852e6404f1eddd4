"""Dense symmetric eigendecomposition via cyclic Jacobi sweeps, plus the
spectral quantities of signed complete graphs: index (largest eigenvalue),
least eigenvalue, spectral radius, and the top eigenvector with a fixed
sign convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvariantViolationError
from .graphs import SignedCompleteGraph, Tree, signed_complete_from_tree

# Relative off-diagonal tolerance and sweep cap of the solver.
JACOBI_REL_TOL = 1e-12
MAX_SWEEPS = 100

# λ1 - λ2 at or below this flags a numerically multiple top eigenvalue.
DEGENERATE_TOL = 1e-9

# |sum of entries| at or below this is treated as a sign-convention tie.
_SUM_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SymMatrix:
    """A real symmetric n x n matrix.  Entries are copied and frozen."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.float64)
        if a.shape != (self.n, self.n):
            raise InvariantViolationError(
                f"expected a {self.n}x{self.n} matrix, got shape {a.shape}"
            )
        if not np.array_equal(a, a.T):
            raise InvariantViolationError("matrix is not symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, aligned unit eigenvector columns, and
    the off-diagonal norm the solver achieved."""

    values: np.ndarray
    vectors: np.ndarray
    tol: float

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
    off, _ = _jacobi_sweeps(w, tol)
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
    return Spectrum(values=values, vectors=vectors, tol=float(off))


def adjacency_matrix(g: SignedCompleteGraph) -> SymMatrix:
    """A(Σ): zero diagonal, -1 on negative edges, +1 elsewhere."""
    a = np.ones((g.n, g.n)) - np.eye(g.n)
    for u, v in g.negative_edges:
        a[u, v] = -1.0
        a[v, u] = -1.0
    return SymMatrix(g.n, a)


def spectrum_of(g: SignedCompleteGraph) -> Spectrum:
    return eigen_decompose(adjacency_matrix(g))


def index(g: SignedCompleteGraph) -> float:
    """λ1, the largest adjacency eigenvalue."""
    return spectrum_of(g).lambda1


def tree_index(t: Tree) -> float:
    """λ1 of (K_n, T-) for the given tree of negative edges."""
    return index(signed_complete_from_tree(t))


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
