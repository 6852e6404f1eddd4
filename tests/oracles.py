"""Independent reference computations used only by the tests.

Nothing here touches the package's own solver: characteristic polynomials
go through sympy's exact integer arithmetic, the power iteration is plain
numpy, numpy.linalg.eigvalsh serves as a third opinion where handy, and
the exact eigenvalue count eliminates in Fraction arithmetic.  Nothing
here imports signedkn (test_hygiene checks it): a tree is read only
through t.n and t.adjacency(), so each oracle stays independent of the
package functions it is checked against.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import sympy


def charpoly_coefficients(a: np.ndarray) -> list[int]:
    """Exact integer coefficients of det(xI - A), leading first."""
    m = sympy.Matrix([[int(round(x)) for x in row] for row in a])
    return [int(c) for c in m.charpoly().all_coeffs()]


def charpoly_eigenvalues(a: np.ndarray, digits: int = 25) -> list[float]:
    """All eigenvalues of a small integer symmetric matrix, descending,
    via exact characteristic polynomial and exact real-root isolation
    (robust to repeated roots, unlike numeric polyroots)."""
    m = sympy.Matrix([[int(round(x)) for x in row] for row in a])
    roots = sympy.Poly(m.charpoly().as_expr()).all_roots()
    vals = sorted((float(r.evalf(digits)) for r in roots), reverse=True)
    return vals


def power_top_two(
    a: np.ndarray,
    tol: float = 1e-11,
    max_iters: int = 400_000,
    seed: int = 0,
) -> tuple[float, float, bool]:
    """(lambda1, lambda2, converged) by shifted power iteration with
    one deflation step.  The shift n makes the spectrum positive so the
    dominant eigenvalue of the shifted matrix is lambda1 + n."""
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    shift = float(n)
    b = a + shift * np.eye(n)

    def run(mat):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        for i in range(max_iters):
            y = mat @ x
            nrm = np.linalg.norm(y)
            if nrm == 0.0:
                return 0.0, x, True
            y /= nrm
            if i % 50 == 49:
                rho = float(y @ (mat @ y))
                if np.linalg.norm(mat @ y - rho * y) <= tol * max(1.0, abs(rho)):
                    return rho, y, True
            x = y
        rho = float(x @ (mat @ x))
        return rho, x, False

    rho1, x1, ok1 = run(b)
    rho2, _, ok2 = run(b - rho1 * np.outer(x1, x1))
    return rho1 - shift, rho2 - shift, ok1 and ok2


def numpy_eigenvalues(a: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues sorted descending."""
    return np.linalg.eigvalsh(a)[::-1]


def fraction_eigs_above(t, x) -> int | None:
    """Eigenvalues of (K_n, T-) strictly above x, from the pivots of the
    bordered matrix [[-(1+x)I - 2B, 1], [1ᵀ, -1]] in Fraction arithmetic;
    None at an exactly zero pivot.  The tree is eliminated leaves first in
    reverse breadth-first order from vertex 0, neighbours ascending, the
    order spectra.tree_eigs_above uses, so a zero pivot meets both at the
    same step.  The walk is rebuilt here from t.adjacency()."""
    x = Fraction(x)
    adj = t.adjacency()
    parent = [-1] * t.n
    order, seen = [0], {0}
    for v in order:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
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


def is_broom_shaped(t) -> bool:
    """Whether t is the broom for its own leaf count k, for 3 <= k <= n-2:
    exactly one vertex has degree above 2, and k-1 of its neighbours are
    leaves.  A tree with one vertex of degree >= 3 is a spider with one
    leaf per leg, so that vertex has degree k and the last leg is a path."""
    adj = t.adjacency()
    deg = [len(nb) for nb in adj]
    hubs = [v for v, d in enumerate(deg) if d > 2]
    return len(hubs) == 1 and sum(deg[w] == 1 for w in adj[hubs[0]]) == deg.count(1) - 1
