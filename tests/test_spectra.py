import json
import math
import random

import numpy as np
import pytest

from oracles import (
    charpoly_coefficients,
    charpoly_eigenvalues,
    numpy_eigenvalues,
    power_top_two,
)
from signedkn import (
    ConvergenceError,
    InvariantViolationError,
    PruferSequence,
    SignedCompleteGraph,
    Spectrum,
    SymMatrix,
    adjacency_matrix,
    build_broom,
    build_double_star,
    build_path,
    build_star,
    eigen_decompose,
    index,
    least_eigenvalue,
    prufer_decode,
    residual,
    signed_complete_from_tree,
    spectral_radius,
    spectrum_of,
    top_eigenvector,
    tree_index,
)
from signedkn.spectra import JACOBI_REL_TOL


def decomp(a, **kw):
    return eigen_decompose(SymMatrix(a.shape[0], a), **kw)


def random_signed_adjacency(n, rnd):
    """Symmetric 0-diagonal matrix with off-diagonal entries in {-1, +1}."""
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = a[j, i] = rnd.choice((-1.0, 1.0))
    return a


def random_tree_graph(n, rnd):
    symbols = tuple(rnd.randrange(n) for _ in range(n - 2))
    return signed_complete_from_tree(prufer_decode(PruferSequence(n, symbols)))


# ---------------------------------------------------------------- basics


def test_symmatrix_validation():
    with pytest.raises(InvariantViolationError):
        SymMatrix(2, np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InvariantViolationError):
        SymMatrix(2, np.zeros((2, 3)))
    with pytest.raises(InvariantViolationError):
        SymMatrix(4, np.zeros((2, 2)))


def test_symmatrix_copies_and_freezes():
    src = np.zeros((3, 3))
    m = SymMatrix(3, src)
    src[0, 1] = src[1, 0] = 5.0
    assert m.entries[0, 1] == 0.0
    with pytest.raises(ValueError):
        m.entries[0, 0] = 1.0


def test_zero_matrix():
    s = decomp(np.zeros((4, 4)))
    assert np.allclose(s.values, 0.0)
    assert np.allclose(s.vectors @ s.vectors.T, np.eye(4))


def test_diagonal_passthrough():
    s = decomp(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(s.values, [3.0, 2.0, -1.0])


# ---------------------------------------------------------------- goldens


def test_balanced_star_spectrum():
    # all-negative star edges switch to the all-positive complete graph:
    # spectrum n-1, then -1 with multiplicity n-1
    for n in (3, 6, 12, 25):
        s = spectrum_of(signed_complete_from_tree(build_star(n)))
        assert abs(s.lambda1 - (n - 1)) <= 1e-9
        assert np.max(np.abs(s.values[1:] + 1.0)) <= 1e-9


def test_path4_exact_charpoly():
    m = adjacency_matrix(signed_complete_from_tree(build_path(4)))
    assert charpoly_coefficients(m.entries) == [1, 0, -6, 0, 5]


def test_path4_spectrum_golden():
    s = spectrum_of(signed_complete_from_tree(build_path(4)))
    want = [math.sqrt(5.0), 1.0, -1.0, -math.sqrt(5.0)]
    assert np.max(np.abs(s.values - np.array(want))) <= 1e-9


def test_path6_index_golden():
    g = signed_complete_from_tree(build_path(6))
    assert abs(index(g) - 2.6038754716096766) <= 1e-9


def test_index_least_radius_star():
    g = signed_complete_from_tree(build_star(6))
    assert abs(index(g) - 5.0) <= 1e-9
    assert abs(least_eigenvalue(g) + 1.0) <= 1e-9
    assert abs(spectral_radius(g) - 5.0) <= 1e-9


def test_radius_is_max_abs():
    rnd = random.Random(4)
    for _ in range(20):
        g = random_tree_graph(rnd.randrange(4, 11), rnd)
        s = spectrum_of(g)
        assert abs(spectral_radius(g) - max(s.lambda1, -s.lambdan)) <= 1e-12


# ---------------------------------------------------------------- solver laws


def test_reconstruction_and_orthonormality():
    rnd = random.Random(11)
    for _ in range(25):
        n = rnd.randrange(2, 31)
        a = random_signed_adjacency(n, rnd)
        s = decomp(a)
        v = s.vectors
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-9 * n
        recon = v @ np.diag(s.values) @ v.T
        assert np.linalg.norm(recon - a) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_values_sorted_descending():
    rnd = random.Random(12)
    for _ in range(10):
        s = decomp(random_signed_adjacency(rnd.randrange(3, 15), rnd))
        assert all(x >= y for x, y in zip(s.values, s.values[1:]))


def test_eigenpair_residuals():
    rnd = random.Random(13)
    for _ in range(10):
        n = rnd.randrange(3, 20)
        a = random_signed_adjacency(n, rnd)
        s = decomp(a)
        m = SymMatrix(n, a)
        for i in range(n):
            assert residual(m, s.values[i], s.vectors[:, i]) <= 1e-8


def test_trace_identities_tree_case():
    rnd = random.Random(14)
    for _ in range(15):
        n = rnd.randrange(3, 16)
        g = random_tree_graph(n, rnd)
        s = spectrum_of(g)
        assert abs(float(np.sum(s.values))) <= 1e-8
        assert abs(float(np.sum(s.values**2)) - n * (n - 1)) <= 1e-8


def test_determinism():
    rnd = random.Random(15)
    a = random_signed_adjacency(9, rnd)
    s1 = decomp(a)
    s2 = decomp(a)
    assert np.array_equal(s1.values, s2.values)
    assert np.array_equal(s1.vectors, s2.vectors)


def test_relabeling_preserves_spectrum():
    rnd = random.Random(16)
    for _ in range(10):
        n = rnd.randrange(3, 12)
        a = random_signed_adjacency(n, rnd)
        perm = list(range(n))
        rnd.shuffle(perm)
        p = np.eye(n)[perm]
        s1 = decomp(a)
        s2 = decomp(p @ a @ p.T)
        assert np.max(np.abs(s1.values - s2.values)) <= 1e-9


# ---------------------------------------------------------------- oracles


def test_agrees_with_charpoly_roots():
    rnd = random.Random(21)
    for _ in range(12):
        n = rnd.randrange(2, 7)
        a = random_signed_adjacency(n, rnd)
        got = decomp(a).values
        want = charpoly_eigenvalues(a)
        assert np.max(np.abs(got - np.array(want))) <= 1e-7


def test_agrees_with_power_iteration():
    rnd = random.Random(22)
    for i in range(12):
        n = rnd.randrange(3, 13)
        a = random_signed_adjacency(n, rnd)
        lam1, lam2, ok = power_top_two(a, seed=i)
        assert ok, "oracle power iteration failed to converge"
        s = decomp(a)
        assert abs(s.values[0] - lam1) <= 1e-7
        assert abs(s.values[1] - lam2) <= 1e-6


def test_agrees_with_lapack():
    rnd = random.Random(23)
    for _ in range(20):
        n = rnd.randrange(2, 25)
        a = random_signed_adjacency(n, rnd)
        got = decomp(a).values
        assert np.max(np.abs(got - numpy_eigenvalues(a))) <= 1e-9


# ---------------------------------------------------------------- failure path


def test_convergence_error_carries_norm(monkeypatch):
    m = adjacency_matrix(signed_complete_from_tree(build_star(6)))
    monkeypatch.setattr("signedkn.spectra.MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError) as exc:
        eigen_decompose(m)
    off = exc.value.off_norm
    assert off == pytest.approx(np.sqrt(np.sum(m.entries * m.entries)), rel=1e-12)


def test_scaling_equivariance():
    m1 = adjacency_matrix(signed_complete_from_tree(build_path(5)))
    m2 = SymMatrix(5, 1e6 * m1.entries)
    s1 = eigen_decompose(m1)
    s2 = eigen_decompose(m2)
    assert np.max(np.abs(s2.values / 1e6 - s1.values)) <= 1e-9
    assert JACOBI_REL_TOL == 1e-12


# ---------------------------------------------------------------- top vector


def test_top_eigenvector_star():
    g = signed_complete_from_tree(build_star(6))
    top = top_eigenvector(g)
    # eigenvector for lambda1 = n-1 is uniform up to the center's sign flip
    assert abs(top.value - 5.0) <= 1e-9
    assert top.vector[0] < 0
    assert np.all(top.vector[1:] > 0)
    assert np.max(np.abs(np.abs(top.vector) - 1 / np.sqrt(6))) <= 1e-9
    assert float(np.sum(top.vector)) >= 0
    assert not top.degenerate
    assert top.gap == pytest.approx(6.0, abs=1e-9)


def test_top_eigenvector_residual_and_sign():
    rnd = random.Random(31)
    for _ in range(20):
        g = random_tree_graph(rnd.randrange(3, 13), rnd)
        top = top_eigenvector(g)
        m = adjacency_matrix(g)
        assert residual(m, top.value, top.vector) <= 1e-8
        assert abs(np.linalg.norm(top.vector) - 1.0) <= 1e-12
        assert float(np.sum(top.vector)) >= -1e-9


def test_top_eigenvector_zero_sum_tiebreak():
    # all-edges-negative K_n has lambda1 = 1 with eigenvectors e_i - e_j,
    # so entry sums can vanish; convention: largest-magnitude entry positive
    edges = frozenset((i, j) for i in range(4) for j in range(i + 1, 4))
    top = top_eigenvector(SignedCompleteGraph(4, edges))
    assert top.degenerate
    i = int(np.argmax(np.abs(top.vector)))
    assert top.vector[i] > 0
    if abs(float(np.sum(top.vector))) > 1e-9:
        assert float(np.sum(top.vector)) > 0


def test_negated_vector_same_residual():
    g = signed_complete_from_tree(build_path(7))
    top = top_eigenvector(g)
    m = adjacency_matrix(g)
    assert residual(m, top.value, -top.vector) <= 1e-8


# ---------------------------------------------------------------- serialization


def test_spectrum_json_shape():
    s = spectrum_of(signed_complete_from_tree(build_path(4)))
    doc = json.loads(s.to_json())
    assert set(doc) == {"n", "values", "lambda1", "lambdan", "radius"}
    assert doc["n"] == 4
    assert doc["values"] == [float(v) for v in s.values]
    assert doc["lambda1"] == float(s.values[0])
    assert doc["radius"] == max(doc["lambda1"], -doc["lambdan"])


def test_spectrum_json_full_precision():
    doc = json.loads(spectrum_of(signed_complete_from_tree(build_path(6))).to_json())
    assert doc["lambda1"] == 2.6038754716096766


def test_exact_bits_at_benchmark_sizes():
    # exact pins at the sizes the benchmark solves: any change to the
    # solver's arithmetic, not just a loss of accuracy, shows up here
    assert tree_index(build_broom(12, 5)) == 8.134065793119028
    assert tree_index(build_double_star(5, 5)) == 8.999999999999996
    assert tree_index(build_broom(16, 5)) == 11.624392075884368
    top = top_eigenvector(signed_complete_from_tree(build_path(6)))
    assert top.vector.tolist() == [
        0.23192061392432975,
        -0.41790650594127504,
        0.5211208891696026,
        -0.5211208891696023,
        0.41790650594127476,
        -0.23192061392432972,
    ]


def test_spectrum_vectors_diagonalize():
    g = signed_complete_from_tree(build_path(7))
    s = spectrum_of(g)
    a = adjacency_matrix(g).entries
    assert isinstance(s, Spectrum)
    assert np.max(np.abs(a @ s.vectors - s.vectors * s.values)) <= 1e-9
    assert np.max(np.abs(s.vectors.T @ s.vectors - np.eye(7))) <= 1e-12
