import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    charpoly_coefficients,
    charpoly_eigenvalues,
    fraction_eigs_above,
    numpy_eigenvalues,
    power_top_two,
)
from signedkn import (
    ConvergenceError,
    DomainError,
    InvariantViolationError,
    PruferSequence,
    SignedCompleteGraph,
    Spectrum,
    SymMatrix,
    Tree,
    adjacency_matrix,
    build_broom,
    build_double_star,
    build_path,
    build_star,
    eigen_decompose,
    enumerate_tree_classes,
    format_prufer,
    prufer_decode,
    prufer_encode,
    residual,
    signed_complete_from_tree,
    spectrum_of,
    top_eigenvector,
    tree_eigs_above,
    tree_index,
    tree_indices,
)
from signedkn import search, spectra
from signedkn.cli import run
from signedkn.spectra import JACOBI_REL_TOL


def decomp(a, **kw):
    return eigen_decompose(SymMatrix(a), **kw)


def random_signed_adjacency(n, rnd):
    """Symmetric 0-diagonal matrix with off-diagonal entries in {-1, +1}."""
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = a[j, i] = rnd.choice((-1.0, 1.0))
    return a


def random_tree_graph(n, rnd):
    symbols = tuple(rnd.randrange(n) for _ in range(n - 2))
    return signed_complete_from_tree(prufer_decode(PruferSequence(symbols)))


# ---------------------------------------------------------------- basics


def test_symmatrix_validation():
    with pytest.raises(InvariantViolationError):
        SymMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InvariantViolationError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(InvariantViolationError):
        SymMatrix(np.zeros(3))
    assert SymMatrix(np.zeros((4, 4))).n == 4


def test_symmatrix_copies_and_freezes():
    src = np.zeros((3, 3))
    m = SymMatrix(src)
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
    assert abs(spectrum_of(g).lambda1 - 2.6038754716096766) <= 1e-9


def test_index_least_radius_star():
    g = signed_complete_from_tree(build_star(6))
    s = spectrum_of(g)
    assert abs(s.lambda1 - 5.0) <= 1e-9
    assert abs(s.lambdan + 1.0) <= 1e-9
    assert abs(s.radius - 5.0) <= 1e-9


def test_radius_is_max_abs():
    rnd = random.Random(4)
    for _ in range(20):
        g = random_tree_graph(rnd.randrange(4, 11), rnd)
        s = spectrum_of(g)
        assert s.radius == max(abs(float(v)) for v in s.values)


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
        m = SymMatrix(a)
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
    m2 = SymMatrix(1e6 * m1.entries)
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


def spectrum_doc(capsys, t):
    assert run(["spectrum", "--prufer", format_prufer(prufer_encode(t))]) == 0
    return json.loads(capsys.readouterr().out)


def test_spectrum_json_shape(capsys):
    s = spectrum_of(signed_complete_from_tree(build_path(4)))
    doc = spectrum_doc(capsys, build_path(4))
    assert set(doc) == {"n", "values", "lambda1", "lambdan", "radius"}
    assert doc["n"] == 4
    assert doc["values"] == [float(v) for v in s.values]
    assert doc["lambda1"] == float(s.values[0])
    assert doc["radius"] == max(doc["lambda1"], -doc["lambdan"])


def test_spectrum_json_full_precision(capsys):
    doc = spectrum_doc(capsys, build_path(6))
    assert doc["lambda1"] == 2.6038754716096766


def test_exact_bits_at_benchmark_sizes():
    # exact pins at the sizes the benchmark solves: any change to the
    # solver's arithmetic, not just a loss of accuracy, shows up here
    assert tree_index(build_broom(12, 5)) == 8.134065793119028
    assert tree_index(build_double_star(5, 5)) == 8.999999999999996
    assert tree_index(build_broom(16, 5)) == 11.624392075884368
    # the elimination's bits, each tree inside a stack with others of its
    # n, within 8 ulp of the float nearest λ1 that exact counts prove
    for t, pin, proved in (
        (build_broom(12, 5), 8.134065793119026, 8.134065793119026),
        (build_double_star(5, 5), 9.0, 9.0),
        (build_broom(16, 5), 11.624392075884375, 11.624392075884373),
    ):
        got = tree_indices([build_path(t.n), t, build_star(t.n)])[1]
        assert got == pin
        assert abs(got - proved) <= 8 * math.ulp(proved)
    top = top_eigenvector(signed_complete_from_tree(build_path(6)))
    assert top.vector.tolist() == [
        0.23192061392432975,
        -0.41790650594127504,
        0.5211208891696026,
        -0.5211208891696023,
        0.41790650594127476,
        -0.23192061392432972,
    ]


# sha256 of eigen_decompose's values and vectors bytes, tol and sweeps over
# solver_golden_inputs(), recorded when the rotations ran on numpy rows:
# running them on Python lists must not move a bit.
SOLVER_GOLDEN_SHA256 = "43fbfeeaea38e660fcc58509bbe226402bac26d6a164eec969c0d66c3353ee40"


def solver_golden_inputs():
    """Every tree class with n <= 10, 20 seeded Prufer trees at n = 16, a
    diagonal matrix, the zero matrix and 10 random signings of K_7."""
    mats = [
        adjacency_matrix(signed_complete_from_tree(t)).entries
        for n in range(2, 11)
        for t in enumerate_tree_classes(n).values()
    ]
    rnd = random.Random(2020)
    mats += [adjacency_matrix(random_tree_graph(16, rnd)).entries for _ in range(20)]
    mats += [np.diag([3.0, -1.0, 2.0, 0.5, -7.25]), np.zeros((6, 6))]
    mats += [random_signed_adjacency(7, rnd) for _ in range(10)]
    return mats


def test_solver_bits_golden():
    # any change to the bits the solver returns shows up here, including
    # a change to its stopping point (tol, sweeps)
    h = hashlib.sha256()
    for a in solver_golden_inputs():
        s = decomp(a)
        h.update(s.values.tobytes())
        h.update(s.vectors.tobytes())
        h.update(np.float64(s.tol).tobytes())
        h.update(s.sweeps.to_bytes(4, "little"))
    assert h.hexdigest() == SOLVER_GOLDEN_SHA256


def test_spectrum_vectors_diagonalize():
    g = signed_complete_from_tree(build_path(7))
    s = spectrum_of(g)
    a = adjacency_matrix(g).entries
    assert isinstance(s, Spectrum)
    assert np.max(np.abs(a @ s.vectors - s.vectors * s.values)) <= 1e-9
    assert np.max(np.abs(s.vectors.T @ s.vectors - np.eye(7))) <= 1e-12


def test_spectrum_reports_sweeps(capsys):
    diag = eigen_decompose(SymMatrix(np.diag([3.0, -1.0, 2.0, 0.5])))
    assert diag.sweeps == 0
    path = spectrum_of(signed_complete_from_tree(build_path(7)))
    assert path.sweeps >= 1
    assert "sweeps" not in spectrum_doc(capsys, build_path(7))


# ---------------------------------------------------------------- exact counts


def test_tree_eigs_above_matches_lapack_on_every_class():
    fixed = [Fraction(-5, 2), Fraction(0), Fraction(1, 3), Fraction(7, 2)]
    checked = 0
    for n in range(2, 11):
        for t in enumerate_tree_classes(n).values():
            ev = numpy_eigenvalues(adjacency_matrix(signed_complete_from_tree(t)).entries)
            xs = [float(e) + s for e in ev for s in (-1e-7, 1e-7)]
            for x in [*xs, *fixed]:
                assert tree_eigs_above(t, x) == int(np.sum(ev > float(x))), (n, x)
                checked += 1
    assert checked > 4000


def test_tree_eigs_above_exact_at_an_integer_index():
    # λ1 of S(5, 5) is exactly 9: the pivot at x = 9 is exactly zero, and
    # the count tells 9 from its neighbours 2**-40 away
    t = build_double_star(5, 5)
    assert tree_eigs_above(t, 9) is None
    assert tree_eigs_above(t, Fraction(9) - Fraction(1, 2**40)) == 1
    assert tree_eigs_above(t, 9 + 2.0**-40) == 0


def test_tree_eigs_above_meets_a_zero_pivot_only_at_an_integer():
    # the fact hill_climb's integer nudge rests on, tried where a zero pivot
    # would be likeliest: 1 and 2 ulp from every eigenvalue LAPACK reports.
    # Some of those floats are integer eigenvalues, such as -1, where a None
    # is allowed.
    floats = integers = 0
    for n in range(2, 10):
        for t in enumerate_tree_classes(n).values():
            ev = numpy_eigenvalues(adjacency_matrix(signed_complete_from_tree(t)).entries)
            for e in ev:
                for k in (-2, -1, 1, 2):
                    x = float(ulps_away(float(e), k))
                    if x.is_integer():
                        integers += 1
                    else:
                        assert isinstance(tree_eigs_above(t, x), int), (n, x)
                        floats += 1
    assert floats > 2500 and integers > 0


@st.composite
def trees_and_points(draw):
    """A random Prufer tree with 2 <= n <= 60 and an x for it: a float
    across the spectrum or anywhere, an integer (where zero pivots occur),
    a Fraction with a denominator up to 10**40, or a subnormal float."""
    n = draw(st.integers(2, 60))
    symbols = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    t = prufer_decode(PruferSequence(tuple(symbols)))
    x = draw(
        st.one_of(
            st.floats(-2.0 * n - 1.0, float(n)),
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-2 * n - 1, n),
            st.integers(-3, 3),
            st.builds(
                Fraction,
                st.integers(-(10**42), 10**42),
                st.integers(10**20, 10**40),
            ),
            st.fractions(-2 * n - 1, n, max_denominator=10**40),
            st.floats(-(2.0**-1022), 2.0**-1022, exclude_min=True, exclude_max=True),
        )
    )
    return t, x


@settings(max_examples=200)
@given(trees_and_points())
def test_tree_eigs_above_matches_the_fraction_oracle(tx):
    t, x = tx
    assert tree_eigs_above(t, x) == fraction_eigs_above(t, x)


def test_tree_eigs_above_needs_finite_x():
    with pytest.raises(DomainError):
        tree_eigs_above(build_path(4), math.inf)
    with pytest.raises(DomainError):
        tree_eigs_above(build_path(4), math.nan)


# ---------------------------------------------------------------- λ1 by elimination


def test_tree_indices_match_lapack_on_every_class():
    stacks = [list(enumerate_tree_classes(n).values()) for n in range(2, 13)]
    stacks += [[build_double_star(s, n - 2 - s) for s in range(1, n - 2)] for n in range(6, 13)]
    for trees in stacks:
        for t, lam in zip(trees, tree_indices(trees)):
            want = numpy_eigenvalues(adjacency_matrix(signed_complete_from_tree(t)).entries)[0]
            assert abs(lam - want) <= 1e-12, (t.n, sorted(t.edges))


def test_tree_index_alone_is_its_index_in_any_stack():
    for n in range(2, 13):
        trees = list(enumerate_tree_classes(n).values())
        stacked = tree_indices(trees)
        assert tree_indices(trees[::-1]) == stacked[::-1]
        assert [tree_indices([t])[0] for t in trees] == stacked, n


def ulps_away(v, k):
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return Fraction(v)


def test_tree_indices_within_8_ulp_by_exact_counts():
    # an eigenvalue above v - 8 ulp and none above v + 8 ulp, counted in
    # exact arithmetic
    for n in range(2, 11):
        trees = list(enumerate_tree_classes(n).values())
        for t, lam in zip(trees, tree_indices(trees)):
            assert tree_eigs_above(t, ulps_away(lam, -8)) >= 1, (n, lam)
            assert tree_eigs_above(t, ulps_away(lam, 8)) == 0, (n, lam)


def test_tree_indices_through_zero_pivots():
    # at x = -1 every leaf pivot is exactly 0.0; λ1 > 0 on every class
    for n in range(2, 11):
        trees = list(enumerate_tree_classes(n).values())
        parents = np.array([t._walk[1] for t in trees])
        assert all(tree_eigs_above(t, -1) is None for t in trees)
        assert spectra._above(parents, np.full((len(trees), 3), -1.0)).all(), n
    # λ1 exactly n - 1 for the star and 2s - 1 for S(s, s), s >= 2 (a
    # double eigenvalue at s = 2), each a zero pivot of the exact count
    for t, proved in [(build_star(n), n - 1) for n in range(2, 17)] + [
        (build_double_star(s, s), 2 * s - 1) for s in range(2, 9)
    ]:
        assert tree_eigs_above(t, proved) is None
        lam = tree_indices([t])[0]
        assert abs(lam - proved) <= 8 * math.ulp(proved), (t.n, lam)


def test_above_reads_generator_parent_arrays_as_walks():
    # _free_trees' arrays have the walk's form, up[i] < i, so _above gives
    # on them the answers it gives on the Tree walks of the same classes,
    # at every point more than 1e-9 from every eigenvalue
    checked = 0
    for n in range(2, 12):
        ups = list(search._free_trees(n))
        trees = [Tree(frozenset(zip(range(1, n), up[1:]))) for up in ups]
        mats = [adjacency_matrix(signed_complete_from_tree(t)).entries for t in trees]
        eigs = np.array([numpy_eigenvalues(a) for a in mats])
        lam = eigs[:, :1]
        grid = np.linspace((n - 1) * (n - 4) / n - 1.0, n, 96)
        xs = np.c_[np.tile(grid, (len(trees), 1)), lam - 1e-8, lam + 1e-8]
        far = (np.abs(xs[:, :, None] - eigs[:, None, :]) > 1e-9).all(axis=2)
        from_arrays = spectra._above(np.array(ups), xs)
        from_trees = spectra._above(np.array([t._walk[1] for t in trees]), xs)
        assert (from_arrays == from_trees)[far].all(), n
        assert (from_arrays == (lam > xs))[far].all(), n
        checked += far.sum()
    assert checked > 40000


def test_tree_indices_need_one_n():
    assert tree_indices([]) == []
    with pytest.raises(DomainError):
        tree_indices([build_path(6), build_path(7)])
