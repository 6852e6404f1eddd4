import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signedkn import (
    DomainError,
    PruferSequence,
    SignedCompleteGraph,
    bipartition,
    build_path,
    build_star,
    canonical_code,
    cycle_sign,
    find_negative_triangle,
    is_balanced,
    prufer_decode,
    signed_complete_from_tree,
    spectrum_of,
    switch,
)


def random_tree(n, rnd):
    symbols = tuple(rnd.randrange(n) for _ in range(n - 2))
    return prufer_decode(PruferSequence(n, symbols))


# ------------------------------------------------------------- cycle signs


def test_cycle_sign_star3():
    g = signed_complete_from_tree(build_star(3))
    # two negative spokes and one positive rim edge: product is +1
    assert cycle_sign(g, (0, 1, 2)) == 1


def test_cycle_sign_path4():
    g = signed_complete_from_tree(build_path(4))
    assert cycle_sign(g, (0, 1, 2)) == 1
    assert cycle_sign(g, (0, 1, 3)) == -1
    assert cycle_sign(g, (0, 1, 2, 3)) == -1


def test_cycle_sign_all_positive():
    g = SignedCompleteGraph(5, frozenset())
    for cyc in [(0, 1, 2), (0, 2, 4, 1), (4, 3, 2, 1, 0)]:
        assert cycle_sign(g, cyc) == 1


def test_cycle_sign_validation():
    g = signed_complete_from_tree(build_path(4))
    with pytest.raises(DomainError):
        cycle_sign(g, (0, 1))
    with pytest.raises(DomainError):
        cycle_sign(g, (0, 1, 1))
    with pytest.raises(DomainError):
        cycle_sign(g, (0, 1, 4))


def test_cycle_sign_rotation_and_reflection_invariant():
    g = signed_complete_from_tree(build_path(5))
    base = cycle_sign(g, (0, 2, 4, 1))
    assert cycle_sign(g, (2, 4, 1, 0)) == base
    assert cycle_sign(g, (1, 4, 2, 0)) == base


# ------------------------------------------------------------- balance


def test_star_is_balanced_path_is_not():
    assert is_balanced(signed_complete_from_tree(build_star(7)))
    assert not is_balanced(signed_complete_from_tree(build_path(4)))


def test_all_positive_is_balanced():
    assert is_balanced(SignedCompleteGraph(6, frozenset()))


def test_balanced_iff_star_up_to_n8(classes_of):
    # among spanning-tree negative sets, only the star gives balance
    for n in range(3, 9):
        star = canonical_code(build_star(n))
        for t in classes_of(n):
            g = signed_complete_from_tree(t)
            assert is_balanced(g) == (canonical_code(t) == star)


def test_balance_matches_triangle_search():
    rnd = random.Random(5)
    for _ in range(40):
        n = rnd.randrange(3, 9)
        if rnd.random() < 0.5:
            g = signed_complete_from_tree(random_tree(n, rnd))
        else:
            neg = frozenset(
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rnd.random() < 0.4
            )
            g = SignedCompleteGraph(n, neg)
        tri = find_negative_triangle(g)
        assert is_balanced(g) == (tri is None)
        if tri is not None:
            assert cycle_sign(g, tri) == -1


def test_balance_matches_all_triangles_exhaustive():
    # every one of the 64 sign patterns on K_4
    n = 4
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for r in range(len(pool) + 1):
        for neg in itertools.combinations(pool, r):
            g = SignedCompleteGraph(n, frozenset(neg))
            every = all(
                cycle_sign(g, tri) == 1
                for tri in itertools.combinations(range(n), 3)
            )
            assert is_balanced(g) == every


def test_bipartition_witness():
    rnd = random.Random(6)
    for _ in range(30):
        n = rnd.randrange(3, 10)
        neg = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.3
        )
        g = SignedCompleteGraph(n, neg)
        parts = bipartition(g)
        if parts is None:
            assert not is_balanced(g)
            continue
        plus, minus = parts
        assert plus | minus == frozenset(range(n))
        assert not (plus & minus)
        assert 0 in plus
        s = [1 if v in plus else -1 for v in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                assert g.sign(i, j) == s[i] * s[j]


def test_star_bipartition_isolates_center():
    parts = bipartition(signed_complete_from_tree(build_star(5)))
    assert parts is not None
    plus, minus = parts
    assert minus == frozenset({0}) or plus == frozenset({0})


# ------------------------------------------------------------- switching


def test_switch_identity_sets():
    g = signed_complete_from_tree(build_path(6))
    assert switch(g, ()) == g
    assert switch(g, range(6)) == g


def test_switch_star_center_clears_negatives():
    g = signed_complete_from_tree(build_star(6))
    assert switch(g, (0,)).negative_edges == frozenset()


def test_switch_known_cut():
    g = SignedCompleteGraph(3, frozenset())
    h = switch(g, (0,))
    assert h.negative_edges == frozenset({(0, 1), (0, 2)})


def test_switch_validation():
    g = signed_complete_from_tree(build_path(4))
    with pytest.raises(DomainError):
        switch(g, (4,))


@given(
    st.integers(3, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, 10**6), min_size=n - 2, max_size=n - 2),
            st.sets(st.integers(0, 10**6), max_size=9),
        )
    )
)
def test_switch_is_involution(args):
    n, bits, raw = args
    g = signed_complete_from_tree(
        prufer_decode(PruferSequence(n, tuple(b % n for b in bits)))
    )
    u = {x % n for x in raw}
    assert switch(switch(g, u), u) == g


def test_switch_preserves_spectrum_and_balance():
    rnd = random.Random(7)
    for _ in range(30):
        n = rnd.randrange(3, 13)
        g = signed_complete_from_tree(random_tree(n, rnd))
        u = [v for v in range(n) if rnd.random() < 0.5]
        h = switch(g, u)
        sg = spectrum_of(g)
        sh = spectrum_of(h)
        assert np.max(np.abs(sg.values - sh.values)) <= 1e-9
        assert is_balanced(g) == is_balanced(h)


def test_switch_complement_set_same_result():
    g = signed_complete_from_tree(build_path(5))
    u = (0, 2)
    comp = (1, 3, 4)
    assert switch(g, u) == switch(g, comp)
