"""Canonical form: label invariance and class separation."""

import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

from signedkn import (
    PruferSequence,
    build_broom,
    build_double_star,
    build_path,
    build_star,
    canonical_code,
    prufer_decode,
)


def random_permutation(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return tuple(perm)


def test_code_shape():
    for t in (build_path(6), build_star(6), build_broom(9, 4)):
        code = canonical_code(t)
        assert len(code) == 2 * t.n
        assert set(code) <= {"0", "1"}
        # balanced and never dipping below zero, like matched parens
        depth = 0
        for ch in code:
            depth += 1 if ch == "1" else -1
            assert depth >= 0
        assert depth == 0


def test_known_small_codes():
    assert canonical_code(prufer_decode(PruferSequence(()))) == "1100"
    assert canonical_code(build_path(4)) == "11011000"
    assert canonical_code(build_star(4)) == "11010100"


def test_path_perms_collapse():
    target = canonical_code(build_path(6))
    for seed in range(20):
        t = build_path(6).relabel(random_permutation(6, seed))
        assert canonical_code(t) == target


def test_distinct_families_separate():
    n = 8
    trees = [
        build_path(n),
        build_star(n),
        build_broom(n, 3),
        build_broom(n, 4),
        build_broom(n, 5),
        build_broom(n, 6),
        build_double_star(2, 4),
        build_double_star(3, 3),
    ]
    codes = [canonical_code(t) for t in trees]
    assert len(set(codes)) == len(codes)


def test_bicentroid_consistency():
    # even paths have two centroids; both rootings must give one answer
    p = build_path(6)
    codes = {canonical_code(p.relabel(random_permutation(6, s))) for s in range(30)}
    assert len(codes) == 1


@given(
    st.integers(2, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, 10**6), min_size=n - 2, max_size=n - 2),
            st.randoms(use_true_random=False),
        )
    )
)
def test_relabel_invariance(args):
    n, bits, rng = args
    t = prufer_decode(PruferSequence(tuple(b % n for b in bits)))
    perm = list(range(n))
    rng.shuffle(perm)
    assert canonical_code(t) == canonical_code(t.relabel(tuple(perm)))


def test_exhaustive_class_collapse_n5():
    # every labeled tree on 5 vertices lands on one of exactly 3 codes
    codes = set()
    for symbols in itertools.product(range(5), repeat=3):
        codes.add(canonical_code(prufer_decode(PruferSequence(symbols))))
    assert len(codes) == 3
