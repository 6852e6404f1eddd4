import dataclasses
import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signedkn import (
    DomainError,
    InvariantViolationError,
    MalformedInputError,
    PruferSequence,
    SignedCompleteGraph,
    Tree,
    build_broom,
    build_double_star,
    build_path,
    build_star,
    canonical_code,
    enumerate_tree_classes,
    format_edge_list,
    format_prufer,
    leaf_count,
    parse_edge_list,
    parse_prufer,
    prufer_decode,
    prufer_encode,
    random_tree,
    random_tree_with_leaf_count,
    signed_complete_from_tree,
)
from signedkn.graphs import _centroids
from signedkn.perturb import KINDS, _candidate_moves


def labeled_trees(min_n=2, max_n=10):
    """Uniform labeled trees via random Prufer sequences."""

    def decode(args):
        n, bits = args
        symbols = tuple(b % n for b in bits)
        return prufer_decode(PruferSequence(symbols))

    return (
        st.integers(min_n, max_n)
        .flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, 10**6), min_size=n - 2, max_size=n - 2),
            )
        )
        .map(decode)
    )


# ---------------------------------------------------------------- trees


def test_tree_normalizes_edge_orientation():
    t = Tree(frozenset({(1, 0), (2, 1)}))
    assert t.edges == frozenset({(0, 1), (1, 2)})


def test_tree_rejects_cycle():
    with pytest.raises(InvariantViolationError):
        Tree(frozenset({(0, 1), (1, 2), (0, 2)}))


def test_tree_rejects_disconnected():
    # right edge count, but a cycle plus an isolated vertex
    with pytest.raises(InvariantViolationError):
        Tree(frozenset({(0, 1), (1, 2), (0, 2), (3, 4)}))


def test_tree_rejects_self_loop_and_range():
    with pytest.raises(InvariantViolationError):
        Tree(frozenset({(0, 0), (1, 2)}))
    with pytest.raises(InvariantViolationError):
        Tree(frozenset({(0, 1), (1, 3)}))


# int() would truncate each 1.5 to 1 (the first builds the path 0-1-2)
@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Tree(frozenset({(0, 1.5), (1, 2)})), InvariantViolationError),
        (lambda: SignedCompleteGraph(3, frozenset({(0, 1.5)})), InvariantViolationError),
        (lambda: PruferSequence((1.5, 2)), MalformedInputError),
    ],
    ids=["Tree", "SignedCompleteGraph", "PruferSequence"],
)
def test_non_integer_labels_are_rejected(build, error):
    with pytest.raises(error, match="must be an integer"):
        build()


def test_numpy_integer_labels_are_accepted():
    t = Tree(frozenset({(np.int64(0), np.int64(1)), (1, np.int32(2))}))
    assert t == build_path(3)
    assert all(type(v) is int for e in t.edges for v in e)
    assert PruferSequence(tuple(np.array([1, 2]))).symbols == (1, 2)


# n is read like a vertex label: any integer type, but not a float or a
# string, and at least 2
@pytest.mark.parametrize(
    "build",
    [lambda n: SignedCompleteGraph(n, frozenset({(0, 2)}))],
    ids=["SignedCompleteGraph"],
)
def test_numpy_integer_n_is_accepted(build):
    for n in (np.int64(3), np.int32(3), np.uint8(3)):
        obj = build(n)
        assert type(obj.n) is int
        assert obj == build(3) and hash(obj) == hash(build(3))
        assert repr(obj) == repr(build(3))
    for bad in (3.0, np.float64(3.0), "3", None, 1, np.int64(1), -3):
        with pytest.raises(DomainError, match=re.escape(f"n >= 2, got {bad!r}")):
            build(bad)


def test_tree_keeps_its_walk_outside_the_fields():
    assert [f.name for f in dataclasses.fields(Tree)] == ["n", "edges"]
    t = build_broom(7, 3)
    u = Tree(t.edges)
    object.__setattr__(u, "_walk", ([], []))
    assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
    assert "_walk" not in repr(t)
    assert t._walk[0][0] == 0 and sorted(t._walk[0]) == list(range(7))


def classes_and_relabellings(max_n=10, seed=22):
    """Every class with n <= max_n, each with a seeded random relabelling."""
    rng = random.Random(seed)
    for n in range(2, max_n + 1):
        for t in enumerate_tree_classes(n).values():
            perm = list(range(n))
            rng.shuffle(perm)
            yield t
            yield t.relabel(perm)


def test_walk_is_breadth_first_by_positions():
    for t in classes_and_relabellings():
        n = t.n
        order, up = t._walk
        assert order[0] == 0 and sorted(order) == list(range(n))
        assert up[0] == -1 and all(0 <= up[i] < i for i in range(1, n))
        assert {tuple(sorted((order[i], order[up[i]]))) for i in range(1, n)} == t.edges
        # breadth first: parents in order, each one's children ascending
        for i in range(2, n):
            assert (up[i - 1], order[i - 1]) < (up[i], order[i]), (t, i)


def test_sizes_and_kinds_are_read_from_the_data():
    for t in classes_and_relabellings():
        assert Tree(t.edges) == t and t.n == len(t.edges) + 1
        assert PruferSequence(prufer_encode(t).symbols).n == t.n
        for move, exchanged in _candidate_moves(t):
            assert move.kind == KINDS[len(move.vertices) - 3]
            assert exchanged.n == t.n


def test_centroids_leave_no_component_above_half():
    for t in classes_and_relabellings():
        n, adj = t.n, t.adjacency()
        want = []
        for v in range(n):
            biggest = 0
            seen = {v}
            for w in adj[v]:
                part = [w]
                seen.add(w)
                for x in part:
                    part += [y for y in adj[x] if y not in seen]
                    seen.update(adj[x])
                biggest = max(biggest, len(part))
            if biggest <= n // 2:
                want.append(v)
        assert sorted(_centroids(t)) == want, t


def test_tree_too_small():
    with pytest.raises(DomainError):
        Tree(frozenset())


def test_degrees_and_leaves():
    t = build_star(5)
    assert t.degrees() == [4, 1, 1, 1, 1]
    assert t.leaves() == [1, 2, 3, 4]


def test_relabel_roundtrip():
    t = build_broom(7, 3)
    perm = (3, 0, 6, 1, 5, 2, 4)
    inv = tuple(perm.index(i) for i in range(7))
    assert t.relabel(perm).relabel(inv) == t


def test_relabel_rejects_non_permutation():
    with pytest.raises(DomainError):
        build_path(4).relabel((0, 1, 1, 2))


# ---------------------------------------------------------------- prufer


def test_decode_two_vertices():
    t = prufer_decode(PruferSequence(()))
    assert t.edges == frozenset({(0, 1)})


def test_decode_star_sequence():
    t = prufer_decode(PruferSequence((0, 0, 0)))
    assert t == build_star(5)


def test_decode_path_example():
    t = prufer_decode(PruferSequence((1, 2)))
    assert t.edges == frozenset({(0, 1), (1, 2), (2, 3)})


def test_encode_known_trees():
    assert prufer_encode(build_star(5)).symbols == (0, 0, 0)
    assert prufer_encode(build_path(4)).symbols == (1, 2)
    assert prufer_encode(prufer_decode(PruferSequence(()))).symbols == ()


def test_sequence_symbol_range():
    with pytest.raises(MalformedInputError):
        PruferSequence((1, 4))
    with pytest.raises(MalformedInputError):
        PruferSequence((-1, 0))


def test_roundtrip_exhaustive_small():
    for n in range(2, 7):
        for symbols in itertools.product(range(n), repeat=n - 2):
            seq = PruferSequence(symbols)
            assert prufer_encode(prufer_decode(seq)) == seq


@given(labeled_trees(max_n=16))
def test_roundtrip_tree_side(t):
    assert prufer_decode(prufer_encode(t)) == t


def test_leaf_count_formula_exhaustive():
    # leaves are exactly the labels missing from the sequence
    for n in range(3, 8):
        for symbols in itertools.product(range(n), repeat=n - 2):
            t = prufer_decode(PruferSequence(symbols))
            assert leaf_count(t) == n - len(set(symbols))


@given(labeled_trees(min_n=3, max_n=12))
def test_leaf_count_matches_degrees(t):
    assert leaf_count(t) == sum(1 for d in t.degrees() if d == 1)


# ---------------------------------------------------------------- builders


def test_path_and_star_shapes():
    assert build_path(5).degrees() == [1, 2, 2, 2, 1]
    assert leaf_count(build_star(7)) == 6
    assert leaf_count(build_path(7)) == 2


def test_double_star_shape():
    t = build_double_star(2, 3)
    assert t.n == 7
    assert sorted(t.degrees()) == [1, 1, 1, 1, 1, 3, 4]
    assert (0, 1) in t.edges
    assert leaf_count(t) == 5


def test_broom_golden_degrees():
    t = build_broom(7, 3)
    assert sorted(t.degrees()) == [1, 1, 1, 2, 2, 2, 3]
    assert leaf_count(t) == 3


def test_broom_leaf_counts_all_k():
    for n in range(4, 10):
        for k in range(2, n):
            assert leaf_count(build_broom(n, k)) == k


def test_broom_degenerate_ends():
    assert canonical_code(build_broom(6, 2)) == canonical_code(build_path(6))
    assert canonical_code(build_broom(6, 5)) == canonical_code(build_star(6))


def test_builder_validation():
    with pytest.raises(DomainError):
        build_star(1)
    with pytest.raises(DomainError):
        build_broom(5, 1)
    with pytest.raises(DomainError):
        build_broom(5, 5)
    with pytest.raises(DomainError):
        build_double_star(0, 2)


def test_random_tree_is_seeded():
    assert random_tree(9, random.Random(7)) == random_tree(9, random.Random(7))


def test_random_tree_with_leaf_count_hits_target():
    rng = random.Random(123)
    for n, k in [(5, 2), (8, 4), (10, 9), (12, 2), (12, 11)]:
        for _ in range(5):
            assert leaf_count(random_tree_with_leaf_count(n, k, rng)) == k


def test_the_one_edge_tree_has_two_leaves():
    assert build_broom(2, 2) == Tree(frozenset({(0, 1)}))
    assert leaf_count(build_broom(2, 2)) == 2
    assert random_tree_with_leaf_count(2, 2, random.Random(0)) == build_broom(2, 2)
    for k in (1, 3):
        with pytest.raises(DomainError):
            build_broom(2, k)


def test_random_tree_with_leaf_count_validation():
    with pytest.raises(DomainError):
        random_tree_with_leaf_count(5, 1, random.Random(0))
    with pytest.raises(DomainError):
        random_tree_with_leaf_count(5, 5, random.Random(0))


# ---------------------------------------------------------------- parsing


def test_edge_list_roundtrip():
    t = build_broom(8, 4)
    assert parse_edge_list(format_edge_list(t)) == t


def test_edge_list_accepts_blank_lines():
    text = "4\n\n0 1\n1 2\n\n2 3\n"
    assert parse_edge_list(text) == build_path(4)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n0 1",
        "3\n0 1",
        "3\n0 1\n1 2\n0 2",
        "4\n0 1\n1 2\n2 3 4",
        "4\n0 1\n1 2\nq 3",
        "3\n0 1\n1 3",
        "3\n0 0\n1 2",
    ],
)
def test_edge_list_malformed(text):
    with pytest.raises(MalformedInputError):
        parse_edge_list(text)


@pytest.mark.parametrize("text", ["1\n", "1\n0 1\n", "-3\n0 1\n"])
def test_edge_list_declaring_fewer_than_two_vertices(text):
    with pytest.raises(MalformedInputError, match="tree needs an integer n >= 2, got"):
        parse_edge_list(text)


@pytest.mark.parametrize("second", ["1 0", "0 1"])
def test_edge_list_rejects_a_repeated_edge(second):
    # a Tree keeps an edge set, so without the check "3 / 0 1 / 1 0 / 1 2"
    # would parse as the path 0-1-2
    with pytest.raises(MalformedInputError, match=r"repeated edge \(0, 1\)"):
        parse_edge_list(f"3\n0 1\n{second}\n1 2\n")


def test_edge_list_with_a_huge_n_fails_before_allocating():
    # the edge count is checked before the n neighbour lists are built, so
    # a first line of 10**6 with one edge costs no memory of size n
    tracemalloc.start()
    try:
        with pytest.raises(MalformedInputError, match="needs 999999 edges"):
            parse_edge_list("1000000\n0 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_prufer_text_roundtrip():
    seq = PruferSequence((0, 3, 3, 1))
    assert parse_prufer(format_prufer(seq)) == seq
    assert parse_prufer("") == PruferSequence(())
    assert parse_prufer(" 1 , 2 ") == PruferSequence((1, 2))


@pytest.mark.parametrize("text", ["a,b", "1,,2", "1 2", "-1,0"])
def test_prufer_text_malformed(text):
    with pytest.raises(MalformedInputError):
        parse_prufer(text)


# ---------------------------------------------------------------- signing


def test_signed_graph_from_star():
    g = signed_complete_from_tree(build_star(3))
    assert g.negative_edges == frozenset({(0, 1), (0, 2)})
    assert g.sign(1, 2) == 1
    assert g.sign(0, 2) == -1
    assert g.sign(2, 0) == -1


def test_signed_graph_edge_counts():
    for n in (2, 5, 9):
        g = signed_complete_from_tree(build_path(n))
        neg = len(g.negative_edges)
        pos = sum(
            1 for u in range(n) for v in range(u + 1, n) if g.sign(u, v) == 1
        )
        assert neg == n - 1
        assert pos == n * (n - 1) // 2 - neg


def test_sign_validation():
    g = signed_complete_from_tree(build_path(4))
    with pytest.raises(DomainError):
        g.sign(2, 2)
    with pytest.raises(DomainError):
        g.sign(0, 4)
