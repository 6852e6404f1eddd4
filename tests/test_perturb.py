import itertools
import json
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signedkn import (
    ClimbStep,
    DomainError,
    InvariantViolationError,
    PreconditionError,
    PruferSequence,
    RotationMove,
    SignedCompleteGraph,
    StaleEigenvectorError,
    Tree,
    apply_rotation,
    build_broom,
    canonical_code,
    build_double_star,
    build_path,
    build_star,
    check_precondition,
    enumerate_tree_classes,
    hill_climb,
    leaf_count,
    prufer_decode,
    random_tree,
    random_tree_with_leaf_count,
    signed_complete_from_tree,
    spectrum_of,
    top_eigenvector,
    tree_eigs_above,
    tree_index,
)
from signedkn import perturb, spectra
from signedkn.cli import run
from signedkn.perturb import IMPROVE_TOL, _candidate_moves, _classify


def random_move(t, rnd, kind):
    """A random pattern-valid rotation move on the tree's signed graph,
    or None if this tree admits none of that kind."""
    n = t.n
    adj = t.adjacency()
    if kind == "type_i":
        options = [
            (r, s, x)
            for r in range(n)
            for x in adj[r]
            for s in range(n)
            if s != r and s not in adj[r]
        ]
    else:
        options = [
            (r, s, x, u)
            for (x, u) in t.edges
            for r in range(n)
            for s in range(r + 1, n)
            if len({r, s, x, u}) == 4
            and (r, s) not in t.edges
        ]
    if not options:
        return None
    return RotationMove(kind, rnd.choice(options))


# ------------------------------------------------------------- moves


def test_move_edge_properties():
    m1 = RotationMove("type_i", (2, 0, 4))
    assert m1.positive_edge == (0, 2)
    assert m1.negative_edge == (2, 4)
    m2 = RotationMove("type_ii", (3, 1, 5, 0))
    assert m2.positive_edge == (1, 3)
    assert m2.negative_edge == (0, 5)


def test_move_validation():
    with pytest.raises(DomainError):
        RotationMove("type_iii", (0, 1, 2))
    with pytest.raises(DomainError):
        RotationMove("type_i", (0, 1, 2, 3))
    with pytest.raises(DomainError):
        RotationMove("type_ii", (0, 1, 2))
    with pytest.raises(DomainError):
        RotationMove("type_i", (0, 1, 1))


def test_move_rejects_non_integer_labels():
    # int() would truncate 0.9 to 0 and give the move (0, 2, 3)
    with pytest.raises(DomainError):
        RotationMove("type_i", (0.9, 2, 3))
    with pytest.raises(DomainError):
        RotationMove("type_i", ("0", 2, 3))
    move = RotationMove("type_ii", tuple(np.arange(4)))
    assert move.vertices == (0, 1, 2, 3)
    assert all(type(v) is int for v in move.vertices)


def test_apply_rotation_path4():
    g = signed_complete_from_tree(build_path(4))
    h = apply_rotation(g, RotationMove("type_i", (1, 3, 0)))
    assert h.negative_edges == frozenset({(1, 2), (2, 3), (1, 3)})


def test_apply_rotation_type_ii():
    g = signed_complete_from_tree(build_path(5))
    h = apply_rotation(g, RotationMove("type_ii", (0, 2, 3, 4)))
    assert h.negative_edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 2)})


def test_apply_rotation_inverse_restores():
    g = signed_complete_from_tree(build_path(5))
    h = apply_rotation(g, RotationMove("type_i", (1, 3, 0)))
    back = apply_rotation(h, RotationMove("type_i", (1, 0, 3)))
    assert back == g


def test_apply_rotation_pattern_errors():
    g = signed_complete_from_tree(build_path(4))
    with pytest.raises(PreconditionError) as e1:
        apply_rotation(g, RotationMove("type_i", (0, 1, 2)))
    assert e1.value.edge == (0, 1)
    with pytest.raises(PreconditionError) as e2:
        apply_rotation(g, RotationMove("type_i", (0, 2, 3)))
    assert e2.value.edge == (0, 3)
    with pytest.raises(DomainError):
        apply_rotation(g, RotationMove("type_i", (0, 2, 9)))


@given(
    st.integers(4, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, 10**6), min_size=n - 2, max_size=n - 2),
            st.randoms(use_true_random=False),
            st.sampled_from(["type_i", "type_ii"]),
        )
    )
)
def test_apply_rotation_changes_exactly_two_edges(args):
    n, bits, rng, kind = args
    t = prufer_decode(PruferSequence(n, tuple(b % n for b in bits)))
    move = random_move(t, rng, kind)
    if move is None:
        return
    g = signed_complete_from_tree(t)
    h = apply_rotation(g, move)
    assert g.negative_edges ^ h.negative_edges == {
        move.positive_edge,
        move.negative_edge,
    }
    assert len(h.negative_edges) == len(g.negative_edges)


# ------------------------------------------------------------- truth table


@pytest.mark.parametrize(
    "kind,entries,want",
    [
        # shared-vertex form: needs x_r and x_t - x_s on the same side
        ("type_i", (0.5, 0.2, 0.2), (True, True)),
        ("type_i", (0.4, 0.1, 0.3), (True, True)),
        ("type_i", (0.0, 0.3, 0.1), (True, True)),
        ("type_i", (-0.2, 0.3, 0.1), (True, True)),
        ("type_i", (0.0, 0.1, 0.3), (True, True)),
        ("type_i", (0.4, 0.3, 0.1), (False, False)),
        ("type_i", (-0.4, 0.1, 0.3), (False, False)),
        ("type_i", (0.0, 0.2, 0.2), (True, False)),
        ("type_i", (1e-15, 1e-16, -1e-16), (True, False)),
        # disjoint form: product comparison
        ("type_ii", (0.0, 0.0, 0.0, 0.0), (True, False)),
        ("type_ii", (0.1, 0.2, 0.3, 0.4), (True, True)),
        ("type_ii", (0.3, 0.4, 0.1, 0.2), (False, False)),
        ("type_ii", (0.1, -0.2, 0.0, 0.5), (True, True)),
        ("type_ii", (-0.3, 0.4, 0.1, 0.2), (True, True)),
        ("type_ii", (0.2, 0.3, 0.3, 0.2), (True, True)),
        ("type_ii", (1e-14, 1e-14, 1e-15, 1e-16), (True, False)),
    ],
)
def test_classify_truth_table(kind, entries, want):
    assert _classify(kind, entries) == want


@given(
    st.sampled_from(["type_i", "type_ii"]),
    st.lists(
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    ),
)
def test_strict_implies_satisfied(kind, raw):
    entries = tuple(raw[:3] if kind == "type_i" else raw)
    satisfied, strict = _classify(kind, entries)
    if strict:
        assert satisfied


# ------------------------------------------------------------- precondition


def test_check_precondition_star_unsatisfied():
    g = signed_complete_from_tree(build_star(6))
    top = top_eigenvector(g)
    # r and s are leaves (positive entries), t is the flipped center
    report = check_precondition(g, RotationMove("type_i", (1, 2, 0)), top.vector)
    assert not report.satisfied
    assert not report.strict
    assert not top.degenerate
    assert len(report.entries_used) == 3
    assert report.entries_used[0] > 0 > report.entries_used[2]


def test_check_precondition_scale_invariant():
    g = signed_complete_from_tree(build_path(6))
    top = top_eigenvector(g)
    m = RotationMove("type_i", (1, 3, 0))
    r1 = check_precondition(g, m, top.vector)
    r2 = check_precondition(g, m, 8.0 * top.vector)
    assert r1 == r2


def test_check_precondition_rejects_stale_vector():
    g = signed_complete_from_tree(build_path(6))
    m = RotationMove("type_i", (1, 3, 0))
    with pytest.raises(StaleEigenvectorError) as exc:
        check_precondition(g, m, np.ones(6))
    assert exc.value.residual > 1e-8
    with pytest.raises(StaleEigenvectorError):
        check_precondition(g, m, np.zeros(6))
    with pytest.raises(DomainError):
        check_precondition(g, m, np.ones(5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_precondition_rejects_a_non_finite_vector(bad):
    # normalised, such a vector has NaN entries, and a NaN residual is
    # neither above nor below the tolerance; no numpy warning comes first,
    # nor does one when finite entries give a norm past the float range
    g = signed_complete_from_tree(build_path(6))
    m = RotationMove("type_i", (1, 3, 0))
    x = top_eigenvector(g).vector
    for vec in (
        np.full(6, bad),
        np.where(np.arange(6) == 2, bad, x),
        np.full(6, 1e300),
    ):
        with pytest.raises(StaleEigenvectorError) as exc:
            check_precondition(g, m, vec)
        assert exc.value.residual == math.inf


def test_check_precondition_makes_no_eigensolve(monkeypatch):
    calls = []
    solve = spectra._jacobi_sweeps

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(spectra, "_jacobi_sweeps", counted)
    g = signed_complete_from_tree(build_path(6))
    top = top_eigenvector(g)
    assert len(calls) == 1
    check_precondition(g, RotationMove("type_i", (1, 3, 0)), top.vector)
    assert len(calls) == 1


def test_check_precondition_accepts_other_graphs_vector_if_fresh():
    # a vector is judged by its residual on this graph, not by origin
    g1 = signed_complete_from_tree(build_path(6))
    g2 = signed_complete_from_tree(build_star(6))
    m = RotationMove("type_i", (1, 3, 0))
    with pytest.raises(StaleEigenvectorError):
        check_precondition(g1, m, top_eigenvector(g2).vector)


def test_degenerate_top_flagged():
    # a perfect-matching negative set has a multiple top eigenvalue
    g = SignedCompleteGraph(4, frozenset({(0, 1), (2, 3)}))
    top = top_eigenvector(g)
    assert top.degenerate
    # any vector of the top eigenspace passes the residual check
    check_precondition(g, RotationMove("type_i", (0, 2, 1)), top.vector)


def test_satisfied_move_never_lowers_lambda1():
    rnd = random.Random(77)
    satisfied_seen = 0
    strict_seen = 0
    for trial in range(400):
        n = rnd.randrange(5, 11)
        t = random_tree(n, rnd)
        g = signed_complete_from_tree(t)
        move = random_move(t, rnd, rnd.choice(("type_i", "type_ii")))
        if move is None:
            continue
        top = top_eigenvector(g)
        report = check_precondition(g, move, top.vector)
        before = top.value
        after = spectrum_of(apply_rotation(g, move)).lambda1
        if report.satisfied:
            satisfied_seen += 1
            assert after - before >= -1e-10
        if report.strict and not top.degenerate and top.gap > 1e-6:
            strict_seen += 1
            assert after - before > 1e-10
    assert satisfied_seen >= 40
    assert strict_seen >= 20


# ------------------------------------------------------------- candidates


def _exchange_oracle(t):
    """Edge sets of every tree T - e + f (e a tree edge, f a non-edge)
    with the same leaf count as t, found by brute force."""
    n, k = t.n, leaf_count(t)
    out = set()
    for e in t.edges:
        for f in itertools.combinations(range(n), 2):
            if f in t.edges:
                continue
            edges = (t.edges - {e}) | {f}
            g = nx.Graph(list(edges))
            g.add_nodes_from(range(n))
            if nx.is_tree(g) and leaf_count(Tree(n, edges)) == k:
                out.add(edges)
    return out


def _oracle_trees(classes_of):
    """Every class with n <= 8 and one relabelling of it, then random
    trees at n = 12 and 16."""
    rnd = random.Random(12)
    for n in range(2, 9):
        for cls in classes_of(n):
            perm = list(range(n))
            rnd.shuffle(perm)
            yield cls
            yield cls.relabel(perm)
    for n in (12, 12, 12, 16, 16, 16):
        yield random_tree(n, rnd)


def test_candidate_moves_match_exchange_oracle(classes_of):
    for t in _oracle_trees(classes_of):
        cands = list(_candidate_moves(t))
        got = [new_tree.edges for _, new_tree in cands]
        assert len(got) == len(set(got))
        assert set(got) == _exchange_oracle(t)
        g = signed_complete_from_tree(t)
        for move, new_tree in cands:
            assert apply_rotation(g, move) == signed_complete_from_tree(new_tree)
        verts = [move.vertices for move, _ in cands]
        assert verts == sorted(verts)


# ------------------------------------------------------------- hill climb


def test_broom_is_fixed_point():
    for n, k in [(6, 3), (7, 3), (7, 4), (8, 4), (9, 5)]:
        tree, trace = hill_climb(build_broom(n, k))
        assert trace == []
        assert tree == build_broom(n, k)


def test_climb_spider_to_broom():
    # legs (1,2,2) is the only other 3-leaf class on 6 vertices
    spider = Tree(6, frozenset({(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)}))
    tree, trace = hill_climb(spider)
    assert canonical_code(tree) == canonical_code(build_broom(6, 3))
    assert len(trace) >= 1


def test_climb_trace_replay():
    rnd = random.Random(9)
    for _ in range(6):
        n = rnd.randrange(6, 9)
        k = rnd.randrange(2, n)
        start = random_tree_with_leaf_count(n, k, rnd)
        final, trace = hill_climb(start)
        g = signed_complete_from_tree(start)
        lam = spectrum_of(g).lambda1
        for step in trace:
            g = apply_rotation(g, RotationMove(step.kind, step.vertices))
            t = Tree(n, g.negative_edges)  # must still be a spanning tree
            assert leaf_count(t) == k
            new_lam = spectrum_of(g).lambda1
            assert new_lam > lam + IMPROVE_TOL
            assert abs(new_lam - step.lambda1) <= 1e-12
            lam = new_lam
        assert g.negative_edges == final.edges
        assert [s.step for s in trace] == list(range(1, len(trace) + 1))


def test_climb_reaches_global_max_n6():
    rnd = random.Random(10)
    for k in range(2, 6):
        best = max(
            spectrum_of(signed_complete_from_tree(t)).lambda1
            for t in enumerate_tree_classes(6, k=k).values()
        )
        for _ in range(5):
            start = random_tree_with_leaf_count(6, k, rnd)
            final, _ = hill_climb(start)
            assert abs(spectrum_of(signed_complete_from_tree(final)).lambda1 - best) <= 1e-8


def test_climb_max_steps_zero():
    start = build_double_star(2, 2)
    tree, trace = hill_climb(start, max_steps=0)
    assert tree == start
    assert trace == []


def test_climb_validation():
    with pytest.raises(DomainError):
        hill_climb(build_broom(6, 3), max_steps=-1)


def _full_scan_climb(start, max_steps=500):
    """Reference climb that solves every candidate, repeats included."""
    current, lam, trace = start, tree_index(start), []
    while len(trace) < max_steps:
        for move, new_tree in _candidate_moves(current):
            new_lam = tree_index(new_tree)
            if new_lam > lam + IMPROVE_TOL:
                current, lam = new_tree, new_lam
                trace.append(ClimbStep(len(trace) + 1, move.kind, move.vertices, new_lam))
                break
        else:
            break
    return current, trace


def _cli_start(n, k, seed):
    """The start tree that `signedkn climb --n n --k k --seed seed` draws."""
    return random_tree_with_leaf_count(n, k, random.Random(seed))


# The benchmark's climb panel, as (n, k, CLI seed).
CLIMB_PANEL = (
    (12, 4, 15), (12, 4, 44), (12, 4, 13),
    (12, 6, 5), (12, 6, 22), (12, 6, 34),
    (16, 5, 6),
)


@pytest.fixture(scope="module")
def full_scan_references():
    starts = [_cli_start(n, k, seed) for n in (8, 10) for k in range(2, n) for seed in (0, 1)]
    starts += [_cli_start(*args) for args in CLIMB_PANEL]
    return [(start, _full_scan_climb(start)) for start in starts]


def test_climb_matches_full_scan_reference(full_scan_references):
    for start, reference in full_scan_references:
        # == on ClimbStep compares every λ1 bit for bit
        assert hill_climb(start) == reference


def test_climb_solves_each_class_once(monkeypatch):
    solved = []

    def recording_tree_index(t):
        solved.append(canonical_code(t))
        return tree_index(t)

    monkeypatch.setattr(perturb, "tree_index", recording_tree_index)
    for start in [_cli_start(12, 4, 15), *(_cli_start(8, k, 0) for k in range(2, 8))]:
        solved.clear()
        _, trace = hill_climb(start)
        assert len(solved) == len(trace) + 1
        assert len(set(solved)) == len(solved)


def test_climb_rejects_a_count_the_solve_contradicts(monkeypatch):
    # counts that put every candidate above the threshold make the climb
    # accept a move whose solved λ1 does not rise
    monkeypatch.setattr(perturb, "tree_eigs_above", lambda t, x: 1)
    with pytest.raises(InvariantViolationError):
        hill_climb(build_broom(8, 4))


def test_climb_raises_on_a_zero_pivot_count(monkeypatch):
    # the threshold is never an integer, so a zero pivot there is impossible
    monkeypatch.setattr(perturb, "tree_eigs_above", lambda t, x: None)
    with pytest.raises(InvariantViolationError):
        hill_climb(build_broom(8, 4))


def test_climb_moves_an_integer_threshold_to_the_next_float(monkeypatch):
    # thr = (9 - IMPROVE_TOL) + IMPROVE_TOL rounds to 9.0, where a count on
    # S(5, 5), one of the candidates of S(4, 6), meets a zero pivot
    start = build_double_star(4, 6)
    xs = []

    def recording_count(t, x):
        xs.append(x)
        return tree_eigs_above(t, x)

    monkeypatch.setattr(
        perturb, "tree_index", lambda t: 9.0 - IMPROVE_TOL if t == start else tree_index(t)
    )
    monkeypatch.setattr(perturb, "tree_eigs_above", recording_count)
    hill_climb(start, max_steps=1)
    assert set(xs) == {math.nextafter(9.0, math.inf)}
    assert tree_eigs_above(build_double_star(5, 5), 9.0) is None
    assert tree_eigs_above(build_double_star(5, 5), xs[0]) == 0


def test_climb_deterministic():
    start = Tree(7, frozenset({(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)}))
    t1, tr1 = hill_climb(start)
    t2, tr2 = hill_climb(start)
    assert t1 == t2
    assert tr1 == tr2


def test_trace_jsonl_shape(capsys):
    # the CLI draws its start from random.Random(seed) the same way
    rnd = random.Random(11)
    start = random_tree_with_leaf_count(8, 4, rnd)
    _, trace = hill_climb(start)
    assert trace
    assert run(["climb", "--n", "8", "--k", "4", "--seed", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(trace) + 1
    for i, (ln, st) in enumerate(zip(lines, trace)):
        doc = json.loads(ln)
        assert set(doc) == {"step", "kind", "vertices", "lambda1"}
        assert doc["step"] == i + 1
        assert doc["kind"] in ("type_i", "type_ii")
        assert (doc["kind"], tuple(doc["vertices"]), doc["lambda1"]) == (
            st.kind,
            st.vertices,
            st.lambda1,
        )
    assert set(json.loads(lines[-1])) == {"final"}
    # an empty trace adds no line before the final record
    assert run(["climb", "--n", "8", "--k", "4", "--seed", "11", "--max-steps", "0"]) == 0
    assert [set(json.loads(ln)) for ln in capsys.readouterr().out.splitlines()] == [{"final"}]
