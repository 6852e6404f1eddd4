import csv
import io
import itertools
import json
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from signedkn import (
    DomainError,
    InvariantViolationError,
    PruferSequence,
    SearchReport,
    Tree,
    build_broom,
    build_double_star,
    build_path,
    build_star,
    canonical_code,
    cross_check_enumeration,
    double_star_chain,
    enumerate_tree_classes,
    hill_climb,
    leaf_count,
    prufer_decode,
    prufer_encode,
    structural_audit,
    tree_index,
    verify_max_index,
)
from signedkn import search, spectra
from signedkn.cli import run
from signedkn.graphs import _rooted_code
from signedkn.search import FREE_TREE_COUNTS

# classes with exactly k leaves, tabulated from the full enumeration once
LEAF_TABLE = {
    6: {2: 1, 3: 2, 4: 2, 5: 1},
    7: {2: 1, 3: 3, 4: 4, 5: 2, 6: 1},
    8: {2: 1, 3: 4, 4: 8, 5: 6, 6: 3, 7: 1},
    9: {2: 1, 3: 5, 4: 14, 5: 14, 6: 9, 7: 3, 8: 1},
}


# ------------------------------------------------------------ enumeration


def test_class_counts_match_known_sequence(classes_of):
    for n in range(2, 13):
        assert len(classes_of(n)) == FREE_TREE_COUNTS[n]


def test_representatives_are_valid_and_sorted(classes_of):
    for n in (5, 8, 10):
        trees = classes_of(n)
        codes = [canonical_code(t) for t in trees]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)
        for t in trees:
            assert t.n == n


def test_prufer_route_matches_generation():
    for n in range(2, 8):
        chk = cross_check_enumeration(n)
        assert chk.ok
        assert chk.count_generation == FREE_TREE_COUNTS[n]
    # each Prufer-route representative is its class's lexicographically
    # first sequence, found here by brute force over all n**(n-2) sequences
    for n in (6, 7):
        first: dict[str, tuple[int, ...]] = {}
        for symbols in sorted(itertools.product(range(n), repeat=n - 2)):
            code = canonical_code(prufer_decode(PruferSequence(symbols)))
            first.setdefault(code, symbols)
        reps = enumerate_tree_classes(n, method="prufer")
        assert len(reps) == len(first) == FREE_TREE_COUNTS[n]
        for code, t in reps.items():
            assert canonical_code(t) == code
            assert prufer_encode(t).symbols == first[code]


def test_prufer_kernel_agrees_with_scalar_codec():
    # every row at n = 4..7: the block decode gives prufer_decode's edges,
    # and the integer key spells the scalar code rooted at n-1
    for n in range(4, 8):
        symbols = search._block_symbols(n, 0, n ** (n - 2))
        assert symbols.tolist() == [
            list(s) for s in itertools.product(range(n), repeat=n - 2)
        ]
        parent = search._peel(symbols, n)
        keys = search._rooted_keys(parent)
        for row, up, key in zip(symbols.tolist(), parent.tolist(), keys.tolist()):
            t = prufer_decode(PruferSequence(row))
            assert {(min(v, p), max(v, p)) for v, p in enumerate(up) if v != p} == t.edges
            assert format(key, "b") == _rooted_code(t.adjacency(), n - 1)
        # one key per rooted class: the rooted-tree counts (OEIS A000081)
        assert len(set(keys.tolist())) == {4: 4, 5: 9, 6: 20, 7: 48}[n]


def test_prufer_kernel_depths_at_the_jumping_round_boundaries():
    # the path ending at n-1 is the deepest tree rooted there (depth n-1,
    # which ceil(log2(n-1)) jumping rounds just reach), the star centred at
    # n-1 the shallowest; one caterpillar, rooted at a leaf, lies between
    for n in range(2, 10):
        spine = (n + 1) // 2
        trees = [
            build_path(n),
            Tree(frozenset((v, n - 1) for v in range(n - 1))),
            Tree(
                frozenset(
                    [(v, v + 1) for v in range(spine - 1)]
                    + [(v - spine, v) for v in range(spine, n)]
                ),
            ),
        ]
        symbols = np.array([prufer_encode(t).symbols for t in trees])
        keys = search._rooted_keys(search._peel(symbols.reshape(3, n - 2), n))
        for t, key in zip(trees, keys.tolist()):
            assert format(key, "b") == _rooted_code(t.adjacency(), n - 1), (n, t)


def test_prufer_kernel_raises_on_a_cycle_below_a_deep_path():
    # n = 9 takes three jumping rounds; the path row needs all of them, and
    # the row whose 3 -> 4 -> 5 -> 3 cycle hangs below 0 -> 1 -> 2 never
    # reaches the root 8, so only the block with that row raises
    path = search._peel(np.array([prufer_encode(build_path(9)).symbols]), 9)
    cycle = np.array([[1, 2, 3, 4, 5, 3, 8, 8, 8]])
    assert format(search._rooted_keys(path)[0], "b") == _rooted_code(
        build_path(9).adjacency(), 8
    )
    with pytest.raises(InvariantViolationError, match="not all 9 vertices"):
        search._rooted_keys(np.concatenate([path, cycle]))


def test_prufer_route_ignores_block_boundaries(monkeypatch):
    default = enumerate_tree_classes(7, method="prufer")
    monkeypatch.setattr(search, "PRUFER_BLOCK", 7)
    small = enumerate_tree_classes(7, method="prufer")
    assert list(small) == list(default)
    assert small == default


def test_prufer_route_streams_blocks():
    # all 8**6 rows of symbols alone, as int64, would take 12.6 MB
    tracemalloc.start()
    try:
        enumerate_tree_classes(8, method="prufer")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_prufer_kernel_raises_on_corrupted_rows(monkeypatch):
    # one symbol short: three degree-1 vertices are left after the peel
    with pytest.raises(InvariantViolationError):
        search._peel(np.array([[0, 1]]), 5)
    # vertices 0 and 1 point at each other and never reach the root 3
    with pytest.raises(InvariantViolationError):
        search._rooted_keys(np.array([[1, 0, 3, 3]]))
    # a representative whose scalar rooted code disagrees with its key
    with monkeypatch.context() as m:
        m.setattr(search, "_rooted_code", lambda adj, root: "10")
        with pytest.raises(InvariantViolationError, match="differs from its code"):
            enumerate_tree_classes(5, method="prufer")
    # canonical codes that merge every rooted class leave too few classes
    monkeypatch.setattr(search, "canonical_code", lambda t: "10")
    with pytest.raises(InvariantViolationError, match="expected 3"):
        enumerate_tree_classes(5, method="prufer")


def test_generator_matches_networkx():
    # networkx implements the same algorithm and labels vertex i as position
    # i of the level sequence, so the trees must agree edge for edge and in
    # order; networkx is a test dependency only
    counts = {}
    for n in range(2, 15):
        parents = list(search._free_trees(n))
        for parent in parents:
            assert parent[0] == -1 and all(0 <= parent[v] < v for v in range(1, n))
        ours = [{(v, parent[v]) for v in range(1, n)} for parent in parents]
        theirs = [{(max(e), min(e)) for e in g.edges()} for g in nx.nonisomorphic_trees(n)]
        assert ours == theirs
        counts[n] = len(ours)
    assert counts == {**FREE_TREE_COUNTS, 13: 1301, 14: 3159}


def test_enumeration_validation():
    with pytest.raises(DomainError):
        enumerate_tree_classes(1)
    with pytest.raises(DomainError):
        enumerate_tree_classes(13)
    with pytest.raises(DomainError):
        enumerate_tree_classes(6, method="magic")
    with pytest.raises(DomainError):
        enumerate_tree_classes(10, method="prufer")


def test_leaf_partition(classes_of):
    for n, table in LEAF_TABLE.items():
        assert sum(table.values()) == FREE_TREE_COUNTS[n]
        for k, count in table.items():
            assert len(enumerate_tree_classes(n, k=k)) == count


def test_leaf_classes_extremes():
    assert list(enumerate_tree_classes(7, k=2)) == [canonical_code(build_path(7))]
    assert list(enumerate_tree_classes(7, k=6)) == [canonical_code(build_star(7))]
    assert len(enumerate_tree_classes(7, k=3)) == 3


def test_enumerate_leaf_count_validation():
    for method in ("generate", "prufer"):
        with pytest.raises(DomainError):
            enumerate_tree_classes(6, method, 1)
        with pytest.raises(DomainError):
            enumerate_tree_classes(6, method, 6)
    # the leaf count is checked before n and the method
    with pytest.raises(DomainError, match="need 2 <= k"):
        enumerate_tree_classes(13, "magic", 13)


def test_both_methods_give_the_same_leaf_classes_in_order():
    for n in range(2, 9):
        for k in range(2, n):
            by_prufer = enumerate_tree_classes(n, "prufer", k)
            by_generation = enumerate_tree_classes(n, k=k)
            assert list(by_prufer) == list(by_generation), (n, k)
            assert [canonical_code(t) for t in by_prufer.values()] == list(by_prufer)
            assert all(leaf_count(t) == k for t in by_prufer.values())


def test_both_methods_give_the_one_edge_at_two_leaves():
    by_generation = enumerate_tree_classes(2, k=2)
    assert list(by_generation) == [canonical_code(build_broom(2, 2))]
    assert list(enumerate_tree_classes(2, "prufer", 2)) == list(by_generation)
    for method in ("generate", "prufer"):
        for k in (1, 3):
            with pytest.raises(DomainError, match="need 2 <= k"):
                enumerate_tree_classes(2, method, k)


# ------------------------------------------------------------ verification


def test_verify_6_3_golden():
    r = verify_max_index(6, 3)
    assert isinstance(r, SearchReport)
    assert r.mode == "reduced"
    assert r.matches_broom
    assert r.argmax_code == canonical_code(build_broom(6, 3))
    assert len(r.classes) == 2
    assert r.tied_codes == (r.argmax_code,)
    assert r.runner_up_gap == pytest.approx(0.387054170662108, abs=1e-9)


def test_verify_records_consistent():
    r = verify_max_index(7, 4)
    assert len(r.classes) == LEAF_TABLE[7][4]
    argmaxes = [c for c in r.classes if c.is_argmax]
    assert len(argmaxes) == 1
    assert argmaxes[0].canonical_code == r.argmax_code
    best = max(r.classes, key=lambda c: c.lambda1)
    assert best.canonical_code == r.argmax_code
    for c in r.classes:
        t = prufer_decode(PruferSequence(c.prufer))
        assert canonical_code(t) == c.canonical_code
        assert leaf_count(t) == c.leaf_count == r.k
        assert tree_index(t) == pytest.approx(c.lambda1, abs=1e-12)


def test_verify_canonicalises_each_class_once(monkeypatch):
    # one code per class at n, taken from the enumeration, plus the broom's
    calls = []

    def counted(t):
        calls.append(t)
        return canonical_code(t)

    monkeypatch.setattr(search, "canonical_code", counted)
    verify_max_index(8, 4)
    assert len(calls) == LEAF_TABLE[8][4] + 1


def test_verify_builds_only_its_leaf_classes(monkeypatch):
    # leaves are counted on the generated parent arrays, so a Tree is built
    # only for the classes kept; the broom is built outside search
    built = []

    def counted(*args):
        built.append(args)
        return Tree(*args)

    monkeypatch.setattr(search, "Tree", counted)
    r = verify_max_index(12, 5)
    assert len(built) <= len(r.classes) + 1 < FREE_TREE_COUNTS[12]


def test_leaf_filter_keeps_the_generation_checks(monkeypatch):
    with pytest.raises(DomainError):
        enumerate_tree_classes(13, k=4)
    with monkeypatch.context() as m:
        m.setattr(search, "canonical_code", lambda t: "10")
        with pytest.raises(InvariantViolationError, match="collapsed"):
            enumerate_tree_classes(8, k=4)
    # the class count runs over every generated sequence, kept or not
    generate = search._free_trees
    monkeypatch.setattr(search, "_free_trees", lambda n: list(generate(n))[1:])
    with pytest.raises(InvariantViolationError, match="expected 23"):
        enumerate_tree_classes(8, k=4)


def test_verify_and_chain_solve_as_one_stack(monkeypatch):
    # no Jacobi solve: each call counts all of its trees at once, in every
    # multisection pass
    singles, stacks = [], []
    solve, above = spectra._jacobi_sweeps, spectra._above

    def counted_solve(*args):
        singles.append(args)
        return solve(*args)

    def counted_above(parents, xs):
        stacks.append(len(parents))
        return above(parents, xs)

    monkeypatch.setattr(spectra, "_jacobi_sweeps", counted_solve)
    monkeypatch.setattr(spectra, "_above", counted_above)
    r = verify_max_index(12, 5)
    passes = len(stacks)
    chain = double_star_chain(12)
    assert singles == []
    assert passes > 0 and len(stacks) > passes
    assert set(stacks[:passes]) == {len(r.classes)}
    assert set(stacks[passes:]) == {len(chain)}


def test_hill_climb_solves_one_tree_at_a_time(monkeypatch):
    # the climb scores candidates lazily, so each λ1 is its own solve
    sizes = []
    decompose = spectra.eigen_decompose

    def counted(m):
        sizes.append(m.n)
        return decompose(m)

    def no_stack(parents, xs):
        raise AssertionError(f"hill_climb stacked {len(parents)} trees")

    monkeypatch.setattr(spectra, "eigen_decompose", counted)
    monkeypatch.setattr(spectra, "_above", no_stack)
    spider = Tree(frozenset({(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)}))
    _, trace = hill_climb(spider)
    assert len(trace) >= 1
    assert len(sizes) > len(trace) and set(sizes) == {6}


def test_verify_edge_modes():
    assert verify_max_index(8, 7).mode == "edge_k_n_minus_1"
    assert verify_max_index(8, 6).mode == "edge_k_n_minus_2"
    assert verify_max_index(8, 2).mode == "edge_k_2"
    for n, k in [(8, 7), (8, 6), (8, 2), (5, 3)]:
        assert verify_max_index(n, k).matches_broom


def test_verify_single_class_gap_is_none():
    r = verify_max_index(6, 2)
    assert r.runner_up_gap is None
    assert len(r.classes) == 1
    assert r.matches_broom


def test_verify_reduced_range_n6_to_n8():
    for n in range(6, 9):
        for k in range(3, n - 2):
            r = verify_max_index(n, k)
            assert r.matches_broom, (n, k)
            assert r.runner_up_gap is not None and r.runner_up_gap > 1e-8
            assert r.tied_codes == (r.argmax_code,)


# ------------------------------------------------------------ double stars


def test_chain_n6_golden():
    chain = double_star_chain(6)
    assert [(s, t) for s, t, _ in chain] == [(2, 2), (1, 3)]
    assert chain[0][2] == pytest.approx(3.0, abs=1e-9)
    assert chain[1][2] == pytest.approx(4.064177772475912, abs=1e-7)


def test_chain_is_strictly_increasing():
    for n in range(6, 13):
        lams = [lam for _, _, lam in double_star_chain(n)]
        assert all(b - a > 1e-9 for a, b in zip(lams, lams[1:])), n


def test_chain_shape():
    chain = double_star_chain(9)
    assert [(s, t) for s, t, _ in chain] == [(3, 4), (2, 5), (1, 6)]
    for s, t, _ in chain:
        assert s + t == 7
        assert 1 <= s <= t


def test_chain_validation():
    with pytest.raises(DomainError):
        double_star_chain(5)


def test_chain_end_is_k_n_minus_2_argmax():
    # the last chain entry is the double star with a single pendant on one
    # side, which is also the broom with n-2 leaves
    n = 8
    last = double_star_chain(n)[-1]
    assert last[:2] == (1, 5)
    r = verify_max_index(n, n - 2)
    assert r.argmax_code == canonical_code(build_double_star(1, n - 3))
    assert canonical_code(build_double_star(1, n - 3)) == canonical_code(
        build_broom(n, n - 2)
    )


# ------------------------------------------------------------ audits


def test_audit_broom_passes():
    rec = structural_audit(build_broom(8, 4))
    assert rec.k == 4
    assert rec.applicable
    assert rec.passed
    assert rec.hub == 0
    assert rec.max_degree_is_k
    assert rec.unique_max_degree_vertex
    assert rec.hub_pendant_neighbors
    assert rec.non_hub_degrees_le_2


def test_audit_balanced_double_star_fails():
    rec = structural_audit(build_double_star(2, 2))
    assert rec.applicable
    assert not rec.passed
    assert not rec.max_degree_is_k


def test_audit_spider_fails_pendant_check():
    # legs (1, 2, 2): hub degree 3 = k but only one pendant neighbour
    spider = Tree(frozenset({(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)}))
    rec = structural_audit(spider)
    assert rec.applicable
    assert rec.max_degree_is_k
    assert not rec.hub_pendant_neighbors
    assert not rec.passed


def test_audit_path_and_star_not_applicable():
    rec2 = structural_audit(build_path(7))
    assert not rec2.applicable
    assert rec2.passed
    assert rec2.hub is None
    recn = structural_audit(build_star(7))
    assert not recn.applicable
    assert recn.passed


# ------------------------------------------------------------ serialization


def verify_stdout(capsys, n, k, fmt):
    assert run(["verify", "--n", str(n), "--k", str(k), "--format", fmt]) == 0
    return capsys.readouterr().out


def test_report_json_round_trip(capsys):
    r = verify_max_index(6, 3)
    doc = json.loads(verify_stdout(capsys, 6, 3, "json"))
    assert doc["n"] == 6
    assert doc["k"] == 3
    assert doc["mode"] == "reduced"
    assert doc["matches_broom"] is True
    assert doc["argmax_code"] == r.argmax_code
    assert doc["tied_codes"] == [r.argmax_code]
    assert len(doc["classes"]) == 2
    flags = [c["is_argmax"] for c in doc["classes"]]
    assert flags.count(True) == 1
    for c, rec in zip(doc["classes"], r.classes):
        assert tuple(c["prufer"]) == rec.prufer
        assert c["lambda1"] == rec.lambda1


def test_report_csv_shape(capsys):
    r = verify_max_index(6, 3)
    rows = list(csv.reader(io.StringIO(verify_stdout(capsys, 6, 3, "csv"))))
    assert rows[0] == ["n", "k", "canonical_code", "prufer", "leaf_count", "lambda1", "is_argmax"]
    assert len(rows) == 1 + len(r.classes)
    for row, c in zip(rows[1:], r.classes):
        assert row[0] == "6" and row[1] == "3"
        assert row[2] == c.canonical_code
        assert tuple(int(x) for x in row[3].split(",")) == c.prufer
        assert float(row[5]) == c.lambda1
        assert row[6] in ("True", "False")


def test_csv_lambda_survives_parse_round_trip(capsys):
    r = verify_max_index(7, 3)
    rows = list(csv.reader(io.StringIO(verify_stdout(capsys, 7, 3, "csv"))))
    for row, c in zip(rows[1:], r.classes):
        assert float(row[5]) == c.lambda1


# ------------------------------------------------------------ helpers


def test_tree_index_permutation_invariant():
    t = build_broom(8, 4)
    perm = (5, 2, 7, 0, 3, 6, 1, 4)
    assert tree_index(t) == pytest.approx(tree_index(t.relabel(perm)), abs=1e-9)


def test_prufer_encode_of_reps_round_trips(classes_of):
    for t in classes_of(7):
        seq = prufer_encode(t)
        assert prufer_decode(PruferSequence(seq.symbols)) == t
