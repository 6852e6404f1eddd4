import csv
import io
import itertools
import json
import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
import sympy

from oracles import charpoly_coefficients, is_broom_shaped
from signedkn import (
    DomainError,
    InvariantViolationError,
    PruferSequence,
    SearchReport,
    Tree,
    adjacency_matrix,
    build_broom,
    build_double_star,
    build_path,
    build_star,
    canonical_code,
    double_star_chain,
    enumerate_tree_classes,
    hill_climb,
    leaf_count,
    prufer_decode,
    prufer_encode,
    signed_complete_from_tree,
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
        codes = list(enumerate_tree_classes(n))
        assert list(enumerate_tree_classes(n, method="prufer")) == codes
        assert len(codes) == FREE_TREE_COUNTS[n]
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
    # every row at n = 4..7, decoded in the route's blocks: the block
    # decode's key is the scalar decode's Matula number rooted at n-1
    for n in range(4, 8):
        total = n ** (n - 2)
        blocks = [
            search._block_symbols(n, start, min(start + search.PRUFER_BLOCK, total))
            for start in range(0, total, search.PRUFER_BLOCK)
        ]
        symbols = np.concatenate(blocks)
        assert symbols.tolist() == [
            list(s) for s in itertools.product(range(n), repeat=n - 2)
        ]
        keys = np.concatenate([search._peel(block, n) for block in blocks])
        for row, key in zip(symbols.tolist(), keys.tolist()):
            t = prufer_decode(PruferSequence(row))
            assert key == search._matula(t.adjacency(), n - 1)
        # one key per rooted class: the rooted-tree counts (OEIS A000081)
        assert len(set(keys.tolist())) == {4: 4, 5: 9, 6: 20, 7: 48}[n]
    # the 16807 rows at n = 7 fill 8 blocks and a ragged ninth
    assert [len(block) for block in blocks] == [2048] * 8 + [423]


def test_prufer_kernel_on_the_deepest_and_shallowest_rooted_trees():
    # the path ending at n-1 is the deepest tree rooted there, whose number
    # nests a prime n-1 times, the star centred at n-1 the shallowest; one
    # caterpillar, rooted at a leaf, lies between
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
        keys = search._peel(symbols.reshape(3, n - 2), n)
        for t, key in zip(trees, keys.tolist()):
            assert key == search._matula(t.adjacency(), n - 1), (n, t)


def test_matula_numbers_match_rooted_codes_up_to_eight_vertices(classes_of):
    # all 199 rooted trees on 2..8 vertices: every generated class rooted at
    # every vertex; each rooted code has one number and each number one code
    pairs = set()
    for n in range(2, 9):
        for t in classes_of(n):
            adj = t.adjacency()
            for root in range(n):
                pairs.add((_rooted_code(adj, root), search._matula(adj, root)))
    codes, numbers = zip(*pairs)
    assert len(pairs) == len(set(codes)) == len(set(numbers)) == 199
    # a child in a tree rooted at MAX_PRUFER_N - 1 heads at most 8 vertices,
    # so _PRIME must reach the largest number here
    assert search.MAX_PRUFER_N - 1 == 8
    assert max(numbers) == 2221
    assert len(search._PRIME) > 2221
    assert search._PRIME[1:].tolist() == list(sympy.primerange(2, 19578))


def test_prufer_keys_fit_the_seen_table(classes_of):
    # _classes_by_prufer marks keys in a table of _PRIME[-1] + 1 entries: over
    # every rooting of every class on MAX_PRUFER_N vertices, the largest
    # Matula number is _PRIME[-1], whose root has one child, numbered 2221
    n = search.MAX_PRUFER_N
    numbers = [
        search._matula(t.adjacency(), root) for t in classes_of(n) for root in range(n)
    ]
    assert len(numbers) == FREE_TREE_COUNTS[n] * n
    assert max(numbers) == search._PRIME[-1] == search._PRIME[2221] == 19577


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
    # rows one symbol short, one long and two long all raise, naming the length
    rng = np.random.default_rng(0)
    for n in range(3, search.MAX_PRUFER_N + 1):
        for length in (n - 3, n - 1, n):
            message = f"need {n - 2} symbols, got {length}$"
            with pytest.raises(InvariantViolationError, match=message):
                search._peel(rng.integers(0, n, (64, length)), n)
    # a representative whose scalar Matula number disagrees with its key
    with monkeypatch.context() as m:
        m.setattr(search, "_matula", lambda adj, root: 1)
        with pytest.raises(InvariantViolationError, match="differs from its Matula"):
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
    # the class count runs over every generated sequence, kept or not; it
    # runs when the table of parent arrays is filled, so start from an
    # empty table for the patched generator to fill
    generate = search._free_trees
    monkeypatch.setattr(search, "_BY_LEAVES", {})
    monkeypatch.setattr(search, "_free_trees", lambda n: list(generate(n))[1:])
    with pytest.raises(InvariantViolationError, match="expected 23"):
        enumerate_tree_classes(8, k=4)


def test_class_count_past_the_table_is_a_domain_error():
    # the public entry stops at MAX_N; a private call past it reaches the
    # count check, which names the limit rather than failing on the table
    with pytest.raises(DomainError, match=f"MAX_N = {search.MAX_N}"):
        search._classes_by_generation(search.MAX_N + 1)
    # and a fill that raises stores nothing, so the next call raises again
    assert search.MAX_N + 1 not in search._BY_LEAVES
    with pytest.raises(DomainError, match=f"MAX_N = {search.MAX_N}"):
        search._classes_by_generation(search.MAX_N + 1)


def test_each_n_is_generated_once(monkeypatch):
    calls = []
    generate = search._free_trees

    def counted(n):
        calls.append(n)
        return generate(n)

    monkeypatch.setattr(search, "_BY_LEAVES", {})
    monkeypatch.setattr(search, "_free_trees", counted)
    for k in range(2, 10):
        verify_max_index(10, k)
    assert calls == [10]


def test_leaf_buckets_hold_every_generated_array_once():
    for n in range(2, search.MAX_N + 1):
        buckets = search._parents_by_leaves(n)
        generated = [[-1, 0, 1]] if n == 3 else list(search._free_trees(n))
        assert list(buckets) == (list(range(2, n)) if n > 2 else [2]), n
        assert sum(len(b) for b in buckets.values()) == len(generated) == FREE_TREE_COUNTS[n]
        for k, bucket in buckets.items():
            assert isinstance(bucket, tuple) and all(isinstance(p, tuple) for p in bucket)
            # in generator order, and exactly the arrays with k leaves
            assert [list(p) for p in bucket] == [
                p for p in generated if leaf_count(Tree(frozenset(zip(range(1, n), p[1:])))) == k
            ], (n, k)


def test_sweep_reads_the_same_from_an_empty_and_a_full_table(monkeypatch, capsys):
    argv = ["sweep", "--n-min", "6", "--n-max", "10", "--all-k"]
    monkeypatch.setattr(search, "_BY_LEAVES", {})
    assert run(argv) == 0
    cold = capsys.readouterr().out
    assert sorted(search._BY_LEAVES) == list(range(6, 11))

    def no_generation(n):
        raise AssertionError(f"generated n={n} again")

    monkeypatch.setattr(search, "_free_trees", no_generation)
    assert run(argv) == 0
    assert capsys.readouterr().out == cold


def test_verify_and_chain_solve_as_one_stack(monkeypatch):
    # no Jacobi solve: each call counts all of its trees at once, in every
    # multisection pass
    singles, stacks = [], []
    solve, above = spectra._jacobi_sweeps, spectra._Elimination.above

    def counted_solve(*args):
        singles.append(args)
        return solve(*args)

    def counted_above(kernel, xs):
        stacks.append(len(xs))
        return above(kernel, xs)

    monkeypatch.setattr(spectra, "_jacobi_sweeps", counted_solve)
    monkeypatch.setattr(spectra._Elimination, "above", counted_above)
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

    def no_stack(kernel, xs):
        raise AssertionError(f"hill_climb stacked {len(xs)} trees")

    monkeypatch.setattr(spectra, "eigen_decompose", counted)
    monkeypatch.setattr(spectra._Elimination, "above", no_stack)
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


def _double_star_quotient(n, s, t, x):
    """p_{s,t}(x), the characteristic polynomial of the equitable quotient
    of (K_n, T(s, t)⁻) on four cells: the two centres, the s leaves and
    the t leaves."""
    st = s * t
    return x**4 - (n - 4) * x**3 - (3 * n - 6) * x**2 + (8 * st - 3 * n + 4) * x + 8 * st - n + 1


def test_double_star_spectrum_is_its_quotient_and_minus_one():
    # det(xI - A) = (x+1)^(n-4) p_{s,t}(x).  p_{s-1,t+1} - p_{s,t} is
    # 8(x+1)(s-t-1), negative at x = λ1(s, t) > -1 when s <= t, and p is
    # monic, so λ1 rises strictly along the chain for every n >= 6
    # (equitable partitions: Godsil & Royle, Algebraic Graph Theory, 2001,
    # §9.3)
    n, s, t, x = sympy.symbols("n s t x")
    step = _double_star_quotient(n, s - 1, t + 1, x) - _double_star_quotient(n, s, t, x)
    assert sympy.expand(step - 8 * (x + 1) * (s - t - 1)) == 0
    stars, worst_ulps = 0, 0
    for m in range(6, 13):
        for a, b, lam in double_star_chain(m):
            p = sympy.Poly(_double_star_quotient(m, a, b, x), x)
            want = [int(c) for c in (sympy.Poly((x + 1) ** (m - 4), x) * p).all_coeffs()]
            g = signed_complete_from_tree(build_double_star(a, b))
            assert charpoly_coefficients(adjacency_matrix(g).entries) == want, (a, b)
            root = max(sympy.real_roots(p)).evalf(40)
            ulps = abs(sympy.Rational(lam) - root) / sympy.Rational(math.ulp(lam))
            worst_ulps = max(worst_ulps, ulps)
            stars += 1
    assert stars == 23
    assert worst_ulps <= 4


# ------------------------------------------------------------ broom shape


def test_broom_shape_oracle_holds_exactly_on_the_broom(classes_of):
    # every class with 5 <= n <= 12 and 3 <= k <= n-2: the degree predicate
    # holds exactly when the canonical code is the broom's, so it fails on
    # every planted wrong tree of the same n and k
    brooms = wrong = 0
    for n in range(5, 13):
        for t in classes_of(n):
            k = leaf_count(t)
            if not 3 <= k <= n - 2:
                continue
            broom = canonical_code(t) == canonical_code(build_broom(n, k))
            assert is_broom_shaped(t) == broom, (n, k, canonical_code(t))
            brooms += broom
            wrong += not broom
    assert (brooms, wrong) == (36, 930)


def test_audit_broom_passes():
    broom = build_broom(8, 4)
    assert leaf_count(broom) == 4
    assert is_broom_shaped(broom)
    assert is_broom_shaped(broom.relabel((7, 6, 5, 4, 3, 2, 1, 0)))


def test_audit_balanced_double_star_fails():
    # two vertices of degree 3, so no single hub
    assert not is_broom_shaped(build_double_star(2, 2))


def test_audit_spider_fails_pendant_check():
    # legs (1, 2, 2): one vertex of degree 3 = k, but one pendant neighbour
    spider = Tree(frozenset({(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)}))
    assert leaf_count(spider) == max(spider.degrees()) == 3
    assert not is_broom_shaped(spider)


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
