import csv
import io
import itertools
import json

import pytest

from signedkn import (
    DomainError,
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
    enumerate_with_leaves,
    leaf_count,
    prufer_decode,
    prufer_encode,
    report_to_csv,
    report_to_json,
    structural_audit,
    tree_index,
    verify_max_index,
)
from signedkn.search import CSV_COLUMNS, FREE_TREE_COUNTS

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
        codes = [canonical_code(t).code for t in trees]
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
    # first sequence, found here by brute force over all 6**4 sequences
    first: dict[str, tuple[int, ...]] = {}
    for symbols in sorted(itertools.product(range(6), repeat=4)):
        code = canonical_code(prufer_decode(PruferSequence(6, symbols))).code
        first.setdefault(code, symbols)
    reps = enumerate_tree_classes(6, method="prufer")
    assert len(reps) == len(first) == FREE_TREE_COUNTS[6]
    for t in reps:
        assert prufer_encode(t).symbols == first[canonical_code(t).code]


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
            assert len(enumerate_with_leaves(n, k)) == count


def test_leaf_classes_extremes():
    assert [canonical_code(t) for t in enumerate_with_leaves(7, 2)] == [
        canonical_code(build_path(7))
    ]
    assert [canonical_code(t) for t in enumerate_with_leaves(7, 6)] == [
        canonical_code(build_star(7))
    ]
    assert len(enumerate_with_leaves(7, 3)) == 3


def test_enumerate_with_leaves_validation():
    with pytest.raises(DomainError):
        enumerate_with_leaves(6, 1)
    with pytest.raises(DomainError):
        enumerate_with_leaves(6, 6)


# ------------------------------------------------------------ verification


def test_verify_6_3_golden():
    r = verify_max_index(6, 3)
    assert isinstance(r, SearchReport)
    assert r.mode == "reduced"
    assert r.matches_broom
    assert r.argmax_code == canonical_code(build_broom(6, 3)).code
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
        t = prufer_decode(PruferSequence(r.n, c.prufer))
        assert canonical_code(t).code == c.canonical_code
        assert leaf_count(t) == c.leaf_count == r.k
        assert tree_index(t) == pytest.approx(c.lambda1, abs=1e-12)


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
    assert r.argmax_code == canonical_code(build_double_star(1, n - 3)).code
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
    spider = Tree(6, frozenset({(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)}))
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


def test_report_json_round_trip():
    r = verify_max_index(6, 3)
    doc = json.loads(report_to_json(r))
    assert doc["n"] == 6
    assert doc["k"] == 3
    assert doc["mode"] == "reduced"
    assert doc["matches_broom"] is True
    assert doc["argmax_code"] == r.argmax_code
    assert doc["tied_codes"] == [r.argmax_code]
    assert len(doc["classes"]) == 2
    flags = [c["is_argmax"] for c in doc["classes"]]
    assert flags.count(True) == 1


def test_report_csv_shape():
    r = verify_max_index(6, 3)
    rows = list(csv.reader(io.StringIO(report_to_csv(r))))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + len(r.classes)
    for row, c in zip(rows[1:], r.classes):
        assert row[0] == "6" and row[1] == "3"
        assert row[2] == c.canonical_code
        assert tuple(int(x) for x in row[3].split(",")) == c.prufer
        assert float(row[5]) == c.lambda1
        assert row[6] in ("True", "False")


def test_csv_lambda_survives_parse_round_trip():
    r = verify_max_index(7, 3)
    rows = list(csv.reader(io.StringIO(report_to_csv(r))))
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
        assert prufer_decode(PruferSequence(7, seq.symbols)) == t
