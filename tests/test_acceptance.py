"""Acceptance gate: the ten desk-scale claims the package exists to check.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s, or in the
captured output on failure) and then asserts, so a red run always names the
criterion that broke.
"""

import random
import time

import numpy as np
import pytest

from oracles import is_broom_shaped
from signedkn import (
    PruferSequence,
    RotationMove,
    SymMatrix,
    apply_rotation,
    build_broom,
    build_star,
    canonical_code,
    check_precondition,
    double_star_chain,
    eigen_decompose,
    enumerate_tree_classes,
    hill_climb,
    is_balanced,
    prufer_decode,
    random_tree,
    random_tree_with_leaf_count,
    signed_complete_from_tree,
    spectrum_of,
    switch,
    top_eigenvector,
    tree_index,
    verify_max_index,
)
from signedkn.search import FREE_TREE_COUNTS


def _line(num: int, desc: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} ({detail})")
    assert ok, f"criterion {num}: {desc} ({detail})"


def _random_move(t, rnd, kind):
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
            for (x, u) in sorted(t.edges)
            for r in range(n)
            for s in range(r + 1, n)
            if len({r, s, x, u}) == 4 and (r, s) not in t.edges
        ]
    if not options:
        return None
    return RotationMove(rnd.choice(options))


@pytest.fixture(scope="module")
def verified_range():
    """Lazy cache of verify reports over the criterion-1 grid."""
    return {}


def _fill_verified(cache):
    for n in range(6, 10):
        for k in range(3, n - 2):
            if (n, k) not in cache:
                cache[(n, k)] = verify_max_index(n, k)
    return cache


def test_criterion_01_broom_argmax_sweep(verified_range):
    t0 = time.perf_counter()
    _fill_verified(verified_range)
    elapsed = time.perf_counter() - t0
    reports = [verified_range[(n, k)] for n in range(6, 10) for k in range(3, n - 2)]
    all_broom = all(r.matches_broom for r in reports)
    gaps = [r.runner_up_gap for r in reports]
    gaps_ok = all(g is not None and g > 1e-8 for g in gaps)
    ok = all_broom and gaps_ok and elapsed < 60.0
    _line(
        1,
        "broom is the unique argmax for n in 6..9, k in 3..n-3",
        ok,
        f"{sum(r.matches_broom for r in reports)}/{len(reports)} match, "
        f"min gap {min(gaps):.3e}, sweep {elapsed:.1f}s",
    )


def test_criterion_02_double_star_chain():
    worst = float("inf")
    for n in range(6, 13):
        lams = [lam for _, _, lam in double_star_chain(n)]
        worst = min([worst] + [b - a for a, b in zip(lams, lams[1:])])
    ok = worst > 1e-9
    _line(
        2,
        "double-star chain strictly increasing for n in 6..12",
        ok,
        f"min successive gap {worst:.3e}",
    )


def test_criterion_03_balanced_star_spectrum():
    worst = 0.0
    for n in range(3, 51):
        s = spectrum_of(signed_complete_from_tree(build_star(n)))
        worst = max(worst, abs(s.lambda1 - (n - 1)))
        worst = max(worst, float(np.max(np.abs(s.values[1:] + 1.0))))
    ok = worst <= 1e-9
    _line(
        3,
        "star signing has spectrum {n-1, -1^(n-1)} for n in 3..50",
        ok,
        f"max deviation {worst:.3e}",
    )


def test_criterion_04_switching_invariance():
    rnd = random.Random(1004)
    worst = 0.0
    balance_ok = True
    for _ in range(1000):
        n = rnd.randrange(3, 13)
        g = signed_complete_from_tree(random_tree(n, rnd))
        u = [v for v in range(n) if rnd.random() < 0.5]
        h = switch(g, u)
        d = float(np.max(np.abs(spectrum_of(g).values - spectrum_of(h).values)))
        worst = max(worst, d)
        balance_ok = balance_ok and (is_balanced(g) == is_balanced(h))
    ok = worst <= 1e-9 and balance_ok
    _line(
        4,
        "1000 random switchings preserve spectrum and balance",
        ok,
        f"max spectral deviation {worst:.3e}, balance preserved {balance_ok}",
    )


def test_criterion_05_relabeling_invariance():
    rnd = random.Random(1005)
    worst = 0.0
    for _ in range(1000):
        n = rnd.randrange(3, 13)
        t = random_tree(n, rnd)
        perm = list(range(n))
        rnd.shuffle(perm)
        worst = max(worst, abs(tree_index(t) - tree_index(t.relabel(tuple(perm)))))
    ok = worst <= 1e-9
    _line(
        5,
        "1000 random relabelings leave lambda1 unchanged",
        ok,
        f"max deviation {worst:.3e}",
    )


def test_criterion_06_rotation_monotonicity():
    rnd = random.Random(1006)
    satisfied = 0
    strict_qualifying = 0
    worst_drop = 0.0
    min_strict_rise = float("inf")
    attempts = 0
    while satisfied < 1000 and attempts < 8000:
        attempts += 1
        n = rnd.randrange(5, 13)
        t = random_tree(n, rnd)
        g = signed_complete_from_tree(t)
        move = _random_move(t, rnd, rnd.choice(("type_i", "type_ii")))
        if move is None:
            continue
        top = top_eigenvector(g)
        report = check_precondition(g, move, top.vector)
        if not report.satisfied:
            continue
        satisfied += 1
        delta = spectrum_of(apply_rotation(g, move)).lambda1 - top.value
        worst_drop = min(worst_drop, delta)
        if report.strict and not top.degenerate and top.gap > 1e-6:
            strict_qualifying += 1
            min_strict_rise = min(min_strict_rise, delta)
    ok = (
        satisfied == 1000
        and worst_drop >= -1e-10
        and strict_qualifying > 0
        and min_strict_rise > 1e-10
    )
    _line(
        6,
        "1000 satisfied rotations never lower lambda1; strict ones raise it",
        ok,
        f"{satisfied} satisfied ({strict_qualifying} strict with simple top), "
        f"worst drop {worst_drop:.3e}, min strict rise {min_strict_rise:.3e}",
    )


def test_criterion_07_eigensolver_quality():
    rnd = random.Random(1007)
    worst_res = 0.0
    worst_recon = 0.0
    for _ in range(500):
        n = rnd.randrange(2, 31)
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                a[i, j] = a[j, i] = rnd.choice((-1.0, 1.0))
        s = eigen_decompose(SymMatrix(a))
        v = s.vectors
        res = float(np.max(np.linalg.norm(a @ v - v * s.values, axis=0)))
        worst_res = max(worst_res, res)
        recon = float(np.linalg.norm(v @ np.diag(s.values) @ v.T - a))
        worst_recon = max(worst_recon, recon / max(1.0, float(np.linalg.norm(a))))
    worst_trace = 0.0
    for _ in range(200):
        n = rnd.randrange(3, 31)
        g = signed_complete_from_tree(random_tree(n, rnd))
        vals = spectrum_of(g).values
        worst_trace = max(worst_trace, abs(float(np.sum(vals))))
        worst_trace = max(worst_trace, abs(float(np.sum(vals**2)) - n * (n - 1)))
    ok = worst_res <= 1e-8 and worst_recon <= 1e-9 and worst_trace <= 1e-8
    _line(
        7,
        "500 random sign matrices: residuals, reconstruction, trace identities",
        ok,
        f"max residual {worst_res:.3e}, max recon {worst_recon:.3e}, "
        f"max trace dev {worst_trace:.3e}",
    )


def test_criterion_08_enumeration_cross_check():
    counts = {}
    ok = True
    for n in range(2, 10):
        codes = list(enumerate_tree_classes(n))
        counts[n] = len(codes)
        ok &= list(enumerate_tree_classes(n, method="prufer")) == codes
        ok &= len(codes) == FREE_TREE_COUNTS[n]
    _line(
        8,
        "Prufer dedupe and canonical generation agree for n <= 9",
        ok,
        "counts " + " ".join(f"{n}:{c}" for n, c in counts.items()),
    )


def test_criterion_09_hill_climb_vs_exhaustive():
    rnd = random.Random(1009)
    total_pairs = 0
    hit_rates = []
    fixed_points = True
    for n in range(3, 9):
        for k in range(2, n):
            total_pairs += 1
            best = max(tree_index(t) for t in enumerate_tree_classes(n, k=k).values())
            hits = 0
            for _ in range(50):
                start = random_tree_with_leaf_count(n, k, rnd)
                final, _ = hill_climb(start)
                if abs(tree_index(final) - best) <= 1e-8:
                    hits += 1
            hit_rates.append(hits / 50.0)
            _, trace = hill_climb(build_broom(n, k))
            fixed_points = fixed_points and trace == []
    ok = all(r >= 0.95 for r in hit_rates) and fixed_points
    _line(
        9,
        "50-start climbs reach the exhaustive max; broom is a fixed point",
        ok,
        f"{total_pairs} (n,k) pairs, min hit rate {min(hit_rates):.0%}, "
        f"broom fixed {fixed_points}",
    )


def test_criterion_10_unbalanced_index_and_audits(classes_of, verified_range):
    worst = float("inf")
    balance_as_expected = True
    for n in range(3, 10):
        star = canonical_code(build_star(n))
        for t in classes_of(n):
            g = signed_complete_from_tree(t)
            if canonical_code(t) == star:
                balance_as_expected = balance_as_expected and is_balanced(g)
                continue
            balance_as_expected = balance_as_expected and not is_balanced(g)
            worst = min(worst, spectrum_of(g).lambda1)
    shapes_ok = True
    for (n, k), r in sorted(_fill_verified(verified_range).items()):
        arg = next(c for c in r.classes if c.is_argmax)
        t = prufer_decode(PruferSequence(arg.prufer))
        shapes_ok = shapes_ok and is_broom_shaped(t)
    ok = worst > 1.0 and shapes_ok and balance_as_expected
    _line(
        10,
        "unbalanced classes have lambda1 > 1; argmax shapes are brooms",
        ok,
        f"min unbalanced lambda1 {worst:.6f}, broom shapes ok {shapes_ok}, "
        f"balance split ok {balance_as_expected}",
    )
