"""Tests of the benchmark itself, at toy size.

Run from the repository root:
    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def toy_records(workload, trace=0):
    return worker.run_workload(workload, seed=3, seconds=0, trace=trace, toy=True)


def corrupt(records, argv0, edit):
    """Apply edit to the parsed stdout of the first call named argv0."""
    out = []
    done = False
    for argv, rc, text, dig in records:
        if not done and argv[0] == argv0 and text is not None:
            text = edit(text)
            dig = checks.digest(text)
            done = True
        out.append((argv, rc, text, dig))
    assert done
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_toy_workload_passes_every_check(workload):
    res = toy_records(workload)
    ck = checks.check_records(res["records"])
    assert ck.attempted > 0
    assert ck.failed == 0, ck.failures
    assert len(res["walls"]) == 1 and res["peak_rss_mb"] > 0


def test_corrupted_lambda1_fails_a_check():
    def edit(text):
        rep = json.loads(text)
        rep["classes"][0]["lambda1"] += 1e-7
        return json.dumps(rep)

    ck = checks.check_records(corrupt(toy_records("sweep")["records"], "verify", edit))
    assert ck.failed > 0 and ck.fail_ratio > 0
    assert any("λ1" in f for f in ck.failures)


def test_corrupted_class_code_fails_a_check():
    def edit(text):
        rep = json.loads(text)
        code = rep["classes"][0]["canonical_code"]
        rep["classes"][0]["canonical_code"] = code[::-1]
        return json.dumps(rep)

    ck = checks.check_records(corrupt(toy_records("prufer")["records"], "enumerate", edit))
    assert ck.failed > 0
    assert any("disagree" in f for f in ck.failures)


def test_corrupted_climb_step_fails_a_check():
    def edit(text):
        lines = text.splitlines()
        step = json.loads(lines[0])
        step["lambda1"] -= 1e-6
        return "\n".join([json.dumps(step)] + lines[1:]) + "\n"

    records = toy_records("climb")["records"]
    with_steps = [r for r in records if r[2] and r[2].count("\n") > 1]
    assert with_steps, "no toy climb took a step"
    ck = checks.check_records(corrupt(with_steps, "climb", edit))
    assert ck.failed > 0


def test_nondeterministic_output_fails_a_check():
    records = toy_records("prufer")["records"]
    argv, rc, _, dig = records[0]
    ck = checks.check_records(records + [(argv, rc, None, "0" * 64)])
    assert ck.failed == 1
    ck = checks.check_records(records, known_digests={" ".join(argv): "0" * 64})
    assert ck.failed == 1


def test_traced_run_reports_every_layer_metric_and_restores_the_package():
    from signedkn import perturb, search, spectra

    original = spectra.eigen_decompose
    res = toy_records("prufer", trace=1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(res["layers"]) == {m["name"] for m in declared}
    assert res["layers"]["spectra.eigen_decompose.calls"][0] == 0
    assert res["layers"]["search.enumerate_tree_classes.calls"][0] == 2
    assert search.eigen_decompose is original and perturb.eigen_decompose is original


def test_traced_climb_counts_solves_and_accepted_moves():
    layers = toy_records("climb", trace=1)["layers"]
    value, _, evals = layers["perturb.accept_ratio"]
    assert evals > 0 and 0 < value <= 1
    assert layers["spectra.eigen_decompose.calls"][0] > evals  # plus the final λ1


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
