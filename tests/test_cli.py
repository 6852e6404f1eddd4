import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedkn
from signedkn.cli import run


def lines_of(capsys):
    out = capsys.readouterr().out
    return [ln for ln in out.splitlines() if ln]


# ------------------------------------------------------------- spectrum


def test_spectrum_json(capsys):
    rc = run(["spectrum", "--prufer", "1,2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4
    assert set(doc) == {"n", "values", "lambda1", "lambdan", "radius"}
    assert doc["lambda1"] == pytest.approx(5**0.5, abs=1e-9)


def test_spectrum_text(capsys):
    rc = run(["spectrum", "--prufer", "", "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n=2" in out and "lambda1=" in out and "values:" in out


def test_spectrum_from_edge_file(tmp_path, capsys):
    p = tmp_path / "tree.txt"
    p.write_text("4\n0 1\n1 2\n2 3\n")
    rc = run(["spectrum", "--edges", str(p)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4


def test_spectrum_out_file(tmp_path, capsys):
    dest = tmp_path / "spectrum.json"
    rc = run(["spectrum", "--prufer", "0,0", "--out", str(dest)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(dest.read_text())
    assert doc["lambda1"] == pytest.approx(3.0, abs=1e-9)


# ------------------------------------------------------------- balance


def test_balance_star_json(capsys):
    rc = run(["balance", "--prufer", "0,0,0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["balanced"] is True
    assert sorted(map(sorted, doc["bipartition"])) == [[0], [1, 2, 3, 4]]


def test_balance_path_reports_triangle(capsys):
    rc = run(["balance", "--prufer", "1,2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["balanced"] is False
    tri = doc["negative_triangle"]
    assert len(tri) == 3 and all(0 <= v < 4 for v in tri)


def test_balance_text(capsys):
    rc = run(["balance", "--prufer", "0,0,0", "--format", "text"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("balanced:")


# ------------------------------------------------------------- verify


def test_verify_json_ok(capsys):
    rc = run(["verify", "--n", "6", "--k", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matches_broom"] is True
    assert len(doc["classes"]) == 2


def test_verify_csv(capsys):
    rc = run(["verify", "--n", "7", "--k", "3", "--format", "csv"])
    assert rc == 0
    rows = lines_of(capsys)
    assert rows[0] == "n,k,canonical_code,prufer,leaf_count,lambda1,is_argmax"
    assert len(rows) == 4


def test_verify_text(capsys):
    rc = run(["verify", "--n", "6", "--k", "4", "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "matches_broom=True" in out
    assert " *" in out


def test_verify_star_case(capsys):
    rc = run(["verify", "--n", "7", "--k", "6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "edge_k_n_minus_1"
    assert doc["runner_up_gap"] is None


# ------------------------------------------------------------- sweep


def test_sweep_csv(capsys):
    rc = run(["sweep", "--n-min", "6", "--n-max", "7", "--format", "csv"])
    assert rc == 0
    rows = lines_of(capsys)
    # header plus (6,3) and (7,3), (7,4)
    assert len(rows) == 4
    assert rows[0].startswith("n,k,")
    assert all(",True," in r for r in rows[1:])


def test_sweep_all_k_has_empty_gap_cells(capsys):
    rc = run(["sweep", "--n-min", "6", "--n-max", "6", "--all-k", "--format", "csv"])
    assert rc == 0
    rows = lines_of(capsys)
    assert len(rows) == 5  # header + k in {2,3,4,5}
    single_class = [r for r in rows[1:] if ",,True," in r or r.endswith(",,True,1")]
    assert single_class, "k=2 and k=5 rows should carry an empty gap cell"


def test_sweep_json_shape(capsys):
    rc = run(["sweep", "--n-min", "6", "--n-max", "6", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["k"] for r in doc["reports"]] == [3]


def test_sweep_bad_range(capsys):
    rc = run(["sweep", "--n-min", "8", "--n-max", "6"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- chain


def test_chain_json(capsys):
    rc = run(["chain", "--n", "6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["monotone"] is True
    assert [[e["s"], e["t"]] for e in doc["chain"]] == [[2, 2], [1, 3]]


def test_chain_csv_increasing(capsys):
    rc = run(["chain", "--n", "9", "--format", "csv"])
    assert rc == 0
    rows = lines_of(capsys)
    assert rows[0] == "s,t,lambda1"
    lams = [float(r.split(",")[2]) for r in rows[1:]]
    assert lams == sorted(lams)
    assert len(lams) == 3


def test_chain_too_small(capsys):
    rc = run(["chain", "--n", "5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- climb


def test_climb_json_trace_and_final(capsys):
    rc = run(["climb", "--n", "8", "--k", "4", "--seed", "5"])
    assert rc == 0
    rows = lines_of(capsys)
    final = json.loads(rows[-1])["final"]
    assert final["n"] == 8 and final["k"] == 4 and final["seed"] == 5
    assert final["steps"] == len(rows) - 1
    lams = [json.loads(r)["lambda1"] for r in rows[:-1]]
    assert lams == sorted(lams)
    assert final["final_lambda1"] >= (lams[-1] if lams else 0)


def test_climb_seed_reproducible(capsys):
    rc1 = run(["climb", "--n", "7", "--k", "3", "--seed", "11"])
    out1 = capsys.readouterr().out
    rc2 = run(["climb", "--n", "7", "--k", "3", "--seed", "11"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_climb_text(capsys):
    rc = run(["climb", "--n", "6", "--k", "3", "--seed", "2", "--format", "text"])
    assert rc == 0
    assert "final lambda1=" in capsys.readouterr().out


def test_climb_max_steps_zero(capsys):
    rc = run(["climb", "--n", "7", "--k", "4", "--seed", "1", "--max-steps", "0"])
    assert rc == 0
    rows = lines_of(capsys)
    assert len(rows) == 1
    assert json.loads(rows[0])["final"]["steps"] == 0


def test_climb_bad_k(capsys):
    rc = run(["climb", "--n", "6", "--k", "6", "--seed", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- enumerate


def test_enumerate_json(capsys):
    rc = run(["enumerate", "--n", "7"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 11
    codes = [c["canonical_code"] for c in doc["classes"]]
    assert codes == sorted(codes)


def test_enumerate_with_k_filter(capsys):
    rc = run(["enumerate", "--n", "7", "--k", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 3
    assert all(c["leaf_count"] == 3 for c in doc["classes"])


def test_enumerate_impossible_k(capsys):
    assert run(["enumerate", "--n", "8", "--k", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need 2 <= k <= n-1, got (n=8, k=9)\n"


def test_enumerate_prufer_method_agrees(capsys):
    # same classes in the same order; representatives may be labeled
    # differently per method, so compare codes rather than prufer strings
    rc = run(["enumerate", "--n", "6", "--method", "prufer"])
    out1 = capsys.readouterr().out
    assert rc == 0
    run(["enumerate", "--n", "6", "--method", "generate"])
    out2 = capsys.readouterr().out
    key = lambda doc: [(c["canonical_code"], c["leaf_count"]) for c in doc["classes"]]
    assert key(json.loads(out1)) == key(json.loads(out2))


def test_enumerate_csv(capsys):
    rc = run(["enumerate", "--n", "5", "--format", "csv"])
    assert rc == 0
    rows = lines_of(capsys)
    assert rows[0] == "canonical_code,prufer,leaf_count"
    assert len(rows) == 4


# ------------------------------------------------------------- errors


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_argument(capsys):
    assert run(["verify", "--n", "6"]) == 1


def test_conflicting_tree_inputs(capsys):
    assert run(["spectrum", "--prufer", "1,2", "--edges", "x.txt"]) == 1


def test_bad_prufer_symbol(capsys):
    assert run(["spectrum", "--prufer", "5,5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_edge_file(capsys):
    assert run(["spectrum", "--edges", "/nonexistent/tree.txt"]) == 1


def test_enumeration_out_of_supported_range(capsys):
    assert run(["enumerate", "--n", "99"]) == 1


def test_module_entry_point_runs_main():
    env = dict(os.environ, PYTHONPATH=str(Path(signedkn.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "signedkn.cli", "spectrum", "--prufer", "1,2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lambda1"] == 2.2360679774997902


def test_csv_rejected_for_spectrum(capsys):
    assert run(["spectrum", "--prufer", "1,2", "--format", "csv"]) == 1
