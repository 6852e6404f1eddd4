import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedkn
from signedkn import canonical_code, parse_prufer, prufer_decode, spectra
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


@pytest.mark.parametrize("second", ["1 0", "0 1"])
def test_spectrum_rejects_a_repeated_edge(tmp_path, capsys, second):
    p = tmp_path / "tree.txt"
    p.write_text(f"3\n0 1\n{second}\n1 2\n")
    assert run(["spectrum", "--edges", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: repeated edge (0, 1) in '{second}'\n"


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


# sha256 of `climb --n n --k k --seed seed --format fmt` stdout on the
# benchmark's climb panel, recorded when every candidate was solved by
# Jacobi: deciding candidates by eigenvalue counts must not move a digit.
CLIMB_PANEL_STDOUT_SHA256 = {
    ((12, 4, 15), "json"): "01f3e3f326b311816551110322ce3dd9d53696c835b252666e3ae349f0c153e7",
    ((12, 4, 15), "csv"): "139d324af7a5ff510827337af4663dd29ebeff27bef035e3e749d7249a5dd6b8",
    ((12, 4, 15), "text"): "5ff67c2293e605e6d8f16933ef432c7e7d909c0bf295fb6b27b4750eb84ca3ee",
    ((12, 4, 44), "json"): "d17ce56d7bffeb848d9d6cbda2ad84e5d2e1b67dbcbd8f0f2ffd960055bc02cf",
    ((12, 4, 44), "csv"): "ebe4716fc821c92aca8c4e11371988d533a94ba22c912ee2f02bef58ec61a522",
    ((12, 4, 44), "text"): "fa8a4c7147182bf5eb6c231502a122af3f6e3be5ebc3b31b97367d90f58c151c",
    ((12, 4, 13), "json"): "0177daa05ffca0a58c5b628ad5125b524a777cfecb3297315dd07d9755d81a2a",
    ((12, 4, 13), "csv"): "f4d279a49d048751c5548d1b12f4eda239b05ca03653bb7472b12d6b773df6fd",
    ((12, 4, 13), "text"): "f7bdd0776c91dfaae30921ed3d96f30adbeb181131645bd91a7bf18b572d5f79",
    ((12, 6, 5), "json"): "37764b1b64c8a2144f4ac234477851de52d5d4f8cbc7da1daebab6fb08caac84",
    ((12, 6, 5), "csv"): "4c164aa2344d295c8de49112c32461aa797ee8f78a0be8e4704a85c73563bcbc",
    ((12, 6, 5), "text"): "203169c6244a24f10e656ea7bcf441cc9a2bdc02482fef78e63452e79118bb93",
    ((12, 6, 22), "json"): "9497f3cf2b3ad22672fabb6ac08e9d91c5915f02848b0129cde715ca1dad25ff",
    ((12, 6, 22), "csv"): "b6bfb13f711c53805781949c1d36fc127cb48e7ea7fad42034325c54403ec35b",
    ((12, 6, 22), "text"): "cb03e46242da219a59fec79556a0f5261bb22016bdf7e76ca30f16fa0775e241",
    ((12, 6, 34), "json"): "a42e67851dcc7d56896e140d62dfd04dd45bdfee743136eb3ea62628b7d5a5a9",
    ((12, 6, 34), "csv"): "e006c9ea619f0624e0461ad68494791af99ecaf6218ac83c1c6a0ca716aed471",
    ((12, 6, 34), "text"): "3e79abc7353a553c58942dcef18de5b54446876690287f218e169ac2bdb2258c",
    ((16, 5, 6), "json"): "463d88a32f2aaa4fa9fac393c0dcb5aef5d558fc85e154bda5d5448dfccd3d3d",
    ((16, 5, 6), "csv"): "57d278433e9d810d9574158f2f2ed43b591cb8e81ecec54a6fa3aa503abc4a18",
    ((16, 5, 6), "text"): "58dc5e402abff8722ba2d952b757e4bc36258ccba5d88a0eaadeed2e87d9d421",
}


@pytest.mark.parametrize(
    "n, k, seed, fmt", [(*start, fmt) for start, fmt in sorted(CLIMB_PANEL_STDOUT_SHA256)]
)
def test_climb_panel_stdout_golden(capsys, n, k, seed, fmt):
    argv = ["climb", "--n", str(n), "--k", str(k), "--seed", str(seed), "--format", fmt]
    assert run(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CLIMB_PANEL_STDOUT_SHA256[(n, k, seed), fmt]


def test_climb_panel_solves_start_accepted_and_final(capsys, monkeypatch):
    calls = []
    solve = spectra.eigen_decompose
    monkeypatch.setattr(spectra, "eigen_decompose", lambda m: calls.append(m.n) or solve(m))
    steps = 0
    for n, k, seed in sorted({start for start, _ in CLIMB_PANEL_STDOUT_SHA256}):
        assert run(["climb", "--n", str(n), "--k", str(k), "--seed", str(seed)]) == 0
        steps += json.loads(lines_of(capsys)[-1])["final"]["steps"]
    # 7 starts, 42 accepted moves, 7 final λ1: no candidate falls back to a solve
    assert steps == 42
    assert len(calls) == 7 + steps + 7


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


def test_the_one_edge_has_two_leaves(capsys):
    # enumerate --n 2 lists one class with leaf_count 2, so --k 2 finds it
    assert run(["enumerate", "--n", "2"]) == 0
    (one_edge,) = json.loads(capsys.readouterr().out)["classes"]
    assert one_edge["leaf_count"] == 2
    for method in ("generate", "prufer"):
        assert run(["enumerate", "--n", "2", "--k", "2", "--method", method]) == 0
        assert json.loads(capsys.readouterr().out)["classes"] == [one_edge]
    assert run(["verify", "--n", "2", "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matches_broom"] and doc["argmax_code"] == one_edge["canonical_code"]
    assert run(["climb", "--n", "2", "--k", "2", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["final"]["steps"] == 0
    assert run(["enumerate", "--n", "2", "--k", "3"]) == 1
    assert capsys.readouterr().err == "error: need 2 <= k <= n-1, got (n=2, k=3)\n"


def test_enumerate_prufer_method_agrees(capsys):
    # same classes in the same order, with or without --k; representatives
    # may be labeled differently per method, so compare codes rather than
    # prufer strings, and check that each prufer decodes to its class
    for n in range(3, 9):
        for k in [None, *range(2, n)]:
            docs = []
            for method in ("prufer", "generate"):
                argv = ["enumerate", "--n", str(n), "--method", method]
                assert run(argv + ([] if k is None else ["--k", str(k)])) == 0
                docs.append(json.loads(capsys.readouterr().out))
            rows = [
                [(c["canonical_code"], c["leaf_count"]) for c in doc["classes"]]
                for doc in docs
            ]
            assert rows[0] == rows[1] and rows[0], (n, k)
            assert docs[0]["count"] == docs[1]["count"] == len(rows[0])
            assert k is None or all(count == k for _, count in rows[0])
            for doc in docs:
                for c in doc["classes"]:
                    t = prufer_decode(parse_prufer(c["prufer"]))
                    assert canonical_code(t) == c["canonical_code"]


def test_enumerate_csv(capsys):
    rc = run(["enumerate", "--n", "5", "--format", "csv"])
    assert rc == 0
    rows = lines_of(capsys)
    assert rows[0] == "canonical_code,prufer,leaf_count"
    assert len(rows) == 4


# sha256 of stdout for each call and format, recorded while every handler
# still wrote its own output: handlers that return their text to one writer
# in `run` must not move a byte.
STDOUT_SHA256 = {
    ("verify", "--n", "8", "--k", "4"): {
        "json": "85b21e54c0de709885f9430b936256aeb91e1a286ed76dfdfbffa7ea277275cb",
        "csv": "e0dc2d1368daee415cc445b1c9396cbaaabba7be62786797fa6656ddad2087d8",
        "text": "bd72683b4de90c351c4dfd8e86ef243abc73e2f05facd82087deca19cbebb32a",
    },
    ("verify", "--n", "3", "--k", "2"): {
        "json": "bc8db0d2e86bda9a32c9fe4853a41af1e132b645df260bfc36949362c1258912",
        "csv": "199f7d80b0ef61ba186ac13a0f6d18dd32d070e4e1f956743969812457b25805",
        "text": "002d1797af7ccb0da6e8d2671f15c2b0a7df315e8834e6821f010290dc585ef7",
    },
    ("sweep", "--n-min", "6", "--n-max", "9"): {
        "json": "c1c36cf0eb45f0a1ae8155bc349b41cda1a865d62ad0a9c8520a4f4fdedd69a0",
        "csv": "a6aea484a0ce9eec2a93fbe9a8165d41597082c828b41083eadc254d82df90a1",
        "text": "e4685897fd7972d287ef27363355914b42a91fe6b8531f28aed41bf59a9829da",
    },
    ("sweep", "--n-min", "3", "--n-max", "5"): {
        "json": "1bfd84fb162d089fdbe5e0fe84ae2c5874e1d4b6d047c906be466ac1d9215f3e",
        "csv": "e03f6b3d0a516d92cdd5e567df7f3515ac9556316f71d730c2be6633b2a120de",
        "text": "f2f834a87a63c0f21407f29ac58a38b86a8a7070d1dfc2d5f2aae949567c6d55",
    },
    ("sweep", "--n-min", "5", "--n-max", "8", "--all-k"): {
        "json": "77c6924d17366920ea64568baa7722d3562ac38e391e1b39a52ede3ad1e8e4bf",
        "csv": "026f26eff7fecff9d80daa9eb32d9a1ea379a40b55fedcd6f6822617efdd45b1",
        "text": "d2b51782502ad062b71e2af7f5208388fb2cc1408c7e47454ad9b120ce61ab9c",
    },
    ("chain", "--n", "9"): {
        "json": "213201d3b4dbbcfd7a07f323604d0adfe4ba77e10ed1284c77067be29acb50c7",
        "csv": "d0b119427a457bd9893571b0f5fd5227bef60bb5248b1aff843af1c8f8b1490f",
        "text": "57768c0a36704a95afe53c406ce284842ace76a572db57fda238d8c8ceb8831e",
    },
    ("enumerate", "--n", "2"): {
        "json": "46713f5194e01579b4fbb6c35c7f770744df985d564e0332ae166e820df32f0d",
        "csv": "e70f9dc52d49aac3398dc6eb14e11b397e1cec20c81af2591416360f3700d1f5",
        "text": "68c2791ccfe2af2986ee03b2394d51211111a13bc96205d663952cdd31b045c5",
    },
    ("enumerate", "--n", "3"): {
        "json": "232c534db1385d1928690395bbd34b070b11b0d4758f51f84fa59d20068bfdf0",
        "csv": "a61715f5e6d2e67ab07e62357be08d0704faffa070ad82b1062a32c3f4c0d453",
        "text": "b5b60057f80d2bd5127043ea0ce5a26fa3e279778143466f0d50bb3ee56e65e1",
    },
    ("enumerate", "--n", "7", "--k", "3"): {
        "json": "7859951029479b42b09d833a507fa11c66f32ce97eb94c8fa17efe8486dff585",
        "csv": "d0224530b20ada9e0465e78d2cdbd29c29554faf8577854062ddd117b7342a23",
        "text": "d74d92a5491d816c5dea4f3ec6a0e5c3c6b9053f2d19ae88b0c822acef402686",
    },
    ("enumerate", "--n", "6", "--method", "prufer"): {
        "json": "ec8523398ce01061edf162d95eb94443e0be9159bae0bc9c4385f5117fa13be4",
        "csv": "4995d87540150e4df9db1892ab2deaef3a6e44fa9fa9b0222c580ecbd138562f",
        "text": "202076c82474433fb6ddffc6327e74bab8edbd349129ca6d3f56d701214446f4",
    },
    ("spectrum", "--prufer", "1,2"): {
        "json": "1b08125958a061f200274139eb2985958b0b84894f00a440a461b6ee61f4fcaa",
        "text": "4c9d5da5adf9d26a145228f7074af6390bcf6d310d524f6c469d79be63397660",
    },
    ("spectrum", "--prufer", ""): {
        "json": "f80dff778fd77d51817cffe4e1dbb28740e378d80c3754ee4e901706a59b63aa",
        "text": "94a1d169725a3d9364e26300776c3ce2fbaba5aa736dfd403726c9a47b8c0a13",
    },
    ("balance", "--prufer", "1,2"): {
        "json": "1892e98368f7f141fc29b6b6e2b39e9d639f42f947b4cf985e7e0a6821ff88e7",
        "text": "4238f3868abbccef31aeabfcef8d3134489a763366cd2ae55e69a6f5a77d0d01",
    },
    ("balance", "--prufer", ""): {
        "json": "a9080627fbb722e9fa1a7bc92ce2839f5d767523381f72bc02b1c280878ba0e1",
        "text": "fc1188af6b56cba0d3bdc92c02a16f7871dd199b388bf160f6aecab5f5e07314",
    },
}


def _call_id(call):
    return " ".join(call) if isinstance(call, tuple) else call


@pytest.mark.parametrize(
    "call, fmt",
    [(call, fmt) for call, digests in STDOUT_SHA256.items() for fmt in digests],
    ids=_call_id,
)
def test_stdout_golden(capsys, call, fmt):
    assert run([*call, "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STDOUT_SHA256[call][fmt]


@pytest.mark.parametrize("call", list(STDOUT_SHA256), ids=_call_id)
def test_out_file_gets_what_stdout_gets(tmp_path, capsys, call):
    dest = tmp_path / "out.txt"
    assert run(list(call)) == 0
    shown = capsys.readouterr().out
    assert run([*call, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text() == shown


# ------------------------------------------------------------- errors


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_argument(capsys):
    assert run(["verify", "--n", "6"]) == 1


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_returns_zero(capsys, argv):
    # argparse ends a --help call itself; run returns its status, not SystemExit
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("usage: signedkn")


def test_conflicting_tree_inputs(capsys):
    assert run(["spectrum", "--prufer", "1,2", "--edges", "x.txt"]) == 1


def test_bad_prufer_symbol(capsys):
    assert run(["spectrum", "--prufer", "5,5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_edge_file(capsys):
    assert run(["spectrum", "--edges", "/nonexistent/tree.txt"]) == 1


def test_edge_file_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "tree.txt"
    p.write_bytes(b"\xff\xfe3\x000\x001\x00")
    assert run(["spectrum", "--edges", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: edge list {p} is not UTF-8: ")


def test_edge_file_with_a_byte_order_mark(tmp_path, capsys):
    p = tmp_path / "tree.txt"
    p.write_text("4\n0 1\n1 2\n2 3\n", encoding="utf-8-sig")
    assert p.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run(["spectrum", "--edges", str(p)]) == 0
    from_edges = capsys.readouterr()
    assert run(["spectrum", "--prufer", "1,2"]) == 0
    assert from_edges == capsys.readouterr()


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


def test_verify_and_enumerate_never_import_networkx():
    env = dict(os.environ, PYTHONPATH=str(Path(signedkn.__file__).parent.parent))
    code = (
        "import sys\n"
        "from signedkn.cli import run\n"
        "assert run(['verify', '--n', '8', '--k', '3']) == 0\n"
        "assert run(['enumerate', '--n', '8']) == 0\n"
        "print('networkx' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stderr == "False\n"


def test_csv_rejected_for_spectrum(capsys):
    assert run(["spectrum", "--prufer", "1,2", "--format", "csv"]) == 1


def test_repeated_runs_leave_no_cyclic_garbage(capsys):
    # an argparse parser holds reference cycles, so one built per call
    # would leave garbage that only the cyclic collector frees
    argv = ["spectrum", "--prufer", "1,2"]
    assert run(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
