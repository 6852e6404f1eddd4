"""The signedkn benchmark: one workload, timed, checked and reported.

Run from the repository root:
    python3 perfbench/run.py --workload sweep|prufer|climb --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics (wall_s, cpu_s,
peak_rss_mb, setup_s); with --trace 1 the per-layer metrics of one traced
pass and the tracing overhead.  Every CLI call's output is checked against
an independent reference (checks.py).  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# Set-up is timed 8 times before the worker and 8 times after it, so that
# one slow spell of the machine does not set the median; one untimed spawn
# first fills the bytecode caches.
SETUP_REPEATS = 8
SETUP_ARGV = ["spectrum", "--prufer", "1,2"]
SETUP_CODE = (
    "import signedkn\n"
    "from signedkn.cli import run\n"
    f"raise SystemExit(run({SETUP_ARGV!r}))\n"
)
# A run must end within 180 s; this leaves time for the set-up spawns after
# the worker and for the checks.
WORKER_DEADLINE_S = 160
STATE = Path(".perfbench_state")  # stdout digests of earlier runs


def code_fingerprint(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def measure_setup(env, ck: checks.Checker, repeats: int) -> list[float]:
    """Times fresh interpreter -> import signedkn -> one trivial CLI call."""
    times = []
    expected = checks.ref_lambda1(4, checks.prufer_edges(4, [1, 2]))
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, timeout=60
        )
        times.append(time.perf_counter() - t0)
        ok = proc.returncode == 0
        if ok:
            try:
                ok = abs(json.loads(proc.stdout)["lambda1"] - expected) <= checks.LAMBDA_TOL
            except (ValueError, KeyError, TypeError):
                ok = False
        ck.check(ok, f"set-up call {' '.join(SETUP_ARGV)} failed: {proc.stderr.strip()[-200:]}")
    return times


def load_digests(fingerprint: str) -> tuple[dict, dict]:
    path = STATE / "digests.json"
    try:
        state = json.loads(path.read_text())
    except (OSError, ValueError):
        state = {}
    return state, state.get(fingerprint, {})


def save_digests(state: dict, fingerprint: str, records) -> None:
    known = state.setdefault(fingerprint, {})
    for argv, _, _, digest in records:
        known.setdefault(" ".join(argv), digest)
    STATE.mkdir(exist_ok=True)
    tmp = STATE / f"digests.json.{os.getpid()}"
    tmp.write_text(json.dumps(state))
    os.replace(tmp, STATE / "digests.json")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.perf_counter()
    src = Path("src").resolve()
    if not (src / "signedkn" / "cli.py").is_file():
        print("error: run from the repository root; src/signedkn is missing", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    ck = checks.Checker()
    setup = []
    if not args.trace:
        measure_setup(env, ck, 1)
        setup += measure_setup(env, ck, SETUP_REPEATS)

    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(
        worker, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, WORKER_DEADLINE_S - (time.perf_counter() - start)),
    )
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout)
    if not args.trace:
        setup += measure_setup(env, ck, SETUP_REPEATS)
    records = [tuple(r) for r in res["records"]]

    fingerprint = code_fingerprint(src)
    state, known = load_digests(fingerprint)
    found = checks.check_records(records, known)
    save_digests(state, fingerprint, records)
    attempted = ck.attempted + found.attempted
    failed = ck.failed + found.failed
    for what in ck.failures + found.failures:
        print(f"check failed: {what}", file=sys.stderr)

    if args.trace:
        metrics = res["layers"]
    else:
        walls, cpus = res["walls"], res["cpus"]
        metrics = {
            "wall_s": (statistics.median(walls), "s", len(walls)),
            "cpu_s": (statistics.median(cpus), "s", len(cpus)),
            "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
            "setup_s": (statistics.median(setup), "s", len(setup)),
        }

    print("machine " + json.dumps(res["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"passes after a toy warm-up took {res['walls']} s")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value!r} {unit} (samples={n})")
    print(f"check_fail_ratio = {failed / attempted!r} ({failed} of {attempted} checks failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
