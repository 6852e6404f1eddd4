"""Runs one workload's passes in a process of its own and prints one JSON
object: the timings, peak memory and every CLI call's exit code and stdout.

The calls go through signedkn.cli.run(argv), the CLI's public entry point.
One toy-size pass warms up first.  Untraced passes then repeat until
--seconds of them have been measured, so a pass longer than --seconds
runs once.  With --trace 1 the run makes one untraced and one traced pass
instead, so that their difference is the tracing overhead.

Usage (from the repository root, with src on PYTHONPATH):
    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import resource
import sys
import time
import traceback

import checks
import tracer
from signedkn import cli
from workloads import WORKLOADS


class Recorder:
    """Calls the CLI and keeps each argv's stdout once, digests always."""

    def __init__(self):
        self.records: list[tuple] = []  # (argv, exit code, stdout or None, digest)
        self._seen: set[str] = set()

    def call(self, argv):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.run(argv)
        except Exception:  # noqa: BLE001 - a crash is a failed call, not a failed run
            traceback.print_exc()
            rc = None
        out = buf.getvalue()
        key = " ".join(argv)
        keep = key not in self._seen
        self._seen.add(key)
        self.records.append((argv, rc, out if keep else None, checks.digest(out)))
        return rc, out


def _timed_pass(workload, seed, rec: Recorder, toy=False):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    WORKLOADS[workload](rec.call, random.Random(seed), toy)
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _climb_steps(records, calls) -> int:
    """Accepted moves summed over the climb calls in calls, whose stdout is
    looked up by argv in records (a repeated call keeps only a digest)."""
    stdout = {" ".join(argv): out for argv, _, out, _ in records if out is not None}
    steps = 0
    for argv, _, _, _ in calls:
        if argv[0] == "climb":
            with contextlib.suppress(ValueError, KeyError, IndexError):
                steps += json.loads(stdout[" ".join(argv)].splitlines()[-1])["final"]["steps"]
    return steps


def run_workload(workload, seed, seconds, trace, toy=False) -> dict:
    """Warm up, run the passes and return timings, records and, when
    traced, the per-layer metrics as name -> (value, unit, samples)."""
    rec = Recorder()
    _timed_pass(workload, seed, rec, toy=True)
    walls, cpus, result = [], [], {}
    while True:
        wall, cpu = _timed_pass(workload, seed, rec, toy)
        walls.append(wall)
        cpus.append(cpu)
        if trace or sum(walls) >= seconds:
            break
    if trace:
        mark = len(rec.records)
        with tracer.Tracer() as tr:
            traced_wall, _ = _timed_pass(workload, seed, rec, toy)
        accepted = _climb_steps(rec.records, rec.records[mark:])
        layers = tracer.layer_metrics(tr.spans, accepted)
        layers["trace.overhead_s"] = (traced_wall - walls[0], "s", 1)
        result["layers"] = layers
    result.update(
        walls=walls,
        cpus=cpus,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        records=rec.records,
    )
    return result


def machine_facts() -> dict:
    import networkx
    import numpy

    try:
        from signedkn._accel import HAVE_NUMBA
    except ImportError:
        HAVE_NUMBA = None  # the package no longer has the numba shim
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "signedkn_have_numba": HAVE_NUMBA,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in env},
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result["machine"] = machine_facts()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
