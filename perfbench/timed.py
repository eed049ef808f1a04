"""Timed phase of one benchmark run, in a process of its own.

run.py starts this after set-up.  It runs rounds of the workload's cells
against the public API -- ``solvers.solve`` per cell, or one
``cli.main(["bench", ...])`` call for a bundle workload -- then checks every
cell of the first round and that later rounds repeat it exactly.  After each
untraced round it times another slice of set-up for run.py's median.  Peak
resident memory is this process's VmHWM after the first round, before any
set-up here, so no run of the SVD oracle sets it.  With --trace 1 it runs
one untraced round and one traced round.  The last stdout line is one JSON
object read back by run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rekbench import cli, problems, solvers  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    TOL,
    cells,
    check_cell,
    check_oracle,
    get_workload,
    load_inputs,
    state_digest,
    time_setup,
)


@dataclass
class CellRun:
    kind: str
    trial: int
    seed: int
    iters: int = 0
    converged: bool = False
    error: str | None = None
    state: object = None

    def fingerprint(self):
        digest = state_digest(self.state) if self.state is not None else None
        return (self.kind, self.trial, self.iters, self.converged, self.error, digest)


def peak_rss_mb():
    """High-water resident memory of this process, from /proc/self/status.

    Not ru_maxrss: exec folds the peak of the address space it replaces,
    which under vfork is the parent's, into that figure.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


@contextlib.contextmanager
def capture_states():
    """Keep the SolverState each solve() creates, keyed by (kind, seed).

    solve() returns no iterate, so its final x and z are read from the
    state it mutated in place.  This costs one Python call per cell.
    """
    original = vars(solvers.SolverState)["initial"]
    captured, lock = {}, threading.Lock()

    def initial(cls, kind, problem, seed=0):
        state = original.__func__(cls, kind, problem, seed)
        with lock:
            captured[(state.kind.value, int(seed))] = state
        return state

    solvers.SolverState.initial = classmethod(initial)
    try:
        yield captured
    finally:
        solvers.SolverState.initial = original


def solve_round(problem, cell_list, captured):
    """Solve every cell; the round time is the sum of the solve() calls."""
    captured.clear()
    total, runs = 0.0, []
    for kind, trial, seed in cell_list:
        config = solvers.StopConfig(tol=TOL)
        t0 = time.perf_counter()
        try:
            record = solvers.solve(kind, problem, config, seed)
        except Exception as exc:  # a failing cell is a status on its row
            total += time.perf_counter() - t0
            runs.append(CellRun(kind, trial, seed, error=f"{type(exc).__name__}: {exc}"))
            continue
        total += time.perf_counter() - t0
        state = captured.get((kind, seed))
        runs.append(CellRun(kind, trial, seed, record.iters, record.converged, state=state))
    return total, runs


def bench_round(w, seed, bundle, out_csv, cell_list, captured):
    """One ``rekbench bench`` call over every cell; the round time is the call."""
    captured.clear()
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_csv)
    argv = ["bench", "--methods", ",".join(w.kinds), "--problems", bundle,
            "--trials", str(w.trials), "--tol", str(TOL), "--seed", str(seed),
            "--jobs", str(w.jobs), "--out", out_csv]  # fmt: skip
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # every cell of the call gets this status
        code, error = None, f"{type(exc).__name__}: {exc}"
    total = time.perf_counter() - t0
    rows = {}
    if os.path.exists(out_csv):
        with open(out_csv, newline="", encoding="ascii") as fh:
            rows = {(r["method"], int(r["trial_seed"])): r for r in csv.DictReader(fh)}
    runs = []
    for kind, trial, cseed in cell_list:
        row = rows.get((kind, cseed))
        if row is None:
            runs.append(CellRun(kind, trial, cseed, error=error or f"no CSV row (bench exit {code})"))
        else:
            state = captured.get((kind, cseed))
            runs.append(CellRun(kind, trial, cseed, int(row["iters"]), row["converged"] == "True", state=state))
    return total, runs


def check_round(problem, runs):
    """Per-cell rows: the run's outcome and its check against the oracle."""
    A = problem.A.to_dense()
    rows = []
    for run in runs:
        rse = None
        if run.error is not None:
            status = run.error
        elif run.state is not None and run.state.k != run.iters:
            status = f"reported {run.iters} iterations, state holds {run.state.k}"
        else:
            status, rse = check_cell(problem, A, run.kind, run.state, run.converged)
        rows.append(dict(kind=run.kind, trial=run.trial, seed=run.seed, iters=run.iters,
                         converged=run.converged, rse=rse, status=status,
                         digest=run.fingerprint()[-1]))  # fmt: skip
    return rows, check_oracle(problem, A)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-slice", type=float, required=True,
                        help="seconds of set-up to time after each untraced round")  # fmt: skip
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    w = get_workload(args.workload, args.smoke)
    cell_list = cells(w, args.seed)
    if w.generator == "bundle":
        bundle = os.path.join(args.workdir, "bundle")
        out_csv = os.path.join(args.workdir, "bench.csv")

        def run_round(captured):
            return bench_round(w, args.seed, bundle, out_csv, cell_list, captured)

    else:
        problem = load_inputs(os.path.join(args.workdir, "inputs.npz"))

        def run_round(captured):
            return solve_round(problem, cell_list, captured)

    # Untraced: one round, then another while it and its set-up slice fit in
    # --seconds.  Each untraced round is followed by a slice of set-up
    # timing, so that set-up is sampled across the run; its bundle goes to
    # a directory of its own.  Traced: one untraced round, for the overhead,
    # then one traced round.
    round_s, fingerprints, first = [], [], None
    setup_s, setup_digests = [], set()
    setup_bundle = os.path.join(args.workdir, "bundle-setup")
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()

    def another_round():
        if tracer is not None:
            return len(round_s) < 2
        elapsed = time.perf_counter() - start
        return not round_s or elapsed + round_s[-1] + args.setup_slice <= args.seconds

    with capture_states() as captured:
        while another_round():
            traced = tracer is not None and len(round_s) == 1
            with tracer if traced else contextlib.nullcontext():
                seconds, runs = run_round(captured)
            round_s.append(seconds)
            fingerprints.append([run.fingerprint() for run in runs])
            if first is None:
                # Later rounds repeat the same work; their allocator reuse
                # would make the high-water mark depend on the round count.
                # The set-up slices come after this reading.
                first = runs
                peak_mb = peak_rss_mb()
            if tracer is None:
                times, digests, _ = time_setup(w, args.seed, setup_bundle, args.setup_slice)
                setup_s += times
                setup_digests |= digests

    if w.generator == "bundle":
        problem = problems.load_problem(bundle)
    rows, oracle_ok = check_round(problem, first)
    result = {
        "round_s": round_s,
        "iters": sum(run.iters for run in first),
        "rounds_identical": all(fp == fingerprints[0] for fp in fingerprints),
        "fingerprint": fingerprints[0],
        "oracle_ok": oracle_ok,
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
        "setup_digests": sorted(setup_digests),
        "cells": rows,
        "trace": None,
    }
    if tracer is not None:
        agg, counts = tracer.aggregates()
        result["trace"] = {
            "aggregates": agg,
            "counts": counts,
            "untraced_s": round_s[0],
            "traced_s": round_s[1],
            "main_thread_self_s": tracer.main_thread_self_ns() / 1e9,
        }
        tracer.write_spans(os.path.join(args.workdir, "spans-timed.npz"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
