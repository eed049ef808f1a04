"""rekbench benchmark: time to tolerance on the workloads of workloads.py.

Run from the repository root:

    python3 perfbench/run.py --workload dense-greedy --seed 1 --seconds 50 --trace 0

--trace 0 measures the end-to-end metrics.  --trace 1 is a separate run
that wraps the public functions of every module and reports per-layer
metrics instead.  --smoke runs the same workloads at tiny sizes.

Set-up (problem generation with its direct-solver oracle, and the bundle
write for sweep) is timed many times, here before the timed phase and in
the timed process after each round, and its median is reported.  The timed
phase runs in a child process (timed.py), so its peak resident memory is
its own.  Stdout prints the environment, one row per cell and every metric
with its unit; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  The same record, with the per-cell rows and
the spans of a traced run, is written under perfbench/work/.
"""

import os

# BLAS runs on one thread, pinned before numpy loads: with the default two
# threads dense-greedy spread twice as much from run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed in slices of this many seconds: one here before the timed
# phase, and one after each of its rounds.  Host speed drifts within a run,
# so the median of set-up times spread over the run is steadier than that
# of one block.
SETUP_SLICE_S = 1.0
DEADLINE_S = 170  # every run ends within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "iters": "count",
    "us_per_iter": "us",
    "pass_frac": "fraction",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes of the same workloads")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment(w, args, n_cells, rounds, setup_reps):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_revision": _git_revision(),
        "workload": w.name,
        "seed": args.seed,
        "cells": n_cells,
        "rounds": rounds,
        "setup_reps": setup_reps,
        "smoke": args.smoke,
    }


def _cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_revision():
    """HEAD of the checkout, read from .git; 'unknown' outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def matches_earlier_run(w, args, fingerprint):
    """Compare the cell fingerprints with an earlier run of the same seed.

    Runs whose first round takes longer than --seconds make one round, so
    determinism is also checked across runs: the first run of a seed on a
    given source tree leaves its fingerprints under perfbench/work/, and
    later runs, traced or not, must match them.  None: no earlier run.
    """
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "rekbench").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.read_bytes())
    name = f"{w.name}{'-smoke' if args.smoke else ''}-s{args.seed}-{h.hexdigest()[:16]}.json"
    path = HERE / "work" / "fingerprints" / name
    if path.exists():
        return json.loads(path.read_text()) == fingerprint
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fingerprint))
    return None


def next_seed_other_inputs(w, seed, workdir, digests):
    """Whether seed + 1 gives inputs other than those of this seed."""
    from workloads import build_inputs, input_digest

    other_bundle = workdir / "bundle-next-seed"
    other = input_digest(build_inputs(w, seed + 1, str(other_bundle)))
    shutil.rmtree(other_bundle, ignore_errors=True)
    return other not in digests


def main(argv=None):
    started = time.perf_counter()
    if not (ROOT / "src" / "rekbench" / "__init__.py").is_file():
        print(f"error: rekbench sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = _parse_args(argv)

    from tracer import Tracer, per_layer_metrics
    from workloads import get_workload, save_inputs, time_setup

    w = get_workload(args.workload, args.smoke)
    workdir = HERE / "work" / f"{w.name}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    tracer = Tracer() if args.trace else None
    slice_s = 0.0 if args.smoke else SETUP_SLICE_S
    setup_times, digests, inputs = time_setup(w, args.seed, str(workdir / "bundle"), slice_s, tracer)
    if tracer is not None:
        tracer.write_spans(workdir / "spans-setup.npz")
    if not isinstance(inputs, str):
        save_inputs(inputs, workdir / "inputs.npz")
    del inputs

    cmd = [sys.executable, str(HERE / "timed.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--setup-slice", str(slice_s)]  # fmt: skip
    if args.smoke:
        cmd.append("--smoke")
    timeout = max(10.0, DEADLINE_S - (time.perf_counter() - started))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: timed phase exited with {proc.returncode}", file=sys.stderr)
        return 3
    timed = json.loads(proc.stdout.strip().splitlines()[-1])
    (workdir / "inputs.npz").unlink(missing_ok=True)
    (workdir / "bench.csv").unlink(missing_ok=True)
    setup_times += timed["setup_s"]
    digests.update(timed["setup_digests"])
    setup_s = statistics.median(setup_times)
    shutil.rmtree(workdir / "bundle", ignore_errors=True)
    shutil.rmtree(workdir / "bundle-setup", ignore_errors=True)

    rows = timed["cells"]
    attempted = len(rows)
    failed = sum(row["status"] != "ok" for row in rows)
    checks = {
        "cells_ok": failed == 0,
        "oracle_ok": timed["oracle_ok"],
        "rounds_identical": timed["rounds_identical"],
        "matches_earlier_run": matches_earlier_run(w, args, timed["fingerprint"]),
        "same_seed_same_inputs": len(digests) == 1,
        "next_seed_other_inputs": next_seed_other_inputs(w, args.seed, workdir, digests),
    }
    correct = all(v is not False for v in checks.values())

    if args.trace:
        trace = timed["trace"]
        setup_agg, _ = tracer.aggregates()
        metrics = per_layer_metrics(
            setup_agg,
            trace["aggregates"],
            trace["counts"],
            trace["traced_s"],
            trace["untraced_s"],
            trace["main_thread_self_s"],
            w.jobs,
        )
    else:
        solve_s = statistics.median(timed["round_s"])
        values = {
            "setup_s": setup_s,
            "solve_s": solve_s,
            "iters": timed["iters"],
            "us_per_iter": solve_s / max(timed["iters"], 1) * 1e6,
            "pass_frac": (attempted - failed) / attempted,
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    env = environment(w, args, attempted, len(timed["round_s"]), len(setup_times))
    print("env " + json.dumps(env))
    for row in rows:
        rse = "-" if row["rse"] is None else f"{row['rse']:.3g}"
        print(f"cell {row['kind']:<8} trial {row['trial']} seed {row['seed']:>10}  iters {row['iters']:>6}"
              f"  converged {row['converged']!s:<5}  rse {rse:<9}  {row['status']}")  # fmt: skip
    print("checks " + json.dumps(checks))
    if not args.trace:
        print(f"round_s {' '.join(f'{s:.4f}' for s in timed['round_s'])}")
        print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4g} (cells failed / cells attempted)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"env": env, "checks": checks, "round_s": timed["round_s"], "setup_times": setup_times,
              "cells": rows, **result}  # fmt: skip
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
