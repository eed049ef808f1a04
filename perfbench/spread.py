"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workloads dense-greedy,sweep --seeds 1-10 [--out FILE]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, beside the
metric's bound from BENCHMARK.json.  Runs are sequential; --out writes every
run and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]  # fmt: skip
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "failed": result["failed"], "attempted": result["attempted"],
                         "rounds": env.get("rounds"), "metrics": values})  # fmt: skip
            print(f"{workload} seed {seed}: {wall:.1f} s, correct {result['correct']}, "
                  + ", ".join(f"{k} {v:.5g}" for k, v in values.items()), flush=True)  # fmt: skip
        summary = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else float("inf")
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            print(f"  {workload:<13} {name:<12} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:.4f} (bound {bound}) {flag}")  # fmt: skip
        report["workloads"][workload] = {"runs": runs, "summary": summary, "env": env}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
