"""The benchmark's sweep workload still runs against this library.

perfbench/run.py drives ``rekbench bench`` through ``cli.main`` with the
argv of its sweep workload and reads each cell's final SolverState in
process.  Running its smoke size here makes a CLI change that breaks
that argv, or the state capture, fail the test suite.  The run happens
in a copy of perfbench/ and src/, so the checkout is only read.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sweep_smoke_run_passes(tmp_path):
    skip = shutil.ignore_patterns("work", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "sweep",
           "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"]  # fmt: skip
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
