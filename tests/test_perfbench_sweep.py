"""The benchmark's workloads still run against this library.

perfbench/run.py drives ``rekbench bench`` through ``cli.main`` with the
argv of its sweep workload and reads each cell's final SolverState in
process; dense-greedy and tomo-norm call ``solvers.solve`` directly, and
a traced run wraps the library's public functions by name.  Running their
smoke sizes here makes a change that breaks that argv, the state capture
or a traced name fail the test suite.  Each run happens in a copy of
perfbench/ and src/, so the checkout is only read.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, trace", [("sweep", "0"), ("dense-greedy", "1"), ("tomo-norm", "0")])
def test_smoke_run_passes(tmp_path, workload, trace):
    skip = shutil.ignore_patterns("work", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke"]  # fmt: skip
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace == "1":
        # The tracer's observer reads the size of build_index_set's result.
        metrics = result["metrics"]
        assert metrics["selection.build_index_set.calls"]["value"] > 0
        assert metrics["selection.index_set_size_mean"]["value"] >= 1
