"""The BLAS key that keys the golden tables, as tests/conftest.py reads it.

The OpenBLAS core is picked once, when numpy loads OpenBLAS, and
OPENBLAS_CORETYPE overrides the pick; so each core is read in a fresh
process.
"""

import ast
import ctypes.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import test_bundle_golden
import test_ground_truth
import test_theory_golden
import test_trajectories
from conftest import openblas_core, openblas_functions, openblas_libraries, openblas_threads

TESTS = Path(__file__).resolve().parent


def _has_avx512():
    try:
        with open("/proc/cpuinfo", encoding="ascii") as fh:
            return "avx512f" in fh.read().split()
    except OSError:
        return False


def core_under(coretype):
    """The core that openblas_core reads in a fresh process under OPENBLAS_CORETYPE=coretype."""
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
    code = "import conftest; print(conftest.openblas_core())"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=TESTS, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout.strip()


# OPENBLAS_CORETYPE: the core OpenBLAS then reports (Zen runs the Haswell kernels)
FORCED = {"SkylakeX": "SkylakeX", "Haswell": "Haswell", "Zen": "Haswell", "Sandybridge": "Sandybridge"}


@pytest.mark.parametrize("coretype, core", sorted(FORCED.items()))
def test_reader_names_the_core_openblas_picked(coretype, core):
    if not openblas_libraries():
        pytest.skip("numpy bundles no OpenBLAS library")
    if core == "SkylakeX" and not _has_avx512():
        pytest.skip("the SkylakeX kernels need AVX-512")
    assert core_under(coretype) == core


def test_reader_says_unknown_without_the_symbol():
    libc = ctypes.util.find_library("c")
    if libc is None:
        pytest.skip("no C library to load")
    assert openblas_core([libc]) == "unknown"
    assert openblas_core([]) == "unknown"
    assert openblas_threads([libc]) is None


def test_tests_compute_on_one_blas_thread():
    # conftest sets it before any test runs: the benchmark's setting, under
    # which the golden b of its inputs were recorded.
    if not openblas_functions("scipy_openblas_set_num_threads64_"):
        pytest.skip("numpy's OpenBLAS exports no thread-count setter")
    assert openblas_threads() == 1


@pytest.mark.parametrize(
    "module",
    [test_trajectories, test_theory_golden, test_ground_truth, test_bundle_golden],
    ids=lambda module: module.__name__,
)
def test_every_golden_set_pins_the_same_cases(module):
    cases = [set(table) for table in module.GOLDEN.values()]
    assert len(cases) == 2 and cases[0] == cases[1]


def imports_pinned(path):
    """Whether the test module at path takes `pinned` from conftest: it holds a golden table."""
    return any(
        isinstance(node, ast.ImportFrom)
        and node.module == "conftest"
        and any(alias.name == "pinned" for alias in node.names)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )


def test_haswell_ci_step_runs_every_golden_module():
    # The CI step that reruns the golden files under the Haswell kernels
    # lists them by hand; a new golden module must be added to it.
    workflow = (TESTS.parent / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = workflow.split("- name: Golden tables under the Haswell kernels")[1].split("- name:")[0]
    assert "OPENBLAS_CORETYPE: Haswell" in step
    listed = set(re.findall(r"tests/(test_\w+)\.py", step))
    golden = {path.stem for path in TESTS.glob("test_*.py") if imports_pinned(path)}
    assert golden, "no test module imports pinned from conftest"
    assert listed == golden
