"""The repository's pytest settings report a failing property test as a failure.

pyproject.toml turns every warning into an error.  When a @given test fails,
Hypothesis's pytest plugin imports libcst to write a patch for the falsifying
example; libcst 1.0.1 imports mypy_extensions.TypedDict, which warns as
deprecated from mypy_extensions 1.1.0.  Unfiltered, that warning aborts the
run with INTERNALERROR, before the other tests and the falsifying example.
Where libcst is not installed nothing warns, and this test passes either way.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CASES = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property(x):
    assert x < 5


def test_passes():
    pass


def test_fails():
    assert False
"""


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_cases.py").write_text(CASES, encoding="utf-8")
    cmd = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_cases.py"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "2 failed, 1 passed" in out
    assert "x=5" in out
