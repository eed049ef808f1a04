"""Golden final states: the bits of x and z, after steps and after solve.

tests/test_trajectories.py holds one GOLDEN row per (problem, kind) and
asserts its picks, iters and history; this asserts the row's last two
values, the digests of x and z after PICKS step calls and after solve, so a
change to the step arithmetic that keeps the picks but moves a rounding
shows here.  Both read the same cached run_case, so each case runs once.
The wide and tomo digests were recorded again with the rest of their rows,
when every generator began to project its residual draw off range(A) once,
and the tall and tomo digests when a tall full-rank A began to project it
through A^T A, not the SVD.
"""

import pytest
from conftest import pinned
from test_trajectories import GOLDEN, PROBLEMS, run_case

from rekbench.solvers import SolverKind


@pytest.mark.parametrize("kind", list(SolverKind))
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_golden_final_state(name, kind):
    expected = pinned(GOLDEN)[name, kind.value]
    assert run_case(name, kind)[3:] == expected[3:]
