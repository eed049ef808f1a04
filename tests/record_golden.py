"""Print the golden tables of the BLAS key this process runs under.

    PYTHONPATH=src python tests/record_golden.py
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/record_golden.py

Each golden module's table is printed in that module's own layout, one
entry a line, each value computed by the function the module's assert
reads; the printed tables replace the recorded ones when a change moves a
value on purpose.  Nothing is written, and pytest does not collect this
file (its name does not start with test_).
"""

import json

import test_bundle_golden
import test_ground_truth
import test_theory_golden
import test_trajectories
from conftest import BLAS_KEY

from rekbench.solvers import SolverKind


def literal(value):
    """value as the golden tables write it: strings double-quoted, tuples in parentheses."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(literal, value)) + ")"
    return json.dumps(value) if isinstance(value, str) else repr(value)


def tables():
    """(module, {case: value}) of each golden table, its cases in the module's order."""
    yield test_trajectories, {
        (name, kind.value): test_trajectories.run_case(name, kind)
        for name in test_trajectories.PROBLEMS
        for kind in SolverKind
    }
    yield test_theory_golden, {
        (bundle, command): test_theory_golden.theory_output(bundle, command)
        for command in test_theory_golden.COMMANDS
        for bundle in test_theory_golden.BUNDLES
    }
    yield test_ground_truth, {
        name: test_ground_truth.b_digest(make()) for name, make in test_ground_truth.PLANTED.items()
    }
    numeric = test_bundle_golden.NUMERIC
    yield test_bundle_golden, {
        (bundle, name): digest
        for bundle in test_bundle_golden.BUNDLES
        for name, digest in test_bundle_golden.bundle_digests(bundle).items()
        if name in numeric
    }


def main():
    print(f"# (numpy, scipy-openblas, OpenBLAS core) = {BLAS_KEY}")
    for module, table in tables():
        print(f"\n# {module.__name__}.py")
        print("{")
        for case, value in table.items():
            print(f"    {literal(case)}: {literal(value)},")
        print("}")


if __name__ == "__main__":
    main()
