"""The benchmark tracer still finds every function it times.

perfbench/tracer.py wraps rekbench functions by name.  Loading it here and
installing a Tracer makes a rename or deletion of a traced name fail the
test suite, not only the benchmark run.
"""

import importlib.util
from pathlib import Path

import rekbench.solvers as solvers
import rekbench.updates as updates
from rekbench import SolverKind, StopConfig, gen_gaussian, make_inconsistent_problem, solve

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_times_and_uninstalls():
    tracer_mod = load_tracer()
    originals = (solvers.step, solvers.two_dim_row_coeffs, updates.pair_geometry_from)
    problem = make_inconsistent_problem(gen_gaussian(30, 8, 1), 1)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        solve(SolverKind.TGREK, problem, StopConfig(max_iters=20), seed=0)
    finally:
        tracer.uninstall()
    assert (solvers.step, solvers.two_dim_row_coeffs, updates.pair_geometry_from) == originals
    calls = {name: c for name, (c, _, _) in tracer.aggregates()[0].items()}
    assert calls["solvers.step"] == 20
    assert calls["updates.two_dim_row_coeffs"] > 0
    assert calls["updates.pair_geometry_from"] == calls["updates.two_dim_row_coeffs"]


HOT_LOOP = (
    "selection.build_index_set",
    "selection.top_two",
    "selection.simple_random_sample",
    "linalg.row_pair_dot",
    "linalg.col_pair_dot",
    "linalg.matvec",
    "updates.two_dim_row_coeffs",
)


def test_tracer_sees_the_hot_loop():
    # The per-layer timings read these calls; a step that bypassed them
    # would leave their layers at zero.
    tracer_mod = load_tracer()
    problem = make_inconsistent_problem(gen_gaussian(60, 15, 1), 1)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for kind in (SolverKind.GREK, SolverKind.TSREK, SolverKind.TSREKS):
            solve(kind, problem, StopConfig(max_iters=50, fraction=0.5), seed=0)
    finally:
        tracer.uninstall()
    calls = {name: c for name, (c, _, _) in tracer.aggregates()[0].items()}
    assert {name: calls[name] > 0 for name in HOT_LOOP} == dict.fromkeys(HOT_LOOP, True)
