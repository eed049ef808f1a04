"""Benchmark command-line front end.

Subcommands: gen (problem bundles), solve (one run, JSON row), bench
(method x problem x trial sweep, CSV + summary), verify (bound checks,
JSON report), constants (matrix constants + rates, JSON).

Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3
non-convergence (solve --strict, a bench cell that did not converge or
raised, a failed verify check).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import statistics
import sys
from dataclasses import asdict

import numpy as np

from . import rng as rngmod
from .linalg import OracleTooLargeError
from .problems import (
    MatrixMarketError,
    gen_gaussian,
    gen_parallel_beam,
    load_problem,
    make_consistent_problem,
    make_inconsistent_problem,
    read_matrix_market,
    save_problem,
)
from .solvers import SAMPLING_KINDS, SolverKind, StopConfig, solve
from .theory import compute_constants, empirical_contraction, rates_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NOT_CONVERGED = 3

# The bench settings, each a flag and a --config key of its name (the key
# overrides the flag): (type, whether the key may be null, flag default, flag
# help).  The StopConfig fields are also solve's flags; both commands leave
# them unset unless given, so StopConfig supplies every default.
_CONFIG_KEYS = {
    "methods": (list, False, None, "comma-separated kinds"),
    "problems": (list, False, None, "comma-separated bundle dirs"),
    "trials": (int, False, 5, None),
    "seed": (int, False, 0, None),
    "summary_out": (str, True, None, None),
    "tol": (float, False, None, None),
    "check_every": (int, True, None, None),
    "max_iters": (int, True, None, None),
    "fraction": (float, False, None, None),
}
_STOP_KEYS = tuple(StopConfig.__dataclass_fields__)
_NOUNS = {int: "an integer", float: "a number", str: "a string", list: "a list of strings"}

# The result columns of a run, each read from its RunRecord.  solve prints
# them and bench writes them after the cell's columns; a bench cell whose
# solve raised leaves them empty.  The summary averages the _MEANS columns.
_RESULTS = {
    "iters": lambda record: record.iters,
    "wall_time_ms": lambda record: record.wall_time * 1000.0,
    "cpu_time_ms": lambda record: record.cpu_time * 1000.0,
    "rse": lambda record: record.final_rse,
    "primary_residual": lambda record: record.final_primary_residual,
    "dual_residual": lambda record: record.final_dual_residual,
    "converged": lambda record: record.converged,
}
_MEANS = ("iters", "wall_time_ms", "cpu_time_ms", "rse")


def _build_parser():
    parser = argparse.ArgumentParser(prog="rekbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem bundle")
    gen.set_defaults(handler=_cmd_gen)
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    gg = gen_sub.add_parser("gaussian")
    gg.add_argument("--m", type=int, required=True)
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--seed", type=int, required=True)
    gg.add_argument("--inconsistent", action="store_true")
    gg.add_argument("--out", required=True)
    gt = gen_sub.add_parser("tomo")
    gt.add_argument("--side", type=int, required=True)
    gt.add_argument("--angles", type=int, required=True)
    gt.add_argument("--detectors", type=int, required=True)
    gt.add_argument("--seed", type=int, required=True)
    gt.add_argument("--out", required=True)
    gm = gen_sub.add_parser("from-mtx")
    gm.add_argument("--path", required=True)
    gm.add_argument("--seed", type=int, required=True)
    gm.add_argument("--out", required=True)

    sv = sub.add_parser("solve", help="run one method on one problem")
    sv.set_defaults(handler=_cmd_solve)
    sv.add_argument("--method", required=True)
    sv.add_argument("--problem", required=True)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--history", default=None)
    sv.add_argument("--strict", action="store_true")

    bn = sub.add_parser("bench", help="method x problem x trial sweep")
    bn.set_defaults(handler=_cmd_bench)
    bn.add_argument("--config", default=None, help="JSON object; a key overrides its flag")
    bn.add_argument("--jobs", type=int, default=1, help="ignored; bench runs cells in order")
    bn.add_argument("--out", required=True)
    for command, keys in ((sv, _STOP_KEYS), (bn, _CONFIG_KEYS)):
        for key in keys:
            kind, _, default, text = _CONFIG_KEYS[key]
            flag, flag_type = "--" + key.replace("_", "-"), _names if kind is list else kind
            command.add_argument(flag, type=flag_type, default=default, help=text)

    vf = sub.add_parser("verify", help="bound-verification report")
    vf.set_defaults(handler=_cmd_verify)
    vf.add_argument("--problem", required=True)
    vf.add_argument("--trials", type=int, default=200)
    vf.add_argument("--steps", type=int, default=20)
    vf.add_argument("--seed", type=int, default=0)

    ct = sub.add_parser("constants", help="matrix constants and rates")
    ct.set_defaults(handler=_cmd_constants)
    ct.add_argument("--matrix", default=None, help=".mtx file")
    ct.add_argument("--problem", default=None, help="problem bundle dir")
    return parser


def _names(text):
    return text.split(",")


def _print_json(payload, indent=None):
    """Print payload as standard JSON: each non-finite float (NaN, Infinity) becomes null."""
    print(json.dumps(json.loads(json.dumps(payload), parse_constant=lambda _: None), indent=indent))


def _load(path):
    try:
        return load_problem(path)
    except (OSError, MatrixMarketError, ValueError) as exc:
        raise _IoFailure(str(exc)) from exc


class _IoFailure(Exception):
    pass


@contextlib.contextmanager
def _outputs(*paths):
    """Each output path (None: none) opened before the work; removed if that or the work fails."""
    with contextlib.ExitStack() as remove, contextlib.ExitStack() as close:
        files = []
        for path in paths:
            fh = path and close.enter_context(open(path, "w", newline="", encoding="ascii"))
            files.append(fh)
            if fh:
                remove.callback(os.remove, path)
        yield files
        remove.pop_all()


def _cmd_gen(args):
    if args.generator == "gaussian":
        A = gen_gaussian(args.m, args.n, args.seed)
        make = make_inconsistent_problem if args.inconsistent else make_consistent_problem
        problem = make(A, args.seed)
    elif args.generator == "tomo":
        problem = gen_parallel_beam(args.side, args.angles, args.detectors, args.seed)
    else:
        A = read_matrix_market(args.path)
        problem = make_inconsistent_problem(A, args.seed)
    save_problem(problem, args.out)
    _print_json({"out": args.out, "label": problem.label, "m": problem.A.rows, "n": problem.A.cols})
    return EXIT_OK


def _result_row(kind, problem, seed, record=None):
    """The cell's columns, then each result column of its record (None without one)."""
    m, n = problem.A.shape
    cell = {"method": kind.value, "problem": problem.label, "m": m, "n": n, "trial_seed": seed}
    return cell | {key: None if record is None else read(record) for key, read in _RESULTS.items()}


def _cell_row(kind, problem, config, seed):
    """The bench row of one cell, with its status last: ok, not converged or the error it raised.

    A cell whose solve raises leaves its results empty, and the sweep goes on.
    """
    try:
        record = solve(kind, problem, config, seed)
    except Exception as exc:  # any failure of one cell is that cell's status
        return {**_result_row(kind, problem, seed), "status": f"error: {type(exc).__name__}: {exc}"}
    status = "ok" if record.converged else "not converged"
    return {**_result_row(kind, problem, seed, record), "status": status}


def _parse_kind(name):
    try:
        return SolverKind(name)
    except ValueError:
        raise ValueError(f"unknown method {name!r}") from None


def _at_least_one(name, value):
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _once(noun, names):
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{noun} {name!r} is given more than once")


def _stop_config(args):
    """The StopConfig of the stop settings given; StopConfig supplies the rest."""
    given = vars(args)
    return StopConfig(**{key: given[key] for key in _STOP_KEYS if given[key] is not None})


def _cmd_solve(args):
    kind = _parse_kind(args.method)
    problem = _load(args.problem)
    if args.fraction is not None and kind not in SAMPLING_KINDS:
        print(f"warning: --fraction ignored for {kind.value}", file=sys.stderr)
        args.fraction = None
    with _outputs(args.history) as (history,):
        record = solve(kind, problem, _stop_config(args), args.seed)
        if history:
            writer = csv.writer(history)
            writer.writerow(["step", "primary_residual", "dual_residual", "rse"])
            writer.writerows(record.history)
    _print_json(_result_row(kind, problem, args.seed, record))
    return EXIT_NOT_CONVERGED if args.strict and not record.converged else EXIT_OK


def _apply_config(path, args):
    """Override args with each setting of the bench config file at path."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _IoFailure(str(exc)) from exc
    if not isinstance(spec, dict):
        raise ValueError("bench config must be a JSON object")
    unknown = sorted(set(spec) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {json.dumps(unknown)}")
    for key, value in spec.items():
        kind, nullable = _CONFIG_KEYS[key][:2]
        if value is None:
            ok = nullable
        elif kind is list:
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        else:
            number = (int, float) if kind is float else kind
            ok = isinstance(value, number) and not isinstance(value, bool)
        if not ok:
            noun = _NOUNS[kind] + (" or null" if nullable else "")
            raise ValueError(f"config {key} must be {noun}, got {json.dumps(value)}")
        setattr(args, key, float(value) if kind is float else value)


def _cmd_bench(args):
    if args.config:
        _apply_config(args.config, args)
    if not args.methods or not args.problems:
        raise ValueError("bench needs --methods and --problems (or a config file)")
    kinds = [_parse_kind(name.strip()) for name in args.methods]
    _once("method", [kind.value for kind in kinds])
    _at_least_one("trials", args.trials)
    if args.summary_out and os.path.realpath(args.summary_out) == os.path.realpath(args.out):
        raise ValueError("--out and --summary-out name the same file")
    config = _stop_config(args)
    if args.jobs != 1:
        print("warning: --jobs ignored; bench runs cells in order", file=sys.stderr)
    loaded = [_load(path.strip()) for path in args.problems]
    # The rows of a problem are grouped and sorted by its label.
    _once("problem label", [problem.label for problem in loaded])

    with _outputs(args.out, args.summary_out) as (out, summary):
        rows = []
        for kind in kinds:
            for pidx, problem in enumerate(loaded):
                for trial in range(args.trials):
                    seed = rngmod.cell_seed(args.seed, kind.value, pidx, trial)
                    rows.append(_cell_row(kind, problem, config, seed))
        rows.sort(key=lambda r: (r["method"], r["problem"], r["trial_seed"]))
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        if summary:
            groups = {}
            for row in rows:
                groups.setdefault((row["method"], row["problem"]), []).append(row)
            writer = csv.writer(summary)
            writer.writerow(["method", "problem", *("mean_" + key for key in _MEANS)])
            for (method, label), cell_rows in sorted(groups.items()):
                # Each mean is over the cells with a value; an error row has none.
                values = ([r[key] for r in cell_rows if r[key] is not None] for key in _MEANS)
                writer.writerow([method, label, *(statistics.mean(v) if v else "" for v in values)])
    return EXIT_OK if all(row["converged"] for row in rows) else EXIT_NOT_CONVERGED


def _constants_payload(A):
    """(rates, JSON payload) of A's constants."""
    consts = compute_constants(A)
    rates = rates_all(consts)
    payload = {
        "constants": {k: v for k, v in asdict(consts).items() if k != "frob_sq"},
        "rates": {k: v for k, v in asdict(rates).items() if k not in ("raw", "vacuous")},
        "vacuous": list(rates.vacuous),
        "frob_sq": consts.frob_sq,
    }
    return rates, payload


def _cmd_constants(args):
    if bool(args.matrix) == bool(args.problem):
        raise ValueError("constants needs exactly one of --matrix / --problem")
    A = read_matrix_market(args.matrix) if args.matrix else _load(args.problem).A
    _print_json(_constants_payload(A)[1], indent=2)
    return EXIT_OK


def _within(means, errs, bound):
    """Whether each mean ratio (NaN: left out) is at most bound + 3 stderr + 1e-12."""
    return bool(np.all((means <= bound + 3 * errs + 1e-12) | np.isnan(means)))


def _cmd_verify(args):
    _at_least_one("trials", args.trials)
    _at_least_one("steps", args.steps)
    problem = _load(args.problem)
    rates, payload = _constants_payload(problem.A)
    report = {"problem": problem.label, **payload}
    checks = {}
    # Unclamped, as this check has always read it: rates.thm1_beta clamps
    # a vacuous (negative) bound to 0.
    thm1 = rates.raw["thm1_beta"]
    means, errs = empirical_contraction(
        SolverKind.GPROJ, problem, args.trials, args.steps, args.seed
    )
    checks["thm1_gproj"] = {
        "bound": thm1,
        "mean_ratios": means.tolist(),
        "stderrs": errs.tolist(),
        "pass": _within(means, errs, thm1),
    }
    thm3 = rates.thm3_beta_hat
    means3, errs3 = empirical_contraction(SolverKind.SPROJ, problem, 1, args.steps, args.seed)
    ok3 = _within(means3, errs3, thm3)
    checks["thm3_sproj"] = {"bound": thm3, "ratios": means3.tolist(), "pass": ok3}
    # A vacuous (negative) rate bounds nothing: its check is reported
    # but cannot fail the report.
    for name, rate in (("thm1_gproj", "thm1_beta"), ("thm3_sproj", "thm3_beta_hat")):
        if rate in rates.vacuous:
            checks[name]["vacuous"] = True
    report["checks"] = checks
    report["pass"] = all(c["pass"] or c.get("vacuous", False) for c in checks.values())
    _print_json(report, indent=2)
    return EXIT_OK if report["pass"] else EXIT_NOT_CONVERGED


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except (_IoFailure, OracleTooLargeError, MatrixMarketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # After the I/O clause: the size-cap and parse errors are ValueErrors
        # too, and exit 2.  Any other ValueError is a bad argument or setting.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
