"""Benchmark command-line front end.

Subcommands: gen (problem bundles), solve (one run, JSON row), bench
(method x problem x trial sweep, CSV + summary), verify (bound checks,
JSON report), constants (matrix constants + rates, JSON).

Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3
non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys

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
from .theory import (
    ConstantsTooLargeError,
    compute_constants,
    empirical_contraction,
    rates_all,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NOT_CONVERGED = 3

# The keys of a bench --config file: (type, whether null is allowed).  Each
# key overrides the flag of its name.  The first four are StopConfig fields,
# which solve and bench leave unset unless given, so StopConfig supplies
# every default.
_CONFIG_KEYS = {
    "tol": (float, False),
    "check_every": (int, True),
    "max_iters": (int, True),
    "fraction": (float, False),
    "methods": (list, False),
    "problems": (list, False),
    "trials": (int, False),
    "seed": (int, False),
    "summary_out": (str, True),
}
_STOP_KEYS = ("tol", "check_every", "max_iters", "fraction")
_NOUNS = {int: "an integer", float: "a number", str: "a string", list: "a list of strings"}


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
    bn.add_argument("--methods", type=_names, help="comma-separated kinds")
    bn.add_argument("--problems", type=_names, help="comma-separated bundle dirs")
    bn.add_argument("--trials", type=int, default=5)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--jobs", type=int, default=1, help="ignored; bench runs cells in order")
    bn.add_argument("--out", required=True)
    bn.add_argument("--summary-out", default=None)
    for command in (sv, bn):
        for key in _STOP_KEYS:
            command.add_argument("--" + key.replace("_", "-"), type=_CONFIG_KEYS[key][0])

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
    ct.add_argument("--sample", type=int, default=None, help="approximate pairwise scan size")
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


def _result_row(record, problem):
    m, n = problem.A.shape
    return {
        "method": record.kind.value,
        "problem": problem.label,
        "m": m,
        "n": n,
        "trial_seed": record.seed,
        "iters": record.iters,
        "wall_time_ms": record.wall_time * 1000.0,
        "rse": record.final_rse,
        "primary_residual": record.final_primary_residual,
        "dual_residual": record.final_dual_residual,
        "converged": record.converged,
    }


def _parse_kind(name):
    try:
        return SolverKind(name)
    except ValueError:
        raise ValueError(f"unknown method {name!r}") from None


def _at_least_one(name, value):
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


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
    record = solve(kind, problem, _stop_config(args), args.seed)
    if args.history is not None:
        with open(args.history, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "primary_residual", "dual_residual", "rse"])
            for row in record.history:
                writer.writerow(row)
    _print_json(_result_row(record, problem))
    if args.strict and not record.converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


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
        kind, nullable = _CONFIG_KEYS[key]
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
    _at_least_one("trials", args.trials)
    config = _stop_config(args)
    if args.jobs != 1:
        print("warning: --jobs ignored; bench runs cells in order", file=sys.stderr)
    loaded = [_load(path.strip()) for path in args.problems]

    rows = []
    for kind in kinds:
        for pidx, problem in enumerate(loaded):
            for trial in range(args.trials):
                seed = rngmod.cell_seed(args.seed, kind.value, pidx, trial)
                record = solve(kind, problem, config, seed)
                rows.append(_result_row(record, problem))
    rows.sort(key=lambda r: (r["method"], r["problem"], r["trial_seed"]))

    fieldnames = list(rows[0].keys())
    with open(args.out, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)

    if args.summary_out:
        groups = {}
        for row in rows:
            groups.setdefault((row["method"], row["problem"]), []).append(row)
        with open(args.summary_out, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "problem", "mean_iters", "mean_wall_time_ms", "mean_rse"])
            for (method, label), cell_rows in sorted(groups.items()):
                rses = [r["rse"] for r in cell_rows if r["rse"] is not None]
                writer.writerow(
                    [
                        method,
                        label,
                        statistics.mean(r["iters"] for r in cell_rows),
                        statistics.mean(r["wall_time_ms"] for r in cell_rows),
                        statistics.mean(rses) if rses else "",
                    ]
                )
    if not all(row["converged"] for row in rows):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _constants_payload(A, sample=None):
    """(rates, JSON payload), or (None, the pairwise-cap error payload)."""
    try:
        consts = compute_constants(A, sample=sample)
    except ConstantsTooLargeError as exc:
        return None, {"error": str(exc), "note": "re-run with --sample for an approximate scan"}
    rates = rates_all(consts)
    payload = {
        "constants": {
            k: getattr(consts, k) for k in consts.__dataclass_fields__ if k != "frob_sq"
        },
        "rates": {
            k: getattr(rates, k)
            for k in rates.__dataclass_fields__
            if k not in ("raw", "vacuous")
        },
        "vacuous": list(rates.vacuous),
        "frob_sq": consts.frob_sq,
    }
    return rates, payload


def _cmd_constants(args):
    if bool(args.matrix) == bool(args.problem):
        raise ValueError("constants needs exactly one of --matrix / --problem")
    A = read_matrix_market(args.matrix) if args.matrix else _load(args.problem).A
    rates, payload = _constants_payload(A, sample=args.sample)
    _print_json(payload, indent=2)
    return EXIT_IO if rates is None else EXIT_OK


def _cmd_verify(args):
    _at_least_one("trials", args.trials)
    _at_least_one("steps", args.steps)
    problem = _load(args.problem)
    rates, payload = _constants_payload(problem.A)
    report = {"problem": problem.label, **payload}
    if rates is None:
        _print_json(report, indent=2)
        return EXIT_IO
    checks = {}
    # Unclamped, as this check has always read it: rates.thm1_beta clamps
    # a vacuous (negative) bound to 0.
    thm1 = rates.raw["thm1_beta"]
    means, errs = empirical_contraction(
        SolverKind.GPROJ, problem, args.trials, args.steps, args.seed
    )
    ok = np.all((means <= thm1 + 3 * errs) | np.isnan(means))
    checks["thm1_gproj"] = {
        "bound": thm1,
        "mean_ratios": means.tolist(),
        "stderrs": errs.tolist(),
        "pass": bool(ok),
    }
    thm3 = rates.thm3_beta_hat
    means3, _ = empirical_contraction(SolverKind.SPROJ, problem, 1, args.steps, args.seed)
    ok3 = np.all((means3 <= thm3 + 1e-12) | np.isnan(means3))
    checks["thm3_sproj"] = {"bound": thm3, "ratios": means3.tolist(), "pass": bool(ok3)}
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
