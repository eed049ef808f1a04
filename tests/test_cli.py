import csv
import json
import os
import threading

import numpy as np
import pytest

from rekbench import cli, linalg, problems, theory
from rekbench.cli import main
from rekbench.problems import gen_gaussian, load_problem, write_matrix_market
from rekbench.solvers import SolverKind, StopConfig, solve


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_bundle(capsys, tmp_path, name="prob", m=40, n=10, seed=7):
    path = str(tmp_path / name)
    code, _, _ = run(
        capsys,
        "gen", "gaussian", "--m", str(m), "--n", str(n), "--seed", str(seed),
        "--inconsistent", "--out", path,
    )
    assert code == 0
    return path


def test_gen_reload_and_check(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path, m=200, n=50)
    problem = load_problem(path)
    problem.validate()
    assert problem.shape == (200, 50)


GEN_ARGS = {
    "consistent": ("gaussian", "--m", "400", "--n", "100", "--seed", "1"),
    "wide-consistent": ("gaussian", "--m", "50", "--n", "80", "--seed", "1"),
    "wide-inconsistent": ("gaussian", "--m", "50", "--n", "80", "--seed", "1", "--inconsistent"),
    "tomo": ("tomo", "--side", "8", "--angles", "12", "--detectors", "12", "--seed", "1"),
    "from-mtx": ("from-mtx", "--seed", "1"),
}


@pytest.mark.parametrize("generator", sorted(GEN_ARGS))
def test_every_generated_bundle_loads(capsys, tmp_path, generator):
    """load_problem checks the ground truth; every bundle gen writes passes."""
    argv = GEN_ARGS[generator]
    if generator == "from-mtx":
        write_matrix_market(gen_gaussian(12, 30, 1), tmp_path / "A.mtx")
        argv += ("--path", str(tmp_path / "A.mtx"))
    path = str(tmp_path / "bundle")
    assert run(capsys, "gen", *argv, "--out", path)[0] == 0
    assert load_problem(path).r is not None


def test_gen_deterministic(capsys, tmp_path):
    a = gen_bundle(capsys, tmp_path, "a", m=6, n=4, seed=3)
    b = gen_bundle(capsys, tmp_path, "b", m=6, n=4, seed=3)
    for name in ("A.mtx", "b.txt", "x_star.txt", "r.txt"):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_gen_missing_arg_is_usage_error(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "gaussian", "--n", "4", "--seed", "1", "--out", "x")
    assert code == 1


def test_solve_json_row_and_history(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path, m=200, n=50)
    hist = str(tmp_path / "h.csv")
    code, out, _ = run(
        capsys,
        "solve", "--method", "TSREK", "--problem", path,
        "--tol", "1e-9", "--seed", "3", "--history", hist,
    )
    assert code == 0
    row = json.loads(out)
    assert row["converged"] is True
    assert row["rse"] <= 1e-8
    with open(hist, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "primary_residual", "dual_residual", "rse"]
    assert len(rows) > 1


def test_solve_history_into_missing_directory_prints_no_row(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    hist = str(tmp_path / "missing" / "h.csv")
    code, out, err = run(
        capsys, "solve", "--method", "SREK", "--problem", path, "--history", hist
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_max_iters_zero(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    code, out, _ = run(
        capsys, "solve", "--method", "GREK", "--problem", path, "--max-iters", "0"
    )
    assert code == 0
    assert json.loads(out)["iters"] == 0


def test_solve_fraction_warning_for_non_sampling(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    code, _, err = run(
        capsys, "solve", "--method", "SREK", "--problem", path, "--fraction", "0.5"
    )
    assert code == 0
    assert "ignored" in err


def test_solve_unknown_method(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    code, _, _ = run(capsys, "solve", "--method", "NOPE", "--problem", path)
    assert code == 1


def test_solve_missing_problem_io_error(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", "--method", "SREK", "--problem", str(tmp_path / "nope"))
    assert code == 2


def test_solve_bundle_with_extra_b_line_io_error(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    with open(tmp_path / "prob" / "b.txt", "a", encoding="ascii") as fh:
        fh.write("1.5\n")
    code, out, err = run(capsys, "solve", "--method", "GREK", "--problem", path)
    assert code == 2
    assert out == ""
    assert "b has shape (41,)" in err


def test_solve_bundle_with_edited_x_star_io_error(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    x_txt = tmp_path / "prob" / "x_star.txt"
    x_star = np.loadtxt(x_txt)
    x_star[3] += 1.0
    np.savetxt(x_txt, x_star, fmt="%.17g")
    code, out, err = run(capsys, "solve", "--method", "GREK", "--problem", path)
    assert code == 2
    assert out == ""
    assert "b != A x_star + r" in err


def test_solve_bundle_with_nan_b_io_error(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    b_txt = tmp_path / "prob" / "b.txt"
    lines = b_txt.read_text().splitlines()
    lines[5] = "nan"
    b_txt.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "solve", "--method", "GREK", "--problem", path)
    assert code == 2
    assert out == ""
    assert "b has non-finite entries" in err


@pytest.mark.parametrize("meta", ["[1, 2]", '"label"'])
def test_solve_bundle_with_non_object_meta_io_error(capsys, tmp_path, meta):
    path = gen_bundle(capsys, tmp_path)
    (tmp_path / "prob" / "meta.json").write_text(meta)
    code, out, err = run(capsys, "solve", "--method", "GREK", "--problem", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must hold a JSON object" in err


def test_solve_strict_non_convergence(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    code, out, _ = run(
        capsys,
        "solve", "--method", "REK", "--problem", path,
        "--tol", "1e-14", "--max-iters", "10", "--strict",
    )
    assert code == 3
    assert json.loads(out)["converged"] is False


def test_bench_cardinality_and_summary(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    out_csv = str(tmp_path / "res.csv")
    sum_csv = str(tmp_path / "sum.csv")
    code, _, _ = run(
        capsys,
        "bench", "--methods", "GREK,TGREK", "--problems", path,
        "--trials", "5", "--out", out_csv, "--summary-out", sum_csv,
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    with open(sum_csv, newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 2
    by_method = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(int(row["iters"]))
    for srow in summary:
        expected = np.mean(by_method[srow["method"]])
        assert float(srow["mean_iters"]) == pytest.approx(expected)


def test_bench_stable_modulo_wall_time(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out_csv = str(tmp_path / name)
        code, _, _ = run(
            capsys,
            "bench", "--methods", "REK", "--problems", path,
            "--trials", "3", "--seed", "5", "--out", out_csv,
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("wall_time_ms")
        outs.append(rows)
    assert outs[0] == outs[1]


def test_bench_jobs_matches_serial(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    results = []
    for jobs, name in (("1", "s.csv"), ("4", "p.csv")):
        out_csv = str(tmp_path / name)
        code, _, err = run(
            capsys,
            "bench", "--methods", "GREK,SREK", "--problems", path,
            "--trials", "2", "--jobs", jobs, "--out", out_csv,
        )
        assert code == 0
        assert err == ("" if jobs == "1" else "warning: --jobs ignored; bench runs cells in order\n")
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("wall_time_ms")
        results.append(rows)
    assert results[0] == results[1]


def test_bench_solves_every_cell_in_calling_thread(capsys, tmp_path, monkeypatch):
    path = gen_bundle(capsys, tmp_path)
    threads = []

    def recording_solve(*args, **kwargs):
        threads.append(threading.get_ident())
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", recording_solve)
    code, _, _ = run(
        capsys,
        "bench", "--methods", "GREK,SREK", "--problems", path,
        "--trials", "3", "--jobs", "2", "--out", str(tmp_path / "r.csv"),
    )
    assert code == 0
    assert threads == [threading.get_ident()] * 6


def test_bench_config_file(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": ["SREK"], "problems": [path], "trials": 2}))
    out_csv = str(tmp_path / "res.csv")
    code, _, _ = run(capsys, "bench", "--config", str(cfg), "--out", out_csv)
    assert code == 0
    with open(out_csv, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


@pytest.mark.parametrize(
    "settings",
    [
        {"trials": "x"},
        {"check_every": "5"},
        {"tol": "abc"},
        {"max_iters": 2.5},
        [1, 2],
        {"methods": 5},
        {"problems": [1]},
        {"summary_out": 1},
        {"summary_out": ["x"]},
        {"check-every": 5},
        {"trial": 2},
    ],
)
def test_bench_config_bad_value_is_usage_error(capsys, tmp_path, settings):
    path = gen_bundle(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    if isinstance(settings, dict):
        settings = {"methods": ["SREK"], "problems": [path], **settings}
    cfg.write_text(json.dumps(settings))
    out_csv = tmp_path / "res.csv"
    code, out, err = run(capsys, "bench", "--config", str(cfg), "--out", str(out_csv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_csv.exists()


def test_bench_config_numbers_and_nulls_are_accepted(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    settings = {"tol": 1, "fraction": 1, "check_every": None, "max_iters": None, "seed": 3}
    cfg.write_text(json.dumps({"methods": ["TREKS"], "problems": [path], "trials": 1, **settings}))
    code, _, err = run(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "res.csv"))
    assert code == 0, err


def test_bench_usage_error_without_methods(capsys, tmp_path):
    code, _, _ = run(capsys, "bench", "--out", str(tmp_path / "r.csv"))
    assert code == 1


def test_verify_gaussian_passes(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path, m=40, n=20, seed=42)
    code, out, _ = run(
        capsys, "verify", "--problem", path, "--trials", "60", "--steps", "10"
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["checks"]["thm1_gproj"]["pass"] is True
    assert report["checks"]["thm3_sproj"]["pass"] is True


def test_verify_without_r_takes_it_from_x_star(capsys, tmp_path, monkeypatch):
    path = gen_bundle(capsys, tmp_path)
    argv = ("verify", "--problem", path, "--trials", "2", "--steps", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    with_r = json.loads(out)["checks"]
    os.remove(os.path.join(path, "r.txt"))
    oracle_calls, oracle = [], problems.direct_least_squares

    def counted_oracle(*args):
        oracle_calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(problems, "direct_least_squares", counted_oracle)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and oracle_calls == []
    without_r = json.loads(out)["checks"]
    for check, key in (("thm1_gproj", "mean_ratios"), ("thm3_sproj", "ratios")):
        np.testing.assert_allclose(without_r[check][key], with_r[check][key], rtol=1e-12)


def test_verify_rate_only(capsys, tmp_path):
    # constants --problem prints the rates alone; verify has no flag for them.
    path = gen_bundle(capsys, tmp_path)
    code, out, _ = run(capsys, "constants", "--problem", path)
    assert code == 0
    constants = json.loads(out)
    code, out, _ = run(capsys, "verify", "--problem", path, "--trials", "2", "--steps", "2")
    assert code == 0
    report = json.loads(out)
    assert {k: report[k] for k in constants} == constants
    assert run(capsys, "verify", "--problem", path, "--rate-only")[0] == 1


def test_verify_vacuous_bounds_do_not_fail(capsys, tmp_path):
    # All-ones 3x2: every rate is vacuous, and GPROJ and SPROJ reach b_perp
    # in one step, after which the error is rounding noise.
    path = tmp_path / "ones"
    path.mkdir()
    write_matrix_market(linalg.DenseMatrix(np.ones((3, 2))), path / "A.mtx")
    (path / "b.txt").write_text("1\n2\n4\n")
    code, out, _ = run(
        capsys, "verify", "--problem", str(path), "--trials", "20", "--steps", "5"
    )
    assert code == 0
    report = strict_json(out)
    assert report["pass"] is True
    for name, key in (("thm1_gproj", "mean_ratios"), ("thm3_sproj", "ratios")):
        check = report["checks"][name]
        assert check["vacuous"] is True
        assert check[key][0] < 1e-24
        assert all(ratio is None for ratio in check[key][1:])
    assert report["checks"]["thm1_gproj"]["pass"] is False


def strict_json(text):
    """json.loads refusing the NaN and Infinity tokens that standard JSON lacks."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("method, key", [("GPROJ", "primary_residual"), ("RK", "dual_residual")])
def test_solve_prints_an_untracked_residual_as_null(capsys, tmp_path, method, key):
    path = gen_bundle(capsys, tmp_path, m=3, n=3)
    code, out, _ = run(capsys, "solve", "--method", method, "--problem", path)
    assert code == 0
    assert strict_json(out)[key] is None


def test_constants_prints_an_infinite_prefactor_as_null(capsys, tmp_path):
    write_matrix_market(linalg.DenseMatrix(np.zeros((2, 2))), tmp_path / "A.mtx")
    code, out, _ = run(capsys, "constants", "--matrix", str(tmp_path / "A.mtx"))
    assert code == 0
    assert strict_json(out)["rates"]["thm2_prefactor"] is None


def test_constants_output(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    code, out, _ = run(capsys, "constants", "--matrix", str(tmp_path / "prob" / "A.mtx"))
    assert code == 0
    payload = json.loads(out)
    assert 0 <= payload["constants"]["delta"] <= payload["constants"]["Delta"] < 1
    assert "thm2_alpha" in payload["rates"]


def test_constants_needs_exactly_one_source(capsys, tmp_path):
    code, _, _ = run(capsys, "constants")
    assert code == 1


def assert_usage_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("extra", [("--trials", "0"), ("--steps", "0"), ("--steps", "-2")])
def test_verify_without_measurements_is_usage_error(capsys, tmp_path, extra):
    path = gen_bundle(capsys, tmp_path)
    assert_usage_error(*run(capsys, "verify", "--problem", path, *extra))


@pytest.mark.parametrize(
    "argv",
    [
        ("gaussian", "--m", "0", "--n", "4"),
        ("tomo", "--side", "3", "--angles", "4", "--detectors", "4"),
        ("tomo", "--side", "8", "--angles", "0", "--detectors", "8"),
        ("tomo", "--side", "8", "--angles", "4", "--detectors", "0"),
    ],
)
def test_gen_out_of_range_size_is_usage_error(capsys, tmp_path, argv):
    out_dir = tmp_path / "bundle"
    assert_usage_error(*run(capsys, "gen", *argv, "--seed", "1", "--out", str(out_dir)))
    assert not out_dir.exists()


def test_gen_tomo_beyond_oracle_cap_is_io_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(linalg, "ORACLE_MAX_COLS", 10)
    code, out, err = run(
        capsys, "gen", "tomo", "--side", "4", "--angles", "4", "--detectors", "4",
        "--seed", "1", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert out == ""
    assert "oracle cap" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["gen", "constants"])
def test_matrix_market_parse_error_is_io_error(capsys, tmp_path, command):
    bad = str(tmp_path / "bad.mtx")
    (tmp_path / "bad.mtx").write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n")
    if command == "gen":
        argv = ("gen", "from-mtx", "--path", bad, "--seed", "1", "--out", str(tmp_path / "o"))
    else:
        argv = ("constants", "--matrix", bad)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        "coordinate real general\n-1 2 0\n",
        "coordinate real general\n2 2 1\n1 1 nan\n",
        "coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n",
        "array real general\n0 3\n",
        "coordinate real symmetric\n3 2 1\n3 1 1.0\n",
        "array real symmetric\n2 3\n1\n2\n3\n4\n5\n6\n",
    ],
)
@pytest.mark.parametrize("command", ["gen", "constants"])
def test_matrix_market_invalid_content_is_io_error(capsys, tmp_path, command, text):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix " + text)
    out_dir = tmp_path / "o"
    if command == "gen":
        argv = ("gen", "from-mtx", "--path", str(bad), "--seed", "1", "--out", str(out_dir))
    else:
        argv = ("constants", "--matrix", str(bad))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("sample", ["-1", "0", "1"])
def test_constants_sample_below_a_pair_is_usage_error(capsys, tmp_path, sample):
    path = gen_bundle(capsys, tmp_path)
    assert_usage_error(*run(capsys, "constants", "--problem", path, "--sample", sample))


def test_constants_sample_of_two_is_accepted(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    code, out, _ = run(capsys, "constants", "--problem", path, "--sample", "2")
    assert code == 0
    assert json.loads(out)["constants"]["approximate"] is True


def test_constants_sample_beyond_oracle_cap_is_io_error(capsys, tmp_path):
    path = str(tmp_path / "A.mtx")
    write_matrix_market(gen_gaussian(linalg.ORACLE_MAX_ROWS + 1, 3, 1), path)
    code, out, err = run(capsys, "constants", "--matrix", path, "--sample", "10")
    assert code == 2
    assert out == ""
    assert "oracle cap" in err and err.count("\n") == 1


def test_constants_beyond_pairwise_cap_is_io_error(capsys, tmp_path):
    path = str(tmp_path / "A.mtx")
    write_matrix_market(gen_gaussian(theory.PAIRWISE_CAP + 1, 3, 1), path)
    code, out, _ = run(capsys, "constants", "--matrix", path)
    assert code == 2
    payload = json.loads(out)
    assert "pairwise-scan cap" in payload["error"]
    assert "--sample" in payload["note"]


def test_verify_beyond_pairwise_cap_is_io_error(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path, m=theory.PAIRWISE_CAP + 1, n=3)
    code, out, _ = run(capsys, "verify", "--problem", path)
    assert code == 2
    report = json.loads(out)
    assert report["problem"] == load_problem(path).label
    assert "pairwise-scan cap" in report["error"]
    assert "checks" not in report


@pytest.mark.parametrize(
    "extra",
    [
        ("--method", "TREKS", "--fraction", "0"),
        ("--method", "TREKS", "--fraction", "1.5"),
        ("--method", "REK", "--check-every", "-1"),
        ("--method", "REK", "--check-every", "0"),
        ("--method", "REK", "--max-iters", "-1"),
    ],
)
def test_solve_out_of_range_stop_setting_is_usage_error(capsys, tmp_path, extra):
    path = gen_bundle(capsys, tmp_path)
    code, out, err = run(capsys, "solve", "--problem", path, *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "extra",
    [("--fraction", "0"), ("--check-every", "-1"), ("--max-iters", "-1"), ("--trials", "0")],
)
def test_bench_out_of_range_setting_is_usage_error(capsys, tmp_path, extra):
    path = gen_bundle(capsys, tmp_path)
    out_csv = tmp_path / "res.csv"
    code, out, err = run(
        capsys, "bench", "--methods", "REK", "--problems", path, "--out", str(out_csv), *extra
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_solve_bad_tol_is_usage_error(capsys, tmp_path, tol):
    path = gen_bundle(capsys, tmp_path)
    code, out, err = run(capsys, "solve", "--problem", path, "--method", "SREK", "--tol", tol)
    assert code == 1
    assert out == ""
    assert err.startswith("error: tol must be finite and positive") and err.count("\n") == 1


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0, -1.0])
def test_bench_config_bad_tol_is_usage_error(capsys, tmp_path, tol):
    path = gen_bundle(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    # json writes NaN and Infinity, which json.load reads back.
    cfg.write_text(json.dumps({"methods": ["SREK"], "problems": [path], "tol": tol}))
    out_csv = tmp_path / "res.csv"
    code, out, err = run(capsys, "bench", "--config", str(cfg), "--out", str(out_csv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: tol must be finite and positive") and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_bench_bad_tol_flag_is_usage_error(capsys, tmp_path, tol):
    path = gen_bundle(capsys, tmp_path)
    out_csv = tmp_path / "res.csv"
    code, out, err = run(
        capsys, "bench", "--methods", "REK", "--problems", path, "--out", str(out_csv), "--tol", tol
    )
    assert code == 1
    assert out == "" and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["solve", "bench", "verify", "gen"])
def test_negative_seed_is_usage_error(capsys, tmp_path, command):
    path = gen_bundle(capsys, tmp_path)
    argv = {
        "solve": ("solve", "--method", "REK", "--problem", path),
        "bench": ("bench", "--methods", "REK", "--problems", path, "--out", str(tmp_path / "o.csv")),
        "verify": ("verify", "--problem", path, "--trials", "2", "--steps", "2"),
        "gen": ("gen", "from-mtx", "--path", path + "/A.mtx", "--out", str(tmp_path / "o")),
    }[command]
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert_usage_error(code, out, err)
    assert "Traceback" not in err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_bench_config_summary_out_overrides_its_flag(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"summary_out": str(tmp_path / "config.csv")}))
    code, _, err = run(
        capsys,
        "bench", "--config", str(cfg), "--methods", "SREK", "--problems", path, "--trials", "1",
        "--out", str(tmp_path / "res.csv"), "--summary-out", str(tmp_path / "flag.csv"),
    )
    assert code == 0, err
    assert (tmp_path / "config.csv").exists()
    assert not (tmp_path / "flag.csv").exists()


def test_bench_config_tol_overrides_its_flag(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-3}))

    def iters(*argv):
        out_csv = tmp_path / "res.csv"
        code, _, err = run(
            capsys,
            "bench", "--methods", "REK", "--problems", path, "--trials", "2",
            "--out", str(out_csv), *argv,
        )
        assert code == 0, err
        return [row["iters"] for row in read_rows(out_csv)]

    with_config = iters("--config", str(cfg), "--tol", "1e-9")
    assert with_config == iters("--tol", "1e-3")
    assert with_config != iters("--tol", "1e-9")


@pytest.mark.parametrize("key", ["methods", "problems"])
def test_bench_config_empty_list_overrides_its_flag(capsys, tmp_path, key):
    path = gen_bundle(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: []}))
    out_csv = tmp_path / "res.csv"
    code, out, err = run(
        capsys,
        "bench", "--config", str(cfg), "--methods", "REK", "--problems", path,
        "--out", str(out_csv),
    )
    assert_usage_error(code, out, err)
    assert "bench needs --methods and --problems" in err
    assert not out_csv.exists()


def test_rows_without_setting_flags_run_stop_config_defaults(capsys, tmp_path):
    path = gen_bundle(capsys, tmp_path)
    problem = load_problem(path)
    code, out, err = run(capsys, "solve", "--method", "TREKS", "--problem", path, "--seed", "3")
    assert code == 0, err
    row = json.loads(out)
    expected = solve(SolverKind.TREKS, problem, StopConfig(), 3)
    assert (row["iters"], row["rse"]) == (expected.iters, expected.final_rse)

    out_csv = tmp_path / "res.csv"
    code, _, err = run(
        capsys,
        "bench", "--methods", "TREKS", "--problems", path, "--trials", "2", "--out", str(out_csv),
    )
    assert code == 0, err
    for row in read_rows(out_csv):
        expected = solve(SolverKind.TREKS, problem, StopConfig(), int(row["trial_seed"]))
        assert (int(row["iters"]), float(row["rse"])) == (expected.iters, expected.final_rse)


@pytest.mark.parametrize("missing", ["x_star", "r"])
@pytest.mark.parametrize("generator", sorted(GEN_ARGS))
def test_every_generated_bundle_loads_with_one_truth_file(capsys, tmp_path, generator, missing):
    argv = GEN_ARGS[generator]
    if generator == "from-mtx":
        write_matrix_market(gen_gaussian(12, 30, 1), tmp_path / "A.mtx")
        argv += ("--path", str(tmp_path / "A.mtx"))
    path = tmp_path / "bundle"
    assert run(capsys, "gen", *argv, "--out", str(path))[0] == 0
    (path / f"{missing}.txt").unlink()
    assert getattr(load_problem(str(path)), missing) is None


@pytest.mark.parametrize("edited, missing", [("x_star", "r"), ("r", "x_star")])
def test_solve_bundle_with_one_edited_truth_file_io_error(capsys, tmp_path, edited, missing):
    path = gen_bundle(capsys, tmp_path)
    vec_txt = tmp_path / "prob" / f"{edited}.txt"
    vec = np.loadtxt(vec_txt)
    vec[3 if edited == "x_star" else 0] += 1.0
    np.savetxt(vec_txt, vec, fmt="%.17g")
    (tmp_path / "prob" / f"{missing}.txt").unlink()
    code, out, err = run(capsys, "solve", "--method", "GREK", "--problem", path)
    assert code == 2
    assert out == ""
    assert "not orthogonal to range(A)" in err


@pytest.mark.parametrize("label", [None, 3])
def test_bench_bundle_with_non_string_label_io_error(capsys, tmp_path, label):
    first = gen_bundle(capsys, tmp_path, "p1")
    second = gen_bundle(capsys, tmp_path, "p2", seed=8)
    meta_json = tmp_path / "p2" / "meta.json"
    meta = json.loads(meta_json.read_text())
    meta["label"] = label
    meta_json.write_text(json.dumps(meta))
    out_csv = tmp_path / "res.csv"
    code, out, err = run(
        capsys,
        "bench", "--methods", "REK", "--problems", f"{first},{second}", "--out", str(out_csv),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "label must be a string" in err
    assert not out_csv.exists()
