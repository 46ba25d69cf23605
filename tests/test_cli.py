"""Command-line interface: dispatch, exit codes, serialization, determinism."""

import json
import math
import subprocess
import sys

import pytest

from diskabc.cli import main

PROBLEMS = {
    "example1": {"mode": "example1", "n": 2},
    "example2": {"mode": "example2", "n": 2, "m": 5, "eps": 0.1},
    "abc": {
        "mode": "abc",
        "polynomials": [[[1.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]],
        "domain": {"center": [0.0, 0.0], "radius": 0.9},
    },
    "mason_a_bad": {
        "mode": "mason_a",
        "polynomials": [
            [[[0, 1], [0, 1]], [[1, 1], [0, 1]]],
            [[[0, 1], [0, 1]], [[1, 1], [0, 1]]],
            [[[0, 1], [0, 1]], [[2, 1], [0, 1]]],
        ],
    },
    "mason_b_relaxed": {
        "mode": "mason_b",
        "relaxed": True,
        "polynomials": [
            [[[0, 1], [0, 1]], [[1, 1], [0, 1]]],
            [[[0, 1], [0, 1]], [[-1, 1], [0, 1]], [[1, 1], [0, 1]]],
            [[[1, 1], [0, 1]], [[1, 1], [0, 1]]],
        ],
    },
    "limit_r": {
        "mode": "limit_r",
        "polynomials": [
            [[[1, 1], [0, 1]]],
            [[[0, 1], [0, 1]], [[0, 1], [0, 1]], [[1, 2], [0, 1]],
             [[0, 1], [0, 1]], [[1, 4], [0, 1]]],
        ],
        "radii": [10, 40],
    },
    "dalpha": {
        "mode": "dalpha",
        "alpha": 0.5,
        "polynomials": [[[1.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0], [0.05, 0.0]]],
    },
    "truncation": {
        "mode": "truncation",
        "alpha": 0.5,
        "rule": "geometric_boundary",
        "levels": [2, 4],
    },
}


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestModes:
    def test_example1_equality(self, tmp_path, capsys):
        code, doc = run_main(capsys, [write(tmp_path, PROBLEMS["example1"])])
        assert code == 0
        cert = doc["certificate"]
        assert cert["slack_21"] == 0.0 and cert["slack_22"] == 0.0
        assert doc["status"] == "pass"
        assert doc["input"]["mode"] == "example1"  # full input echo

    def test_example2(self, tmp_path, capsys):
        code, doc = run_main(capsys, [write(tmp_path, PROBLEMS["example2"])])
        assert code == 0
        assert doc["certificate"]["lhs"] == 5

    def test_abc_mode(self, tmp_path, capsys):
        code, doc = run_main(capsys, [write(tmp_path, PROBLEMS["abc"])])
        assert code == 0
        assert doc["certificate"]["N_lcm"] == 1

    def test_mason_a_not_coprime(self, tmp_path, capsys):
        code, doc = run_main(capsys, [write(tmp_path, PROBLEMS["mason_a_bad"])])
        assert code == 2
        assert doc["status"] == "hypothesis_failure"
        assert doc["reason"] == "not_coprime"

    def test_mason_b_relaxed(self, tmp_path, capsys):
        code, doc = run_main(capsys, [write(tmp_path, PROBLEMS["mason_b_relaxed"])])
        assert code == 0
        assert doc["report"]["relaxed"] is True
        assert doc["report"]["holds"] is True

    def test_limit_r_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        code, doc = run_main(capsys, [write(tmp_path, PROBLEMS["limit_r"]),
                                      "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "R,kappa,mu"
        assert len(lines) == 3

    def test_dalpha_mode(self, tmp_path, capsys):
        code, doc = run_main(capsys, [write(tmp_path, PROBLEMS["dalpha"])])
        assert code == 0
        assert doc["report"]["alpha"] == 0.5
        assert doc["report"]["ratio"] > 0

    def test_dalpha_alpha_flag_overrides(self, tmp_path, capsys):
        problem = dict(PROBLEMS["dalpha"])
        code, doc = run_main(capsys, [write(tmp_path, problem),
                                      "--alpha", "0.25"])
        assert code == 0
        assert doc["report"]["alpha"] == 0.25

    def test_truncation_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "trunc.csv"
        code, doc = run_main(capsys, [write(tmp_path, PROBLEMS["truncation"]),
                                      "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "K,criterion_sum,norm_sq"
        assert len(doc["table"]) == 2


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["/nonexistent/problem.json"]) == 4
        assert "cannot read" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main([str(path)]) == 4

    def test_unknown_mode(self, tmp_path, capsys):
        code, doc = run_main(capsys, [write(tmp_path, {"mode": "bogus"})])
        assert code == 4
        assert doc["status"] == "input_error"

    def test_missing_field(self, tmp_path, capsys):
        code, doc = run_main(capsys, [write(tmp_path, {"mode": "mason_a"})])
        assert code == 4

    def test_wrong_polynomial_count(self, tmp_path, capsys):
        bad = {"mode": "mason_a",
               "polynomials": [[[[0, 1], [0, 1]]]]}
        code, doc = run_main(capsys, [write(tmp_path, bad)])
        assert code == 4

    def test_boundary_zero_exit(self, tmp_path, capsys):
        bad = {"mode": "abc",
               "polynomials": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        code, doc = run_main(capsys, [write(tmp_path, bad)])
        assert code == 2
        assert doc["reason"] == "boundary_zero"

    def test_bad_quadrature_override(self, tmp_path, capsys):
        # the resolution is not settable, not even to the default values
        for quad in ({"boundary_samples": 100},
                     {"boundary_samples": 1024, "rel_tol": 1e-9}):
            bad = dict(PROBLEMS["example1"], quadrature=quad)
            code, doc = run_main(capsys, [write(tmp_path, bad)])
            assert code == 4
            assert doc["status"] == "input_error"
            assert "quadrature" in doc["detail"]

    @pytest.mark.parametrize("problem", [
        pytest.param({"mode": "abc",
                      "polynomials": [[[1.0, 0.0]], [[0.0, 0.0], [math.inf, 0.0]]]},
                     id="abc_infinite_coefficient"),
        pytest.param(dict(PROBLEMS["abc"],
                          domain={"center": [math.inf, 0.0], "radius": 0.9}),
                     id="abc_infinite_centre"),
        pytest.param(dict(PROBLEMS["abc"],
                          domain={"center": [0.0, math.nan], "radius": 0.9}),
                     id="abc_nan_centre"),
        pytest.param({"mode": "mason_a", "polynomials": [
            [[[math.inf, 1], [0, 1]], [[1, 1], [0, 1]]],
            [[[1, 1], [0, 1]]], [[[0, 1], [0, 1]], [[2, 1], [0, 1]]]]},
                     id="mason_a_infinite_numerator"),
        pytest.param({"mode": "limit_r", "polynomials": [
            [[[1.5, 1], [0, 1]]], PROBLEMS["limit_r"]["polynomials"][1]],
                      "radii": [10, 40]}, id="limit_r_fractional_numerator"),
        pytest.param({"mode": "limit_r", "polynomials": [
            [[[1, 2.0], [0, 1]]], PROBLEMS["limit_r"]["polynomials"][1]],
                      "radii": [10, 40]}, id="limit_r_float_denominator"),
        pytest.param(dict(PROBLEMS["example1"], n=2.5), id="example1_fractional_n"),
        pytest.param(dict(PROBLEMS["example2"], m=5.5), id="example2_fractional_m"),
        pytest.param(dict(PROBLEMS["truncation"], levels=[2, 4.5]),
                     id="truncation_fractional_level"),
    ])
    def test_unrepresentable_input(self, tmp_path, capsys, problem):
        # a value the program cannot represent exactly is an input error,
        # not a numerical failure, a theorem violation or a truncation
        code, doc = run_main(capsys, [write(tmp_path, problem)])
        assert code == 4
        assert doc["status"] == "input_error"

    @pytest.mark.parametrize("extra", [["--bogus"], ["--samples", "2048"],
                                       ["--radial", "64"], ["--tol", "1e-6"]])
    def test_bad_argument_exit(self, tmp_path, capsys, extra):
        path = write(tmp_path, PROBLEMS["example1"])
        assert main([path] + extra) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_missing_problem_argument(self, capsys):
        assert main([]) == 4
        assert "required: problem" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "--alpha" in capsys.readouterr().out


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, tmp_path):
        path = write(tmp_path, PROBLEMS["example2"])
        runs = [subprocess.run(
            [sys.executable, "-m", "diskabc", path, "--seed", "7"],
            capture_output=True, check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1]

    def test_bad_argument_exit_code_from_shell(self, tmp_path):
        path = write(tmp_path, PROBLEMS["example1"])
        run = subprocess.run([sys.executable, "-m", "diskabc", "--bogus", path],
                             capture_output=True)
        assert run.returncode == 4
        assert run.stdout == b""
