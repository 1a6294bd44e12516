import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shatterbound.cli import (
    build_parser,
    log_spaced_grid,
    main,
    sci_from_log,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
COMMANDS = ("coef", "bound", "solve-n", "solve-eps", "curve", "verify")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """A fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
    )


class TestCoef:
    def test_plain_value(self, capsys):
        code, out, _ = run_cli(capsys, "coef", "--n", "4", "--h", "2")
        assert code == 0
        assert "count: 14" in out

    def test_saturated_flag(self, capsys):
        code, out, _ = run_cli(capsys, "coef", "--n", "3", "--h", "9")
        assert code == 0
        assert "count: 8" in out
        assert "saturated" in out

    def test_json_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "coef", "--n", "10", "--h", "3", "--p", "16", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)
        expected = 2 * sum(math.comb(9, i) ** 16 for i in range(4))
        assert rec["result"]["count"] == expected
        assert rec["result"]["log"] == pytest.approx(math.log(expected), rel=1e-12)

    def test_malformed_flags_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "coef", "--n", "four", "--h", "2")
        assert code == 1
        assert err != ""


class TestBound:
    def test_headline_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "1026780", "--eps", "0.05", "--h", "3",
            "--p", "16", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["result"]["delta_log"] == pytest.approx(math.log(0.01), abs=0.15)
        assert rec["result"]["delta"].startswith("9.9")  # just under 0.01

    def test_vacuous_and_clamp(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "4", "--eps", "0.5", "--h", "2", "--format", "json"
        )
        rec = json.loads(out)
        assert code == 0
        assert "vacuous" in rec["flags"]
        assert float(rec["result"]["delta"].replace("e", "E")) == pytest.approx(
            21.8, abs=0.1
        )
        _, out, _ = run_cli(
            capsys, "bound", "--n", "4", "--eps", "0.5", "--h", "2", "--clamp",
            "--format", "json",
        )
        rec = json.loads(out)
        assert rec["result"]["delta"] == "1.00000e+00"
        assert rec["result"]["delta_log"] == 0.0

    def test_eps_outside_unit_interval_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--n", "4", "--eps", "1.5", "--h", "2")
        assert code == 1
        assert "eps" in err


class TestSolveN:
    def test_headline(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-n", "--delta", "0.01", "--eps", "0.05", "--h", "3",
            "--p", "16", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        n = rec["result"]["n"]
        assert abs(n - 1.02678e6) <= 0.005 * 1.02678e6
        trace = rec["result"]["trace"]
        assert trace["bracket"][0] < n <= trace["bracket"][1]
        assert len(trace["expansion"]) >= 2

    def test_flat_space_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-n", "--delta", "0.01", "--eps", "0.05", "--h", "0",
            "--p", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["result"]["n"] == 9587

    def test_monotone_in_delta(self, capsys):
        def solve(delta):
            _, out, _ = run_cli(
                capsys, "solve-n", "--delta", delta, "--eps", "0.05", "--h", "3",
                "--p", "16", "--format", "json",
            )
            return json.loads(out)["result"]["n"]

        assert solve("0.001") > solve("0.01")

    def test_no_bracket_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "solve-n", "--delta", "0.01", "--eps", "0.05", "--h", "3",
            "--p", "16", "--ceiling", "1000",
        )
        assert code == 3
        assert "no sample size" in err

    @pytest.mark.parametrize(
        ("ceiling", "evaluations"), [(None, 9), ("1026778", 9)],
        ids=["headline", "crossing-at-ceiling"],
    )
    def test_each_point_is_evaluated_once(self, capsys, monkeypatch, ceiling, evaluations):
        # the record reports n*'s value from the solver's trace, so the
        # command adds no evaluation of its own
        import shatterbound.bounds as bounds

        seen = []
        real = bounds._log_bound

        def counted(n, eps, h, p):
            seen.append(n)
            return real(n, eps, h, p)

        monkeypatch.setattr(bounds, "_log_bound", counted)
        extra = [] if ceiling is None else ["--ceiling", ceiling]
        code, _, _ = run_cli(
            capsys, "solve-n", "--delta", "0.01", "--eps", "0.05", "--h", "3",
            "--p", "16", *extra,
        )
        assert code == 0
        assert len(seen) == len(set(seen)) == evaluations

    @pytest.mark.parametrize("ceiling", ["0", "-5"])
    def test_ceiling_below_one_exit_1(self, capsys, ceiling):
        code, out, err = run_cli(
            capsys, "solve-n", "--delta", "0.01", "--eps", "0.05", "--h", "3",
            "--p", "16", f"--ceiling={ceiling}",
        )
        assert (code, out) == (1, "")
        assert err == f"error: sample size n must be positive, got {ceiling}\n"


class TestSolveEps:
    def test_headline_inversion(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-eps", "--n", "1026780", "--delta", "0.01", "--h", "3",
            "--p", "16", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["result"]["epsilon"] == pytest.approx(0.05, abs=1e-3)

    def test_round_trip_with_bound(self, capsys):
        _, out, _ = run_cli(
            capsys, "solve-eps", "--n", "1000", "--delta", "0.05", "--h", "2",
            "--p", "4", "--format", "json",
        )
        eps = json.loads(out)["result"]["epsilon"]
        _, out, _ = run_cli(
            capsys, "bound", "--n", "1000", "--eps", repr(eps), "--h", "2",
            "--p", "4", "--format", "json",
        )
        got = json.loads(out)["result"]["delta_log"]
        assert got == pytest.approx(math.log(0.05), rel=1e-6)

    def test_vacuous_saturated_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-eps", "--n", "10", "--delta", "0.5", "--h", "9",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["result"]["epsilon"] == pytest.approx(1.824, abs=1e-3)
        assert rec["flags"] == ["vacuous", "saturated"]


class TestCurve:
    def test_file_format(self, capsys, tmp_path):
        out_path = str(tmp_path / "curve.csv")
        code, _, _ = run_cli(
            capsys, "curve", "--n-start", "100", "--n-end", "10000000",
            "--n-points", "12", "--h-list", "2,3", "--p-list", "1,16",
            "--out", out_path,
        )
        assert code == 0
        raw = open(out_path, "rb").read()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "n,h,p,epsilon"
        assert len(lines) == 1 + 12 * 4
        keys = []
        for line in lines[1:]:
            n, h, p, eps = line.split(",")
            keys.append((int(h), int(p), int(n)))
            assert len(eps.replace(".", "").replace("e", "").replace("-", "").lstrip("0")) <= 10
        assert keys == sorted(keys)

    def test_offset_between_dimensions(self, capsys, tmp_path):
        out_path = str(tmp_path / "c.csv")
        run_cli(
            capsys, "curve", "--n-start", "100", "--n-end", "100000",
            "--n-points", "6", "--h-list", "2,3", "--p-list", "4",
            "--out", out_path,
        )
        rows = {}
        for line in open(out_path).read().splitlines()[1:]:
            n, h, p, eps = line.split(",")
            rows[(int(h), int(n))] = float(eps)
        for (h, n) in list(rows):
            if h == 2:
                assert rows[(3, n)] > rows[(2, n)]

    def test_csv_format_echoes_table(self, capsys, tmp_path):
        out_path = str(tmp_path / "c.csv")
        code, out, _ = run_cli(
            capsys, "curve", "--n-start", "10", "--n-end", "100", "--n-points", "3",
            "--h-list", "1", "--p-list", "1", "--out", out_path, "--format", "csv",
        )
        assert code == 0
        assert out == open(out_path).read()

    def test_unwritable_path_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "curve", "--n-start", "10", "--n-end", "100", "--n-points", "3",
            "--h-list", "1", "--p-list", "1",
            "--out", str(tmp_path / "missing_dir" / "c.csv"),
        )
        assert code == 1
        assert "cannot write" in err

    def test_rejects_degenerate_range(self, capsys):
        code, _, _ = run_cli(
            capsys, "curve", "--n-start", "100", "--n-end", "100", "--n-points", "3",
            "--h-list", "1", "--p-list", "1", "--out", "/tmp/x.csv",
        )
        assert code == 1

    @pytest.mark.parametrize("h_list, p_list, message", [
        ("1,x", "1", "argument --h-list: expected comma-separated integers, got '1,x'"),
        ("1", "", "--h-list and --p-list must be nonempty"),
        ("2,2", "1", "argument --h-list: expected distinct integers, got '2,2'"),
        ("1,2", "4,1,4", "argument --p-list: expected distinct integers, got '4,1,4'"),
    ], ids=["malformed", "empty", "repeated-h", "repeated-p"])
    def test_bad_list_exit_1(self, capsys, tmp_path, h_list, p_list, message):
        code, out, err = run_cli(
            capsys, "curve", "--n-start", "10", "--n-end", "100", "--n-points", "3",
            "--h-list", h_list, "--p-list", p_list, "--out", str(tmp_path / "c.csv"),
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_points, span", [(1000, 999), (10**12, 999)],
                             ids=["one-past", "huge"])
    def test_more_points_than_integers_exit_1(self, capsys, tmp_path, monkeypatch,
                                              n_points, span):
        # refused before any grid work: log_spaced_grid takes n_points steps
        def no_grid(*args):
            raise AssertionError("log_spaced_grid ran")

        monkeypatch.setattr("shatterbound.cli.log_spaced_grid", no_grid)
        code, out, err = run_cli(
            capsys, "curve", "--n-start", "2", "--n-end", "1000",
            "--n-points", str(n_points), "--h-list", "1", "--p-list", "1",
            "--out", str(tmp_path / "c.csv"),
        )
        message = (f"--n-points must not exceed the {span} integers from --n-start "
                   f"to --n-end, got {n_points}")
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_one_point_per_integer_is_the_whole_range(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        code, _, _ = run_cli(
            capsys, "curve", "--n-start", "2", "--n-end", "1000", "--n-points", "999",
            "--h-list", "1", "--p-list", "1", "--out", str(out_path),
        )
        assert code == 0
        ns = [int(line.split(",")[0]) for line in out_path.read_text().splitlines()[1:]]
        assert ns[0] == 2 and ns[-1] == 1000 and len(ns) == len(set(ns))

    def test_grid_helper_dedups_and_stays_in_range(self):
        grid = log_spaced_grid(10, 20, 40)
        assert grid[0] == 10 and grid[-1] == 20
        assert all(b > a for a, b in zip(grid, grid[1:]))
        grid = log_spaced_grid(100, 10**7, 12)
        assert len(grid) == 12

    @pytest.mark.parametrize("n_start", [3, 7, 10**6, 10**20])
    def test_grid_helper_ends_at_the_float_maximum(self, n_start):
        # n_start * ratio rounds to inf at the last point for these starts
        n_end = int(sys.float_info.max)
        grid = log_spaced_grid(n_start, n_end, 3)
        assert (grid[0], grid[-1]) == (n_start, n_end)
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestVerify:
    def test_pass_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "4", "--h", "2", "--trials", "5", "--seed", "7"
        )
        assert code == 0
        assert "result: PASS" in out
        assert out.count("count=14") == 5

    def test_json_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "6", "--h", "1", "--trials", "3", "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["result"]["formula_count"] == 12
        assert all(t["count"] == 12 for t in rec["result"]["trials"])
        assert rec["provenance"]["prng"] == "python-random-mt19937"

    def test_out_of_range_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "25", "--h", "2")
        assert code == 1
        assert "size guard" in err
        code, _, _ = run_cli(capsys, "verify", "--n", "5", "--h", "5")
        assert code == 1

    def test_mismatch_exit_2(self, capsys, monkeypatch):
        import shatterbound.oracle as om

        monkeypatch.setattr(om, "shatter_multi", lambda n, spec: 999)
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--h", "1", "--trials", "1", "--seed", "0"
        )
        assert code == 2
        assert "result: FAIL" in out

    @pytest.mark.parametrize("workers", ["2", "0"])
    def test_no_workers_option(self, capsys, workers):
        # the count runs in one process, so there is nothing to fan out
        code, out, err = run_cli(
            capsys, "verify", "--n", "4", "--h", "2", "--workers", workers
        )
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: --workers {workers}" in err


class TestOutputContract:
    def test_json_round_trip(self, capsys, tmp_path, monkeypatch):
        """Every record shape the golden file prints as JSON: flat counts,
        the nested solve-n trace, the verify trials and the curve record."""
        monkeypatch.chdir(tmp_path)  # the curve case writes c.csv
        cases = [c for c in GOLDEN if "json" in c["argv"] and c["stdout"]]
        assert {c["argv"][0] for c in cases} == set(COMMANDS)
        for case in cases:
            _, out, _ = run_cli(capsys, *case["argv"])
            assert json.dumps(json.loads(out), sort_keys=True) + "\n" == out

    def test_plain_and_json_carry_identical_values(self, capsys):
        _, plain, _ = run_cli(capsys, "coef", "--n", "9", "--h", "3", "--p", "2")
        _, out, _ = run_cli(
            capsys, "coef", "--n", "9", "--h", "3", "--p", "2", "--format", "json"
        )
        rec = json.loads(out)
        assert f"count: {rec['result']['count']}" in plain
        assert f"log: {rec['result']['log']!r}" in plain

    def test_byte_identical_reruns(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run_cli(
                capsys, "verify", "--n", "5", "--h", "2", "--trials", "2",
                "--seed", "11", "--format", "json",
            )
            outs.add(out)
        assert len(outs) == 1

    def test_sci_from_log(self):
        assert sci_from_log(float("-inf")) == "0"
        assert sci_from_log(0.0) == "1.00000e+00"
        assert sci_from_log(math.log(0.01)) == "1.00000e-02"
        assert sci_from_log(-1000.0) == "5.07596e-435"
        # a mantissa that rounds up to 10 carries into the exponent
        assert sci_from_log(math.log(9.9999999)) == "1.00000e+01"
        assert sci_from_log(math.log(9.999996e-7)) == "1.00000e-06"

    def test_module_entrypoint_runs(self):
        proc = run_python("-m", "shatterbound", "coef", "--n", "4", "--h", "2")
        assert proc.returncode == 0
        assert "count: 14" in proc.stdout

    def test_missing_subcommand_exit_1(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["coef", "--n", "4", "--h", "2"],
        ["bound", "--n", "4", "--eps", "0.5", "--h", "2"],
        ["solve-n", "--delta", "0.01", "--eps", "0.05", "--h", "2"],
        ["solve-eps", "--n", "100", "--delta", "0.01", "--h", "2"],
    ])
    def test_zero_hyperplanes_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--p", "0")
        assert code == 1
        assert out == ""
        assert "hyperplane count p must be positive" in err


MAX = 2**63 - 1


class TestHugeP:
    # p is refused past 2^63-1, the top of the accepted domain; at 2^63-1
    # every log the commands form is a finite float
    HUGE_P_ARGVS = pytest.mark.parametrize("argv", [
        ["bound", "--n", "100", "--eps", "0.5", "--h", "3"],
        ["solve-eps", "--n", "100", "--delta", "0.01", "--h", "3"],
        ["solve-n", "--delta", "0.01", "--eps", "0.05", "--h", "3"],
    ])

    @pytest.mark.parametrize("p", [2**63, 10**308, 10**400], ids=["2^63", "1e308", "1e400"])
    @HUGE_P_ARGVS
    def test_p_past_the_domain_exit_1(self, capsys, argv, p):
        code, out, err = run_cli(capsys, *argv, "--p", str(p))
        assert code == 1
        assert out == ""
        assert err == f"error: hyperplane count p must be at most 2^63-1, got {p}\n"

    @HUGE_P_ARGVS
    def test_largest_p_gives_finite_floats(self, capsys, argv):
        # solve-n finds no bracket below the ceiling and exits 3
        code, out, err = run_cli(capsys, *argv, "--p", str(MAX), "--format", "json")
        if argv[0] == "solve-n":
            assert (code, out) == (3, "")
            assert err.startswith("error: no sample size up to ") and err.count("\n") == 1
            return
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert all(math.isfinite(v) for v in result.values() if isinstance(v, float))

    @pytest.mark.parametrize("p", [2**63, 10**308, 10**400], ids=["2^63", "1e308", "1e400"])
    def test_curve_past_the_domain_exit_1(self, capsys, tmp_path, monkeypatch, p):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "curve", "--n-start", "2", "--n-end", "100", "--n-points", "3",
            "--h-list", "1", "--p-list", str(p), "--out", "c.csv",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: hyperplane count p must be at most 2^63-1, got {p}\n"
        assert list(tmp_path.iterdir()) == []

    def test_curve_at_the_domain_corner_is_finite(self, capsys, tmp_path):
        out_file = tmp_path / "c.csv"
        code, _, err = run_cli(
            capsys, "curve", "--n-start", "2", "--n-end", str(MAX), "--n-points", "3",
            "--h-list", str(MAX), "--p-list", str(MAX), "--out", str(out_file),
        )
        assert (code, err) == (0, "")
        rows = out_file.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(math.isfinite(float(row.split(",")[3])) for row in rows)


class TestCountPastTheDigitLimit:
    # CPython refuses to turn an int of more digits than its limit (4300 by
    # default) into a decimal string. The count 2 * sum C(99, i)**p, i <= 3,
    # has 4297 digits at p = 827, 4303 at p = 828 and 52 000 at p = 10000.
    # At h = n - 1 the count is 2^n, which has 4516 digits at n = 15000.
    @pytest.mark.parametrize("argv", [
        ["coef", "--n", "100", "--h", "3", "--p", "828"],
        ["coef", "--n", "15000", "--h", "14999"],
        ["coef", "--n", "100", "--h", "3", "--p", "10000", "--format", "json"],
    ])
    def test_exit_1_with_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"({sys.get_int_max_str_digits()} digits)" in err

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_count_below_the_limit_prints(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys, "coef", "--n", "100", "--h", "3", "--p", "827", "--format", fmt
        )
        assert code == 0
        count = 2 * sum(math.comb(99, i) ** 827 for i in range(4))
        assert len(str(count)) == 4297
        assert str(count) in out

    # At n = 3, h = 1 the count is 2 + 2^(p+1): 4300 digits at p = 14283,
    # 4301 at p = 14284; 100 000 digits at p = 332191, 100 001 at p = 332192.
    @pytest.fixture
    def set_limit(self):
        old = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("p", [10**9, MAX], ids=["1e9", "2^63-1"])
    def test_huge_p_is_refused_before_the_count_is_built(self, capsys, monkeypatch,
                                                         set_limit, p):
        # the count would take gigabytes; its log decides
        def refuse(*args):
            raise AssertionError("shatter_multi called")

        set_limit(4300)
        monkeypatch.setattr("shatterbound.cli.shatter_multi", refuse)
        code, out, err = run_cli(capsys, "coef", "--n", "3", "--h", "1", "--p", str(p))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "(4300 digits)" in err

    @pytest.mark.parametrize("limit,p,digits", [
        (4300, 14283, 4300), (100_000, 332191, 100_000), (0, 14284, 4301),
    ])
    def test_largest_count_under_the_limit_prints(self, capsys, set_limit,
                                                  limit, p, digits):
        set_limit(limit)
        code, out, _ = run_cli(capsys, "coef", "--n", "3", "--h", "1", "--p", str(p))
        assert code == 0
        count = 2 + 2 ** (p + 1)
        assert len(str(count)) == digits
        assert f"count: {count}\n" in out

    @pytest.mark.parametrize("limit,p", [(4300, 14284), (100_000, 332192)])
    def test_next_count_exits_1(self, capsys, set_limit, limit, p):
        # at 100 000 digits the log sits inside the float-error band above
        # the limit, so the exact count is built and str() refuses it
        set_limit(limit)
        code, out, err = run_cli(capsys, "coef", "--n", "3", "--h", "1", "--p", str(p))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"({limit} digits)" in err


class TestNPastTheDomain:
    # n, a ceiling and a curve's n_end are refused past 2^63-1, the top of
    # the accepted domain, before any of them meets a float
    CASES = pytest.mark.parametrize("argv, message", [
        (["bound", "--n", "{big}", "--eps", "0.1", "--h", "1"],
         "sample size n must be at most 2^63-1, got {big}"),
        (["solve-eps", "--n", "{big}", "--delta", "0.1", "--h", "1"],
         "sample size n must be at most 2^63-1, got {big}"),
        (["curve", "--n-start", "2", "--n-end", "{big}", "--n-points", "3",
          "--h-list", "1", "--p-list", "1", "--out", "c.csv"],
         "--n-end must be at most 2^63-1, got {big}"),
        (["solve-n", "--delta", "0.01", "--eps", "1e-300", "--h", "1",
          "--ceiling", "{big}"],
         "ceiling must be at most 2^63-1, got {big}"),
    ], ids=["bound", "solve-eps", "curve", "solve-n"])
    BIGS = pytest.mark.parametrize("big", [2**63, 10**400], ids=["2^63", "1e400"])

    @BIGS
    @CASES
    def test_exit_1_with_one_line_naming_the_input(self, capsys, tmp_path, monkeypatch,
                                                   argv, message, big):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *(a.format(big=big) for a in argv))
        assert (code, out) == (1, "")
        assert err == f"error: {message.format(big=big)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_start", [2, 3, 7])
    def test_curve_grid_ends_at_the_top_of_the_domain(self, capsys, tmp_path, n_start):
        # n_start times the float ratio n_end / n_start rounds to 2^63 at the
        # last point; the grid clamps it to n_end before rounding
        n_end = MAX
        out_file = tmp_path / "c.csv"
        code, _, err = run_cli(capsys, "curve", "--n-start", str(n_start),
                               "--n-end", str(n_end), "--n-points", "3",
                               "--h-list", "1", "--p-list", "1", "--out", str(out_file))
        assert (code, err) == (0, "")
        ns = [int(row.split(",")[0]) for row in out_file.read_text().splitlines()[1:]]
        assert (ns[0], ns[-1]) == (n_start, n_end)


class TestEveryOptionMatters:
    """Each option a subcommand declares, --format aside, changes what the
    command produces: its exit code, its record outside the echoed inputs,
    or the file it writes. An option that only travels into the record is
    one no run needs, so a new option must bring a case here."""

    # options every case of a command passes, unless the case varies them
    BASE = {
        "coef": {"--n": "9", "--h": "3"},
        "bound": {"--n": "4", "--eps": "0.5", "--h": "2"},
        "solve-n": {"--delta": "0.01", "--eps": "0.05", "--h": "2"},
        "solve-eps": {"--n": "100", "--delta": "0.01", "--h": "2"},
        "curve": {"--n-start": "10", "--n-end": "100", "--n-points": "3",
                  "--h-list": "1", "--p-list": "1", "--out": "c.csv"},
        "verify": {"--n": "6", "--h": "2"},
    }
    # (command, option): the option's tokens in the two runs; [] omits it
    CASES = {
        ("coef", "--n"): (["--n", "9"], ["--n", "10"]),
        ("coef", "--h"): (["--h", "3"], ["--h", "4"]),
        ("coef", "--p"): ([], ["--p", "2"]),
        ("bound", "--n"): (["--n", "4"], ["--n", "5"]),
        ("bound", "--eps"): (["--eps", "0.5"], ["--eps", "0.4"]),
        ("bound", "--h"): (["--h", "2"], ["--h", "3"]),
        ("bound", "--p"): ([], ["--p", "2"]),
        # the bound at n = 4 is vacuous, so the clamp applies
        ("bound", "--clamp"): ([], ["--clamp"]),
        ("solve-n", "--delta"): (["--delta", "0.01"], ["--delta", "0.02"]),
        ("solve-n", "--eps"): (["--eps", "0.05"], ["--eps", "0.1"]),
        ("solve-n", "--h"): (["--h", "2"], ["--h", "3"]),
        ("solve-n", "--p"): ([], ["--p", "2"]),
        # n* is far above 100: exit 3 against 0
        ("solve-n", "--ceiling"): ([], ["--ceiling", "100"]),
        ("solve-eps", "--n"): (["--n", "100"], ["--n", "200"]),
        ("solve-eps", "--delta"): (["--delta", "0.01"], ["--delta", "0.02"]),
        ("solve-eps", "--h"): (["--h", "2"], ["--h", "3"]),
        ("solve-eps", "--p"): ([], ["--p", "2"]),
        # the grid moves but keeps three points: only the CSV file differs
        ("curve", "--n-start"): (["--n-start", "10"], ["--n-start", "20"]),
        ("curve", "--n-end"): (["--n-end", "100"], ["--n-end", "1000"]),
        ("curve", "--n-points"): (["--n-points", "3"], ["--n-points", "4"]),
        ("curve", "--h-list"): (["--h-list", "1"], ["--h-list", "1,2"]),
        ("curve", "--p-list"): (["--p-list", "1"], ["--p-list", "1,2"]),
        ("curve", "--out"): (["--out", "c.csv"], ["--out", "d.csv"]),
        ("verify", "--n"): (["--n", "6"], ["--n", "7"]),
        ("verify", "--h"): (["--h", "2"], ["--h", "1"]),
        ("verify", "--trials"): ([], ["--trials", "1"]),
        ("verify", "--seed"): ([], ["--seed", "1"]),
    }

    @classmethod
    def produced(cls, capsys, command, option, tokens):
        """Exit code, record without its inputs, and --out file of one run."""
        base = {k: v for k, v in cls.BASE[command].items() if k != option}
        argv = [command, *(t for kv in base.items() for t in kv), *tokens]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        record = json.loads(out) if out else None
        if record:
            del record["inputs"]
        out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        written = out_file.read_text() if out_file and out_file.exists() else None
        if written is not None:
            out_file.unlink()
        return code, record, written

    @pytest.mark.parametrize("command, option", sorted(CASES),
                             ids=lambda v: v.lstrip("-"))
    def test_option_changes_the_output(self, capsys, tmp_path, monkeypatch,
                                       command, option):
        monkeypatch.chdir(tmp_path)  # the curve cases write their CSV here
        a, b = self.CASES[(command, option)]
        assert (self.produced(capsys, command, option, a)
                != self.produced(capsys, command, option, b))

    def test_every_declared_option_has_a_case(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {
            (command, opt)
            for command, p in sub.choices.items() for action in p._actions
            for opt in action.option_strings if opt not in ("-h", "--help", "--format")
        }
        assert declared == set(self.CASES)


class TestParserIsBuiltOnce:
    def test_same_parser_every_call(self):
        assert build_parser() is build_parser()

    def test_import_builds_nothing(self):
        proc = run_python(
            "-c",
            "import shatterbound.cli as c; print(c.build_parser.cache_info().currsize)",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_no_state_carries_between_calls(self, capsys):
        argv = ["bound", "--n", "4", "--eps", "0.5", "--h", "2", "--format", "json"]
        first = run_python("-m", "shatterbound", *argv)
        assert first.returncode == 0, first.stderr
        assert run_cli(capsys, "bound", "--n", "four")[0] == 1
        code, out, _ = run_cli(capsys, *argv, "--clamp")
        assert code == 0 and '"clamp": true' in out
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and '"clamp": false' in out
        assert out == first.stdout


class TestUsageLines:
    """The usage text argparse prints at an 80-column terminal, pinned so
    that declaring options in shared helpers keeps their order. Only the
    usage is compared: help section headings vary across Python versions."""

    USAGE = {
        "": "usage: shatterbound [-h] {coef,bound,solve-n,solve-eps,curve,verify} ...\n",
        "coef": "usage: shatterbound coef [-h] --n N --h H [--p P] [--format {plain,json}]\n",
        "bound": (
            "usage: shatterbound bound [-h] --n N --eps EPS --h H [--p P] [--clamp]\n"
            "                          [--format {plain,json}]\n"
        ),
        "solve-n": (
            "usage: shatterbound solve-n [-h] --delta DELTA --eps EPS --h H [--p P]\n"
            "                            [--ceiling CEILING] [--format {plain,json}]\n"
        ),
        "solve-eps": (
            "usage: shatterbound solve-eps [-h] --n N --delta DELTA --h H [--p P]\n"
            "                              [--format {plain,json}]\n"
        ),
        "curve": (
            "usage: shatterbound curve [-h] --n-start N_START --n-end N_END --n-points\n"
            "                          N_POINTS --h-list H_LIST --p-list P_LIST --out OUT\n"
            "                          [--format {plain,json,csv}]\n"
        ),
        "verify": (
            "usage: shatterbound verify [-h] --n N --h H [--trials TRIALS] [--seed SEED]\n"
            "                           [--format {plain,json}]\n"
        ),
    }

    @pytest.mark.parametrize("command", ["", *COMMANDS])
    def test_usage_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
        assert usage == self.USAGE[command]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_golden_stdout(capsys, tmp_path, monkeypatch, case):
    """Stdout bytes and exit code are the output contract: every subcommand
    in each format, the saturated/vacuous/clamped flags, and a solve-n that
    finds no bracket. The curve cases write c.csv into a temporary cwd."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
