import argparse
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from condorcet import (
    Culture,
    CultureFormatError,
    impartial_culture,
    limiting_probability,
    load_culture_file,
    save_culture,
)
from condorcet.cli import _parse_int_list, build_parser, load_culture, main
from conftest import random_dual_culture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_limit_impartial_m3(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--culture", "ic", "--m", "3", "--format", "table")
        assert code == 0
        assert out == "0.91226\n"

    def test_exact_cyclic(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--culture", "cyclic", "--m", "3", "--n", "3", "--format", "table"
        )
        assert code == 0
        assert out == "0.77778\n"

    def test_exact_csv_full_precision(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--culture", "cyclic", "--m", "3", "--n", "3", "--format", "csv"
        )
        assert code == 0
        header, value = out.strip().splitlines()
        assert header == "value"
        assert abs(float(value) - 7 / 9) < 1e-12

    def test_limit_json_detail(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--culture", "ic", "--m", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["case"] == 1
        assert len(obj["terms"]) == 3
        term = obj["terms"][0]
        assert set(term) >= {"candidate", "deltas", "correlation", "L"}
        assert term["deltas"] == ["0", "0"]
        assert term["correlation"][0][1] == pytest.approx(1 / 3, abs=1e-12)
        assert obj["value"] == pytest.approx(0.9122601719540891, abs=1e-12)

    def test_limit_default_seed_is_the_library_default(self, capsys, tmp_path, rng):
        path = tmp_path / "dual5.csv"
        save_culture(random_dual_culture(rng, 5), path)
        code, out, _ = run_cli(
            capsys, "limit", "--culture", str(path), "--samples", "100000", "--format", "csv"
        )
        assert code == 0
        expected = limiting_probability(load_culture_file(path), mc_samples=100_000).value
        assert out.splitlines()[-1] == str(expected)

    @pytest.mark.parametrize("command", ["limit", "audit"])
    def test_negative_seed_is_a_usage_error(self, capsys, command):
        culture = ["--culture", "ic", "--m", "3"] if command == "limit" else ["--samples", "10"]
        code, out, err = run_cli(capsys, command, *culture, "--seed", "-1")
        assert (code, out) == (2, "")
        assert "seed" in err

    def test_classify(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--culture", "cyclic", "--m", "3", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "case,probability"
        assert out.splitlines()[1].startswith("17,")


class TestTables:
    def test_min_table_matches_reference_cells(self, capsys):
        code, out, _ = run_cli(
            capsys, "min-table", "--m", "3,4,5,10", "--n", "3,4", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,probability,probability_full"
        cells = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
        assert cells[("3", "3")] == "0.7778"
        assert cells[("3", "4")] == "0.6250"
        assert cells[("4", "4")] == "0.2031"
        assert cells[("4", "10")] == "0.0370"

    def test_min_table_range_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "min-table", "--m", "3", "--n", "3-5", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_min_table_pivots_distinct_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "min-table", "--m", "3,3,4", "--n", "5,5", "--format", "table"
        )
        assert code == 0
        assert out == "n    m=3       m=4       \n5    0.6296    0.4141    \n"

    def test_ic_curve(self, capsys):
        code, out, _ = run_cli(capsys, "ic-curve", "--m", "3-5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,probability"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values[0] == pytest.approx(0.9122601719540891, abs=1e-12)
        assert values[0] > values[1] > values[2]

    def test_mc_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc", "--culture", "ic", "--m", "3", "--n", "3,5",
            "--trials", "20000", "--seed", "11", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,estimate,stderr,trials,seed"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "3"
        assert lines[1].endswith(",20000,11")


IC3 = ("--culture", "ic", "--m", "3")
CYCLIC3 = ("--culture", "cyclic", "--m", "3")


class TestOutputShapes:
    """What each output command prints, short of full-precision bytes.

    Full-precision values are not pinned: numpy and scipy builds may differ
    in the last ulp. ``text`` pins the whole output, ``first_line`` matches
    the first line against a regular expression, and ``json_keys`` is the key
    set of the JSON object, or of every row of a JSON list.
    """

    @pytest.mark.parametrize(
        "argv, fmt, part, expected",
        [
            (("exact", *CYCLIC3, "--n", "3"), "json", "json_keys",
             {"value", "method", "m", "n", "mode", "detail"}),
            (("mc", *IC3, "--n", "3,5", "--trials", "2000", "--seed", "11"), "table", "first_line",
             r"n=3  0\.\d{5} \(stderr 0\.\d{5}\)"),
            (("mc", *IC3, "--n", "3,5", "--trials", "2000", "--seed", "11"), "json", "json_keys",
             {"n", "estimate", "stderr", "trials", "seed"}),
            (("limit", *IC3), "json", "json_keys", {"value", "terms", "case"}),
            (("classify", *CYCLIC3), "table", "text", "case 17: 0.00000\n"),
            (("classify", *CYCLIC3), "json", "json_keys", {"case", "value"}),
            (("min-table", "--m", "3,4", "--n", "3-4"), "table", "text",
             "n    m=3       m=4       \n"
             "3    0.7778    0.6250    \n"
             "4    0.3333    0.2031    \n"),
            (("ic-curve", "--m", "3-4"), "table", "text", "m=3    0.91226\nm=4    0.82452\n"),
            (("audit", "--samples", "2000", "--seed", "3"), "table", "first_line",
             r"case  1  formula 0\.91226  mc [01]\.\d{5}  stderr 0\.\d{5}  ok"),
            (("audit", "--samples", "2000", "--seed", "3"), "csv", "first_line",
             r"case,sign_01,sign_02,sign_12,formula,estimate,stderr,pass"),
            (("audit", "--samples", "2000", "--seed", "3"), "json", "json_keys",
             {"case", "signs", "formula", "estimate", "stderr", "pass"}),
        ],
        ids=[
            "exact-json", "mc-table", "mc-json", "limit-json", "classify-table",
            "classify-json", "min-table-table", "ic-curve-table", "audit-table",
            "audit-csv", "audit-json",
        ],
    )
    def test_output(self, capsys, argv, fmt, part, expected):
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        if part == "text":
            assert out == expected
        elif part == "first_line":
            assert re.fullmatch(expected, out.splitlines()[0])
        else:
            obj = json.loads(out)
            for row in obj if isinstance(obj, list) else [obj]:
                assert set(row) == expected


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, capsys):
        argv = ["mc", "--culture", "ic", "--m", "3", "--n", "7", "--trials", "30000", "--format", "csv"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_audit_deterministic_and_passing(self, capsys):
        argv = ["audit", "--samples", "1e5", "--seed", "3", "--format", "csv"]
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        code, second, _ = run_cli(capsys, *argv)
        assert code == 0
        assert first == second
        assert len(first.strip().splitlines()) == 28


class TestCultureHandling:
    def test_named_cultures(self):
        assert load_culture("ic", 4).probs[0] == pytest.approx(1 / 24)
        assert load_culture("cyclic", 3).support().tolist() == [0, 3, 4]

    def test_named_culture_requires_m(self):
        with pytest.raises(CultureFormatError, match="--m"):
            load_culture("ic", None)

    def test_mismatched_m_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        save_culture(impartial_culture(3), path)
        with pytest.raises(CultureFormatError, match="m=3"):
            load_culture(str(path), 4)

    def test_dc_prefix_accepts_symmetric(self, tmp_path):
        path = tmp_path / "ic.json"
        save_culture(impartial_culture(3), path)
        assert load_culture(f"dc:{path}", None).m == 3

    def test_dc_prefix_rejects_asymmetric(self, tmp_path):
        path = tmp_path / "cyc.json"
        save_culture(load_culture("cyclic", 3), path)
        with pytest.raises(CultureFormatError, match="reversal"):
            load_culture(f"dc:{path}", None)

    def test_cli_roundtrip_bit_identical(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        culture = Culture(3, rng.dirichlet(np.ones(6)))
        src = tmp_path / "src.json"
        save_culture(culture, src)
        for fmt in ("json", "csv"):
            out = tmp_path / f"copy.{fmt}"
            code = main(["culture", "--culture", str(src), "--out", str(out), "--format", fmt])
            capsys.readouterr()
            assert code == 0
            reloaded = load_culture_file(out)
            assert np.array_equal(reloaded.probs, culture.probs)

    def test_csv_file_with_deficit_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("order,prob\n0-1,0.5\n1-0,0.499\n")
        code, _, err = run_cli(capsys, "exact", "--culture", str(path), "--n", "3")
        assert code == 2
        assert "0.999" in err


class TestExitCodes:
    def test_budget_exceeded_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--culture", "ic", "--m", "4", "--n", "12")
        assert code == 1
        assert "budget" in err

    @pytest.mark.parametrize("m, n", [("8", "3000"), ("7", "20000")])
    def test_budget_count_beyond_int_to_str_limit_is_exit_1(self, capsys, m, n):
        code, _, err = run_cli(capsys, "exact", "--culture", "ic", "--m", m, "--n", n)
        assert code == 1
        assert "exceed the budget" in err and len(err) < 300

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--culture", "missing.json", "--n", "3")
        assert code == 2
        assert "missing.json" in err

    def test_unknown_flag_is_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["exact", "--culture", "ic", "--m", "3", "--n", "3", "--bogus"])
        assert excinfo.value.code == 2

    def test_nan_culture_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"m": 3, "probs": [NaN, 0.2, 0.2, 0.2, 0.2, 0.2]}')
        code, out, err = run_cli(capsys, "exact", "--culture", str(path), "--n", "5")
        assert code == 2
        assert out == ""
        assert "NaN probability" in err

    @pytest.mark.parametrize(
        "m, message",
        [("9", "candidate count must be in [2, 8], got 9"), ("true", "candidate count must be an integer, got True")],
        ids=["nine", "true"],
    )
    def test_json_candidate_count_error_names_the_file(self, tmp_path, capsys, m, message):
        path = tmp_path / "bad-m.json"
        path.write_text(f'{{"m": {m}, "probs": [0.5, 0.5]}}')
        code, out, err = run_cli(capsys, "limit", "--culture", str(path))
        assert code == 2
        assert out == ""
        assert err == f"condorcet: {path}: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("mc", "--culture", "ic", "--m", "3", "--n", "11", "--trials", "inf"),
            ("limit", "--culture", "ic", "--m", "3", "--samples", "inf"),
            ("exact", "--culture", "ic", "--m", "3", "--n", "3", "--budget", "inf"),
            ("mc", "--culture", "ic", "--m", "3", "--n", "11", "--trials", "100.7"),
        ],
        ids=["trials", "samples", "budget", "trials-non-integer"],
    )
    def test_infinite_count_is_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--budget", "--trials", "--samples"])
    def test_integer_count_text_is_parsed_exactly(self, flag):
        command = {"--budget": "exact", "--trials": "mc", "--samples": "limit"}[flag]
        argv = [command, "--culture", "ic", "--m", "3", *(["--n", "3"] if command != "limit" else [])]
        for text, count in [("9007199254740993", 2**53 + 1), (" +9_007_199_254_740_993 ", 2**53 + 1), ("1e7", 10**7)]:
            assert getattr(build_parser().parse_args([*argv, flag, text]), flag[2:]) == count

    def test_voter_count_beyond_a_c_long_is_exit_2(self, capsys):
        argv = ("mc", "--culture", "ic", "--m", "3", "--n", "99999999999999999999", "--trials", "10")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [
            "condorcet: voter count must be >= 1 and below 2**63, got 99999999999999999999"
        ]

    def test_reversed_range_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mc", "--culture", "ic", "--m", "3", "--n", "3,10-5", "--trials", "10"])
        assert excinfo.value.code == 2
        assert "reversed range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("limit", "--culture", "ic", "--m", "3", "--tol", "-1"),
            ("limit", "--culture", "cyclic", "--m", "3", "--tol", "nan"),
            ("classify", "--culture", "ic", "--m", "3", "--tol", "-1"),
            ("limit", "--culture", "cyclic", "--m", "3", "--tol", "inf"),
            ("classify", "--culture", "cyclic", "--m", "3", "--tol", "inf"),
        ],
        ids=["limit-negative", "limit-nan", "classify-negative", "limit-inf", "classify-inf"],
    )
    def test_bad_tolerance_is_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    def test_int_list_skips_empty_items_and_needs_one_integer(self):
        assert _parse_int_list("3,,5") == [3, 5]
        with pytest.raises(argparse.ArgumentTypeError, match="no integers in ','"):
            _parse_int_list(",")

    def test_unwritable_out_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "ic-curve", "--m", "3", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("condorcet: ") and str(path) in err
        assert err.count("\n") == 1

    def test_unwritable_culture_out_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "culture", "--culture", "ic", "--m", "3", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("condorcet: ") and str(path) in err
        assert err.count("\n") == 1

    def test_classify_wrong_m_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--culture", "ic", "--m", "4")
        assert code == 2
        assert "m=3" in err


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "condorcet", "limit", "--culture", "ic", "--m", "3",
             "--format", "table"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "0.91226\n"
