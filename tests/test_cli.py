"""The command line surface: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from grhecke import center
from grhecke.errors import ConstructionError, InvalidInputError

from conftest import child_env, run_cli, run_cli_json


class TestMult:
    def test_pretty_golden(self):
        code, out = run_cli("mult", "--n", "3", "--lambda", "1", "--mu", "1",
                            "--format", "pretty")
        assert code == 0
        assert out.strip() == "(x^2+3)*G[2] + 2x*G[1] + 3*G[]"

    def test_json_shape(self):
        doc = run_cli_json("mult", "--n", "3", "--lambda", "1", "--mu", "1")
        assert doc["format"] == 1 and doc["n"] == 3
        assert doc["lambda"] == [1] and doc["mu"] == [1]
        coords = {tuple(e["nu"]): e["k"] for e in doc["coords"]}
        assert coords == {(): ["3"], (1,): ["0", "2"], (2,): ["3", "0", "1"]}

    def test_csv(self):
        code, out = run_cli("mult", "--n", "3", "--lambda", "1", "--mu", "1",
                            "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "mu", "nu", "k_poly"]
        assert ["1", "1", "", "3"] in rows
        assert ["1", "1", "2", "3 + x^2"] in rows

    def test_csv_is_the_matching_table_rows(self):
        code, table = run_cli("table", "--n", "5", "--max-size", "4", "--format", "csv")
        assert code == 0
        header, *rows = table.splitlines()
        for lam, mu in [("1", "1"), ("1", "2"), ("1", "1,1"), ("2", "2"), ("1", "2,1")]:
            code, out = run_cli("mult", "--n", "5", "--lambda", lam, "--mu", mu,
                                "--format", "csv")
            assert code == 0
            want = [r for r in rows if next(csv.reader([r]))[:2] == [lam, mu]]
            assert want, (lam, mu)
            assert out.splitlines() == [header] + want
        # the class of (2,1,1) is empty in S_5, so the product vanishes
        code, out = run_cli("mult", "--n", "5", "--lambda", "2,1,1", "--mu", "1",
                            "--format", "csv")
        assert code == 0 and out == header + "\n"

    def test_vanishing_class_prints_zero(self):
        code, out = run_cli("mult", "--n", "3", "--lambda", "2,1,1", "--mu", "1",
                            "--format", "pretty")
        assert code == 0 and out.strip() == "0"


class TestGamma:
    def test_unit_element(self):
        doc = run_cli_json("gamma", "--n", "4", "--lambda", "")
        assert doc["format"] == 1 and doc["n"] == 4
        assert doc["terms"] == [{"w": [1, 2, 3, 4], "c": ["1"]}]

    def test_three_cycles_n3(self):
        doc = run_cli_json("gamma", "--n", "3", "--lambda", "2")
        assert doc["terms"] == [
            {"w": [2, 3, 1], "c": ["1"]},
            {"w": [3, 1, 2], "c": ["1"]},
            {"w": [3, 2, 1], "c": ["0", "1"]},
        ]


class TestTable:
    def test_csv_rows_for_n3(self):
        code, out = run_cli("table", "--n", "3", "--max-size", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "mu", "nu", "k_poly"]
        assert len(rows) == 4  # header + the three terms of the only product

    def test_empty_table_is_header_only(self):
        code, out = run_cli("table", "--n", "3", "--max-size", "1", "--format", "csv")
        assert code == 0
        assert out == "lambda,mu,nu,k_poly\n"

    def test_json_includes_all_small_pairs(self):
        doc = run_cli_json("table", "--n", "4", "--max-size", "3")
        pairs = {(tuple(e["lambda"]), tuple(e["mu"])) for e in doc["entries"]}
        assert pairs == {((1,), (1,)), ((1,), (2,)), ((1,), (1, 1))}

    def test_out_file(self, tmp_path):
        dest = tmp_path / "table.csv"
        code, _ = run_cli("table", "--n", "3", "--max-size", "2",
                          "--format", "csv", "--out", str(dest))
        assert code == 0
        text = dest.read_text()
        assert text.endswith("\n") and text.startswith("lambda,mu,nu,k_poly")

    def test_n5_table_matches_reference_products(self):
        from goldens import GOLDEN

        doc = run_cli_json("table", "--n", "5", "--max-size", "4")
        rows = {(tuple(e["lambda"]), tuple(e["mu"])): {
            tuple(c["nu"]): tuple(int(x) for x in c["k"]) for c in e["coords"]}
            for e in doc["entries"]}
        for (n, lam, mu), want in GOLDEN.items():
            if n != 5:
                continue
            assert rows[(lam, mu)] == want


# sha256 of `table --n 7 --max-size 12`, every product in the center of H_7,
# with its line count: the pretty form prints coefficient 1 as a bare G[...]
WHOLE_CENTER_N7 = {
    "csv": (1488, "dc129b912443f5ccf0f821b2a151c77c29171fd6783083a22acef54938ddccf0"),
    "pretty": (105, "ec7f485b04d6a31f1ee087be10bac9e6d6771863ce45e6368c4527768f230510"),
}


@pytest.mark.parametrize("fmt", list(WHOLE_CENTER_N7))
def test_whole_center_n7_golden(fmt):
    code, out = run_cli("table", "--n", "7", "--max-size", "12", "--format", fmt)
    assert code == 0
    assert (out.count("\n"), hashlib.sha256(out.encode()).hexdigest()) == WHOLE_CENTER_N7[fmt]


class TestVerify:
    def test_passes_small_rank(self):
        code, out = run_cli("verify", "--n", "3", "--max-size", "2")
        assert code == 0
        assert out.count("PASS") == 4 and "WITNESS" not in out

    def test_exit_one_iff_witness(self, monkeypatch):
        from grhecke.center import CheckReport

        def broken(n, max_size):
            return CheckReport(name="structure-constants", checks=1,
                               witnesses=["injected failure"])

        monkeypatch.setattr(center, "verify_structure_constants", broken)
        code, out = run_cli("verify", "--n", "3", "--max-size", "2")
        assert code == 1
        assert "WITNESS injected failure" in out

    def test_out_file_holds_the_stdout_bytes(self, tmp_path):
        argv = ("verify", "--n", "4", "--max-size", "2")
        code, want = run_cli(*argv)
        dest = tmp_path / "verify.txt"
        code_out, out = run_cli(*argv, "--out", str(dest))
        assert code == code_out == 0 and want.count("PASS") == 4
        assert out == ""
        assert dest.read_bytes() == want.encode()


FIT_GOLDEN = Path(__file__).resolve().parent / "fit_golden"

# stdout of `fit` on each window, byte for byte: the first three fit rational
# coefficients in n, the fourth a constant, and the last exceeds its degree cap
FIT_WINDOWS = {
    "l1_m1_nu0_3-6": ("--lambda", "1", "--mu", "1", "--nu", "", "--range", "3:6"),
    "l1_m2_nu1_3-7": ("--lambda", "1", "--mu", "2", "--nu", "1", "--range", "3:7"),
    "l2_m1_nu0_3-7": ("--lambda", "2", "--mu", "1", "--nu", "", "--range", "3:7"),
    "l11_m1_nu1_4-7": ("--lambda", "1,1", "--mu", "1", "--nu", "1", "--range", "4:7"),
    "l2_m2_nu0_4-7": ("--lambda", "2", "--mu", "2", "--nu", "", "--range", "4:7"),
}


UNIVERSAL_GOLDEN = Path(__file__).resolve().parent / "universal_golden"


class TestUniversalGolden:
    def test_max_grade_three_bytes(self):
        # stdout of `universal --max-grade 3`, byte for byte; the benchmark's
        # reference digest holds the same sha256
        code, out = run_cli("universal", "--max-grade", "3")
        assert code == 0
        golden = (UNIVERSAL_GOLDEN / "max_grade_3.json").read_bytes()
        assert len(golden) == 4914
        assert hashlib.sha256(golden).hexdigest() == (
            "d4a6b2491ada935f07c865d658b465aaebb633843483bce66c2769b3ead86211")
        assert out.encode() == golden


class TestFit:
    @pytest.mark.parametrize("golden", list(FIT_WINDOWS))
    def test_output_golden(self, golden):
        code, out = run_cli("fit", *FIT_WINDOWS[golden])
        assert code == (1 if golden == "l2_m2_nu0_4-7" else 0)
        assert out.encode() == (FIT_GOLDEN / f"{golden}.json").read_bytes()

    def test_validated_fit(self):
        doc = run_cli_json("fit", "--lambda", "1", "--mu", "1", "--nu", "",
                           "--range", "3:6")
        assert doc["status"] == "validated"
        assert doc["rendering"] == "(1/2)*n^2 - (1/2)*n"
        assert doc["support"] == [3, 4, 5] and doc["validated_at"] == [6]

    def test_bad_range_exits_two(self):
        code, _ = run_cli("fit", "--lambda", "1", "--mu", "1", "--nu", "",
                          "--range", "3-6")
        assert code == 2


class TestOracle:
    def test_n3(self):
        doc = run_cli_json("oracle", "--n", "3", "--lambda", "1", "--mu", "1")
        coords = {tuple(e["nu"]): e["count"] for e in doc["coords"]}
        assert coords == {(): 3, (2,): 3}


class TestUniversalCommand:
    def test_grade_two(self):
        doc = run_cli_json("universal", "--max-grade", "2")
        assert doc["format"] == 1
        entry = doc["graded_table"][0]
        assert (entry["lambda"], entry["mu"]) == ([1], [1])
        products = {tuple(p["nu"]): p["k"] for p in entry["products"]}
        assert products == {(2,): ["3", "0", "1"], (1, 1): ["2", "0", "1"]}
        k2 = doc["one_row_matrices"][1]
        assert k2["invertible"] and k2["zero_diagonal"] == [1, 2]

    def test_grade_zero_is_empty(self):
        empty = {"format": 1, "max_grade": 0, "graded_table": [], "one_row_matrices": []}
        assert run_cli("universal", "--max-grade", "0") == (0, json.dumps(empty, indent=2) + "\n")


# command lines with a count out of range: each exits 2 and prints nothing
OUT_OF_RANGE = {
    "jobs-0": ("--jobs", "0", "table", "--n", "3", "--max-size", "2"),
    "jobs-negative-after-subcommand": ("table", "--n", "3", "--max-size", "2", "--jobs", "-1"),
    "verify-rank-0": ("verify", "--n", "0", "--max-size", "1"),
    "verify-rank-negative": ("verify", "--n", "-1", "--max-size", "1"),
    "mult-rank-0": ("mult", "--n", "0", "--lambda", "1", "--mu", "1"),
    "mult-rank-negative": ("mult", "--n", "-2", "--lambda", "1", "--mu", "1"),
    "oracle-rank-0": ("oracle", "--n", "0", "--lambda", "", "--mu", ""),
    "table-rank-0": ("table", "--n", "0", "--max-size", "2"),
    "table-size-negative": ("table", "--n", "3", "--max-size", "-1"),
    "verify-size-negative": ("verify", "--n", "3", "--max-size", "-1"),
    "gamma-rank-0-empty-class": ("gamma", "--n", "0", "--lambda", ""),
    "gamma-rank-0": ("gamma", "--n", "0", "--lambda", "1"),
}

RANK_OUT_OF_RANGE = [case for case in OUT_OF_RANGE
                     if "-rank-0" in case or "-rank-negative" in case]


class TestExitCodes:
    def test_unknown_flag(self):
        code, _ = run_cli("mult", "--n", "3", "--lambda", "1", "--mu", "1",
                          "--bogus")
        assert code == 2

    def test_bad_partition(self):
        code, _ = run_cli("gamma", "--n", "3", "--lambda", "1,x")
        assert code == 2

    def test_nonmonotone_partition(self):
        code, _ = run_cli("gamma", "--n", "5", "--lambda", "1,2")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("gamma", "--n", "3", "--lambda", "1,x"),
         "argument --lambda: cannot parse partition '1,x'"),
        (("mult", "--n", "3", "--lambda", "2,3", "--mu", "1"),
         "argument --lambda: parts must be weakly decreasing: (2, 3)"),
        (("gamma", "--n", "3", "--lambda", "0"),
         "argument --lambda: partition parts must be positive: (0,)"),
        (("fit", "--lambda", "1", "--mu", "1", "--nu", "", "--range", "4:x"),
         "argument --range: cannot parse range '4:x', expected LO:HI"),
    ], ids=["unparsable", "increasing", "zero-part", "range"])
    def test_malformed_argument_keeps_its_message(self, argv, message, capsys):
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err.endswith(f": error: {message}\n")

    def test_verification_failure_exits_one(self, monkeypatch, fresh_memos, capsys):
        def refuse(*args):
            raise ConstructionError("injected certificate failure")

        monkeypatch.setattr(center, "_certify", refuse)
        assert run_cli("gamma", "--n", "4", "--lambda", "1") == (1, "")
        assert capsys.readouterr().err == "verification failure: injected certificate failure\n"

    def test_failed_cache_write_leaves_no_temporary_file(self, monkeypatch, fresh_memos,
                                                         tmp_path, capsys):
        def refuse(src, dst):
            raise OSError(13, "injected", str(dst))

        monkeypatch.setattr(center.os, "replace", refuse)
        code, _ = run_cli("--cache", str(tmp_path), "gamma", "--n", "4", "--lambda", "1")
        assert code == 2
        assert capsys.readouterr().err.startswith("io error: ")
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_subcommand(self):
        code, _ = run_cli()
        assert code == 2

    @pytest.mark.parametrize("argv", list(OUT_OF_RANGE.values()), ids=list(OUT_OF_RANGE))
    def test_out_of_range_count(self, argv):
        assert run_cli(*argv) == (2, "")

    @pytest.mark.parametrize("case", RANK_OUT_OF_RANGE)
    def test_out_of_range_rank_has_one_message(self, case, capsys):
        # every command rejects a rank below 1 with the same words
        argv = OUT_OF_RANGE[case]
        rank = argv[argv.index("--n") + 1]
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err == f"error: rank must be positive, got {rank}\n"

    @pytest.mark.parametrize("pairs_of", [
        center.build_struct_table, center.verify_structure_constants,
        center.verify_zero_specialization,
    ])
    def test_out_of_range_table_names_the_value(self, pairs_of):
        with pytest.raises(InvalidInputError, match="^rank must be positive, got 0$"):
            pairs_of(0, 2)
        with pytest.raises(InvalidInputError, match="^max_size must be nonnegative, got -1$"):
            pairs_of(3, -1)

    def test_out_of_range_basis_names_the_value(self):
        with pytest.raises(InvalidInputError, match="^rank must be positive, got 0$"):
            center.gamma_basis(0, 0)
        with pytest.raises(InvalidInputError, match="^up_to must be nonnegative, got -1$"):
            center.gamma_basis(3, -1)

    def test_unwritable_destination(self, tmp_path):
        dest = tmp_path / "no" / "such" / "dir" / "out.csv"
        code, _ = run_cli("table", "--n", "3", "--max-size", "2",
                          "--format", "csv", "--out", str(dest))
        assert code == 2


class TestDeterminism:
    def test_jobs_do_not_change_output(self, tmp_path):
        outputs = []
        for jobs, name in [("1", "a.json"), ("2", "b.json")]:
            dest = tmp_path / name
            code, _ = run_cli("--jobs", jobs, "table", "--n", "4",
                              "--max-size", "3", "--format", "json",
                              "--out", str(dest))
            assert code == 0
            outputs.append(dest.read_bytes())
        assert outputs[0] == outputs[1]

    def test_repeat_runs_identical(self):
        a = run_cli("mult", "--n", "4", "--lambda", "1", "--mu", "2")
        b = run_cli("mult", "--n", "4", "--lambda", "1", "--mu", "2")
        assert a == b


class TestCacheFlag:
    def test_cache_populated_and_used(self, tmp_path):
        code, first = run_cli("--cache", str(tmp_path), "gamma", "--n", "4",
                              "--lambda", "2")
        assert code == 0
        assert list(tmp_path.glob("gamma_n4_*.json"))
        center.clear_caches()
        code, second = run_cli("--cache", str(tmp_path), "gamma", "--n", "4",
                               "--lambda", "2")
        assert code == 0 and first == second
        center.clear_caches()

    def test_table_writes_one_file_per_rank(self, tmp_path):
        code, _ = run_cli("--cache", str(tmp_path), "table", "--n", "4",
                          "--max-size", "3", "--format", "csv")
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["gamma_n4_basis.json"]


def test_import_loads_no_process_pool():
    # the pool is imported only by a table run with --jobs above 1
    script = (
        "import sys, grhecke.cli\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_dataclasses():
    # dataclasses would pull in inspect, ast, dis and tokenize at start-up
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import grhecke.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
