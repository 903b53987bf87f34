"""The command line surface: formats, exit codes, determinism."""

import csv
import io
import json

import pytest

from grhecke import center, cli

from conftest import run_cli, run_cli_json


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
        from grhecke.polyring import IntPoly

        from goldens import GOLDEN

        doc = run_cli_json("table", "--n", "5", "--max-size", "4")
        rows = {(tuple(e["lambda"]), tuple(e["mu"])): {
            tuple(c["nu"]): tuple(int(x) for x in c["k"]) for c in e["coords"]}
            for e in doc["entries"]}
        for (n, lam, mu), want in GOLDEN.items():
            if n != 5:
                continue
            assert rows[(lam, mu)] == want


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


class TestFit:
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

    def test_missing_subcommand(self):
        code, _ = run_cli()
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--jobs", "0", "table", "--n", "3", "--max-size", "2"),
        ("table", "--n", "3", "--max-size", "2", "--jobs", "-1"),
        ("verify", "--n", "3", "--max-size", "2", "--er", "-1"),
        ("verify", "--n", "4", "--max-size", "2", "--er", "4"),
        ("verify", "--n", "0", "--max-size", "1"),
        ("verify", "--n", "-1", "--max-size", "1"),
        ("mult", "--n", "0", "--lambda", "1", "--mu", "1"),
        ("mult", "--n", "-2", "--lambda", "1", "--mu", "1"),
    ], ids=["jobs-0", "jobs-negative-after-subcommand", "er-negative", "er-at-rank",
            "verify-rank-0", "verify-rank-negative", "mult-rank-0", "mult-rank-negative"])
    def test_out_of_range_count(self, argv):
        assert run_cli(*argv) == (2, "")

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

    def test_cache_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
        code, _ = run_cli("gamma", "--n", "3", "--lambda", "1")
        assert code == 0
        assert list(tmp_path.glob("gamma_n3_*.json"))
        center.clear_caches()
