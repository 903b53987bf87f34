"""Acceptance suite.

Every criterion is exercised at its stated tolerance (exact arithmetic, so
every comparison is bit-exact) and prints one PASS/FAIL line. Criteria that
name command line invocations run through the command line; rank budgets
are asserted with wall-clock checks.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from grhecke.center import m_sym_in_gamma
from grhecke.coxeter import fits_rank, partitions_up_to
from grhecke.polyring import NPoly, RatPoly

from conftest import child_env, run_cli, run_cli_json
from goldens import GOLDEN


def _criterion(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _coords_from_json(doc):
    return {tuple(e["nu"]): tuple(int(c) for c in e["k"]) for e in doc["coords"]}


@pytest.fixture(scope="module")
def verify_outputs():
    """One `verify` run per rank, shared by criteria 4, 5, 7, 8, 9."""
    results = {}
    for n in (3, 4, 5, 6):
        t0 = time.monotonic()
        code, out = run_cli("verify", "--n", str(n), "--max-size", "4")
        results[n] = (code, out, time.monotonic() - t0)
    return results


@pytest.fixture(scope="module")
def universal_output():
    t0 = time.monotonic()
    code, out = run_cli("universal", "--max-grade", "3")
    return code, out, time.monotonic() - t0


def test_criterion_01_golden_n3(self=None):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "grhecke", "mult", "--n", "3",
         "--lambda", "1", "--mu", "1", "--format", "pretty"],
        capture_output=True, text=True, env=child_env(),
    )
    elapsed = time.monotonic() - t0
    ok = (proc.returncode == 0
          and proc.stdout.strip() == "(x^2+3)*G[2] + 2x*G[1] + 3*G[]"
          and elapsed < 1.0)
    _criterion(1, "golden n=3 product via CLI", ok,
               f"rc={proc.returncode} out={proc.stdout!r} t={elapsed:.2f}s")


def test_criterion_02_golden_n4():
    t0 = time.monotonic()
    ok = True
    for (n, lam, mu), want in GOLDEN.items():
        if n != 4:
            continue
        doc = run_cli_json("mult", "--n", "4",
                           "--lambda", ",".join(map(str, lam)),
                           "--mu", ",".join(map(str, mu)))
        ok &= _coords_from_json(doc) == want
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _criterion(2, "golden n=4 products via CLI", ok, f"t={elapsed:.2f}s")


def test_criterion_03_golden_n5():
    t0 = time.monotonic()
    ok = True
    for (n, lam, mu), want in GOLDEN.items():
        if n != 5:
            continue
        doc = run_cli_json("mult", "--n", "5",
                           "--lambda", ",".join(map(str, lam)),
                           "--mu", ",".join(map(str, mu)))
        ok &= _coords_from_json(doc) == want
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    _criterion(3, "golden n=5 products via CLI", ok, f"t={elapsed:.2f}s")


def test_criterion_04_positivity_parity(verify_outputs):
    ok = all(
        code in (0, 1) and f"PASS structure-constants n={n} max_size=4" in out
        for n, (code, out, _) in verify_outputs.items()
    )
    _criterion(4, "positivity and parity, n=3..6, sizes<=4", ok)


def test_criterion_05_filtration(verify_outputs):
    # the structure-constants suite expands every product against the basis
    # truncated at |lam|+|mu|; a support violation would be a witness
    ok = all(
        "WITNESS" not in out and code == 0
        for code, out, _ in verify_outputs.values()
    )
    _criterion(5, "filtration support bound, n=3..6, sizes<=4", ok)


def test_criterion_06_top_degree_stability(universal_output):
    code, out, elapsed = universal_output
    ok = code == 0 and elapsed < 600.0
    if ok:
        doc = json.loads(out)
        rows = {(tuple(e["lambda"]), tuple(e["mu"])): {
            tuple(p["nu"]): tuple(int(c) for c in p["k"]) for p in e["products"]}
            for e in doc["graded_table"]}
        # the rank-stable grade-2 and grade-3 leading constants
        ok &= rows[((1,), (1,))] == {(2,): (3, 0, 1), (1, 1): (2, 0, 1)}
        ok &= rows[((1,), (2,))][(3,)] == (4, 0, 4, 0, 1)
        ok &= rows[((1,), (1, 1))][(3,)] == (2, 0, 1)
    _criterion(6, "top-degree constants agree across ranks", ok,
               f"rc={code} t={elapsed:.1f}s")


def test_criterion_07_zero_specialization(verify_outputs):
    ok = all(
        f"PASS zero-specialization-oracle n={n} max_size=4" in out
        for n, (_, out, _) in verify_outputs.items()
    )
    _criterion(7, "x=0 oracle agreement, n<=6, sizes<=4", ok)


def test_criterion_08_characterization(verify_outputs):
    ok = all(
        f"PASS characterization n={n} up_to=4" in out
        for n, (_, out, _) in verify_outputs.items()
    )
    _criterion(8, "characterization of every class element, n<=6", ok)


def test_criterion_09_elementary_sums(verify_outputs):
    ok = True
    for n in (3, 4, 5):
        _, out, _ = verify_outputs[n]
        r_max = min(4, n - 1)
        ok &= f"PASS elementary-sums n={n} r_max={r_max}" in out
    _criterion(9, "elementary symmetric sums identity, n<=5", ok)


def test_criterion_10_monomial_expansion():
    """Three clauses, asserted exactly as required.

    The support bound and the top-degree stability hold. The required
    clause "diagonal coefficient equals 1" is false for the objects it
    quantifies over: an exact hand computation of L_2^2 + L_3^2 in H_3
    (reproduced in the engine and in tests/test_center.py) gives
    m_(2) = 3 + 2x*gamma_(1) + (1+x^2)*gamma_(2), so the diagonal is
    1 + x^2, uniformly in n. The clause is asserted anyway and fails
    honestly rather than being weakened to fit.
    """
    ok = True
    details = []
    for lam in partitions_up_to(3):
        per_rank = {}
        for n in (4, 5, 6):
            coords = m_sym_in_gamma(lam, n)
            if not all(sum(mu) <= sum(lam) for mu in coords.coords):
                ok = False
                details.append(f"support violation for {lam} at n={n}")
            if fits_rank(lam, n) and coords.get(lam).coeffs != (1,):
                ok = False
                details.append(
                    f"diagonal for {lam} at n={n} is "
                    f"{coords.get(lam)}, stated as 1"
                )
            per_rank[n] = {mu: c for mu, c in coords.coords.items()
                           if sum(mu) == sum(lam)}
        for mu in partitions_up_to(3):
            if sum(mu) != sum(lam):
                continue
            vals = {per_rank[n].get(mu) for n in (4, 5, 6) if fits_rank(mu, n)}
            vals = {v for v in vals if v is not None} or {None}
            if len(vals) != 1:
                ok = False
                details.append(f"top-degree value varies for {lam}->{mu}")
    _criterion(10, "monomial expansion coefficients suite", ok, "; ".join(details))


def test_criterion_11_one_row_matrices(universal_output):
    code, out, _ = universal_output
    ok = code == 0
    if ok:
        doc = json.loads(out)
        for entry in doc["one_row_matrices"]:
            ok &= entry["invertible"]
            ok &= entry["dominance_triangular_at_zero"]
            ok &= all(entry["zero_diagonal"])
        ok &= [e["k"] for e in doc["one_row_matrices"]] == [1, 2, 3]
    _criterion(11, "one-row product matrices invertible, k<=3", ok)


def test_criterion_12_polynomial_fits():
    ok = True
    details = []
    t0 = time.monotonic()
    for nu in partitions_up_to(2):
        doc = run_cli_json("fit", "--lambda", "1", "--mu", "1",
                           "--nu", ",".join(map(str, nu)), "--range", "3:6")
        if doc["status"] != "validated" or not doc["validated_at"]:
            ok = False
            details.append(f"fit for nu={nu} did not validate")
            continue
        fit = doc["poly_in_n"]
        if nu == ():
            want = NPoly([RatPoly(()), RatPoly((Fraction(-1, 2),)),
                          RatPoly((Fraction(1, 2),))])
            if fit != want.to_json():
                ok = False
                details.append("empty-class fit is not n(n-1)/2")
        if nu == (1,):
            want = NPoly([RatPoly((0, -1)), RatPoly((0, 1))])
            if fit != want.to_json():
                ok = False
                details.append("transposition fit is not (n-1)x")
    elapsed = time.monotonic() - t0
    _criterion(12, "polynomial-in-n fits validate", ok,
               "; ".join(details) + f" t={elapsed:.1f}s")


def test_criterion_13_determinism(tmp_path):
    ok = True
    for fmt in ("json", "csv"):
        blobs = []
        for jobs in ("1", "8"):
            dest = tmp_path / f"table-{fmt}-{jobs}"
            code, _ = run_cli("--jobs", jobs, "table", "--n", "4",
                              "--max-size", "4", "--format", fmt,
                              "--out", str(dest))
            ok &= code == 0
            blobs.append(dest.read_bytes())
        ok &= blobs[0] == blobs[1]
    _criterion(13, "byte-identical exports across --jobs", ok)
