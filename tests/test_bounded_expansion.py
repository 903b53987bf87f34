"""
Products built from their factors only: `expand_in_gamma` with a size bound
above its basis reads a marked product's coordinates at the class reps,
without the class elements of the larger sizes. The oracle is the expansion
on the whole basis through the bound, the path every other input takes.
"""

import pytest

from grhecke import center, hecke
from grhecke.center import (
    expand_in_gamma, gamma_basis, structure_constants, verify_gamma_characterization,
    verify_structure_constants,
)
from grhecke.errors import BasisIncompleteError
from grhecke.hecke import HeckeElt, is_central, mul, unit
from grhecke.polyring import IntPoly

from conftest import run_cli

ONE = IntPoly.const(1)


def no_basis(n, up_to):
    raise AssertionError(f"gamma_basis({n}, {up_to}) was built")


def ordered_pairs(n, size):
    """Every ordered pair of classes of S_n with |lam| + |mu| <= size."""
    gamma = gamma_basis(n, size).gamma
    return [(lam, mu) for lam in gamma for mu in gamma if sum(lam) + sum(mu) <= size]


def assert_bounded_matches_full(n, pairs, monkeypatch):
    gamma = gamma_basis(n, 4).gamma
    cases = []
    for lam, mu in pairs:
        bound = sum(lam) + sum(mu)
        product = mul(gamma[lam], gamma[mu])
        want = expand_in_gamma(product, gamma_basis(n, bound))
        cases.append((lam, mu, product, gamma_basis(n, max(sum(lam), sum(mu))), want))
    calls = []
    linear_combination = hecke.linear_combination
    monkeypatch.setattr(hecke, "linear_combination",
                        lambda n, summands: calls.append(n) or linear_combination(n, summands))
    for lam, mu, product, factors, want in cases:
        bound = sum(lam) + sum(mu)
        with monkeypatch.context() as patch:
            if bound > factors.up_to:
                patch.setattr(center, "gamma_basis", no_basis)
            got = expand_in_gamma(product, factors, bound)
        assert got == want, (lam, mu, n)
        assert list(got.coords) == list(want.coords), (lam, mu, n)
    assert not calls


@pytest.mark.parametrize("n", range(1, 8))
def test_bounded_expansion_equals_the_full_basis(n, monkeypatch):
    assert_bounded_matches_full(n, ordered_pairs(n, 4), monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("n", [8, 9])
def test_grade_four_at_ranks_eight_and_nine(n, monkeypatch):
    pairs = [(lam, mu) for lam, mu in ordered_pairs(n, 4) if sum(lam) + sum(mu) == 4]
    assert_bounded_matches_full(n, pairs, monkeypatch)


def test_a_table_builds_no_class_of_the_top_size(monkeypatch, fresh_memos):
    built = []
    gamma_element = center.gamma_element
    monkeypatch.setattr(center, "gamma_element",
                        lambda lam, n: built.append(lam) or gamma_element(lam, n))
    table = center.build_struct_table(7, 4)
    assert built and max(map(sum, built)) == 3
    assert center._bases[7].up_to == 3
    sizes = {sum(nu) for _, _, coords in table.entries for nu in coords.coords}
    assert max(sizes) == 4


def test_verify_still_builds_and_checks_every_class(monkeypatch, fresh_memos):
    built = []
    gamma_element = center.gamma_element
    monkeypatch.setattr(center, "gamma_element",
                        lambda lam, n: built.append(lam) or gamma_element(lam, n))
    assert verify_gamma_characterization(6, 4).ok
    assert built == center._candidate_classes(4, 6)
    code, out = run_cli("verify", "--n", "6", "--max-size", "4")
    assert code == 0
    assert out.splitlines() == [
        "PASS structure-constants n=6 max_size=4 (checks=119)",
        "PASS characterization n=6 up_to=4 (checks=760)",
        "PASS zero-specialization-oracle n=6 max_size=4 (checks=19)",
        "PASS elementary-sums n=6 r_max=4 (checks=4)",
    ]


def test_an_unmarked_product_forms_the_whole_residual(monkeypatch):
    n = 6
    pairs = [(lam, mu) for lam, mu in ordered_pairs(n, 4) if lam and mu]
    want = [center._product_coords(lam, mu, n) for lam, mu in pairs]
    gamma_basis(n, 4)  # so that no class element is built under the patch
    calls = []
    linear_combination = hecke.linear_combination
    monkeypatch.setattr(hecke, "linear_combination",
                        lambda n, summands: calls.append(n) or linear_combination(n, summands))
    monkeypatch.setattr(center, "mul", lambda h1, h2: HeckeElt(h1.n, mul(h1, h2).terms))
    got = [center._product_coords(lam, mu, n) for lam, mu in pairs]
    assert got == want
    assert [list(c.coords) for c in got] == [list(c.coords) for c in want]
    assert len(calls) == len(pairs)


def test_a_marked_product_outside_the_bound_raises_todays_message(monkeypatch):
    # gamma_(1) gamma_(1) + gamma_(3), marked central, is 1 at the rep of
    # (3): the bounded read falls through to the whole basis through size 2
    basis = gamma_basis(4, 3)
    g1, extra = basis.gamma[(1,)], basis.gamma[(3,)]

    def forged(h1, h2):
        h = mul(h1, h2)
        if h1 is g1 and h2 is g1:
            h = h + extra
            assert is_central(h)
        return h

    monkeypatch.setattr(center, "_struct_memo", {})
    monkeypatch.setattr(center, "mul", forged)
    message = "element is not in the span of the basis through size 2 (residual has 13 terms)"
    with pytest.raises(BasisIncompleteError) as raised:
        center._product_coords((1,), (1,), 4)
    assert str(raised.value) == message
    assert verify_structure_constants(4, 2).witnesses == [
        f"support of gamma_(1,) gamma_(1,) exceeds size 2 at n=4: {message}"]


def test_callers_cannot_alter_memoized_values(fresh_memos):
    n = 5
    want_basis = dict(gamma_basis(n, 3).gamma)
    want_table = center.build_struct_table(n, 4)
    entries = list(want_table.entries)
    want_product = center._product_coords((1,), (2,), n)
    handed = gamma_basis(n, 3)
    handed.gamma[(1,)] = unit(n)
    del handed.gamma[(2,)]
    want_table.entries.clear()
    center._struct_memo.clear()
    assert gamma_basis(n, 3).gamma == want_basis
    assert center._product_coords((1,), (2,), n) == want_product
    assert center.build_struct_table(n, 4).entries == entries
    assert structure_constants((1,), (2,), n) == want_product
    with pytest.raises(AttributeError):
        want_product.coords = {}
    with pytest.raises(TypeError):
        want_product.coords[(1,)] = ONE
