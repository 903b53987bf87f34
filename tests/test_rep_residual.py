"""
The expansion of certified central elements, whose residual is checked at
the sweep plan's class reps, against the expansion that forms it in full.
"""

import pickle

import pytest

from grhecke import hecke
from grhecke.center import GammaBasis, expand_in_gamma, gamma_basis
from grhecke.errors import BasisIncompleteError, InvalidInputError
from grhecke.hecke import HeckeElt, mul, t_basis
from grhecke.polyring import IntPoly


def unmarked(h):
    """An uncertified copy of h: `expand_in_gamma` forms its whole residual."""
    return HeckeElt._raw(h.n, dict(h.terms))


def count_linear_combinations(monkeypatch):
    calls = []
    linear_combination = hecke.linear_combination
    monkeypatch.setattr(hecke, "linear_combination",
                        lambda n, summands: calls.append(n) or linear_combination(n, summands))
    return calls


@pytest.mark.parametrize("n", range(1, 8))
def test_rep_route_agrees_with_the_full_residual(n, monkeypatch):
    gamma = gamma_basis(n, 4).gamma
    cases = []
    for lam in gamma:
        for mu in gamma:
            if sum(lam) + sum(mu) <= 4:
                basis = gamma_basis(n, sum(lam) + sum(mu))
                product = mul(gamma[lam], gamma[mu])
                cases.append((lam, mu, basis, product, expand_in_gamma(unmarked(product), basis)))
    calls = count_linear_combinations(monkeypatch)
    for lam, mu, basis, product, want in cases:
        assert product._central
        assert expand_in_gamma(product, basis) == want, (lam, mu, n)
    assert not calls


def test_marked_product_outside_the_basis_raises_as_unmarked():
    basis = gamma_basis(4, 1)
    g = basis.gamma[(1,)]
    product = mul(g, g)
    assert product._central
    with pytest.raises(BasisIncompleteError) as marked:
        expand_in_gamma(product, basis)
    with pytest.raises(BasisIncompleteError) as full:
        expand_in_gamma(unmarked(product), basis)
    assert str(marked.value) == str(full.value) == (
        "element is not in the span of the basis through size 1 (residual has 16 terms)")


def test_marked_element_over_an_unmarked_basis_forms_the_residual(monkeypatch):
    basis = gamma_basis(5, 2)
    g = basis.gamma[(1,)]
    product = mul(g, g)
    want = expand_in_gamma(product, basis)
    copies = GammaBasis(n=5, up_to=2, gamma={
        lam: pickle.loads(pickle.dumps(elt)) for lam, elt in basis.gamma.items()})
    assert not any(elt._central for elt in copies.gamma.values())
    calls = count_linear_combinations(monkeypatch)
    assert expand_in_gamma(product, copies) == want
    assert calls == [5]


def test_unmarked_element_equal_at_the_reps_is_not_trusted():
    # x^2 T_w0 added to a certified product changes no value at a rep, since
    # w0 is not of minimal length in its class, but leaves the center
    basis = gamma_basis(4, 2)
    g = basis.gamma[(1,)]
    h = mul(g, g) + t_basis((4, 3, 2, 1)).scale(IntPoly((0, 0, 1)))
    assert not h._central
    with pytest.raises(InvalidInputError, match="requires a central element"):
        expand_in_gamma(h, basis)
