"""
The x = 0 oracle and the element checks against their tuple forms in
tuple_oracle.py: exact agreement of `class_sum_oracle` at every n <= 7 for
every pair with |lam| + |mu| <= 4, and the same witnesses and check counts
from `_element_witnesses` on genuine and forged class elements.
"""

import pytest

import tuple_oracle
from grhecke import center, coxeter
from grhecke.center import class_sum_oracle, gamma_basis
from grhecke.coxeter import fits_rank, partitions_up_to
from grhecke.hecke import HeckeElt
from grhecke.polyring import IntPoly

XI = IntPoly.xi()


@pytest.mark.parametrize("n", range(1, 8))
def test_class_sum_oracle_matches_tuple_reference(n):
    classes = [lam for lam in partitions_up_to(4) if fits_rank(lam, n)]
    pairs = [(lam, mu) for lam in classes for mu in classes if sum(lam) + sum(mu) <= 4]
    assert pairs
    for lam, mu in pairs:
        assert class_sum_oracle(lam, mu, n) == tuple_oracle.class_sum_oracle(lam, mu, n)


def _forged():
    """(lam, n, element, up_to): each check of `_element_witnesses` failing at least once."""
    basis = gamma_basis(4, 3).gamma
    g1, g2, g3 = basis[(1,)], basis[(2,)], basis[(3,)]
    # even length, not minimal in its class: only centrality sees it
    w = next(w for w, _ in g2.sorted_terms() if coxeter.length(w) % 2 == 0
             and w not in coxeter.minimal_length_elements(coxeter.modified_cycle_type(w), 4))
    return [
        ((1,), 4, HeckeElt(4, {**g1.terms, (2, 1, 3, 4): IntPoly.const(2)}), 2),
        ((2,), 4, HeckeElt(4, {**g2.terms, w: g2.coeff(w) + IntPoly.const(2) * XI * XI}), 3),
        ((1,), 4, g1 + g1.scale(XI), 0),
        ((1,), 4, g1.scale(2), 2),
        ((1,), 4, g1 + g3, 3),
        ((1,), 4, g1 + g2.scale(XI), 2),
        ((2,), 4, g1, 3),
    ]


def test_element_checks_match_tuple_reference():
    forged = _forged()
    for lam, n, elt, up_to in forged:
        got = center._element_witnesses(lam, n, elt, up_to)
        assert got[0], (lam, elt)
        assert got == tuple_oracle.element_witnesses(lam, n, elt, up_to)
    for n in (4, 5, 6):
        basis = gamma_basis(n, 3)
        for lam, elt in basis.gamma.items():
            got = center._element_witnesses(lam, n, elt, 3)
            assert got == tuple_oracle.element_witnesses(lam, n, elt, 3)
            assert not got[0]
