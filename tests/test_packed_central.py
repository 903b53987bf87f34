"""`hecke.is_central` on packed indices against the IntPoly generator steps it replaced."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import intpoly_fold
from grhecke import center, hecke
from grhecke.coxeter import identity, min_rep, partitions_up_to
from grhecke.hecke import (
    HeckeElt, e_sym, is_central, jucys_murphy, m_sym, t_basis, unit, zero,
)
from grhecke.polyring import IntPoly

XI = IntPoly.xi()


def agree(h):
    got = is_central(h)
    assert got == intpoly_fold.is_central(h), h
    return got


def max_norm(h):
    return max(sum(map(abs, c.coeffs)) for c in h.terms.values())


def class_elements(n):
    """Every gamma_lam and every m_lam with |lam| <= 4 in H_n."""
    gamma = center.gamma_basis(n, 4).gamma
    return list(gamma.values()) + [m_sym(lam, n) for lam in partitions_up_to(4)]


@pytest.mark.parametrize("n", range(1, 8))
def test_class_elements_and_perturbations_match_oracle(n):
    for h in class_elements(n):
        assert agree(h)
        # the unit is central, so this perturbation keeps h central
        assert agree(h + unit(n))
        # x T_w is not, for w not the identity and n >= 3 (H_1 and H_2 are
        # commutative)
        top = h.sorted_terms()[-1][0] if h else tuple(range(n, 0, -1))
        perturbed = HeckeElt(n, {**h.terms, top: h.coeff(top) + XI})
        assert agree(perturbed) == (top == identity(n) or n <= 2)


@pytest.mark.parametrize("n", range(1, 5))
def test_single_basis_elements_and_zero_match_oracle(n):
    assert agree(zero(n))
    for w in permutations(range(1, n + 1)):
        assert agree(t_basis(w)) == (w == identity(n) or n <= 2)


X = 2 ** 20


@pytest.mark.parametrize("n", range(3, 6))
def test_no_aliasing_at_the_norm_width(n):
    # h = 2 gamma + (x - X) T_w takes the value of the central 2 gamma at
    # x = X, and max_w |h[w]|_1 = X - 1 at the minimal element w: packing
    # at 2^B, B = (max_w |h[w]|_1).bit_length(), would call h central
    for lam, g in center.gamma_basis(n, 4).gamma.items():
        if lam:
            w = min_rep(lam, n)
            h = g.scale(2) + HeckeElt(n, {w: IntPoly((-X, 1))})
            assert max_norm(h) == X - 1
            assert not agree(h)


def test_no_aliasing_at_twice_the_norm_width():
    # in H_3, h = c (x gamma_(1) + gamma_(2)) + (x - X) x T_w0 with c = 3X/8
    # takes the value of the central first part at x = X, and its largest
    # |h[w]|_1 is c, so packing at 2^B, B = (2 c).bit_length(), would call
    # it central: the coefficient 2c x at w0 wraps to x^2 - (X/4) x
    gamma = center.gamma_basis(3, 2).gamma
    c = IntPoly.const(3 * X // 8)
    h = hecke.linear_combination(3, [
        (c * XI, gamma[(1,)]), (c, gamma[(2,)]), (IntPoly((0, -X, 1)), t_basis((3, 2, 1))),
    ])
    assert (2 * max_norm(h)).bit_length() == 20
    assert not agree(h)


@st.composite
def near_central_elements(draw):
    """A combination of class elements with coefficients in +-2^100, plus
    up to two terms that usually break centrality."""
    n = draw(st.integers(1, 5))
    big = st.integers(-(2 ** 100), 2 ** 100)
    polys = st.lists(big, max_size=3).map(IntPoly)
    gamma = list(center.gamma_basis(n, 4).gamma.values())
    h = hecke.linear_combination(n, [(draw(polys), g) for g in gamma])
    perms = list(permutations(range(1, n + 1)))
    extra = draw(st.lists(st.sampled_from(perms), max_size=2, unique=True))
    return h + HeckeElt(n, {w: draw(polys) for w in extra})


@settings(max_examples=150, deadline=None)
@given(near_central_elements())
def test_random_elements_match_oracle(h):
    agree(h)


def test_large_rank_without_tables():
    n = hecke._DENSE_MAX_RANK + 1
    assert agree(e_sym(1, n))
    # L_n commutes with T_1, ..., T_{n-2}: only the last generator sees it
    assert not agree(jucys_murphy(n, n))
