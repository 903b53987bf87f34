"""`hecke.is_central` on packed indices against the IntPoly generator steps it replaced."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import intpoly_fold
from grhecke import center, coxeter, hecke
from grhecke.coxeter import compose, identity, inverse, min_rep, partitions_up_to, right_gen
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


def mirror(h):
    """The diagram automorphism T_w -> T_{w0 w w0}."""
    w0 = tuple(range(h.n, 0, -1))
    return HeckeElt(h.n, {compose(w0, compose(w, w0)): c for w, c in h.terms.items()})


def orbit_sum(w):
    """The sum of T_u over the orbit of w under inversion and conjugation by w0:
    an element fixed by both symmetries that `is_central` checks first."""
    w0 = tuple(range(len(w), 0, -1))
    orbit = {u for v in (w, inverse(w)) for u in (v, compose(w0, compose(v, w0)))}
    h = hecke.linear_combination(len(w), [(IntPoly.const(1), t_basis(u)) for u in orbit])
    assert h.transpose() == h == mirror(h)
    return h


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
    # at 2^B, B = (max_w |h[w]|_1).bit_length(), would call h central. With
    # the orbit sum of w in place of T_w, h has both symmetries and takes
    # the one-step path on half the generators; the orbit holds only
    # minimal elements of the class, so the norm is the same
    for lam, g in center.gamma_basis(n, 4).gamma.items():
        if lam:
            w = min_rep(lam, n)
            for t in (t_basis(w), orbit_sum(w)):
                h = g.scale(2) + t.scale(IntPoly((-X, 1)))
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
    n = coxeter._DENSE_MAX_RANK + 1
    assert agree(e_sym(1, n))
    # L_n commutes with T_1, ..., T_{n-2}: only the last generator sees it
    assert not agree(jucys_murphy(n, n))


@pytest.mark.parametrize("n", range(3, 8))
def test_symmetric_perturbations_match_oracle(n):
    # gamma + x (orbit sum of w) is fixed by both symmetries; it is central
    # only for w the identity, as no orbit is a union of classes for n >= 3
    for lam, g in center.gamma_basis(n, 4).gamma.items():
        for w in {min_rep(lam, n), g.sorted_terms()[-1][0]}:
            h = g + orbit_sum(w).scale(XI)
            assert agree(h) == (w == identity(n))


def test_elements_with_one_symmetry_match_oracle():
    for n in range(3, 8):
        # L_n is its own transpose but not mirrored, and commutes with
        # T_1, ..., T_{n-2}: the generators i <= n/2 alone would pass it
        h = jucys_murphy(n, n)
        assert h.transpose() == h != mirror(h)
        assert not agree(h)
    for n in range(4, 8):
        # mirrored but not its own transpose
        w = right_gen(right_gen(identity(n), 1), 2)
        for g in center.gamma_basis(n, 4).gamma.values():
            h = g + (t_basis(w) + mirror(t_basis(w))).scale(XI)
            assert mirror(h) == h != h.transpose()
            assert not agree(h)


def test_one_step_alone_would_pass_a_non_symmetric_element():
    # h = T_{s1 s2} - x T_{s1} in H_3: every h T_i is its own transpose, so
    # comparing h T_i with (h T_i)^t alone would call h central
    h = HeckeElt(3, {(2, 3, 1): IntPoly.const(1), (2, 1, 3): -XI})
    assert all(h.right_gen(i) == h.right_gen(i).transpose() for i in (1, 2))
    assert h != h.transpose()
    assert not agree(h)


def test_step_counts(monkeypatch):
    n = 7
    steps = []
    step = hecke._step
    monkeypatch.setattr(hecke, "_step", lambda vec, row, width: steps.append(row) or step(vec, row, width))
    counts = []
    for h in (
        center.gamma_basis(n, 2).gamma[(2,)],  # both symmetries: one step for i <= 3
        jucys_murphy(n, n),  # its own transpose: one step for each i, failing at 6
        t_basis((1, 2, 3, 4, 6, 7, 5)),  # T_{s5 s6}, neither: two steps for i <= 4
    ):
        steps.clear()
        is_central(h)
        counts.append(len(steps))
    assert counts == [3, 6, 8]
