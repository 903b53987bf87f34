"""`hecke.linear_combination` on packed coefficients against the IntPoly loops it replaced."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import intpoly_fold
from grhecke import center
from grhecke.coxeter import identity, right_gen
from grhecke.errors import InvalidInputError
from grhecke.hecke import HeckeElt, linear_combination, mul, t_basis, unit
from grhecke.polyring import IntPoly

ONE = IntPoly.const(1)
XI = IntPoly.xi()
BIG = 2 ** 100

polys = st.lists(st.integers(-BIG, BIG), max_size=4).map(IntPoly)


def elements(n, draw):
    perms = list(permutations(range(1, n + 1)))
    ws = draw(st.lists(st.sampled_from(perms), max_size=8, unique=True))
    return HeckeElt(n, {w: draw(polys) for w in ws})


@st.composite
def combinations(draw):
    n = draw(st.integers(1, 5))
    base = elements(n, draw)
    summands = []
    for _ in range(draw(st.integers(1, 5))):
        c = draw(polys)
        # reuse the first element now and then, so summands cancel
        h = base if draw(st.booleans()) else elements(n, draw)
        summands.append((draw(st.sampled_from([c, -c])), h))
    return n, summands


@settings(max_examples=150, deadline=None)
@given(combinations())
def test_random_combinations_match_oracle(case):
    n, summands = case
    got = linear_combination(n, summands)
    assert got == intpoly_fold.linear_combination(n, summands)
    assert all(got.terms.values())
    (c, a), (_, b) = summands[0], summands[-1]
    assert a + b == intpoly_fold.add(a, b)
    assert a - b == intpoly_fold.sub(a, b)
    assert a.scale(c) == intpoly_fold.scale(a, c)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cancellation_stores_no_zero(n):
    w = tuple(reversed(range(1, n + 1)))
    h = HeckeElt(n, {w: IntPoly((BIG, -1, 3)), identity(n): IntPoly((-BIG,))})
    g = HeckeElt(n, {w: IntPoly((BIG, -1, 3))})
    assert dict((h - h).terms) == {}
    assert dict((h.scale(XI) - h.scale(XI)).terms) == {}
    assert dict(h.scale(0).terms) == {}
    assert dict((h - g).terms) == {identity(n): IntPoly((-BIG,))}
    big_unit = unit(n).scale(BIG)
    assert dict(linear_combination(n, [(ONE, h), (-ONE, g), (ONE, big_unit)]).terms) == {}


def test_rank_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        unit(2) + unit(3)
    with pytest.raises(InvalidInputError):
        linear_combination(3, [(ONE, unit(3)), (ONE, unit(2))])


@pytest.mark.parametrize("n", range(1, 8))
def test_gamma_product_residuals_vanish_under_oracle(n):
    gamma = center.gamma_basis(n, 4).gamma
    for lam in gamma:
        for mu in gamma:
            if sum(lam) + sum(mu) > 4:
                continue
            coords = center.structure_constants(lam, mu, n).coords
            expansion = intpoly_fold.linear_combination(
                n, [(k, gamma[nu]) for nu, k in coords.items()])
            residual = intpoly_fold.sub(mul(gamma[lam], gamma[mu]), expansion)
            assert not residual.terms, (lam, mu, n)


@st.composite
def generator_steps(draw):
    n = draw(st.integers(2, 5))
    return elements(n, draw), draw(st.integers(1, n - 1))


@settings(max_examples=150, deadline=None)
@given(generator_steps())
def test_generator_steps_match_oracle(case):
    h, i = case
    assert h.right_gen(i) == intpoly_fold.right_gen(h, i)
    assert h.left_gen(i) == intpoly_fold.left_gen(h, i)


@pytest.mark.parametrize("n", [2, 4])
def test_generator_steps_cancel_to_the_unit(n):
    for i in range(1, n):
        s = t_basis(right_gen(identity(n), i))
        inverse = s - unit(n).scale(XI)  # T_s - x
        assert dict(inverse.right_gen(i).terms) == {identity(n): ONE}
        assert dict(inverse.left_gen(i).terms) == {identity(n): ONE}
