"""`hecke.mul` on packed coefficients against the IntPoly fold it replaced."""

import random
import tracemalloc
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import intpoly_fold
from grhecke import center, coxeter, hecke
from grhecke.coxeter import identity, reduced_word, right_gen
from grhecke.hecke import HeckeElt, e_sym, is_central, jucys_murphy, mul, t_basis, unit
from grhecke.polyring import IntPoly

XI = IntPoly.xi()


@pytest.mark.parametrize("n", range(1, 8))
def test_gamma_products_match_oracle(n):
    gamma = center.gamma_basis(n, 4).gamma
    pairs = [(lam, mu) for lam in gamma for mu in gamma if sum(lam) + sum(mu) <= 4]
    for lam, mu in pairs:
        a, b = gamma[lam], gamma[mu]
        assert mul(a, b) == intpoly_fold.mul(a, b), (lam, mu, n)


@st.composite
def element_pairs(draw):
    n = draw(st.integers(1, 5))
    perms = list(permutations(range(1, n + 1)))
    coeffs = st.lists(st.integers(-(2 ** 100), 2 ** 100), max_size=4).map(IntPoly)

    def element():
        ws = draw(st.lists(st.sampled_from(perms), max_size=8, unique=True))
        return HeckeElt(n, {w: draw(coeffs) for w in ws})

    return element(), element()


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_random_products_match_oracle(pair):
    a, b = pair
    assert mul(a, b) == intpoly_fold.mul(a, b)
    assert mul(b, a) == intpoly_fold.mul(b, a)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cancellation_leaves_exactly_the_unit(n):
    for i in range(1, n):
        s = t_basis(right_gen(identity(n), i))
        h = s - unit(n).scale(XI)  # T_s - x, the inverse of T_s
        for got in (mul(h, s), mul(s, h)):
            assert got == unit(n)
            assert dict(got.terms) == {identity(n): IntPoly.const(1)}


def test_mixed_signs_beyond_64_bits():
    big = 2 ** 70
    a = HeckeElt(4, {
        (2, 1, 3, 4): IntPoly((big, -3 * big, 0, 5)),
        (1, 3, 2, 4): IntPoly((-big + 1, 0, big)),
        (2, 3, 4, 1): IntPoly((7, -big)),
    })
    b = HeckeElt(4, {
        (2, 1, 3, 4): IntPoly((2 ** 63, -(2 ** 66))),
        (3, 2, 1, 4): IntPoly((-5, 0, 2 ** 65)),
        (1, 2, 4, 3): IntPoly((1, 1)),
    })
    want = intpoly_fold.mul(a, b)
    coeffs = [c for poly in want.terms.values() for c in poly.coeffs]
    assert max(map(abs, coeffs)) >= 2 ** 64
    assert min(coeffs) < 0 < max(coeffs)
    assert mul(a, b) == want
    assert mul(b, a) == intpoly_fold.mul(b, a)


@pytest.mark.parametrize("n", range(1, 7))
def test_indices_are_lexicographic(n):
    for k, w in enumerate(permutations(range(1, n + 1))):
        assert coxeter._perm_index(w) == k
        assert coxeter._index_perm(k, n) == w


@pytest.mark.parametrize("n", range(2, 9))
def test_step_rows_follow_right_multiplication(n):
    perms = list(permutations(range(1, n + 1)))
    index = {w: k for k, w in enumerate(perms)}
    steps = coxeter._tables(n).steps
    for i in range(1, n):
        computed = coxeter._StepRow(n, i)
        for k, w in enumerate(perms):
            target = index[right_gen(w, i)]
            want = ~target if w[i - 1] > w[i] else target
            assert steps[i - 1][k] == computed[k] == want, (w, i)


@pytest.mark.parametrize("n", range(1, 7))
def test_perm_tables_follow_lexicographic_order_and_inverse(n):
    tables = coxeter._tables(n)
    inverse = tables.inverse
    assert len(inverse) == len(tables.lengths) == factorial(n)
    for k, w in enumerate(permutations(range(1, n + 1))):
        assert coxeter._index_perm(k, n) == w
        assert coxeter._index_perm(inverse[k], n) == coxeter.inverse(w)
        assert coxeter._perm_index(w) == k


def test_product_terms_are_keyed_by_index():
    # the engine keys terms by index alone; `terms` decodes them as read
    light, heavy = t_basis((2, 1, 3, 4)), jucys_murphy(4, 4) + t_basis((4, 3, 2, 1))
    for left, right in ((heavy, light), (light, heavy)):
        got = mul(left, right)
        assert got._terms and all(type(k) is int for k in got._terms)
        assert dict(got.terms) == {coxeter._index_perm(k, 4): c
                                   for k, c in got._terms.items()}
        assert dict(got.terms) == dict(intpoly_fold.mul(left, right).terms)


def test_large_rank_tables_are_per_entry():
    n = coxeter._DENSE_MAX_RANK + 1
    tables = coxeter._tables(n)
    inverse, lengths = tables.inverse, tables.lengths
    assert all(isinstance(table, coxeter._PerEntry) for table in (inverse, lengths))
    for k in (0, 1, 2, 1234567, factorial(n) - 1):
        w = coxeter._index_perm(k, n)
        assert coxeter._index_perm(inverse[k], n) == coxeter.inverse(w)
        assert coxeter._perm_index(w) == k
    a, b = e_sym(1, n), jucys_murphy(n, n)
    tracemalloc.start()
    try:
        mul(a, b), mul(b, a), is_central(a), is_central(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a table of n! entries would take at least n! bytes; this is a quarter
    assert peak < factorial(n) // 4


def test_large_rank_steps_without_a_table(monkeypatch):
    n = coxeter._DENSE_MAX_RANK + 1
    assert all(isinstance(row, coxeter._StepRow) for row in coxeter._tables(n).steps)
    a = jucys_murphy(n, n).scale(IntPoly((3, -1)))
    b = jucys_murphy(n - 1, n) + t_basis(right_gen(identity(n), 2))
    flips = []
    fold = hecke._fold_right
    monkeypatch.setattr(hecke, "_fold_right",
                        lambda left, right, flip: flips.append(flip) or fold(left, right, flip))
    assert mul(a, b) == intpoly_fold.mul(a, b)
    assert mul(b, a) == intpoly_fold.mul(b, a)
    assert flips == [False, True]  # both orientations of the fold


def _canonical_word(w):
    """The canonical reduced word on the one-line word itself: strip the
    smallest right descent, swapping it away, until none is left."""
    cur, out = list(w), []
    while True:
        i = next((i for i in range(len(cur) - 1) if cur[i] > cur[i + 1]), None)
        if i is None:
            return tuple(reversed(out))
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
        out.append(i + 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_words_from_the_step_rows_are_the_canonical_ones(n):
    # `_fold_right` reads each reduced word off the tabulated step rows, last
    # letter first, and `reduced_word` off per-entry ones
    steps = coxeter._tables(n).steps
    for k, w in enumerate(permutations(range(1, n + 1))):
        want = _canonical_word(w)
        assert tuple(coxeter._reversed_word(k, steps)[::-1]) == reduced_word(w) == want, w


BIG = 2 ** 70


def _word_elt(words, n=4):
    """sum_k c_k T_{w_k}, w_k the product of the k-th word's generators, with
    mixed-sign coefficients beyond 2^70; each word must be w_k's reduced word."""
    terms = {}
    for k, word in enumerate(words):
        w = identity(n)
        for i in word:
            w = right_gen(w, i)
        assert reduced_word(w) == tuple(word)
        terms[w] = IntPoly(((-1) ** k * (BIG + k), 3 - k, -(BIG << k)))
    return HeckeElt(n, terms)


# Reduced words of the right factor; read from the last letter they form the
# Horner trie of the unflipped product.
TRIES = {
    # node 1 is a terminal with a child: T_{s1} + T_{s2 s1}
    "terminal-with-child": [(1,), (2, 1)],
    # nodes 3 and 2 carry no coefficient: T_{s1 s2 s3}
    "coefficient-free-chain": [(1, 2, 3)],
    # three bare terminals under the root, the root a terminal too
    "bare-leaves": [(), (1,), (2,), (3,)],
    # a bare leaf first, then a terminal with two children, then a chain
    "several-root-children": [(1,), (2,), (1, 2), (3, 2), (2, 3), (1, 2, 3)],
}


@pytest.mark.parametrize("name", TRIES)
def test_horner_tries_match_oracle_in_both_orientations(name):
    right = _word_elt(TRIES[name])
    # the transpose has the words reversed: flipped, it makes the same trie
    flipped = right.transpose()
    assert all(reduced_word(w) == reduced_word(coxeter.inverse(w))[::-1] for w in flipped.terms)
    left = _word_elt([(1, 2, 3, 2, 1), (2, 1), (3,), (3, 1, 2)])
    left = left + t_basis((4, 3, 2, 1)).scale(IntPoly((-BIG, 0, 7)))
    assert hecke._fold_right(left, right, False) == intpoly_fold.mul(left, right)
    assert hecke._fold_right(left, flipped, True) == intpoly_fold.mul(flipped, left)


@pytest.mark.parametrize("c", [-3, 5 << 80, -(1 << 90) + 1], ids=["-3", "5*2^80", "1-2^90"])
def test_step_add_is_a_scaled_step_plus_a_sum(c):
    n, width = 4, 96
    rng = random.Random(c)
    vec = {k: rng.randint(-BIG, BIG) for k in rng.sample(range(24), 12)}
    start = {k: rng.randint(-BIG, BIG) for k in rng.sample(range(24), 12)}
    for row in coxeter._tables(n).steps:
        stepped = hecke._step(vec, row, width)
        want = dict(start)
        for k, v in stepped.items():
            want[k] = want.get(k, 0) + c * v
        got = dict(start)
        hecke._step_add(got, vec, row, width, c)
        assert got == want
        # c vec T_i added to its negative cancels exactly
        cancel = {k: -c * v for k, v in stepped.items()}
        hecke._step_add(cancel, vec, row, width, c)
        assert set(cancel) == set(stepped) and not any(cancel.values())
