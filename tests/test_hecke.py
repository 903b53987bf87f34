"""The Hecke algebra: relations, Jucys-Murphy elements, centrality."""

import pickle
import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import intpoly_fold
from conftest import unpickle_call
from grhecke import center, coxeter, hecke
from grhecke.coxeter import (
    identity, length, partitions_up_to, reduced_word, right_gen,
)
from grhecke.errors import InvalidInputError
from grhecke.hecke import (
    HeckeElt, e_sym, group_mul, is_central, jucys_murphy, m_sym, mul, t_basis,
    unit, zero,
)
from grhecke.polyring import IntPoly

ONE = IntPoly.const(1)
XI = IntPoly.xi()

S1 = (2, 1, 3)
S2 = (1, 3, 2)
W0 = (3, 2, 1)  # longest element of S_3


def all_reduced_words(w):
    """Every reduced word of w, by peeling each descent in turn."""
    if w == identity(len(w)):
        yield ()
        return
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            for rest in all_reduced_words(right_gen(w, i)):
                yield rest + (i,)


def random_element(n, rng, nterms=3, max_deg=2):
    perms = [tuple(p) for p in permutations(range(1, n + 1))]
    terms = {}
    for w in rng.sample(perms, nterms):
        coeffs = [rng.randint(-3, 3) for _ in range(max_deg + 1)]
        terms[w] = IntPoly(coeffs)
    return HeckeElt(n, terms)


class TestBasisAndRelations:
    def test_unit(self):
        assert t_basis(identity(3)) == unit(3)

    def test_single_generator(self):
        assert t_basis(S1).terms == {S1: ONE}

    def test_longest_element(self):
        assert t_basis(W0).terms == {W0: ONE}

    def test_quadratic_relation(self):
        got = intpoly_fold.right_gen(t_basis(S1), 1)
        assert got == HeckeElt(3, {identity(3): ONE, S1: XI})

    def test_length_increasing(self):
        assert intpoly_fold.right_gen(unit(3), 1) == t_basis(S1)
        assert intpoly_fold.right_gen(t_basis(S2), 1) == t_basis(coxeter.right_gen(S2, 1))

    def test_generator_out_of_range(self):
        for i in (0, 3):
            with pytest.raises(InvalidInputError):
                unit(3).right_gen(i)
            with pytest.raises(InvalidInputError):
                unit(3).left_gen(i)


class TestMul:
    def test_lengths_add(self):
        assert mul(t_basis(S1), t_basis(S2)) == t_basis(coxeter.compose(S1, S2))

    def test_quadratic_via_mul(self):
        assert mul(t_basis(S1), t_basis(S1)) == HeckeElt(3, {identity(3): ONE, S1: XI})

    def test_unit_law(self):
        h = t_basis(S1) + t_basis(S2)
        assert mul(h, unit(3)) == h
        assert mul(unit(3), h) == h

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            mul(unit(3), unit(4))

    def test_braid_independence(self):
        # multiply along every reduced word of every element of S_4, from
        # T_{w0} and from a random element, so that steps hit descents;
        # without the x T_w term the steps are the group algebra's, which
        # agree along all reduced words too, so the value is also checked
        # against mul
        starts = [t_basis((4, 3, 2, 1)), random_element(4, random.Random(4), nterms=6)]
        for start in starts:
            for w in permutations(range(1, 5)):
                results = set()
                for word in all_reduced_words(tuple(w)):
                    acc = start
                    for i in word:
                        acc = intpoly_fold.right_gen(acc, i)
                    results.add(tuple(sorted((u, c.coeffs) for u, c in acc.terms.items())))
                assert len(results) == 1
                assert acc == mul(start, t_basis(tuple(w))), (start, w)

    def test_associativity_random(self):
        rng = random.Random(20240803)
        for _ in range(8):
            a, b, c = (random_element(4, rng) for _ in range(3))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_transpose_orientation_consistency(self):
        # force both orientations of the internal fold to be exercised
        heavy = t_basis((4, 3, 2, 1))
        light = t_basis((2, 1, 3, 4))
        direct = mul(heavy, light)
        acc = heavy
        for i in reduced_word((2, 1, 3, 4)):
            acc = intpoly_fold.right_gen(acc, i)
        assert direct == acc


class TestJucysMurphy:
    def test_first_is_zero(self):
        assert jucys_murphy(1, 5) == zero(5)

    def test_second(self):
        assert jucys_murphy(2, 3) == t_basis(S1)

    def test_third_in_s3(self):
        assert jucys_murphy(3, 3) == t_basis(W0) + t_basis(S2)

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            jucys_murphy(4, 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pairwise_commuting(self, n):
        ls = [jucys_murphy(i, n) for i in range(1, n + 1)]
        for a in ls:
            for b in ls:
                assert mul(a, b) == mul(b, a)


class TestMSym:
    def test_empty(self):
        assert m_sym((), 4) == unit(4)

    def test_single_row(self):
        want = jucys_murphy(2, 3) + jucys_murphy(3, 3)
        assert m_sym((1,), 3) == want
        assert m_sym((1,), 3) == t_basis(S1) + t_basis(S2) + t_basis(W0)

    def test_two_ones_is_l2_l3(self):
        got = m_sym((1, 1), 3)
        direct = mul(jucys_murphy(2, 3), jucys_murphy(3, 3))
        assert got == direct

    def test_too_many_parts_vanishes(self):
        assert m_sym((1, 1, 1, 1), 3) == zero(3)
        assert m_sym((1, 1, 1), 3) == zero(3)  # every monomial hits L_1 = 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_central_up_to_size_four(self, n):
        for lam in partitions_up_to(4):
            assert is_central(m_sym(lam, n)), (lam, n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_z2_grading(self, n):
        # every term T_w x^j satisfies length(w) + j == |lam| (mod 2)
        for lam in partitions_up_to(4):
            h = m_sym(lam, n)
            if h:
                assert h.homogeneous_parity() == sum(lam) % 2, (lam, n)


class TestESym:
    def test_degree_zero(self):
        assert e_sym(0, 4) == unit(4)

    def test_degree_one(self):
        assert e_sym(1, 3) == jucys_murphy(2, 3) + jucys_murphy(3, 3)

    def test_degree_one_is_transposition_sum(self):
        n = 4
        want = zero(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                want = want + t_basis(coxeter.transposition(n, i, j))
        assert e_sym(1, n) == want

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            e_sym(5, 4)


class TestCentrality:
    def test_unit_is_central(self):
        assert is_central(unit(3))

    def test_generator_is_not(self):
        assert not is_central(t_basis(S1))

    def test_explicit_central_element(self):
        h = t_basis((2, 3, 1)) + t_basis((3, 1, 2)) + t_basis(W0).scale(XI)
        assert is_central(h)


def parity_by_terms(h):
    """The definition of `homogeneous_parity`, term by term: the common value
    of (length(w) + j) mod 2 over the terms T_w x^j, None if they differ or
    there are none."""
    seen = {(length(w) + j) % 2 for w, c in h.terms.items()
            for j, a in enumerate(c.coeffs) if a}
    return seen.pop() if len(seen) == 1 else None


class TestHomogeneousParity:
    def test_zero(self):
        assert zero(3).homogeneous_parity() is None

    def test_mixed_coefficient(self):
        assert HeckeElt(3, {S1: IntPoly((1, 1))}).homogeneous_parity() is None
        assert HeckeElt(3, {S1: IntPoly((0, 1, 0, 2))}).homogeneous_parity() == 0

    def test_terms_disagree(self):
        # one coefficient, x, on terms of both length parities
        assert HeckeElt(3, {S1: XI, W0: XI, identity(3): XI}).homogeneous_parity() is None
        assert HeckeElt(3, {S1: XI, W0: XI}).homogeneous_parity() == 0
        assert HeckeElt(3, {identity(3): XI, (2, 3, 1): XI}).homogeneous_parity() == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_per_term_definition(self, data):
        n = data.draw(st.integers(1, 4))
        target = data.draw(st.integers(0, 1))
        homogeneous = data.draw(st.booleans())
        perms = list(permutations(range(1, n + 1)))
        terms = {}
        for w in data.draw(st.lists(st.sampled_from(perms), max_size=8, unique=True)):
            coeffs = data.draw(st.lists(st.integers(-3, 3), max_size=5))
            if homogeneous:  # keep the exponents of the target's parity
                coeffs = [a if (length(w) + j) % 2 == target else 0
                          for j, a in enumerate(coeffs)]
            terms[w] = IntPoly(coeffs)
        # shared coefficients, as in a class element: read once, on every term
        if terms and data.draw(st.booleans()):
            shared = next(iter(terms.values()))
            terms = {w: shared for w in terms}
        h = HeckeElt(n, terms)
        assert h.homogeneous_parity() == parity_by_terms(h)
        assert h.sorted_terms() == sorted(h.terms.items(), key=lambda wc: (length(wc[0]), wc[0]))


class TestSpecialization:
    def test_drops_x_terms(self):
        h = unit(3) + t_basis(S1).scale(XI)
        assert h.specialize_group() == {identity(3): 1}

    def test_keeps_constants(self):
        h = t_basis(S1) + t_basis(S2)
        assert h.specialize_group() == {S1: 1, S2: 1}

    def test_homomorphism_property(self):
        rng = random.Random(99)
        for _ in range(8):
            a = random_element(4, rng)
            b = random_element(4, rng)
            assert mul(a, b).specialize_group() == group_mul(
                a.specialize_group(), b.specialize_group()
            )


class TestGroupMul:
    def test_unit(self):
        a = {S1: 2, W0: -1}
        assert group_mul(a, {identity(3): 1}) == a

    def test_involution(self):
        assert group_mul({S1: 1}, {S1: 1}) == {identity(3): 1}

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            group_mul({S1: 1}, {(2, 1, 3, 4): 1})

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("place", [0, 1, 2])
    def test_key_of_another_rank_anywhere(self, side, place):
        # past place 0 the first keys of a and b agree, so only a check of
        # every key sees the odd one
        keys = [identity(3), S1, S2]
        keys[place] = (2, 1, 3, 4)
        odd, plain = dict.fromkeys(keys, 1), {identity(3): 1, W0: 1}
        a, b = (odd, plain) if side == "a" else (plain, odd)
        with pytest.raises(InvalidInputError, match="rank mismatch"):
            group_mul(a, b)

    def test_rank_above_a_byte(self):
        w = tuple(range(1, 257))
        with pytest.raises(InvalidInputError, match="group_mul handles ranks up to 255, got 256"):
            group_mul({w: 1}, {w: 1})

    def test_cancelling_product_is_empty(self):
        # (s_1 + e)(s_1 - e) = s_1^2 - e = 0: every sum cancels
        e = identity(3)
        assert group_mul({S1: 1, e: 1}, {S1: 1, e: -1}) == {}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.dictionaries(
        st.permutations(range(1, n + 1)).map(tuple),
        st.integers(-2, 2).filter(bool), max_size=6)] * 2)))
    def test_matches_counter_convolution(self, ab):
        a, b = ab
        want = Counter()
        for u, cu in a.items():
            for v, cv in b.items():
                want[coxeter.compose(u, v)] += cu * cv
        assert group_mul(a, b) == {w: c for w, c in want.items() if c}


class TestSerialization:
    def test_sort_order(self):
        h = t_basis(W0) + t_basis(S2) + t_basis(S1) + unit(3)
        ws = [t["w"] for t in h.to_json_dict()["terms"]]
        assert ws == [[1, 2, 3], [1, 3, 2], [2, 1, 3], [3, 2, 1]]

    def test_repr(self):
        h = HeckeElt(3, {S1: IntPoly((1, 0, 2)), identity(3): ONE})
        assert repr(h) == "HeckeElt(n=3: (1)*T[1, 2, 3] + (1 + 2*x^2)*T[2, 1, 3])"

    @pytest.mark.parametrize("w", [(1, 1, 1), (0, 1, 2), (1, 2, 4), (2, 3, 3), (1, 2)])
    def test_constructor_rejects_non_permutations(self, w):
        with pytest.raises(InvalidInputError):
            HeckeElt(3, {w: ONE})

    @pytest.mark.parametrize("c", [3, 1.5, 0, None, (1, 2)])
    def test_constructor_rejects_coefficients_not_in_z_x(self, c):
        # stored, an int would fail only later, inside a product
        with pytest.raises(InvalidInputError):
            HeckeElt(2, {(2, 1): c})

    @pytest.mark.parametrize("w", [5, None, (1, None)])
    def test_constructor_rejects_keys_that_are_no_words(self, w):
        with pytest.raises(InvalidInputError):
            HeckeElt(2, {w: ONE})


def element_states(n):
    """An element in each state the engine keeps: filled with every term, the
    swept unit gamma_(), and a held product gamma_(1)^2, whose terms are not
    filled in. Each has a nonzero coefficient at the identity, index 0."""
    filled = HeckeElt(n, {w: IntPoly((k + 1, -k)) for k, w in
                          enumerate(permutations(range(1, n + 1)))})
    g = center.gamma_basis(n, 1).gamma[(1,)]
    held = mul(g, g)
    assert held._terms is None
    return {"filled": filled, "swept": hecke._class_element((), n), "held": held}


STATES = ["filled", "swept", "held"]


class TestIndexBoundary:
    # unchecked, the Lehmer digits of every w below name another permutation,
    # the identity
    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("state", STATES)
    def test_coeff_of_a_non_permutation_is_zero(self, n, state):
        h = element_states(n)[state]
        assert h.coeff(identity(n))
        for w in [(1, 1, 1), (0, 1, 2), (1, 2, 4), (1, 2), identity(n + 1)]:
            assert h.coeff(w) == IntPoly(), w
            assert w not in h.terms and h.terms.get(w) is None, w

    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("state", STATES)
    def test_round_trips_and_order(self, n, state):
        h = element_states(n)[state]
        terms = dict(h.terms.items())
        assert dict(h.terms) == terms and len(h.terms) == len(h) == len(terms)
        assert HeckeElt(n, h.terms) == h == HeckeElt(n, terms)
        # pickling ships the dict by index, checked but not decoded
        shipped = h.__reduce__()[1][1]
        assert all(type(k) is int for k in shipped)
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and dict(copy.terms.items()) == terms
        want = sorted(terms.items(), key=lambda wc: (length(wc[0]), wc[0]))
        assert h.sorted_terms() == want
        assert [t["w"] for t in h.to_json_dict()["terms"]] == [list(w) for w, _ in want]
        assert h.specialize_group() == {w: c.constant_term() for w, c in want if c.constant_term()}

    @pytest.mark.parametrize("n", [9, 10])
    def test_the_boundary_builds_no_tables(self, n, no_tables):
        # encoding and decoding a key read the codec alone, at every rank
        e, w0 = identity(n), tuple(range(n, 0, -1))
        s2 = right_gen(e, 2)
        terms = {e: ONE, w0: XI, s2: IntPoly((3, -1))}
        h = HeckeElt(n, terms)
        assert t_basis(w0) == HeckeElt(n, {w0: ONE}) and t_basis(w0).coeff(w0) == ONE
        assert h.coeff(w0) == XI and h.coeff(right_gen(w0, 1)) == IntPoly()
        assert [h.terms[w] for w in terms] == list(terms.values())
        assert set(h.terms) == set(terms) and dict(h.terms.items()) == terms
        assert h.specialize_group() == {e: 1, s2: 3}
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and dict(copy.terms.items()) == terms

    @pytest.mark.parametrize("route", ["call", "pickle"])
    def test_unpickling_follows_the_coefficient_rule(self, route):
        # a value that is not an IntPoly is refused, and a zero is dropped
        def load(terms):
            if route == "call":
                return HeckeElt._unpickled(3, terms)
            return unpickle_call(HeckeElt._unpickled, 3, terms)

        with pytest.raises(InvalidInputError):
            load({0: 5})
        stored_zero = load({0: IntPoly()})
        assert not stored_zero and stored_zero == zero(3)
        assert load({0: IntPoly(), 5: ONE}) == t_basis((3, 2, 1))

    @pytest.mark.parametrize("k", [-1, 24, True, 1.0])
    def test_unpickling_rejects_a_bad_index(self, k):
        with pytest.raises(InvalidInputError):
            HeckeElt._unpickled(4, {k: ONE})
        assert HeckeElt._unpickled(4, {23: ONE}) == t_basis((4, 3, 2, 1))
