"""Products of certified central elements by the trace pairing and the class-polynomial sweep."""

import hashlib
import pickle
from math import factorial

import pytest

import intpoly_fold
from grhecke import center, coxeter, hecke
from grhecke.coxeter import (
    class_representative, from_word, inverse, minimal_length_elements, modified_cycle_type,
)
from grhecke.hecke import HeckeElt, e_sym, is_central, jucys_murphy, mul


def certified_basis(n, up_to):
    gamma = center.gamma_basis(n, up_to).gamma
    assert all(is_central(g) and g._central for g in gamma.values())
    return gamma


def pairs(gamma, max_size):
    """Every ordered pair of classes with |lam| + |mu| <= max_size: both orders."""
    return [(lam, mu) for lam in gamma for mu in gamma if sum(lam) + sum(mu) <= max_size]


@pytest.mark.parametrize("n", range(1, 8))
def test_equals_horner_fold_and_oracle(n):
    gamma = certified_basis(n, 4)
    for lam, mu in pairs(gamma, 4):
        a, b = gamma[lam], gamma[mu]
        got = hecke._central_mul(a, b)
        assert got == hecke._fold_right(a, b, False), (lam, mu, n)
        if n <= 5:
            assert got == intpoly_fold.mul(a, b), (lam, mu, n)


@pytest.mark.slow
def test_equals_horner_fold_at_rank_eight():
    gamma = certified_basis(8, 3)
    for lam, mu in pairs(gamma, 3):
        a, b = gamma[lam], gamma[mu]
        assert hecke._central_mul(a, b) == hecke._fold_right(a, b, False), (lam, mu)


@pytest.mark.parametrize("n", range(1, 8))
def test_sweep_rebuilds_each_class_element(n):
    plan = coxeter._sweep(n)
    for lam, g in certified_basis(n, 4).items():
        width = (2 * max(sum(map(abs, c.coeffs)) for c in g.terms.values())).bit_length() + 2
        pack = hecke._Memo(hecke._pack, width)
        at_reps = [pack[g.coeff(coxeter._index_perm(k, n)).coeffs] for k in plan.reps]
        assert hecke._swept(n, at_reps, width) == g, (lam, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_plan_covers_the_group_once_in_order(n):
    plan, tables = coxeter._sweep(n), coxeter._tables(n)
    size = factorial(n)
    assert len(plan.reps) == len(set(plan.reps)) == len(plan.classes)
    assert sorted([*plan.reps, *plan.order]) == list(range(size))
    assert len(plan.order) == len(plan.first) == len(plan.second)
    # every entry reads reps, the zero slot or entries before it
    seen = set(plan.reps)
    for k, a, b in zip(plan.order, plan.first, plan.second):
        assert a in seen and (b == size or b in seen), (n, k)
        seen.add(k)
    # a copy (b is the zero slot) reads the rep of its own class at its
    # length; a step reads sws and sw, two and one shorter
    rep_of = dict(zip(plan.classes, plan.reps))
    for k, a, b in zip(plan.order, plan.first, plan.second):
        lk = tables.lengths[k]
        if b == size:
            w = coxeter._index_perm(k, n)
            assert a == rep_of[modified_cycle_type(w)] and tables.lengths[a] == lk
        else:
            assert (tables.lengths[a], tables.lengths[b]) == (lk - 2, lk - 1), (n, k)


def test_plan_arrays_are_pinned_at_rank_seven():
    # the order is stable by length: each length in index order, as a
    # stable sort by length gives it
    plan = coxeter._sweep(7)
    digest = hashlib.sha256()
    for a in plan[1:]:
        digest.update(b"".join(x.to_bytes(4, "little", signed=True) for x in a))
    assert digest.hexdigest() == "41548ad739e88232a533d5c50607c7e181db0f197f7bef7302c66ceb56acf42c"
    lengths = coxeter._tables(7).lengths
    assert list(plan.order) == sorted(plan.order, key=lambda k: (lengths[k], k))


@pytest.mark.parametrize("n", range(1, 8))
def test_plan_has_one_minimal_rep_per_class(n):
    plan = coxeter._sweep(n)
    classes = [lam for lam in coxeter.partitions_up_to(n - 1) if coxeter.fits_rank(lam, n)]
    assert sorted(plan.classes) == sorted(classes)
    for c, (lam, k) in enumerate(zip(plan.classes, plan.reps)):
        assert coxeter._index_perm(k, n) in minimal_length_elements(lam, n)
        # the class's word extends its parent's by one letter, and spells the
        # inverse of the rep; the parents come first
        word, d = [], c
        while plan.parents[d] >= 0:
            word.append(plan.letters[d])
            assert plan.parents[d] < d
            d = plan.parents[d]
        w = from_word(n, reversed(word))
        assert w == class_representative(lam, n) == inverse(coxeter._index_perm(k, n))


def test_dispatch_needs_two_certified_factors(monkeypatch):
    calls = []
    central_mul = hecke._central_mul
    monkeypatch.setattr(hecke, "_central_mul", lambda a, b: calls.append(1) or central_mul(a, b))
    e2 = e_sym(2, 5)
    e2 = HeckeElt(5, e2.terms)  # central, but not certified
    ln = jucys_murphy(5, 5)
    want = intpoly_fold.mul(e2, e2)
    assert mul(e2, e2) == want and not calls
    assert not is_central(ln)
    assert mul(ln, ln) == intpoly_fold.mul(ln, ln) and not calls
    assert is_central(e2)
    assert mul(e2, ln) == intpoly_fold.mul(e2, ln) and not calls
    assert mul(e2, e2) == want and calls == [1]


def test_only_a_true_centrality_test_marks():
    ln = jucys_murphy(4, 4)
    assert not is_central(ln) and not ln._central
    e2 = HeckeElt(4, e_sym(2, 4).terms)
    assert not e2._central
    assert is_central(e2) and e2._central
    copy = pickle.loads(pickle.dumps(e2))
    assert copy == e2 and not copy._central
    with pytest.raises(AttributeError):
        e2._central = False


def test_product_of_certified_class_elements_is_marked():
    gamma = certified_basis(5, 2)
    product = mul(gamma[(1,)], gamma[(1,)])
    assert product._central and is_central(product)
    copy = pickle.loads(pickle.dumps(product))
    assert copy == product and not copy._central


def test_swept_class_element_is_not_marked_before_its_check():
    assert not hecke._class_element((2,), 5)._central


@pytest.mark.parametrize("n", range(1, 7))
def test_marked_product_times_class_element_takes_the_trace_route(n, monkeypatch):
    gamma = certified_basis(n, 2)
    calls = []
    central_mul = hecke._central_mul
    monkeypatch.setattr(hecke, "_central_mul", lambda a, b: calls.append(1) or central_mul(a, b))
    for lam, mu in pairs(gamma, 2):
        product = mul(gamma[lam], gamma[mu])
        for nu, g in gamma.items():
            del calls[:]
            got = mul(product, g)
            assert calls == [1] and got._central, (lam, mu, nu, n)
            assert got == hecke._fold_right(product, g, False), (lam, mu, nu, n)
