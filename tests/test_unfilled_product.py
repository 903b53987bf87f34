"""
A product of two certified central elements is held at its values at the
sweep plan's class reps, and its terms are filled in by the sweep the first
time they are read. A central element is constant on the minimal-length
elements of each class (Geck-Pfeiffer 2000, 8.2), so `coeff` answers there
without filling, and the expansion in the class-element basis reads only
such coefficients.
"""

import pickle

import pytest

from grhecke import center, coxeter, hecke
from grhecke.coxeter import minimal_length_elements, partitions_up_to
from grhecke.hecke import mul
from grhecke.polyring import IntPoly


def filled(h):
    return h._terms is not None


def count_fills(monkeypatch):
    calls = []
    swept = hecke._swept
    monkeypatch.setattr(hecke, "_swept", lambda *args: calls.append(args[0]) or swept(*args))
    return calls


def minimal_elements(n):
    return [w for lam in partitions_up_to(n - 1) if coxeter.fits_rank(lam, n)
            for w in sorted(minimal_length_elements(lam, n))]


@pytest.mark.parametrize("n", range(1, 8))
def test_coefficients_at_minimal_elements_need_no_fill(n):
    gamma = center.gamma_basis(n, 4).gamma
    minimal = minimal_elements(n)
    for lam in gamma:
        for mu in gamma:
            if sum(lam) + sum(mu) > 4:
                continue
            a, b = gamma[lam], gamma[mu]
            product = mul(a, b)
            assert product._central and not filled(product), (lam, mu, n)
            at_minimal = [product.coeff(w) for w in minimal]
            assert not filled(product), (lam, mu, n)
            assert product.terms == hecke._fold_right(a, b, False).terms, (lam, mu, n)
            assert at_minimal == [product.terms.get(w, IntPoly()) for w in minimal], (lam, mu, n)


def test_table_products_fill_nothing(monkeypatch):
    center.gamma_basis(7, 4)
    monkeypatch.setattr(center, "_struct_memo", {})
    products = []
    central_mul = hecke._central_mul
    monkeypatch.setattr(hecke, "_central_mul",
                        lambda a, b: products.append(1) or central_mul(a, b))
    fills = count_fills(monkeypatch)
    # the pairs of `table --n 7 --max-size 4`, as `build_struct_table` lists them
    pairs = [(lam, mu) for lam, mu in center._pairs_up_to(7, 4) if lam and mu]
    for lam, mu in pairs:
        center.structure_constants(lam, mu, 7)
    assert len(pairs) == len(products) == 9
    assert fills == []


@pytest.fixture
def product():
    gamma = center.gamma_basis(6, 3).gamma
    return mul(gamma[(1,)], gamma[(2,)])


def test_pickle_fills_and_drops_the_mark(product):
    copy = pickle.loads(pickle.dumps(product))
    assert filled(product) and product._central
    assert copy == product and not copy._central


def test_filled_terms_stay_read_only(product):
    w = next(iter(product.terms))
    with pytest.raises(TypeError):
        product.terms[w] = IntPoly.const(1)
    with pytest.raises(AttributeError):
        product.terms = {}
    with pytest.raises(AttributeError):
        del product.terms
    assert filled(product) and product.terms[w]


def test_truth_and_the_emptiness_check_do_not_fill(product, monkeypatch):
    fills = count_fills(monkeypatch)
    zero = hecke.HeckeElt._held(6, [0] * len(coxeter._sweep(6).reps), 8)
    assert product and not zero
    assert not mul(zero, product) and not mul(product, zero)
    assert not filled(product) and not filled(zero) and fills == []
    assert zero.terms == {} and len(zero) == 0 and fills == [6]
    # the pairing steps every term of both factors, so a nonzero one is filled
    g = center.gamma_basis(6, 3).gamma[(1,)]
    again = mul(product, g)
    assert filled(product) and again._central and not filled(again)
    assert again == hecke._fold_right(product, g, False)


def test_coefficient_off_the_minimal_elements_fills(product):
    w0 = (6, 5, 4, 3, 2, 1)  # longest in the class (1, 1, 1), shortest there are of length 3
    assert coxeter.length(w0) > min(map(coxeter.length, minimal_length_elements((1, 1, 1), 6)))
    c = product.coeff(w0)
    assert filled(product)
    assert c == product.terms.get(w0, IntPoly())
    want = dict(product.terms)
    assert all(product.coeff(w) == want.get(w, IntPoly()) for w in coxeter._tables(6).perms)


def test_coefficient_of_a_non_permutation_is_zero_without_a_fill(product):
    assert product.coeff((1, 2, 3)) == IntPoly() and not filled(product)
