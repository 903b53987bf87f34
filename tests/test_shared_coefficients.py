"""
Equal coefficients share one `IntPoly`. The class polynomials repeat, so a
central element has far fewer distinct coefficients than terms: each packed
routine of `hecke` unpacks every distinct value once per call and hands the
same object to every term that has it, and a loaded element shares its
equal coefficients too. `IntPoly` and `HeckeElt` are immutable, so no
caller can change a shared value.
"""

import pytest

import intpoly_fold
from grhecke import center, hecke
from grhecke.hecke import jucys_murphy, linear_combination, m_sym, mul
from grhecke.polyring import IntPoly

ONE, XI = IntPoly.const(1), IntPoly.xi()


def assert_shared(h):
    """Every value is held by one object, and some value by several terms."""
    held = {}
    for c in h.terms.values():
        assert held.setdefault(c.coeffs, c) is c
    assert len(held) < len(h)


@pytest.fixture(scope="module")
def gamma7():
    return center.gamma_basis(7, 4).gamma


def test_gamma_product_shares_coefficients(gamma7):
    assert_shared(mul(gamma7[(1,)], gamma7[(2,)]))
    assert_shared(mul(gamma7[(1, 1)], gamma7[(1, 1)]))


def test_linear_combination_shares_coefficients(gamma7):
    assert_shared(linear_combination(7, [
        (IntPoly((1, -1)), gamma7[(2,)]), (XI, gamma7[(1, 1)]), (ONE, gamma7[(3,)]),
    ]))


def test_m_sym_shares_coefficients():
    assert_shared(m_sym((2, 1), 7))


def test_loaded_elements_share_coefficients(disk_cache):
    built = center.gamma_basis(5, 3).gamma
    center.clear_caches()
    loaded = center.gamma_basis(5, 3).gamma
    assert loaded == built
    for lam in [(2,), (3,), (2, 1)]:
        assert_shared(loaded[lam])


def test_table_products_unpack_each_distinct_value_once(gamma7, monkeypatch):
    calls = []
    unpack = hecke._unpack
    monkeypatch.setattr(hecke, "_unpack", lambda v, width: calls.append(v) or unpack(v, width))
    terms = distinct = 0
    for lam, mu in center._pairs_up_to(7, 4):
        if lam and mu:
            calls.clear()
            product = mul(gamma7[lam], gamma7[mu])
            values = {c.coeffs for c in product.terms.values()}
            assert len(calls) == len(set(calls)) == len(values), (lam, mu)
            terms += len(product)
            distinct += len(values)
    # the nine products of `table --n 7 --max-size 4`
    assert (terms, distinct) == (26747, 1396)


def test_shared_coefficients_cannot_be_changed():
    n = 5
    gamma = center.gamma_basis(n, 3).gamma
    pairs = [(a, b) for a in gamma for b in gamma if a and b and sum(a) + sum(b) <= 3]
    products = {(a, b): mul(gamma[a], gamma[b]) for a, b in pairs}
    summands = [(IntPoly((2, -1)), gamma[(2,)]), (XI, gamma[(1, 1)])]
    combination = linear_combination(n, summands)
    m2 = m_sym((2,), n)  # memoized: every caller gets this object
    for h in [*products.values(), combination, m2, gamma[(2, 1)]]:
        c = max(h.terms.values(), key=lambda c: sum(d is c for d in h.terms.values()))
        assert sum(d is c for d in h.terms.values()) > 1
        with pytest.raises(AttributeError):
            c.coeffs = (7,)
        with pytest.raises(TypeError):
            h.terms[next(iter(h.terms))] = ONE
    for (a, b), got in products.items():
        assert got == intpoly_fold.mul(gamma[a], gamma[b])
    assert combination == intpoly_fold.linear_combination(n, summands)
    squares = [(ONE, intpoly_fold.mul(jucys_murphy(i, n), jucys_murphy(i, n)))
               for i in range(2, n + 1)]
    assert m_sym((2,), n) == m2 == intpoly_fold.linear_combination(n, squares)
