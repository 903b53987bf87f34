"""
`hecke.m_sym` by its recurrence on L_n against the monomial enumeration it
replaced, and the packed multiplication by L_k it runs on against `mul`.
"""

import random
from functools import lru_cache
from itertools import permutations
from typing import Iterator

import pytest

from grhecke import coxeter, hecke
from grhecke.coxeter import check_partition, partitions_up_to, transposition
from grhecke.hecke import (
    HeckeElt, jucys_murphy, linear_combination, m_sym, mul, t_basis, unit, zero,
)
from grhecke.polyring import IntPoly

_ONE = IntPoly.const(1)


@lru_cache(maxsize=None)
def _jm_power(i: int, e: int, n: int) -> HeckeElt:
    """L_i^e in H_n by repeated `mul`."""
    if e == 0:
        return unit(n)
    return mul(_jm_power(i, e - 1, n), jucys_murphy(i, n))


def _assignments(
    values: list[tuple[int, int]], positions: tuple[int, ...]
) -> Iterator[dict[int, int]]:
    """All ways to give each exponent value its multiplicity of positions."""
    if not values:
        yield {}
        return
    from itertools import combinations

    val, count = values[0]
    for chosen in combinations(positions, count):
        remaining = tuple(p for p in positions if p not in chosen)
        for rest in _assignments(values[1:], remaining):
            out = {p: val for p in chosen}
            out.update(rest)
            yield out


def m_sym_by_monomials(lam, n):
    """m_lam(L_1, ..., L_n) as the sum of its monomials, each multiplied out."""
    lam = check_partition(lam)
    if len(lam) > n:
        return zero(n)
    if not lam:
        return unit(n)
    from collections import Counter

    counts = sorted(Counter(lam).items(), reverse=True)
    monomials = []
    # position 1 is skipped outright: any monomial touching L_1 vanishes
    for assign in _assignments(counts, tuple(range(2, n + 1))):
        term = unit(n)
        for pos in sorted(assign):
            term = mul(term, _jm_power(pos, assign[pos], n))
        monomials.append((_ONE, term))
    return linear_combination(n, monomials)


def _g(k):
    """G_k = sum over j < k of 2^l((j, k)), the bound |h L_k|_1 <= G_k |h|_1."""
    return sum(2 ** (2 * (k - j) - 1) for j in range(1, k))


def _norm(h):
    return sum(abs(a) for c in h.terms.values() for a in c.coeffs)


def _times_jm(h, k):
    """h L_k through the packed kernel, at the width the bound G_k gives."""
    width = (_norm(h) * _g(k)).bit_length() + 2
    vec = hecke._packed(h, hecke._Memo(hecke._pack, width))
    vec = hecke._times_jm(vec, k, coxeter._tables(h.n).steps, width)
    return HeckeElt(h.n, {coxeter._index_perm(j, h.n): hecke._unpack(v, width)
                          for j, v in vec.items()})


def _random_element(n, rng, nterms, bits):
    perms = list(permutations(range(1, n + 1)))
    return HeckeElt(n, {
        w: IntPoly([rng.randint(-(2 ** bits), 2 ** bits) for _ in range(rng.randint(1, 4))])
        for w in rng.sample(perms, min(nterms, len(perms)))
    })


@pytest.mark.parametrize("n", range(1, 8))
def test_m_sym_matches_monomial_oracle(n):
    # covers the unit at lam = () and every vanishing len(lam) >= n
    for lam in partitions_up_to(4):
        assert m_sym(lam, n) == m_sym_by_monomials(lam, n), (lam, n)


def test_too_many_parts_multiplies_nothing(monkeypatch):
    # a bound len(lam) > k instead of len(lam) >= k gives the same elements,
    # since the extra terms carry a power of L_1 = 0, but multiplies them out
    hecke._m_sym_upto.cache_clear()
    monkeypatch.setattr(hecke, "mul", lambda a, b: pytest.fail("m_sym multiplied"))
    monkeypatch.setattr(hecke, "_times_jm", lambda *a: pytest.fail("m_sym multiplied by L_k"))
    for n in range(1, 6):
        for lam in partitions_up_to(4):
            if len(lam) >= n:
                assert m_sym(lam, n) == zero(n), (lam, n)


def test_m_sym_calls_no_product(monkeypatch):
    want = {(lam, n): m_sym_by_monomials(lam, n) for n in range(1, 7) for lam in partitions_up_to(4)}
    hecke._m_sym_upto.cache_clear()
    monkeypatch.setattr(hecke, "mul", lambda a, b: pytest.fail("m_sym called mul"))
    for (lam, n), h in want.items():
        assert m_sym(lam, n) == h, (lam, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_packed_jm_matches_mul(n):
    rng = random.Random(1100 + n)
    for k in range(2, n + 1):
        for nterms, bits in ((1, 3), (5, 3), (12, 60), (n * n, 200)):
            h = _random_element(n, rng, nterms, bits)
            assert _times_jm(h, k) == mul(h, jucys_murphy(k, n)), (n, k, nterms, bits)


@pytest.mark.parametrize("n", range(2, 7))
def test_jm_bound_holds_on_basis(n):
    # |T_w L_k|_1 <= G_k for every w, hence |h L_k|_1 <= G_k |h|_1 for every h
    for w in permutations(range(1, n + 1)):
        for k in range(2, n + 1):
            assert _norm(mul(t_basis(w), jucys_murphy(k, n))) <= _g(k), (w, k)


@pytest.mark.parametrize("n", range(2, 8))
def test_jm_recursion(n):
    # L_{j+1} = T_j L_j T_j + T_j, through the public product
    for j in range(1, n):
        t = t_basis(transposition(n, j, j + 1))
        want = mul(mul(t, jucys_murphy(j, n)), t) + t
        assert jucys_murphy(j + 1, n) == want, (n, j)
