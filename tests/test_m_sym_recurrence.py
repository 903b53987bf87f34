"""`hecke.m_sym` by its recurrence on L_n against the monomial enumeration it replaced."""

from typing import Iterator

import pytest

from grhecke import hecke
from grhecke.coxeter import check_partition, partitions_up_to
from grhecke.hecke import _jm_power, linear_combination, m_sym, mul, unit, zero
from grhecke.polyring import IntPoly

_ONE = IntPoly.const(1)


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
    for n in range(1, 6):
        for lam in partitions_up_to(4):
            if len(lam) >= n:
                assert m_sym(lam, n) == zero(n), (lam, n)
