"""
Class elements built by the class-polynomial sweep and certified by the
linear solve in the Jucys-Murphy elements.
"""

import re

import pytest

import assembled_gamma
from grhecke import center, coxeter, hecke
from grhecke.center import gamma_basis, gamma_element
from grhecke.coxeter import length
from grhecke.errors import ConstructionError
from grhecke.hecke import HeckeElt
from grhecke.polyring import IntPoly

ONE = IntPoly.const(1)


def classes(n, up_to):
    return center._candidate_classes(up_to, n)


def plan_rep(lam, n):
    """The sweep plan's rep of the class of lam in S_n."""
    plan = coxeter._sweep(n)
    return coxeter._index_perm(plan.reps[plan.classes.index(lam)], n)


@pytest.mark.parametrize("n", range(1, 8))
def test_equals_the_assembled_solve(n):
    # every class at n <= 6, and every class with |lam| <= 4 at n = 7
    for lam in classes(n, 4 if n == 7 else n):
        assert gamma_element(lam, n) == assembled_gamma.gamma(lam, n), (lam, n)


@pytest.mark.slow
def test_equals_the_assembled_solve_at_rank_eight():
    for lam in classes(8, 4):
        assert gamma_element(lam, 8) == assembled_gamma.gamma(lam, 8), lam


def test_every_class_of_rank_seven_is_certified():
    for lam in classes(7, 7):
        assert gamma_element(lam, 7), lam


def test_the_assembly_is_not_formed_up_to_the_dense_rank(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("the class element must be swept, not assembled")

    monkeypatch.setattr(hecke, "linear_combination", must_not_run)
    assert center._DENSE_MAX_RANK >= 6
    assert gamma_element((2, 1), 6) == gamma_basis(6, 3).gamma[(2, 1)]


def test_above_the_dense_rank_the_solve_is_assembled():
    # no sweep plan exists there, so the element is the assembly itself
    assert center._DENSE_MAX_RANK < 10
    got = gamma_element((1,), 10)
    assert got == assembled_gamma.gamma((1,), 10)
    assert len(got) == 45


def test_certificate_names_a_class_above_lam(monkeypatch, fresh_memos):
    # e_(1) = gamma_(1) is changed at the rep of (2,) only, which the solve
    # for gamma_(1) does not read: only the certificate at (2,) can see it.
    # Below size 2 the e_rho are the m_mu, 1 and e_1 = m_1, and the message
    # names them so
    e_product = center._e_product
    w = plan_rep((2,), 5)
    e1 = e_product((1,), 5)
    assert e1.coeff(w) == IntPoly()
    perturbed = HeckeElt(5, {**e1.terms, w: ONE})
    monkeypatch.setattr(center, "_e_product",
                        lambda rho, n: perturbed if (rho, n) == ((1,), 5) else e_product(rho, n))
    with pytest.raises(ConstructionError, match=re.escape(
            f"gamma_(1,)(n=5) fails its certificate at class (2,): the solve's "
            f"combination of m_mu has 1 at {w}, expected 0")):
        gamma_element((1,), 5)


def test_certificate_runs_above_the_dense_rank(monkeypatch, fresh_memos):
    # m_(1) + x gamma_(2) is central, odd, and equals m_(1) at x = 0 and on
    # every class of size at most 1: only the certificate at (2,) sees it
    n = 10
    assert center._DENSE_MAX_RANK < n
    perturbed = center.m_sym((1,), n) + gamma_element((2,), n).scale(IntPoly.xi())
    m_sym = center.m_sym
    monkeypatch.setattr(center, "m_sym",
                        lambda mu, k: perturbed if (mu, k) == ((1,), n) else m_sym(mu, k))
    with pytest.raises(ConstructionError, match=re.escape(
            f"gamma_(1,)(n={n}) fails its certificate at class (2,): the solve's "
            f"combination of m_mu has {IntPoly.xi()} at {plan_rep((2,), n)}, expected 0")):
        gamma_element((1,), n)


def test_a_swept_element_changed_off_the_reps_is_not_central(monkeypatch):
    # x^2 T_w on a longest w of the class keeps the x = 0 class sum, the
    # parity and the pattern on the minimal elements: only centrality fails
    swept = hecke._class_element
    w = max(coxeter.conjugacy_class((2,), 5), key=length)
    assert w not in coxeter.minimal_length_elements((2,), 5)
    extra = HeckeElt(5, {w: IntPoly((0, 0, 1))})

    def perturbed(lam, n):
        return swept(lam, n) + extra

    monkeypatch.setattr(hecke, "_class_element", perturbed)
    with pytest.raises(ConstructionError, match=r"^gamma_\(2,\)\(n=5\) is not central$"):
        gamma_element((2,), 5)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_coefficient_meets_the_width_premises(n):
    # nonnegative coefficients and [T_w] gamma at x = 1 at most F_{l(w)+1},
    # which `hecke._class_element` proves to fix its width
    fib = [0, 1]
    while len(fib) < n * (n - 1) // 2 + 2:
        fib.append(fib[-1] + fib[-2])
    top = 4 if n == 7 else n
    for lam, g in gamma_basis(n, top).gamma.items():
        for w, c in g.terms.items():
            assert min(c.coeffs) >= 0, (lam, n, w)
            assert sum(c.coeffs) <= fib[length(w) + 1], (lam, n, w)
