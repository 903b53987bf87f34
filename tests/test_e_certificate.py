"""
The certificate of each class element in the elementary products e_rho(L),
against the certificate in the monomials m_mu(L) that it replaced
(`monomial_certificate`), and against whole elements formed without the
trace pairing.
"""

import pytest

import monomial_certificate
from grhecke import center, hecke
from grhecke.center import _candidate_classes, gamma_basis, gamma_element
from grhecke.coxeter import partitions_up_to
from grhecke.errors import ConstructionError
from grhecke.hecke import HeckeElt
from grhecke.polyring import IntPoly, solve_linear

ONE = IntPoly.const(1)


def e_certify(lam, n, want=None):
    """
    `center._certify` on the e_rho(L), |rho| <= |lam|, for the central
    element g of values want[nu] at the class reps (gamma_lam's pattern by
    default), solved as `center._solve_gamma` solves. Returns (y, d).
    """
    want = monomial_certificate.pattern(lam, n) if want is None else want
    rows = center._at_reps(n, [center._e_product(rho, n) for rho in partitions_up_to(sum(lam))])
    classes = _candidate_classes(sum(lam), n)
    y, d = solve_linear([rows[nu] for nu in classes], [want[nu] for nu in classes])
    # d g = d gamma_lam + d (g - gamma_lam): the departure joins the rows
    # with weight -d, so the check against d gamma_lam is the check of d g
    extended = {nu: row + [want[nu] - (ONE if nu == lam else IntPoly())]
                for nu, row in rows.items()}
    center._certify(lam, n, extended, y + [-d], d, "e_rho")
    return y, d


@pytest.mark.parametrize("n", range(1, 8))
def test_both_certificates_accept_every_class(n):
    for lam in _candidate_classes(4, n):
        monomial_certificate.certify(lam, n)
        e_certify(lam, n)
        assert gamma_element(lam, n), (lam, n)


@pytest.mark.parametrize("n", (5, 6, 7))
def test_both_certificates_reject_the_same_perturbed_elements(n):
    # gamma_lam + x gamma_nu lies in the layer of size |lam| exactly when
    # |nu| <= |lam|; both certificates must see it, at the same class
    everything = _candidate_classes(n, n)
    for lam in _candidate_classes(3, n):
        for nu in everything:
            if nu == lam:
                continue
            want = monomial_certificate.pattern(lam, n)
            want[nu] = IntPoly.xi()
            outcomes = []
            for certify in (monomial_certificate.certify, e_certify):
                try:
                    certify(lam, n, want)
                    outcomes.append(None)
                except ConstructionError as exc:
                    outcomes.append(str(exc).partition(":")[0])
            expected = f"gamma_{lam}(n={n}) fails its certificate at class {nu}"
            assert outcomes == [expected if sum(nu) > sum(lam) else None] * 2, (lam, nu)


def _e_unmarked(rho, n):
    """e_rho(L) from unmarked copies of the e_r, multiplied by the Horner fold."""
    out = hecke.unit(n)
    for r in rho:
        if r >= n:
            return hecke.zero(n)
        e = HeckeElt(n, hecke.e_sym(r, n).terms)
        assert not e._central
        out = hecke._fold_right(out, e, False)
    return out


@pytest.mark.parametrize("n", range(2, 7))
def test_the_certified_combination_is_the_whole_element(n):
    for lam in _candidate_classes(4, n):
        y, d = e_certify(lam, n)
        es = [_e_unmarked(rho, n) for rho in partitions_up_to(sum(lam))]
        combination = hecke.linear_combination(n, list(zip(y, es)))
        assert combination == gamma_element(lam, n).scale(d), (lam, n)


@pytest.fixture
def fresh_memos():
    center.clear_caches()
    yield
    center.clear_caches()


@pytest.mark.parametrize("n", (5, 6, 7, 8))
def test_construction_forms_no_monomial_but_the_elementary_sums(n, monkeypatch, fresh_memos):
    m_sym, formed = hecke.m_sym, set()

    def elementary_only(mu, k):
        if any(part > 1 for part in mu):
            raise AssertionError(f"m_{mu}(n={k}) was formed")
        formed.add(mu)
        return m_sym(mu, k)

    monkeypatch.setattr(hecke, "m_sym", elementary_only)
    basis = gamma_basis(n, 4)
    assert len(basis.gamma) == len(_candidate_classes(4, n))
    assert formed == {(1,) * r for r in range(1, 5)}


def test_an_unmarked_elementary_sum_stops_construction(monkeypatch, fresh_memos):
    # the certificate reads products of the e_r on the trace pairing, which
    # holds only for central factors
    monkeypatch.setattr(center, "is_central", lambda h: False)
    with pytest.raises(ConstructionError, match=r"^e_1\(n=5\) is not central$"):
        gamma_element((1,), 5)


def test_the_message_names_the_family_read(monkeypatch):
    # up to the dense rank the rows are the e_rho (above it the m_mu, see
    # `test_inexact_division_raises`); below size 2 the two families are
    # the same elements, 1 and e_1 = m_1
    solve = center.solve_linear

    def doubled_denominator(A, b):
        y, d = solve(A, b)
        return y, d * IntPoly.const(2)

    monkeypatch.setattr(center, "solve_linear", doubled_denominator)
    for lam, n, family in [((2,), 5, "e_rho"), ((1, 1), 7, "e_rho"), ((1,), 7, "m_mu")]:
        with pytest.raises(ConstructionError, match=(
                rf"fails its certificate at class .*: the solve's combination of {family} has ")):
            center._solve_gamma(lam, n)
