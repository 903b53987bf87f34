"""
The certificate of each class element in the elementary products e_rho(L),
against the certificate in the monomials m_mu(L) that it replaced
(`monomial_certificate`), and against whole elements formed without the
trace pairing; the solve of a whole size level against each class solved
alone, and each e_rho in both orders of its factors.
"""

import pytest

import monomial_certificate
from grhecke import center, hecke
from grhecke.center import _candidate_classes, gamma_basis, gamma_element
from grhecke.coxeter import partitions_of, partitions_up_to
from grhecke.errors import ConstructionError
from grhecke.hecke import HeckeElt, mul
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
    (y,), d = solve_linear([rows[nu] for nu in classes], [[want[nu] for nu in classes]])
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


@pytest.mark.parametrize("n", range(1, 8))
def test_the_level_solve_is_each_class_solved_alone(n):
    # one elimination per size level gives every lam of that size the (y, d)
    # of its own one-column solve on the same rows
    for lam in _candidate_classes(4, n):
        _, _, ys, d = center._level_solve(sum(lam), n)
        assert (ys[lam], d) == e_certify(lam, n), (lam, n)


@pytest.mark.parametrize("n", range(2, 8))
def test_each_elementary_product_is_the_same_in_both_orders(n, monkeypatch, fresh_memos):
    pairs = []
    monkeypatch.setattr(center, "mul", lambda h1, h2: pairs.append((h1, h2)) or mul(h1, h2))
    for rho in [rho for k in range(2, 5) for rho in partitions_of(k) if len(rho) > 1]:
        first, rest = center._e_product(rho[:1], n), center._e_product(rho[1:], n)
        del pairs[:]
        values = center._e_product(rho, n)._at_reps()
        assert values == mul(first, rest)._at_reps() == mul(rest, first)._at_reps(), (rho, n)
        # the pairing steps its left factor: the lighter one, e_rest when
        # |rho| - rho_1 < rho_1 (e_rho is zero, formed by no product, when
        # rho_1 >= n)
        lighter = sum(rho) - rho[0] < rho[0]
        want = [] if rho[0] >= n else [(rest, first) if lighter else (first, rest)]
        assert pairs[:1] == want, (rho, n)


def test_one_solve_per_size_level(monkeypatch, fresh_memos):
    solve, calls = center.solve_linear, []
    monkeypatch.setattr(center, "solve_linear",
                        lambda A, columns: calls.append(len(columns)) or solve(A, columns))
    gamma_basis(7, 4)
    # levels 0 to 4 hold 1, 1, 2, 3 and 4 classes: 11 classes in 5 solves
    assert calls == [1, 1, 2, 3, 4]
    gamma_element((2,), 7)
    assert len(calls) == 5
    center.clear_caches()
    gamma_element((2,), 7)
    assert calls == [1, 1, 2, 3, 4, 2]


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


def test_the_message_names_the_family_read(monkeypatch, fresh_memos):
    # up to the dense rank the rows are the e_rho (above it the m_mu, see
    # `test_inexact_division_raises`); below size 2 the two families are
    # the same elements, 1 and e_1 = m_1
    solve = center.solve_linear

    def doubled_denominator(A, columns):
        ys, d = solve(A, columns)
        return ys, d * IntPoly.const(2)

    monkeypatch.setattr(center, "solve_linear", doubled_denominator)
    for lam, n, family in [((2,), 5, "e_rho"), ((1, 1), 7, "e_rho"), ((1,), 7, "m_mu")]:
        with pytest.raises(ConstructionError, match=(
                rf"fails its certificate at class .*: the solve's combination of {family} has ")):
            center._solve_gamma(lam, n)
