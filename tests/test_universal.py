"""Rank-independent constants, the graded algebra, and polynomial fits."""

from fractions import Fraction

import pytest

from grhecke import center, universal
from grhecke.center import CentralCoords
from grhecke.errors import InvalidInputError, InvariantViolationError
from grhecke.hecke import mul
from grhecke.polyring import IntPoly, NPoly, RatPoly
from grhecke.universal import (
    check_graded_associativity, dominance_compare, fit_m_sym_coeff,
    fit_structure_constant, graded_product, graded_table,
    one_row_product_matrix, universal_constant,
)


class TestUniversalConstant:
    def test_two_from_one_one(self):
        assert universal_constant((1,), (1,), (2,)).coeffs == (3, 0, 1)

    def test_one_one_from_one_one(self):
        assert universal_constant((1,), (1,), (1, 1)).coeffs == (2, 0, 1)

    def test_unit_law(self):
        assert universal_constant((), (2, 1), (2, 1)) == IntPoly.const(1)
        assert universal_constant((), (), ()) == IntPoly.const(1)

    def test_wrong_grade_rejected(self):
        with pytest.raises(InvalidInputError):
            universal_constant((1,), (1,), (3,))

    def test_rank_disagreement_surfaces(self, monkeypatch):
        # fault injection: values that differ between the two ranks must
        # raise, not be swallowed
        def fake(lam, mu, n):
            return CentralCoords(n=n, coords={(2,): IntPoly.const(n)})

        monkeypatch.setattr(universal, "structure_constants", fake)
        with pytest.raises(InvariantViolationError):
            universal_constant((1,), (1,), (2,))


class TestGradedProduct:
    def test_one_times_one(self):
        got = {nu: c.coeffs for nu, c in graded_product((1,), (1,)).items()}
        assert got == {(2,): (3, 0, 1), (1, 1): (2, 0, 1)}

    def test_one_times_two(self):
        got = {nu: c.coeffs for nu, c in graded_product((1,), (2,)).items()}
        assert got[(3,)] == (4, 0, 4, 0, 1)
        assert got[(2, 1)] == (1, 0, 2, 0, 1)

    def test_one_times_one_one(self):
        got = {nu: c.coeffs for nu, c in graded_product((1,), (1, 1)).items()}
        assert got[(3,)] == (2, 0, 1)
        assert got[(2, 1)] == (3, 0, 2)

    def test_commutative(self):
        # the swapped product is formed here: its top-degree part, at both
        # ranks, is the graded row
        assert graded_product((1,), (2,)) == graded_product((2,), (1,))
        for n in (6, 7):
            basis = center.gamma_basis(n, 3)
            product = mul(basis.gamma[(2,)], basis.gamma[(1,)])
            coords = center.expand_in_gamma(product, basis)
            top = {nu: c for nu, c in coords.coords.items() if sum(nu) == 3}
            assert graded_product((2,), (1,)) == top

    def test_one_row_per_unordered_pair(self, monkeypatch, fresh_memos):
        # both orders read the memo of structure_constants: one product per rank
        formed = []
        product_coords = center._product_coords

        def counted(lam, mu, n):
            formed.append(n)
            return product_coords(lam, mu, n)

        monkeypatch.setattr(center, "_product_coords", counted)
        a = graded_product((2,), (1,))
        b = graded_product((1,), (2,))
        c = universal_constant((2,), (1,), (3,))
        assert formed == [6, 7]
        assert a == b and c == a[(3,)]

    def test_empty_pair_is_the_unit(self):
        assert graded_product((), ()) == {(): IntPoly.const(1)}

    def test_constants_even_and_nonnegative(self):
        table = graded_table(3)
        for lam, mu, row in table.entries:
            for nu, c in row.items():
                assert c.is_nonnegative(), (lam, mu, nu)
                assert c.parity() == "even", (lam, mu, nu)

    def test_associativity_small_triples(self):
        assert check_graded_associativity((1,), (1,), (1,))


class TestDominance:
    def test_equal(self):
        assert dominance_compare((2, 1), (2, 1)) == "="

    def test_strict(self):
        assert dominance_compare((3,), (2, 1)) == ">"
        assert dominance_compare((1, 1, 1), (2, 1)) == "<"

    def test_incomparable(self):
        assert dominance_compare((3, 1, 1, 1), (2, 2, 2)) is None

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            dominance_compare((2,), (1,))


class TestOneRowMatrix:
    def test_k1(self):
        report = one_row_product_matrix(1)
        assert report.order == [(1,)]
        assert report.matrix[0][0] == IntPoly.const(1)
        assert report.invertible

    def test_k2_rows(self):
        report = one_row_product_matrix(2)
        assert report.order == [(2,), (1, 1)]
        assert report.matrix[0] == [IntPoly.const(1), IntPoly()]
        assert report.matrix[1] == [IntPoly((3, 0, 1)), IntPoly((2, 0, 1))]

    def test_k2_zero_specialization(self):
        report = one_row_product_matrix(2)
        assert report.zero_diagonal == [1, 2]
        assert report.dominance_triangular_at_zero

    def test_k3_invertible_and_triangular_at_zero(self):
        report = one_row_product_matrix(3)
        assert report.invertible
        assert report.dominance_triangular_at_zero
        assert all(report.zero_diagonal)

    def test_k_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            one_row_product_matrix(0)

    def test_singular_matrix_surfaces(self, monkeypatch):
        monkeypatch.setattr(universal, "graded_product", lambda lam, mu: {})
        with pytest.raises(InvariantViolationError):
            one_row_product_matrix(2)


class TestFits:
    def test_constant_fit(self):
        r = fit_structure_constant((1,), (1,), (2,), 3, 6)
        assert r.validated
        assert r.fit == NPoly([RatPoly((3, 0, 1))])

    def test_triangle_number_fit(self):
        r = fit_structure_constant((1,), (1,), (), 3, 6)
        assert r.validated
        assert r.support == [3, 4, 5] and r.validated_at == [6]
        want = NPoly([RatPoly(()), RatPoly((Fraction(-1, 2),)),
                      RatPoly((Fraction(1, 2),))])
        assert r.fit == want
        assert r.values_nonneg_integral

    def test_linear_x_fit(self):
        r = fit_structure_constant((1,), (1,), (1,), 3, 6)
        assert r.validated
        assert r.fit == NPoly([RatPoly((0, -1)), RatPoly((0, 1))])

    def test_vanishing_rank_skipped(self):
        r = fit_structure_constant((1,), (1,), (1, 1), 3, 6)
        assert r.validated
        assert r.support == [4]  # n=3 carries no data for this class
        assert r.validated_at == [5, 6]
        assert r.fit == NPoly([RatPoly((2, 0, 1))])

    def test_window_too_small(self):
        with pytest.raises(InvalidInputError):
            fit_structure_constant((1,), (1,), (), 3, 4)

    def test_degree_cap_exceeded_is_reported_not_raised(self):
        # a quadratic cannot validate from a 3-rank window, since the last
        # rank must stay held out
        r = fit_structure_constant((1,), (1,), (), 3, 5)
        assert r.status == "degree-cap-exceeded"
        assert r.fit is None and not r.validated

    def test_m_coeff_diagonal(self):
        r = fit_m_sym_coeff((1,), (1,), 3, 6)
        assert r.validated
        assert r.fit == NPoly([RatPoly((1,))])

    def test_m_coeff_two_diagonal(self):
        # constant in n; the value 1 + x^2 is frozen from a hand computation
        r = fit_m_sym_coeff((2,), (2,), 3, 6)
        assert r.validated
        assert r.fit == NPoly([RatPoly((1, 0, 1))])

    def test_m_coeff_nontrivial(self):
        r = fit_m_sym_coeff((1, 1), (2,), 4, 7)
        assert r.validated
        for n, v in r.samples:
            assert r.fit.evaluate(n) == RatPoly.from_intpoly(v)


@pytest.mark.slow
class TestGradeFour:
    def test_one_row_matrix_k4(self):
        report = one_row_product_matrix(4)
        assert report.invertible
        assert report.dominance_triangular_at_zero
        assert all(report.zero_diagonal)
