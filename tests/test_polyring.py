"""Exact polynomial arithmetic, linear solving, and interpolation."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grhecke.errors import (
    ExactDivisionError, InvalidInputError, SingularSystemError,
)
from grhecke.polyring import (
    IntPoly, NPoly, RatPoly, determinant, divexact, interpolate_in_n, solve_linear,
)

ZERO = IntPoly()
ONE = IntPoly.const(1)
XI = IntPoly.xi()


def ipoly(max_deg=5, max_coeff=9):
    return st.lists(
        st.integers(-max_coeff, max_coeff), min_size=0, max_size=max_deg + 1
    ).map(IntPoly)


class TestArithmetic:
    def test_square_of_one_plus_x(self):
        assert (IntPoly((1, 1)) * IntPoly((1, 1))).coeffs == (1, 2, 1)

    def test_additive_identity(self):
        p = IntPoly((2, 0, 5))
        assert p + ZERO == p

    def test_direct_expansion(self):
        assert (IntPoly((3, 0, 1)) * IntPoly((2, 0, 1))).coeffs == (6, 0, 5, 0, 1)

    def test_normalization(self):
        assert IntPoly((0, 0, 0)).coeffs == ()
        assert IntPoly((1, 0, 0)).coeffs == (1,)

    def test_degree_of_product(self):
        p, q = IntPoly((1, 2)), IntPoly((0, 0, 3))
        assert (p * q).degree == p.degree + q.degree

    @given(ipoly(), ipoly(), ipoly())
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @given(ipoly())
    def test_sub_is_add_neg(self, p):
        assert p - p == ZERO

    def test_integer_scalar_multiplication(self):
        p = IntPoly((3, 0, 1))
        assert (2 * p).coeffs == (6, 0, 2)
        assert (p * 0) == ZERO


def rpoly(max_deg=4):
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.lists(fractions, max_size=max_deg + 1).map(RatPoly)


class TestRationalArithmetic:
    @given(rpoly(), rpoly(), rpoly())
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @given(rpoly(), rpoly())
    def test_sub_is_add_neg(self, p, q):
        assert p - q == p + (-q)
        assert p - p == RatPoly()

    @given(rpoly(), st.fractions(max_denominator=6))
    def test_scalars_multiply_termwise(self, p, c):
        assert c * p == p * c == p * RatPoly((c,))
        assert all(type(a) is Fraction for a in (p * c).coeffs + (p * 2).coeffs)

    def test_npoly_ring_operations(self):
        n, one = NPoly([RatPoly(()), RatPoly((1,))]), NPoly([RatPoly((1,))])
        assert (n + one) * (n - one) == NPoly([RatPoly((-1,)), RatPoly(()), RatPoly((1,))])
        half_x = RatPoly((0, Fraction(1, 2)))
        assert half_x * n == n * half_x == NPoly([RatPoly(()), half_x])
        assert -n * Fraction(2) == NPoly([RatPoly(()), RatPoly((-2,))])

    def test_mixed_rings_do_not_multiply(self):
        with pytest.raises(TypeError):
            IntPoly((1, 1)) * RatPoly((1,))
        with pytest.raises(TypeError):
            RatPoly((1,)) * Fraction(1, 2) * IntPoly((1,))


class TestRepresentation:
    VALUES = [IntPoly((-3, 0, 7)), RatPoly((Fraction(1, 2), 0, -3)),
              NPoly([RatPoly((1,)), RatPoly((0, Fraction(-1, 3)))])]

    @pytest.mark.parametrize("p", VALUES, ids=lambda p: type(p).__name__)
    def test_pickle_round_trip(self, p):
        q = pickle.loads(pickle.dumps(p))
        assert type(q) is type(p) and q == p and hash(q) == hash(p)

    @pytest.mark.parametrize("p", VALUES, ids=lambda p: type(p).__name__)
    def test_immutable(self, p):
        with pytest.raises(AttributeError):
            p.coeffs = ()
        with pytest.raises(AttributeError):
            p.extra = 1

    def test_equality_is_exact_in_type(self):
        assert RatPoly((1,)) != IntPoly((1,)) and IntPoly((1,)) != RatPoly((1,))
        assert NPoly([RatPoly((1,))]) != RatPoly((1,))
        assert IntPoly((3,)) == 3 and IntPoly(()) == 0 and IntPoly((0, 1)) != 0


class TestSpecializeZero:
    def test_constant_term(self):
        assert IntPoly((3, 0, 1)).constant_term() == 3

    def test_zero(self):
        assert ZERO.constant_term() == 0

    def test_pure_odd(self):
        assert IntPoly((0, 2)).constant_term() == 0

    @given(ipoly(), ipoly())
    def test_ring_homomorphism(self, p, q):
        assert (p * q).constant_term() == p.constant_term() * q.constant_term()
        assert (p + q).constant_term() == p.constant_term() + q.constant_term()


class TestParity:
    def test_even(self):
        assert IntPoly((3, 0, 1)).parity() == "even"

    def test_odd(self):
        assert IntPoly((0, 2)).parity() == "odd"

    def test_mixed(self):
        assert IntPoly((1, 1)).parity() == "mixed"

    def test_zero(self):
        assert ZERO.parity() == "zero"

    @given(ipoly(), ipoly())
    def test_multiplicative_on_pure_inputs(self, p, q):
        table = {("even", "even"): "even", ("even", "odd"): "odd",
                 ("odd", "even"): "odd", ("odd", "odd"): "even"}
        key = (p.parity(), q.parity())
        if key in table:
            assert (p * q).parity() in (table[key], "zero")


class TestNonnegative:
    def test_positive(self):
        assert IntPoly((3, 0, 1)).is_nonnegative()

    def test_zero(self):
        assert ZERO.is_nonnegative()

    def test_negative(self):
        assert not IntPoly((-1, 1)).is_nonnegative()


class TestDivisionAndGcd:
    def test_divexact(self):
        p = IntPoly((1, 1)) * IntPoly((2, 0, 3))
        assert divexact(p, IntPoly((1, 1))) == IntPoly((2, 0, 3))

    def test_divexact_rejects_remainder(self):
        with pytest.raises(ExactDivisionError):
            divexact(IntPoly((1, 1, 1)), IntPoly((1, 1)))


def assert_solves(A, b, y, d):
    """The exact residual of a fraction-free solution: A y == d b."""
    assert d
    for row, rhs in zip(A, b):
        acc = ZERO
        for a, v in zip(row, y):
            acc = acc + a * v
        assert acc == d * rhs


def solution(A, b):
    """solve_linear's x = y / d, for systems whose solution is in Z[x]."""
    (y,), d = solve_linear(A, [b])
    return [divexact(v, d) for v in y]


def matrices(rows, cols, max_deg=2, max_coeff=3):
    return st.lists(st.lists(ipoly(max_deg, max_coeff), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


class TestSolveLinear:
    def test_identity_matrix(self):
        A = [[ONE, ZERO], [ZERO, ONE]]
        b = [IntPoly((1, 2)), XI]
        assert solution(A, b) == b

    def test_diagonal(self):
        A = [[XI, ZERO], [ZERO, ONE]]
        b = [IntPoly((0, 0, 1)), ONE]
        assert solution(A, b) == [XI, ONE]

    def test_unitriangular_backsub(self):
        A = [[ONE, IntPoly((1, 1))], [ZERO, ONE]]
        b = [IntPoly((2, 1)), XI]
        (y,), d = solve_linear(A, [b])
        assert_solves(A, b, y, d)

    def test_singular_square_reports_rank(self):
        A = [[ONE, ONE], [ONE, ONE]]
        with pytest.raises(SingularSystemError) as exc:
            solve_linear(A, [[ONE, ZERO]])
        assert exc.value.rank == 1

    def test_underdetermined_allowed(self):
        A = [[ONE, ONE]]
        assert solution(A, [XI]) == [XI, ZERO]

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_random_integer_systems(self, rows):
        A = [[IntPoly.const(c) for c in row] for row in rows]
        b = [ONE, XI, IntPoly((1, 1))]
        try:
            (y,), d = solve_linear(A, [b])
        except SingularSystemError:
            return
        assert_solves(A, b, y, d)

    @given(matrices(3, 3), st.lists(ipoly(2, 3), min_size=3, max_size=3))
    def test_random_polynomial_systems(self, A, b):
        try:
            (y,), d = solve_linear(A, [b])
        except SingularSystemError:
            assert determinant(A) == ZERO
            return
        assert_solves(A, b, y, d)

    @given(st.integers(1, 3).flatmap(
        lambda m: st.tuples(matrices(m, m + 2), st.lists(ipoly(2, 3), min_size=m, max_size=m))))
    def test_random_underdetermined_systems(self, system):
        A, b = system
        try:
            (y,), d = solve_linear(A, [b])
        except SingularSystemError:
            # only a rank-deficient row space can make the system inconsistent
            assert determinant([row[:len(A)] for row in A]) == ZERO
            return
        assert_solves(A, b, y, d)
        # free variables stay zero, so at most rank(A) <= m entries are nonzero
        assert sum(1 for v in y if v) <= len(A)

    @given(st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(lambda shape: st.tuples(
        matrices(*shape),
        st.lists(st.lists(ipoly(2, 3), min_size=shape[0], max_size=shape[0]),
                 min_size=1, max_size=4))))
    def test_several_columns_solve_as_each_alone(self, system):
        # the pivots are chosen from A alone, so every column gets the (y, d)
        # of its own solve, and an inconsistent one fails with the same rank
        A, columns = system
        alone = []
        for b in columns:
            try:
                alone.append(solve_linear(A, [b]))
            except SingularSystemError as exc:
                alone.append(exc.rank)
        ranks = [r for r in alone if isinstance(r, int)]
        if ranks:
            with pytest.raises(SingularSystemError) as exc:
                solve_linear(A, columns)
            assert {exc.value.rank} == set(ranks)
            assert str(exc.value) == f"inconsistent linear system (rank {ranks[0]})"
            return
        ys, d = solve_linear(A, columns)
        assert [([y], d) for y in ys] == alone

    def test_an_inconsistent_column_fails_the_whole_solve(self):
        A = [[ONE, ONE], [ONE, ONE]]
        with pytest.raises(SingularSystemError) as exc:
            solve_linear(A, [[ONE, ONE], [ONE, ZERO], [XI, XI]])
        assert exc.value.rank == 1
        ys, d = solve_linear(A, [[ONE, ONE], [XI, XI]])
        assert (ys, d) == ([[ONE, ZERO], [XI, ZERO]], ONE)
        assert solve_linear(A, []) == ([], ONE)


def cofactor_determinant(A):
    """Laplace expansion along the first row; an oracle independent of Bareiss."""
    if not A:
        return ONE
    out = ZERO
    for j, a in enumerate(A[0]):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        term = a * cofactor_determinant(minor)
        out = out - term if j % 2 else out + term
    return out


class TestDeterminant:
    def test_two_by_two(self):
        A = [[ONE, XI], [XI, ONE]]
        assert determinant(A) == ONE - XI * XI

    def test_singular(self):
        A = [[ONE, ONE], [ONE, ONE]]
        assert determinant(A) == ZERO

    @given(st.integers(0, 4).flatmap(lambda k: matrices(k, k)))
    def test_matches_cofactor_expansion(self, A):
        assert determinant(A) == cofactor_determinant(A)


class TestInterpolation:
    def test_triangle_numbers(self):
        pts = [(3, IntPoly.const(3)), (4, IntPoly.const(6)), (5, IntPoly.const(10))]
        f = interpolate_in_n(pts)
        # n(n-1)/2
        assert f.coeffs == (RatPoly(()), RatPoly((Fraction(-1, 2),)),
                            RatPoly((Fraction(1, 2),)))
        assert f.evaluate(6) == RatPoly((15,))

    def test_constant(self):
        c = IntPoly((3, 0, 1))
        f = interpolate_in_n([(3, c), (4, c)])
        assert f.evaluate(7) == RatPoly.from_intpoly(c)

    def test_linear_in_x(self):
        pts = [(3, IntPoly((0, 2))), (4, IntPoly((0, 3))), (5, IntPoly((0, 4)))]
        f = interpolate_in_n(pts)
        # (n-1) x
        assert f.evaluate(6) == RatPoly((0, 5))
        assert f.coeffs == (RatPoly((0, -1)), RatPoly((0, 1)))

    def test_one_point_is_a_constant(self):
        c = IntPoly((3, 0, 1))
        assert interpolate_in_n([(5, c)]) == NPoly([RatPoly.from_intpoly(c)])
        assert interpolate_in_n([(5, IntPoly())]) == NPoly()

    def test_no_points_rejected(self):
        with pytest.raises(InvalidInputError, match="^need at least 1 interpolation point$"):
            interpolate_in_n([])

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(InvalidInputError):
            interpolate_in_n([(3, ONE), (3, ONE)])

    @given(st.lists(st.tuples(st.integers(2, 9), ipoly(2, 4)),
                    min_size=2, max_size=5,
                    unique_by=lambda t: t[0]))
    def test_reproduces_points(self, pts):
        f = interpolate_in_n(pts)
        for n, v in pts:
            assert f.evaluate(n) == RatPoly.from_intpoly(v)


    @given(st.lists(ipoly(2, 4), min_size=1, max_size=4), st.integers(-3, 5))
    def test_recovers_an_integer_valued_npoly(self, cs, start):
        # f = sum_k c_k binomial(n, k) takes values in Z[x] at every integer n,
        # with rational coefficients in n
        f, binomial = NPoly(), NPoly([RatPoly((1,))])
        for k, c in enumerate(cs):
            f = f + binomial * RatPoly.from_intpoly(c)
            binomial = binomial * NPoly([RatPoly((Fraction(-k, k + 1),)),
                                         RatPoly((Fraction(1, k + 1),))])
        points = []
        for n in range(start, start + max(f.degree + 1, 2)):
            value = f.evaluate(n).coeffs
            assert all(c.denominator == 1 for c in value)
            points.append((n, IntPoly(int(c) for c in value)))
        assert interpolate_in_n(points) == f


class TestRendering:
    def test_ascending(self):
        assert IntPoly((3, 2, 1)).to_str() == "3 + 2*x + x^2"

    def test_compact_descending(self):
        assert IntPoly((3, 0, 1)).to_str(ascending=False, compact=True) == "x^2+3"
        assert IntPoly((0, 2)).to_str(ascending=False, compact=True) == "2x"

    def test_zero(self):
        assert ZERO.to_str() == "0"

    def test_ratpoly_ascending(self):
        p = RatPoly((Fraction(-1, 2), 0, 1, Fraction(-3, 4), 2))
        assert str(p) == "-1/2 + x^2 - 3/4*x^3 + 2*x^4"
        assert str(RatPoly(())) == "0"

    def test_npoly_render(self):
        f = NPoly([RatPoly(()), RatPoly((Fraction(-1, 2),)), RatPoly((Fraction(1, 2),))])
        assert f.render() == "(1/2)*n^2 - (1/2)*n"

    def test_json_round_trip(self):
        assert IntPoly((-3, 0, 12345678901234567890)).to_json() == [
            "-3", "0", "12345678901234567890"]
        assert IntPoly().to_json() == []

    def test_rational_json_round_trip(self):
        p = RatPoly((Fraction(-1, 2), 0, Fraction(12345678901234567890, 7)))
        assert p.to_json() == [["-1", "0", "12345678901234567890"], ["2", "1", "7"]]
        f = NPoly([RatPoly(()), p])
        assert f.to_json() == [[[], []], p.to_json()]
