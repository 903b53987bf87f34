"""
Exact polynomial arithmetic for the deformation parameter.

A polynomial is a normalized ascending tuple of coefficients (the zero
polynomial is the empty tuple), written once in `_Poly` with its ring
operations. `IntPoly` is Z[x] with arbitrary-precision integer
coefficients; all structure constants of the engine live here. `RatPoly`
is Q[x] with exact `Fraction` coefficients, and `NPoly` is Q[x][n], a
polynomial in the discrete rank variable n with `RatPoly` coefficients.

Linear systems and determinants over Z[x] share one fraction-free Bareiss
elimination with exact divisions: a solution comes back as a numerator
vector over Z[x] and one common denominator, so neither rational
functions nor floating point ever enter.

>>> (IntPoly((1, 1)) * IntPoly((1, 1))).coeffs
(1, 2, 1)
>>> IntPoly((3, 0, 1)).parity()
'even'
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ExactDivisionError, InvalidInputError, SingularSystemError

__all__ = [
    "IntPoly", "RatPoly", "NPoly", "divexact",
    "solve_linear", "determinant", "interpolate_in_n",
]


class _Poly:
    """
    A polynomial over an integral domain R. A subclass names R by `_zero`,
    its zero, and `_scalars`, the types other than its own that multiply it
    termwise. Polynomials over different rings are never equal.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _raw(cls, coeffs: tuple):
        # caller guarantees normalization
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.coeffs,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.coeffs!r})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and not out[-1]:
            out.pop()
        return self._raw(tuple(out))

    def __neg__(self):
        return self._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        out = list(a) + [self._zero] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        while out and not out[-1]:
            out.pop()
        return self._raw(tuple(out))

    def __mul__(self, other):
        # R has no zero divisors, so no product below needs normalizing
        a = self.coeffs
        if type(other) is not type(self):
            if not isinstance(other, self._scalars):
                return NotImplemented
            return self._raw(tuple(c * other for c in a) if other else ())
        b = other.coeffs
        if not a or not b:
            return self._raw(())
        out = [self._zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return self._raw(tuple(out))

    __rmul__ = __mul__


class IntPoly(_Poly):
    """A polynomial in x over Z, normalized (no trailing zeros)."""

    __slots__ = ()
    _zero, _scalars = 0, (int,)

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls._raw((c,)) if c else cls._raw(())

    @classmethod
    def xi(cls) -> "IntPoly":
        return cls._raw((0, 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return _Poly.__eq__(self, other)

    __hash__ = _Poly.__hash__

    # perfbench counts IntPoly's sums and products by wrapping these two
    # entries of the class's own namespace
    def __add__(self, other: "IntPoly") -> "IntPoly":
        return _Poly.__add__(self, other)

    def __mul__(self, other):
        return _Poly.__mul__(self, other)

    __rmul__ = __mul__

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def parity(self) -> str:
        """'zero', 'even', 'odd', or 'mixed' in the exponents of x."""
        if not self.coeffs:
            return "zero"
        has_even = any(c for j, c in enumerate(self.coeffs) if j % 2 == 0)
        has_odd = any(c for j, c in enumerate(self.coeffs) if j % 2 == 1)
        if has_even and has_odd:
            return "mixed"
        return "even" if has_even else "odd"

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def to_str(self, *, ascending: bool = True, compact: bool = False) -> str:
        """
        Render with `x` as the variable. The ascending spelled-out form is
        "3 + 2*x + x^2"; the compact descending form is "x^2+3".
        """
        if not self.coeffs:
            return "0"
        terms = []
        indices = range(len(self.coeffs))
        if not ascending:
            indices = reversed(indices)
        for j in indices:
            c = self.coeffs[j]
            if not c:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                var = "x" if j == 1 else f"x^{j}"
                if mag == 1:
                    body = var
                elif compact:
                    body = f"{mag}{var}"
                else:
                    body = f"{mag}*{var}"
            terms.append((c < 0, body))
        sep_plus, sep_minus = ("+", "-") if compact else (" + ", " - ")
        out = ("-" if terms[0][0] else "") + terms[0][1]
        for neg, body in terms[1:]:
            out += (sep_minus if neg else sep_plus) + body
        return out

    __str__ = to_str


_ZERO = IntPoly._raw(())
_ONE = IntPoly._raw((1,))


class RatPoly(_Poly):
    """A polynomial in x over Q, normalized."""

    __slots__ = ()
    _zero, _scalars = Fraction(0), (int, Fraction)

    def __init__(self, coeffs: Iterable = ()):
        super().__init__(map(Fraction, coeffs))

    @classmethod
    def from_intpoly(cls, p: IntPoly) -> "RatPoly":
        return cls(p.coeffs)

    def to_json(self) -> list[list[str]]:
        return [[str(c.numerator) for c in self.coeffs],
                [str(c.denominator) for c in self.coeffs]]

    # the same rendering as IntPoly, over Fraction coefficients
    __str__ = IntPoly.to_str


def divexact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Divide a by b in Z[x], raising if the division is not exact."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return _ZERO
    rem = list(a.coeffs)
    den = b.coeffs
    if len(rem) < len(den):
        raise ExactDivisionError("inexact polynomial division")
    quo = [0] * (len(rem) - len(den) + 1)
    lead = den[-1]
    for top in range(len(rem) - 1, len(den) - 2, -1):
        c = rem[top]
        if c % lead:
            raise ExactDivisionError("inexact polynomial division")
        factor = c // lead
        quo[top - len(den) + 1] = factor
        if factor:
            for j, d in enumerate(den):
                rem[top - len(den) + 1 + j] -= factor * d
    if any(rem):
        raise ExactDivisionError("inexact polynomial division")
    return IntPoly(quo)


def _echelon(mat: list[list[IntPoly]], ncols: int):
    """
    Fraction-free Bareiss elimination in place over the first `ncols`
    columns (any extra columns ride along as right-hand sides). Every
    division is exact: after step k each remaining entry is a (k+1)-minor.

    Returns (pivots, sign) where pivots is a list of (row, col) and sign is
    the parity of the row swaps made.
    """
    nrows = len(mat)
    width = len(mat[0]) if mat else 0
    pivots: list[tuple[int, int]] = []
    sign = 1
    prev = _ONE
    pr = 0
    for pc in range(ncols):
        if pr == nrows:
            break
        # deterministic pivot: smallest degree, then fewest terms, then row
        best = None
        for r in range(pr, nrows):
            e = mat[r][pc]
            if e:
                key = (e.degree, sum(1 for c in e.coeffs if c), r)
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            continue
        r = best[1]
        if r != pr:
            mat[r], mat[pr] = mat[pr], mat[r]
            sign = -sign
        piv = mat[pr][pc]
        prow = mat[pr]
        for rr in range(pr + 1, nrows):
            row = mat[rr]
            head = row[pc]
            for cc in range(pc + 1, width):
                row[cc] = divexact(piv * row[cc] - head * prow[cc], prev)
            row[pc] = _ZERO
        pivots.append((pr, pc))
        prev = piv
        pr += 1
    return pivots, sign


def solve_linear(
    A: Sequence[Sequence[IntPoly]], columns: Sequence[Sequence[IntPoly]]
) -> tuple[list[list[IntPoly]], IntPoly]:
    """
    Solve A x = b exactly for every b in `columns` by one elimination of A,
    returning (ys, d): x = y / d for the y of each column, every y_i in
    Z[x] and d the last Bareiss pivot (the determinant of the pivot minor
    up to sign, or 1 when the rank is 0). The pivots are chosen from A
    alone, so each column gets the (y, d) it would get alone. Free
    variables are set to zero. Raises SingularSystemError (carrying the
    rank) when the system of any column is inconsistent.

    >>> one = IntPoly.const(1)
    >>> ys, d = solve_linear([[one, one], [one, -one]], [[IntPoly.xi(), one], [one, one]])
    >>> [[v.coeffs for v in y] for y in ys], d.coeffs
    ([[(-1, -1), (1, -1)], [(-2,), ()]], (-2,))
    """
    nrows = len(A)
    if any(len(b) != nrows for b in columns):
        raise InvalidInputError("matrix/vector size mismatch")
    ncols = len(A[0]) if nrows else 0
    mat = [list(row) + [b[r] for b in columns] for r, row in enumerate(A)]
    if any(len(row) != ncols + len(columns) for row in mat):
        raise InvalidInputError("ragged matrix")
    pivots, _ = _echelon(mat, ncols)
    rank = len(pivots)
    if any(any(row[ncols:]) for row in mat[rank:]):
        raise SingularSystemError("inconsistent linear system", rank)
    d = mat[pivots[-1][0]][pivots[-1][1]] if pivots else _ONE
    # back-substitution scaled by d stays in Z[x]: by Cramer's rule on the
    # pivot minor, d * x_pc is a polynomial, so each division is exact
    ys = [[_ZERO] * ncols for _ in columns]
    for j, y in enumerate(ys, ncols):
        for pr, pc in reversed(pivots):
            row = mat[pr]
            acc = d * row[j]
            for cc in range(pc + 1, ncols):
                if row[cc] and y[cc]:
                    acc = acc - row[cc] * y[cc]
            y[pc] = divexact(acc, row[pc])
    return ys, d


def determinant(A: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Determinant over Z[x]: the last Bareiss pivot, signed by the row swaps."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise InvalidInputError("determinant needs a square matrix")
    if n == 0:
        return _ONE
    mat = [list(row) for row in A]
    pivots, sign = _echelon(mat, n)
    if len(pivots) < n:
        return _ZERO
    det = mat[n - 1][n - 1]
    return det if sign == 1 else -det


class NPoly(_Poly):
    """A polynomial in the rank variable n with RatPoly coefficients."""

    __slots__ = ()
    _zero, _scalars = RatPoly(), (int, Fraction, RatPoly)

    def evaluate(self, n: int) -> RatPoly:
        out = RatPoly()
        for c in reversed(self.coeffs):
            out = out * n + c
        return out

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    def render(self) -> str:
        """Human-readable form like "(1/2)*n^2 - (1/2)*n"."""
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            neg = False
            if len(c.coeffs) == 1 and c.coeffs[0] < 0:
                neg = True
                c = -c
            body = str(c)
            if not body.isdigit():
                body = f"({body})"
            if d == 1:
                body = f"{body}*n"
            elif d > 1:
                body = f"{body}*n^{d}"
            parts.append((neg, body))
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    __str__ = render


def interpolate_in_n(points: Sequence[tuple[int, IntPoly]]) -> NPoly:
    """
    The unique polynomial in n of degree < len(points) through the given
    exact values: the Lagrange sum of v_i * prod_{m != i} (n - n_m) / (n_i - n_m)
    over the points (n_i, v_i), computed in Q[x][n]. One point gives its
    value as a constant.

    >>> f = interpolate_in_n([(3, IntPoly((3,))), (4, IntPoly((6,))), (5, IntPoly((10,)))])
    >>> f.evaluate(6).coeffs
    (Fraction(15, 1),)
    """
    if not points:
        raise InvalidInputError("need at least 1 interpolation point")
    ranks = [n for n, _ in points]
    if len(set(ranks)) != len(ranks):
        raise InvalidInputError(f"duplicate interpolation ranks: {ranks}")
    out = NPoly()
    for ni, v in points:
        term = NPoly([RatPoly.from_intpoly(v)])
        for m in ranks:
            if m != ni:
                term = term * NPoly([RatPoly([Fraction(-m, ni - m)]),
                                     RatPoly([Fraction(1, ni - m)])])
        out = out + term
    return out
