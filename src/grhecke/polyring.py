"""
Exact polynomial arithmetic for the deformation parameter.

`IntPoly` is Z[x] with arbitrary-precision integer coefficients stored as a
normalized ascending tuple (the zero polynomial is the empty tuple). All
structure constants of the engine live here. `RatPoly` is Q[x] with exact
`Fraction` coefficients, and `NPoly` is a polynomial in the discrete rank
variable n whose coefficients are elements of Q[x].

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

import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ExactDivisionError, InvalidInputError, SingularSystemError

__all__ = [
    "IntPoly", "RatPoly", "NPoly", "specialize_zero", "divexact",
    "solve_linear", "determinant", "interpolate_in_n",
]


_DECIMAL = re.compile("-?[0-9]+")


class IntPoly:
    """A polynomial in x over Z, normalized (no trailing zeros)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _raw(cls, coeffs: tuple[int, ...]) -> "IntPoly":
        # caller guarantees normalization
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls._raw((c,)) if c else cls._raw(())

    @classmethod
    def xi(cls) -> "IntPoly":
        return cls._raw((0, 1))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        return (IntPoly, (self.coeffs,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (IntPoly.const(other)).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return IntPoly._raw(tuple(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * max(0, len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        while out and out[-1] == 0:
            out.pop()
        return IntPoly._raw(tuple(out))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return IntPoly._raw(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return IntPoly._raw(tuple(out))

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

    @classmethod
    def from_json(cls, data: list[str]) -> "IntPoly":
        """The inverse of `to_json`: a list of strings matching -?[0-9]+."""
        if type(data) is not list or not all(
            type(c) is str and _DECIMAL.fullmatch(c) for c in data
        ):
            raise InvalidInputError(f"not a list of decimal strings: {data!r:.40}")
        return cls(map(int, data))

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

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"


_ZERO = IntPoly._raw(())
_ONE = IntPoly._raw((1,))


def specialize_zero(p: IntPoly) -> int:
    """Evaluate at x = 0, i.e. the constant term."""
    return p.constant_term()


class RatPoly:
    """A polynomial in x over Q, normalized."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    def __reduce__(self):
        return (RatPoly, (self.coeffs,))

    @classmethod
    def from_intpoly(cls, p: IntPoly) -> "RatPoly":
        return cls(p.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RatPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RatPoly(out)

    __rmul__ = __mul__

    def to_json(self) -> list[list[str]]:
        return [[str(c.numerator) for c in self.coeffs],
                [str(c.denominator) for c in self.coeffs]]

    @classmethod
    def from_json(cls, data) -> "RatPoly":
        nums, dens = data
        return cls(Fraction(int(a), int(b)) for a, b in zip(nums, dens))

    # the same rendering as IntPoly, over Fraction coefficients
    __str__ = IntPoly.to_str

    def __repr__(self) -> str:
        return f"RatPoly({self.coeffs!r})"


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
    A: Sequence[Sequence[IntPoly]], b: Sequence[IntPoly]
) -> tuple[list[IntPoly], IntPoly]:
    """
    Solve A x = b exactly, returning (y, d) with x = y / d, every y_i in
    Z[x] and d the last Bareiss pivot (the determinant of the pivot minor
    up to sign, or 1 when the rank is 0). Free variables are set to zero.

    Raises SingularSystemError (carrying the rank) when the system is
    inconsistent.

    >>> one = IntPoly.const(1)
    >>> y, d = solve_linear([[one, one], [one, -one]], [IntPoly.xi(), one])
    >>> [v.coeffs for v in y], d.coeffs
    ([(-1, -1), (1, -1)], (-2,))
    """
    nrows = len(A)
    if nrows != len(b):
        raise InvalidInputError("matrix/vector size mismatch")
    ncols = len(A[0]) if nrows else 0
    mat = [list(row) + [b[r]] for r, row in enumerate(A)]
    for row in mat:
        if len(row) != ncols + 1:
            raise InvalidInputError("ragged matrix")
    pivots, _ = _echelon(mat, ncols)
    rank = len(pivots)
    for r in range(rank, nrows):
        if mat[r][ncols]:
            raise SingularSystemError("inconsistent linear system", rank)
    d = mat[pivots[-1][0]][pivots[-1][1]] if pivots else _ONE
    # back-substitution scaled by d stays in Z[x]: by Cramer's rule on the
    # pivot minor, d * x_pc is a polynomial, so each division is exact
    y = [_ZERO] * ncols
    for pr, pc in reversed(pivots):
        row = mat[pr]
        acc = d * row[ncols]
        for cc in range(pc + 1, ncols):
            if row[cc] and y[cc]:
                acc = acc - row[cc] * y[cc]
        y[pc] = divexact(acc, row[pc])
    return y, d


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


class NPoly:
    """A polynomial in the rank variable n with RatPoly coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatPoly] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("NPoly is immutable")

    def __reduce__(self):
        return (NPoly, (self.coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, NPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def evaluate(self, n: int) -> RatPoly:
        out = RatPoly()
        for c in reversed(self.coeffs):
            out = out * n + c
        return out

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "NPoly":
        return cls(RatPoly.from_json(c) for c in data)

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

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"NPoly({self.coeffs!r})"


def _lagrange(xs: Sequence[int], ys: Sequence[Fraction]) -> list[Fraction]:
    """Dense coefficients of the interpolating polynomial through (xs, ys)."""
    npts = len(xs)
    out = [Fraction(0)] * npts
    for i in range(npts):
        if not ys[i]:
            continue
        # numerator polynomial prod_{m != i} (t - x_m), denominator scalar
        num = [Fraction(1)]
        denom = Fraction(1)
        for m in range(npts):
            if m == i:
                continue
            new = [Fraction(0)] * (len(num) + 1)
            for j, c in enumerate(num):
                new[j] += c * (-xs[m])
                new[j + 1] += c
            num = new
            denom *= xs[i] - xs[m]
        w = ys[i] / denom
        for j, c in enumerate(num):
            out[j] += c * w
    return out


def interpolate_in_n(points: Sequence[tuple[int, IntPoly]]) -> NPoly:
    """
    The unique polynomial in n of degree < len(points) through the given
    exact values, interpolated per coefficient of x.

    >>> f = interpolate_in_n([(3, IntPoly((3,))), (4, IntPoly((6,))), (5, IntPoly((10,)))])
    >>> f.evaluate(6).coeffs
    (Fraction(15, 1),)
    """
    if len(points) < 2:
        raise InvalidInputError("need at least 2 interpolation points")
    xs = [n for n, _ in points]
    if len(set(xs)) != len(xs):
        raise InvalidInputError(f"duplicate interpolation ranks: {xs}")
    values = [v for _, v in points]
    max_deg = max((v.degree for v in values), default=-1)
    # per x-power Lagrange, then transpose into coefficients of n^d
    per_power = []
    for j in range(max_deg + 1):
        ys = [Fraction(v.coeffs[j] if j <= v.degree else 0) for v in values]
        per_power.append(_lagrange(xs, ys))
    ncoeffs = []
    for d in range(len(points)):
        ncoeffs.append(RatPoly(per_power[j][d] for j in range(max_deg + 1)))
    return NPoly(ncoeffs)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
