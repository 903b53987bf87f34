"""
The Iwahori-Hecke algebra of the symmetric group over Z[x].

Elements are finitely supported maps from permutations to `IntPoly`, the
basis being {T_w}. Multiplication uses only the quadratic relation
``T_i^2 = 1 + x T_i`` together with the length dichotomy: for a generator
T_i and a basis element T_w,

    T_w T_i = T_{w s_i}              if length(w s_i) > length(w),
    T_w T_i = T_{w s_i} + x T_w      otherwise,

and symmetrically on the left. Products of general elements expand the
cheaper factor along canonical reduced words, sharing work through a prefix
tree; the transpose anti-automorphism T_w -> T_{w^{-1}} lets the expansion
always happen on the lighter side.

The expansion runs on Python integers (Kronecker substitution). Each
coefficient is packed once as its value at x = 2^B, so sums, shifts by x
and products of coefficients become single integer operations, and each
permutation as its index in lexicographic order, stepped by s_i through a
table built once per rank. The width B comes from a proven bound: the
coefficients of T_u T_v are nonnegative and sum to at most 2^l(v), so no
coefficient of a product exceeds |left|_1 * sum_v |b_v|_1 2^l(v), and
balanced base-2^B digits read every coefficient back exactly.

Sums run packed too: `linear_combination` forms every sum, difference and
scaling, sum_i c_i h_i with c_i in Z[x], in one pass, its width bounding
each coefficient of it and of its partial sums by sum_i |c_i|_1 max_w |h_i[w]|_1.
Generator steps stay on `IntPoly`: relabel the terms, add x T_w on descents.

Jucys-Murphy elements L_i (L_1 = 0, L_i = sum of T over transpositions
(k, i) with k < i) commute pairwise; symmetric polynomials in them are
central, which is what the center construction builds on. The monomial
symmetric m_lam(L_2, ..., L_k) is built by one recurrence on the last
variable: it is 1 for lam = (), 0 when lam has k or more parts, and
otherwise m_lam(L_2, ..., L_{k-1}) + sum over the distinct parts p of lam
of m_{lam - p}(L_2, ..., L_{k-1}) L_k^p.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Iterable, Mapping

from . import coxeter
from .coxeter import Partition, Perm, check_partition, length, reduced_word
from .errors import InvalidInputError
from .polyring import IntPoly

__all__ = [
    "HeckeElt", "zero", "unit", "t_basis", "mul_gen_right", "mul_gen_left",
    "mul", "linear_combination", "jucys_murphy", "m_sym", "e_sym", "is_central",
    "specialize_group", "group_mul",
]

_ONE = IntPoly.const(1)
_MINUS_ONE = IntPoly.const(-1)


class HeckeElt:
    """
    A sparse element of H_n; zero coefficients are never stored. Immutable,
    since memoized elements are shared with every caller: `terms` is a
    read-only view of a dict nobody else holds.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Perm, IntPoly] = ()):
        clean: dict[Perm, IntPoly] = {}
        for w, c in dict(terms).items():
            if len(w) != n:
                raise InvalidInputError(f"term {w} does not live in S_{n}")
            if c:
                clean[w] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def _raw(cls, n: int, terms: dict[Perm, IntPoly]) -> "HeckeElt":
        # caller guarantees consistency, no zero values, and hands over
        # the only reference to `terms`
        h = object.__new__(cls)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "terms", MappingProxyType(terms))
        return h

    def __setattr__(self, name, value):
        raise AttributeError("HeckeElt is immutable")

    def __reduce__(self):
        return (HeckeElt, (self.n, self.terms.copy()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, HeckeElt):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def coeff(self, w: Perm) -> IntPoly:
        return self.terms.get(w, IntPoly())

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        return linear_combination(self.n, [(_ONE, self), (_ONE, other)])

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return linear_combination(self.n, [(_ONE, self), (_MINUS_ONE, other)])

    def scale(self, c) -> "HeckeElt":
        """Multiply by a scalar in Z[x] (or an int)."""
        if isinstance(c, int):
            c = IntPoly.const(c)
        return linear_combination(self.n, [(c, self)])

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        return mul(self, other)

    def right_gen(self, i: int) -> "HeckeElt":
        """Multiply by T_i on the right."""
        if not 1 <= i <= self.n - 1:
            raise InvalidInputError(f"generator index {i} out of range for n={self.n}")
        moved = {w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]: c for w, c in self.terms.items()}
        return self._plus_x_on(moved, [w for w in self.terms if w[i - 1] > w[i]])

    def left_gen(self, i: int) -> "HeckeElt":
        """Multiply by T_i on the left."""
        if not 1 <= i <= self.n - 1:
            raise InvalidInputError(f"generator index {i} out of range for n={self.n}")
        moved = {
            tuple(i + 1 if a == i else i if a == i + 1 else a for a in w): c
            for w, c in self.terms.items()
        }
        return self._plus_x_on(moved, [w for w in self.terms if w.index(i) > w.index(i + 1)])

    def _plus_x_on(self, moved: dict[Perm, IntPoly], descents: list[Perm]) -> "HeckeElt":
        """
        A product with T_i in its two parts: T_w T_i is T_{w s_i}, plus x T_w
        when i is a descent of w, and likewise on the left. `moved` holds the
        terms relabeled by the bijection w -> w s_i; x T_w is added here.
        """
        for w in descents:
            xc = self.terms[w].shift(1)
            prev = moved.get(w)
            s = xc if prev is None else prev + xc
            if s:
                moved[w] = s
            else:
                del moved[w]
        return HeckeElt._raw(self.n, moved)

    def transpose(self) -> "HeckeElt":
        """The anti-automorphism T_w -> T_{w^{-1}}."""
        return HeckeElt._raw(
            self.n, {coxeter.inverse(w): c for w, c in self.terms.items()}
        )

    def specialize_group(self) -> dict[Perm, int]:
        """Set x = 0, landing in the integral group algebra."""
        out = {}
        for w, c in self.terms.items():
            v = c.constant_term()
            if v:
                out[w] = v
        return out

    def homogeneous_parity(self):
        """
        The common value of (length(w) + j) mod 2 over all terms T_w x^j,
        or None if the element is not homogeneous. Zero returns None.
        """
        par = None
        for w, c in self.terms.items():
            base = length(w) % 2
            for j, cj in enumerate(c.coeffs):
                if not cj:
                    continue
                p = (base + j) % 2
                if par is None:
                    par = p
                elif par != p:
                    return None
        return par

    def sorted_terms(self) -> list[tuple[Perm, IntPoly]]:
        """Terms sorted by (length, lex) of the permutation."""
        return sorted(self.terms.items(), key=lambda kv: (length(kv[0]), kv[0]))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"w": list(w), "c": c.to_json()} for w, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HeckeElt":
        n = int(data["n"])
        terms = {}
        for t in data["terms"]:
            w = tuple(int(x) for x in t["w"])
            if not coxeter.is_permutation(w) or len(w) != n:
                raise InvalidInputError(f"bad permutation in serialized element: {t['w']}")
            terms[w] = IntPoly.from_json(t["c"])
        return cls(n, terms)

    def __repr__(self) -> str:
        parts = [f"({c!s})*T{list(w)}" for w, c in self.sorted_terms()]
        return f"HeckeElt(n={self.n}: " + (" + ".join(parts) or "0") + ")"


def zero(n: int) -> HeckeElt:
    return HeckeElt._raw(n, {})


def unit(n: int) -> HeckeElt:
    return HeckeElt._raw(n, {coxeter.identity(n): _ONE})


def t_basis(w: Perm) -> HeckeElt:
    """The basis element T_w."""
    if not coxeter.is_permutation(w):
        raise InvalidInputError(f"not a permutation: {w}")
    return HeckeElt._raw(len(w), {w: _ONE})


def mul_gen_right(h: HeckeElt, i: int) -> HeckeElt:
    """h * T_i."""
    return h.right_gen(i)


def mul_gen_left(h: HeckeElt, i: int) -> HeckeElt:
    """T_i * h."""
    return h.left_gen(i)


def _letter_cost(h: HeckeElt) -> int:
    return sum(length(w) for w in h.terms)


# Permutations of S_n are addressed by their index in lexicographic order,
# the factorial-base number of their Lehmer code L (L[j] counts the k > j
# with w[k] < w[j]). Right multiplication by s_i changes only the digits
# (a, c) = (L[i-1], L[i]); i is a right descent exactly when a > c, and
# then w s_i has digits (c, a - 1), otherwise (c + 1, a).
_DENSE_MAX_RANK = 9  # tables of n! (n - 1) int32: 11.6 MB at n = 9, 131 MB at n = 10


def _perm_index(w: Perm) -> int:
    rest = sorted(w)
    k = 0
    for a in w:
        d = rest.index(a)
        k = k * len(rest) + d
        del rest[d]
    return k


def _index_perm(k: int, places: tuple[int, ...]) -> Perm:
    """The permutation of index k; places are (n-1)!, ..., 1!, 0!."""
    rest = list(range(1, len(places) + 1))
    out = []
    for f in places:
        d, k = divmod(k, f)
        out.append(rest.pop(d))
    return tuple(out)


class _StepRow:
    """
    Right multiplication by s_i on indices: ``row[k]`` is the index of
    w s_i, or its bitwise complement (a negative number) when i is a right
    descent of w. Up to `_DENSE_MAX_RANK` it is tabulated as int32.
    """

    __slots__ = ("f1", "f0", "ra", "rc")

    def __init__(self, n: int, i: int):
        self.f1, self.f0 = factorial(n - i), factorial(n - i - 1)
        self.ra, self.rc = n - i + 1, n - i

    def __getitem__(self, k: int) -> int:
        a = k // self.f1 % self.ra
        c = k // self.f0 % self.rc
        if a <= c:
            return k + (c + 1 - a) * self.f1 + (a - c) * self.f0
        return ~(k + (c - a) * self.f1 + (a - 1 - c) * self.f0)


@lru_cache(maxsize=None)
def _step_rows(n: int) -> tuple:
    """Row i (1 <= i < n) steps every index of S_n by s_i; row 0 is unused."""
    rows = [_StepRow(n, i) for i in range(1, n)]
    if n <= _DENSE_MAX_RANK:
        rows = [array("i", map(row.__getitem__, range(factorial(n)))) for row in rows]
    return (None, *rows)


def _l1(c: IntPoly) -> int:
    return sum(map(abs, c.coeffs))


def _pack(c: IntPoly, width: int) -> int:
    """c evaluated at x = 2^width."""
    v = 0
    for a in reversed(c.coeffs):
        v = (v << width) + a
    return v


def _unpack(v: int, width: int) -> IntPoly:
    """
    The balanced base-2^width digits of v: the inverse of `_pack` on
    polynomials whose coefficients lie strictly inside ±2^(width-1).
    """
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    digits = []
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        digits.append(d)
        v = (v - d) >> width
    return IntPoly._raw(tuple(digits))


def linear_combination(n: int, summands: Iterable[tuple[IntPoly, HeckeElt]]) -> HeckeElt:
    """
    The sum of c * h over the pairs (c, h) of `summands`, each c in Z[x]
    and each h in H_n, formed in one pass on coefficients packed at
    x = 2^B; every sum, difference and scaling of Hecke elements is one.

    As for products, evaluation at 2^B is a ring homomorphism, so only the
    unpacking needs a bound. The coefficient of x^j in c * h[w] is at most
    |c|_1 |h[w]|_1 in absolute value, so no coefficient of the result, nor
    of any partial sum, exceeds M = sum_i |c_i|_1 max_w |h_i[w]|_1.

    >>> s, one = t_basis((2, 1)), IntPoly.const(1)
    >>> inverse = linear_combination(2, [(one, s), (-IntPoly.xi(), unit(2))])
    >>> linear_combination(2, [(one, mul(inverse, s)), (-one, unit(2))]).terms
    mappingproxy({})
    """
    summands = list(summands)
    bound = 0
    for c, h in summands:
        if h.n != n:
            raise InvalidInputError(f"rank mismatch: element of H_{h.n} in a sum in H_{n}")
        if c and h.terms:
            bound += _l1(c) * max(map(_l1, h.terms.values()))
    width = bound.bit_length() + 2
    acc: dict[Perm, int] = {}
    get = acc.get
    for c, h in summands:
        if c:
            pc = _pack(c, width)
            for w, v in h.terms.items():
                acc[w] = get(w, 0) + _pack(v, width) * pc
    return HeckeElt._raw(n, {w: _unpack(v, width) for w, v in acc.items() if v})


def _fold_right(left: HeckeElt, right: HeckeElt) -> HeckeElt:
    """
    left * right, expanding right along canonical reduced words, on
    coefficients packed as their values at x = 2^B.

    Evaluation at 2^B is a ring homomorphism Z[x] -> Z, so every sum,
    shift by x and product below is exact whatever B is. B matters only
    for reading the result back. T_u T_v has nonnegative coefficients
    summing at x = 1 to at most 2^l(v), since each generator step at most
    doubles the sum; so every coefficient of left * right, and of each
    partial sum of it, is at most M = |left|_1 * sum_v |b_v|_1 2^l(v) in
    absolute value, |.|_1 being the sum of the absolute values of the
    integer coefficients. With B = M.bit_length() + 2 every coefficient
    lies strictly inside (-2^(B-1), 2^(B-1)), where balanced base-2^B
    digits are unique, so unpacking recovers it exactly.
    """
    n = left.n
    # prefix tree of the reduced words of right's support; key 0 marks a
    # terminal and holds the coefficient
    root: dict = {}
    bound = 0
    for w, c in right.terms.items():
        node = root
        word = reduced_word(w)
        for i in word:
            node = node.setdefault(i, {})
        node[0] = c
        bound += _l1(c) << len(word)
    width = (bound * sum(map(_l1, left.terms.values()))).bit_length() + 2
    rows = _step_rows(n)
    acc: dict[int, int] = {}

    def visit(node: dict, vec: dict[int, int]) -> None:
        c = node.get(0)
        if c is not None:
            c = _pack(c, width)
            get = acc.get
            for k, v in vec.items():
                acc[k] = get(k, 0) + v * c
        for i, child in node.items():
            if not i:
                continue
            # T_w T_i = T_{w s_i}, plus x T_w when i is a right descent
            # of w. A descent k settles both k and its partner k s_i; an
            # ascent is settled here only when its partner is absent
            row = rows[i]
            get = vec.get
            out: dict[int, int] = {}
            for k, v in vec.items():
                j = row[k]
                if j < 0:
                    j = ~j
                    out[j] = v
                    s = (v << width) + get(j, 0)
                    if s:
                        out[k] = s
                elif j not in vec:
                    out[j] = v
            visit(child, out)

    visit(root, {_perm_index(w): _pack(c, width) for w, c in left.terms.items()})
    # unpack, draining acc as the terms fill
    places = tuple(factorial(j) for j in range(n - 1, -1, -1))
    terms: dict[Perm, IntPoly] = {}
    while acc:
        k, v = acc.popitem()
        if v:
            terms[_index_perm(k, places)] = _unpack(v, width)
    return HeckeElt._raw(n, terms)


def mul(h1: HeckeElt, h2: HeckeElt) -> HeckeElt:
    """
    The product h1 * h2, bilinear over Z[x]. The result is independent of
    the reduced words used to expand basis elements.
    """
    if h1.n != h2.n:
        raise InvalidInputError(f"rank mismatch: {h1.n} vs {h2.n}")
    if not h1.terms or not h2.terms:
        return zero(h1.n)
    if _letter_cost(h2) <= _letter_cost(h1):
        return _fold_right(h1, h2)
    return _fold_right(h2.transpose(), h1.transpose()).transpose()


@lru_cache(maxsize=None)
def jucys_murphy(i: int, n: int) -> HeckeElt:
    """L_i: zero for i = 1, else the sum of T over transpositions (k, i)."""
    if not 1 <= i <= n:
        raise InvalidInputError(f"Jucys-Murphy index {i} out of range for n={n}")
    return linear_combination(
        n, [(_ONE, t_basis(coxeter.transposition(n, k, i))) for k in range(1, i)]
    )


@lru_cache(maxsize=None)
def _jm_power(i: int, e: int, n: int) -> HeckeElt:
    if e == 0:
        return unit(n)
    return mul(_jm_power(i, e - 1, n), jucys_murphy(i, n))


@lru_cache(maxsize=None)
def _m_sym_upto(lam: Partition, k: int, n: int) -> HeckeElt:
    """m_lam(L_2, ..., L_k) in H_n, by the recurrence on L_k."""
    if not lam:
        return unit(n)
    if len(lam) >= k:
        return zero(n)
    summands = [(_ONE, _m_sym_upto(lam, k - 1, n))]
    for p in sorted(set(lam)):
        i = lam.index(p)
        rest = _m_sym_upto(lam[:i] + lam[i + 1 :], k - 1, n)
        summands.append((_ONE, mul(rest, _jm_power(k, p, n))))
    return linear_combination(n, summands)


def m_sym(lam: Partition, n: int) -> HeckeElt:
    """
    The monomial symmetric polynomial m_lam evaluated at the Jucys-Murphy
    elements L_1, ..., L_n. Vanishes when lam has more parts than can avoid
    L_1 = 0; the empty partition gives the unit.

    >>> m_sym((1, 1), 3) == mul(jucys_murphy(2, 3), jucys_murphy(3, 3))
    True
    """
    return _m_sym_upto(check_partition(lam), n, n)


def e_sym(r: int, n: int) -> HeckeElt:
    """The r-th elementary symmetric polynomial in L_1, ..., L_n."""
    if not 0 <= r <= n:
        raise InvalidInputError(f"elementary symmetric degree {r} out of range for n={n}")
    return m_sym((1,) * r, n)


def is_central(h: HeckeElt) -> bool:
    """Whether h commutes with every generator T_i."""
    return all(h.right_gen(i) == h.left_gen(i) for i in range(1, h.n))


def specialize_group(h: HeckeElt) -> dict[Perm, int]:
    """Set x = 0; the result is an element of the group algebra Z S_n."""
    return h.specialize_group()


def group_mul(a: Mapping[Perm, int], b: Mapping[Perm, int]) -> dict[Perm, int]:
    """
    Convolution in the group algebra Z S_n, with no Hecke machinery at all.
    Serves as the independent oracle for the x = 0 specialization.
    """
    if not a or not b:
        return {}
    na = len(next(iter(a)))
    nb = len(next(iter(b)))
    if na != nb:
        raise InvalidInputError(f"rank mismatch: {na} vs {nb}")
    out: dict[Perm, int] = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = coxeter.compose(u, v)
            s = out.get(w, 0) + cu * cv
            if s:
                out[w] = s
            elif w in out:
                del out[w]
    return out
