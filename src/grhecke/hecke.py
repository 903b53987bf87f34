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

Jucys-Murphy elements L_i (L_1 = 0, L_i = sum of T over transpositions
(k, i) with k < i) commute pairwise; symmetric polynomials in them are
central, which is what the center construction builds on.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

from . import coxeter
from .coxeter import Partition, Perm, check_partition, length, reduced_word
from .errors import InvalidInputError
from .polyring import IntPoly

__all__ = [
    "HeckeElt", "zero", "unit", "t_basis", "mul_gen_right", "mul_gen_left",
    "mul", "jucys_murphy", "m_sym", "e_sym", "is_central",
    "specialize_group", "group_mul",
]

_ONE = IntPoly.const(1)


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
        if self.n != other.n:
            raise InvalidInputError("rank mismatch in addition")
        out = self.terms.copy()
        for w, c in other.terms.items():
            prev = out.get(w)
            s = c if prev is None else prev + c
            if s:
                out[w] = s
            elif prev is not None:
                del out[w]
        return HeckeElt._raw(self.n, out)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        if self.n != other.n:
            raise InvalidInputError("rank mismatch in subtraction")
        out = self.terms.copy()
        for w, c in other.terms.items():
            prev = out.get(w)
            s = -c if prev is None else prev - c
            if s:
                out[w] = s
            elif prev is not None:
                del out[w]
        return HeckeElt._raw(self.n, out)

    def scale(self, c) -> "HeckeElt":
        """Multiply by a scalar in Z[x] (or an int)."""
        if isinstance(c, int):
            c = IntPoly.const(c)
        if not c:
            return HeckeElt._raw(self.n, {})
        return HeckeElt._raw(self.n, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        return mul(self, other)

    def right_gen(self, i: int) -> "HeckeElt":
        """Multiply by T_i on the right."""
        if not 1 <= i <= self.n - 1:
            raise InvalidInputError(f"generator index {i} out of range for n={self.n}")
        out: dict[Perm, IntPoly] = {}
        for w, c in self.terms.items():
            ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
            prev = out.get(ws)
            s = c if prev is None else prev + c
            if s:
                out[ws] = s
            elif prev is not None:
                del out[ws]
            if w[i - 1] > w[i]:
                xc = c.shift(1)
                prev = out.get(w)
                s = xc if prev is None else prev + xc
                if s:
                    out[w] = s
                elif prev is not None:
                    del out[w]
        return HeckeElt._raw(self.n, out)

    def left_gen(self, i: int) -> "HeckeElt":
        """Multiply by T_i on the left."""
        if not 1 <= i <= self.n - 1:
            raise InvalidInputError(f"generator index {i} out of range for n={self.n}")
        out: dict[Perm, IntPoly] = {}
        for w, c in self.terms.items():
            sw = tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)
            prev = out.get(sw)
            s = c if prev is None else prev + c
            if s:
                out[sw] = s
            elif prev is not None:
                del out[sw]
            if w.index(i) > w.index(i + 1):
                xc = c.shift(1)
                prev = out.get(w)
                s = xc if prev is None else prev + xc
                if s:
                    out[w] = s
                elif prev is not None:
                    del out[w]
        return HeckeElt._raw(self.n, out)

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


def _fold_right(left: HeckeElt, right: HeckeElt) -> HeckeElt:
    """left * right, expanding right along canonical reduced words."""
    n = left.n
    # prefix tree of the reduced words of right's support; key 0 marks a
    # terminal and holds the coefficient
    root: dict = {}
    for w, c in right.terms.items():
        node = root
        for i in reduced_word(w):
            node = node.setdefault(i, {})
        node[0] = c
    acc: dict[Perm, IntPoly] = {}

    def visit(node: dict, elt: HeckeElt) -> None:
        c = node.get(0)
        if c is not None:
            for w, v in elt.terms.items():
                add = v * c
                prev = acc.get(w)
                s = add if prev is None else prev + add
                if s:
                    acc[w] = s
                elif prev is not None:
                    del acc[w]
        for i, child in node.items():
            if i:
                visit(child, elt.right_gen(i))

    visit(root, left)
    return HeckeElt._raw(n, acc)


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
    if i == 1:
        return zero(n)
    out = zero(n)
    for k in range(1, i):
        out = out + t_basis(coxeter.transposition(n, k, i))
    return out


@lru_cache(maxsize=None)
def _jm_power(i: int, e: int, n: int) -> HeckeElt:
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


@lru_cache(maxsize=None)
def m_sym(lam: Partition, n: int) -> HeckeElt:
    """
    The monomial symmetric polynomial m_lam evaluated at the Jucys-Murphy
    elements L_1, ..., L_n. Vanishes when lam has more parts than can avoid
    L_1 = 0; the empty partition gives the unit.
    """
    lam = check_partition(lam)
    if len(lam) > n:
        return zero(n)
    if not lam:
        return unit(n)
    from collections import Counter

    counts = sorted(Counter(lam).items(), reverse=True)
    acc = zero(n)
    # position 1 is skipped outright: any monomial touching L_1 vanishes
    for assign in _assignments(counts, tuple(range(2, n + 1))):
        term = unit(n)
        for pos in sorted(assign):
            term = mul(term, _jm_power(pos, assign[pos], n))
        acc = acc + term
    return acc


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
