"""
The Iwahori-Hecke algebra of the symmetric group over Z[x].

Elements are finitely supported maps from permutations to `IntPoly`, the
basis being {T_w}, held by the index of each permutation in lexicographic
order (see `coxeter`): permutations are encoded or decoded only where they
enter or leave a `HeckeElt`, never on a per-term path of the engine.
Multiplication uses only the quadratic relation ``T_i^2 = 1 + x T_i``
together with the length dichotomy: for a generator T_i and a basis
element T_w,

    T_w T_i = T_{w s_i}              if length(w s_i) > length(w),
    T_w T_i = T_{w s_i} + x T_w      otherwise,

and symmetrically on the left. Products of general elements expand the
cheaper factor along canonical reduced words, grouped from their last
letter in a trie and evaluated by Horner's rule, so that most generator
steps act on small partial sums; the transpose anti-automorphism
T_w -> T_{w^{-1}} lets the expansion always happen on the lighter side.
Products of two certified central elements take the trace route below.

The expansion runs on Python integers (Kronecker substitution). Each
coefficient is packed once as its value at x = 2^B, so sums, shifts by x
and products of coefficients become single integer operations, and each
index is stepped through the tables of `coxeter`: the transpose
T_w -> T_{w^{-1}} is a relabeling of indices (the reduced words of w^{-1}
are those of w reversed), and each canonical reduced word is read off the
step rows. The width B comes from a proven bound, `_product_width`, which
both product routes use. A generator step at most doubles |h|_1, the sum
of the absolute values of all integer coefficients of h. The Horner value
at a trie node y is R(y) = sum c_w A T_{w y^{-1}} over the words w ending in
y, with A = left, and stepping a child's value R(s_i y) by T_i gives terms
within |c_w|_1 |A|_1 2^(l(w y^{-1} s_i) + 1), where
l(w y^{-1} s_i) + 1 = l(w y^{-1}) <= l(w). So no coefficient of a product,
nor of any partial sum formed on the way, exceeds
M = |left|_1 * sum_w |c_w|_1 2^l(w), and balanced base-2^B digits read
every coefficient back exactly.

Sums run packed too: `linear_combination` forms every sum, difference and
scaling, sum_i c_i h_i with c_i in Z[x], in one pass, its width bounding
each coefficient of it and of its partial sums by sum_i |c_i|_1 max_w |h_i[w]|_1.
Every generator step runs on `_step`, the packed form of the rule above,
or on `_step_add`, which adds c vec T_i into a packed sum in place:
`HeckeElt.right_gen`/`left_gen` are products with T_i.

Each packed routine memoizes, for one call at its one width B, the
coefficients it handles (`_Memo`): every distinct coefficient is packed
once, every distinct packed value is unpacked once and its `IntPoly` handed
to each term that has it, and the max-norm bounds read each distinct
coefficient once. This is exact: balanced base-2^B digits are unique, so at
one width equal packed values are equal polynomials, and `IntPoly` is
immutable, so a shared coefficient changes no result and no caller can
alter another's element. It pays because the elements are central: the
coefficient of T_w in a class element, in a product of two or in m_lam is
a combination of class polynomials f_{w,C}, and these repeat across the
terms. The nine products of the n = 7 table have 26,747 terms and 1,396
distinct coefficients.

Centrality runs packed as well: `is_central` packs h once and compares
h T_i with T_i h = (h^t T_i)^t, h^t being h read through the inverse table.
Two symmetries fix every class element and are checked first, each by one
relabeling; without one the full comparison runs. If h^t = h, then
T_i h = (h T_i)^t: one step per generator. If h is fixed by
T_w -> T_{w0 w w0}, which maps T_i to T_{n-i}, the generators i <= n/2
suffice; w -> w0 w reverses lexicographic order, so w0 w w0 =
w0 (w0 w^{-1})^{-1} has index n! - 1 - inverse[n! - 1 - inverse[k]]. With
M = max_w |h[w]|_1, the coefficient of T_w in h T_i is h[w s_i], plus
x h[w] on a descent, so each of its integer coefficients is at most 2M in
absolute value, and likewise for T_i h and either transpose. Their
difference r then has every coefficient within 4M < 2^B for
B = (2M).bit_length() + 2, and a nonzero such r has r(2^B) != 0: its lowest
nonzero coefficient is not divisible by 2^B. So the packed values are equal
exactly when h T_i = T_i h.

A True answer marks h, and a product of two marked elements takes a second
route at every rank (Geck-Pfeiffer 2000, ch. 3 and 8; Geck-Rouquier 1997)
and is marked: the central element of values v_C at the class reps is
sum_C v_C gamma_C. A swept class element is marked only by its own
centrality test. The trace tau(h) = h[1] has tau(T_a T_b) = 1 if ab = 1
and 0 otherwise, so h[u] = tau(h T_{u^{-1}}) for every h, and for central
A and B [T_u](AB) = tau(A T_{u^{-1}} B) = sum_v (A T_{u^{-1}})[v] B[v^{-1}]:
l(u) steps of A and one dot product. This is read at one minimal-length u
of each class; the words of these u^{-1} form a trie in which each class
is one letter past another, so each class costs one step. The pairing
reads only this trie of `coxeter._sweep`, the step rows and the inverse,
which `_tables` computes per entry above `coxeter._DENSE_MAX_RANK`. AB is
central, and a central h satisfies the class-polynomial recurrence
h[w] = h[sws] + x h[sw] when the simple reflection s is a descent of w on
both sides and sws != w, and h[w] = h[sws] when s is a descent on one side
only; it is constant on the minimal-length elements of each class. These
fix h from its values at the u, by one packed sweep in length order whose
plan `coxeter._sweep` builds once per rank, up to `coxeter._DENSE_MAX_RANK`,
where its fill arrays need the dense tables. So the product is held at its
values at the u: `coeff` answers at every minimal-length element from its
class's value, and the other terms are filled in the first time they are
read: up to that rank by the sweep, unpacking each distinct value once,
and above it by `_fold_right` of the two factors, which the held product
keeps. No structure constant reads them. The sweep is a ring
computation on values at x = 2^B, so it is exact, and B is the width of
`_product_width`, which bounds every coefficient of AB whichever way it is
computed. The same sweep builds each class element from its values, 1 at
the u of its own class and 0 at the others (`_class_element`, whose width
rests on a Fibonacci bound on the class polynomials).

Jucys-Murphy elements L_i (L_1 = 0, L_i = sum of T over transpositions
(k, i) with k < i) commute pairwise; symmetric polynomials in them are
central, which is what the center construction builds on. The monomial
symmetric m_lam(L_2, ..., L_k) is built by one recurrence on the last
variable: it is 1 for lam = (), 0 when lam has k or more parts, and
otherwise prev + sum over the distinct parts p of lam of rest_p L_k^p,
where prev = m_lam(L_2, ..., L_{k-1}), rest_p = m_{lam-p}(L_2, ..., L_{k-1}).
Each state packs these once, applies L_k by Horner's rule, and unpacks
once. As (j, k) = s_{k-1} (j, k-1) s_{k-1} is two longer than (j, k-1),
L_2 = T_1 and L_k = T_{k-1} L_{k-1} T_{k-1} + T_{k-1}: h L_k is 2k - 3
generator steps. By the rule above a step at most doubles |h|_1, the sum
of the absolute values of all integer coefficients of h, so |h L_k|_1 <=
G_k |h|_1 for G_2 = 2, G_k = 4 G_{k-1} + 2 = sum_{j<k} 2^(2(k-j)-1). No
coefficient of the state exceeds M = |prev|_1 + sum_p |rest_p|_1 G_k^p,
and B = M.bit_length() + 2 reads it back exactly.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterable, Iterator, Mapping, ValuesView
from functools import lru_cache
from itertools import repeat
from math import factorial

from . import coxeter
from .coxeter import Partition, Perm, check_partition
from .coxeter import _DENSE_MAX_RANK, _index_perm, _perm_index, _sweep, _tables
from .errors import InvalidInputError
from .polyring import IntPoly

__all__ = [
    "HeckeElt", "zero", "unit", "t_basis", "mul", "linear_combination",
    "jucys_murphy", "m_sym", "e_sym", "is_central", "group_mul",
]

_ONE = IntPoly.const(1)
_MINUS_ONE = IntPoly.const(-1)


def _kept(c, of) -> bool:
    """
    Whether the coefficient c of `of` is stored: an `IntPoly` is, unless it
    is zero, and any other value raises. The one rule for every constructor
    of `HeckeElt` and `center.CentralCoords`, unpickling included.
    """
    if not isinstance(c, IntPoly):
        raise InvalidInputError(f"coefficient {c!r} of {of} is not an IntPoly")
    return bool(c)


class HeckeElt:
    """
    A sparse element of H_n; zero coefficients are never stored. Its terms
    are held by the index of each permutation (see `coxeter`), the only key
    the engine uses; `terms` and the other public methods take and return
    permutations, encoding and decoding them as they are read. Immutable,
    since memoized elements are shared with every caller: `terms` is a
    read-only view of a dict nobody else holds. A product of two certified
    central elements is held at its values at the sweep plan's class reps
    (`_central_mul`), at any rank; its terms are filled in the first time
    they are read, by the sweep up to `coxeter._DENSE_MAX_RANK` and by the
    Horner fold of its two factors above it.
    """

    # _terms maps index -> coefficient, or is None for a held product.
    # _central is True once `is_central` has returned True on the element,
    # or on a product of two such from `_central_mul`; a pickle drops it.
    # _reps is (packed values at the plan's reps, their unpack memo, the two
    # factors) while such a product's _terms is None; _norms caches `_l1_norms`
    __slots__ = ("n", "_terms", "_central", "_reps", "_norms")

    def __init__(self, n: int, terms: Mapping[Perm, IntPoly] = ()):
        clean: dict[int, IntPoly] = {}
        for w, c in dict(terms).items():
            k = _index_of(n, w)
            if k < 0:
                raise InvalidInputError(f"term {w} is not a permutation in S_{n}")
            if _kept(c, w):
                clean[k] = c
        self._init(n, clean, None)

    def _init(self, n: int, terms, reps) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_central", reps is not None)
        object.__setattr__(self, "_reps", reps)
        object.__setattr__(self, "_norms", None)

    @classmethod
    def _raw(cls, n: int, terms: dict[int, IntPoly]) -> "HeckeElt":
        # caller guarantees indices of S_n, no zero values, and hands over
        # the only reference to `terms`
        h = object.__new__(cls)
        h._init(n, terms, None)
        return h

    @classmethod
    def _unpickled(cls, n: int, terms: dict[int, IntPoly]) -> "HeckeElt":
        # the index-keyed terms of `__reduce__`, checked but not decoded
        size = factorial(n)
        clean: dict[int, IntPoly] = {}
        for k, c in terms.items():
            if type(k) is not int or not 0 <= k < size:
                raise InvalidInputError(f"term index {k!r} is not an index of S_{n}")
            if _kept(c, f"index {k}"):
                clean[k] = c
        return cls._raw(n, clean)

    @classmethod
    def _held(cls, n: int, at_reps: list[int], width: int, *factors: "HeckeElt") -> "HeckeElt":
        # the central element whose values at the reps of `_sweep(n)`,
        # packed at x = 2^width, are at_reps, marked central; width bounds
        # every coefficient, as for `_swept`. factors, the product's two,
        # fill it above `_DENSE_MAX_RANK`, where there is no sweep
        h = object.__new__(cls)
        h._init(n, None, (at_reps, _Memo(_unpack, width), *factors))
        return h

    def _by_index(self) -> dict[int, IntPoly]:
        """The terms by index, a held product's filled in on the first call."""
        terms = self._terms
        if terms is None:
            at_reps, unpack, *factors = self._reps
            if self.n <= _DENSE_MAX_RANK:
                terms = _swept(self.n, at_reps, unpack.width, unpack)._terms
            else:
                terms = _fold_right(*factors, False)._terms
            object.__setattr__(self, "_terms", terms)
            object.__setattr__(self, "_reps", None)
        return terms

    @property
    def terms(self) -> Mapping[Perm, IntPoly]:
        return _Terms(self.n, self._by_index())

    def __setattr__(self, name, value):
        raise AttributeError("HeckeElt is immutable")

    def __reduce__(self):
        return (HeckeElt._unpickled, (self.n, self._by_index().copy()))

    def __bool__(self) -> bool:
        if self._terms is None:
            return any(self._reps[0])
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._by_index())

    def __eq__(self, other) -> bool:
        if isinstance(other, HeckeElt):
            return self.n == other.n and self._by_index() == other._by_index()
        return NotImplemented

    def coeff(self, w: Perm) -> IntPoly:
        k = _index_of(self.n, w)
        if k < 0:
            return IntPoly()
        if self._terms is None:
            # a central element is constant on the minimal-length elements
            # of each class, so at any of them the class's rep value holds
            lengths, plan = _tables(self.n).lengths, _sweep(self.n)
            c = plan.classes.index(coxeter.modified_cycle_type(w))
            if lengths[k] == lengths[plan.reps[c]]:
                return self._at_reps()[c]
        return self._by_index().get(k, IntPoly())

    def _at_reps(self) -> list[IntPoly]:
        """The values at the reps of `_sweep(n)`, in the plan's order: a held product's own."""
        if self._terms is None:
            at_reps, unpack, *_ = self._reps
            return [unpack[v] if v else IntPoly() for v in at_reps]
        get = self._terms.get
        return [get(k, IntPoly()) for k in _sweep(self.n).reps]

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
        return mul(self, _generator(self.n, i))

    def left_gen(self, i: int) -> "HeckeElt":
        """Multiply by T_i on the left."""
        return mul(_generator(self.n, i), self)

    def transpose(self) -> "HeckeElt":
        """The anti-automorphism T_w -> T_{w^{-1}}, a relabeling through the inverse table."""
        inverse = _tables(self.n).inverse
        return HeckeElt._raw(self.n, {inverse[k]: c for k, c in self._by_index().items()})

    def specialize_group(self) -> dict[Perm, int]:
        """Set x = 0, landing in the integral group algebra."""
        out = {}
        for k, c in self._by_index().items():
            v = c.constant_term()
            if v:
                out[_index_perm(k, self.n)] = v
        return out

    def homogeneous_parity(self):
        """
        The common value of (length(w) + j) mod 2 over all terms T_w x^j,
        or None if the element is not homogeneous. Zero returns None. The
        x-degree parity of each distinct coefficient is found once.
        """
        par = None
        x_parity: dict[tuple, int] = {}  # 0 or 1, or -1 for mixed x-degrees
        for lw, c in zip(_term_lengths(self), self._by_index().values()):
            q = x_parity.get(c.coeffs)
            if q is None:
                q = x_parity[c.coeffs] = {"even": 0, "odd": 1}.get(c.parity(), -1)
            if q < 0:
                return None
            p = (lw + q) & 1
            if par is None:
                par = p
            elif par != p:
                return None
        return par

    def sorted_terms(self) -> list[tuple[Perm, IntPoly]]:
        """Terms sorted by (length, lex) of the permutation."""
        # lexicographic order is index order
        lengths, terms = _tables(self.n).lengths, self._by_index()
        order = sorted(terms, key=lambda k: (lengths[k], k))
        return [(_index_perm(k, self.n), terms[k]) for k in order]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"w": list(w), "c": c.to_json()} for w, c in self.sorted_terms()],
        }

    def __repr__(self) -> str:
        parts = [f"({c!s})*T{list(w)}" for w, c in self.sorted_terms()]
        return f"HeckeElt(n={self.n}: " + (" + ".join(parts) or "0") + ")"


def _index_of(n: int, w: Perm) -> int:
    """The index of w in S_n, or -1 when w is no permutation of S_n."""
    try:
        return _perm_index(w) if len(w) == n else -1
    except TypeError:  # w has no length, or unorderable entries
        return -1


class _Terms(Mapping):
    """
    The terms of one element by permutation: a read-only view of its dict
    by index, which encodes or decodes each key as it is read and keeps no
    copy of the terms.
    """

    __slots__ = ("n", "by_index")

    def __init__(self, n: int, by_index: dict[int, IntPoly]):
        self.n, self.by_index = n, by_index

    def __getitem__(self, w: Perm) -> IntPoly:
        c = self.by_index.get(_index_of(self.n, w))
        if c is None:
            raise KeyError(w)
        return c

    def __iter__(self) -> Iterator[Perm]:
        return map(_index_perm, self.by_index, repeat(self.n))

    def __len__(self) -> int:
        return len(self.by_index)

    def items(self) -> ItemsView[Perm, IntPoly]:
        # each key decoded once, where Mapping's would decode and encode it
        return dict(zip(self, self.by_index.values())).items()

    def values(self) -> ValuesView[IntPoly]:
        return self.by_index.values()


def zero(n: int) -> HeckeElt:
    return HeckeElt._raw(n, {})


def unit(n: int) -> HeckeElt:
    return HeckeElt._raw(n, {0: _ONE})  # the identity has index 0


def t_basis(w: Perm) -> HeckeElt:
    """The basis element T_w."""
    k = _index_of(len(w), w)
    if k < 0:
        raise InvalidInputError(f"not a permutation: {w}")
    return HeckeElt._raw(len(w), {k: _ONE})


def _generator(n: int, i: int) -> HeckeElt:
    """T_i in H_n, for 1 <= i < n."""
    return t_basis(coxeter.right_gen(coxeter.identity(n), i))


def _term_lengths(h: HeckeElt) -> Iterable[int]:
    """The length of each w in h's support, in its order, from the rank's tables."""
    return map(_tables(h.n).lengths.__getitem__, h._by_index())


def _letter_cost(h: HeckeElt) -> int:
    return sum(_term_lengths(h))


def _l1(c: IntPoly) -> int:
    return sum(map(abs, c.coeffs))


def _max_l1(h: HeckeElt) -> int:
    """max_w |h[w]|_1 for nonzero h, reading each distinct coefficient once."""
    return max(sum(map(abs, cs)) for cs in {c.coeffs for c in h._by_index().values()})


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """The polynomial with these coefficients evaluated at x = 2^width."""
    v = 0
    for a in reversed(coeffs):
        v = (v << width) + a
    return v


class _Memo(dict):
    """
    fn(key, width) for each distinct key, computed once and then shared:
    the per-call memo of one packed routine at its one width. With `_pack`
    it is keyed by coefficient tuples, with `_unpack` by packed values.
    """

    __slots__ = ("fn", "width")

    def __init__(self, fn, width: int):
        self.fn, self.width = fn, width

    def __missing__(self, key):
        v = self[key] = self.fn(key, self.width)
        return v


def _packed(h: HeckeElt, pack: _Memo) -> dict[int, int]:
    """h packed: the index of each w -> h[w] at x = 2^width, through `pack`."""
    return {k: pack[c.coeffs] for k, c in h._by_index().items()}


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
    >>> dict(linear_combination(2, [(one, mul(inverse, s)), (-one, unit(2))]).terms)
    {}
    """
    summands = list(summands)
    bound = 0
    for c, h in summands:
        if h.n != n:
            raise InvalidInputError(f"rank mismatch: element of H_{h.n} in a sum in H_{n}")
        if c and h._by_index():
            bound += _l1(c) * _max_l1(h)
    width = bound.bit_length() + 2
    pack = _Memo(_pack, width)
    acc: dict[int, int] = {}
    get = acc.get
    for c, h in summands:
        if c:
            pc = pack[c.coeffs]
            scaled: dict[tuple, int] = {}  # c * h[w] packed, for this summand only
            for k, v in h._by_index().items():
                s = scaled.get(v.coeffs)
                if s is None:
                    s = scaled[v.coeffs] = pack[v.coeffs] * pc
                acc[k] = get(k, 0) + s
    unpack = _Memo(_unpack, width)
    return HeckeElt._raw(n, {k: unpack[v] for k, v in acc.items() if v})


def _step(vec: dict[int, int], row, width: int) -> dict[int, int]:
    """
    vec * T_i for a packed element vec (index -> value at x = 2^width),
    row being `_tables(n).steps[i - 1]`: T_w T_i = T_{w s_i}, plus x T_w when i
    is a right descent of w. A descent k settles both k and its partner
    k s_i; an ascent is settled here only when its partner is absent.
    """
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
    return out


def _step_add(acc: dict[int, int], vec: dict[int, int], row, width: int, c: int) -> None:
    """acc += c * vec * T_i, in place, for packed acc, vec and c; zero sums are kept."""
    get = acc.get
    for k, v in vec.items():
        j = row[k]
        v *= c
        if j < 0:
            j = ~j
            acc[k] = get(k, 0) + (v << width)
        acc[j] = get(j, 0) + v


def _fold_right(left: HeckeElt, right: HeckeElt, flip: bool) -> HeckeElt:
    """
    left * right, expanding right along canonical reduced words, on
    coefficients packed as their values at x = 2^B; with `flip`, the
    product (left^t right^t)^t = right * left instead, where ^t is the
    anti-automorphism T_w -> T_{w^{-1}}. The flip is index bookkeeping:
    left^t is left read through the inverse table, the reduced words of
    right^t are those of right reversed, and the result is read back
    through the inverse table.

    The words are grouped from their last letter, in a trie of reversed
    reduced words, and the trie is evaluated by Horner's rule. With
    A = left, a node y (the suffix read from the root) stands for
    R(y) = sum c_w A T_{w y^{-1}} over the words w = (w y^{-1}) y below
    it, and R(y) = c_y A + sum over the children s_i y of R(s_i y) T_i;
    the product is R(1). So most generator steps act on the small partial
    sums near the leaves, not on prefix products A T_u that fill up.

    Evaluation at 2^B is a ring homomorphism Z[x] -> Z, so every sum,
    shift by x and product below is exact whatever B is; B, from
    `_product_width`, matters only for reading the result back.
    """
    n = left.n
    tables = _tables(n)
    inverse, steps = tables.inverse, tables.steps
    # trie of the reduced words of right's support read from the last
    # letter; key 0 marks a terminal and holds the coefficient
    root: dict = {}
    for k, c in right._by_index().items():
        node = root
        word = coxeter._reversed_word(k, steps)
        for i in reversed(word) if flip else word:
            node = node.setdefault(i, {})
        node[0] = c
    width = _product_width(left, right)
    pack = _Memo(_pack, width)
    vec = _packed(left, pack)
    if flip:
        vec = {inverse[k]: v for k, v in vec.items()}

    def horner(node: dict) -> dict[int, int]:
        # R(node) in a fresh dict: the first child that is not a bare
        # terminal (a leaf c T_i, folded as c A T_i) is stepped into it
        acc: dict[int, int] = {}
        leaves = []
        for i, child in node.items():
            if not i:
                continue
            if len(child) == 1 and 0 in child:
                leaves.append((i, child[0]))
            elif acc:
                _step_add(acc, horner(child), steps[i - 1], width, 1)
            else:
                acc = _step(horner(child), steps[i - 1], width)
        for i, c in leaves:
            _step_add(acc, vec, steps[i - 1], width, pack[c.coeffs])
        c = node.get(0)
        if c is not None:
            c = pack[c.coeffs]
            get = acc.get
            for k, v in vec.items():
                acc[k] = get(k, 0) + v * c
        return acc

    acc = horner(root)
    # unpack, draining acc as the terms fill
    unpack = _Memo(_unpack, width)
    terms: dict[int, IntPoly] = {}
    while acc:
        k, v = acc.popitem()
        if v:
            terms[inverse[k] if flip else k] = unpack[v]
    return HeckeElt._raw(n, terms)


def _l1_norms(h: HeckeElt) -> tuple[int, int]:
    """(|h|_1, sum_w |h[w]|_1 2^l(w)), computed once per element."""
    norms = h._norms
    if norms is None:
        l1 = list(map(_l1, h._by_index().values()))
        norms = (sum(l1), sum(map(int.__lshift__, l1, _term_lengths(h))))
        object.__setattr__(h, "_norms", norms)
    return norms


def _product_width(left: HeckeElt, right: HeckeElt) -> int:
    """
    The width B at which every coefficient of left * right is read back
    exactly. Writing right = sum_w c_w T_w, the product is the sum of
    c_w left T_w. A generator step at most doubles |.|_1, the sum of the
    absolute values of the integer coefficients, since T_w T_i is
    T_{w s_i}, plus x T_w on a descent. So
    |c_w left T_w|_1 <= |c_w|_1 |left|_1 2^l(w), and no coefficient of
    left * right, however it is computed, exceeds
    M = |left|_1 * sum_w |c_w|_1 2^l(w) in absolute value. With
    B = M.bit_length() + 2 every coefficient lies strictly inside
    (-2^(B-1), 2^(B-1)), where balanced base-2^B digits are unique.
    """
    return (_l1_norms(left)[0] * _l1_norms(right)[1]).bit_length() + 2


def _swept(n: int, at_reps: Iterable[int], width: int, unpack: _Memo | None = None) -> HeckeElt:
    """
    The central element of H_n whose values at the reps of `_sweep(n)`,
    packed at x = 2^width, are at_reps, filled in by one pass of the
    sweep; width must bound every coefficient of the result, as in
    `_unpack`. unpack, if given, is the memo that already unpacked some
    of these values at this width.
    """
    plan = _sweep(n)
    h = [0] * (factorial(n) + 1)  # the last slot stays zero
    for k, v in zip(plan.reps, at_reps):
        h[k] = v
    for k, a, b in zip(plan.order, plan.first, plan.second):
        h[k] = h[a] + (h[b] << width)
    h.pop()
    if unpack is None:
        unpack = _Memo(_unpack, width)
    return HeckeElt._raw(n, {k: unpack[v] for k, v in enumerate(h) if v})


def _class_element(lam: Partition, n: int) -> HeckeElt:
    """
    The class element gamma_lam(n), n <= `_DENSE_MAX_RANK`, for a class lam
    of S_n: the central element whose value is 1 at the rep of lam's class
    and 0 at the rep of every other class, filled in by `_swept`.

    Width. Every value the sweep forms has nonnegative coefficients and
    value at x = 1 at most F_{l(w)+1}, the Fibonacci number (F_1 = F_2 = 1),
    by induction along the plan's order, which is by length. A rep holds
    0 or 1, and so does an element that copies its class's rep (its
    second slot is the zero slot); F_{l+1} >= 1. Every other element w
    takes h[w] = h[sws] + x h[sw] for the pair of a two-sided step, its
    own or one it takes over from an element of the same length, with
    l(sws) = l(w) - 2 and l(sw) = l(w) - 1. So h[w] has nonnegative
    coefficients and h[w](1) <= F_{l(w)-1} + F_{l(w)} = F_{l(w)+1}. As
    F_{l+1} <= 2^l and l(w) <= n(n-1)/2, no coefficient exceeds
    2^(n(n-1)/2), and B = n(n-1)/2 + 2 puts every coefficient strictly
    inside (-2^(B-1), 2^(B-1)), where `_unpack` reads it back exactly.
    """
    classes = _sweep(n).classes
    return _swept(n, [int(c == lam) for c in classes], n * (n - 1) // 2 + 2)


def _central_mul(left: HeckeElt, right: HeckeElt) -> HeckeElt:
    """
    left * right for central left and right of H_n, at any rank, by the
    trace pairing at one element of each class (see the module docstring),
    held at these values and filled in when its terms are read. left is
    stepped along the trie of the classes' words, so each class costs one
    `_step` and one dot product, on the tables of `_tables(n)`, tabulated
    or per entry.
    """
    n = left.n
    tables, plan = _tables(n), _sweep(n)
    inverse, steps = tables.inverse, tables.steps
    # left * right = right * left, so both orders' bounds hold
    width = min(_product_width(left, right), _product_width(right, left))
    pack = _Memo(_pack, width)
    flipped = {inverse[k]: v for k, v in _packed(right, pack).items()}  # w -> right[w^{-1}]
    last = {p: c for c, p in enumerate(plan.parents)}  # each class's last child
    live: dict[int, dict[int, int]] = {}  # left T_{w_c}, for classes c with children to come
    at_reps = []
    for c, (p, i) in enumerate(zip(plan.parents, plan.letters)):
        if p < 0:
            vec = _packed(left, pack)
        else:
            vec = _step(live.pop(p) if last[p] == c else live[p], steps[i - 1], width)
        if c in last:
            live[c] = vec
        both = vec.keys() & flipped.keys()
        at_reps.append(sum(map(int.__mul__, map(vec.__getitem__, both), map(flipped.__getitem__, both))))
    return HeckeElt._held(n, at_reps, width, left, right)  # sum_C v_C gamma_C is central


def mul(h1: HeckeElt, h2: HeckeElt) -> HeckeElt:
    """
    The product h1 * h2, bilinear over Z[x]. The result is independent of
    the reduced words used to expand basis elements.

    When both factors are marked central, by `is_central` or as products
    of this route, the product is read, at every rank, at one
    minimal-length element u of each class by the trace,
    [T_u](h1 h2) = tau(h1 T_{u^{-1}} h2), on steps of h1, and held at these
    values: its coefficients at minimal-length elements are read from them,
    and its terms are filled in the first time they are read, by the
    class-polynomial sweep up to `coxeter._DENSE_MAX_RANK` and by
    `_fold_right` above it (see the module docstring).
    Otherwise the cheaper factor is expanded by `_fold_right`. Both read
    the result back at the width of `_product_width`.
    """
    if h1.n != h2.n:
        raise InvalidInputError(f"rank mismatch: {h1.n} vs {h2.n}")
    if not h1 or not h2:
        return zero(h1.n)
    if h1._central and h2._central:
        return _central_mul(h1, h2)
    if _letter_cost(h2) <= _letter_cost(h1):
        return _fold_right(h1, h2, False)
    return _fold_right(h2, h1, True)


@lru_cache(maxsize=None)
def jucys_murphy(i: int, n: int) -> HeckeElt:
    """L_i: zero for i = 1, else the sum of T over transpositions (k, i)."""
    if not 1 <= i <= n:
        raise InvalidInputError(f"Jucys-Murphy index {i} out of range for n={n}")
    return linear_combination(
        n, [(_ONE, t_basis(coxeter.transposition(n, k, i))) for k in range(1, i)]
    )


def _times_jm(vec: dict[int, int], k: int, steps, width: int) -> dict[int, int]:
    """vec * L_k for packed vec, k >= 2, on generator steps; zero sums are kept."""
    out = _step(vec, steps[k - 2], width)
    if k == 2:
        return out
    acc = _step(_times_jm(out, k - 1, steps, width), steps[k - 2], width)
    get = acc.get
    for j, v in out.items():
        acc[j] = get(j, 0) + v
    return acc


@lru_cache(maxsize=None)
def _m_sym_upto(lam: Partition, k: int, n: int) -> HeckeElt:
    """m_lam(L_2, ..., L_k) in H_n, by the recurrence on L_k."""
    if not lam:
        return unit(n)
    if len(lam) >= k:
        return zero(n)
    # the state is sum_p terms[p] L_k^p, with terms[0] = prev
    terms = {p: _m_sym_upto(lam[:i] + lam[i + 1 :], k - 1, n) for i, p in enumerate(lam)}
    terms[0] = _m_sym_upto(lam, k - 1, n)
    g = (2 ** (2 * k - 1) - 2) // 3  # G_k
    width = sum(sum(map(_l1, h._by_index().values())) * g**p
                for p, h in terms.items()).bit_length() + 2
    tables = _tables(n)
    pack = _Memo(_pack, width)
    acc: dict[int, int] = {}
    for p in range(lam[0], -1, -1):
        if p in terms:
            get = acc.get
            for j, v in _packed(terms[p], pack).items():
                acc[j] = get(j, 0) + v
        if p:
            acc = _times_jm(acc, k, tables.steps, width)
    unpack = _Memo(_unpack, width)
    return HeckeElt._raw(n, {j: unpack[v] for j, v in acc.items() if v})


def m_sym(lam: Partition, n: int) -> HeckeElt:
    """
    The monomial symmetric polynomial m_lam evaluated at the Jucys-Murphy
    elements L_1, ..., L_n. Vanishes when lam has more parts than can avoid
    L_1 = 0; the empty partition gives the unit. Built by the recurrence on
    L_k in the module docstring, on packed generator steps alone.

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
    """
    Whether h commutes with every generator T_i, decided on packed
    indices: h T_i against T_i h = (h^t T_i)^t, stopping at the first
    generator that does not commute; shorter for a symmetric h (see the
    module docstring).

    >>> is_central(e_sym(2, 4)), is_central(jucys_murphy(2, 3))
    (True, False)
    """
    n = h.n
    if not h._by_index():
        object.__setattr__(h, "_central", True)
        return True
    tables = _tables(n)
    inverse, steps = tables.inverse, tables.steps
    width = (2 * _max_l1(h)).bit_length() + 2
    vec = _packed(h, _Memo(_pack, width))
    flipped = {inverse[k]: v for k, v in vec.items()}
    self_transpose = flipped == vec
    top = factorial(n) - 1
    mirrored = {top - inverse[top - inverse[k]]: v for k, v in vec.items()}
    for row in steps[: n // 2] if mirrored == vec else steps:
        right = _step(vec, row, width)
        left = right if self_transpose else _step(flipped, row, width)
        if right != {inverse[k]: v for k, v in left.items()}:
            return False
    object.__setattr__(h, "_central", True)
    return True


def group_mul(a: Mapping[Perm, int], b: Mapping[Perm, int]) -> dict[Perm, int]:
    """
    Convolution in the group algebra Z S_n, with no Hecke machinery at all.
    Serves as the independent oracle for the x = 0 specialization, so it
    reads no index table and no permutation codec. Each v of b is the bytes
    of its one-line word and each u of a a 256-byte table (byte j to u(j)),
    so u v is ``v.translate(table)``; sums are keyed by bytes and decoded
    once. Keys of two lengths, or of a length above 255, raise.
    """
    if not a or not b:
        return {}
    n = len(next(iter(a)))
    if n > 255:
        raise InvalidInputError(f"group_mul handles ranks up to 255, got {n}")
    for w in (*a, *b):
        if len(w) != n:
            raise InvalidInputError(f"rank mismatch: {n} vs {len(w)}")
    right = [(bytes(v), cv) for v, cv in b.items()]
    out: dict[bytes, int] = {}
    get = out.get
    for u, cu in a.items():
        table = bytes((0, *u)).ljust(256, b"\0")
        for v, cv in right:
            w = v.translate(table)
            out[w] = get(w, 0) + cu * cv
    return {tuple(w): c for w, c in out.items() if c}
