"""
Generator steps, sums, scalings, products and the centrality test of Hecke
elements on `IntPoly` coefficients, kept as the oracle for
`HeckeElt.right_gen`/`left_gen`, `hecke.linear_combination`, `hecke.mul`
and `hecke.is_central`: every coefficient goes through `IntPoly`
arithmetic term by term, with no packing of coefficients and no
permutation indices. The terms are dicts keyed by permutation tuple, read
from `HeckeElt.terms` and turned back into elements by the public
constructor. The generator steps are this module's own `right_gen` and
`left_gen`, which relabel the terms and add x T_w on descents, so the
oracle shares no arithmetic with the packed kernels of `hecke`.
"""

from grhecke.coxeter import inverse, reduced_word
from grhecke.errors import InvalidInputError
from grhecke.hecke import HeckeElt, _letter_cost, zero
from grhecke.polyring import IntPoly


def _terms(h: HeckeElt) -> dict:
    return dict(h.terms.items())


def _check_generator(h: HeckeElt, i: int) -> None:
    if not 1 <= i <= h.n - 1:
        raise InvalidInputError(f"generator index {i} out of range for n={h.n}")


def right_gen(h: HeckeElt, i: int) -> HeckeElt:
    """Multiply by T_i on the right."""
    _check_generator(h, i)
    return HeckeElt(h.n, _right_gen(_terms(h), i))


def left_gen(h: HeckeElt, i: int) -> HeckeElt:
    """Multiply by T_i on the left."""
    _check_generator(h, i)
    return HeckeElt(h.n, _left_gen(_terms(h), i))


def _right_gen(terms: dict, i: int) -> dict:
    moved = {w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]: c for w, c in terms.items()}
    return _plus_x_on(terms, moved, [w for w in terms if w[i - 1] > w[i]])


def _left_gen(terms: dict, i: int) -> dict:
    moved = {
        tuple(i + 1 if a == i else i if a == i + 1 else a for a in w): c
        for w, c in terms.items()
    }
    return _plus_x_on(terms, moved, [w for w in terms if w.index(i) > w.index(i + 1)])


def _plus_x_on(terms: dict, moved: dict, descents: list) -> dict:
    """
    A product with T_i in its two parts: T_w T_i is T_{w s_i}, plus x T_w
    when i is a descent of w, and likewise on the left. `moved` holds the
    terms relabeled by the bijection w -> w s_i; x T_w is added here.
    """
    for w in descents:
        xc = IntPoly._raw((0,) + terms[w].coeffs)
        prev = moved.get(w)
        s = xc if prev is None else prev + xc
        if s:
            moved[w] = s
        else:
            del moved[w]
    return moved


def _add_into(out: dict, terms: dict) -> None:
    for w, c in terms.items():
        prev = out.get(w)
        s = c if prev is None else prev + c
        if s:
            out[w] = s
        elif prev is not None:
            del out[w]


def _scaled(terms: dict, c) -> dict:
    if isinstance(c, int):
        c = IntPoly.const(c)
    return {w: c * v for w, v in terms.items()} if c else {}


def add(self: HeckeElt, other: HeckeElt) -> HeckeElt:
    return linear_combination(self.n, [(1, self), (1, other)])


def sub(self: HeckeElt, other: HeckeElt) -> HeckeElt:
    return linear_combination(self.n, [(1, self), (-1, other)])


def scale(self: HeckeElt, c) -> HeckeElt:
    """Multiply by a scalar in Z[x] (or an int)."""
    return linear_combination(self.n, [(c, self)])


def linear_combination(n: int, summands) -> HeckeElt:
    """The sum of c * h over the pairs (c, h), one summand at a time."""
    out: dict = {}
    for c, h in summands:
        if h.n != n:
            raise InvalidInputError(f"rank mismatch: {h.n} vs {n}")
        _add_into(out, _scaled(_terms(h), c))
    return HeckeElt(n, out)


def _fold_right(left: dict, right: dict) -> dict:
    """left * right, expanding right along canonical reduced words."""
    # prefix tree of the reduced words of right's support; key 0 marks a
    # terminal and holds the coefficient
    root: dict = {}
    for w, c in right.items():
        node = root
        for i in reduced_word(w):
            node = node.setdefault(i, {})
        node[0] = c
    acc: dict = {}

    def visit(node: dict, terms: dict) -> None:
        c = node.get(0)
        if c is not None:
            _add_into(acc, _scaled(terms, c))
        for i, child in node.items():
            if i:
                visit(child, _right_gen(terms, i))

    visit(root, left)
    return acc


def _transpose(terms: dict) -> dict:
    """T_w -> T_{w^{-1}} on tuples, not through the engine's inverse table."""
    return {inverse(w): c for w, c in terms.items()}


def mul(h1: HeckeElt, h2: HeckeElt) -> HeckeElt:
    """h1 * h2 with the orientation choice of `hecke.mul`."""
    if h1.n != h2.n:
        raise InvalidInputError(f"rank mismatch: {h1.n} vs {h2.n}")
    if not h1.terms or not h2.terms:
        return zero(h1.n)
    a, b = _terms(h1), _terms(h2)
    if _letter_cost(h2) <= _letter_cost(h1):
        return HeckeElt(h1.n, _fold_right(a, b))
    return HeckeElt(h1.n, _transpose(_fold_right(_transpose(b), _transpose(a))))


def is_central(h: HeckeElt) -> bool:
    """Whether h commutes with every generator T_i."""
    terms = _terms(h)
    return all(_right_gen(terms, i) == _left_gen(terms, i) for i in range(1, h.n))
