"""
Generator steps, sums, scalings, products and the centrality test of Hecke
elements on `IntPoly` coefficients, kept as the oracle for
`HeckeElt.right_gen`/`left_gen`, `hecke.linear_combination`, `hecke.mul`
and `hecke.is_central`: every coefficient goes through `IntPoly`
arithmetic term by term, with no packing of coefficients and no
permutation indices. The generator steps are this module's own `right_gen`
and `left_gen`, which relabel the terms and add x T_w on descents, so the
oracle shares no arithmetic with the packed kernels of `hecke`.
"""

from grhecke.coxeter import reduced_word
from grhecke.errors import InvalidInputError
from grhecke.hecke import HeckeElt, _letter_cost, zero
from grhecke.polyring import IntPoly


def right_gen(h: HeckeElt, i: int) -> HeckeElt:
    """Multiply by T_i on the right."""
    if not 1 <= i <= h.n - 1:
        raise InvalidInputError(f"generator index {i} out of range for n={h.n}")
    moved = {w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]: c for w, c in h.terms.items()}
    return _plus_x_on(h, moved, [w for w in h.terms if w[i - 1] > w[i]])


def left_gen(h: HeckeElt, i: int) -> HeckeElt:
    """Multiply by T_i on the left."""
    if not 1 <= i <= h.n - 1:
        raise InvalidInputError(f"generator index {i} out of range for n={h.n}")
    moved = {
        tuple(i + 1 if a == i else i if a == i + 1 else a for a in w): c
        for w, c in h.terms.items()
    }
    return _plus_x_on(h, moved, [w for w in h.terms if w.index(i) > w.index(i + 1)])


def _plus_x_on(h: HeckeElt, moved: dict, descents: list) -> HeckeElt:
    """
    A product with T_i in its two parts: T_w T_i is T_{w s_i}, plus x T_w
    when i is a descent of w, and likewise on the left. `moved` holds the
    terms relabeled by the bijection w -> w s_i; x T_w is added here.
    """
    for w in descents:
        xc = IntPoly._raw((0,) + h.terms[w].coeffs)
        prev = moved.get(w)
        s = xc if prev is None else prev + xc
        if s:
            moved[w] = s
        else:
            del moved[w]
    return HeckeElt._raw(h.n, moved)


def add(self: HeckeElt, other: HeckeElt) -> HeckeElt:
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


def sub(self: HeckeElt, other: HeckeElt) -> HeckeElt:
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


def scale(self: HeckeElt, c) -> HeckeElt:
    """Multiply by a scalar in Z[x] (or an int)."""
    if isinstance(c, int):
        c = IntPoly.const(c)
    if not c:
        return HeckeElt._raw(self.n, {})
    return HeckeElt._raw(self.n, {w: c * v for w, v in self.terms.items()})


def linear_combination(n: int, summands) -> HeckeElt:
    """The sum of c * h over the pairs (c, h), one summand at a time."""
    out = zero(n)
    for c, h in summands:
        out = add(out, scale(h, c))
    return out


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
    acc: dict = {}

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
                visit(child, right_gen(elt, i))

    visit(root, left)
    return HeckeElt._raw(n, acc)


def mul(h1: HeckeElt, h2: HeckeElt) -> HeckeElt:
    """h1 * h2 with the orientation choice of `hecke.mul`."""
    if h1.n != h2.n:
        raise InvalidInputError(f"rank mismatch: {h1.n} vs {h2.n}")
    if not h1.terms or not h2.terms:
        return zero(h1.n)
    if _letter_cost(h2) <= _letter_cost(h1):
        return _fold_right(h1, h2)
    return _fold_right(h2.transpose(), h1.transpose()).transpose()


def is_central(h: HeckeElt) -> bool:
    """Whether h commutes with every generator T_i."""
    return all(right_gen(h, i) == left_gen(h, i) for i in range(1, h.n))
