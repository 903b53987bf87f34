"""
The product of Hecke elements on `IntPoly` coefficients, kept as the
oracle for `hecke.mul`: every generator step goes through
`HeckeElt.right_gen` and every coefficient through `IntPoly` arithmetic,
with no packing of coefficients and no permutation indices.
"""

from grhecke.coxeter import reduced_word
from grhecke.errors import InvalidInputError
from grhecke.hecke import HeckeElt, _letter_cost, zero


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
                visit(child, elt.right_gen(i))

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
