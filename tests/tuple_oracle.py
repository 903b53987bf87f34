"""
The x = 0 oracle and the element checks on permutation tuples, kept as the
reference for the engine's forms: `hecke.group_mul` convolves byte-coded
one-line words, and `center._element_witnesses` reads an element's index
map against the indices of each class. Here every product is a tuple
`coxeter.compose`, every product element is classified by
`modified_cycle_type`, and the checks decode the element's terms
(`specialize_group`) and encode each minimal element (`coeff`).
"""

from grhecke import coxeter
from grhecke.center import _candidate_classes
from grhecke.errors import InvariantViolationError
from grhecke.hecke import is_central
from grhecke.polyring import IntPoly

ONE = IntPoly.const(1)


def group_mul(a, b):
    """Convolution in Z S_n by tuple composition; zero sums are dropped."""
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = coxeter.compose(u, v)
            s = out.get(w, 0) + cu * cv
            if s:
                out[w] = s
            elif w in out:
                del out[w]
    return out


def class_sum_oracle(lam, mu, n):
    """The class sums of lam and mu multiplied, by class of the product."""
    a = {w: 1 for w in coxeter.conjugacy_class(lam, n)}
    b = {w: 1 for w in coxeter.conjugacy_class(mu, n)}
    out, counts = {}, {}
    for w, c in group_mul(a, b).items():
        nu = coxeter.modified_cycle_type(w)
        if out.setdefault(nu, c) != c:
            raise InvariantViolationError(f"class sum product not constant on class {nu} in S_{n}")
        counts[nu] = counts.get(nu, 0) + 1
    for nu, seen in counts.items():
        if seen != len(coxeter.conjugacy_class(nu, n)):
            raise InvariantViolationError(
                f"class sum product covers class {nu} only partially in S_{n}")
    return out


def element_witnesses(lam, n, elt, up_to):
    """The characterization of gamma_lam(n) through size up_to, checked on tuples."""
    witnesses = []
    if not is_central(elt):
        witnesses.append(f"gamma_{lam}(n={n}) is not central")
    if elt.specialize_group() != {w: 1 for w in coxeter.conjugacy_class(lam, n)}:
        witnesses.append(f"gamma_{lam}(n={n}) does not specialize to the class sum at x=0")
    if elt and elt.homogeneous_parity() != sum(lam) % 2:
        witnesses.append(f"gamma_{lam}(n={n}) is not homogeneous of parity |lam| mod 2")
    checks = 3
    for nu in _candidate_classes(up_to, n):
        want = ONE if nu == lam else IntPoly()
        for w in coxeter.minimal_length_elements(nu, n):
            checks += 1
            if elt.coeff(w) != want:
                witnesses.append(
                    f"gamma_{lam}(n={n}) has coefficient {elt.coeff(w)} on the "
                    f"minimal element {w} of class {nu} (expected {want})"
                )
    return witnesses, checks
