"""
The class element gamma_lam(n) assembled from the linear solve, kept as the
oracle for the class-polynomial sweep that builds it in `center`: the
characterization constraints are solved for a combination sum_mu y_mu m_mu
of the monomial symmetric elements in the Jucys-Murphy elements,
|mu| <= |lam|, with one common denominator d; the numerators are assembled
into one Hecke element and every coefficient is divided exactly by d. It
reads no sweep plan.
"""

from grhecke import hecke
from grhecke.center import _candidate_classes
from grhecke.coxeter import min_rep, partitions_up_to
from grhecke.hecke import HeckeElt, m_sym
from grhecke.polyring import IntPoly, divexact, solve_linear

ONE = IntPoly.const(1)


def gamma(lam, n):
    """gamma_lam(n), assembled from the solve and divided exactly by d."""
    candidates = list(partitions_up_to(sum(lam)))
    msyms = {mu: m_sym(mu, n) for mu in candidates}
    classes = _candidate_classes(sum(lam), n)
    A = [[msyms[mu].coeff(min_rep(nu, n)) for mu in candidates] for nu in classes]
    (y,), d = solve_linear(A, [[ONE if nu == lam else IntPoly() for nu in classes]])
    num = hecke.linear_combination(n, [(c, msyms[mu]) for mu, c in zip(candidates, y)])
    return HeckeElt(n, {w: divexact(c, d) for w, c in num.terms.items()})
