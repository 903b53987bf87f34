"""
The certificate of gamma_lam(n) in the monomial symmetric elements m_mu(L),
|mu| <= |lam|, which `center` ran at every rank before it read the
elementary products e_rho(L) up to `_DENSE_MAX_RANK`; kept as the oracle
for that certificate. Every m_mu is read at `min_rep` of each class of S_n,
not at the sweep plan's reps, and the check is written out here, not taken
from `center._certify`.
"""

from grhecke.center import _candidate_classes
from grhecke.coxeter import min_rep, partitions_up_to
from grhecke.errors import ConstructionError
from grhecke.hecke import m_sym
from grhecke.polyring import IntPoly, solve_linear

ONE = IntPoly.const(1)


def pattern(lam, n):
    """The values of gamma_lam(n) at one minimal element of each class of S_n."""
    return {nu: ONE if nu == lam else IntPoly() for nu in _candidate_classes(n, n)}


def certify(lam, n, want=None):
    """
    Prove d g in the Z[x]-span of the m_mu(L), |mu| <= |lam|, for the
    central element g whose value at a minimal element of each class nu of
    S_n is want[nu] (gamma_lam's pattern by default): solve on the classes
    of size at most |lam|, then check the combination at every class.
    Returns (y, d); raises ConstructionError at the first class that fails.
    """
    want = pattern(lam, n) if want is None else want
    msyms = [m_sym(mu, n) for mu in partitions_up_to(sum(lam))]
    rows = {nu: [m.coeff(min_rep(nu, n)) for m in msyms] for nu in want}
    classes = _candidate_classes(sum(lam), n)
    (y,), d = solve_linear([rows[nu] for nu in classes], [[want[nu] for nu in classes]])
    for nu, row in rows.items():
        got = sum((a * v for a, v in zip(y, row) if a), IntPoly())
        if got != d * want[nu]:
            raise ConstructionError(
                f"gamma_{lam}(n={n}) fails its certificate at class {nu}: the solve's "
                f"combination of m_mu has {got} at {min_rep(nu, n)}, expected {d * want[nu]}"
            )
    return y, d
