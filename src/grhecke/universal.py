"""
The rank-independent layer above the centers.

Products of class elements respect the filtration by partition size, and
the top-degree structure constants (those with |nu| = |lam| + |mu|) do not
depend on the rank n. `universal_constant` therefore computes each one at
two consecutive ranks chosen large enough that no top-degree class
vanishes, insists on exact agreement, and returns the common value. These
constants define a graded algebra on the class symbols; `graded_product`
and `one_row_product_matrix` operate purely at that level.

The full structure constants are polynomial in n: Méliot, "Products of
Geck-Rouquier conjugacy classes and the Hecke algebra of composed
permutations" (FPSAC 2010), states a proof. No degree bound in n is used
here, so `fit_structure_constant` and `fit_m_sym_coeff` produce evidence:
an exact interpolation over a window of ranks together with held-out
validation ranks, never a claim.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .center import _pairs_up_to, m_sym_in_gamma, structure_constants
from .coxeter import Partition, check_partition, fits_rank, partitions_of
from .errors import InvalidInputError, InvariantViolationError
from .polyring import IntPoly, NPoly, RatPoly, determinant, interpolate_in_n

__all__ = [
    "GradedTable", "FitResult", "OneRowMatrixReport",
    "universal_constant", "graded_product", "graded_table",
    "one_row_product_matrix", "dominance_compare",
    "fit_structure_constant", "fit_m_sym_coeff", "check_graded_associativity",
    "degree_cap",
]


def universal_constant(lam: Partition, mu: Partition, nu: Partition) -> IntPoly:
    """
    The top-degree structure constant for |nu| = |lam| + |mu|, computed at
    two consecutive ranks and required to agree exactly.
    """
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    size = sum(lam) + sum(mu)
    if sum(nu) != size:
        raise InvalidInputError(
            f"top-degree constant needs |nu| = |lam| + |mu|, got {nu} for ({lam}, {mu})"
        )
    return graded_product(lam, mu).get(nu, IntPoly())


def _rank_fitting(size: int) -> int:
    """A rank at which no class of size at most `size` vanishes: |nu| + len(nu) <= 2|nu|."""
    return max(2 * size, 1)


def graded_product(lam: Partition, mu: Partition) -> dict[Partition, IntPoly]:
    """The product of two class symbols in the graded algebra, from the structure-constant memo."""
    lam, mu = check_partition(lam), check_partition(mu)
    size = sum(lam) + sum(mu)
    n0 = _rank_fitting(size)
    lo = structure_constants(lam, mu, n0)
    hi = structure_constants(lam, mu, n0 + 1)
    row: dict[Partition, IntPoly] = {}
    for nu in partitions_of(size):
        a, b = lo.get(nu), hi.get(nu)
        if a != b:
            raise InvariantViolationError(
                f"top-degree constant for ({lam}, {mu}) -> {nu} differs between "
                f"n={n0} ({a}) and n={n0 + 1} ({b})"
            )
        if a:
            row[nu] = a
    return row


class GradedTable(NamedTuple):
    """Top-degree products for all pairs with |lam| + |mu| <= max_grade."""

    max_grade: int
    entries: list[tuple[Partition, Partition, dict[Partition, IntPoly]]]


def graded_table(max_grade: int) -> GradedTable:
    """
    Materialize the graded products up to a grade, checking that every
    constant is an even polynomial with nonnegative integer coefficients.

    >>> graded_table(0)
    GradedTable(max_grade=0, entries=[])
    >>> graded_table(2).entries
    [((1,), (1,), {(2,): IntPoly((3, 0, 1)), (1, 1): IntPoly((2, 0, 1))})]
    """
    if max_grade < 0:
        raise InvalidInputError("max_grade must be nonnegative")
    entries = []
    for lam, mu in _pairs_up_to(_rank_fitting(max_grade), max_grade):
        if not (lam and mu):
            continue
        row = graded_product(lam, mu)
        for nu, c in row.items():
            if not c.is_nonnegative() or c.parity() not in ("even", "zero"):
                raise InvariantViolationError(
                    f"graded constant for ({lam}, {mu}) -> {nu} is {c}, "
                    "expected nonnegative and even in x"
                )
        entries.append((lam, mu, row))
    return GradedTable(max_grade=max_grade, entries=entries)


def _weighted_rows(
    pairs: Iterable[tuple[IntPoly, dict[Partition, IntPoly]]]
) -> dict[Partition, IntPoly]:
    """The sum of c * row over the pairs (c, row) of graded rows, zeros dropped."""
    out: dict[Partition, IntPoly] = {}
    for c, row in pairs:
        for nu, k in row.items():
            prev = out.get(nu)
            add = c * k
            out[nu] = add if prev is None else prev + add
    return {nu: c for nu, c in out.items() if c}


def dominance_compare(a: Partition, b: Partition) -> Optional[str]:
    """
    Dominance comparison of equal-size partitions from partial sums:
    '<', '>', '=', or None when incomparable.
    """
    if sum(a) != sum(b):
        raise InvalidInputError("dominance compares partitions of equal size")
    if a == b:
        return "="
    leq = geq = True
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            geq = False
        elif sa > sb:
            leq = False
    if leq:
        return "<"
    if geq:
        return ">"
    return None


class OneRowMatrixReport(NamedTuple):
    """
    Expansion of the products gamma_{lam_1} gamma_{lam_2} ... of one-row
    symbols over the partitions of k, with invertibility and triangularity
    diagnostics. Rows and columns follow the reverse lexicographic order,
    which extends dominance (columns left of a row's own column dominate it).
    """

    k: int
    order: list[Partition]
    matrix: list[list[IntPoly]]
    det: IntPoly
    zero_matrix: list[list[int]]
    zero_diagonal: list[int]
    dominance_triangular_at_zero: bool
    dominance_triangular_generic: bool
    offending_entries: Sequence[tuple[Partition, Partition, str]] = ()

    @property
    def invertible(self) -> bool:
        return bool(self.det)


def one_row_product_matrix(k: int) -> OneRowMatrixReport:
    """
    For every partition lam of k, expand the graded product of the one-row
    symbols gamma_{(lam_1)}, gamma_{(lam_2)}, ... over the class symbols of
    size k. The matrix must be invertible over the rational function field.
    """
    if k < 1:
        raise InvalidInputError("k must be positive")
    order = list(partitions_of(k))
    col = {p: i for i, p in enumerate(order)}
    rows = []
    for lam in order:
        state: dict[Partition, IntPoly] = {(lam[0],): IntPoly.const(1)}
        for part in lam[1:]:
            state = _weighted_rows(
                (c, graded_product(sigma, (part,))) for sigma, c in state.items()
            )
        rows.append([state.get(nu, IntPoly()) for nu in order])
    det = determinant(rows)
    if not det:
        raise InvariantViolationError(
            f"one-row product matrix for k={k} is singular over Q(x)"
        )
    zero_matrix = [[c.constant_term() for c in row] for row in rows]
    zero_diagonal = [zero_matrix[i][i] for i in range(len(order))]
    offending = []
    tri_zero = all(zero_diagonal)
    tri_generic = True
    for r, lam in enumerate(order):
        for c, mu in enumerate(order):
            if lam == mu:
                continue
            cmp = dominance_compare(mu, lam)
            # triangular means: nonzero entries only where mu dominates lam
            bad = cmp is None or cmp == "<"
            if rows[r][c] and bad:
                tri_generic = False
                offending.append((lam, mu, "incomparable" if cmp is None else "below"))
            if zero_matrix[r][c] and bad:
                tri_zero = False
    return OneRowMatrixReport(
        k=k,
        order=order,
        matrix=rows,
        det=det,
        zero_matrix=zero_matrix,
        zero_diagonal=zero_diagonal,
        dominance_triangular_at_zero=tri_zero,
        dominance_triangular_generic=tri_generic,
        offending_entries=offending,
    )


def check_graded_associativity(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """(gamma_lam gamma_mu) gamma_nu == gamma_lam (gamma_mu gamma_nu) in the graded algebra."""
    left = _weighted_rows(
        (c, graded_product(sigma, nu)) for sigma, c in graded_product(lam, mu).items()
    )
    right = _weighted_rows(
        (c, graded_product(lam, sigma)) for sigma, c in graded_product(mu, nu).items()
    )
    return left == right


class FitResult(NamedTuple):
    """
    An exact polynomial-in-n fit of a structure constant (or of a monomial
    expansion coefficient when nu is None), with its support and held-out
    validation ranks. Evidence, not proof: status records whether the
    escalation validated within the degree cap.
    """

    lam: Partition
    mu: Partition
    nu: Optional[Partition]
    status: str  # "validated" or "degree-cap-exceeded"
    fit: Optional[NPoly]
    degree: int
    support: list[int]
    validated_at: list[int]
    samples: list[tuple[int, IntPoly]]
    values_nonneg_integral: bool

    @property
    def validated(self) -> bool:
        return self.status == "validated"


def degree_cap(lam: Partition, mu: Partition) -> int:
    return 2 * (sum(lam) + sum(mu)) + 2


def _fit_points(
    lam: Partition,
    mu: Partition,
    nu: Optional[Partition],
    samples: list[tuple[int, IntPoly]],
) -> FitResult:
    cap = degree_cap(lam, mu)
    values_ok = all(v.is_nonnegative() for _, v in samples)
    for deg in range(0, min(cap, len(samples) - 2) + 1):
        window = samples[: deg + 1]
        holdout = samples[deg + 1 :]
        fit = interpolate_in_n(window)
        if all(fit.evaluate(n) == RatPoly.from_intpoly(v) for n, v in holdout):
            return FitResult(
                lam=lam, mu=mu, nu=nu, status="validated", fit=fit,
                degree=fit.degree if fit else 0,
                support=[n for n, _ in window],
                validated_at=[n for n, _ in holdout],
                samples=samples, values_nonneg_integral=values_ok,
            )
    return FitResult(
        lam=lam, mu=mu, nu=nu, status="degree-cap-exceeded", fit=None,
        degree=-1, support=[n for n, _ in samples], validated_at=[],
        samples=samples, values_nonneg_integral=values_ok,
    )


def _fit_window(
    lam: Partition,
    mu: Partition,
    nu: Optional[Partition],
    n_lo: int,
    n_hi: int,
    value: Callable[[int], IntPoly],
) -> FitResult:
    """
    The pipeline of both fits: value(n) sampled over the ranks n_lo..n_hi
    at which the target class (nu, or mu when nu is None) is nonempty, then
    fitted by `_fit_points`.
    """
    if n_hi - n_lo < 2:
        raise InvalidInputError("need a window of at least 3 ranks")
    name, target = ("mu", mu) if nu is None else ("nu", nu)
    samples = [(n, value(n)) for n in range(n_lo, n_hi + 1) if fits_rank(target, n)]
    if len(samples) < 3:
        raise InvalidInputError(
            f"only {len(samples)} usable ranks for {name}={target} in {n_lo}..{n_hi}"
        )
    return _fit_points(lam, mu, nu, samples)


def fit_structure_constant(
    lam: Partition, mu: Partition, nu: Partition, n_lo: int, n_hi: int
) -> FitResult:
    """
    Fit the structure constant for (lam, mu) -> nu as a polynomial in n over
    the ranks n_lo..n_hi, escalating the degree until the remaining ranks
    validate exactly. Ranks where the target class vanishes carry no
    information and are skipped.
    """
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if not fits_rank(lam, n_lo) or not fits_rank(mu, n_lo):
        raise InvalidInputError(
            f"classes {lam}, {mu} must be nonempty at every rank from {n_lo}"
        )
    return _fit_window(lam, mu, nu, n_lo, n_hi,
                       lambda n: structure_constants(lam, mu, n).get(nu))


def fit_m_sym_coeff(lam: Partition, mu: Partition, n_lo: int, n_hi: int) -> FitResult:
    """
    Same fitting pipeline applied to the coefficient of gamma_mu in the
    expansion of the monomial symmetric element m_lam.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    return _fit_window(lam, mu, None, n_lo, n_hi, lambda n: m_sym_in_gamma(lam, n).get(mu))
