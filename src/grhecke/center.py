"""
The center of H_n and its Geck-Rouquier basis.

Among central elements, the class element gamma_lam(n) for a modified cycle
type lam (with sum(lam) + len(lam) <= n) is pinned down by two properties:

  (i)  at x = 0 it becomes the plain class sum of C_lam(n);
  (ii) subtracting the sum of T_w over the class leaves an element whose
       support avoids the minimal length elements of every conjugacy class.

Equivalently, gamma_lam has coefficient 1 on every minimal length element
of its own class and coefficient 0 on every minimal length element of every
other class. A central element is fixed by its values at one minimal length
element of each class, so up to `_DENSE_MAX_RANK` gamma_lam is the
class-polynomial sweep of the values 1 at its own class and 0 at the others
(`hecke._class_element`), with no solve and no division.

Monomial symmetric polynomials m_mu(L) in the Jucys-Murphy elements span
the relevant filtration layer of the center, and exact solves certify, at
every rank, that gamma_lam lies in it. At each degree k the elementary
products e_rho = e_rho_1 ... e_rho_l, |rho| = k, span the same Z-lattice
of symmetric functions as the m_mu, |mu| = k: e_rho = sum_mu M_{rho mu}
m_mu, M counting 0-1 matrices, unitriangular in dominance order
(Macdonald, Symmetric Functions and Hall Polynomials, I.2 and I.6). So up
to `_DENSE_MAX_RANK` the family read is the e_rho(L), |rho| <= |lam|
(`_e_product`): each e_r(L) from `hecke.e_sym`, marked central by
`is_central`, and each longer product by the trace pairing, held at its
values at the p(n) reps of `coxeter._sweep`; above it, the m_mu(L),
|mu| <= |lam|. Each is read once, at those reps (`_at_reps`). Every lam
of one size has the same matrix, the family at the classes of size at
most |lam|, so one fraction-free elimination per level (`_level_solve`)
gives each lam numerators y over Z[x] with a common denominator d. Then
sum y h must equal d at the rep of lam's class and 0 at the rep of every
other class of S_n; both sides are central, so this proves d gamma_lam in
the Z[x]-span of the family, that of the m_mu with |mu| <= |lam|. Up
to `_DENSE_MAX_RANK` the proof rests on `e_sym`, `is_central` and the
pairing, and no m_mu(L) is formed but the e_r(L). Only then is gamma_lam
built: swept up to `_DENSE_MAX_RANK`, and above it assembled from the
numerators and divided by d, which the certificate has made exact.

Each element is verified once, by the same check whether the certificate
ran or the disk cache vouches for it: centrality, the class sum at x = 0,
parity, and the pattern on every class up to the level it is verified at
(|lam| when certified, the basis's level when swept again). For a swept
element this check is independent of the sweep.

The center is filtered: gamma_lam(n) does not depend on the level at which
it is materialized, so the basis up to size k is a prefix of the basis up
to size k + 1. One verified basis per rank, the largest asked for, is the
only store of class elements: a larger request grows it, building only the
classes it lacks, and a smaller one restricts it. The optional disk cache
holds one file per rank up to `_DENSE_MAX_RANK`, and the file records only
the level through which the rank's class elements were certified: a later
process sweeps those classes again, checks them, and skips only their
certificate.

Structure constants come from expanding a product h of two class elements
in this basis: the coordinates c_nu are its values at the p(n) reps of
`coxeter._sweep`, which exist at every rank, read with those of the class
elements by `_at_reps`, and the residual h - sum_nu c_nu gamma_nu must be
zero. h and the class elements are marked central (see `hecke`), so the
residual is too, and it is fixed by its values at one minimal-length
element of each class (Geck-Pfeiffer 2000, 8.2). Each gamma_nu is 1 at its
own rep and 0 at the others, so the residual is 0 there exactly when h is 0
at every class above |lam| + |mu|: only the classes of the factors are
built; the others rest on the basis theorem, which `verify` checks. h comes
from the trace pairing at every rank, held at those values, so no element
of n! terms is formed. Only for unmarked input, or a value above
|lam| + |mu|, is the whole residual formed, on the basis through that size,
whose vanishing also proves h central. Each is computed on one memoized path,
which the table builder, the verification suites and the rank-independent
layer share. The center is commutative, and every class element passes the
centrality test before it is used, so the memo holds one entry per
unordered pair: the product is formed once, its factors in the order in
which the table lists the pair, and the swapped request reads the same
entry. Only `verify_structure_constants` forms the swapped product as well,
since it checks that the two agree.
"""

from __future__ import annotations

import os
import tempfile
from itertools import combinations_with_replacement
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from . import coxeter, hecke
from .coxeter import _DENSE_MAX_RANK, Partition, check_partition, fits_rank, partition_key
from .errors import (
    BasisIncompleteError, ConstructionError, InvalidInputError,
    InvariantViolationError, SingularSystemError,
)
from .hecke import HeckeElt, _kept, group_mul, is_central, m_sym, mul
from .polyring import IntPoly, divexact, solve_linear

__all__ = [
    "CentralCoords", "GammaBasis", "StructTable", "CheckReport",
    "gamma_element", "gamma_basis", "set_cache_dir", "expand_in_gamma",
    "structure_constants", "m_sym_in_gamma", "class_sum_oracle",
    "build_struct_table", "verify_structure_constants",
    "verify_gamma_characterization", "verify_zero_specialization",
    "verify_elementary_sums", "check_entry_clauses",
]

_ONE = IntPoly.const(1)


class CentralCoords:
    """
    A central element written in the class-element basis; zero coordinates
    are never stored. Immutable, since memoized values are shared with every
    caller: `coords` is a read-only view of a private copy.
    """

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: Mapping[Partition, IntPoly]):
        for lam in coords:
            if not fits_rank(lam, n):
                raise InvalidInputError(
                    f"class {lam} vanishes in S_{n} and may not carry a coordinate"
                )
        clean = {lam: c for lam, c in coords.items() if _kept(c, lam)}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("CentralCoords is immutable")

    def __delattr__(self, name):
        raise AttributeError("CentralCoords is immutable")

    def __reduce__(self):
        return (CentralCoords, (self.n, dict(self.coords)))

    def __repr__(self) -> str:
        return f"CentralCoords(n={self.n}, coords={dict(self.coords)!r})"

    def get(self, lam: Partition) -> IntPoly:
        return self.coords.get(lam, IntPoly())

    def items_canonical(self) -> list[tuple[Partition, IntPoly]]:
        """Entries sorted by size ascending, reverse-lex within a size."""
        return sorted(self.coords.items(), key=lambda kv: partition_key(kv[0]))

    def specialize_zero(self) -> dict[Partition, int]:
        out = {}
        for lam, c in self.coords.items():
            v = c.constant_term()
            if v:
                out[lam] = v
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, CentralCoords):
            return self.n == other.n and self.coords == other.coords
        return NotImplemented


class GammaBasis(NamedTuple):
    """Class elements gamma_lam(n) for all valid lam with |lam| <= up_to."""

    n: int
    up_to: int
    gamma: dict[Partition, HeckeElt]

    def valid_partitions(self) -> list[Partition]:
        return [p for p in _candidate_classes(self.up_to, self.n) if p in self.gamma]


class StructTable(NamedTuple):
    """All products gamma_lam * gamma_mu with |lam| + |mu| <= max_size."""

    n: int
    max_size: int
    entries: list[tuple[Partition, Partition, CentralCoords]]


class CheckReport:
    """Outcome of one verification suite."""

    __slots__ = ("name", "checks", "witnesses")

    def __init__(self, name: str, checks: int = 0, witnesses: Optional[list[str]] = None):
        self.name, self.checks = name, checks
        self.witnesses = [] if witnesses is None else witnesses

    @property
    def ok(self) -> bool:
        return not self.witnesses


# the one store of class elements: the largest verified basis of each rank
_bases: dict[int, GammaBasis] = {}
# the elementary products e_rho(L) of each rank up to `_DENSE_MAX_RANK`
_e_products: dict[int, dict[Partition, HeckeElt]] = {}
# the solve of each size level of each rank, by `_level_solve`
_level_solves: dict[int, dict[int, tuple]] = {}
_disk_cache_dir: Optional[Path] = None


def set_cache_dir(path) -> None:
    """Point the disk cache of certified levels at `path` (None disables it)."""
    global _disk_cache_dir
    _disk_cache_dir = Path(path) if path is not None else None


def clear_caches() -> None:
    """Drop the in-process memos (used when testing the disk cache)."""
    _bases.clear()
    _struct_memo.clear()
    _e_products.clear()
    _level_solves.clear()


def _check_rank(n: int) -> None:
    if n < 1:
        raise InvalidInputError(f"rank must be positive, got {n}")


def _candidate_classes(size: int, n: int) -> list[Partition]:
    # no class of size n or more fits rank n, so larger sizes add nothing
    return [p for p in coxeter.partitions_up_to(min(size, n - 1)) if fits_rank(p, n)]


def _e_product(rho: Partition, n: int) -> HeckeElt:
    """
    The elementary product e_rho(L) = e_rho_1(L) ... e_rho_l(L) in H_n,
    n <= `_DENSE_MAX_RANK`, memoized per rank: the unit for rho = (), zero
    when rho_1 >= n (L_1 = 0 leaves n - 1 variables), e_r by `hecke.e_sym`
    marked by `is_central`, and for two parts or more the product, on the
    trace pairing, of e_rho_1 and e_rest (rho less rho_1), the lighter on
    the left, which the pairing steps once per class: e_rest when |rho| -
    rho_1 < rho_1. Both are central, so either order is exact.
    """
    memo = _e_products.setdefault(n, {})
    e = memo.get(rho)
    if e is None:
        if not rho:
            e = hecke.unit(n)
        elif rho[0] >= n:
            e = hecke.zero(n)
        elif len(rho) == 1:
            e = hecke.e_sym(rho[0], n)
            if not is_central(e):
                raise ConstructionError(f"e_{rho[0]}(n={n}) is not central")
        else:
            first, rest = _e_product(rho[:1], n), _e_product(rho[1:], n)
            e = mul(rest, first) if sum(rho) - rho[0] < rho[0] else mul(first, rest)
        memo[rho] = e
    return e


def _level_solve(size: int, n: int) -> tuple:
    """
    The family of every gamma_lam(n), |lam| = size (see the module
    docstring), its rows at the reps of all classes, and each lam's
    numerators y with the shared d: one elimination solves them all, as
    they differ only in lam's unit column. Memoized per rank.
    """
    memo = _level_solves.setdefault(n, {})
    if size not in memo:
        dense = n <= _DENSE_MAX_RANK
        family = [_e_product(rho, n) if dense else m_sym(rho, n)
                  for rho in coxeter.partitions_up_to(size)]
        rows, classes = _at_reps(n, family), _candidate_classes(size, n)
        lams = [lam for lam in classes if sum(lam) == size]
        ys, d = solve_linear([rows[nu] for nu in classes],
                             [[_ONE if nu == lam else IntPoly() for nu in classes] for lam in lams])
        memo[size] = (family, rows, dict(zip(lams, ys)), d)
    return memo[size]


def _solve_gamma(lam: Partition, n: int) -> HeckeElt:
    """
    gamma_lam(n): lam's solve from `_level_solve` is certified at every rank,
    then the element is swept up to `_DENSE_MAX_RANK`, assembled above it.
    """
    size = sum(lam)
    dense = n <= _DENSE_MAX_RANK
    try:
        family, rows, ys, d = _level_solve(size, n)
    except SingularSystemError as exc:
        raise ConstructionError(
            f"characterization system for gamma_{lam}(n={n}) is unsolvable: {exc}"
        ) from exc
    # below size 2 the two families are the same elements, 1 and e_1 = m_1
    _certify(lam, n, rows, ys[lam], d, "e_rho" if dense and size > 1 else "m_mu")
    if dense:
        return hecke._class_element(lam, n)
    # the certificate makes each division exact: see the module docstring
    num = hecke.linear_combination(n, list(zip(ys[lam], family)))
    if d == _ONE:
        return num
    terms = {}
    quotients: dict[tuple, IntPoly] = {}  # each distinct coefficient divided once
    for k, c in num._by_index().items():
        q = quotients.get(c.coeffs)
        if q is None:
            q = quotients[c.coeffs] = divexact(c, d)
        terms[k] = q
    return HeckeElt._raw(n, terms)


def _certify(lam: Partition, n: int, rows: dict[Partition, list[IntPoly]],
             y: list[IntPoly], d: IntPoly, family: str) -> None:
    """
    Check that sum y h, the solve's numerators over the family of
    `_solve_gamma` read in `rows` (named by `family` in the message), is
    d gamma_lam(n) at the sweep plan's rep of every class of S_n: d at the
    rep of lam's class and 0 at every other. Both sides are central, and a
    central element is fixed by its values at these reps, so this proves
    d gamma_lam in the Z[x]-span of the family, which is the span of the
    m_mu(L), |mu| <= |lam|. Up to `_DENSE_MAX_RANK` the proof rests on
    `hecke.e_sym` for the e_r(L), on `is_central` for their marks, and on
    the trace pairing for the values of their products at the reps; above
    it, on `m_sym` alone.
    """
    for c, (nu, row) in enumerate(rows.items()):
        got = sum((a * v for a, v in zip(y, row) if a), IntPoly())
        want = d if nu == lam else IntPoly()
        if got != want:
            w = coxeter._index_perm(coxeter._sweep(n).reps[c], n)
            raise ConstructionError(
                f"gamma_{lam}(n={n}) fails its certificate at class {nu}: the solve's "
                f"combination of {family} has {got} at {w}, expected {want}"
            )


def _at_reps(n: int, elements: list[HeckeElt]) -> dict[Partition, list[IntPoly]]:
    """
    The values of `elements` at the sweep plan's rep of each class nu of
    S_n: one row per class, keyed by nu in the plan's order.
    """
    columns = [h._at_reps() for h in elements]
    return {nu: [col[c] for col in columns] for c, nu in enumerate(coxeter._sweep(n).classes)}


def _element_witnesses(lam: Partition, n: int, elt: HeckeElt, up_to: int) -> tuple[list[str], int]:
    """
    The characterization of gamma_lam(n) through size up_to: centrality, the
    x=0 class sum, parity, and the pattern on every class of size at most
    up_to. The class sum is checked on the element's terms by index, whose
    constant terms must be 1 on the indices of lam's class
    (`coxeter._class_indices`) and 0 elsewhere.
    """
    witnesses = []
    if not is_central(elt):
        witnesses.append(f"gamma_{lam}(n={n}) is not central")
    at_zero = {k: v for k, c in elt._by_index().items() if (v := c.constant_term())}
    if at_zero.keys() != coxeter._class_indices(lam, n) or any(v != 1 for v in at_zero.values()):
        witnesses.append(f"gamma_{lam}(n={n}) does not specialize to the class sum at x=0")
    if elt and elt.homogeneous_parity() != sum(lam) % 2:
        witnesses.append(f"gamma_{lam}(n={n}) is not homogeneous of parity |lam| mod 2")
    pattern, checks = _pattern_witnesses(lam, n, elt, -1, up_to)
    return witnesses + pattern, 3 + checks


def _pattern_witnesses(
    lam: Partition, n: int, elt: HeckeElt, above: int, up_to: int
) -> tuple[list[str], int]:
    """
    The minimal-element pattern on classes nu with above < |nu| <= up_to:
    coefficient 1 on the minimal elements of lam's class, 0 on the others,
    read from the element's terms at their indices
    (`coxeter._minimal_indices`); a witness decodes its element.
    """
    witnesses = []
    checks = 0
    terms, zero = elt._by_index(), IntPoly()
    for nu in _candidate_classes(up_to, n):
        if sum(nu) <= above:
            continue
        want = _ONE if nu == lam else zero
        for k in coxeter._minimal_indices(nu, n):
            checks += 1
            c = terms.get(k, zero)
            if c != want:
                witnesses.append(
                    f"gamma_{lam}(n={n}) has coefficient {c} on the minimal element "
                    f"{coxeter._index_perm(k, n)} of class {nu} (expected {want})"
                )
    return witnesses, checks


def gamma_element(lam: Partition, n: int) -> HeckeElt:
    """
    The class element gamma_lam(n), built and verified through size |lam|
    on every call; the zero element when the class vanishes in S_n. At
    every rank the solve in the e_rho (the m_mu above `_DENSE_MAX_RANK`) is
    certified first; then the element is swept from its values at the
    classes' reps up to `_DENSE_MAX_RANK` and assembled from the solve
    above it (see the module docstring).
    `gamma_basis` keeps the elements it builds.
    """
    lam = check_partition(lam)
    _check_rank(n)
    if not fits_rank(lam, n):
        return hecke.zero(n)
    elt = _solve_gamma(lam, n)
    witnesses, _ = _element_witnesses(lam, n, elt, sum(lam))
    if witnesses:
        raise ConstructionError("; ".join(witnesses))
    return elt


def _record(n: int, level: int) -> str:
    """
    The cache file of rank n, less its final newline: the one fact that
    its class elements were certified through size `level`, as one line of
    JSON.
    """
    return f'{{"format": 2, "n": {n}, "up_to": {level}}}'


def _load_level(path: Path, n: int) -> int:
    """
    The level L >= 0 if `path` holds `_record(n, L)`, final newline
    optional; otherwise -1, the level of the empty basis. L is read after
    the record's last space, and the whole text must match its record.
    """
    try:
        text = path.read_text().removesuffix("\n")
        level = int(text.rpartition(" ")[2].removesuffix("}"))
    except (OSError, ValueError):
        return -1
    return level if level >= 0 and text == _record(n, level) else -1


def _save_level(path: Path, n: int, level: int) -> None:
    """Write the record of rank n at `level` through a temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(_record(n, level) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _grow_basis(basis: Optional[GammaBasis], n: int, up_to: int, certified: int) -> GammaBasis:
    """
    `basis` (None for the empty one) grown through size up_to. The elements
    it holds are checked only on the new classes. Of the classes it lacks,
    those of size at most `certified`, the level the disk cache records,
    are swept again and get the full check through up_to but not the
    certificate; the others are built by `gamma_element`.
    """
    gamma = dict(basis.gamma) if basis is not None else {}
    above = basis.up_to if basis is not None else -1
    for lam in _candidate_classes(up_to, n):
        elt = gamma.get(lam)
        if elt is not None:
            witnesses, _ = _pattern_witnesses(lam, n, elt, above, up_to)
        elif sum(lam) <= certified:
            # a failure is not retried: sweeping again gives the same element
            elt = hecke._class_element(lam, n)
            witnesses, _ = _element_witnesses(lam, n, elt, up_to)
        else:
            elt = gamma_element(lam, n)
            witnesses, _ = _pattern_witnesses(lam, n, elt, sum(lam), up_to)
        if witnesses:
            raise ConstructionError("; ".join(witnesses))
        gamma[lam] = elt
    return GammaBasis(n=n, up_to=up_to, gamma=gamma)


def gamma_basis(n: int, up_to: int) -> GammaBasis:
    """
    Materialize the class elements for all valid lam with |lam| <= up_to,
    asserting the full characterization for each. Below the level stored
    for rank n this restricts that basis; above it, the basis grows. Up to
    `_DENSE_MAX_RANK`, a process with no basis of rank n yet sweeps the
    classes the disk cache records as certified and certifies only the
    others; above it, where there is no sweep, the disk cache is not used.
    """
    _check_rank(n)
    if up_to < 0:
        raise InvalidInputError(f"up_to must be nonnegative, got {up_to}")
    path = None
    if _disk_cache_dir is not None and n <= _DENSE_MAX_RANK:
        path = _disk_cache_dir / f"gamma_n{n}_basis.json"
    basis = _bases.get(n)
    certified = _load_level(path, n) if basis is None and path is not None else -1
    grow = basis is None or basis.up_to < up_to
    if grow:
        basis = _grow_basis(basis, n, max(up_to, certified), certified)
    if path is not None and (grow and basis.up_to != certified or not path.exists()):
        _save_level(path, n, basis.up_to)
    _bases[n] = basis
    # a restriction in a fresh dict, so callers cannot alter the memo
    gamma = {lam: elt for lam, elt in basis.gamma.items() if sum(lam) <= up_to}
    return GammaBasis(n=n, up_to=up_to, gamma=gamma)


def expand_in_gamma(h: HeckeElt, basis: GammaBasis, up_to: Optional[int] = None) -> CentralCoords:
    """
    Expand a central element in the class-element basis through size up_to
    (basis.up_to if None) by reading its values c_nu at the p(n) reps of
    `coxeter._sweep`, then verifying that the residual h - sum_nu c_nu
    gamma_nu is zero. If h and every gamma_nu, all read there once by
    `_at_reps`, are marked central, so is the residual, and at any rank its
    values there decide it: they vanish exactly when h is 0 at every class
    above up_to, so the classes above basis.up_to need not be built.
    Otherwise, or if h is not 0 there, the whole residual is formed on
    `gamma_basis(n, up_to)`: its vanishing shows h central too, and the
    centrality test only tells a non-central h from an incomplete basis.

    >>> coords = expand_in_gamma(hecke.e_sym(1, 4), gamma_basis(4, 1))
    >>> {nu: str(c) for nu, c in coords.coords.items()}
    {(1,): '1'}
    >>> g = gamma_basis(4, 1).gamma[(1,)]
    >>> str(expand_in_gamma(mul(g, g), gamma_basis(4, 1), 2).coords[(2,)])
    '3 + x^2'
    """
    if h.n != basis.n:
        raise InvalidInputError(f"rank mismatch: element in S_{h.n}, basis for S_{basis.n}")
    if up_to is not None:
        if up_to > basis.up_to and h._central and all(g._central for g in basis.gamma.values()):
            values = dict(zip(coxeter._sweep(h.n).classes, h._at_reps()))
            if not any(v for nu, v in values.items() if sum(nu) > up_to):
                return CentralCoords(h.n, {nu: values[nu] for nu in _candidate_classes(up_to, h.n)})
        basis = gamma_basis(h.n, up_to)
    partitions = basis.valid_partitions()
    elements = [h] + [basis.gamma[nu] for nu in partitions]
    rows = _at_reps(h.n, elements)
    weights = [_ONE] + [-rows[nu][0] for nu in partitions]
    coords = {nu: rows[nu][0] for nu in partitions if rows[nu][0]}
    if all(g._central for g in elements) and not any(
            sum((a * v for a, v in zip(weights, row) if a), IntPoly()) for row in rows.values()):
        return CentralCoords(n=basis.n, coords=coords)
    combination = [(_ONE, h)] + [(-c, basis.gamma[nu]) for nu, c in coords.items()]
    residual = hecke.linear_combination(h.n, combination)
    if residual:
        if not is_central(h):
            raise InvalidInputError("expand_in_gamma requires a central element")
        raise BasisIncompleteError(
            f"element is not in the span of the basis through size {basis.up_to} "
            f"(residual has {len(residual)} terms)"
        )
    return CentralCoords(n=basis.n, coords=coords)


def _ordered_pair(lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
    """The unordered pair {lam, mu} in the order of `partition_key`, as `_pairs_up_to` lists it."""
    return (lam, mu) if partition_key(lam) <= partition_key(mu) else (mu, lam)


def _product_coords(lam: Partition, mu: Partition, n: int) -> CentralCoords:
    """gamma_lam(n) gamma_mu(n) in this order, expanded on its factors' basis; not memoized."""
    basis = gamma_basis(n, max(sum(lam), sum(mu)))
    return expand_in_gamma(mul(basis.gamma[lam], basis.gamma[mu]), basis, sum(lam) + sum(mu))


def structure_constants(lam: Partition, mu: Partition, n: int) -> CentralCoords:
    """
    Coordinates of gamma_lam(n) * gamma_mu(n) in the class-element basis.
    Empty when either factor vanishes in S_n. The center is commutative,
    so the product is formed once per unordered pair and rank, in the
    order of `_ordered_pair`, and (mu, lam) returns the entry of (lam, mu).
    """
    lam, mu = check_partition(lam), check_partition(mu)
    _check_rank(n)
    if not fits_rank(lam, n) or not fits_rank(mu, n):
        return CentralCoords(n=n, coords={})
    key = (*_ordered_pair(lam, mu), n)
    cached = _struct_memo.get(key)
    if cached is None:
        cached = _struct_memo[key] = _product_coords(*key)
    return cached


# one entry per unordered pair and rank, keyed by (*_ordered_pair(lam, mu), n)
_struct_memo: dict[tuple[Partition, Partition, int], CentralCoords] = {}


def m_sym_in_gamma(lam: Partition, n: int) -> CentralCoords:
    """
    Coordinates of the monomial symmetric element m_lam(n) in the
    class-element basis; supported on sizes at most |lam|.
    """
    lam = check_partition(lam)
    basis = gamma_basis(n, sum(lam))
    return expand_in_gamma(m_sym(lam, n), basis)


def class_sum_oracle(lam: Partition, mu: Partition, n: int) -> dict[Partition, int]:
    """
    Multiply the literal class sums in Z S_n by plain convolution
    (`hecke.group_mul`, on byte-coded one-line words) and read off
    class-indicator coefficients, classifying each distinct element of the
    product once by `modified_cycle_type`. Entirely independent of the
    Hecke code path: it reads no index table, sweep plan or permutation
    codec of `coxeter`. This is the x = 0 oracle.
    """
    _check_rank(n)
    a = {w: 1 for w in coxeter.conjugacy_class(lam, n)}
    b = {w: 1 for w in coxeter.conjugacy_class(mu, n)}
    product = group_mul(a, b)
    out: dict[Partition, int] = {}
    counts: dict[Partition, int] = {}
    for w, c in product.items():
        nu = coxeter.modified_cycle_type(w)
        prev = out.get(nu)
        if prev is None:
            out[nu] = c
        elif prev != c:
            raise InvariantViolationError(
                f"class sum product not constant on class {nu} in S_{n}"
            )
        counts[nu] = counts.get(nu, 0) + 1
    # a class either appears in full or not at all
    for nu, seen in counts.items():
        if seen != len(coxeter.conjugacy_class(nu, n)):
            raise InvariantViolationError(
                f"class sum product covers class {nu} only partially in S_{n}"
            )
    return out


def _pairs_up_to(n: int, max_size: int) -> list[tuple[Partition, Partition]]:
    """The pairs of `_ordered_pair` with |lam| + |mu| <= max_size, by that sum."""
    _check_rank(n)
    if max_size < 0:
        raise InvalidInputError(f"max_size must be nonnegative, got {max_size}")
    pairs = combinations_with_replacement(_candidate_classes(max_size, n), 2)
    return sorted(
        ((lam, mu) for lam, mu in pairs if sum(lam) + sum(mu) <= max_size),
        key=lambda pair: (sum(pair[0]) + sum(pair[1]), *map(partition_key, pair)),
    )


def check_entry_clauses(
    lam: Partition, mu: Partition, coords: CentralCoords
) -> list[str]:
    """
    Positivity and parity clauses for one product row: every coordinate must
    be a polynomial with nonnegative integer coefficients whose parity in x
    matches |lam| + |mu| - |nu| mod 2.
    """
    witnesses = []
    total = sum(lam) + sum(mu)
    for nu, c in coords.coords.items():
        if not c.is_nonnegative():
            witnesses.append(
                f"k[{lam},{mu}->{nu}](n={coords.n}) = {c} has a negative coefficient"
            )
        want = "even" if (total - sum(nu)) % 2 == 0 else "odd"
        if c and c.parity() != want:
            witnesses.append(
                f"k[{lam},{mu}->{nu}](n={coords.n}) = {c} should be {want} in x"
            )
    return witnesses


def _support_witness(lam: Partition, mu: Partition, n: int, exc: BasisIncompleteError) -> str:
    return f"support of gamma_{lam} gamma_{mu} exceeds size {sum(lam) + sum(mu)} at n={n}: {exc}"


def verify_structure_constants(n: int, max_size: int) -> CheckReport:
    """
    Check, for every product with |lam| + |mu| <= max_size in S_n:
    positivity, parity, the support bound |nu| <= |lam| + |mu| (the
    expansion's residual is zero, read exactly at the p(n) class reps; see
    `expand_in_gamma`), and commutativity of the product. The memo of `structure_constants` holds
    one entry per unordered pair, so for lam != mu the swapped product
    gamma_mu gamma_lam is formed and expanded here, outside the memo. Both
    orders expand exactly, so equal coordinates mean equal products. The
    swapped product is a different evaluation, not a relabeling of the
    first: `hecke.mul` pairs the steps of its left factor with its right
    one, so gamma_lam gamma_mu steps gamma_lam and gamma_mu gamma_lam
    steps gamma_mu.
    """
    report = CheckReport(name=f"structure-constants n={n} max_size={max_size}")
    for lam, mu in _pairs_up_to(n, max_size):
        report.checks += 1
        try:
            coords = structure_constants(lam, mu, n)
            swapped = coords if lam == mu else _product_coords(mu, lam, n)
        except BasisIncompleteError as exc:
            report.witnesses.append(_support_witness(lam, mu, n, exc))
            continue
        if swapped != coords:
            report.witnesses.append(
                f"gamma_{lam} gamma_{mu} != gamma_{mu} gamma_{lam} at n={n}"
            )
        report.checks += 1 + len(coords.coords)
        report.witnesses.extend(check_entry_clauses(lam, mu, coords))
    return report


def verify_gamma_characterization(n: int, up_to: int) -> CheckReport:
    """Re-run the full characterization of every materialized class element."""
    report = CheckReport(name=f"characterization n={n} up_to={up_to}")
    basis = gamma_basis(n, up_to)
    for lam in basis.valid_partitions():
        witnesses, checks = _element_witnesses(lam, n, basis.gamma[lam], up_to)
        report.checks += checks
        report.witnesses.extend(witnesses)
    return report


def verify_zero_specialization(n: int, max_size: int) -> CheckReport:
    """
    Structure constants at x = 0 must match the group algebra oracle. A
    product outside the basis is a witness, as in
    `verify_structure_constants`.
    """
    report = CheckReport(name=f"zero-specialization-oracle n={n} max_size={max_size}")
    for lam, mu in _pairs_up_to(n, max_size):
        report.checks += 1
        try:
            got = structure_constants(lam, mu, n).specialize_zero()
        except BasisIncompleteError as exc:
            report.witnesses.append(_support_witness(lam, mu, n, exc))
            continue
        want = class_sum_oracle(lam, mu, n)
        if got != want:
            report.witnesses.append(
                f"x=0 mismatch for ({lam}, {mu}) at n={n}: hecke {got} vs group {want}"
            )
    return report


def verify_elementary_sums(n: int, r_max: int) -> CheckReport:
    """e_r(L_1..L_n) must equal the sum of gamma_lam(n) over |lam| = r."""
    if r_max >= n:
        raise InvalidInputError(f"r_max must be below n, got r_max={r_max}, n={n}")
    report = CheckReport(name=f"elementary-sums n={n} r_max={r_max}")
    basis = gamma_basis(n, r_max)
    for r in range(1, r_max + 1):
        report.checks += 1
        lhs = hecke.e_sym(r, n)
        size_r = [lam for lam in coxeter.partitions_of(r) if fits_rank(lam, n)]
        rhs = hecke.linear_combination(n, [(_ONE, basis.gamma[lam]) for lam in size_r])
        if lhs != rhs:
            report.witnesses.append(
                f"e_{r} differs from the sum of size-{r} class elements at n={n}"
            )
    return report


def _pair_worker(args: tuple[Partition, Partition, int]) -> CentralCoords:
    return structure_constants(*args)


def _worker_init(basis: GammaBasis) -> None:
    # under spawn and forkserver the basis arrives pickled, which drops the
    # centrality mark that lets `hecke.mul` multiply class elements by the
    # trace pairing: check again. Under fork it is the parent's own, marked
    for elt in basis.gamma.values():
        if not elt._central:
            is_central(elt)
    _bases[basis.n] = basis


def build_struct_table(n: int, max_size: int, jobs: int = 1) -> StructTable:
    """
    All products with |lam| + |mu| <= max_size (unordered pairs of nonempty
    valid partitions). Neither factor exceeds max_size - 1, so only the
    basis through that size is built. With jobs > 1 the pairs are computed
    in a process pool seeded with the parent's basis; results are merged in
    canonical order so output is identical regardless of parallelism.
    """
    pairs = [(lam, mu) for lam, mu in _pairs_up_to(n, max_size) if lam and mu]
    basis = gamma_basis(n, max(max_size - 1, 0))
    if jobs > 1 and len(pairs) > 1:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pairs)), initializer=_worker_init,
            initargs=(basis,),
        ) as pool:
            coords = list(pool.map(_pair_worker, [(lam, mu, n) for lam, mu in pairs]))
    else:
        coords = [structure_constants(lam, mu, n) for lam, mu in pairs]
    entries = [(lam, mu, c) for (lam, mu), c in zip(pairs, coords)]
    return StructTable(n=n, max_size=max_size, entries=entries)
