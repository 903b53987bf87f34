"""The Geck-Rouquier basis and structure constants.

Golden product tables live in goldens.py together with the provenance note
for the one corrected line.
"""

import json
import multiprocessing
import pickle
import re
import subprocess
import sys

import pytest

from grhecke import center, coxeter, hecke
from grhecke.center import (
    CentralCoords, check_entry_clauses, class_sum_oracle, expand_in_gamma,
    gamma_basis, gamma_element, m_sym_in_gamma, structure_constants,
    verify_elementary_sums, verify_gamma_characterization,
    verify_structure_constants, verify_zero_specialization,
)
from grhecke.coxeter import fits_rank, min_rep, partitions_up_to
from grhecke.errors import (
    BasisIncompleteError, ConstructionError, InvalidInputError, InvariantViolationError,
)
from grhecke.hecke import HeckeElt, e_sym, is_central, m_sym, mul, t_basis, unit
from grhecke.polyring import IntPoly

ONE = IntPoly.const(1)
XI = IntPoly.xi()


def coords_dict(coords):
    return {nu: c.coeffs for nu, c in coords.coords.items()}


def gamma_by_central_constraints(lam, n):
    """
    Independent reconstruction that never touches the Hecke element code:
    unknowns are the T-coefficients of the element over all of S_n, the
    equations say it commutes with every generator (written directly from
    the one-line word combinatorics), and the canonical minimal
    representatives carry the identity pattern. The solution is unique, so
    agreement with the engine is a real cross-check.
    """
    from itertools import permutations

    from grhecke.polyring import divexact, solve_linear

    perms = [tuple(p) for p in permutations(range(1, n + 1))]
    index = {w: k for k, w in enumerate(perms)}
    xi = IntPoly.xi()
    rows, rhs = [], []
    for i in range(1, n):
        for u in perms:
            row = [IntPoly() for _ in perms]
            us = coxeter.right_gen(u, i)
            su = coxeter.left_gen(u, i)
            row[index[us]] = row[index[us]] + ONE
            row[index[su]] = row[index[su]] - ONE
            drop_right = coxeter.length(us) < coxeter.length(u)
            drop_left = coxeter.length(su) < coxeter.length(u)
            if drop_right != drop_left:
                bump = xi if drop_right else -xi
                row[index[u]] = row[index[u]] + bump
            rows.append(row)
            rhs.append(IntPoly())
    for nu in partitions_up_to(n):
        if not fits_rank(nu, n):
            continue
        row = [IntPoly() for _ in perms]
        row[index[min_rep(nu, n)]] = ONE
        rows.append(row)
        rhs.append(ONE if nu == lam else IntPoly())
    (y,), d = solve_linear(rows, [rhs])
    return HeckeElt(n, {w: divexact(y[k], d) for k, w in enumerate(perms)})


from conftest import child_env, run_cli, unpickle_call
from goldens import GOLDEN


def must_not_run(*args):
    raise AssertionError("the basis must come from memory or disk")


class TestGammaElements:
    def test_empty_partition_is_unit(self):
        assert gamma_element((), 4) == unit(4)

    def test_transposition_class_n3(self):
        got = gamma_element((1,), 3)
        want = t_basis((2, 1, 3)) + t_basis((1, 3, 2)) + t_basis((3, 2, 1))
        assert got == want

    def test_three_cycle_class_n3(self):
        got = gamma_element((2,), 3)
        want = (t_basis((2, 3, 1)) + t_basis((3, 1, 2))
                + t_basis((3, 2, 1)).scale(XI))
        assert got == want
        assert is_central(got)
        # the x-term sits on a non-minimal element of the transposition class
        assert coxeter.length((3, 2, 1)) > min(
            coxeter.length(w) for w in coxeter.conjugacy_class((1,), 3)
        )

    def test_vanishing_class_gives_zero(self):
        assert gamma_element((2, 1, 1), 3) == hecke.zero(3)

    def test_transposition_class_is_m1(self):
        for n in (3, 4, 5):
            assert gamma_element((1,), n) == m_sym((1,), n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_independent_central_solve(self, n):
        for lam in partitions_up_to(3):
            if fits_rank(lam, n):
                got = gamma_by_central_constraints(lam, n)
                assert gamma_element(lam, n) == got, (lam, n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_z2_homogeneous(self, n):
        for lam in partitions_up_to(3):
            if fits_rank(lam, n):
                assert gamma_element(lam, n).homogeneous_parity() == sum(lam) % 2

    def test_transpose_invariance(self):
        # classes are closed under inversion, so the elements are symmetric
        for lam in partitions_up_to(3):
            if fits_rank(lam, 4):
                g = gamma_element(lam, 4)
                assert g.transpose() == g


class TestGammaBasis:
    def test_dual_basis_law(self):
        basis = gamma_basis(4, 3)
        for lam in basis.valid_partitions():
            for nu in basis.valid_partitions():
                want = ONE if nu == lam else IntPoly()
                for w in coxeter.minimal_length_elements(nu, 4):
                    assert basis.gamma[lam].coeff(w) == want

    def test_specializes_to_class_sums(self):
        basis = gamma_basis(4, 3)
        for lam in basis.valid_partitions():
            want = {w: 1 for w in coxeter.conjugacy_class(lam, 4)}
            assert basis.gamma[lam].specialize_group() == want

    def test_characterization_report(self):
        report = verify_gamma_characterization(5, 3)
        assert report.ok and report.checks > 0

    def test_larger_class_pattern_checked_by_basis(self, monkeypatch):
        # gamma_(1) + x gamma_(2) is central, is the class sum at x = 0 and
        # has parity 1, so only the pattern on the size-2 classes, which
        # gamma_basis checks, tells it apart from gamma_(1)
        bogus = gamma_element((1,), 4) + gamma_element((2,), 4).scale(XI)
        center.clear_caches()
        solve = center._solve_gamma
        monkeypatch.setattr(center, "_solve_gamma",
                            lambda lam, n: bogus if lam == (1,) else solve(lam, n))
        try:
            assert gamma_element((1,), 4) == bogus
            with pytest.raises(ConstructionError):
                gamma_basis(4, 2)
        finally:
            center.clear_caches()


class TestBasisPerRank:
    def test_restriction_builds_and_loads_nothing(self, monkeypatch):
        want = {lam: elt for lam, elt in gamma_basis(4, 3).gamma.items() if sum(lam) <= 2}
        monkeypatch.setattr(center, "gamma_element", must_not_run)
        monkeypatch.setattr(center, "_load_level", must_not_run)
        basis = gamma_basis(4, 2)
        assert (basis.n, basis.up_to) == (4, 2)
        assert basis.gamma == want

    def test_restriction_is_a_fresh_dict(self):
        center.clear_caches()  # so that level 3 is the stored level
        try:
            want = dict(gamma_basis(4, 3).gamma)
            for up_to in (2, 3):
                basis = gamma_basis(4, up_to)
                basis.gamma.clear()
                basis.gamma[(1,)] = unit(4)
            assert gamma_basis(4, 3).gamma == want
            assert gamma_basis(4, 2).gamma == {
                k: v for k, v in want.items() if sum(k) <= 2}
        finally:
            center.clear_caches()

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_growth_solves_only_new_classes(self, request, monkeypatch, loaded):
        want = gamma_basis(4, 3).gamma
        center.clear_caches()
        if loaded:
            request.getfixturevalue("disk_cache")
        gamma_basis(4, 2)
        if loaded:
            center.clear_caches()  # so that level 2 is read from the file
        solved = []
        solve = center._solve_gamma
        monkeypatch.setattr(center, "_solve_gamma",
                            lambda lam, n: solved.append(lam) or solve(lam, n))
        assert gamma_basis(4, 3).gamma == want
        assert solved == [(3,)]

    def test_worker_init_seeds_the_basis(self, monkeypatch):
        want = gamma_basis(4, 3).gamma
        center.clear_caches()
        try:
            center._worker_init(center.GammaBasis(4, 3, dict(want)))
            monkeypatch.setattr(center, "gamma_element", must_not_run)
            assert gamma_basis(4, 3).gamma == want
        finally:
            center.clear_caches()

    def test_worker_init_certifies_the_pickled_basis(self):
        # the pool pickles the basis, which drops the centrality mark
        sent = pickle.loads(pickle.dumps(center.GammaBasis(5, 3, dict(gamma_basis(5, 3).gamma))))
        assert not any(g._central for g in sent.gamma.values())
        center.clear_caches()
        try:
            center._worker_init(sent)
            assert all(g._central for g in gamma_basis(5, 3).gamma.values())
        finally:
            center.clear_caches()


class TestSharedValuesReadOnly:
    def test_structure_constants_coords(self):
        coords = structure_constants((1,), (1,), 4)
        with pytest.raises(AttributeError):
            coords.coords.clear()
        with pytest.raises(TypeError):
            coords.coords[(1,)] = ONE
        with pytest.raises(AttributeError):
            coords.coords = {}
        again = structure_constants((1,), (1,), 4)
        assert coords_dict(again) == GOLDEN[(4, (1,), (1,))]

    def test_m_sym_terms(self):
        with pytest.raises(AttributeError):
            m_sym((1,), 4).terms.clear()
        with pytest.raises(TypeError):
            m_sym((1,), 4).terms[(1, 2, 3, 4)] = ONE
        center.clear_caches()
        try:
            assert gamma_element((1,), 4) == e_sym(1, 4) == sum(
                (t_basis(w) for w in coxeter.conjugacy_class((1,), 4)), hecke.zero(4)
            )
        finally:
            center.clear_caches()


class TestCentralCoords:
    def test_coordinates_follow_the_coefficient_rule(self):
        # a value that is not an IntPoly is refused, and a zero is dropped
        with pytest.raises(InvalidInputError):
            CentralCoords(4, {(1,): 5})
        assert CentralCoords(4, {(1,): IntPoly()}) == CentralCoords(4, {})
        assert dict(CentralCoords(4, {(1,): IntPoly(), (2,): ONE}).coords) == {(2,): ONE}

    def test_a_pickled_result_is_checked(self):
        # pool results pass through the constructor by `__reduce__`
        with pytest.raises(InvalidInputError):
            unpickle_call(CentralCoords, 4, {(1,): 5})
        loaded = unpickle_call(CentralCoords, 4, {(1,): IntPoly()})
        assert loaded == CentralCoords(4, {}) and not loaded.coords


class TestExpand:
    def test_gamma_expands_to_delta(self):
        basis = gamma_basis(4, 2)
        coords = expand_in_gamma(basis.gamma[(2,)], basis)
        assert coords_dict(coords) == {(2,): (1,)}

    def test_unit_expands_to_empty_class(self):
        basis = gamma_basis(4, 2)
        assert coords_dict(expand_in_gamma(unit(4), basis)) == {(): (1,)}

    def test_elementary_sum_is_transposition_class(self):
        basis = gamma_basis(4, 1)
        coords = expand_in_gamma(e_sym(1, 4), basis)
        assert coords_dict(coords) == {(1,): (1,)}

    def test_rejects_noncentral(self):
        basis = gamma_basis(3, 2)
        with pytest.raises(InvalidInputError):
            expand_in_gamma(t_basis((2, 1, 3)), basis)

    def test_incomplete_basis_detected(self):
        basis = gamma_basis(4, 1)
        product = mul(gamma_element((1,), 4), gamma_element((1,), 4))
        with pytest.raises(BasisIncompleteError):
            expand_in_gamma(product, basis)


class TestStructureConstants:
    @pytest.mark.parametrize("key", sorted(GOLDEN), ids=str)
    def test_golden_tables(self, key):
        n, lam, mu = key
        assert coords_dict(structure_constants(lam, mu, n)) == GOLDEN[key]

    def test_unit_factor(self):
        assert coords_dict(structure_constants((), (2,), 4)) == {(2,): (1,)}

    def test_vanishing_factor_gives_empty(self):
        coords = structure_constants((2, 1, 1), (1,), 3)
        assert coords.coords == {}

    def test_symmetric_in_factors(self):
        # the memo holds one entry for both orders, so the swapped product
        # is formed here
        basis = gamma_basis(5, 3)
        swapped = expand_in_gamma(mul(basis.gamma[(2,)], basis.gamma[(1,)]), basis)
        assert coords_dict(structure_constants((1,), (2,), 5)) == coords_dict(swapped)
        assert coords_dict(structure_constants((2,), (1,), 5)) == coords_dict(swapped)

    @pytest.mark.parametrize("lam, mu", [((1,), (2,)), ((2,), (1,)), ((2,), (1, 1))])
    def test_swapped_request_forms_no_product(self, monkeypatch, lam, mu):
        n = 6
        first = structure_constants(lam, mu, n)

        def no_product(h1, h2):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(center, "mul", no_product)
        assert structure_constants(mu, lam, n) is first
        assert structure_constants(lam, mu, n) is first

    @pytest.mark.parametrize("lam, mu, first", [
        ((2,), (1,), (1,)), ((1,), (2,), (1,)), ((1, 1), (2,), (2,)), ((2,), (1, 1), (2,)),
    ])
    def test_product_formed_in_table_order(self, monkeypatch, lam, mu, first):
        # smaller size first, then reverse-lexicographic, as _pairs_up_to lists pairs
        basis = gamma_basis(5, 4)
        second = mu if first == lam else lam
        assert (first, second) in center._pairs_up_to(5, 4)
        factors = []
        monkeypatch.setattr(center, "mul", lambda h1, h2: factors.append((h1, h2)) or mul(h1, h2))
        center._struct_memo.clear()
        structure_constants(lam, mu, 5)
        assert factors == [(basis.gamma[first], basis.gamma[second])]


class TestMSymInGamma:
    def test_empty(self):
        assert coords_dict(m_sym_in_gamma((), 4)) == {(): (1,)}

    def test_single_row_is_class_element(self):
        assert coords_dict(m_sym_in_gamma((1,), 5)) == {(1,): (1,)}

    def test_power_sum_diagonal(self):
        # frozen from an exact hand computation of L_2^2 + L_3^2 in H_3:
        # m_(2) expands with diagonal coefficient 1 + x^2, not 1
        for n in (3, 4, 5):
            assert m_sym_in_gamma((2,), n).get((2,)).coeffs == (1, 0, 1)

    def test_elementary_top_block(self):
        # m over a column (1^r) equals the plain sum of same-size class
        # elements, so its top coefficients are exactly 1
        coords = m_sym_in_gamma((1, 1), 4)
        assert coords_dict(coords) == {(2,): (1,), (1, 1): (1,)}

    def test_support_bounded_by_size(self):
        for lam in partitions_up_to(3):
            coords = m_sym_in_gamma(lam, 5)
            assert all(sum(nu) <= sum(lam) for nu in coords.coords)

    def test_top_block_stable_across_ranks(self):
        # coefficients at |mu| = |lam| are independent of n
        for lam in partitions_up_to(3):
            rows = {}
            for n in (4, 5, 6):
                coords = m_sym_in_gamma(lam, n)
                rows[n] = {mu: c for mu, c in coords.coords.items()
                           if sum(mu) == sum(lam) and fits_rank(mu, 4)}
            assert rows[4] == {k: v for k, v in rows[5].items() if fits_rank(k, 4)}
            assert {k: v for k, v in rows[5].items()} == {
                k: v for k, v in rows[6].items() if fits_rank(k, 5)}


class TestClassSumOracle:
    def test_n3_at_zero(self):
        assert class_sum_oracle((1,), (1,), 3) == {(2,): 3, (): 3}

    def test_n4_at_zero(self):
        assert class_sum_oracle((1,), (1,), 4) == {(2,): 3, (1, 1): 2, (): 6}

    def test_unit_class(self):
        assert class_sum_oracle((), (2,), 4) == {(2,): 1}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_specialized_constants(self, n):
        for lam in partitions_up_to(2):
            for mu in partitions_up_to(2):
                if not (fits_rank(lam, n) and fits_rank(mu, n)):
                    continue
                got = structure_constants(lam, mu, n).specialize_zero()
                assert got == class_sum_oracle(lam, mu, n)


class TestVerificationSuites:
    def test_structure_constants_pass_n3(self):
        assert verify_structure_constants(3, 2).ok

    def test_structure_constants_pass_n5(self):
        assert verify_structure_constants(5, 4).ok

    def test_fault_injection_negated_coords(self):
        coords = structure_constants((1,), (1,), 4)
        negated = CentralCoords(
            n=4, coords={nu: -c for nu, c in coords.coords.items()}
        )
        witnesses = check_entry_clauses((1,), (1,), negated)
        assert witnesses, "negated coordinates must produce a witness"

    def test_fault_injection_wrong_parity(self):
        bad = CentralCoords(n=4, coords={(2,): XI})  # needs even parity
        assert check_entry_clauses((1,), (1,), bad)

    def test_zero_specialization_suite(self):
        assert verify_zero_specialization(4, 3).ok

    def test_elementary_sums(self):
        assert verify_elementary_sums(3, 2).ok
        assert verify_elementary_sums(5, 3).ok

    def test_elementary_sums_requires_r_below_n(self):
        with pytest.raises(InvalidInputError):
            verify_elementary_sums(3, 3)

    def test_e1_identity_every_rank(self):
        for n in (3, 4, 5):
            basis = gamma_basis(n, 1)
            assert e_sym(1, n) == basis.gamma[(1,)]


class TestCenterCommutativity:
    @pytest.mark.parametrize("n", [4, 5])
    def test_products_commute(self, n):
        basis = gamma_basis(n, 2)
        parts = [p for p in basis.valid_partitions() if p]
        for lam in parts:
            for mu in parts:
                assert mul(basis.gamma[lam], basis.gamma[mu]) == mul(
                    basis.gamma[mu], basis.gamma[lam]
                )


def _record(n, up_to):
    """The bytes of the cache file that records rank n certified through up_to."""
    return (json.dumps({"format": 2, "n": n, "up_to": up_to}) + "\n").encode()


def _format_one(n, up_to, gamma):
    """A cache file in the earlier layout, which held every class element."""
    payload = {"format": 1, "n": n, "up_to": up_to, "gamma": [
        {"lambda": list(lam), "elt": elt.to_json_dict()} for lam, elt in gamma.items()]}
    return json.dumps(payload) + "\n"


def _certificates(monkeypatch):
    """The classes whose certificate runs from now on, in order."""
    certified = []
    certify = center._certify
    monkeypatch.setattr(center, "_certify",
                        lambda lam, *args: certified.append(lam) or certify(lam, *args))
    return certified


def _forbid_certification(m):
    for name in ("m_sym", "solve_linear", "_certify"):
        m.setattr(center, name, must_not_run)


def _empty_cache(cache, n):
    """Drop the memos and rank n's file, as in a new process with an empty cache."""
    center.clear_caches()
    (cache / f"gamma_n{n}_basis.json").unlink(missing_ok=True)


class TestDiskCache:
    def test_round_trip(self, disk_cache):
        fresh = gamma_basis(4, 2)
        path = disk_cache / "gamma_n4_basis.json"
        assert path.exists()
        center.clear_caches()
        loaded = gamma_basis(4, 2)
        assert loaded.gamma == fresh.gamma

    @pytest.mark.parametrize("n, up_to", [(1, 0), (5, 3), (6, 4)])
    def test_file_bytes_are_one_json_dump(self, disk_cache, n, up_to):
        # the file is the one record of the level, and nothing else is left
        _empty_cache(disk_cache, n)
        gamma_basis(n, up_to)
        path = disk_cache / f"gamma_n{n}_basis.json"
        assert path.read_bytes() == _record(n, up_to)
        assert [p.name for p in disk_cache.iterdir()] == [path.name]

    def test_loaded_basis_then_larger_basis(self, disk_cache):
        want = gamma_basis(4, 3).gamma
        _empty_cache(disk_cache, 4)
        gamma_basis(4, 2)
        center.clear_caches()
        gamma_basis(4, 2)  # swept from the file's level
        assert gamma_basis(4, 3).gamma == want

    def test_file_below_request_rebuilt_and_rewritten(self, disk_cache):
        want = gamma_basis(4, 3).gamma
        _empty_cache(disk_cache, 4)
        gamma_basis(4, 2)
        path = disk_cache / "gamma_n4_basis.json"
        assert path.read_bytes() == _record(4, 2)
        center.clear_caches()
        assert gamma_basis(4, 3).gamma == want
        assert path.read_bytes() == _record(4, 3)
        assert [p.name for p in disk_cache.iterdir()] == [path.name]

    def test_file_above_request_loaded(self, disk_cache, monkeypatch):
        want = gamma_basis(4, 3).gamma
        _empty_cache(disk_cache, 4)
        gamma_basis(4, 3)
        center.clear_caches()
        path = disk_cache / "gamma_n4_basis.json"
        with monkeypatch.context() as m:
            m.setattr(center, "gamma_element", must_not_run)
            m.setattr(center, "_save_level", must_not_run)
            assert gamma_basis(4, 2).gamma == {
                k: v for k, v in want.items() if sum(k) <= 2}
            assert gamma_basis(4, 3).gamma == want
        assert path.read_bytes() == _record(4, 3)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_warm_basis_equals_cold(self, disk_cache, monkeypatch, n):
        # the classes the file records are swept and checked, never certified
        for up_to in range(5):
            _empty_cache(disk_cache, n)
            cold = gamma_basis(n, up_to).gamma
            center.clear_caches()
            with monkeypatch.context() as m:
                _forbid_certification(m)
                warm = gamma_basis(n, up_to)
            assert (warm.up_to, warm.gamma) == (up_to, cold)
            assert all(g._central for g in warm.gamma.values())

    def test_rank_above_the_sweep_uses_no_cache(self, disk_cache, monkeypatch):
        # no sweep rebuilds what a file records there
        center.clear_caches()
        path = disk_cache / "gamma_n10_basis.json"
        path.write_bytes(_record(10, 1))
        monkeypatch.setattr(center, "_load_level", must_not_run)
        monkeypatch.setattr(center, "_save_level", must_not_run)
        assert gamma_basis(10, 1).gamma[(1,)] == m_sym((1,), 10)
        assert [p.name for p in disk_cache.iterdir()] == [path.name]
        assert path.read_bytes() == _record(10, 1)

    def test_swept_element_failing_its_check_raises(self, disk_cache, monkeypatch):
        # gamma_(1) + x gamma_(2) passes every check through size 1, but the
        # classes a level-2 file records are checked through size 2, even
        # for a smaller request; sweeping again would give the same element
        want = gamma_basis(4, 2).gamma
        bogus = want[(1,)] + want[(2,)].scale(XI)
        _empty_cache(disk_cache, 4)
        gamma_basis(4, 2)
        center.clear_caches()
        sweep = hecke._class_element
        monkeypatch.setattr(hecke, "_class_element",
                            lambda lam, n: bogus if lam == (1,) else sweep(lam, n))
        with pytest.raises(ConstructionError, match=r"gamma_\(1,\)\(n=4\) has coefficient"):
            gamma_basis(4, 1)

    def test_wrong_coefficient_off_canonical_rep_rejected(self):
        # (1, 2, 4, 3) is the canonical minimal transposition; (2, 1, 3, 4)
        # is another minimal element of the same class
        assert min_rep((1,), 4) != (2, 1, 3, 4)
        good = gamma_basis(4, 2).gamma[(1,)]
        bad = HeckeElt(4, {**good.terms, (2, 1, 3, 4): IntPoly.const(2)})
        assert bad.coeff(min_rep((1,), 4)) == ONE
        witnesses, _ = center._element_witnesses((1,), 4, bad, 2)
        assert ("gamma_(1,)(n=4) has coefficient 2 on the minimal element (2, 1, 3, 4) "
                "of class (1,) (expected 1)") in witnesses

    def test_noncentral_coefficient_off_minimal_elements_rejected(self):
        # 2x^2 on a T_w of even length that is not minimal in its class leaves
        # the pattern, the class sum at x = 0 and the parity of gamma_(2) as
        # they were, and breaks only centrality
        good = gamma_basis(4, 2).gamma[(2,)]
        w = next(w for w, _ in good.sorted_terms() if coxeter.length(w) % 2 == 0
                 and w not in coxeter.minimal_length_elements(
                     coxeter.modified_cycle_type(w), 4))
        bad = HeckeElt(4, {**good.terms, w: good.coeff(w) + IntPoly.const(2) * XI * XI})
        assert not center._element_witnesses((2,), 4, good, 3)[0]
        witnesses, _ = center._element_witnesses((2,), 4, bad, 3)
        assert witnesses == ["gamma_(2,)(n=4) is not central"]

    def test_format_one_file_with_a_wrong_element_is_ignored(self, tmp_path):
        # gamma_(1) + x gamma_(2) passes every check through size 1; a file
        # of the earlier layout that holds it must not reach the output
        want = gamma_basis(4, 2).gamma
        bogus = want[(1,)] + want[(2,)].scale(XI)
        path = tmp_path / "gamma_n4_basis.json"
        path.write_text(_format_one(4, 1, {(): want[()], (1,): bogus}))
        center.clear_caches()
        code, plain = run_cli("gamma", "--n", "4", "--lambda", "1")
        assert code == 0
        center.clear_caches()
        code, cached = run_cli("--cache", str(tmp_path), "gamma", "--n", "4", "--lambda", "1")
        center.clear_caches()
        assert code == 0
        assert cached == plain
        assert path.read_bytes() == _record(4, 1)

    @pytest.mark.parametrize("corrupt", [
        lambda data: [],
        lambda data: {**data, "gamma": 5},
        lambda data: {k: v for k, v in data.items() if k != "n"},
        lambda data: {**data, "format": 1},
        lambda data: {**data, "n": 4},
        lambda data: {**data, "up_to": True},
        lambda data: {**data, "up_to": -2},
        lambda data: {**data, "up_to": "1"},
    ], ids=["list", "gamma-int", "missing-key", "format-1", "other-n",
            "up_to-bool", "up_to-negative", "up_to-string"])
    def test_malformed_cache_recomputed(self, disk_cache, monkeypatch, corrupt):
        fresh = gamma_basis(3, 1).gamma
        _empty_cache(disk_cache, 3)
        gamma_basis(3, 1)
        path = disk_cache / "gamma_n3_basis.json"
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        assert center._load_level(path, 3) == -1
        center.clear_caches()
        certified = _certificates(monkeypatch)
        assert gamma_basis(3, 1).gamma == fresh
        assert certified == [(), (1,)]
        assert path.read_bytes() == _record(3, 1)

    @pytest.mark.parametrize("depart", [
        lambda text: text[:text.index(', "up_to"')],
        lambda text: text + "[]",
        lambda text: text.replace(", ", " ", 1),
        lambda text: text.replace(", ", ","),
        lambda text: json.dumps(dict(reversed(json.loads(text).items()))),
        lambda text: text.replace('"up_to": ', '"up_to": ' + "[" * 100_000),
        lambda text: "",
    ], ids=["truncated", "bytes-after-end", "no-separator", "compact-separator",
            "reordered-header-keys", "deeply-nested", "empty"])
    def test_other_layout_recomputed(self, disk_cache, monkeypatch, depart):
        # the reader takes the writer's record alone, even where the text
        # is still one valid JSON document
        fresh = gamma_basis(3, 1).gamma
        _empty_cache(disk_cache, 3)
        gamma_basis(3, 1)
        path = disk_cache / "gamma_n3_basis.json"
        text = path.read_text()
        path.write_text(depart(text))
        assert center._load_level(path, 3) == -1
        center.clear_caches()
        certified = _certificates(monkeypatch)
        assert gamma_basis(3, 1).gamma == fresh
        assert certified == [(), (1,)]
        assert path.read_text() == text

    def test_redumped_file_loads(self, disk_cache, monkeypatch):
        # json.dumps of the parsed file drops only the final newline, which
        # the reader does not need
        fresh = gamma_basis(4, 2).gamma
        _empty_cache(disk_cache, 4)
        gamma_basis(4, 2)
        path = disk_cache / "gamma_n4_basis.json"
        path.write_text(json.dumps(json.loads(path.read_text())))
        center.clear_caches()
        monkeypatch.setattr(center, "gamma_element", must_not_run)
        assert center._load_level(path, 4) == 2
        assert gamma_basis(4, 2).gamma == fresh

    def test_corrupt_cache_recomputed(self, disk_cache):
        center.clear_caches()
        path = disk_cache / "gamma_n3_basis.json"
        path.write_text("{not json")
        basis = gamma_basis(3, 1)
        assert basis.gamma[(1,)] == m_sym((1,), 3)


class TestWitnessesFire:
    """Each check of the suites, made to fail by one perturbation."""

    def test_parity_witness(self):
        # gamma_(1) + x gamma_(1) is central and is the class sum at x = 0,
        # but its terms have both parities
        g = gamma_basis(4, 1).gamma[(1,)]
        witnesses, _ = center._element_witnesses((1,), 4, g + g.scale(XI), 0)
        assert witnesses == ["gamma_(1,)(n=4) is not homogeneous of parity |lam| mod 2"]

    def test_support_bound_witness(self, monkeypatch):
        # a central gamma_(3) added to gamma_(1) gamma_(1) leaves the span
        # of the classes of size at most 2
        basis = gamma_basis(4, 3)
        g1, extra = basis.gamma[(1,)], basis.gamma[(3,)]
        monkeypatch.setattr(center, "_struct_memo", {})
        monkeypatch.setattr(center, "mul", lambda h1, h2: (
            mul(h1, h2) + extra if h1 is g1 and h2 is g1 else mul(h1, h2)))
        want = ("support of gamma_(1,) gamma_(1,) exceeds size 2 at n=4: element is not "
                "in the span of the basis through size 2 (residual has 13 terms)")
        assert verify_structure_constants(4, 2).witnesses == [want]
        code, out = run_cli("verify", "--n", "4", "--max-size", "2")
        assert code == 1 and f"WITNESS {want}\n" in out

    def test_product_outside_the_basis_lets_every_suite_report(self, monkeypatch):
        # the perturbation of test_support_bound_witness: the x = 0 suite
        # reports it too, and the elementary-sum suite still runs
        basis = gamma_basis(4, 3)
        g1, extra = basis.gamma[(1,)], basis.gamma[(3,)]
        monkeypatch.setattr(center, "_struct_memo", {})
        monkeypatch.setattr(center, "mul", lambda h1, h2: (
            mul(h1, h2) + extra if h1 is g1 and h2 is g1 else mul(h1, h2)))
        want = ("support of gamma_(1,) gamma_(1,) exceeds size 2 at n=4: element is not "
                "in the span of the basis through size 2 (residual has 13 terms)")
        assert verify_zero_specialization(4, 2).witnesses == [want]
        code, out = run_cli("verify", "--n", "4", "--max-size", "2")
        assert code == 1
        assert out.splitlines() == [
            "FAIL structure-constants n=4 max_size=2 (checks=13)",
            f"WITNESS {want}",
            "PASS characterization n=4 up_to=2 (checks=48)",
            "FAIL zero-specialization-oracle n=4 max_size=2 (checks=5)",
            f"WITNESS {want}",
            "PASS elementary-sums n=4 r_max=2 (checks=2)",
        ]

    def test_zero_specialization_witness(self, monkeypatch):
        oracle = center.class_sum_oracle

        def miscounted(lam, mu, n):
            out = oracle(lam, mu, n)
            return {**out, (): out[()] + 1} if lam == mu == (1,) else out

        monkeypatch.setattr(center, "class_sum_oracle", miscounted)
        want = ("x=0 mismatch for ((1,), (1,)) at n=4: hecke {(): 6, (2,): 3, (1, 1): 2} "
                "vs group {(): 7, (2,): 3, (1, 1): 2}")
        assert verify_zero_specialization(4, 2).witnesses == [want]
        code, out = run_cli("verify", "--n", "4", "--max-size", "2")
        assert code == 1 and f"WITNESS {want}\n" in out

    @pytest.mark.parametrize("perturb", ["values", "support"])
    def test_class_sum_witness(self, perturb):
        # central and of parity 1 either way, and the pattern through size 0
        # (the identity alone) holds; at x = 0 the class sum is doubled, or
        # has the class sum of (3) added
        basis = gamma_basis(4, 3)
        g1 = basis.gamma[(1,)]
        bad = g1.scale(2) if perturb == "values" else g1 + basis.gamma[(3,)]
        witnesses, _ = center._element_witnesses((1,), 4, bad, 0)
        assert witnesses == ["gamma_(1,)(n=4) does not specialize to the class sum at x=0"]

    def test_oracle_not_constant_witness(self, monkeypatch):
        # a 3-cycle of (1)(1) in S_4 counted once more than its class
        group_mul = center.group_mul
        monkeypatch.setattr(center, "group_mul", lambda a, b: {
            w: c + (w == (2, 3, 1, 4)) for w, c in group_mul(a, b).items()})
        with pytest.raises(InvariantViolationError, match=re.escape(
                "class sum product not constant on class (2,) in S_4")):
            class_sum_oracle((1,), (1,), 4)

    def test_oracle_partial_class_witness(self, monkeypatch):
        # that 3-cycle dropped: the rest of its class keeps one value
        group_mul = center.group_mul
        monkeypatch.setattr(center, "group_mul", lambda a, b: {
            w: c for w, c in group_mul(a, b).items() if w != (2, 3, 1, 4)})
        with pytest.raises(InvariantViolationError, match=re.escape(
                "class sum product covers class (2,) only partially in S_4")):
            class_sum_oracle((1,), (1,), 4)

    def test_elementary_sum_witness(self, monkeypatch):
        e_sym = hecke.e_sym
        monkeypatch.setattr(hecke, "e_sym", lambda r, n: e_sym(r, n) + unit(n))
        want = [f"e_{r} differs from the sum of size-{r} class elements at n=4" for r in (1, 2)]
        assert verify_elementary_sums(4, 2).witnesses == want
        code, out = run_cli("verify", "--n", "4", "--max-size", "2")
        assert code == 1 and all(f"WITNESS {w}\n" in out for w in want)

    def test_unsolvable_system_raises(self, monkeypatch, fresh_memos):
        solve = center.solve_linear
        # the system with its matrix zeroed: b != 0 has no solution
        monkeypatch.setattr(center, "solve_linear", lambda A, columns: solve(
            [[IntPoly()] * len(row) for row in A], columns))
        with pytest.raises(ConstructionError, match=re.escape(
                "characterization system for gamma_(1,)(n=4) is unsolvable: "
                "inconsistent linear system (rank 0)")):
            center._solve_gamma((1,), 4)

    def test_inexact_division_raises(self, monkeypatch, fresh_memos):
        solve = center.solve_linear

        def doubled_denominator(A, columns):
            ys, d = solve(A, columns)
            return ys, d * IntPoly.const(2)

        monkeypatch.setattr(center, "solve_linear", doubled_denominator)
        # at every rank, above the dense one too, the certificate sees
        # d gamma_(1) != y . m at the rep of (1,), the first class at which
        # the two differ, before anything is swept or assembled
        assert center._DENSE_MAX_RANK < 10
        for n in (4, 10):
            with pytest.raises(ConstructionError, match=(
                    rf"^gamma_\(1,\)\(n={n}\) fails its certificate at class \(1,\): the solve's "
                    r"combination of m_mu has 1 at \([0-9, ]+\), expected 2$")):
                center._solve_gamma((1,), n)


class TestVerifyCommutativity:
    def test_perturbed_swapped_product_is_reported(self, monkeypatch):
        # only gamma_(2) gamma_(1) is changed, by a class element: it still
        # expands exactly, so only the commutativity check can see it
        basis = gamma_basis(5, 3)
        a, b = basis.gamma[(2,)], basis.gamma[(1,)]
        perturbed = []

        def fake_mul(h1, h2):
            product = mul(h1, h2)
            if h1 == a and h2 == b:
                perturbed.append(True)
                return product + basis.gamma[(1,)]
            return product

        monkeypatch.setattr(center, "mul", fake_mul)
        report = verify_structure_constants(5, 3)
        assert perturbed
        assert report.witnesses == ["gamma_(1,) gamma_(2,) != gamma_(2,) gamma_(1,) at n=5"]

    def test_forms_each_swapped_product_once(self, monkeypatch):
        basis = gamma_basis(5, 3)
        name = {id(elt): lam for lam, elt in basis.gamma.items()}
        factors = []
        monkeypatch.setattr(center, "mul", lambda h1, h2: factors.append(
            (name[id(h1)], name[id(h2)])) or mul(h1, h2))
        center._struct_memo.clear()
        assert verify_structure_constants(5, 3).ok
        pairs = center._pairs_up_to(5, 3)
        assert factors == [p for lam, mu in pairs
                           for p in ([(lam, mu)] if lam == mu else [(lam, mu), (mu, lam)])]


class TestStructTable:
    def test_n3_rows(self):
        table = center.build_struct_table(3, 2)
        assert [(l, m) for l, m, _ in table.entries] == [((1,), (1,))]
        assert len(table.entries[0][2].coords) == 3

    def test_parallel_matches_serial(self):
        serial = center.build_struct_table(4, 3, jobs=1)
        parallel = center.build_struct_table(4, 3, jobs=2)
        assert [(l, m, coords_dict(c)) for l, m, c in serial.entries] == [
            (l, m, coords_dict(c)) for l, m, c in parallel.entries
        ]

    def test_warm_basis_table_tests_no_centrality(self, monkeypatch):
        # an exact expansion in verified central elements proves the product
        # central, so expanding needs no centrality test
        gamma_basis(5, 3)
        center._struct_memo.clear()
        calls = []
        monkeypatch.setattr(center, "is_central",
                            lambda h: calls.append(h) or is_central(h))
        assert center.build_struct_table(5, 3).entries
        assert calls == []

    def test_pool_size_bounded_by_pairs(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        pairs = len(center.build_struct_table(4, 3).entries)
        assert pairs == 3
        center.build_struct_table(4, 3, jobs=64)
        center.build_struct_table(4, 3, jobs=2)
        assert sizes == [pairs, 2]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only a forked worker inherits the parent's marks")
    def test_forked_workers_keep_the_inherited_marks(self, monkeypatch):
        # a forked worker's basis is the parent's own, already marked, so its
        # initializer runs no centrality test
        want = center.build_struct_table(5, 4)
        center._struct_memo.clear()
        monkeypatch.setattr(center, "is_central", must_not_run)
        assert center.build_struct_table(5, 4, jobs=2) == want

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_parallel_matches_serial_without_fork(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method} is unavailable")
        script = (
            "import multiprocessing, sys\n"
            "from grhecke import center\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method(sys.argv[1])\n"
            "    table = center.build_struct_table(5, 4, jobs=2)\n"
            "    print(repr([(l, m, sorted((nu, c.coeffs) for nu, c in k.coords.items()))\n"
            "                for l, m, k in table.entries]))\n"
        )
        out = subprocess.run([sys.executable, "-c", script, method], env=child_env(),
                             capture_output=True, text=True, timeout=300, check=True)
        # the workers' pickled basis stops at size 3; (4) is read at the reps
        serial = center.build_struct_table(5, 4, jobs=1)
        assert any((4,) in k.coords for _, _, k in serial.entries)
        assert out.stdout.strip() == repr([
            (l, m, sorted((nu, c.coeffs) for nu, c in k.coords.items()))
            for l, m, k in serial.entries])
