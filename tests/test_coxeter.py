"""Symmetric group combinatorics, checked against brute-force enumeration."""

import ast
import math
import os
import random
import subprocess
import sys
from array import array
from collections import deque
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from grhecke import coxeter
from grhecke.coxeter import (
    class_representative, compose, conjugacy_class, fits_rank, from_word, identity,
    inverse, left_gen, length, min_rep, minimal_length_elements, modified_cycle_type,
    partition_key, partitions_of, partitions_up_to, reduced_word, right_gen,
)
from grhecke.errors import EmptyClassError, InvalidInputError


def all_perms(n):
    return [tuple(p) for p in permutations(range(1, n + 1))]


def perm_strategy(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )


class TestCompose:
    def test_identity_case(self):
        assert compose(identity(3), (2, 1, 3)) == (2, 1, 3)

    def test_involution(self):
        assert compose((2, 1, 3), (2, 1, 3)) == (1, 2, 3)

    def test_stated_convention(self):
        assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            compose((1, 2), (1, 2, 3))

    @given(perm_strategy(5))
    def test_inverse(self, w):
        assert compose(w, inverse(w)) == identity(len(w))
        assert compose(inverse(w), w) == identity(len(w))


class TestLength:
    def test_identity(self):
        assert length(identity(4)) == 0

    def test_longest_element(self):
        assert length((3, 2, 1)) == 3

    def test_two_inversions(self):
        assert length((2, 3, 1)) == 2

    @given(perm_strategy(6), st.integers(1, 5))
    def test_generator_changes_length_by_one(self, w, i):
        if i >= len(w):
            return
        assert abs(length(right_gen(w, i)) - length(w)) == 1


class TestReducedWord:
    def test_identity(self):
        assert reduced_word(identity(4)) == ()

    def test_simple(self):
        assert reduced_word((2, 1, 3)) == (1,)

    def test_three_cycle_recomposes(self):
        word = reduced_word((2, 3, 1))
        assert len(word) == 2
        assert from_word(3, word) == (2, 3, 1)

    @pytest.mark.parametrize("w", [(1, 1, 1), (0, 1, 2), (1, 2, 4), (2, 3, 3)])
    def test_non_permutation_has_no_index_and_no_word(self, w):
        # unchecked, the Lehmer digits would name another permutation
        assert coxeter._perm_index(w) == -1
        with pytest.raises(InvalidInputError):
            reduced_word(w)

    @given(perm_strategy(6))
    def test_recomposition_and_length(self, w):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert from_word(len(w), word) == w


class TestModifiedCycleType:
    def test_identity(self):
        assert modified_cycle_type(identity(3)) == ()

    def test_three_cycle(self):
        assert modified_cycle_type((2, 3, 1)) == (2,)

    def test_double_transposition(self):
        assert modified_cycle_type((2, 1, 4, 3)) == (1, 1)

    @given(perm_strategy(6), perm_strategy(6))
    def test_conjugation_invariant(self, u, w):
        if len(u) != len(w):
            return
        conj = compose(compose(u, w), inverse(u))
        assert modified_cycle_type(conj) == modified_cycle_type(w)


def class_size_formula(lam, n):
    """n! / z_rho for the plain cycle type rho corresponding to lam."""
    rho = sorted([p + 1 for p in lam] + [1] * (n - sum(lam) - len(lam)), reverse=True)
    z = 1
    for v in set(rho):
        m = rho.count(v)
        z *= v**m * math.factorial(m)
    return math.factorial(n) // z


class TestConjugacyClass:
    def test_identity_class(self):
        assert conjugacy_class((), 3) == {identity(3)}

    def test_transpositions(self):
        assert conjugacy_class((1,), 3) == {(2, 1, 3), (1, 3, 2), (3, 2, 1)}

    def test_three_cycles_in_s4(self):
        got = conjugacy_class((2,), 4)
        brute = {w for w in all_perms(4) if modified_cycle_type(w) == (2,)}
        assert got == brute
        assert len(got) == 8

    def test_empty_class_error(self):
        with pytest.raises(EmptyClassError):
            conjugacy_class((2, 1, 1), 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_classes_partition_sn(self, n):
        total = 0
        seen = set()
        for lam in partitions_up_to(n):
            if not fits_rank(lam, n):
                continue
            cls = conjugacy_class(lam, n)
            assert len(cls) == class_size_formula(lam, n)
            assert not (cls & seen)
            seen |= cls
            total += len(cls)
        assert total == math.factorial(n)

    @pytest.mark.parametrize("n", [4, 5])
    def test_against_brute_force(self, n):
        by_type = {}
        for w in all_perms(n):
            by_type.setdefault(modified_cycle_type(w), set()).add(w)
        for lam, cls in by_type.items():
            assert conjugacy_class(lam, n) == cls


def tuple_conjugacy_class(lam, n):
    """The class walked on tuples: the oracle of `conjugacy_class`."""
    rep = class_representative(lam, n)
    seen = {rep}
    queue = deque([rep])
    while queue:
        w = queue.popleft()
        for i in range(1, n):
            c = left_gen(right_gen(w, i), i)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return seen


class TestClassWalk:
    @staticmethod
    def _check(lam, n):
        want = tuple_conjugacy_class(lam, n)
        assert conjugacy_class(lam, n) == want
        best = min(map(length, want))
        assert minimal_length_elements(lam, n) == {w for w in want if length(w) == best}

    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_tuple_walk(self, n):
        for lam in partitions_up_to(n):
            if fits_rank(lam, n):
                self._check(lam, n)

    def test_above_dense_rank(self):
        for lam in partitions_up_to(3):
            self._check(lam, coxeter._DENSE_MAX_RANK + 1)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_per_entry_rows_match_tuple_walk(self, n, monkeypatch):
        # conjugating by each s_i on the indices of the per-entry record, as
        # the engine steps above the dense rank, walks every class
        monkeypatch.setattr(coxeter, "_DENSE_MAX_RANK", 0)
        tables = coxeter._tables.__wrapped__(n)  # uncached
        inv = tables.inverse
        for lam in partitions_up_to(n):
            if not fits_rank(lam, n):
                continue
            queue = [coxeter._perm_index(class_representative(lam, n))]
            seen = set(queue)
            for k in queue:
                for row in tables.steps:
                    j = row[k]  # w s_i
                    j = row[inv[j if j >= 0 else ~j]]  # (s_i w s_i)^{-1}
                    j = inv[j if j >= 0 else ~j]
                    if j not in seen:
                        seen.add(j)
                        queue.append(j)
            assert {coxeter._index_perm(k, n) for k in seen} == tuple_conjugacy_class(lam, n)

    def test_small_classes_build_no_tables(self, no_tables):
        # classes, their minimal elements and the x = 0 oracle read no index
        # tables at any rank
        from grhecke import center

        conjugacy_class.cache_clear()
        minimal_length_elements.cache_clear()
        assert center.class_sum_oracle((2,), (1,), 8) == {(3,): 4, (2, 1): 1, (1,): 12}
        assert center.class_sum_oracle((1,), (1,), 9) == {(): 36, (2,): 3, (1, 1): 2}
        self._check((2, 1), 10)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_length_table(self, n):
        lengths = coxeter._tables(n).lengths
        assert isinstance(lengths, bytes) and len(lengths) == math.factorial(n)
        assert list(lengths) == [length(w) for w in all_perms(n)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dense_and_per_entry_records_agree(self, n, monkeypatch):
        # the dense inverse is built by Lehmer arithmetic on no permutation;
        # the codec, beside both records, is the same at every rank
        dense = coxeter._tables(n)
        # the record above the dense rank, built uncached at rank n
        monkeypatch.setattr(coxeter, "_DENSE_MAX_RANK", 0)
        per_entry = coxeter._tables.__wrapped__(n)
        assert isinstance(dense.inverse, array) and isinstance(per_entry.inverse, coxeter._PerEntry)
        assert len(dense.inverse) == len(dense.lengths) == math.factorial(n)
        assert len(dense.steps) == len(per_entry.steps) == n - 1
        for k, w in enumerate(all_perms(n)):
            assert coxeter._index_perm(k, n) == w
            assert coxeter._perm_index(w) == k
            want = coxeter._perm_index(inverse(coxeter._index_perm(k, n)))
            assert per_entry.inverse[k] == dense.inverse[k] == want
            assert per_entry.lengths[k] == dense.lengths[k]
            assert [row[k] for row in per_entry.steps] == [row[k] for row in dense.steps]

    def test_length_row_above_dense_rank(self):
        n = coxeter._DENSE_MAX_RANK + 1
        lengths = coxeter._tables(n).lengths
        for k in random.Random(n).sample(range(math.factorial(n)), 200):
            assert lengths[k] == length(coxeter._index_perm(k, n))

    @staticmethod
    def _mirror_index(k, n):
        """The index of w0 w w0 for w of index k, as `hecke.is_central` forms it."""
        inv = coxeter._tables(n).inverse
        top = math.factorial(n) - 1
        return top - inv[top - inv[k]]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_mirror_index_formula(self, n):
        w0 = tuple(range(n, 0, -1))
        for k, w in enumerate(all_perms(n)):
            assert self._mirror_index(k, n) == coxeter._perm_index(compose(w0, compose(w, w0)))

    def test_mirror_index_formula_above_dense_rank(self):
        n = coxeter._DENSE_MAX_RANK + 1
        w0 = tuple(range(n, 0, -1))
        for k in random.Random(n).sample(range(math.factorial(n)), 200):
            w = coxeter._index_perm(k, n)
            assert self._mirror_index(k, n) == coxeter._perm_index(compose(w0, compose(w, w0)))


def test_coxeter_loads_no_hecke():
    # the permutation layer stands below the algebra: importing it, with the
    # package's own re-exports skipped, and walking a class load no hecke
    src = Path(coxeter.__file__).resolve().parent
    script = (
        "import sys, types\n"
        f"pkg = types.ModuleType('grhecke'); pkg.__path__ = [{str(src)!r}]\n"
        "sys.modules['grhecke'] = pkg\n"
        "import grhecke.coxeter as c\n"
        "c.minimal_length_elements((2, 1), 5)\n"
        "print(sorted(m for m in sys.modules if m.startswith('grhecke.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ),
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "['grhecke.coxeter', 'grhecke.errors']"


# what only coxeter may name: the record's parts, and the names it replaced;
# the codec, `_perm_index` and `_index_perm`, stands beside the record
_TABLE_INTERNALS = {
    "_Tables", "_StepRow", "_tabulate", "_PerEntry", "_places", "_digits", "_Sweep",
}
_REMOVED = {
    "_perm_tables", "_step_rows", "_lengths", "_PermRow", "_InverseRow", "_LengthRow",
    "_IndexRow", "_SPARSE_CLASS", "_class_tables",
}


def test_tables_are_read_through_one_record():
    src = Path(coxeter.__file__).resolve().parent
    calls = []
    for path in sorted(src.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_tables":
                # spelled one way, _tables(n), so the cache holds each record once
                calls.append(ast.unparse(node))
                assert not node.keywords and len(node.args) == 1, (path.name, calls[-1])
        assert not names & _REMOVED, path.name
        if path.name != "coxeter.py":
            assert not names & _TABLE_INTERNALS, path.name
    assert len(calls) >= 8
    assert not [name for name in _REMOVED if hasattr(coxeter, name)]
    hecke = ast.parse((src / "hecke.py").read_text())
    private = {alias.name for node in ast.walk(hecke) if isinstance(node, ast.ImportFrom)
               and node.module == "coxeter" for alias in node.names if alias.name[0] == "_"}
    # the tables' record and the sweep's, which products of central elements
    # read, and the codec, which the boundary of HeckeElt reads
    assert private == {"_DENSE_MAX_RANK", "_sweep", "_tables", "_perm_index", "_index_perm"}
    # the arrays the packed kernels step through, and no codec
    assert coxeter._Tables._fields == ("inverse", "steps", "lengths")


# classes, their minimal elements and the x = 0 oracle stand apart from the
# engine's index tables and sweep plan, which they are used to check
_TABLE_FREE = {
    "coxeter": {"conjugacy_class", "_moving_every_point", "minimal_length_elements", "min_rep"},
    "center": {"class_sum_oracle"},
    "hecke": {"group_mul"},
}


def test_classes_read_no_tables():
    src = Path(coxeter.__file__).resolve().parent
    for module, names in _TABLE_FREE.items():
        tree = ast.parse((src / f"{module}.py").read_text())
        functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert names <= functions.keys(), module
        for name in names:
            used = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
            used |= {node.attr for node in ast.walk(functions[name])
                     if isinstance(node, ast.Attribute)}
            assert not used & {"_tables", "_sweep"}, f"{module}.{name}"


# the x = 0 oracle checks the engine's encoding of permutations, so it
# names neither half of the codec nor the index sets encoded by it
_CODEC_FREE = {"hecke": {"group_mul"}, "center": {"class_sum_oracle"}}


def test_oracle_names_no_codec():
    codec = {"_index_perm", "_perm_index", "_class_indices", "_minimal_indices"}
    assert all(callable(getattr(coxeter, name)) for name in codec)
    src = Path(coxeter.__file__).resolve().parent
    for module, names in _CODEC_FREE.items():
        tree = ast.parse((src / f"{module}.py").read_text())
        functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert names <= functions.keys(), module
        for name in names:
            used = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
            used |= {node.attr for node in ast.walk(functions[name])
                     if isinstance(node, ast.Attribute)}
            assert not used & codec, f"{module}.{name}"


def test_universal_keeps_no_state():
    # a memo whose values depend on center belongs where clear_caches reaches it
    tree = ast.parse((Path(coxeter.__file__).resolve().parent / "universal.py").read_text())
    decorators = {ast.unparse(node.func if isinstance(node, ast.Call) else node)
                  for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  for node in f.decorator_list}
    assert not {name.rpartition(".")[2] for name in decorators} & {"lru_cache", "cache"}
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    held = [ast.unparse(node.targets[0] if isinstance(node, ast.Assign) else node.target)
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            and (isinstance(node.value, containers) or isinstance(node.value, ast.Call)
                 and ast.unparse(node.value.func) in {"dict", "list", "set"})]
    assert held == ["__all__"]


# products and expansions of certified central elements take one route at
# every rank: only the dense tables and the fill arrays stop at that rank
_ONE_ROUTE = {
    "hecke": {"mul", "_central_mul"}, "center": {"expand_in_gamma", "_at_reps", "_certify"},
}


def test_central_products_take_one_route_at_every_rank():
    src = Path(coxeter.__file__).resolve().parent
    for module, names in _ONE_ROUTE.items():
        tree = ast.parse((src / f"{module}.py").read_text())
        functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert names <= functions.keys(), module
        for name in names:
            used = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
            assert "_DENSE_MAX_RANK" not in used, f"{module}.{name}"


# the per-term kernels run on indices alone: they name neither the codec's
# decoder, _index_perm, nor its encoder, _perm_index
_INDEX_ONLY = {
    "hecke": {"_packed", "_swept", "_fold_right", "_central_mul", "_m_sym_upto", "_times_jm",
              "linear_combination", "is_central"},
    "center": {"_at_reps"},
    "coxeter": {"_reversed_word"},
}


def test_per_term_kernels_name_no_permutation():
    codec = {"_index_perm", "_perm_index"}
    # names that exist, so the guard cannot pass by naming nothing
    assert all(callable(getattr(coxeter, name)) for name in codec)
    src = Path(coxeter.__file__).resolve().parent
    for module, names in _INDEX_ONLY.items():
        tree = ast.parse((src / f"{module}.py").read_text())
        functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert names <= functions.keys(), module
        for name in names:
            used = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
            used |= {node.attr for node in ast.walk(functions[name])
                     if isinstance(node, ast.Attribute)}
            assert not used & codec, f"{module}.{name}"


def test_every_class_element_is_certified_at_every_rank():
    # the certificate is a statement of `_solve_gamma`'s own body, under no
    # branch, and center reads no element at `min_rep`, only at the sweep's reps
    tree = ast.parse((Path(coxeter.__file__).resolve().parent / "center.py").read_text())
    solve = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_solve_gamma")
    assert "_certify" in [ast.unparse(node.value.func) for node in solve.body
                          if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "min_rep" not in imported | used


def test_json_is_read_back_only_as_the_cache_record():
    # grhecke writes its formats and parses none of them back: a reader with
    # no caller is an input surface that nothing exercises, and the one file
    # it reads, the cache record, is matched byte for byte. Nor does it read
    # the environment: every input arrives as an argument.
    src = Path(coxeter.__file__).resolve().parent
    readers, loads = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        readers += [f"{path.stem}.{node.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name in ("from_json", "from_json_dict", "_decimals")]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("json", "os"):
                loads.append(f"{path.stem}: from {node.module} import")
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.load", "json.loads"):
                loads.append(f"{path.stem}: {ast.unparse(node)}")
            if isinstance(node, ast.Attribute) and ast.unparse(node) in (
                    "os.environ", "os.environb", "os.getenv", "os.getenvb"):
                loads.append(f"{path.stem}: {ast.unparse(node)}")
    assert readers == []
    assert loads == []


class TestMinimalLength:
    def test_transposition_class(self):
        assert minimal_length_elements((1,), 3) == {(2, 1, 3), (1, 3, 2)}

    def test_identity_class(self):
        assert minimal_length_elements((), 5) == {identity(5)}

    def test_three_cycles(self):
        assert minimal_length_elements((2,), 3) == {(2, 3, 1), (3, 1, 2)}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_parity_matches_size(self, n):
        for lam in partitions_up_to(n):
            if not fits_rank(lam, n):
                continue
            elems = minimal_length_elements(lam, n)
            assert elems
            lengths = {length(w) for w in elems}
            assert len(lengths) == 1
            assert lengths.pop() % 2 == sum(lam) % 2


class TestMinRep:
    def test_transpositions(self):
        assert min_rep((1,), 3) == (1, 3, 2)

    def test_identity(self):
        assert min_rep((), 5) == (1, 2, 3, 4, 5)

    def test_three_cycles(self):
        assert min_rep((2,), 3) == (2, 3, 1)


class TestPartitions:
    def test_up_to_zero(self):
        assert partitions_up_to(0) == ((),)

    def test_up_to_two(self):
        assert partitions_up_to(2) == ((), (1,), (2,), (1, 1))

    def test_up_to_three_has_seven(self):
        parts = partitions_up_to(3)
        assert len(parts) == 7
        assert parts[-1] == (1, 1, 1)

    def test_of_exact_size(self):
        assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            partitions_up_to(-1)

    @pytest.mark.parametrize("k", range(12))
    def test_key_gives_the_canonical_order(self, k):
        parts = list(partitions_up_to(k))
        assert sorted(random.Random(k).sample(parts, len(parts)), key=partition_key) == parts
