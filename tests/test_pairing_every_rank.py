"""
Products of certified central elements take the trace pairing at every
rank, and their expansion checks the residual at the class reps only. Above
`_DENSE_MAX_RANK` the pairing runs on per-entry tables, and a held product
is filled in by the Horner fold of its two factors when its terms are read.
"""

import pickle

import pytest

from grhecke import center, coxeter, hecke
from grhecke.coxeter import class_representative, from_word, inverse, minimal_length_elements
from grhecke.hecke import mul
from grhecke.polyring import IntPoly

N = coxeter._DENSE_MAX_RANK + 1


def must_not_run(*args, **kwargs):
    raise AssertionError("must not run")


def filled(h):
    return h._terms is not None


@pytest.mark.parametrize("n", range(1, 8))
def test_per_entry_pairing_equals_the_dense_one(n, monkeypatch):
    gamma = center.gamma_basis(n, 4).gamma
    pairs = [(lam, mu) for lam in gamma for mu in gamma if sum(lam) + sum(mu) <= 4]
    dense = [hecke._central_mul(gamma[lam], gamma[mu])._reps[:2] for lam, mu in pairs]
    # the record above the dense rank, built uncached at rank n
    monkeypatch.setattr(coxeter, "_DENSE_MAX_RANK", 0)
    monkeypatch.setattr(hecke, "_tables", coxeter._tables.__wrapped__)
    for (lam, mu), (at_reps, unpack) in zip(pairs, dense):
        got, got_unpack = hecke._central_mul(gamma[lam], gamma[mu])._reps[:2]
        assert (got, got_unpack.width) == (at_reps, unpack.width), (lam, mu, n)


def test_the_trie_is_built_above_the_dense_rank(no_tables):
    plan = coxeter._sweep.__wrapped__(N)  # uncached, and reading no tables
    assert plan.order is plan.first is plan.second is None
    for c, (lam, k) in enumerate(zip(plan.classes, plan.reps)):
        word, d = [], c
        while plan.parents[d] >= 0:
            word.append(plan.letters[d])
            d = plan.parents[d]
        w = coxeter._index_perm(k, N)
        assert from_word(N, reversed(word)) == class_representative(lam, N) == inverse(w)
    # an index of S_13 can exceed int32, so the reps are no int32 array
    assert max(coxeter._sweep(13).reps) > 2 ** 31 - 1


def _one_route(pairs, up_to, monkeypatch):
    """The pairs' structure constants at rank N against today's route: the
    Horner fold, expanded with its whole residual."""
    basis = center.gamma_basis(N, up_to)
    want = [center.expand_in_gamma(hecke._fold_right(basis.gamma[lam], basis.gamma[mu], False),
                                   basis) for lam, mu in pairs]
    monkeypatch.setattr(center, "_struct_memo", {})
    monkeypatch.setattr(hecke, "_fold_right", must_not_run)
    monkeypatch.setattr(hecke, "linear_combination", must_not_run)
    for (lam, mu), coords in zip(pairs, want):
        assert center.structure_constants(lam, mu, N) == coords, (lam, mu)


def _pairs_of_size(size):
    return [pair for pair in center._pairs_up_to(N, size) if sum(map(sum, pair)) == size]


def test_structure_constants_above_the_dense_rank(monkeypatch):
    _one_route(center._pairs_up_to(N, 2), 2, monkeypatch)


@pytest.mark.slow
def test_structure_constants_of_size_three_above_the_dense_rank(monkeypatch):
    _one_route(_pairs_of_size(3), 3, monkeypatch)


@pytest.fixture
def held():
    g = center.gamma_basis(N, 2).gamma[(1,)]
    product = mul(g, g)
    assert product._central and not filled(product)
    return product, g


def test_held_product_answers_at_minimal_elements_without_a_fill(held, monkeypatch):
    product, g = held
    monkeypatch.setattr(hecke, "_fold_right", must_not_run)
    plan = coxeter._sweep(N)
    minimal = [w for lam in coxeter.partitions_up_to(2) for w in minimal_length_elements(lam, N)]
    minimal += [coxeter._index_perm(k, N) for k in plan.reps]
    values = [product.coeff(w) for w in minimal]
    for w in [(1, 2, 3), (1,) * N, tuple(range(N, 0, -1))[:-1] + (N,)]:
        assert product.coeff(w) == IntPoly()
    assert not filled(product)
    monkeypatch.undo()
    assert values == [product.terms.get(w, IntPoly()) for w in minimal]


def test_held_product_is_filled_by_the_fold(held, monkeypatch):
    product, g = held
    folds = []
    fold = hecke._fold_right
    monkeypatch.setattr(hecke, "_swept", must_not_run)
    monkeypatch.setattr(hecke, "_fold_right", lambda *args: folds.append(args) or fold(*args))
    want = fold(g, g, False).terms
    assert product.terms == want and product.terms == want
    assert folds == [(g, g, False)] and filled(product) and product._reps is None


def test_pickle_fills_the_held_product_and_drops_the_mark(held):
    product, g = held
    copy = pickle.loads(pickle.dumps(product))
    assert filled(product) and product._central and not copy._central
    assert copy == product == hecke._fold_right(g, g, False)
