"""
Symmetric group combinatorics in one-line notation.

A permutation of {1, ..., n} is a tuple `w` with `w[i-1] == w(i)`. The group
law is composition, ``compose(u, v)(i) == u(v(i))``; multiplying by the
adjacent transposition `s_i` on the right swaps positions i, i+1 of the
one-line word, while multiplying on the left swaps the values i, i+1.

Conjugacy classes are indexed by modified cycle types: the cycle type with
every nontrivial cycle length reduced by one and the fixed points dropped.
A partition `lam` labels a nonempty class of S_n exactly when
``sum(lam) + len(lam) <= n``.

>>> compose((2, 1, 3), (1, 3, 2))
(2, 3, 1)
>>> length((2, 3, 1))
2
>>> modified_cycle_type((2, 3, 1))
(2,)

Permutations of S_n are also addressed by their index in lexicographic
order, the factorial-base number of their Lehmer code L (L[j] counts the
k > j with w[k] < w[j]). Right multiplication by s_i changes only the digits
(a, c) = (L[i-1], L[i]); i is a right descent exactly when a > c, and then
w s_i has digits (c, a - 1), otherwise (c + 1, a). The length of w is the
sum of its Lehmer digits. The index is the only key the Hecke engine gives
a permutation. The codec between permutations and indices is two
functions, the encoder `_perm_index` and the decoder `_index_perm`, which
read no table. Each rank also has one record of tables over
indices, `_tables(n)`: the inverses, step rows and lengths that the
packed kernels step through, tabulated up to `_DENSE_MAX_RANK` and
computed per entry above it; no table holds a permutation. They serve the
Hecke engine and the sweep's fill arrays alone: classes are built from
their cycle lengths on plain tuples. Other modules read the tables
through `_tables` and `_DENSE_MAX_RANK` alone. Beside them, `_sweep(n)`
holds one minimal-length element of each class, reached along a trie of
words, at every rank, and up to `_DENSE_MAX_RANK` the plan by which a
central element of H_n is filled in from its values at these elements, on
the same indices.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations, compress, permutations
from math import factorial
from operator import sub
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .errors import EmptyClassError, InvalidInputError, InvariantViolationError

__all__ = [
    "Perm", "Partition",
    "identity", "compose", "inverse", "length",
    "right_gen", "left_gen", "reduced_word", "from_word", "transposition",
    "modified_cycle_type", "fits_rank", "class_representative",
    "conjugacy_class", "minimal_length_elements", "min_rep",
    "partitions_of", "partitions_up_to", "partition_key", "check_partition",
]

# one-line notation, 1-based values
Perm = tuple[int, ...]

# weakly decreasing positive parts; () is the empty partition
Partition = tuple[int, ...]


def identity(n: int) -> Perm:
    """
    >>> identity(3)
    (1, 2, 3)
    """
    return tuple(range(1, n + 1))


def compose(u: Perm, v: Perm) -> Perm:
    """
    Product u*v under the convention (u*v)(i) = u(v(i)).

    >>> compose((2, 1, 3), (2, 1, 3))
    (1, 2, 3)
    """
    if len(u) != len(v):
        raise InvalidInputError(f"rank mismatch: {len(u)} vs {len(v)}")
    return tuple(u[x - 1] for x in v)


def inverse(w: Perm) -> Perm:
    """
    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def length(w: Perm) -> int:
    """
    Coxeter length: the number of inversions of the one-line word.

    >>> length((3, 2, 1))
    3
    """
    return sum(a > b for i, a in enumerate(w) for b in w[i + 1 :])


def right_gen(w: Perm, i: int) -> Perm:
    """w * s_i: swap positions i, i+1 of the one-line word."""
    if not 1 <= i <= len(w) - 1:
        raise InvalidInputError(f"generator index {i} out of range for n={len(w)}")
    return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]


def left_gen(w: Perm, i: int) -> Perm:
    """s_i * w: swap the values i, i+1 in the one-line word."""
    if not 1 <= i <= len(w) - 1:
        raise InvalidInputError(f"generator index {i} out of range for n={len(w)}")
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)


def reduced_word(w: Perm) -> tuple[int, ...]:
    """
    Canonical reduced word for w, as generator indices read left to right.

    Repeatedly strips the smallest descent on the right, so the emitted word
    recomposes to w via ``from_word`` and has exactly ``length(w)`` letters.
    The letters come from `_reversed_word` on per-entry step rows.

    >>> reduced_word((2, 1, 3))
    (1,)
    >>> from_word(3, reduced_word((2, 3, 1))) == (2, 3, 1)
    True
    """
    n, k = len(w), _perm_index(w)
    if k < 0:
        raise InvalidInputError(f"not a permutation: {w}")
    return tuple(reversed(_reversed_word(k, [_StepRow(n, i) for i in range(1, n)])))


def from_word(n: int, word: Iterable[int]) -> Perm:
    """Compose the generators named by `word` left to right in S_n."""
    w = identity(n)
    for i in word:
        w = right_gen(w, i)
    return w


def transposition(n: int, i: int, j: int) -> Perm:
    """The transposition (i j) as an element of S_n."""
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise InvalidInputError(f"bad transposition ({i} {j}) for n={n}")
    out = list(range(1, n + 1))
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def modified_cycle_type(w: Perm) -> Partition:
    """
    Cycle type with each nontrivial cycle length reduced by one.

    >>> modified_cycle_type((1, 2, 3))
    ()
    >>> modified_cycle_type((2, 1, 4, 3))
    (1, 1)
    """
    seen = [False] * len(w)
    parts = []
    for start in range(len(w)):
        if seen[start]:
            continue
        clen = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = w[j] - 1
            clen += 1
        if clen > 1:
            parts.append(clen - 1)
    parts.sort(reverse=True)
    return tuple(parts)


def check_partition(parts: Sequence[int]) -> Partition:
    """Validate weakly decreasing positive parts; return as a tuple."""
    lam = tuple(parts)
    if any(p < 1 for p in lam):
        raise InvalidInputError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise InvalidInputError(f"parts must be weakly decreasing: {lam}")
    return lam


def fits_rank(lam: Partition, n: int) -> bool:
    """Whether the class of modified type lam is nonempty in S_n."""
    return sum(lam) + len(lam) <= n


def class_representative(lam: Partition, n: int) -> Perm:
    """One element of modified type lam, built from consecutive cycles."""
    lam = check_partition(lam)
    if not fits_rank(lam, n):
        raise EmptyClassError(f"no class of modified type {lam} in S_{n}")
    out = list(range(1, n + 1))
    pos = 1
    for part in lam:
        # cycle (pos, pos+1, ..., pos+part)
        for i in range(pos, pos + part):
            out[i - 1] = i + 1
        out[pos + part - 1] = pos
        pos += part + 1
    return tuple(out)


@lru_cache(maxsize=None)
def _moving_every_point(lam: Partition) -> tuple[Perm, ...]:
    """
    The permutations of 1, ..., |lam| + len(lam) of modified type lam, which
    move every point. The cycle through the least free point s is s followed
    by an arrangement of larger free points, of one length per distinct part,
    so cycles of equal length take increasing s and each is built once.

    >>> _moving_every_point((2,))
    ((2, 3, 1), (3, 1, 2))
    """
    word, out = [0] * (sum(lam) + len(lam) + 1), []  # word[p] = w(p); slot 0 unused

    def place(free: tuple[int, ...], parts: Partition) -> None:
        # a leaf has written every point on its own path, so nothing is undone
        if not parts:
            out.append(tuple(word[1:]))
            return
        s, others = free[0], free[1:]
        for j, part in enumerate(parts):
            if part in parts[:j]:
                continue
            rest = parts[:j] + parts[j + 1 :]
            for arc in permutations(others, part):
                for p, q in zip((s,) + arc, arc + (s,)):
                    word[p] = q
                place(tuple(p for p in others if p not in arc), rest)

    place(tuple(range(1, len(word))), lam)
    return tuple(out)


@lru_cache(maxsize=None)
def conjugacy_class(lam: Partition, n: int) -> frozenset[Perm]:
    """
    All w in S_n of modified type lam. Each moves k = |lam| + len(lam)
    points, so the class is `_moving_every_point(lam)` relabeled onto every
    k-subset of 1, ..., n.

    >>> sorted(conjugacy_class((1,), 3))
    [(1, 3, 2), (2, 1, 3), (3, 2, 1)]
    """
    class_representative(lam, n)  # rejects a malformed or empty class
    moving, base, out = _moving_every_point(lam), list(range(1, n + 1)), []
    for points in combinations(base, sum(lam) + len(lam)):
        for u in moving:
            w = base.copy()
            for p, v in zip(points, u):
                w[p - 1] = points[v - 1]
            out.append(tuple(w))
    return frozenset(out)


@lru_cache(maxsize=None)
def minimal_length_elements(lam: Partition, n: int) -> frozenset[Perm]:
    """
    The elements of minimal Coxeter length within the class of lam. That
    length is |lam| = n - #cycles (Geck-Pfeiffer 2000, ch. 3), and every w
    has sum |w(i) - i| <= 2 length(w) (Diaconis-Graham 1977), so only
    members of footrule at most 2|lam| have their lengths read.
    """
    size, ident = sum(lam), identity(n)
    out = frozenset(w for w in conjugacy_class(lam, n)
                    if sum(map(abs, map(sub, w, ident))) <= 2 * size and length(w) == size)
    if not out:
        raise InvariantViolationError(f"no element of length {size} in class {lam} of S_{n}")
    return out


def min_rep(lam: Partition, n: int) -> Perm:
    """
    Canonical class representative: the lexicographically least one-line
    word among the minimal length elements.

    >>> min_rep((1,), 3)
    (1, 3, 2)
    >>> min_rep((2,), 3)
    (2, 3, 1)
    """
    return min(minimal_length_elements(lam, n))


_DENSE_MAX_RANK = 9  # the tables: 13 MB at n = 9; the step rows alone, 131 MB at n = 10


def _perm_index(w: Perm) -> int:
    """
    The index of w, or -1 when w is no permutation of 1, ..., len(w): the
    digits below would give such a w the index of another permutation.
    """
    rest = sorted(w)
    if rest != list(range(1, len(w) + 1)):
        return -1
    k = 0
    for a in w:
        d = rest.index(a)
        k = k * len(rest) + d
        del rest[d]
    return k


@lru_cache(maxsize=None)
def _places(n: int) -> tuple[int, ...]:
    """The places of the Lehmer digits of an index of S_n: (n-1)!, ..., 1!, 0!."""
    return tuple(factorial(j) for j in range(n - 1, -1, -1))


def _digits(k: int, n: int) -> Iterator[int]:
    """The Lehmer digits of the index k of S_n."""
    for f in _places(n):
        d, k = divmod(k, f)
        yield d


def _index_perm(k: int, n: int) -> Perm:
    """The permutation of S_n of index k."""
    # the loop of `_digits` written out: a third faster than the generator,
    # and every permutation leaving the engine is decoded here
    rest, out = list(range(1, n + 1)), []
    for f in _places(n):
        d, k = divmod(k, f)
        out.append(rest.pop(d))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_indices(lam: Partition, n: int) -> frozenset[int]:
    """The indices of `conjugacy_class(lam, n)`, encoded once."""
    return frozenset(map(_perm_index, conjugacy_class(lam, n)))


@lru_cache(maxsize=None)
def _minimal_indices(lam: Partition, n: int) -> tuple[int, ...]:
    """The indices of `minimal_length_elements(lam, n)`, in its iteration order."""
    return tuple(map(_perm_index, minimal_length_elements(lam, n)))


class _StepRow:
    """
    Right multiplication by s_i on indices: ``row[k]`` is the index of
    w s_i, or its bitwise complement (a negative number) when i is a right
    descent of w. Up to `_DENSE_MAX_RANK` it is tabulated as int32.
    """

    __slots__ = ("f1", "f0", "ra", "rc")

    def __init__(self, n: int, i: int):
        self.f1, self.f0 = factorial(n - i), factorial(n - i - 1)
        self.ra, self.rc = n - i + 1, n - i

    def __getitem__(self, k: int) -> int:
        a = k // self.f1 % self.ra
        c = k // self.f0 % self.rc
        if a <= c:
            return k + (c + 1 - a) * self.f1 + (a - c) * self.f0
        return ~(k + (c - a) * self.f1 + (a - 1 - c) * self.f0)


def _reversed_word(k: int, steps) -> list[int]:
    """
    The canonical reduced word of the permutation of index k, last letter
    first: strip the smallest right descent i, where steps[i - 1][k] < 0,
    until none is left. Stripping i leaves the letters below i - 1 ascents,
    so the search resumes there. steps are step rows of its rank, tabulated
    (the Hecke engine's) or per entry (`reduced_word`'s).
    """
    word, i = [], 0
    while i < len(steps):
        j = steps[i][k]
        if j < 0:
            word.append(i + 1)
            k, i = ~j, max(i - 1, 0)
        else:
            i += 1
    return word


def _tabulate(row: _StepRow, size: int) -> array:
    """
    `row` as int32. The indices with one value of the digits (a, c) form a
    grid, f0 consecutive ones in each block of ra f1, on which row[k] - k (or
    ~row[k] + k) is constant: each line along its longer side is one range.
    """
    period = row.f1 * row.ra
    blocks = size // period
    if row.f0 >= blocks:
        stride, count, starts = 1, row.f0, range(0, size, period)
    else:
        stride, count, starts = period, blocks, range(row.f0)
    out = array("i", [0]) * size
    for a in range(row.ra):
        for c in range(row.rc):
            for s in starts:
                k = a * row.f1 + c * row.f0 + s
                v = row[k]
                d = stride if v >= 0 else -stride
                out[k : k + stride * count : stride] = array("i", range(v, v + d * count, d))
    return out


class _PerEntry:
    """A table whose entry for a key is fn(key), computed when asked for."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, key):
        return self.fn(key)


class _Tables(NamedTuple):
    """
    The index tables of one rank, which the packed kernels step through:
    inverse[k] is the index of the inverse of the permutation of index k,
    steps[i - 1] steps every index by s_i (a `_StepRow`), and lengths[k] is
    the length of the permutation of index k. Tabulated, inverse and each
    step are int32 arrays and lengths bytes. The codec, `_perm_index` and
    `_index_perm`, is no part of the record.
    """

    inverse: Any
    steps: tuple
    lengths: Any


def _inverse_indices(n: int) -> array:
    """
    inverse[k] for every index k of S_n, by Lehmer arithmetic on no
    permutation. Digit v of the index of w^{-1}, at place (n - v)!, counts
    the values above v that w places before v. So placing a first among the
    unplaced values R adds (n - v)! for each v < a in R, and the parts of
    these indices over R's arrangements, in lexicographic order, are that
    sum for each a in R ascending plus the parts for R without a. They are
    built for every R, a bit mask with bit v - 1 for v, by size: about e n!
    entries in all, dropped when the build returns.
    """
    parts = {0: array("i", [0])}
    for rest in sorted(range(1, 1 << n), key=int.bit_count):
        out, below = array("i"), 0
        for v in range(n):
            if rest >> v & 1:
                out.extend(map(below.__add__, parts[rest ^ (1 << v)]))
                below += factorial(n - 1 - v)
        parts[rest] = out
    return parts[(1 << n) - 1]


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    """
    The tables of S_n, tabulated up to `_DENSE_MAX_RANK` and computed per
    entry above it; spelled ``_tables(n)`` only, so the cache holds each
    once.
    """
    steps = tuple(_StepRow(n, i) for i in range(1, n))
    if n > _DENSE_MAX_RANK:
        # memoized, and bounded: gamma_basis(10, 3) reads about 1.2 * 10^5
        # distinct inverses, most of them several times
        inv = lru_cache(maxsize=1 << 17)(lambda k: _perm_index(inverse(_index_perm(k, n))))
        return _Tables(_PerEntry(inv), steps, _PerEntry(lambda k: sum(_digits(k, n))))
    lengths = b"\0"  # S_{m-1}'s lengths plus each first digit d < m
    for m in range(2, n + 1):
        lengths = b"".join(lengths.translate(bytes(range(d, 256)) + bytes(d)) for d in range(m))
    size = len(lengths)
    return _Tables(_inverse_indices(n), tuple(_tabulate(row, size) for row in steps), lengths)


class _Sweep(NamedTuple):
    """
    The class-polynomial sweep of one rank, on Lehmer indices.

    classes lists every class of S_n in the preorder of a trie of words:
    the word of `class_representative(lam, n)` is one block of consecutive
    letters per part, so it extends the word of its parent, lam with its
    last part lowered by one, by the single letter letters[c]; parents[c]
    is the parent's position (-1 for the root ()). reps[c] is the index of
    the inverse of that representative, a minimal-length element of the
    class; they are a tuple, since from rank 13 on an index exceeds int32.
    This trie is built at every rank.

    A central h of H_n is fixed by its values at reps: in turn for each i,
    h[order[i]] = h[first[i]] + x h[second[i]], where the index n! names a
    slot that holds zero. Every index but the reps appears in order once,
    by length, and first[i] and second[i] name reps, that slot or indices
    of smaller length (see `_sweep`). These fill arrays need the dense
    tables, so they are None above `_DENSE_MAX_RANK`.
    """

    classes: tuple
    parents: array
    letters: array
    reps: tuple
    order: array | None
    first: array | None
    second: array | None


@lru_cache(maxsize=None)
def _sweep(n: int) -> _Sweep:
    """
    The sweep of S_n. The trie of classes and its reps are built at every
    rank, the reps encoded by `_perm_index` without the tables of
    `_tables(n)`. The fill arrays are built up to that rank only, from
    the step rows' descent signs. With s a simple reflection, comparing the
    coefficients of T_w in h T_s and T_s h (at sw in place of w) shows that
    a central h has
      h[w] = h[sws] + x h[sw]   when s is a descent of w on both sides and
                                sws != w, so that l(sws) = l(w) - 2;
      h[w] = h[sws]             when s is a descent of w on one side only,
                                so that l(sws) = l(w);
    and h is constant on the minimal-length elements of each class, where
    class polynomials are 0 or 1 (Geck-Pfeiffer 2000, 3.2 and 8.2). By
    Geck-Pfeiffer 3.2, every w not of minimal length in its class reaches,
    by one-sided steps, an element with a two-sided step, whose pair it
    takes over here; the elements left over are of minimal length and copy
    their class's rep.
    """
    classes, parents, letters = [], array("i"), array("i")

    def visit(lam: Partition, parent: int, letter: int) -> None:
        c = len(classes)
        classes.append(lam)
        parents.append(parent)
        letters.append(letter)
        free = sum(lam) + len(lam)  # the letters used are below free + 1
        if free + 2 <= n:
            visit(lam + (1,), c, free + 1)
        if lam and free < n and (len(lam) == 1 or lam[-1] < lam[-2]):
            visit(lam[:-1] + (lam[-1] + 1,), c, free)

    visit((), -1, 0)
    reps = tuple(_perm_index(inverse(class_representative(lam, n))) for lam in classes)
    if n > _DENSE_MAX_RANK:
        return _Sweep(tuple(classes), parents, letters, reps, None, None, None)
    inv, steps, lengths = _tables(n)
    size = len(lengths)
    # bit i - 1 of byte k of `right` (of `left`) is set when s_i is a right
    # (a left) descent of the permutation of index k; n - 1 <= 8 bits
    right = 0
    for i in range(1, n):
        row = _StepRow(n, i)
        block = b"".join(bytes((a > c,)) * row.f0 for a in range(row.ra) for c in range(row.rc))
        right |= int.from_bytes(block * (size // len(block)), "little") << (i - 1)
    raw = right.to_bytes(size, "little")
    left = int.from_bytes(bytes(map(raw.__getitem__, inv)), "little")
    both, one_sided = right & left, (right ^ left).to_bytes(size, "little")
    # first[k], second[k] = sws, sw for the first s with a two-sided step
    # from k; -1 while there is none
    first = array("i", [-1]) * size
    second = array("i", [-1]) * size
    ones = int.from_bytes(b"\1" * size, "little")
    open_ = bytearray(b"\1") * size
    for i, row in enumerate(steps):
        found = (both >> i) & ones & int.from_bytes(open_, "little")
        for k in compress(range(size), found.to_bytes(size, "little")):
            sw = inv[~row[inv[k]]]
            if sw != ~row[k]:  # sw != ws: sws != w
                first[k], second[k], open_[k] = ~row[sw], sw, 0
    # a one-sided step from k to sws: k takes over the pair of sws
    pending = array("i", compress(range(size), open_))
    while True:
        rest = array("i")
        for k in pending:
            bits = one_sided[k]
            while bits:
                row = steps[(bits & -bits).bit_length() - 1]
                bits &= bits - 1
                j = row[k]
                j = row[inv[j if j >= 0 else ~j]]
                j = inv[j if j >= 0 else ~j]  # s w s
                if second[j] >= 0:
                    first[k], second[k] = first[j], second[j]
                    break
            else:
                rest.append(k)
        if len(rest) == len(pending):
            break
        pending = rest
    # temporaries are freed once spent, here and below: at rank 9 the peak
    # falls from 11.7 to 6.8 MiB by tracemalloc
    del right, raw, left, both, one_sided, ones, open_
    position = {lam: c for c, lam in enumerate(classes)}
    for k in pending:  # only these, the minimal elements but the reps, are decoded
        w = _index_perm(k, n)
        rep = reps[position[modified_cycle_type(w)]]
        if lengths[k] != lengths[rep]:  # a failure of the theorems cited above
            raise InvariantViolationError(f"{w} of S_{n} is not swept")
        first[k], second[k] = rep, size
    swept = bytearray(b"\1") * size
    for rep in reps:
        swept[rep] = 0
    # by length, each length in index order
    buckets = [array("i") for _ in range(n * (n - 1) // 2 + 1)]
    for k in compress(range(size), swept):
        buckets[lengths[k]].append(k)
    order = array("i")
    while buckets:
        order += buckets.pop(0)
    first = array("i", map(first.__getitem__, order))
    second = array("i", map(second.__getitem__, order))
    return _Sweep(tuple(classes), parents, letters, reps, order, first, second)


def _partitions_rec(total: int, max_part: int) -> Iterable[Partition]:
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions_rec(total - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """
    Partitions of k in reverse lexicographic order, (k) first.

    >>> partitions_of(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    return tuple(_partitions_rec(k, k))


@lru_cache(maxsize=None)
def partitions_up_to(k: int) -> tuple[Partition, ...]:
    """
    All partitions of size at most k: size ascending, reverse
    lexicographic within a size.

    >>> partitions_up_to(2)
    ((), (1,), (2,), (1, 1))
    """
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    return tuple(lam for size in range(k + 1) for lam in partitions_of(size))


def partition_key(lam: Partition) -> tuple[int, tuple[int, ...]]:
    """
    The key of the order of `partitions_up_to`: size, then reverse lex.

    >>> sorted([(1, 1), (2,), (), (1,)], key=partition_key)
    [(), (1,), (2,), (1, 1)]
    """
    return sum(lam), tuple(-p for p in lam)
