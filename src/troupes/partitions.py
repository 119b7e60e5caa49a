"""Set partitions of [n], their classes, and descending runs of permutations.

Partitions are stored canonically: blocks sorted by minimum element, elements
ascending within a block.  Permutations are plain tuples of values 1..n.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

_last = itemgetter(-1)


class SetPartition(NamedTuple):
    n: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, n: int, blocks: Iterable[Iterable[int]]) -> SetPartition:
        """Normalize and validate a collection of blocks covering 1..n: sorted
        disjoint blocks sort by minimum, and an empty one sorts first."""
        canon = sorted([tuple(sorted(b)) for b in blocks])
        if canon and not canon[0]:
            raise ValueError("blocks must be nonempty")
        elements = [x for b in canon for x in b]
        elements.sort()
        if n < 0 or elements != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition 1..{n}")
        return cls(n, tuple(canon))

    def __str__(self) -> str:
        inner = ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return "{" + inner + "}"


def _grow(k: int, n: int, klass: str) -> Iterator[list[list[int]]]:
    """The blocks of each partition of 1..k that can still grow into a
    partition of 1..n in ``klass``, as one list mutated between yields."""
    if k == 0:
        yield []
        return
    closing = klass.startswith("nc_irreducible") and k == n > 1
    min2 = klass == "nc_irreducible_min2"
    for blocks in _grow(k - 1, n, klass):
        for i in range(1 if closing else len(blocks)):
            target = blocks[i]
            last = target[-1]
            # k joins block i by the arc (last, k): that leaves a gap unless
            # last = k-1, and crosses each block with elements around last
            if klass == "interval" and last != k - 1:
                continue
            if klass != "all" and any(b[0] < last < b[-1] for b in blocks):
                continue
            # a singleton under the arc, or left at the end, never grows
            if min2 and any(len(b) == 1 and (b[0] > last or k == n)
                            for b in blocks if b is not target):
                continue
            target.append(k)
            yield blocks
            target.pop()
        if not closing and not (min2 and k == n):
            blocks.append([k])
            yield blocks
            blocks.pop()


def iter_partitions(n: int, klass: str = "all") -> Iterator[SetPartition]:
    """All partitions of 1..n in the given class, each exactly once.

    Deterministic order: element n is placed into each block of a partition
    of 1..n-1 in turn (existing blocks first, then alone), recursively.
    Every class but ``all`` is noncrossing, and a crossing or a gap never
    goes away as larger elements join, so such branches are cut early.  An
    irreducible partition places n (for n > 1) in the block of 1 only.  In
    ``nc_irreducible_min2`` a singleton under an arc, or left once n is
    placed, can never grow either, so its branch is cut too.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if klass not in ("all", "interval", "noncrossing", "nc_irreducible",
                     "nc_irreducible_min2"):
        raise ValueError(f"unknown partition class {klass!r}")
    for blocks in _grow(n, n, klass):
        yield SetPartition.of(n, blocks)


@lru_cache(maxsize=None)
def partitions_as_index_blocks(n: int, klass: str) -> tuple[tuple[int, ...], ...]:
    """Cached partitions as block masks over 0-based positions (bit i is
    element i+1), in the order of :func:`iter_partitions`.  Each distinct
    block is turned into a mask once, so equal blocks are one mask object."""
    parts = [p.blocks for p in iter_partitions(n, klass)]
    masks = {b: sum([1 << i for i in b]) >> 1 for b in {b for blocks in parts for b in blocks}}
    return tuple([tuple([masks[b] for b in blocks]) for blocks in parts])


# ---------------------------------------------------------------------------
# Permutations and descending runs


def _runs(sigma: Sequence[int]) -> list[Sequence[int]]:
    """The maximal descending runs of a nonempty ``sigma``, in one loop: each
    a slice of it, so read from its maximum down, ordered by minimum, which
    is a run's last entry."""
    runs = []
    start = i = 0
    prev = sigma[0]
    for x in sigma:
        if prev < x:
            runs.append(sigma[start:i])
            start = i
        prev = x
        i += 1
    runs.append(sigma[start:])
    runs.sort(key=_last)
    return runs


def iter_D(n: int) -> Iterator[tuple[int, ...]]:
    """Permutations with first entry n whose descending runs all have size >= 2,
    lexicographic in the entries after n.

    Those entries are placed left to right, each position trying the values
    not yet placed in increasing order.  An ascent closes a one-entry run
    when the entry before it followed an ascent too, or when it fills the
    last position; every larger value would ascend there too, so the
    position gives up at the first such ascent and the walk backs up.
    """
    if n < 1:
        raise ValueError("n must be positive")
    sigma, last = [n] * n, n - 1
    free = [True] * (n + 1)  # free[x]: value x is not placed yet
    rose = [False] * n  # rose[i]: sigma[i] follows an ascent
    i, x = 1, 1  # the position to fill and the least value to try there
    while i:
        while x < n and not free[x]:
            x += 1
        prev = sigma[i - 1]
        if x < prev or x < n and i < last and not rose[i - 1]:
            sigma[i] = x
            if i == last:
                yield tuple(sigma)
                x += 1
            else:
                free[x], rose[i] = False, x > prev
                i, x = i + 1, 1
        else:
            i -= 1
            free[sigma[i]] = True
            x = sigma[i] + 1


@lru_cache(maxsize=None)
def first_n_druns_index_blocks(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The descending runs of each permutation with first entry maximal, as
    canonical 0-based blocks, lexicographic in the entries after the first;
    cached.  Runs are split on 0-based values directly, with no permutation
    check."""
    return tuple(tuple([run[::-1] for run in _runs((n - 1,) + rest)])
                 for rest in itertools.permutations(range(n - 1)))
