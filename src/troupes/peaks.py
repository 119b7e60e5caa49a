"""Insertion factors read directly off a permutation's plot.

A peak of a word is an interior position whose value exceeds both neighbors.
The points weakly southeast of a peak (position >= peak position, value <=
peak value) and not weakly southeast of any later peak form one region per
peak; together with the leftover region they partition the plot, and each
region's values, in position order, spell out one insertion factor of the
decreasing tree obtained by inverting the inorder bijection.  Colors stay
out of the picture: everything here lives over a single color.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .trees import LabeledTree, _decreasing_tree, alpha_inverse, labeled_insertion_factors


def peaks(word: Sequence[int]) -> list[int]:
    """All 1-based positions p with word[p-1] < word[p] > word[p+1]."""
    if len(word) == 0:
        raise ValueError("empty word")
    if len(set(word)) != len(word):
        raise ValueError("word entries must be distinct")
    return [
        p
        for p in range(2, len(word))
        if word[p - 2] < word[p - 1] > word[p]
    ]


def _regions(word: Sequence[int]) -> list[list[int]]:
    """The values of each region's points: leftover first, then one region
    per peak in peak order.  Values come out in position order.  The entries
    must be distinct, which the callers check.

    A point belongs to the latest peak at or before it that is at least as
    high.  The sweep drops a peak once a later one is higher, since that one
    then wins every point the dropped one could, so the kept peaks fall in
    height toward the latest, and those high enough for a value are a
    prefix of them, found by bisection.
    """
    regions: list[list[int]] = [[]]
    depths: list[int] = []  # the kept peaks' negated heights, rising
    owners: list[int] = []  # and their region numbers
    last = len(word) - 1
    for i, value in enumerate(word):
        if 0 < i < last and word[i - 1] < value > word[i + 1]:
            while depths and depths[-1] > -value:
                depths.pop()
                owners.pop()
            depths.append(-value)
            owners.append(len(regions))
            regions.append([])
        k = bisect_right(depths, -value)
        regions[owners[k - 1] if k else 0].append(value)
    return regions


def southeast_decomposition(word: Sequence[int]) -> list[tuple[int, ...]]:
    """The normalized words of the regions, leftover region first.

    Normalization replaces values by their ranks within the region (points
    are already in position order), so each region reads as a permutation of
    1..k.
    """
    peaks(word)  # the entry check: a nonempty word of distinct entries
    out = []
    for values in _regions(word):
        ranks = {v: r for r, v in enumerate(sorted(values), start=1)}
        out.append(tuple(ranks[v] for v in values))
    return out


def factors_from_plot(word: Sequence[int]) -> list[LabeledTree]:
    """Labeled insertion factors of the decreasing tree of a permutation,
    extracted from the plot alone.

    The leftover region is one factor as it stands; every peak region drops
    its first point (the peak, which is the region's maximum and belongs to
    the factor's governing vertex) and the rest spells the factor's inorder.
    Labels are the original values, matching the restriction labeling of the
    factors of ``alpha_inverse(word)``.  The permutation check is the only
    one: a permutation's regions are nonempty and repeat-free, so each factor
    comes straight from the stack pass.
    """
    n = len(word)
    if n == 0 or sorted(word) != list(range(1, n + 1)):
        raise ValueError("expected a permutation of 1..n")
    leftover, *regions = _regions(word)
    return [_decreasing_tree(values, None, 0, ())
            for values in (leftover, *(region[1:] for region in regions))]


def tree_factors_for_comparison(word: Sequence[int]) -> list[LabeledTree]:
    """The oracle side: labeled insertion factors via the tree route."""
    return labeled_insertion_factors(alpha_inverse(word))
