import itertools
import random

import pytest

from troupes.peaks import (
    _regions,
    factors_from_plot,
    peaks,
    southeast_decomposition,
    tree_factors_for_comparison,
)
from troupes.trees import (
    alpha_inverse,
    labeled_multiset_key,
)

from oracles import (
    is_branch,
    regions_by_peak_scan,
    two_child_count,
)

WORKED = (15, 16, 10, 11, 6, 20, 18, 12, 1, 7, 13, 17, 8, 3, 2, 9, 5, 4, 14, 19)


def test_peaks_worked_permutation():
    assert peaks(WORKED) == [2, 4, 6, 12, 16]


def test_peaks_monotone_words():
    assert peaks((1, 2, 3, 4)) == []
    assert peaks((4, 3, 2, 1)) == []


def test_peaks_132():
    assert peaks((1, 3, 2)) == [2]


def test_peaks_endpoints_excluded():
    assert peaks((1, 2)) == []
    assert peaks((2, 1)) == []
    assert peaks((1,)) == []


def test_peaks_rejects_repeats():
    with pytest.raises(ValueError):
        peaks((1, 1, 2))


def test_decomposition_no_peaks():
    assert southeast_decomposition((1, 2, 3)) == [(1, 2, 3)]


def test_decomposition_132():
    # southeast of (2,3): the points (2,3) and (3,2); leftover is (1,1)
    assert southeast_decomposition((1, 3, 2)) == [(1,), (2, 1)]


def test_decomposition_worked_permutation():
    parts = southeast_decomposition(WORKED)
    assert parts[0] == (1,)  # just the point (1,15)
    assert sum(len(p) for p in parts) == len(WORKED)
    assert len(parts) == 6


def test_decomposition_partitions_values():
    for n in range(1, 7):
        for sigma in itertools.permutations(range(1, n + 1)):
            parts = southeast_decomposition(sigma)
            assert sum(len(p) for p in parts) == n
            for p in parts:
                assert sorted(p) == list(range(1, len(p) + 1))


def test_factors_of_decreasing_word_is_single_chain():
    factors = factors_from_plot((4, 3, 2, 1))
    assert len(factors) == 1
    assert is_branch(factors[0].tree) and factors[0].tree.size == 4


def test_factors_132():
    got = labeled_multiset_key(factors_from_plot((1, 3, 2)))
    want = labeled_multiset_key(tree_factors_for_comparison((1, 3, 2)))
    assert got == want


def test_factors_worked_permutation():
    got = labeled_multiset_key(factors_from_plot(WORKED))
    want = labeled_multiset_key(tree_factors_for_comparison(WORKED))
    assert got == want


def test_factors_exhaustive_small():
    for n in range(1, 8):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert labeled_multiset_key(factors_from_plot(sigma)) == (
                labeled_multiset_key(tree_factors_for_comparison(sigma))
            )


def test_peak_count_equals_two_child_count():
    for n in range(1, 8):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert len(peaks(sigma)) == two_child_count(alpha_inverse(sigma).tree)


def test_factors_reject_non_permutation():
    for word in [(2, 5, 1), (1, 1), (0, 1), ()]:
        with pytest.raises(ValueError, match="expected a permutation of 1..n"):
            factors_from_plot(word)


def zigzag_then_rising(half: int) -> tuple[int, ...]:
    """2,1,4,3,... over 1..half (half even), then half+1..2*half rising:
    half/2 - 1 peaks, each higher than the last, and half points above them
    all."""
    return tuple([k + 2 if k % 2 == 0 else k for k in range(half)] + list(range(half + 1, 2 * half + 1)))


def test_regions_match_the_peak_scan():
    """The one-sweep regions against a scan over every peak: every
    permutation up to size 7, seeded ones of sizes 50 and 500, and the
    zigzag-then-rising shape, whose every point the scan checks against
    every peak.  They are compared by value: the entries are distinct, so a
    region's values in position order fix its points."""
    words = [w for n in range(1, 8) for w in itertools.permutations(range(1, n + 1))]
    rng = random.Random(21)
    words += [tuple(rng.sample(range(1, n + 1), n)) for n in (50, 500) for _ in range(20)]
    words += [zigzag_then_rising(half) for half in (2, 4, 10, 1000)]
    for word in words:
        assert _regions(word) == [[v for _, v in region] for region in regions_by_peak_scan(word)]
