import itertools
import os
import subprocess
import sys

import pytest

import troupes.partitions

from troupes.bijections import PhiInput
from troupes.partitions import (
    SetPartition,
    _grow,
    _runs,
    iter_D,
    iter_partitions,
)

from oracles import (
    block_of,
    branch_from_directions,
    druns,
    druns_by_normalisation,
    is_irreducible,
    is_noncrossing,
    iter_sigma_first_n,
    nc_irreducible_min2_by_filter,
    runs_by_ascent_count,
    set_partition_of_by_sets,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]  # B_0..B_9
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]  # C_0..C_9


# A brute-force definitional oracle for the interval class; the noncrossing
# and irreducible ones are in oracles.py.


def oracle_interval(p):
    rel = {(i, j) for b in p.blocks for i in b for j in b}
    return not any(
        (i, k) in rel and (i, j) not in rel
        for i, j, k in itertools.combinations(range(1, p.n + 1), 3)
    )


def test_classify_examples():
    p = SetPartition.of(3, [[1, 2, 3]])
    assert is_irreducible(p) and p in set(iter_partitions(3, "interval"))
    p = SetPartition.of(4, [[1, 3], [2, 4]])
    assert not is_noncrossing(p)
    p = SetPartition.of(3, [[1, 3], [2]])
    assert is_noncrossing(p) and is_irreducible(p)
    assert p not in set(iter_partitions(3, "interval"))


def test_predicates_match_definitions():
    for n in range(1, 8):
        interval = set(iter_partitions(n, "interval"))
        noncrossing = set(iter_partitions(n, "noncrossing"))
        for p in iter_partitions(n):
            assert (p in interval) == oracle_interval(p)
            assert (p in noncrossing) == is_noncrossing(p)


def test_unknown_class_raises():
    with pytest.raises(ValueError, match="unknown partition class"):
        next(iter_partitions(3, "crossing"))


def test_sizes_below_1_raise():
    for family in (iter_partitions, iter_D):
        with pytest.raises(ValueError, match="n must be positive"):
            next(family(0))


def test_singleton_partition_of_one_is_irreducible():
    assert is_irreducible(SetPartition.of(1, [[1]]))


def test_counts():
    for n in range(1, 10):
        assert sum(1 for _ in iter_partitions(n)) == BELL[n]
        assert sum(1 for _ in iter_partitions(n, "noncrossing")) == CATALAN[n]
        assert sum(1 for _ in iter_partitions(n, "interval")) == 2 ** (n - 1)


def test_example_counts():
    assert sum(1 for _ in iter_partitions(4)) == 15
    assert sum(1 for _ in iter_partitions(4, "noncrossing")) == 14
    got = [str(p) for p in iter_partitions(3, "nc_irreducible")]
    assert sorted(got) == ["{{1,2,3}}", "{{1,3},{2}}"]


def test_interval_implies_noncrossing():
    for n in range(1, 9):
        for p in iter_partitions(n, "interval"):
            assert is_noncrossing(p)


def test_min2_class():
    for n in range(2, 8):
        for p in iter_partitions(n, "nc_irreducible_min2"):
            assert all(len(b) >= 2 for b in p.blocks)
            assert is_irreducible(p)
    assert list(iter_partitions(1, "nc_irreducible_min2")) == []


def test_min2_walk_equals_the_filter_in_order():
    for n in range(1, 13):
        kept = list(iter_partitions(n, "nc_irreducible_min2"))
        assert kept == nc_irreducible_min2_by_filter(n), n
        # the walk reaches no partition it would have to drop
        assert sum(1 for _ in _grow(n, n, "nc_irreducible_min2")) == len(kept), n


def test_min2_walk_keeps_an_open_singleton():
    # 2 is alone while 3 and 4 are placed, and 5 joins it later
    assert SetPartition.of(6, [[1, 6], [2, 5], [3, 4]]) in set(
        iter_partitions(6, "nc_irreducible_min2"))


def test_pruned_classes_equal_the_filtered_lattice_in_order():
    # the brute-force route: walk every set partition and keep the class,
    # judged by the definitional oracles
    def oracle_class(klass, p):
        nc = is_noncrossing(p)
        irreducible = nc and block_of(p, 1) == block_of(p, p.n)
        return {
            "interval": oracle_interval(p),
            "noncrossing": nc,
            "nc_irreducible": irreducible,
            "nc_irreducible_min2": irreducible and all(len(b) >= 2 for b in p.blocks),
        }[klass]

    for n in range(1, 9):
        every = list(iter_partitions(n))
        for klass in ("interval", "noncrossing", "nc_irreducible", "nc_irreducible_min2"):
            assert list(iter_partitions(n, klass)) == [
                p for p in every if oracle_class(klass, p)], (n, klass)


def test_no_duplicates_in_enumeration():
    for n in range(1, 8):
        out = [str(p) for p in iter_partitions(n)]
        assert len(out) == len(set(out))


# -- descending runs


def test_druns_displayed_example():
    got = druns((8, 5, 4, 7, 9, 1, 6, 3, 2))
    assert got == SetPartition.of(9, [[4, 5, 8], [7], [1, 9], [2, 3, 6]])


def test_druns_trivial():
    assert druns((1, 2, 3)).blocks == ((1,), (2,), (3,))
    assert druns((3, 2, 1)).blocks == ((1, 2, 3),)


def test_druns_matches_normalised_runs():
    for n in range(1, 9):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert druns(sigma) == druns_by_normalisation(sigma)
    assert druns([3, 1, 2]) == druns_by_normalisation([3, 1, 2])


def test_runs_match_the_ascent_count():
    """The one-loop splitter against a reader that counts each position's
    ascents afresh: the same runs, as they stand in the permutation, in the
    same order, for every permutation of 1..n up to n = 7.  Those with first
    entry n and a singleton run are rejected, with one branch per run."""
    for n in range(1, 8):
        for sigma in itertools.permutations(range(1, n + 1)):
            runs = runs_by_ascent_count(sigma)
            assert _runs(sigma) == runs
            if sigma[0] != n:
                continue
            x = PhiInput(sigma, tuple(branch_from_directions("R" * max(len(r) - 2, 0))
                                      for r in runs))
            if min(map(len, runs)) < 2:
                with pytest.raises(ValueError, match="descending runs must have size >= 2"):
                    x.validate()
            else:
                x.validate()


@pytest.mark.parametrize("sigma", [(), (1, 1), (0, 1), (2, 3), (1, 2, 2), (4, 2, 1)])
def test_druns_rejects_non_permutations(sigma):
    with pytest.raises(ValueError):
        druns(sigma)


def test_druns_block_count():
    for sigma in itertools.permutations(range(1, 7)):
        des = sum(1 for i in range(5) if sigma[i] > sigma[i + 1])
        assert len(druns(sigma).blocks) == 6 - des


def test_druns_reconstruction():
    for n in range(1, 7):
        for sigma in itertools.permutations(range(1, n + 1)):
            runs = sorted(druns(sigma).blocks, key=lambda b: sigma.index(max(b)))
            rebuilt = tuple(x for block in runs for x in sorted(block, reverse=True))
            assert rebuilt == sigma


def test_iter_D_small():
    assert list(iter_D(2)) == [(2, 1)]
    assert list(iter_D(3)) == [(3, 2, 1)]
    assert sorted(iter_D(4)) == [(4, 1, 3, 2), (4, 2, 3, 1), (4, 3, 2, 1)]


def test_iter_D_membership():
    for n in range(2, 8):
        members = set(iter_D(n))
        for sigma in iter_sigma_first_n(n):
            expected = all(len(b) >= 2 for b in druns(sigma).blocks)
            assert (sigma in members) == expected


def test_iter_D_order_matches_the_filtered_enumeration():
    counts = []
    for n in range(1, 10):
        got = list(iter_D(n))
        assert got == [sigma for sigma in iter_sigma_first_n(n)
                       if all(len(b) >= 2 for b in druns(sigma).blocks)]
        counts.append(len(got))
    assert counts == [0, 1, 1, 3, 9, 39, 189, 1107, 7281]


def test_iter_D_yields_at_once_at_length_1500():
    # in a fresh interpreter with a time limit, so an enumeration that scans
    # every first-max permutation fails the test instead of hanging the suite
    code = ("from troupes.partitions import iter_D\n"
            "print(','.join(map(str, next(iter_D(1500)))))\n")
    src = os.path.dirname(os.path.dirname(troupes.partitions.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=30, check=True)
    want = [1500, 1] + [v for k in range(1, 750) for v in (2 * k + 1, 2 * k)]
    assert proc.stdout == ",".join(map(str, want)) + "\n"


def test_D_first_block_contains_n():
    for n in range(2, 8):
        for sigma in iter_D(n):
            first = block_of(druns(sigma), sigma[0])
            assert n in first and len(first) >= 2


def test_branch_tuple_tally_for_D4():
    # sum over the restricted permutations of 2^(run size - 2) products = 3!
    total = 0
    for sigma in iter_D(4):
        prod = 1
        for b in druns(sigma).blocks:
            prod *= 2 ** (len(b) - 2)
        total += prod
    assert total == 6


# -- serialization


def test_str_and_parse():
    p = SetPartition.of(4, [[2, 4], [1], [3]])
    assert str(p) == "{{1},{2,4},{3}}"


def test_of_validates():
    with pytest.raises(ValueError):
        SetPartition.of(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition.of(2, [[1, 2], []])


CLASSES = ("all", "interval", "noncrossing", "nc_irreducible", "nc_irreducible_min2")


def _outcome(build, n, blocks):
    try:
        p = build(n, blocks)
    except ValueError as exc:
        return "ValueError", str(exc)
    return type(p), p


def test_of_matches_the_set_oracle_on_every_grown_partition():
    for klass in CLASSES:
        for n in range(1, 9):
            grown = []
            for blocks in _grow(n, n, klass):
                want = set_partition_of_by_sets(n, blocks)
                assert _outcome(SetPartition.of, n, blocks) == (SetPartition, want)
                grown.append(want)
            assert list(iter_partitions(n, klass)) == grown


@pytest.mark.parametrize("n, make", [
    (1, lambda: [[1], []]),                       # an empty block
    (2, lambda: [[], [2, 1]]),
    (2, lambda: [[1, 1], [2]]),                   # a repeated element
    (3, lambda: [[1, 2], [2, 3]]),                # overlapping blocks
    (3, lambda: [[1, 2], [1, 3]]),                # overlapping, one minimum
    (3, lambda: [[1], [3]]),                      # a missing element
    (3, lambda: [[1], [2], [3, 4]]),              # an element past n
    (3, lambda: [[0, 1], [2, 3]]),
    (3, lambda: (b for b in [[3, 1], [2]])),      # a generator of blocks
    (3, lambda: (b for b in [[3, 1], [1, 2]])),
    (3, lambda: [iter([3, 2]), (x for x in [1])]),
    (4, lambda: [[4, 2], [3], [1]]),              # unsorted blocks
    (0, lambda: []),
    (1, lambda: []),
    (-1, lambda: []),                             # a negative n
    (-3, lambda: []),
])
def test_of_matches_the_set_oracle_on_rejected_and_raw_inputs(n, make):
    assert _outcome(SetPartition.of, n, make()) == _outcome(set_partition_of_by_sets, n, make())
