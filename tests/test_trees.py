import gc
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

import troupes.trees

from troupes.bijections import (
    PhiInput,
    PsiInput,
    iter_phi_inputs,
    iter_psi_inputs,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
)
from troupes.cumulants import equivalence_reports
from troupes.peaks import factors_from_plot, tree_factors_for_comparison
from troupes.partitions import SetPartition
from troupes.troupe import all_trees, from_table, random_branch_table
from troupes.trees import (
    BOX,
    ColoredTree,
    LabeledTree,
    alpha,
    alpha_inverse,
    beta,
    encode,
    encode_labeled,
    enumerate_trees,
    factor_paths,
    insert,
    inorder,
    insertion_factors,
    iter_bpt_word,
    iter_branch_word,
    iter_dbpt,
    iter_dbpt_word,
    labeled_insertion_factors,
    labeled_multiset_key,
    multiset_key,
    postorder,
    right_edges,
    size_word,
    stack_sort,
)

from oracles import (
    alpha_inverse_by_max_split,
    bpt_by_shapes,
    branch_from_directions,
    branch_profile,
    color_by_labels,
    insertion_factors_by_profiles,
    labeled_insertion_factors_by_profiles,
    psi_via_insertions,
    encode_by_closure,
    encode_labeled_by_closure,
    inorder_by_closure,
    is_branch,
    is_full,
    is_motzkin,
    postorder_by_closure,
    swing,
    swing_labeled,
    traversal_labeling,
    two_child_count,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]  # C_0..C_8


def single(color=0, box=0):
    return ColoredTree(((color, None, None),), 0, box)


def root_with_left():
    return ColoredTree(((0, None, None), (0, 0, None)), 1)


def root_with_both():
    return ColoredTree(((0, None, None), (0, None, None), (0, 0, 1)), 2)


# -- traversals and labelings


def test_traversal_single_node():
    for kind in ("inorder", "postorder"):
        assert traversal_labeling(single(), kind).labels == (1,)


def test_traversal_root_with_left_child():
    t = root_with_left()
    assert traversal_labeling(t, "inorder").labels == (1, 2)
    assert traversal_labeling(t, "postorder").labels == (1, 2)


def test_traversal_root_with_both_children():
    t = root_with_both()
    # node ids: 0 = left child, 1 = right child, 2 = root
    assert traversal_labeling(t, "inorder").labels == (1, 3, 2)
    assert traversal_labeling(t, "postorder").labels == (1, 2, 3)


def test_traversal_empty_tree_rejected():
    with pytest.raises(ValueError):
        traversal_labeling(ColoredTree((), None), "inorder")


def test_empty_words_rejected():
    with pytest.raises(ValueError, match="alpha_inverse needs a nonempty word"):
        alpha_inverse(())
    for family in (iter_branch_word, iter_dbpt_word):
        with pytest.raises(ValueError, match="color word must be nonempty"):
            next(family(()))


def test_postorder_labeling_always_decreasing():
    for n in range(1, 7):
        for t in iter_bpt_word(size_word(n)):
            traversal_labeling(t, "postorder").validate()


def test_postorder_injection_on_shapes():
    for n in range(1, 8):
        seen = {
            encode_labeled(traversal_labeling(t, "postorder"))
            for t in iter_bpt_word(size_word(n))
        }
        assert len(seen) == CATALAN[n]


# -- alpha, its inverse, stack-sorting


def test_alpha_single():
    assert alpha(alpha_inverse((1,))) == (1,)


def test_alpha_root_with_right_child():
    lt = LabeledTree(ColoredTree(((0, None, None), (0, None, 0)), 1), (1, 2))
    assert alpha(lt) == (2, 1)


def test_alpha_left_comb():
    lt = alpha_inverse((1, 2, 3))
    assert alpha(lt) == (1, 2, 3)
    # left comb: every node has only a left child except the bottom
    assert all(right is None for _, _, right in lt.tree.nodes)


def test_alpha_inverse_231():
    lt = alpha_inverse((2, 3, 1))
    root = lt.tree.root
    _, left, right = lt.tree.nodes[root]
    assert lt.labels[root] == 3
    assert lt.labels[left] == 2
    assert lt.labels[right] == 1


def test_alpha_bijection_exhaustive():
    for n in range(1, 9):
        seen = set()
        for sigma in itertools.permutations(range(1, n + 1)):
            lt = alpha_inverse(sigma)
            assert alpha(lt) == sigma
            seen.add(encode_labeled(lt))
        assert len(seen) == len(list(itertools.permutations(range(n))))


def test_alpha_inverse_is_decreasing():
    for sigma in itertools.permutations(range(1, 6)):
        alpha_inverse(sigma).validate()


def test_alpha_inverse_matches_max_split_build():
    """The stack pass gives the recursive build's node ids and labels, with
    every color 0, compared with ``==``."""
    for n in range(1, 9):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert alpha_inverse(sigma) == alpha_inverse_by_max_split(sigma)


@pytest.mark.parametrize("word", [(2, 2), (3, 1, 3), (5, 2, 2), (2, 2, 1), (4, 1, 2, 4),
                                  (6, 3, 1, 3)])
def test_alpha_inverse_rejects_a_repeated_entry(word):
    with pytest.raises(ValueError, match="word entries must be distinct"):
        alpha_inverse(word)


def _stack_sort_recursive(word):
    if not word:
        return ()
    m = word.index(max(word))
    return (
        _stack_sort_recursive(word[:m])
        + _stack_sort_recursive(word[m + 1:])
        + (word[m],)
    )


def test_stack_sort_examples():
    assert stack_sort((1, 2, 3)) == (1, 2, 3)
    assert stack_sort((2, 3, 1)) == (2, 1, 3)
    assert stack_sort((3, 2, 1)) == (1, 2, 3)


def test_stack_sort_matches_recursion():
    for n in range(1, 8):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert stack_sort(sigma) == _stack_sort_recursive(sigma)
            assert stack_sort(sigma) == beta(alpha_inverse(sigma))


# -- insertion


def test_insert_smallest():
    t = insert(single(color=1, box=3), 0, single(color=2, box=4))
    assert encode(t) == "3:(4 (1 . .) (2 . .))"


def test_insert_size_identity():
    for n1, n2 in [(2, 3), (3, 2), (5, 3)]:
        t1 = next(iter_bpt_word(size_word(n1)))
        t2 = next(iter_bpt_word(size_word(n2)))
        assert insert(t1, 0, t2).size == n1 + n2 + 1


def test_insert_errors():
    with pytest.raises(ValueError):
        insert(ColoredTree((), None), 0, single())
    with pytest.raises(ValueError):
        insert(single(), 5, single())


def test_insert_into_branch_leaf_recovers_operands():
    b = branch_from_directions("LR", colors_root_down=[1, 2, 3], box_color=7)
    other = branch_from_directions("L", colors_root_down=[4, 5], box_color=8)
    t = insert(b, 0, other)  # id 0 is the bottom (leaf) vertex
    assert multiset_key(insertion_factors(t)) == multiset_key([b, other])


def test_factors_of_branch_is_itself():
    for n in range(1, 6):
        for b in iter_branch_word(size_word(n)):
            factors = insertion_factors(b)
            assert len(factors) == 1
            assert encode(factors[0]) == encode(b)


def test_factor_count_is_two_child_count_plus_one():
    for n in range(1, 7):
        for t in iter_bpt_word(size_word(n)):
            assert len(insertion_factors(t)) == two_child_count(t) + 1


def test_graft_factor_multiset_union_exhaustive():
    """Insertion factors of a graft are the multiset union of the operands'."""
    for n1 in range(1, 7):
        for n2 in range(1, 8 - n1):
            for t1 in iter_bpt_word(size_word(n1)):
                key1 = multiset_key(insertion_factors(t1))
                for t2 in iter_bpt_word(size_word(n2)):
                    key2 = multiset_key(insertion_factors(t2))
                    expected = tuple(sorted(key1 + key2))
                    for v in range(n1):
                        t = insert(t1, v, t2)
                        t.validate()
                        assert multiset_key(insertion_factors(t)) == expected


def test_graft_factor_multiset_union_with_colors():
    words = [(0, 1), (1, 0, 1), (0, 0, 1)]
    trees = [t for w in words for t in iter_bpt_word(w)]
    for t1 in trees:
        key1 = multiset_key(insertion_factors(t1))
        for t2 in trees:
            expected = tuple(sorted(key1 + multiset_key(insertion_factors(t2))))
            for v in range(t1.size):
                assert multiset_key(insertion_factors(insert(t1, v, t2))) == expected


def test_labeled_factors_partition_non_governing_labels():
    # factor vertex sets exclude each block's governing two-child vertex
    for sigma in itertools.permutations(range(1, 6)):
        lt = alpha_inverse(sigma)
        governing = {
            lt.labels[v]
            for v, (_, left, right) in enumerate(lt.tree.nodes)
            if left is not None and right is not None
        }
        labels = [l for f in labeled_insertion_factors(lt) for l in f.labels]
        assert sorted(labels) == sorted(set(range(1, 6)) - governing)


# Brute-force oracle for the factor walk: group the vertices under their
# governing two-child vertex (or the box), then rebuild each block's branch
# by climbing parent pointers to the nearest ancestor in the same block.


def oracle_factor_blocks(t):
    owner_of = [BOX] * t.size

    def walk(v, owner):
        _, left, right = t.nodes[v]
        two = left is not None and right is not None
        owner_of[v] = v if two else owner
        if left is not None:
            walk(left, owner)
        if right is not None:
            walk(right, v if two else owner)

    walk(t.root, BOX)
    blocks = {BOX: []}
    for v in range(t.size):
        blocks.setdefault(owner_of[v], []).append(v)
    return [(BOX, blocks[BOX])] + [(v, blocks[v]) for v in sorted(blocks) if v != BOX]


def oracle_branch_of_block(t, owner, members):
    parents = [None] * t.size
    for v, (_, left, right) in enumerate(t.nodes):
        for c in (left, right):
            if c is not None:
                parents[c] = v
    vertices = [u for u in members if u != owner]
    index = {u: i for i, u in enumerate(vertices)}
    lefts = [None] * len(vertices)
    rights = [None] * len(vertices)
    roots = []
    for u in vertices:
        cur, p = u, parents[u]
        while p is not None and p != owner and p not in index:
            cur, p = p, parents[p]
        if p is None or p == owner:
            roots.append(index[u])
            continue
        side = lefts if t.nodes[p][1] == cur else rights
        assert side[index[p]] is None, "factor is not a branch"
        side[index[p]] = index[u]
    assert len(roots) == 1, "factor block is not connected"
    box = t.box_color if owner == BOX else t.nodes[owner][0]
    nodes = tuple((t.nodes[u][0], lefts[i], rights[i]) for i, u in enumerate(vertices))
    return ColoredTree(nodes, roots[0], box), vertices


def oracle_psi_key(t):
    n = t.size + 1
    post = {v: k for k, v in enumerate(postorder(t), start=1)}
    pairs = []
    for owner, members in oracle_factor_blocks(t):
        labels = sorted(post[u] for u in members)
        if owner == BOX:
            labels.append(n)
        branch, _ = oracle_branch_of_block(t, owner, members)
        pairs.append((tuple(labels), encode(branch)))
    pairs.sort()
    return tuple(b for b, _ in pairs), tuple(e for _, e in pairs)


def test_factor_walk_matches_brute_force_oracle():
    rng = random.Random(5)
    words = [size_word(n) for n in range(1, 9)]
    words += [tuple(rng.randrange(3) for _ in range(n + 1)) for n in range(1, 9)]
    # every dbpt up to size 6, and every bpt up to size 8 labelled in postorder
    cases = [lt for w in words if len(w) <= 7 for lt in iter_dbpt_word(w)]
    cases += [traversal_labeling(t, "postorder") for w in words for t in iter_bpt_word(w)]
    for lt in cases:
        t = lt.tree
        blocks = [(o, m, oracle_branch_of_block(t, o, m)) for o, m in oracle_factor_blocks(t)]
        assert multiset_key(insertion_factors(t)) == multiset_key([b for _, _, (b, _) in blocks])
        assert labeled_multiset_key(labeled_insertion_factors(lt)) == labeled_multiset_key([
            LabeledTree(b, tuple(lt.labels[u] for u in vs)) for _, _, (b, vs) in blocks])
        assert psi_inverse(t).key() == oracle_psi_key(t)
        # the walk's own claim: postorder labels rise from a factor's bottom
        # vertex up, below the label of its owner
        post = traversal_labeling(t, "postorder").labels
        for owner, vertices, _ in factor_paths(t):
            names = [post[u] for u in vertices] + ([] if owner == BOX else [post[owner]])
            assert names == sorted(names)


# -- swing


def test_swing_flips_single_child():
    t = root_with_left()
    s = swing(t, 1)
    assert s.nodes[1] == (0, None, 0)
    assert encode(swing(s, 1)) == encode(t)


def test_swing_rejects_leaf_and_two_children():
    with pytest.raises(ValueError):
        swing(single(), 0)
    with pytest.raises(ValueError):
        swing(root_with_both(), 2)


def test_swing_branch_shape():
    b = branch_from_directions("LL")
    s = swing(b, b.root)
    assert branch_profile(s)[0] == ["R", "L"]


def test_swing_preserves_decreasing_labels():
    for sigma in itertools.permutations(range(1, 6)):
        lt = alpha_inverse(sigma)
        for v, (_, left, right) in enumerate(lt.tree.nodes):
            if (left is None) != (right is None):
                swing_labeled(lt, v).validate()


# -- enumeration


def test_enumeration_counts():
    for n in range(1, 9):
        assert sum(1 for _ in iter_bpt_word(size_word(n))) == CATALAN[n]
        assert sum(1 for _ in iter_branch_word(size_word(n))) == 2 ** (n - 1)
    for n in range(1, 7):
        count = 0
        seen = set()
        for lt in iter_dbpt_word(size_word(n)):
            count += 1
            seen.add(encode_labeled(lt))
        import math

        assert count == math.factorial(n) == len(seen)


def test_enumeration_no_duplicates():
    for n in range(1, 8):
        encodings = [encode(t) for t in iter_bpt_word(size_word(n))]
        assert len(encodings) == len(set(encodings))


def _listing(kind, word):
    enc = encode_labeled if kind == "dbpt" else encode
    return [enc(t) for t in enumerate_trees(kind, word)]


def test_enumeration_order_is_stable():
    assert _listing("bpt", size_word(3)) == [
        "0:(0 . (0 . (0 . .)))",
        "0:(0 . (0 (0 . .) .))",
        "0:(0 (0 . .) (0 . .))",
        "0:(0 (0 . (0 . .)) .)",
        "0:(0 (0 (0 . .) .) .)",
    ]
    assert _listing("branch", size_word(3)) == [
        "0:(0 (0 (0 . .) .) .)",
        "0:(0 (0 . (0 . .)) .)",
        "0:(0 . (0 (0 . .) .))",
        "0:(0 . (0 . (0 . .)))",
    ]
    assert _listing("dbpt", size_word(3)) == [
        "0:(0|3 (0|2 (0|1 . .) .) .)",
        "0:(0|3 (0|1 . .) (0|2 . .))",
        "0:(0|3 (0|2 . (0|1 . .)) .)",
        "0:(0|3 (0|2 . .) (0|1 . .))",
        "0:(0|3 . (0|2 (0|1 . .) .))",
        "0:(0|3 . (0|2 . (0|1 . .)))",
    ]
    word = (0, 1, 0, 1)
    assert _listing("bpt", word) == [
        "1:(0 . (1 . (0 . .)))",
        "1:(0 . (1 (0 . .) .))",
        "1:(0 (0 . .) (1 . .))",
        "1:(0 (1 . (0 . .)) .)",
        "1:(0 (1 (0 . .) .) .)",
    ]
    assert _listing("branch", word) == [
        "1:(0 (1 (0 . .) .) .)",
        "1:(0 (1 . (0 . .)) .)",
        "1:(0 . (1 (0 . .) .))",
        "1:(0 . (1 . (0 . .)))",
    ]
    assert _listing("dbpt", word) == [
        "1:(0|3 (1|2 (0|1 . .) .) .)",
        "1:(0|3 (0|1 . .) (1|2 . .))",
        "1:(0|3 (1|2 . (0|1 . .)) .)",
        "1:(0|3 (1|2 . .) (0|1 . .))",
        "1:(0|3 . (1|2 (0|1 . .) .))",
        "1:(0|3 . (1|2 . (0|1 . .)))",
    ]


def test_colored_word_counts():
    # each shape admits exactly one postorder coloring
    for n in range(2, 7):
        for word in itertools.product((0, 1), repeat=n):
            assert sum(1 for _ in iter_bpt_word(word)) == CATALAN[n - 1]
            assert sum(1 for _ in iter_branch_word(word)) == 2 ** (n - 2)


def test_branch_enumeration_matches_the_direction_builder():
    """Same records in the same order, node ids included, as building each
    branch from its root-down sides, ``L`` before ``R``: every 3-color word
    up to length 6 and 2-color word up to length 9."""
    words = [w for n in range(1, 7) for w in itertools.product((0, 1, 2), repeat=n)]
    words += [w for n in range(1, 10) for w in itertools.product((0, 1), repeat=n)]
    for word in words:
        sides = itertools.product("LR", repeat=len(word) - 2) if len(word) > 1 else ()
        expected = [branch_from_directions(s, word[-2::-1], word[-1]) for s in sides]
        branches = list(iter_branch_word(word))
        assert all(type(b) is ColoredTree for b in branches)
        assert branches == expected


def test_bpt_enumeration_matches_shape_oracle():
    """Same records in the same order, node ids included."""
    words = [w for n in range(1, 8) for w in itertools.product((0, 1), repeat=n)]
    words += [w for n in range(1, 6) for w in itertools.product((0, 1, 2), repeat=n)]
    words += [size_word(n) for n in range(10)]
    for word in words:
        trees = list(iter_bpt_word(word))
        assert all(type(t) is ColoredTree for t in trees)
        assert trees == bpt_by_shapes(word)


def test_bpt_enumeration_memory_is_bounded_by_the_size():
    # the 58,786 trees of size 11 are never held at once
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        for _ in itertools.islice(iter_bpt_word(size_word(11)), 100):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_word_length_one_families():
    assert [t.size for t in iter_bpt_word((5,))] == [0]
    assert next(iter_bpt_word((5,))).box_color == 5
    assert list(iter_branch_word((5,))) == []
    assert [lt.size for lt in iter_dbpt_word((5,))] == [0]
    assert [(t.size, t.box_color, c) for t, c in iter_dbpt((5,))] == [(0, 5, 1)]


def test_colored_postorder_matches_word():
    word = (0, 2, 1, 2, 0)
    for t in iter_bpt_word(word):
        assert tuple(t.nodes[v][0] for v in postorder(t)) == word[:-1]
        assert t.box_color == word[-1]
    for b in iter_branch_word(word):
        assert tuple(b.nodes[v][0] for v in postorder(b)) == word[:-1]
        assert is_branch(b)
    for lt in iter_dbpt_word(word):
        lt.validate()
        assert all(
            lt.tree.nodes[v][0] == word[lt.labels[v] - 1]
            for v in range(lt.size)
        )


def test_iter_dbpt_groups_the_labeled_family():
    words = [w for n in range(1, 8) for w in itertools.product((0, 1), repeat=n)]
    words += [w for n in range(1, 6) for w in itertools.product((0, 1, 2), repeat=n)]
    for word in words:
        grouped = {}
        for t, count in iter_dbpt(word):
            t.validate()
            assert t.box_color == word[-1]
            assert postorder(t) == list(range(t.size))
            assert encode(t) not in grouped
            grouped[encode(t)] = count
        assert grouped == Counter(encode(lt.tree) for lt in iter_dbpt_word(word))


def _hook_product(t, v):
    """Size of the subtree at ``v`` and the product of its subtree sizes."""
    if v is None:
        return 0, 1
    _, left, right = t.nodes[v]
    (ls, lp), (rs, rp) = _hook_product(t, left), _hook_product(t, right)
    size = ls + rs + 1
    return size, lp * rp * size


def test_iter_dbpt_single_color_hook_lengths():
    # s! / (product of subtree sizes) decreasing labelings per shape, one
    # yield per shape of size s
    for s in range(10):
        grouped = list(iter_dbpt(size_word(s)))
        assert len(grouped) == math.comb(2 * s, s) // (s + 1)
        for t, count in grouped:
            assert count == math.factorial(s) // _hook_product(t, t.root)[1]
        assert sum(count for _, count in grouped) == math.factorial(s)


def test_enumerate_trees_dispatch():
    assert sum(1 for _ in enumerate_trees("bpt", size_word(4))) == 14
    assert sum(1 for _ in enumerate_trees("branch", (0, 0, 0))) == 2
    assert sum(1 for _ in enumerate_trees("DBPT", (0, 1, 0))) == 2
    with pytest.raises(ValueError):
        enumerate_trees("weird", (0, 0))
    with pytest.raises(ValueError):
        list(enumerate_trees("bpt", ()))
    with pytest.raises(ValueError):
        list(iter_dbpt(()))


def test_size_word_is_the_constant_word():
    assert size_word(0) == (0,)
    assert size_word(3) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        size_word(-1)


# -- predicates


def test_predicates():
    assert is_branch(branch_from_directions("LRL"))
    assert not is_branch(root_with_both())
    assert is_full(root_with_both())
    assert not is_full(root_with_left())
    assert is_motzkin(root_with_left())
    assert not is_motzkin(ColoredTree(((0, None, None), (0, None, 0)), 1))
    assert right_edges(branch_from_directions("LRR")) == 2


def test_motzkin_shape_counts():
    motzkin = [1, 1, 2, 4, 9, 21, 51]  # trees of sizes 1..7
    for n in range(1, 8):
        trees = iter_bpt_word(size_word(n))
        assert sum(1 for t in trees if is_motzkin(t)) == motzkin[n - 1]


# -- canonical encoding


def test_encode_examples():
    assert encode(ColoredTree((), None, 0)) == "0:."
    assert encode(ColoredTree(((1, None, None),), 0, 0)) == "0:(1 . .)"


def test_walks_match_the_closure_oracles():
    """The module-level walkers give what the self-recursive closures gave."""
    rng = random.Random(8)
    colored = [tuple(rng.randrange(3) for _ in range(rng.randint(1, 7)))
               for _ in range(20)]
    plain = [t for n in range(9) for t in iter_bpt_word(size_word(n))]
    plain += [t for word in colored for kind in ("bpt", "branch")
              for t in enumerate_trees(kind, word)]
    labeled = [lt for n in range(7) for lt in iter_dbpt_word(size_word(n))]
    labeled += [lt for word in colored for lt in iter_dbpt_word(word)]
    # trees of 300 vertices, past the encoder's recursive size, with long
    # one-child runs on both sides: the decreasing trees of words made of
    # ascending and descending stretches
    for seed in range(4):
        r = random.Random(seed)
        values = r.sample(range(1, 301), 300)
        word = []
        while values:
            k = r.randint(1, 60)
            word += sorted(values[:k], reverse=r.random() < 0.5)
            del values[:k]
        labeled.append(color_by_labels(alpha_inverse(word), [r.randrange(3) for _ in range(300)],
                                       1))
    plain += [lt.tree for lt in labeled]
    for t in plain:
        assert encode(t) == encode_by_closure(t)
        assert inorder(t) == inorder_by_closure(t)
        assert postorder(t) == postorder_by_closure(t)
    for lt in labeled:
        assert encode_labeled(lt) == encode_labeled_by_closure(lt)


def test_library_leaves_no_cyclic_garbage():
    """No walk closes over itself, so library calls leave no reference cycle
    for the collector."""
    word = (0, 1, 1, 0, 1, 0)
    rng = random.Random(1)
    gc.collect()
    gc.disable()
    try:
        equivalence_reports(from_table(random_branch_table(3, 5, 2)), [0, 1], 5, 7)
        for x in iter_phi_inputs(word):
            lt = phi(x)
            multiset_key([f.tree for f in labeled_insertion_factors(lt)])
            assert phi_inverse(lt).key() == x.key()
            encode_labeled(lt)
        sorted(encode_labeled(lt) for lt in iter_dbpt_word(word))
        for _ in range(50):
            sigma = tuple(rng.sample(range(1, 10), 9))
            assert (labeled_multiset_key(factors_from_plot(sigma))
                    == labeled_multiset_key(tree_factors_for_comparison(sigma)))
        for x in iter_psi_inputs(word):
            t = psi(x)
            multiset_key(insertion_factors(t))
            assert psi_inverse(t).key() == x.key()
            encode(t)
        sorted(encode(t) for t in iter_bpt_word(word))
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


def test_validate_catches_breakage():
    with pytest.raises(ValueError):
        ColoredTree(((0, 0, None),), 0).validate()  # self loop
    with pytest.raises(ValueError):
        ColoredTree(((0, None, None), (0, None, None)), 1).validate()  # unreachable node
    # a nonempty tree with no root: every walk and both encoders say so
    rootless = ColoredTree(((0, None, None),), None)
    for walk in (ColoredTree.validate, postorder, inorder, factor_paths, insertion_factors,
                 all_trees().evaluate, psi_inverse, encode,
                 lambda t: encode_labeled(LabeledTree(t, (1,)))):
        with pytest.raises(ValueError, match="root must be a vertex"):
            walk(rootless)
    broken = [
        ((0, None, None), (0, 0, 0)),  # vertex 0 under both slots of its parent
        ((0, None, None), (0, 0, None), (0, 0, 1)),  # vertex 0 under two parents
        ((0, None, None), (0, -1, 0)),  # a negative child index
        ((0, None, None), (0, 0, 2)),  # a child index past the last vertex
    ]
    for nodes in broken:
        for walk in (ColoredTree.validate, postorder, inorder):
            with pytest.raises(ValueError):
                walk(ColoredTree(nodes, len(nodes) - 1))


def test_walks_stop_on_looping_one_child_links():
    # one-child links that loop pass is_branch, but no walk down them ends
    loops = [ColoredTree(((0, 0, None),), 0), ColoredTree(((0, None, 1), (0, 0, None)), 0)]
    for t in loops:
        assert is_branch(t)
        with pytest.raises(ValueError):
            read_branch(t)
        for walk in (inorder, postorder):
            with pytest.raises(ValueError):
                walk(t)
    with pytest.raises(ValueError):
        PhiInput((2, 1), loops[:1]).validate()
    with pytest.raises(ValueError):
        PsiInput(SetPartition.of(3, [[1, 2, 3]]), loops[1:]).validate()
    # the encoder's loop, in a tree past its recursive size
    with pytest.raises(ValueError):
        encode(ColoredTree(tuple((0, (v + 1) % 300, None) for v in range(300)), 0))
    # a vertex the walk from the root never meets makes no branch either
    with pytest.raises(ValueError):
        read_branch(ColoredTree(((0, None, None), (0, None, None)), 0))


def read_branch(b):
    """The run reader on the one run 0..size, so on labels 1..size from the
    root down: colors root-down and the depths whose child hangs left."""
    word, left_steps = troupes.bijections._read_runs(len(b.nodes), [range(len(b.nodes) + 1)],
                                                     (b,), "run")
    return word[1:], {label - 1 for label in left_steps}


def test_branch_reader_matches_the_profile():
    for word in itertools.product((0, 1, 2), repeat=5):
        for b in iter_branch_word(word):
            sides, colors, _ = branch_profile(b)
            assert read_branch(b) == (colors, {d for d, side in enumerate(sides) if side == "L"})
    # not branches: two children, a vertex left out, a child index out of
    # range (below the bottom vertex or an interior one) or missing, no
    # root, the empty tree
    for nodes, root in [(((0, None, None), (0, None, None), (0, 0, 1)), 2),
                        (((0, None, None), (0, None, None), (0, 0, None)), 2),
                        (((0, None, None), (0, 5, None)), 1),
                        (((0, -1, None), (0, None, None)), 0),
                        (((0, None, None), (0, 0, None), (0, -1, None)), 2),
                        (((0, None, None), (0, "0", None)), 1),
                        (((0, None, None), (0, 0, None)), None),
                        ((), None)]:
        with pytest.raises(ValueError):
            read_branch(ColoredTree(nodes, root))


# a vertex under both slots of one parent, one under two parents, a loop,
# and a vertex under both slots of one parent beside an unreachable vertex,
# so that the walk makes no more vertex visits than the tree has vertices
REACHED_TWICE = [
    ColoredTree(((0, None, None), (0, 0, 0)), 1),
    ColoredTree(((0, None, None), (0, 0, None), (0, 0, 1)), 2),
    ColoredTree(((0, None, 1), (0, 0, None)), 0),
    ColoredTree(((0, None, None), (0, None, None), (0, 0, 0)), 2),
]


@pytest.mark.parametrize("t", REACHED_TWICE)
def test_walks_report_a_vertex_reached_twice(t):
    for walk in (ColoredTree.validate, postorder, inorder, factor_paths,
                 all_trees().evaluate):
        with pytest.raises(ValueError, match="a vertex is reached twice"):
            walk(t)


def test_encoder_reports_a_vertex_reached_twice():
    loop = ColoredTree(tuple((0, (v + 1) % 300, None) for v in range(300)), 0)
    # a left chain under both slots of the root, past the encoder's
    # recursive size, beside unreachable vertices
    shared = ColoredTree(tuple((0, v - 1 if v else None, None) for v in range(299))
                         + ((0, 149, 149),), 299)
    self_loop = ColoredTree(((0, 0, None),), 0)
    # from the recursive size on, the loop that marks vertices writes the tree
    size = troupes.trees._RECURSIVE_SIZE
    at_size = ColoredTree(((0, None, None), (0, 0, 0))
                          + tuple((0, v - 1, None) for v in range(2, size)), size - 1)
    for t in (loop, shared, self_loop, at_size):
        with pytest.raises(ValueError, match="a vertex is reached twice"):
            encode(t)


def test_encoder_refuses_sharing_that_doubles_the_text():
    # below the recursive size, vertex i under both slots of vertex i - 1:
    # the unfolded text would hold 2^n - 1 vertices.  In a fresh interpreter
    # with a time limit, so an encoder that unfolds it fails the test rather
    # than hanging the run.
    code = (
        "import time\n"
        "from troupes.trees import ColoredTree, LabeledTree, encode, encode_labeled\n"
        "for n in (24, 60, 255):\n"
        "    t = ColoredTree(tuple((0, v + 1, v + 1) for v in range(n - 1))\n"
        "                    + ((0, None, None),), 0)\n"
        "    for call in (lambda: encode(t),\n"
        "                 lambda: encode_labeled(LabeledTree(t, tuple(range(n, 0, -1))))):\n"
        "        start = time.perf_counter()\n"
        "        try:\n"
        "            call()\n"
        "        except ValueError as e:\n"
        "            print(n, e, time.perf_counter() - start < 1)\n"
    )
    src = os.path.dirname(os.path.dirname(troupes.trees.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=30, check=True)
    assert proc.stdout.splitlines() == [
        f"{n} a vertex is reached twice: the child links loop or share a vertex True"
        for n in (24, 24, 60, 60, 255, 255)]


def test_encoder_leaves_sharing_within_64_characters_per_vertex_to_validate():
    # a leaf under both slots of a root: 18 characters besides the root's
    # colour, so a 110-digit colour makes 128 = 64 * 2 and a 111-digit one 129
    for digits, refused in ((110, False), (111, True)):
        color = 10 ** (digits - 1)
        t = ColoredTree(((0, None, None), (color, 0, 0)), 1)
        if refused:
            with pytest.raises(ValueError, match="a vertex is reached twice"):
                encode(t)
        else:
            assert encode(t) == f"0:({color} (0 . .) (0 . .))"
        with pytest.raises(ValueError, match="a vertex is reached twice"):
            t.validate()


def test_encoder_writes_colours_longer_than_64_characters():
    # every join of a tree with 61-digit colours is longer than 64 characters
    # per vertex, and holds one "(" per vertex
    color = 10 ** 60
    for n in range(1, 10):
        for t in iter_bpt_word([color] * n):
            assert encode(t) == encode_by_closure(t)
    for lt in iter_dbpt_word([color] * 6):
        assert encode_labeled(lt) == encode_labeled_by_closure(lt)


# a negative child id, which indexing would wrap onto the last vertex, and
# a child id past the last vertex
OUT_OF_RANGE = [
    ColoredTree(((0, -1, None), (0, None, None)), 0),
    ColoredTree(((0, 5, None), (0, None, None)), 0),
    ColoredTree(((0, None, None), (0, 0, 2)), 1),
]


@pytest.mark.parametrize("t", OUT_OF_RANGE)
def test_factor_walk_rejects_a_child_id_out_of_range(t):
    for walk in (factor_paths, all_trees().evaluate):
        with pytest.raises(ValueError, match="not in 0..1"):
            walk(t)


def test_encoders_reject_a_child_id_out_of_range():
    labels = (2, 1)
    # below the recursive size, a negative id, in a child slot or as the
    # root, would wrap onto the last vertex
    for t in OUT_OF_RANGE + [ColoredTree(((0, None, None), (0, 0, None)), -1)]:
        with pytest.raises(ValueError, match="out of range"):
            encode(t)
        with pytest.raises(ValueError, match="out of range"):
            encode_labeled(LabeledTree(t, labels))
    # past the recursive size, a left chain whose bottom child id is -1 (the
    # last vertex, which nothing else reaches) or one past the last vertex
    for bottom in (-1, 300):
        chain = ColoredTree(tuple((0, v + 1, None) for v in range(298))
                            + ((0, bottom, None), (0, None, None)), 0)
        with pytest.raises(ValueError, match="out of range"):
            encode(chain)
        with pytest.raises(ValueError, match="out of range"):
            encode_labeled(LabeledTree(chain, tuple(range(300, 0, -1))))


def test_encode_labeled_rejects_a_label_count_that_is_not_the_vertex_count():
    t = ColoredTree(((0, None, None), (0, 0, None)), 1)
    assert encode_labeled(LabeledTree(t, (1, 2))) == "0:(0|2 (0|1 . .) .)"
    for labels in ((2,), (1, 2, 3), ()):
        with pytest.raises(ValueError, match=f"expected 2 labels, one per vertex, got {len(labels)}"):
            encode_labeled(LabeledTree(t, labels))
    chain = ColoredTree(tuple((0, v + 1, None) for v in range(299)) + ((0, None, None),), 0)
    with pytest.raises(ValueError, match="expected 300 labels"):
        encode_labeled(LabeledTree(chain, tuple(range(301, 0, -1))))


def test_factor_paths_stops_on_looping_links():
    # in a fresh interpreter with a time limit, so a walk that never ends
    # fails the test instead of hanging the suite
    code = (
        "from troupes.trees import ColoredTree, factor_paths\n"
        "from troupes.troupe import all_trees\n"
        "loops = [((0, 0, None),), ((0, None, 0),), ((0, 0, 0),),\n"
        "         ((0, None, None), (0, 0, 1)), ((0, 1, None), (0, None, 0))]\n"
        "for nodes in loops:\n"
        "    for walk in (factor_paths, all_trees().evaluate):\n"
        "        try:\n"
        "            walk(ColoredTree(nodes, len(nodes) - 1))\n"
        "        except ValueError:\n"
        "            continue\n"
        "        print('no error', nodes)\n"
        "print('done')\n"
    )
    src = os.path.dirname(os.path.dirname(troupes.trees.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=30, check=True)
    assert proc.stdout.splitlines() == ["done"]


def test_walks_and_encode_at_1500_vertices():
    n = 1500
    colors = [v % 3 for v in range(n)]  # root down
    for directions, inorder_ids, opening, closing in (
            ("L" * (n - 1), list(range(n)), "({} ", " .)"),
            ("R" * (n - 1), list(range(n - 1, -1, -1)), "({} . ", ")")):
        b = branch_from_directions(directions, colors, 2)
        assert postorder(b) == list(range(n))  # ids run from the bottom up
        assert inorder(b) == inorder_ids
        assert encode(b) == ("2:" + "".join(opening.format(c) for c in colors[:-1])
                             + f"({colors[-1]} . .)" + closing * (n - 1))
    # deep trees with two-child vertices: ascending and descending stretches
    r = random.Random(15)
    values = r.sample(range(1, n + 1), n)
    word = []
    while values:
        k = r.randint(100, 400)
        word += sorted(values[:k], reverse=r.random() < 0.5)
        del values[:k]
    lt = color_by_labels(alpha_inverse(word), [r.randrange(3) for _ in range(n)], 1)
    assert alpha(lt) == tuple(word)
    assert postorder(lt.tree) == list(range(n))  # the stack pass numbers in postorder
    assert encode(lt.tree) == encode_by_closure(lt.tree)  # 612 deep, within the recursion limit


def test_encode_writes_trees_deeper_than_the_recursion_limit():
    # recursion would need a frame per two-child vertex on the way down:
    # 1,200 of them down a left comb, and 1,499 down the zigzag's left spine
    nodes = [(0, None, None)]
    for k in range(1200):
        nodes.append((k % 3, None, None))
        nodes.append((k % 2, len(nodes) - 2, len(nodes) - 1))
    comb = ColoredTree(tuple(nodes), len(nodes) - 1, 1)
    comb.validate()
    zigzag = alpha_inverse([k + 2 if k % 2 == 0 else k for k in range(3000)])
    assert len(comb.nodes) == 2401 > sys.getrecursionlimit()
    # the comb's k-th two-child vertex, from the bottom, has color k % 2 and
    # a right leaf of color k % 3; the zigzag's spine vertices 3000, 2998,
    # ..., 4 each have a right leaf, and 2 has a right leaf only
    assert encode(comb) == ("1:" + "".join(f"({k % 2} " for k in reversed(range(1200)))
                            + "(0 . .)" + "".join(f" ({k % 3} . .))" for k in range(1200)))
    assert encode(zigzag.tree) == "0:" + "(0 " * 1499 + "(0 . (0 . .))" + " (0 . .))" * 1499
    text = encode_labeled(zigzag)
    assert len(text) == 31896
    assert re.sub(r"\|\d+", "", text) == encode(zigzag.tree)
    labels = [int(x) for x in re.findall(r"\|(\d+)", text)]  # in preorder
    assert labels[0] == 3000 and sorted(labels) == list(range(1, 3001))


def test_encoders_agree_below_the_recursive_size():
    r = random.Random(20)
    for n in (1, 2, 3, 40, 255):
        t, labels = color_by_labels(alpha_inverse(r.sample(range(1, n + 1), n)),
                                    [r.randrange(3) for _ in range(n)])
        for tags in (("",) * n, [f"|{x}" for x in labels]):
            assert (troupes.trees._encode_large(t.nodes, tags, t.root)
                    == troupes.trees._encode_small(t.nodes, tags, t.root))


def test_factor_paths_examples():
    leaf = single()
    assert factor_paths(root_with_both()) == [(BOX, [0], leaf), (2, [1], leaf)]
    # a root whose one child has two children: the box factor passes that
    # vertex and continues at its left child, on the root's side
    for top, branch_root in (((0, 2, None), (0, 0, None)), ((0, None, 2), (0, None, 0))):
        t = ColoredTree(((0, None, None), (0, None, None), (0, 0, 1), top), 3)
        box_factor = ColoredTree(((0, None, None), branch_root), 1)
        assert factor_paths(t) == [(BOX, [0, 3], box_factor), (2, [1], leaf)]
    with pytest.raises(ValueError):
        factor_paths(ColoredTree((), None))


def test_beta_is_postorder_reading():
    lt = alpha_inverse((2, 3, 1))
    assert beta(lt) == (2, 1, 3)


def _seeded_trees(count, size, seed):
    """Labeled trees of ``size`` vertices: decreasing trees of seeded
    permutations, and deep ones read off zigzag and rising stretches."""
    r = random.Random(seed)
    out = []
    for k in range(count):
        values = r.sample(range(1, size + 1), size)
        if k % 2:
            # long monotone stretches make long branches and deep nesting
            values = sorted(values[:size // 2], reverse=True) + sorted(values[size // 2:])
        out.append(color_by_labels(alpha_inverse(values), [r.randrange(3) for _ in range(size)],
                                   r.randrange(3)))
    return out


def test_factor_builders_match_the_profile_route():
    """The branches built in the factor walk equal, node ids and labels
    included, those built by ``branch_from_directions`` from each factor's
    sides and colors: every tree of every 2-color word up to length 7 and
    3-color word up to length 6, the decreasing trees of the 2-color words
    up to length 6 and of seeded 3-color words of length 7, and seeded
    300-vertex trees."""
    words = [w for n in range(1, 8) for w in itertools.product((0, 1), repeat=n)]
    words += [w for n in range(1, 7) for w in itertools.product((0, 1, 2), repeat=n)]
    for word in words:
        for t in iter_bpt_word(word):
            if t.nodes:
                assert insertion_factors(t) == insertion_factors_by_profiles(t)
    r = random.Random(21)
    labeled_words = [w for n in range(2, 7) for w in itertools.product((0, 1), repeat=n)]
    labeled_words += [tuple(r.randrange(3) for _ in range(7)) for _ in range(4)]
    cases = [lt for w in labeled_words for lt in iter_dbpt_word(w)]
    cases += _seeded_trees(6, 300, 21)
    for lt in cases:
        assert labeled_insertion_factors(lt) == labeled_insertion_factors_by_profiles(lt)
        assert insertion_factors(lt.tree) == [f.tree for f in labeled_insertion_factors(lt)]


def test_trees_rebuilt_by_iterated_insertion_of_their_factors():
    """Inserting the walk's branches back, block by block, gives the tree
    again: every tree of every 2-color word up to length 6, and seeded
    300-vertex trees, with no ``RecursionError``."""
    trees = [t for n in range(2, 7) for w in itertools.product((0, 1), repeat=n)
             for t in iter_bpt_word(w)]
    trees += [lt.tree for lt in _seeded_trees(6, 300, 22)]
    for t in trees:
        x = psi_inverse(t)
        assert multiset_key(x.branches) == multiset_key(insertion_factors(t))
        assert encode(psi_via_insertions(x)[0]) == encode(t)
