import itertools
import math
import random

import pytest

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
from troupes.partitions import SetPartition, iter_D, iter_partitions
from troupes.trees import (
    ColoredTree,
    LabeledTree,
    encode,
    encode_labeled,
    factor_paths,
    insertion_factors,
    iter_bpt_word,
    iter_branch_word,
    iter_dbpt_word,
    labeled_insertion_factors,
    multiset_key,
    postorder,
    size_word,
)

from oracles import (
    branch_from_directions,
    branch_profile,
    druns,
    is_irreducible,
    phi_inverse_via_swings,
    phi_tilde,
    phi_via_swings,
    psi_via_insertions,
    set_partition_of_by_sets,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def branch_multiset(inp):
    return tuple(sorted(encode(b) for b in inp.branches))


# -- psi


def test_psi_single_block_is_the_branch():
    for dirs in ("L", "R"):
        br = branch_from_directions(dirs)
        inp = PsiInput(SetPartition.of(3, [[1, 2, 3]]), (br,))
        assert encode(psi(inp)) == encode(br)


def test_psi_codomain_and_injectivity_singleton():
    for n in range(2, 8):
        word = (0,) * n
        images = [encode(psi(x)) for x in iter_psi_inputs(word)]
        codomain = sorted(encode(t) for t in iter_bpt_word(word))
        assert sorted(images) == codomain
        assert len(images) == len(set(images)) == CATALAN[n - 1]


def test_psi_codomain_two_colors():
    for n in range(2, 7):
        for word in itertools.product((0, 1), repeat=n):
            images = [encode(psi(x)) for x in iter_psi_inputs(word)]
            codomain = sorted(encode(t) for t in iter_bpt_word(word))
            assert sorted(images) == codomain


def test_psi_postorder_is_usual_order():
    for n in range(2, 7):
        for x in iter_psi_inputs((0,) * n):
            t = psi(x)
            assert postorder(t) == list(range(n - 1))


def test_psi_equals_iterated_insertion():
    """Every word over {0, 1, 2} up to length 6, one color included, so the
    colors and boxes of inputs with left steps meet an oracle that does not
    use the stack pass; psi_inverse reads the input record back off the
    oracle's tree, compared with ``==``."""
    for word in (w for n in range(2, 7) for w in itertools.product((0, 1, 2), repeat=n)):
        for x in iter_psi_inputs(word):
            direct = psi(x)
            built, names = psi_via_insertions(x)
            assert encode(built) == encode(direct)
            assert psi_inverse(built) == x
            # the name map puts vertex j at postorder position j
            post = postorder(built)
            for name, node in names.items():
                assert post[name - 1] == node


def test_psi_factor_multiset_preserved():
    for n in range(2, 7):
        for x in iter_psi_inputs((0,) * n):
            assert multiset_key(insertion_factors(psi(x))) == branch_multiset(x)


def test_psi_roundtrip():
    for n in range(2, 8):
        for x in iter_psi_inputs((0,) * n):
            assert psi_inverse(psi(x)).key() == x.key()


def test_psi_roundtrip_two_colors():
    for n in range(2, 6):
        for word in itertools.product((0, 1), repeat=n):
            for x in iter_psi_inputs(word):
                assert psi_inverse(psi(x)).key() == x.key()


def test_psi_inverse_of_branch():
    br = branch_from_directions("LRL", colors_root_down=[1, 0, 1, 0], box_color=1)
    inp = psi_inverse(br)
    assert inp.partition.blocks == ((1, 2, 3, 4, 5),)
    assert [encode(b) for b in inp.branches] == [encode(br)]


def test_psi_input_validation():
    crossing = SetPartition.of(4, [[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        PsiInput(crossing, (branch_from_directions("L"), branch_from_directions("L"))).validate()
    singleton_block = SetPartition.of(3, [[1, 3], [2]])
    with pytest.raises(ValueError):
        PsiInput(singleton_block, (branch_from_directions("L"),)).validate()
    # no elements: refused before the irreducibility check reads block 1
    for check in (PsiInput.validate, psi):
        with pytest.raises(ValueError, match="n >= 2"):
            check(PsiInput(SetPartition.of(0, []), ()))
    # several faults at once: the first check to fail names the fault
    leaf, loop, stray = (ColoredTree(((0, None, None),), 0), ColoredTree(((0, 0, None),), 0),
                         ColoredTree(((0, None, None),), 5))
    for blocks, branches, message in [
            ([[1]], (), "n >= 2"),
            ([[1, 3, 6], [2, 4], [5]], (leaf,) * 3, "noncrossing and irreducible"),
            ([[1, 2], [3]], (leaf,), "noncrossing and irreducible"),
            ([[1, 3], [2]], (leaf,) * 3, "all blocks must have size >= 2"),
            ([[1, 4], [2, 3]], (loop,), "one branch per block required"),
            ([[1, 4], [2, 3]], (leaf, loop, stray), "one branch per block required"),
            ([[1, 4], [2, 3]], (loop, stray), "^expected a branch$"),
            ([[1, 4], [2, 3]], (stray, loop), "out of range"),
            ([[1, 4], [2, 3]], (leaf, branch_from_directions("L")), "on 1 vertices, got 2")]:
        x = PsiInput(SetPartition.of(max(map(max, blocks)), blocks), branches)
        for check in (PsiInput.validate, psi):
            with pytest.raises(ValueError, match=message):
                check(x)


def _straight_branches(blocks):
    """One branch per block, on one vertex fewer than the block, as psi
    reads it for a block of size >= 2."""
    return tuple(branch_from_directions("L" * max(len(b) - 2, 0)) for b in blocks)


def _psi_accepts(p):
    try:
        PsiInput(p, _straight_branches(p.blocks)).validate()
    except ValueError:
        return False
    return True


def test_psi_rejects_blocks_that_do_not_partition():
    # a repeated element, an element out of range, a missing one, also with
    # as many elements as n: each refused before a branch is read or sigma_p
    # is built, and before the noncrossing check
    for n, blocks in [(3, ((1, 2),)), (3, ((1, 2, 3, 4),)), (3, ((0, 1, 2, 3),)),
                      (4, ((1, 4), (1, 4))), (4, ((1, 2, 4), (2, 3, 4))),
                      (4, ((1, 2, 4), (3, 4))), (3, ((0, 2, 3),)), (4, ((1, 4), (2, 4)))]:
        x = PsiInput(SetPartition(n, blocks), _straight_branches(blocks))
        for check in (PsiInput.validate, psi):
            with pytest.raises(ValueError, match=f"^blocks must partition 1..{n}, "):
                check(x)


def test_psi_check_matches_the_irreducible_oracle():
    for n in range(1, 10):
        for p in iter_partitions(n):
            want = is_irreducible(p) and all(len(b) >= 2 for b in p.blocks)
            assert _psi_accepts(p) == want, p


def test_psi_check_rejects_every_block_tuple_that_is_not_a_canonical_partition():
    # partitions left as they are or edited by one random step: the first
    # block moved last, a block reversed, an element added, dropped or
    # replaced, or an empty block put in
    rng = random.Random(3801)
    every = {n: list(iter_partitions(n)) for n in range(2, 8)}
    accepted = 0
    for _ in range(4000):
        n = rng.randint(2, 7)
        blocks = [list(b) for b in rng.choice(every[n]).blocks]
        edit, b = rng.randrange(7), rng.choice(blocks)
        if edit == 1:
            blocks.append(blocks.pop(0))
        elif edit == 2:
            b.reverse()
        elif edit == 3:
            b.insert(rng.randint(0, len(b)), rng.randint(0, n + 1))
        elif edit == 4:
            b.remove(rng.choice(b))
        elif edit == 5:
            b[rng.randrange(len(b))] = rng.randint(0, n + 1)
        elif edit == 6:
            blocks.insert(rng.randint(0, len(blocks)), [])
        p = SetPartition(n, tuple(map(tuple, blocks)))
        try:
            canonical = set_partition_of_by_sets(n, p.blocks) == p
        except ValueError:
            canonical = False
        want = canonical and is_irreducible(p) and all(len(b) >= 2 for b in p.blocks)
        assert _psi_accepts(p) == want, p
        accepted += want
    assert accepted > 100


def test_psi_takes_blocks_given_as_lists():
    # the blocks as a list of lists, or a tuple of lists, name the same
    # partition: the same outcome and the same tree as from tuples
    inputs = 0
    for word in [(0, 1, 1, 0, 1), (0, 1, 2, 0, 2, 1)]:
        for x in iter_psi_inputs(word):
            p = x.partition
            want = psi(x)
            for blocks in ([list(b) for b in p.blocks], tuple(map(list, p.blocks))):
                y = PsiInput(SetPartition(p.n, blocks), x.branches)
                assert y.validate() == x.validate()
                assert psi(y) == want
            inputs += 1
    crossing = [[1, 3, 5], [2, 4]]
    with pytest.raises(ValueError, match="noncrossing and irreducible"):
        psi(PsiInput(SetPartition(5, crossing), _straight_branches(crossing)))
    assert inputs > 50


def test_psi_worked_fourteen_element_example():
    """The 14-element worked instance: block maxima become the box and the
    two-child vertices, block minima become leaves."""
    n = 14
    p = SetPartition.of(n, [[1, 11, 14], [2, 3, 8, 9, 10], [4, 5, 6, 7], [12, 13]])
    assert is_irreducible(p)
    word = (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1)
    # any branch choice witnesses the structural claims; fix one per block
    branches = []
    for block in p.blocks:
        colors_root_down = [word[u - 1] for u in reversed(block[:-1])]
        dirs = "L" * (len(block) - 2)
        branches.append(
            branch_from_directions(dirs, colors_root_down, word[block[-1] - 1])
        )
    t = psi(PsiInput(p, tuple(branches)))
    assert t.size == 13
    assert postorder(t) == list(range(13))
    # two-child vertices sit exactly at the in-range block maxima
    two_child_names = {
        v + 1
        for v, (_, left, right) in enumerate(t.nodes)
        if left is not None and right is not None
    }
    assert two_child_names == {10, 7, 13}
    # block minima (except 1's block minimum... including it) are leaves
    leaves = {
        v + 1 for v, (_, left, right) in enumerate(t.nodes) if left is None and right is None
    }
    assert leaves == {1, 2, 4, 12}
    assert t.box_color == word[13]
    # and the factor blocks transport back to the partition
    assert psi_inverse(t).partition == p


# -- phi


def test_phi_smallest_cases():
    # n = 3: one permutation (321), two branches, giving both labeled trees
    inputs = list(iter_phi_inputs((0, 0, 0)))
    assert [x.sigma for x in inputs] == [(3, 2, 1), (3, 2, 1)]
    images = {encode_labeled(phi(x)) for x in inputs}
    codomain = {encode_labeled(lt) for lt in iter_dbpt_word((0, 0, 0))}
    assert images == codomain


def test_phi_codomain_and_injectivity_singleton():
    for n in range(2, 8):
        word = (0,) * n
        images = [encode_labeled(phi(x)) for x in iter_phi_inputs(word)]
        codomain = sorted(encode_labeled(lt) for lt in iter_dbpt_word(word))
        assert sorted(images) == codomain
        assert len(images) == len(set(images)) == math.factorial(n - 1)


def test_phi_codomain_two_colors():
    for n in range(2, 7):
        for word in itertools.product((0, 1), repeat=n):
            images = [encode_labeled(phi(x)) for x in iter_phi_inputs(word)]
            codomain = sorted(encode_labeled(lt) for lt in iter_dbpt_word(word))
            assert sorted(images) == codomain


def test_phi_tilde_is_reverse_motzkin():
    for n in range(2, 7):
        for x in iter_phi_inputs((0,) * n):
            lt = phi_tilde(x)
            assert all(
                right is not None or left is None for _, left, right in lt.tree.nodes
            )


def test_phi_factor_multiset_preserved():
    for n in range(2, 7):
        for x in iter_phi_inputs((0,) * n):
            factors = labeled_insertion_factors(phi(x))
            assert multiset_key([f.tree for f in factors]) == branch_multiset(x)


def test_phi_labeled_factors_live_on_their_runs():
    for x in iter_phi_inputs((0,) * 6):
        runs = {b[:-1]: b for b in druns(x.sigma).blocks}
        for f in labeled_insertion_factors(phi(x)):
            key = tuple(sorted(f.labels))
            assert key in runs


def test_phi_roundtrip():
    for n in range(2, 8):
        for x in iter_phi_inputs((0,) * n):
            assert phi_inverse(phi(x)).key() == x.key()


def test_phi_roundtrip_two_colors():
    for n in range(2, 6):
        for word in itertools.product((0, 1), repeat=n):
            for x in iter_phi_inputs(word):
                assert phi_inverse(phi(x)).key() == x.key()


def _oracle_words():
    """Every 2-color word of length <= 7, and every other 3-color word of
    length <= 6."""
    for n in range(2, 8):
        yield from itertools.product((0, 1), repeat=n)
    for n in range(2, 7):
        yield from (w for w in itertools.product((0, 1, 2), repeat=n) if 2 in w)


def test_phi_and_inverse_match_the_swing_route():
    """The one-pass maps give the swing route's node ids, labels, colors,
    box, permutation and branches, compared with ``==``."""
    for word in _oracle_words():
        for x in iter_phi_inputs(word):
            lt = phi(x)
            assert lt == phi_via_swings(x)
            assert phi_inverse(lt) == phi_inverse_via_swings(lt) == x


def test_phi_inputs_match_the_per_permutation_enumeration():
    """Same inputs in the same order as building every run's branches afresh
    for each permutation of ``iter_D``."""
    for n in range(2, 7):
        for word in itertools.product((0, 1), repeat=n):
            expected = [
                PhiInput(sigma, combo)
                for sigma in iter_D(n)
                for combo in itertools.product(*(
                    list(iter_branch_word(tuple(word[u - 1] for u in block)))
                    for block in druns(sigma).blocks))
            ]
            assert list(iter_phi_inputs(word)) == expected


def test_phi_inverse_rejects_exactly_the_invalid_labelings():
    """Over every labeling of every shape up to size 5, phi_inverse raises
    ValueError exactly when the labeled tree does not validate."""
    rejected = 0
    for size in range(1, 6):
        for t in iter_bpt_word(size_word(size)):
            for labels in itertools.permutations(range(1, size + 1)):
                lt = LabeledTree(t, labels)
                try:
                    lt.validate()
                except ValueError:
                    rejected += 1
                    with pytest.raises(ValueError):
                        phi_inverse(lt)
                else:
                    assert phi(phi_inverse(lt)) == lt
    # all labelings less the s! decreasing ones of each size s
    assert rejected == sum(CATALAN[s] * math.factorial(s) - math.factorial(s)
                           for s in range(1, 6))


@pytest.mark.parametrize("lt", [
    LabeledTree(ColoredTree(((0, None, None), (0, 0, None)), 1), (1, 1)),
    LabeledTree(ColoredTree(((0, None, None), (0, 0, None)), 1), (0, 2)),
    LabeledTree(ColoredTree(((0, None, None), (0, 0, None)), 1), (2,)),
    LabeledTree(ColoredTree(((0, None, None), (0, 0, None)), 1), (1, 3)),
    LabeledTree(ColoredTree(((0, None, None), (0, 0, None)), 1), (2, 1)),
    LabeledTree(ColoredTree(((0, None, None), (0, 2, None)), 1), (1, 2)),
    LabeledTree(ColoredTree(((0, None, None), (0, -1, None)), 1), (1, 2)),
    LabeledTree(ColoredTree(((0, None, None), (0, 0, 0)), 1), (1, 2)),
    LabeledTree(ColoredTree(((0, None, None), (0, None, None), (0, 0, None)), 2), (1, 2, 3)),
    LabeledTree(ColoredTree(((0, None, None), (0, 0, None)), 0), (1, 2)),
    LabeledTree(ColoredTree(((0, None, None), (0, 0, None)), None), (1, 2)),
    # a root id, and a right child id, out of range above and below
    LabeledTree(ColoredTree(((0, None, None), (0, 0, None)), 2), (1, 2)),
    LabeledTree(ColoredTree(((0, None, None), (0, 0, None)), -1), (1, 2)),
    LabeledTree(ColoredTree(((0, None, None), (0, None, 2)), 1), (1, 2)),
    LabeledTree(ColoredTree(((0, None, None), (0, None, -1)), 1), (1, 2)),
    # a vertex under two parents and one never reached, and a repeated label
    LabeledTree(ColoredTree(((0, None, None), (0, None, None), (0, 0, 0)), 2), (1, 2, 3)),
    LabeledTree(ColoredTree(((0, None, None), (0, None, None), (0, 0, 1)), 2), (1, 1, 3)),
])
def test_phi_inverse_rejects_malformed_trees(lt):
    with pytest.raises(ValueError):
        lt.validate()
    with pytest.raises(ValueError):
        phi_inverse(lt)


def test_phi_inverse_single_vertex():
    for lt in iter_dbpt_word((4, 7)):
        inp = phi_inverse(lt)
        assert inp.sigma == (2, 1)
        assert [b.size for b in inp.branches] == [1]
        assert inp.branches[0].nodes[0][0] == 4
        assert inp.branches[0].box_color == 7


def test_phi_input_validation():
    with pytest.raises(ValueError):
        PhiInput((1, 3, 2), (branch_from_directions("L"),)).validate()
    with pytest.raises(ValueError):
        PhiInput((3, 1, 2), (branch_from_directions(""),) * 2).validate()
    # several faults at once: the first check to fail names the fault
    leaf, loop, stray = (ColoredTree(((0, None, None),), 0), ColoredTree(((0, 0, None),), 0),
                         ColoredTree(((0, None, None),), 5))
    for sigma, branches, message in [
            ((), (), "start with its maximum"),
            ((1, 3, 2), (leaf,) * 3, "start with its maximum"),
            ((3, 3, 1), (leaf,), "not a permutation of 1..3"),
            ((3, 2, 2), (leaf,), "not a permutation of 1..3"),
            ((4, 3, 2, 0), (leaf,), "not a permutation of 1..4"),
            ((3, 1, 4), (leaf,), "not a permutation of 1..3"),
            ((4, 4, 2, 1), (leaf,) * 3, "not a permutation of 1..4"),
            ((3, 1, 2), (leaf,) * 3, "descending runs must have size >= 2"),
            ((4, 1, 2, 3), (loop,), "descending runs must have size >= 2"),
            ((4, 1, 3, 2), (loop,), "one branch per run required"),
            ((4, 1, 3, 2), (leaf, loop, stray), "one branch per run required"),
            ((4, 1, 3, 2), (loop, stray), "^expected a branch$"),
            ((4, 1, 3, 2), (stray, loop), "out of range"),
            ((4, 1, 3, 2), (leaf, branch_from_directions("L")), "on 1 vertices, got 2")]:
        for check in (PhiInput.validate, phi):
            with pytest.raises(ValueError, match=message):
                check(PhiInput(sigma, branches))


def _numbered_from_the_root(b):
    """The same branch with node ids running from the root (0) down."""
    top = len(b.nodes) - 1
    flip = {None: None, **{v: top - v for v in range(top + 1)}}
    return ColoredTree(tuple((color, flip[left], flip[right])
                             for color, left, right in reversed(b.nodes)),
                       flip[b.root], b.box_color)


def test_branches_are_read_by_their_links_not_their_ids():
    """Branches numbered from the root down, so the root's id is 0, give
    the same trees as the bottom-up numbering every builder writes."""
    for word in (w for n in range(2, 7) for w in itertools.product((0, 1), repeat=n)):
        for x in iter_phi_inputs(word):
            assert phi(PhiInput(x.sigma, tuple(map(_numbered_from_the_root, x.branches)))) == phi(x)
        for x in iter_psi_inputs(word):
            y = PsiInput(x.partition, tuple(map(_numbered_from_the_root, x.branches)))
            assert psi(y) == psi(x)


@pytest.mark.parametrize("nodes, root", [
    (((0, None, None), (0, None, None), (0, 0, 1)), 2),  # a two-child vertex
    (((0, None, None), (0, 0, None), (0, None, None)), 1),  # a vertex left out
    (((0, None, None), (0, 0, None), (0, 7, None)), 2),  # a child out of range
    (((0, None, None), (0, 0, None), (0, 1, None)), None),  # no root
    (((0, 1, None), (0, 2, None), (0, 0, None)), 0),  # a loop
    (((0, None, None), (0, 0, None)), 1),  # one vertex short
])
def test_inputs_with_malformed_branches_raise(nodes, root):
    branch = ColoredTree(nodes, root)
    for x, bijection in ((PhiInput((4, 3, 2, 1), (branch,)), phi),
                         (PsiInput(SetPartition.of(4, [[1, 2, 3, 4]]), (branch,)), psi)):
        with pytest.raises(ValueError):
            x.validate()
        with pytest.raises(ValueError):
            bijection(x)


def test_phi_worked_fourteen_element_example():
    sigma = (14, 6, 5, 9, 1, 13, 12, 10, 4, 2, 11, 8, 7, 3)
    blocks = druns(sigma).blocks
    # the printed example's run partition (with the {3,7,8,11} block)
    assert blocks == ((1, 9), (2, 4, 10, 12, 13), (3, 7, 8, 11), (5, 6, 14))
    word = (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1)
    branches = []
    for block in blocks:
        colors_root_down = [word[u - 1] for u in reversed(block[:-1])]
        dirs = "R" * (len(block) - 2)
        branches.append(
            branch_from_directions(dirs, colors_root_down, word[block[-1] - 1])
        )
    x = PhiInput(sigma, tuple(branches))
    tilde = phi_tilde(x)
    assert all(right is not None or left is None for _, left, right in tilde.tree.nodes)
    lt = phi(x)
    lt.validate()
    assert lt.size == 13
    factors = labeled_insertion_factors(lt)
    assert multiset_key([f.tree for f in factors]) == branch_multiset(x)
    assert phi_inverse(lt).key() == x.key()


def test_domain_cardinalities_match():
    # the domains are as big as the codomains before checking bijectivity
    for n in range(2, 8):
        assert sum(1 for _ in iter_psi_inputs((0,) * n)) == CATALAN[n - 1]
        assert sum(1 for _ in iter_phi_inputs((0,) * n)) == math.factorial(n - 1)


def test_branch_profile_roundtrip():
    br = branch_from_directions("LRL", colors_root_down=[3, 1, 4, 1], box_color=5)
    dirs, colors, box = branch_profile(br)
    assert (dirs, colors, box) == (["L", "R", "L"], [3, 1, 4, 1], 5)


def test_nine_vertex_factor_block_structure():
    """A 9-vertex instance whose governing blocks have sizes 3,3,2,2 and
    whose two single-vertex factors are isomorphic."""
    p = SetPartition.of(10, [[2, 3, 4], [6, 7, 8], [5, 9], [1, 10]])
    branches = []
    for block in p.blocks:
        branches.append(branch_from_directions("L" * (len(block) - 2)))
    t = psi(PsiInput(p, tuple(branches)))
    assert t.size == 9
    # a block is a factor's vertices plus its owner (a vertex or the box)
    sizes = sorted(len(vertices) + 1 for _, vertices, _ in factor_paths(t))
    assert sizes == [2, 2, 3, 3]
    factors = insertion_factors(t)
    singles = [encode(f) for f in factors if f.size == 1]
    assert len(singles) == 2 and singles[0] == singles[1]


def test_tree_rebuilt_from_factors_by_iterated_insertion():
    """Reconstructing through the block recursion returns the same tree."""
    for n in range(1, 8):
        for t in iter_bpt_word(size_word(n)):
            rebuilt, _ = psi_via_insertions(psi_inverse(t))
            assert encode(rebuilt) == encode(t)


def test_reconstruction_with_colors():
    for word in itertools.product((0, 1), repeat=5):
        for t in iter_bpt_word(word):
            rebuilt, _ = psi_via_insertions(psi_inverse(t))
            assert encode(rebuilt) == encode(t)
