import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from troupes.bijections import PhiInput, PsiInput
from troupes.cumulants import _first_block_sum, _first_max_sums
from troupes.partitions import SetPartition
from troupes.rings import QPoly, as_ring_elem, q
from troupes.series import Series, troupe_transform
from troupes.troupe import (
    WeightedTroupe,
    all_trees,
    builtin,
    color_constrained,
    color_count,
    from_table,
    full_trees,
    motzkin_trees,
    random_branch_table,
    right_two_monomial,
    tree_sums,
)
from troupes.trees import (
    ColoredTree,
    encode,
    factor_paths,
    insert,
    iter_dbpt,
    iter_dbpt_word,
    iter_bpt_word,
    iter_branch_word,
    iter_words,
    right_edges,
    size_word,
)

from oracles import (
    BranchPoly,
    GenericTroupe,
    bpt_sums_by_trees,
    branch_sums_by_trees,
    dbpt_sum_by_ring_additions,
    dbpt_sums_by_labeled_trees,
    evaluate_from_one,
    factor_monomial,
    generic_tree_sum,
    is_full,
    is_motzkin,
    tree_series,
    two_child_count,
)


@lru_cache(maxsize=None)
def motzkin_number(n: int) -> int:
    """Independent oracle: M_n = M_(n-1) + sum M_k M_(n-2-k)."""
    if n <= 1:
        return 1
    return motzkin_number(n - 1) + sum(
        motzkin_number(k) * motzkin_number(n - 2 - k) for k in range(n - 1)
    )


def test_empty_tree_evaluates_to_zero():
    for tau in (all_trees(), full_trees(), motzkin_trees()):
        assert tau.evaluate(ColoredTree((), None, 0)) == 0


def test_branch_evaluates_to_its_weight():
    tau = right_two_monomial(q, 2)
    for n in range(1, 5):
        for b in iter_branch_word(size_word(n)):
            assert tau.evaluate(b) == q ** (right_edges(b) + 1) * 2
    # a branch is its own one insertion factor: evaluate gives its rule's
    # weight, in value and in type
    taus = [all_trees(), builtin("rightmono:q,2/3", 1), builtin("colorcount:1", 2),
            from_table(random_branch_table(6, 6, 2))]
    for n in range(2, 8):
        for word in itertools.product((0, 1), repeat=n):
            for b in iter_branch_word(word):
                for tau in taus:
                    weight, value = as_ring_elem(tau.branch_weight(b)), tau.evaluate(b)
                    assert weight == value and type(weight) is type(value)


def test_indicator_matches_direct_predicate():
    cases = [
        (all_trees(), lambda t: True),
        (full_trees(), is_full),
        (motzkin_trees(), is_motzkin),
    ]
    for n in range(1, 7):
        for t in iter_bpt_word(size_word(n)):
            for tau, pred in cases:
                assert tau.evaluate(t) == (1 if pred(t) else 0)


def test_color_constrained_matches_direct_predicate():
    allowed = {0}
    tau = color_constrained(allowed)

    def pred(t: ColoredTree) -> bool:
        if t.box_color not in allowed:
            return False
        return all(
            color in allowed for color, left, _ in t.nodes if left is not None
        )

    for n in range(2, 6):
        for word in itertools.product((0, 1), repeat=n):
            for t in iter_bpt_word(word):
                assert tau.evaluate(t) == (1 if pred(t) else 0)


def test_color_count_matches_direct_count():
    counted = {1}
    tau = color_count(counted)
    for n in range(2, 6):
        for word in itertools.product((0, 1), repeat=n):
            for t in iter_bpt_word(word):
                k = sum(1 for color, _, _ in t.nodes if color in counted)
                k += 1 if t.box_color in counted else 0
                assert tau.evaluate(t) == q ** k


def test_multiplicativity_exhaustive():
    taus = [all_trees(), full_trees(), motzkin_trees(), right_two_monomial(q, 1),
            from_table(random_branch_table(3, max_size=6))]
    for n1 in range(1, 7):
        for n2 in range(1, 8 - n1):
            for t1 in iter_bpt_word(size_word(n1)):
                for t2 in iter_bpt_word(size_word(n2)):
                    for v in range(n1):
                        t = insert(t1, v, t2)
                        for tau in taus:
                            assert tau.evaluate(t) == tau.evaluate(t1) * tau.evaluate(t2)


def test_right_and_two_statistics_add_under_insertion():
    # the additivity that makes the monomial weights multiplicative
    for n1 in range(1, 5):
        for n2 in range(1, 6 - n1):
            for t1 in iter_bpt_word(size_word(n1)):
                for t2 in iter_bpt_word(size_word(n2)):
                    for v in range(n1):
                        t = insert(t1, v, t2)
                        assert right_edges(t) == right_edges(t1) + right_edges(t2) + 1
                        assert two_child_count(t) == (
                            two_child_count(t1) + two_child_count(t2) + 1
                        )


def test_same_branch_weights_same_troupe():
    """Constructive direction of the branch-rule bijection."""
    reference = right_two_monomial(q, 1)
    table = {}
    for n in range(1, 8):
        for b in iter_branch_word(size_word(n)):
            table[encode(b)] = reference.evaluate(b)
    clone = from_table(table, name="clone")
    for n in range(1, 8):
        for t in iter_bpt_word(size_word(n)):
            assert clone.evaluate(t) == reference.evaluate(t)


def test_indicator_support_closed_under_insertion():
    for tau in (full_trees(), motzkin_trees()):
        for n1 in range(1, 4):
            for n2 in range(1, 5 - n1):
                for t1 in iter_bpt_word(size_word(n1)):
                    for t2 in iter_bpt_word(size_word(n2)):
                        for v in range(n1):
                            t = insert(t1, v, t2)
                            inside = tau.evaluate(t1) == 1 and tau.evaluate(t2) == 1
                            assert (tau.evaluate(t) == 1) == inside


# -- weighted sums


def test_all_troupe_sums():
    tau = all_trees()
    branch = tree_sums(tau, "branch", [size_word(n) for n in range(1, 7)])
    assert list(branch.values()) == [2 ** (n - 1) for n in range(1, 7)]
    import math

    dbpt = tree_sums(tau, "dbpt", [(0,) * n for n in range(2, 7)])
    assert list(dbpt.values()) == [math.factorial(n - 1) for n in range(2, 7)]


def test_full_troupe_branch_sums():
    sums = tree_sums(full_trees(), "branch", [(0,) * n for n in range(2, 7)])
    assert list(sums.values()) == [1, 0, 0, 0, 0]


def test_motzkin_troupe_bpt_sums():
    sums = tree_sums(motzkin_trees(), "bpt", [(0,) * n for n in range(2, 8)])
    assert list(sums.values()) == [motzkin_number(n - 2) for n in range(2, 8)]


def test_rightmono_sums():
    sums = tree_sums(right_two_monomial(q, 1), "branch", [size_word(n) for n in range(1, 6)])
    assert list(sums.values()) == [q * (1 + q) ** (n - 1) for n in range(1, 6)]


def test_word_length_one_sums_vanish():
    for tau in (all_trees(), right_two_monomial(q, 1)):
        for kind in ("branch", "bpt", "dbpt"):
            assert tree_sums(tau, kind, [(0,)]) == {(0,): 0}  # the empty tree weighs 0


def test_series_helpers():
    tau = all_trees()
    branches = tree_sums(tau, "branch", [size_word(n) for n in range(1, 6)])
    bs = Series([0] + list(branches.values()))
    ts = tree_series(tau, 6)
    assert list(bs.coeffs) == [0, 1, 2, 4, 8, 16]
    assert list(ts.coeffs) == [0, 1, 2, 5, 14, 42]


def test_transform_matches_enumeration_for_random_weights():
    for seed in (101, 202, 303):
        tau = from_table(random_branch_table(seed, max_size=7))
        branches = tree_sums(tau, "branch", [size_word(n) for n in range(1, 8)])
        assert troupe_transform(Series([0] + list(branches.values()))) == tree_series(tau, 8)


# -- built-in lookup and the random table


def test_builtin_dispatch():
    assert builtin("all", 1).name == "all"
    assert builtin("full", 1).name == "full"
    assert builtin("motzkin", 1).name == "motzkin"
    assert builtin("colorset:0,1", 2).name == "colorset:[0, 1]"
    assert builtin("colorcount:1", 2).name == "colorcount:[1]"
    tau = builtin("rightmono:q,1", 1)
    assert tau.evaluate(next(iter_branch_word(size_word(2)))) in (q, q * q)
    assert builtin("rightmono:2,1/3", 1) is not None
    with pytest.raises(ValueError):
        builtin("nonsense", 1)
    with pytest.raises(ValueError):
        builtin("rightmono:1", 1)


def test_builtin_reads_the_color_list_against_the_alphabet():
    """J takes any spelling of an integer list, and a color at or past
    ``num_colors`` is refused with the CLI's message."""
    for spec in ("colorset:0 1", "colorset: 1, 0", "colorset:0,1"):
        assert builtin(spec, 2).name == "colorset:[0, 1]"
    assert builtin("colorcount:1\t1", 2).name == "colorcount:[1]"
    with pytest.raises(ValueError) as info:
        builtin("colorset:0,3,2,3", 2)
    assert str(info.value) == ("troupe 'colorset:0,3,2,3' names colors [2, 3] outside 0..1 "
                               "(--num-colors 2)")
    with pytest.raises(ValueError) as info:
        builtin("colorcount:1", 1)
    assert str(info.value) == ("troupe 'colorcount:1' names colors [1] outside 0..0 "
                               "(--num-colors 1)")
    with pytest.raises(ValueError) as info:
        builtin("colorcount:", 1)
    assert str(info.value) == "troupe 'colorcount:': empty item in list ''"


def test_random_table_is_deterministic():
    a = random_branch_table(11, max_size=4, num_colors=2)
    b = random_branch_table(11, max_size=4, num_colors=2)
    assert a == b
    c = random_branch_table(12, max_size=4, num_colors=2)
    assert a != c


def test_random_table_covers_all_small_branches():
    table = random_branch_table(5, max_size=3, num_colors=2)
    small = {encode(br) for n in range(1, 4) for word in itertools.product((0, 1), repeat=n + 1)
             for br in iter_branch_word(word)}
    assert set(table) == small  # every small branch, and no larger one


def test_cache_holds_branches_only():
    # single-colour branches of sizes 1..7 number 2^0 + ... + 2^6 = 127,
    # fewer than the 429 tree shapes of size 7
    tau = all_trees()
    assert tree_sums(tau, "bpt", [size_word(7)]) == {size_word(7): 429}
    assert tree_sums(tau, "dbpt", [size_word(7)]) == {size_word(7): 5040}
    assert len(tau._cache) <= 127


def test_dbpt_sum_by_colored_tree_matches_labeled_trees():
    words = [w for n in range(1, 8) for w in itertools.product((0, 1), repeat=n)]
    words += [w for n in range(1, 6) for w in itertools.product((0, 1, 2), repeat=n)]
    makers = [
        all_trees,
        lambda: builtin("colorcount:1", 2),
        lambda: builtin("rightmono:q,2/3", 1),
        motzkin_trees,
        lambda: from_table(random_branch_table(5, 6, 2)),
    ]
    taus = [make() for make in makers]
    tables = [tree_sums(tau, "dbpt", words) for tau in taus]
    expected = dbpt_sums_by_labeled_trees([make() for make in makers], words)
    for tau, table, oracle_table in zip(taus, tables, expected):
        for word in words:
            got, want = table[word], oracle_table[word]
            assert got == want and type(got) is type(want), (tau, word)


def test_dbpt_sum_on_integer_numerators_matches_ring_additions():
    two_colors = [w for n in range(1, 7) for w in itertools.product((0, 1), repeat=n)]
    one_color = [size_word(n) for n in range(1, 9)]
    cases = [
        (all_trees, one_color),
        (lambda: builtin("rightmono:q,2/3", 1), one_color),
        (lambda: builtin("colorcount:1", 2), two_colors),
        (lambda: from_table(random_branch_table(27, 6, 2)), two_colors),
        (lambda: from_table({}), one_color),
        (lambda: WeightedTroupe("zero", lambda b: QPoly(())), one_color),
    ]
    for make, words in cases:
        tau, oracle_tau = make(), make()
        got = tree_sums(tau, "dbpt", words)
        for word in words:
            want = dbpt_sum_by_ring_additions(oracle_tau, word)
            assert got[word] == want and type(got[word]) is type(want), (tau, word)
    # a length-1 word is an empty tree, whose value is Fraction(0)
    for make, _ in cases:
        got = tree_sums(make(), "dbpt", [(1,)])[(1,)]
        assert got == 0 and type(got) is Fraction


@pytest.fixture(scope="module")
def three_color_table():
    return random_branch_table(5, 6, 3)


@pytest.mark.parametrize("kind", ["bpt", "branch"])
def test_root_sum_matches_enumerated_trees(kind, three_color_table):
    oracle = {"bpt": bpt_sums_by_trees, "branch": branch_sums_by_trees}[kind]
    words = [w for n in range(1, 7) for w in itertools.product((0, 1), repeat=n)]
    words += [w for n in range(1, 6) for w in itertools.product((0, 1, 2), repeat=n)]
    words += [size_word(n) for n in range(8)]
    table = three_color_table
    makers = [
        all_trees,
        full_trees,
        motzkin_trees,
        lambda: builtin("colorcount:1", 2),
        lambda: builtin("rightmono:q,2/3", 1),
        lambda: from_table(table),
    ]
    taus = [make() for make in makers]
    tables = [tree_sums(tau, kind, words) for tau in taus]
    oracle_taus = [make() for make in makers]
    for word in words:
        expected = oracle(oracle_taus, word)
        for tau, table, want in zip(taus, tables, expected):
            got = table[word]
            assert got == want and type(got) is type(want), (tau, word)


def table_makers(table):
    return [
        all_trees,
        motzkin_trees,
        lambda: builtin("colorcount:1", 2),
        lambda: builtin("rightmono:q,2/3", 1),
        lambda: from_table(table),
    ]


@pytest.mark.parametrize("kind", ["branch", "bpt", "dbpt"])
def test_tree_sums_match_the_per_word_sums(kind, three_color_table):
    trees = {"branch": iter_branch_word, "bpt": iter_bpt_word,
             "dbpt": lambda w: (lt.tree for lt in iter_dbpt_word(w))}[kind]
    for make in table_makers(three_color_table):
        tau, oracle_tau = make(), make()
        for alphabet, max_len in (((0, 1), 6), ((0, 1, 2), 5)):
            # longest first, then a constant word longer than the rest, so no
            # word finds its shorter subwords already summed
            words = [w for n in range(max_len, 0, -1)
                     for w in itertools.product(alphabet, repeat=n)]
            words.append((alphabet[-1],) * (max_len + 2))
            table = tree_sums(tau, kind, iter(words))
            assert type(table) is dict and list(table) == words
            for word in words:
                want = sum((oracle_tau.evaluate(t) for t in trees(word)), Fraction(0))
                got = table[word]
                assert got == want and type(got) is type(want), (tau, word)
    assert tree_sums(all_trees(), "BPT", []) == {}
    with pytest.raises(ValueError, match="unknown tree family"):
        tree_sums(all_trees(), "trees", [(0,)])
    with pytest.raises(ValueError, match="nonempty"):
        tree_sums(all_trees(), kind, [(0, 0), ()])


def evaluate_mismatches(table) -> list:
    """``(troupe, tree)`` for each tree of the word ``0,1,1,0,1`` that
    ``evaluate`` weighs otherwise than the oracle, which reads the factors
    off their profiles and weighs them by the troupe's own branch rule."""
    trees = [t for t, _ in iter_dbpt((0, 1, 1, 0, 1))]
    assert len(trees) > 1
    mismatches = []
    for make in table_makers(table):
        tau, oracle_tau = make(), make()
        for t in trees:
            got, want = tau.evaluate(t), evaluate_from_one(oracle_tau, t)
            if got != want or type(got) is not type(want):
                mismatches.append((tau, encode(t)))
    return mismatches


def test_evaluate_starts_from_the_first_factor(three_color_table):
    assert evaluate_mismatches(three_color_table) == []


def _mirrored(weight):
    """``WeightedTroupe._weight`` weighing each branch's mirror image."""
    return lambda self, box, nodes: weight(
        self, box, tuple([(color, right, left) for color, left, right in nodes]))


def _box_dropped(weight):
    """``WeightedTroupe._weight`` reading every box color as 0."""
    return lambda self, box, nodes: weight(self, 0, nodes)


# every fault of the branch weight lookup that no verify route sees
FAULTS = pytest.mark.parametrize("fault", [_mirrored, _box_dropped],
                                 ids=["mirrored", "box-dropped"])


@FAULTS
def test_another_troupe_fault_passes_verify_and_fails_the_evaluate_oracle(
        fault, monkeypatch, three_color_table):
    """A fault in the branch weight lookup that every route shares weighs
    the trees of another troupe, for which the theorem holds too: every
    verify route agrees.  The comparison of ``evaluate`` with the
    oracle of :func:`test_evaluate_starts_from_the_first_factor` sees it.
    A dropped box color changes the sums of the color-reading troupes; the
    mirror permutes the branches of each word, so it changes no sum."""
    from troupes.cumulants import equivalence_reports

    table = random_branch_table(3, 4, 2)
    cases = [(lambda: builtin("rightmono:q,2/3", 1), (0,)),
             (lambda: builtin("colorset:0", 2), (0, 1)),
             (lambda: builtin("colorcount:1", 2), (0, 1)),
             (lambda: from_table(table), (0, 1))]
    words = [(0, 0, 0, 0), (0, 1, 1, 0, 1)]
    clean = [tree_sums(make(), "bpt", words) for make, _ in cases]
    monkeypatch.setattr(WeightedTroupe, "_weight", fault(WeightedTroupe._weight))
    changed = [tree_sums(make(), "bpt", words) != sums for (make, _), sums in zip(cases, clean)]
    assert any(changed) == (fault is _box_dropped)
    for make, alphabet in cases:
        tau = make()
        found = equivalence_reports(tau, alphabet, 5, 6)
        assert all(report.all_equal for report in found.reports), tau
        assert found.series_failure is None, tau
    assert evaluate_mismatches(three_color_table)


def generic_theorem_mismatches(alphabet, max_len) -> list:
    """``(word, sum)`` for each word up to ``max_len`` over ``alphabet`` and
    each sum of it that is wrong on the generic troupe, so for some troupe,
    and ``(word, "evaluate")`` where the troupe weighs a plain tree of the
    word otherwise than by its insertion factors.

    The sums cannot see every fault: weighing each branch by its mirror
    image's variable permutes the trees of each word with their values, so
    every sum stays as it was, but the value of a tree changes.

    The kernels run on the generic troupe's branch variables: the plain-tree
    and branch sums by :func:`tree_sums`, the moments from the Boolean
    cumulants, the negated branch sums, by the first-block recursion, the
    free and classical cumulants solved from those moments as
    ``moments_to_cumulants`` solves them, and the classical bridge on the
    branch sums.  Each must equal the polynomial summed over the trees the
    enumerators give: the branch sum and the plain-tree sum, which is the
    negated free cumulant, and the decreasing-tree sum, which is the negated
    classical cumulant and the bridge."""
    tau = GenericTroupe()
    words = list(iter_words(alphabet, max_len))
    found = {"branch": tree_sums(tau, "branch", words), "bpt": tree_sums(tau, "bpt", words)}
    boolean = {word: -value for word, value in found["branch"].items()}
    moments, free, classical = {}, {}, {}
    for word in words:  # shortest first: each sum reads only shorter words
        moments[word] = _first_block_sum(word, "boolean", boolean, moments)
        for kind, table in (("free", free), ("classical", classical)):
            table[word] = 0  # held at 0 in its own sum, so the one-block term drops out
            table[word] = moments[word] - _first_block_sum(word, kind, table, moments)
    found["-free"] = {word: -value for word, value in free.items()}
    found["-classical"] = {word: -value for word, value in classical.items()}
    found["bridge"] = _first_max_sums(found["branch"], alphabet, max_len)
    family = {"branch": "branch", "bpt": "bpt", "-free": "bpt",
              "-classical": "dbpt", "bridge": "dbpt"}
    return [(word, name) for word in words for name, table in found.items()
            if table[word] != generic_tree_sum(family[name], word)] + [
        (word, "evaluate") for word in words
        if any(tau.evaluate(t) != BranchPoly({factor_monomial(t): 1})
               for t in iter_bpt_word(word) if t.nodes)]


@pytest.mark.parametrize("alphabet, max_len", [((0,), 9), ((0, 1), 6), ((0, 1, 2), 5)],
                         ids=["one-color", "two-colors", "three-colors"])
def test_the_theorem_holds_for_the_generic_troupe(alphabet, max_len):
    assert generic_theorem_mismatches(alphabet, max_len) == []


@FAULTS
def test_every_troupe_fault_breaks_the_generic_theorem(fault, monkeypatch):
    monkeypatch.setattr(GenericTroupe, "_weight", fault(GenericTroupe._weight))
    assert generic_theorem_mismatches((0, 1), 6)


def test_root_sums_build_no_tree(monkeypatch):
    import troupes.trees
    from troupes.troupe import WeightedTroupe

    def refuse(*args):
        raise AssertionError("a tree was built or evaluated")

    for name in ("enumerate_trees", "iter_bpt_word", "iter_branch_word"):
        monkeypatch.setattr(troupes.trees, name, refuse)
    monkeypatch.setattr(WeightedTroupe, "evaluate", refuse)
    assert tree_sums(all_trees(), "bpt", [size_word(7)]) == {size_word(7): 429}
    assert (tree_sums(motzkin_trees(), "BPT", [(0, 1, 1, 0, 1)])
            == {(0, 1, 1, 0, 1): motzkin_number(3)})
    assert tree_sums(builtin("colorcount:1", 2), "bpt", [(0, 1, 1)]) == {(0, 1, 1): 2 * q ** 2}
    assert tree_sums(all_trees(), "branch", [size_word(7)]) == {size_word(7): 2 ** 6}
    assert tree_sums(motzkin_trees(), "Branch", [(0, 1, 1, 0, 1)]) == {(0, 1, 1, 0, 1): 1}
    assert tree_sums(full_trees(), "branch", [size_word(5)]) == {size_word(5): 0}
    assert tree_sums(full_trees(), "branch", [(1, 0)]) == {(1, 0): 1}
    assert tree_sums(builtin("colorcount:1", 2), "branch", [(0, 1, 1)]) == {(0, 1, 1): 2 * q ** 2}
    for kind in ("bpt", "branch"):
        with pytest.raises(ValueError):
            tree_sums(all_trees(), kind, [()])


@pytest.mark.parametrize("kind", ["bpt", "branch"])
def test_tree_sums_read_only_the_factors_of_the_words_trees(kind):
    # a split with an empty right part closes no tree, so it adds 0 to every
    # sum; it still reads the weight of a branch that no tree of the word has
    trees = {"bpt": iter_bpt_word, "branch": iter_branch_word}[kind]
    for word in [w for n in range(1, 7) for w in itertools.product((0, 1), repeat=n)]:
        read = set()

        def weight(b):
            read.add((b.box_color, b.nodes))
            return Fraction(1)

        tree_sums(WeightedTroupe("recorder", weight), kind, [word])
        factors = {(b.box_color, b.nodes) for t in trees(word) if t.nodes
                   for _, _, b in factor_paths(t)}
        assert read <= factors, word


def test_branch_reader_rejects_non_branch():
    t = next(t for t in iter_bpt_word(size_word(3)) if two_child_count(t) > 0)
    with pytest.raises(ValueError):
        PsiInput(SetPartition.of(4, [[1, 2, 3, 4]]), (t,)).validate()
    with pytest.raises(ValueError):
        PhiInput((4, 3, 2, 1), (t,)).validate()
