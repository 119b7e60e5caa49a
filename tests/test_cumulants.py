import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from troupes import cumulants
from troupes.cumulants import (
    CumulantTable,
    MomentFunctional,
    boolean_to_classical,
    boolean_to_free,
    classical_via_egf,
    cumulants_to_moments,
    format_table,
    moment_functional_from_text,
    moments_to_cumulants,
    parse_table,
    equivalence_reports,
)
from troupes.partitions import (
    first_n_druns_index_blocks,
    iter_partitions,
    partitions_as_index_blocks,
)
from troupes.rings import QPoly, q
from troupes.trees import iter_words
from troupes.troupe import (
    all_trees,
    from_table,
    full_trees,
    motzkin_trees,
    random_branch_table,
    right_two_monomial,
)

from oracles import druns, equivalence_report, iter_sigma_first_n, run_partition_counts

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]  # C_0..C_7


def univariate_phi(moments, max_len=None):
    """Moment functional over a single color from m_1.. (m_0 = 1 implied)."""
    max_len = max_len or len(moments)
    table = {(0,) * n: moments[n - 1] for n in range(1, max_len + 1)}
    return MomentFunctional.of((0,), max_len, table)


def random_phi(rng, alphabet, max_len):
    table = {
        w: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for w in iter_words(alphabet, max_len)
    }
    return MomentFunctional.of(alphabet, max_len, table)


# -- the fourth-cumulant worked example, with a symbolic fourth moment


def test_fourth_cumulants_symbolic():
    # m1 = m3 = 0, m2 = 1, m4 = q: the three kinds subtract the number of
    # pairings in their partition class (3 classical, 2 noncrossing, 1 interval)
    moments = [QPoly(), QPoly((1,)), QPoly(), q]
    phi = univariate_phi(moments)
    w = (0, 0, 0, 0)
    assert moments_to_cumulants(phi, "classical").table[w] == q - 3
    assert moments_to_cumulants(phi, "free").table[w] == q - 2
    assert moments_to_cumulants(phi, "boolean").table[w] == q - 1


def test_length_one_cumulants_equal_moments():
    rng = random.Random(1)
    phi = random_phi(rng, (0, 1), 3)
    for kind in ("classical", "free", "boolean"):
        table = moments_to_cumulants(phi, kind)
        assert table.table[(0,)] == phi.table[(0,)]
        assert table.table[(1,)] == phi.table[(1,)]


def test_exponential_moments_have_vanishing_higher_cumulants():
    phi = univariate_phi([Fraction(1)] * 6)
    ks = moments_to_cumulants(phi, "classical")
    assert ks.table[(0,)] == 1
    for n in range(2, 7):
        assert ks.table[(0,) * n] == 0


def test_boolean_pairing_moments():
    # B_2 = 1 only: moments count interval pair partitions, 1 if n even
    table = {(0,) * n: Fraction(1 if n == 2 else 0) for n in range(1, 9)}
    b = CumulantTable("boolean", (0,), 8, table)
    phi = cumulants_to_moments(b)
    for n in range(1, 9):
        assert phi.table[(0,) * n] == (1 if n % 2 == 0 else 0)


def test_roundtrip_all_kinds():
    rng = random.Random(7)
    for _ in range(8):
        phi = random_phi(rng, (0, 1), 5)
        for kind in ("classical", "free", "boolean"):
            table = moments_to_cumulants(phi, kind)
            back = cumulants_to_moments(table)
            assert back.table == phi.table


def test_roundtrip_other_direction():
    rng = random.Random(9)
    for kind in ("classical", "free", "boolean"):
        table = {
            w: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for w in iter_words((0, 1), 4)
        }
        cum = CumulantTable(kind, (0, 1), 4, table)
        again = moments_to_cumulants(cumulants_to_moments(cum), kind)
        assert again.table == cum.table


def test_multilinearity_scaling():
    rng = random.Random(21)
    phi = random_phi(rng, (0, 1), 5)
    scaled = MomentFunctional.of(
        (0, 1),
        5,
        {w: phi.table[w] * 2 ** w.count(1) for w in phi.table},
    )
    for kind in ("classical", "free", "boolean"):
        base = moments_to_cumulants(phi, kind)
        got = moments_to_cumulants(scaled, kind)
        for w in base.table:
            assert got.table[w] == base.table[w] * 2 ** w.count(1)


# -- bridges


def test_boolean_to_free_small_cases():
    rng = random.Random(3)
    table = {
        w: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for w in iter_words((0,), 3)
    }
    b = CumulantTable("boolean", (0,), 3, table)
    free = boolean_to_free(b)
    # n = 1 and n = 2: only one irreducible partition each, so R = B
    assert free.table[(0,)] == b.table[(0,)]
    assert free.table[(0, 0)] == b.table[(0, 0)]
    # n = 3: {{1,2,3}} and {{1,3},{2}}
    b1, b2, b3 = b.table[(0,)], b.table[(0, 0)], b.table[(0, 0, 0)]
    assert free.table[(0, 0, 0)] == -(-b3 + (-b2) * (-b1))


def test_boolean_to_free_vanishing_singletons():
    table = {(0,): Fraction(0), (0, 0): Fraction(5), (0, 0, 0): Fraction(7)}
    b = CumulantTable("boolean", (0,), 3, table)
    assert boolean_to_free(b).table[(0, 0, 0)] == 7


def test_boolean_to_classical_small_cases():
    rng = random.Random(4)
    table = {
        w: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for w in iter_words((0,), 3)
    }
    b = CumulantTable("boolean", (0,), 3, table)
    k = boolean_to_classical(b)
    assert k.table[(0,)] == b.table[(0,)]
    assert k.table[(0, 0)] == b.table[(0, 0)]
    # n = 3: sigma in {312, 321}; druns(312) = {13|2}, druns(321) = {123}
    b1, b2, b3 = b.table[(0,)], b.table[(0, 0)], b.table[(0, 0, 0)]
    assert k.table[(0, 0, 0)] == -(-b3 + (-b2) * (-b1))


def test_bridges_agree_with_partition_recursion():
    rng = random.Random(13)
    for _ in range(6):
        phi = random_phi(rng, (0, 1), 5)
        boolean = moments_to_cumulants(phi, "boolean")
        assert boolean_to_free(boolean).table == moments_to_cumulants(phi, "free").table
        assert (
            boolean_to_classical(boolean).table
            == moments_to_cumulants(phi, "classical").table
        )


# -- brute-force oracle: block products summed straight from the lattices


def _oracle_sum(word, partitions, table):
    """Sum over 1-based block lists of the product of ``table[word|block]``,
    each product started from its first block's entry."""
    total = Fraction(0)
    for first, *rest in partitions:
        prod = table[tuple([word[i - 1] for i in first])]
        for block in rest:
            prod = prod * table[tuple([word[i - 1] for i in block])]
        total = total + prod
    return total


@lru_cache(maxsize=None)
def _class_blocks(n, kind):
    klass = {"classical": "all", "free": "noncrossing", "boolean": "interval"}[kind]
    return tuple(p.blocks for p in iter_partitions(n, klass))


def oracle_moments(cumulants, kind, words):
    return {w: _oracle_sum(w, _class_blocks(len(w), kind), cumulants) for w in words}


def oracle_cumulants(moments, kind, words):
    out = {}
    for w in words:  # shortest first, so every proper block is already solved
        proper = [blocks for blocks in _class_blocks(len(w), kind) if len(blocks) > 1]
        out[w] = moments[w] - _oracle_sum(w, proper, out)
    return out


def oracle_bridge(boolean, partitions_of, words):
    negated = {w: -v for w, v in boolean.items()}
    return {w: -_oracle_sum(w, partitions_of(len(w)), negated) for w in words}


@lru_cache(maxsize=None)
def _nc_irreducible_blocks(n):
    return tuple(p.blocks for p in iter_partitions(n, "nc_irreducible"))


@lru_cache(maxsize=None)
def _run_blocks(n):
    # one term per permutation: run partitions that repeat are summed again
    return tuple(druns(sigma).blocks for sigma in iter_sigma_first_n(n))


COPRIME = (2, 3, 5, 7)


def random_ring_table(rng, ring, alphabet, max_len):
    """``int`` entries, ``Fraction``s over 1..4 (``rational``) or over the
    pairwise-coprime 2, 3, 5, 7 (``coprime``), ``QPoly``s, or all three in
    one table (``mixed``)."""
    def value(ring):
        if ring == "int":
            return rng.randint(-4, 4)
        if ring == "rational":
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if ring == "coprime":
            return Fraction(rng.randint(-6, 6), rng.choice(COPRIME))
        if ring == "mixed":
            return value(rng.choice(("int", "coprime", "qpoly")))
        return QPoly(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 3)))

    return {w: value(ring) for w in iter_words(alphabet, max_len)}


def assert_same_entries(got, want):
    """Equal tables, entry by entry, in value and in ``type()``."""
    assert list(got) == list(want)
    for word, value in want.items():
        assert got[word] == value, word
        assert type(got[word]) is type(value), word


@pytest.mark.parametrize("ring", ["rational", "qpoly", "int", "coprime", "mixed"])
def test_conversions_match_brute_force_oracle(ring):
    # two of the 24 permutations share a run partition, so the grouped
    # classical bridge meets a multiplicity above 1
    assert len(set(_run_blocks(5))) == 22
    rng = random.Random(31)
    for alphabet, max_len, tables in (((0, 1), 5, 2), ((0, 1, 2), 4, 1), ((0,), 7, 1),
                                      ((0, 1), 6, 1), ((0, 1, 2), 5, 1)):
        words = list(iter_words(alphabet, max_len))
        for _ in range(tables):
            table = random_ring_table(rng, ring, alphabet, max_len)
            # built directly, so int entries reach the kernels as ints
            phi = MomentFunctional(alphabet, max_len, table)
            for kind in ("classical", "free", "boolean"):
                assert_same_entries(moments_to_cumulants(phi, kind).table,
                                    oracle_cumulants(table, kind, words))
                cum = CumulantTable(kind, alphabet, max_len, table)
                assert_same_entries(cumulants_to_moments(cum).table,
                                    oracle_moments(table, kind, words))
            boolean = CumulantTable("boolean", alphabet, max_len, table)
            assert_same_entries(boolean_to_free(boolean).table,
                                oracle_bridge(table, _nc_irreducible_blocks, words))
            assert_same_entries(boolean_to_classical(boolean).table,
                                oracle_bridge(table, _run_blocks, words))


def _mask_positions(mask, n):
    """The 0-based positions of the set bits of a block mask, ascending."""
    assert 0 < mask < 1 << n
    return tuple(i for i in range(n) if mask >> i & 1)


def test_run_partition_counts_match_druns():
    for n in range(1, 10):
        zero_based = [tuple(tuple(i - 1 for i in b) for b in druns(sigma).blocks)
                      for sigma in iter_sigma_first_n(n)]
        walk = Counter(zero_based)
        counts = run_partition_counts(n)
        as_positions = Counter()
        for key, count in counts.items():
            as_positions[tuple(_mask_positions(m, n) for m in key)] += count
        assert len(as_positions) == len(counts)
        assert as_positions == walk
        assert first_n_druns_index_blocks(n) == tuple(zero_based)


def test_classical_bridge_matches_the_run_partition_table():
    # past the brute-force sizes: each run partition once, with its count
    rng = random.Random(28)
    # and at max_len 1 and 2, where the walk over tails reads no tail or no grown state
    for alphabet, max_len in (((0,), 9), ((0, 1), 7), ((0, 1, 2), 6),
                              ((0,), 1), ((0, 1), 1), ((0,), 2), ((0, 1, 2), 2)):
        table = random_ring_table(rng, "mixed", alphabet, max_len)
        negated = {w: -v for w, v in table.items()}
        want = {}
        for w in iter_words(alphabet, max_len):
            total = Fraction(0)
            for key, count in run_partition_counts(len(w)).items():
                prod = Fraction(count)
                for m in key:
                    prod = prod * negated[tuple(w[i] for i in _mask_positions(m, len(w)))]
                total = total + prod
            want[w] = -total
        boolean = CumulantTable("boolean", alphabet, max_len, table)
        assert_same_entries(boolean_to_classical(boolean).table, want)


@pytest.mark.parametrize("klass", ["all", "interval", "noncrossing", "nc_irreducible",
                                   "nc_irreducible_min2"])
def test_partition_masks_round_trip_to_iter_partitions(klass):
    for n in range(1, 9):
        masks = partitions_as_index_blocks(n, klass)
        blocks = [p.blocks for p in iter_partitions(n, klass)]
        assert len(masks) == len(blocks)
        for key, want in zip(masks, blocks):
            assert all(type(m) is int for m in key)
            assert tuple(tuple(i + 1 for i in _mask_positions(m, n)) for m in key) == want


def test_conversions_build_no_lattice_table(monkeypatch):
    requested = []

    def spy(n, klass):
        requested.append(klass)
        return partitions_as_index_blocks(n, klass)

    monkeypatch.setattr(cumulants, "partitions_as_index_blocks", spy)
    rng = random.Random(5)
    phi = random_phi(rng, (0, 1), 5)
    for kind in ("classical", "free", "boolean"):
        cumulants_to_moments(moments_to_cumulants(phi, kind))
    boolean_to_classical(moments_to_cumulants(phi, "boolean"))
    assert requested == []
    # the spy sees the free bridge, which keeps the whole-class sum
    boolean_to_free(moments_to_cumulants(phi, "boolean"))
    assert set(requested) == {"nc_irreducible"}


def test_unknown_kind_raises():
    phi = random_phi(random.Random(1), (0,), 2)
    with pytest.raises(ValueError, match="unknown cumulant kind"):
        moments_to_cumulants(phi, "monotone")
    with pytest.raises(ValueError, match="unknown cumulant kind"):
        cumulants_to_moments(CumulantTable("monotone", (0,), 2, dict(phi.table)))
    # the kind is checked on entry, so a table with no word to sum, or one
    # whose one word sums no block product, does not let it through
    for max_len, table in ((0, {}), (1, {(0,): Fraction(2)})):
        with pytest.raises(ValueError, match="unknown cumulant kind 'bogus'"):
            moments_to_cumulants(MomentFunctional.of([0], max_len, table), "bogus")
        with pytest.raises(ValueError, match="unknown cumulant kind 'bogus'"):
            cumulants_to_moments(CumulantTable("bogus", (0,), max_len, table))


def test_bridge_kind_guards():
    table = {(0,): Fraction(1)}
    with pytest.raises(ValueError):
        boolean_to_free(CumulantTable("free", (0,), 1, table))
    with pytest.raises(ValueError):
        boolean_to_classical(CumulantTable("classical", (0,), 1, table))


# -- the exponential generating function route


def test_egf_route_gamma_minus_one():
    moments = [Fraction(1)] + [Fraction(1 - n) for n in range(1, 9)]
    ks = classical_via_egf(moments)
    fact = 1
    assert ks[0] == 0
    for n in range(2, 9):
        fact *= n - 1
        assert ks[n - 1] == -fact


def test_egf_route_matches_partition_recursion():
    rng = random.Random(17)
    for _ in range(5):
        moments = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
        phi = univariate_phi(moments)
        table = moments_to_cumulants(phi, "classical")
        egf = classical_via_egf([Fraction(1)] + moments)
        for n in range(1, 9):
            assert table.table[(0,) * n] == egf[n - 1]


def test_egf_requires_unit_constant():
    with pytest.raises(ValueError):
        classical_via_egf([Fraction(2), Fraction(1)])


# -- the tree-enumeration characterization


def test_equivalence_for_all_trees_singleton():
    report = equivalence_report(all_trees(), (0,) * 6)
    assert report.all_equal
    kinds = {c.kind: c for c in report.checks}
    import math

    assert kinds["classical"].enumeration == -math.factorial(5)
    assert kinds["free"].enumeration == -CATALAN[5]
    assert kinds["boolean"].enumeration == -(2 ** 4)


def test_equivalence_for_full_troupe():
    reports, series_failure = equivalence_reports(full_trees(), (0,), 7, 7)
    assert all(r.all_equal for r in reports) and series_failure is None
    by_len = {len(r.word): r for r in reports}
    # a word of length n sums over trees of size n-1; full trees have odd
    # size, so odd word lengths vanish
    assert by_len[2].checks[1].enumeration == -1
    assert by_len[3].checks[1].enumeration == 0
    assert by_len[4].checks[1].enumeration == -1
    assert by_len[6].checks[1].enumeration == -2
    # classical sums count alternating permutations: a_3 = 2, a_5 = 16
    assert by_len[4].checks[0].enumeration == -2
    assert by_len[6].checks[0].enumeration == -16


def test_equivalence_for_weighted_troupes():
    for tau in (motzkin_trees(), right_two_monomial(q, 1), right_two_monomial(Fraction(2), Fraction(1, 3))):
        reports, series_failure = equivalence_reports(tau, (0,), 6, 6)
        assert all(r.all_equal for r in reports) and series_failure is None


def test_equivalence_for_random_two_color_troupe():
    tau = from_table(random_branch_table(23, max_size=4, num_colors=2))
    reports, series_failure = equivalence_reports(tau, (0, 1), 5, 5)
    assert len(reports) == 2 + 4 + 8 + 16 + 32
    assert all(r.all_equal for r in reports) and series_failure is None


def test_equivalence_for_color_sensitive_builtins():
    from troupes.troupe import color_constrained, color_count

    for tau in (color_constrained({0}), color_count({1})):
        reports, series_failure = equivalence_reports(tau, (0, 1), 5, 5)
        assert all(r.all_equal for r in reports) and series_failure is None


def test_equivalence_reports_sums_each_branch_family_once(monkeypatch):
    """One tree_sums call per family, whose table holds every word once, and
    for branches and plain trees then each color's constant words past the
    words, for the series check; the Boolean check reuses the synthesized
    Boolean table."""
    calls = Counter()
    keys = {}
    real = cumulants.tree_sums

    def counting(tau, kind, words):
        calls[kind] += 1
        table = real(tau, kind, words)
        keys[kind] = list(table)
        return table

    monkeypatch.setattr(cumulants, "tree_sums", counting)
    words = list(iter_words((0, 1), 4))
    for order in (4, 7):
        calls.clear()
        reports, series_failure = equivalence_reports(right_two_monomial(q, 1), (1, 0), 4,
                                                      order)
        assert all(r.all_equal for r in reports) and series_failure is None
        constant = [(c,) * n for c in (0, 1) for n in range(5, order + 1)]
        assert calls == {"branch": 1, "bpt": 1, "dbpt": 1}
        assert keys["dbpt"] == [r.word for r in reports] == words
        assert keys["branch"] == keys["bpt"] == words + constant


def test_equivalence_reports_rejects_an_order_below_1_before_any_work(monkeypatch):
    def no_sums(*args):
        raise AssertionError("tree_sums ran")

    monkeypatch.setattr(cumulants, "tree_sums", no_sums)
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be a positive integer"):
            equivalence_reports(right_two_monomial(q, 1), (0,), 3, order)


def test_equivalence_single_word_wrapper():
    report = equivalence_report(right_two_monomial(q, 1), (0, 0, 0))
    assert report.word == (0, 0, 0)
    assert report.all_equal


# -- serialization


def test_table_roundtrip():
    rng = random.Random(2)
    phi = random_phi(rng, (0, 1), 3)
    text = format_table(phi.table)
    assert parse_table(text) == dict(phi.table)
    again = moment_functional_from_text(text)
    assert again.table == phi.table


def test_table_parse_reports_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_table("word 0 = 1\nword 0,0 := broken\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_table("0 = 1\n")
    with pytest.raises(ValueError, match="line 3: repeated word 0"):
        parse_table("word 0 = 1\nword 1 = 2\nword 0 = 5\n")


def test_moment_functional_requires_dense_table():
    with pytest.raises(KeyError):
        MomentFunctional.of((0,), 2, {(0,): Fraction(1)})
