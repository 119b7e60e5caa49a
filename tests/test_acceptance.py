"""Acceptance suite: every identity the package promises, at full stated size.

Each test prints one pass/fail line.  All comparisons are exact (rational or
polynomial equality); truncation orders and enumeration bounds are pinned
here and nowhere else.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

from troupes.cumulants import (
    MomentFunctional,
    classical_via_egf,
    cumulants_to_moments,
    moments_to_cumulants,
    equivalence_reports,
)
from troupes.families import (
    alternating_count,
    convolution_additivity_check,
    eulerian_polynomial,
    named_sequence,
)
from troupes.peaks import factors_from_plot, peaks, southeast_decomposition, tree_factors_for_comparison
from troupes.bijections import (
    iter_phi_inputs,
    iter_psi_inputs,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
)
from troupes.rings import QPoly, q
from troupes.series import (
    Series,
    boolean_free_series_check,
    inverse_troupe_transform,
    troupe_transform,
)
from troupes.troupe import (
    all_trees,
    color_count,
    from_table,
    full_trees,
    motzkin_trees,
    random_branch_table,
    right_two_monomial,
    tree_sums,
)
from troupes.trees import (
    encode,
    encode_labeled,
    insertion_factors,
    iter_branch_word,
    iter_bpt_word,
    iter_dbpt_word,
    iter_words,
    labeled_multiset_key,
    multiset_key,
    postorder,
    size_word,
)

from oracles import narayana_polynomial, phi_tilde, tree_series


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def motzkin(n: int) -> int:
    if n <= 1:
        return 1
    return motzkin(n - 1) + sum(motzkin(k) * motzkin(n - 2 - k) for k in range(n - 1))


def narayana_closed_form(n: int) -> QPoly:
    return QPoly(
        Fraction(math.comb(n, k) * math.comb(n, k + 1), n) for k in range(n)
    )


def report(number: int, label: str) -> None:
    print(f"acceptance criterion {number} ({label}): PASS")


def test_criterion_1_cumulant_equivalence():
    """Classical/free/Boolean cumulants of a weighted troupe agree with the
    decreasing-tree, plain-tree, and branch sums, via the partition formulas
    and the two bridge expansions alike."""
    builtins = (all_trees(), full_trees(), motzkin_trees(), right_two_monomial(q, 1))
    for tau in builtins:
        found = equivalence_reports(tau, (0,), 8, 8)
        assert found.series_failure is None, tau.name
        for r in found.reports:
            assert r.all_equal, (tau.name, r.word)
    for seed in range(20):
        tau = from_table(random_branch_table(seed, max_size=5, num_colors=2),
                         name=f"random{seed}")
        found = equivalence_reports(tau, (0, 1), 6, 6)
        assert found.series_failure is None, tau.name
        for r in found.reports:
            assert r.all_equal, (tau.name, r.word)
    report(1, "three-way cumulant equivalence")


def test_criterion_2_count_triples():
    for n in range(1, 9):
        dbpt = set()
        for lt in iter_dbpt_word(size_word(n)):
            dbpt.add(encode_labeled(lt))
        assert len(dbpt) == math.factorial(n)
        bpt = {encode(t) for t in iter_bpt_word(size_word(n))}
        assert len(bpt) == catalan(n)
        branches = {encode(b) for b in iter_branch_word(size_word(n))}
        assert len(branches) == 2 ** (n - 1)
    report(2, "factorial / Catalan / power-of-two counts")


def test_criterion_3_right_edge_polynomial_triple():
    tau = right_two_monomial(q, 1)
    words = [size_word(n) for n in range(1, 8)]
    dbpt, bpt, branch = (tree_sums(tau, kind, words) for kind in ("dbpt", "bpt", "branch"))
    for n, word in enumerate(words, 1):
        assert dbpt[word] == q * eulerian_polynomial(n)
        assert bpt[word] == q * narayana_polynomial(n)
        assert branch[word] == q * (1 + q) ** (n - 1)
    report(3, "Eulerian / Narayana / binomial weighted sums")


def test_criterion_4_full_triple_and_secant():
    tau = full_trees()
    words = [size_word(n) for n in range(1, 8)]
    sums = [tree_sums(tau, kind, words).values() for kind in ("dbpt", "bpt", "branch")]
    for n, dbpt, bpt, branch in zip(range(1, 8), *sums):
        if n % 2 == 1:
            assert dbpt == alternating_count(n)
            assert bpt == catalan((n - 1) // 2)
        else:
            assert dbpt == 0 and bpt == 0
        assert branch == (1 if n == 1 else 0)
    secant = named_sequence("secant")
    got = classical_via_egf(secant.moments(10))
    tangent = [
        Fraction(alternating_count(n - 1)) if n % 2 == 0 else Fraction(0)
        for n in range(1, 11)
    ]
    assert got == tangent
    report(4, "full-tree sums and tangent-number cumulants")


def test_criterion_5_transform_maps_and_roundtrips():
    order = 12
    cases = [
        (
            Series([0] + [2 ** (n - 1) for n in range(1, order)]),
            Series([0] + [catalan(n) for n in range(1, order)]),
        ),
        (
            Series([0, 1], order=order),
            Series(
                [0]
                + [catalan((n - 1) // 2) if n % 2 == 1 else 0 for n in range(1, order)]
            ),
        ),
        (
            Series([0] + [1] * (order - 1)),
            Series([0] + [motzkin(n - 1) for n in range(1, order)]),
        ),
        (
            Series([QPoly()] + [q * (1 + q) ** (n - 1) for n in range(1, order)]),
            Series([QPoly()] + [q * narayana_closed_form(n) for n in range(1, order)]),
        ),
    ]
    for b, expected in cases:
        t = troupe_transform(b)
        assert t == expected
        assert inverse_troupe_transform(t) == b

    troupes = (
        all_trees(),
        full_trees(),
        motzkin_trees(),
        right_two_monomial(q, 1),
        right_two_monomial(Fraction(2), Fraction(3)),
        color_count({0}),
    )
    for tau in troupes:
        branches = tree_sums(tau, "branch", [size_word(n) for n in range(1, 9)])
        assert troupe_transform(Series([0] + list(branches.values()))) == tree_series(tau, 9)
    report(5, "series transform against enumeration")


def test_criterion_6_bijections():
    for n in range(2, 8):
        word = (0,) * n
        psi_images = []
        for x in iter_psi_inputs(word):
            t = psi(x)
            assert postorder(t) == list(range(n - 1))
            assert multiset_key(insertion_factors(t)) == tuple(
                sorted(encode(b) for b in x.branches)
            )
            assert psi_inverse(t).key() == x.key()
            psi_images.append(encode(t))
        assert sorted(psi_images) == sorted(encode(t) for t in iter_bpt_word(word))

        phi_images = []
        for x in iter_phi_inputs(word):
            tilde = phi_tilde(x)
            assert all(
                right is not None or left is None for _, left, right in tilde.tree.nodes
            )
            lt = phi(x)
            from troupes.trees import labeled_insertion_factors

            assert multiset_key(
                [f.tree for f in labeled_insertion_factors(lt)]
            ) == tuple(sorted(encode(b) for b in x.branches))
            assert phi_inverse(lt).key() == x.key()
            phi_images.append(encode_labeled(lt))
        assert sorted(phi_images) == sorted(
            encode_labeled(lt) for lt in iter_dbpt_word(word)
        )

    for n in range(2, 7):
        for word in itertools.product((0, 1), repeat=n):
            psi_images = [encode(psi(x)) for x in iter_psi_inputs(word)]
            assert sorted(psi_images) == sorted(
                encode(t) for t in iter_bpt_word(word)
            )
            assert len(set(psi_images)) == len(psi_images)
            phi_images = [encode_labeled(phi(x)) for x in iter_phi_inputs(word)]
            assert sorted(phi_images) == sorted(
                encode_labeled(lt) for lt in iter_dbpt_word(word)
            )
            assert len(set(phi_images)) == len(phi_images)
    report(6, "partition and permutation bijections")


def test_criterion_7_peak_extraction():
    for n in range(1, 9):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert labeled_multiset_key(factors_from_plot(sigma)) == (
                labeled_multiset_key(tree_factors_for_comparison(sigma))
            )
    worked = (15, 16, 10, 11, 6, 20, 18, 12, 1, 7, 13, 17, 8, 3, 2, 9, 5, 4, 14, 19)
    assert peaks(worked) == [2, 4, 6, 12, 16]
    assert southeast_decomposition(worked)[0] == (1,)
    report(7, "plot-based factor extraction")


def test_criterion_8_cumulant_machinery():
    rng = random.Random(2024)
    for _ in range(50):
        table = {
            w: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for w in iter_words((0, 1), 6)
        }
        phi_fn = MomentFunctional.of((0, 1), 6, table)
        for kind in ("classical", "free", "boolean"):
            cum = moments_to_cumulants(phi_fn, kind)
            assert cumulants_to_moments(cum).table == phi_fn.table

    for seed in range(10):
        rng = random.Random(1000 + seed)
        b = Series(
            [Fraction(0)]
            + [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(11)]
        )
        t = troupe_transform(b)
        assert boolean_free_series_check(-b.shift(), -t.shift())

    rng = random.Random(77)
    for _ in range(5):
        moments = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
        phi_fn = MomentFunctional.of(
            (0,), 8, {(0,) * n: moments[n - 1] for n in range(1, 9)}
        )
        table = moments_to_cumulants(phi_fn, "classical")
        egf = classical_via_egf([Fraction(1)] + moments)
        for n in range(1, 9):
            assert table.table[(0,) * n] == egf[n - 1]
    report(8, "moment/cumulant conversions and the series identity")


def test_criterion_9_convolution_additivity():
    f = named_sequence("gamma_minus_one")
    g = named_sequence("shifted_exponential")
    assert convolution_additivity_check(f, g, 10)
    kf = f.classical_cumulants(10)
    kg = g.classical_cumulants(10)
    assert all(a + b == 0 for a, b in zip(kf, kg))

    tq = named_sequence("two_atom")
    gq = named_sequence("geometric_like")
    assert convolution_additivity_check(tq, gq, 10)
    kt = tq.classical_cumulants(10)
    kgq = gq.classical_cumulants(10)
    assert all(a + b == 0 for a, b in zip(kt, kgq))
    report(9, "convolution-inverse cumulant cancellation")
