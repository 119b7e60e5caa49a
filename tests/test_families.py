import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from troupes.cumulants import MomentFunctional, moments_to_cumulants
from troupes.families import (
    alternating_count,
    convolution_additivity_check,
    eulerian_polynomial,
    named_sequence,
)
from troupes.rings import QPoly, RingMismatchError, q
from troupes.series import Series, boolean_free_series_check
from troupes.trees import size_word
from troupes.troupe import builtin, full_trees, right_two_monomial, tree_sums

from oracles import descents, narayana_polynomial


def narayana_closed_form(n):
    """Independent oracle: N(n,k) = C(n,k) C(n,k+1) / n."""
    return QPoly(
        Fraction(math.comb(n, k) * math.comb(n, k + 1), n) for k in range(n)
    )


def test_eulerian_small():
    assert eulerian_polynomial(1) == QPoly((1,))
    assert eulerian_polynomial(2) == 1 + q
    assert eulerian_polynomial(3) == QPoly((1, 4, 1))
    assert eulerian_polynomial(4) == QPoly((1, 11, 11, 1))


def test_eulerian_total_mass():
    for n in range(1, 7):
        assert sum(eulerian_polynomial(n).coeffs) == math.factorial(n)


def eulerian_brute_force(n):
    """Descent counts of all n! permutations of 1..n, walked one by one."""
    counts = [0] * n
    for sigma in itertools.permutations(range(1, n + 1)):
        counts[len(descents(sigma))] += 1
    return QPoly(counts)


def test_eulerian_polynomial_matches_brute_force():
    for n in range(1, 9):
        assert eulerian_polynomial(n) == eulerian_brute_force(n)


def test_narayana_small():
    assert narayana_polynomial(1) == QPoly((1,))
    assert narayana_polynomial(2) == 1 + q
    assert narayana_polynomial(3) == QPoly((1, 3, 1))


def test_narayana_matches_closed_form():
    for n in range(1, 8):
        assert narayana_polynomial(n) == narayana_closed_form(n)


def test_counts_below_size_1_raise():
    for count in (eulerian_polynomial, alternating_count):
        with pytest.raises(ValueError, match="n must be positive"):
            count(0)


def test_alternating_counts():
    assert [alternating_count(n) for n in range(1, 8)] == [1, 1, 2, 5, 16, 61, 272]


def alternating_count_brute_force(n):
    """Up-down permutations of 1..n, counted by walking all n! of them."""
    return sum(
        all((sigma[i - 1] < sigma[i]) == (i % 2 == 1) for i in range(1, n))
        for sigma in itertools.permutations(range(1, n + 1))
    )


def test_alternating_count_matches_brute_force():
    for n in range(1, 9):
        assert alternating_count(n) == alternating_count_brute_force(n)


def test_right_edge_triple():
    """Weighted sums over the three families against the descent/right-edge
    oracles: branches give q(1+q)^(n-1), trees the Narayana polynomial, and
    labeled trees the Eulerian polynomial."""
    tau = right_two_monomial(q, 1)
    words = [size_word(n) for n in range(1, 11)]
    branch, bpt = (tree_sums(tau, kind, words[:6]) for kind in ("branch", "bpt"))
    dbpt = tree_sums(tau, "dbpt", words)
    for n, word in enumerate(words, 1):
        if n < 7:
            assert branch[word] == q * (1 + q) ** (n - 1)
            assert bpt[word] == q * narayana_polynomial(n)
        assert dbpt[word] == q * eulerian_polynomial(n)


def test_full_triple():
    tau = full_trees()
    catalan = [1, 1, 2, 5, 14]
    words = [size_word(n) for n in range(1, 11)]
    bpt, branch = (tree_sums(tau, kind, words[:6]) for kind in ("bpt", "branch"))
    dbpt = tree_sums(tau, "dbpt", words)
    for n, word in enumerate(words, 1):
        if n < 7:
            assert bpt[word] == (catalan[(n - 1) // 2] if n % 2 == 1 else 0)
            assert branch[word] == (1 if n == 1 else 0)
        assert dbpt[word] == (alternating_count(n) if n % 2 == 1 else 0)


def test_gamma_minus_one():
    seq = named_sequence("gamma_minus_one")
    assert seq.moments(4) == [1, 0, -1, -2, -3]
    ks = seq.classical_cumulants(4)
    assert ks == [0, -1, -2, -6]


def derangements(n):
    """D_0..D_n by D_k = (k - 1)(D_(k-1) + D_(k-2))."""
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[: n + 1]


def test_shifted_exponential_moments_are_derangement_numbers():
    seq = named_sequence("shifted_exponential")
    assert seq.moments(6) == [1, 0, 1, 2, 9, 44, 265]
    assert seq.classical_cumulants(5) == [0, 1, 2, 6, 24]
    for order in range(1, 31):
        moments = seq.moments(order)
        assert moments == derangements(order)
        assert {type(m) for m in moments} == {Fraction}


def test_two_atom():
    seq = named_sequence("two_atom")
    moments = seq.moments(4)
    assert moments[1] == QPoly()
    assert moments[2] == -q
    assert moments[3] == -(q + q * q)
    ks = seq.classical_cumulants(4)
    assert ks[3] == -(q * eulerian_polynomial(3))


def test_geometric_like():
    """K_n = q A_(n-1)(q), and m_n = sum_k C(n, k) (-1)^(n-k) A_k(q), with
    A_0 = 1 and A_k the descent polynomial of the permutations of 1..k,
    walked one by one."""
    seq = named_sequence("geometric_like")
    ks = seq.classical_cumulants(5)
    assert ks[0] == QPoly()
    for n in range(2, 6):
        assert ks[n - 1] == q * eulerian_polynomial(n - 1)
    a = [QPoly((1,))] + [eulerian_brute_force(k) for k in range(1, 9)]
    for order in range(1, 9):
        moments = seq.moments(order)
        assert moments == [sum((a[k] * (math.comb(n, k) * (-1) ** (n - k)) for k in range(n + 1)),
                               QPoly()) for n in range(order + 1)]
        assert {type(m) for m in moments} == {QPoly}


def test_each_family_has_one_type_of_m0():
    """``m_0`` is a ``Fraction`` at every order, order 0 included, or a
    ``QPoly`` at every order: a convolution inverse's is its partner's."""
    for name in ("gamma_minus_one", "shifted_exponential", "two_atom",
                 "geometric_like", "secant"):
        seq = named_sequence(name)
        assert len({type(seq.moments(order)[0]) for order in range(4)}) == 1, name


def test_secant_moments_and_cumulants():
    seq = named_sequence("secant")
    assert seq.moments(10) == [1, 0, 1, 0, 5, 0, 61, 0, 1385, 0, 50521]
    # tangent numbers appear one index after their alternating count
    assert seq.classical_cumulants(10) == [0, 1, 0, 2, 0, 16, 0, 272, 0, 7936]


def test_every_sequence_matches_its_closed_form():
    """Both classical routes, the log of the moment EGF and the conversion
    that ``examples`` prints, give the closed form."""
    order = 10
    for name in ("gamma_minus_one", "shifted_exponential", "two_atom",
                 "geometric_like", "secant"):
        seq = named_sequence(name)
        assert seq.classical_cumulants(order) == seq.expected_classical(order)
        moments = seq.moments(order)
        phi = MomentFunctional.of((0,), order,
                                  {(0,) * n: moments[n] for n in range(1, order + 1)})
        table = moments_to_cumulants(phi, "classical").table
        assert [table[(0,) * n] for n in range(1, order + 1)] == seq.expected_classical(order)


def test_rational_families_free_and_boolean_at_order_30():
    # the univariate conversions keep one first-block state per (word on S,
    # open gap), so order 30 is quick; one state per block would be 2^29
    order = 30
    for name in ("gamma_minus_one", "shifted_exponential", "secant"):  # the rational ones
        moments = named_sequence(name).moments(order)
        phi = MomentFunctional.of((0,), order,
                                  {(0,) * n: moments[n] for n in range(1, order + 1)})
        ogf = {}
        for kind in ("free", "boolean"):
            table = moments_to_cumulants(phi, kind).table
            ogf[kind] = Series([0] + [table[(0,) * n] for n in range(1, order + 1)])
        one = Series.one(order + 1)
        assert Series(moments) == one / (one - ogf["boolean"]), name
        assert boolean_free_series_check(ogf["boolean"], ogf["free"]), name


def test_each_family_is_a_troupes_negated_tree_sums():
    """The paper's explicit distributions are troupes' cumulants: on the
    constant words of length 1..10, gamma_minus_one's classical, free and
    Boolean cumulants are the negated decreasing-tree, plain-tree and branch
    sums of ``all``, and two_atom's those of ``rightmono:q,1``; their
    convolution inverses, shifted_exponential and geometric_like, have the
    negated classical cumulants, so the sums themselves; and secant's
    classical cumulants are ``full``'s decreasing-tree sums, with no sign.
    Values and types agree, but for the word of length 1, an empty tree,
    whose value is ``Fraction(0)`` in every troupe, while the family's first
    cumulant is the zero of its own ring."""
    order = 10
    words = [size_word(n) for n in range(order)]

    @lru_cache(maxsize=None)
    def tree_side(spec, kind):
        table = tree_sums(builtin(spec, 1), kind, words)
        return [table[word] for word in words]

    def family_side(name, kind):
        seq = named_sequence(name)
        if kind == "dbpt":
            return seq.classical_cumulants(order)
        moments = seq.moments(order)
        phi = MomentFunctional.of((0,), order,
                                  {(0,) * n: moments[n] for n in range(1, order + 1)})
        table = moments_to_cumulants(phi, {"bpt": "free", "branch": "boolean"}[kind]).table
        return [table[word] for word in words]

    pairs = [(name, spec, kind, -1) for name, spec in (("gamma_minus_one", "all"),
                                                       ("two_atom", "rightmono:q,1"))
             for kind in ("dbpt", "bpt", "branch")]
    pairs += [("shifted_exponential", "all", "dbpt", 1),
              ("geometric_like", "rightmono:q,1", "dbpt", 1),
              ("secant", "full", "dbpt", 1)]
    for name, spec, kind, sign in pairs:
        first, *got = family_side(name, kind)
        empty, *want = [sign * x for x in tree_side(spec, kind)]
        assert [(x, type(x)) for x in got] == [(x, type(x)) for x in want], (name, kind)
        assert first == empty == 0 and type(empty) is Fraction, (name, kind)
        assert type(first) is type(got[0]), (name, kind)


def test_unknown_sequence():
    with pytest.raises(ValueError):
        named_sequence("cauchy")


def test_convolution_inverse_pair_has_unit_egf():
    # true by construction, the inverse's moments being the reciprocal of the
    # partner's EGF; the closed-form moment tests above pin them independently
    f = named_sequence("gamma_minus_one")
    g = named_sequence("shifted_exponential")
    order = 8
    fact = [math.factorial(k) for k in range(order + 1)]
    ef = Series([m * Fraction(1, fact[n]) for n, m in enumerate(f.moments(order))])
    eg = Series([m * Fraction(1, fact[n]) for n, m in enumerate(g.moments(order))])
    assert ef * eg == Series.one(order + 1)


def test_convolution_additivity():
    f = named_sequence("gamma_minus_one")
    g = named_sequence("shifted_exponential")
    assert convolution_additivity_check(f, g, 10)
    assert convolution_additivity_check(f, f, 8)
    tq = named_sequence("two_atom")
    gq = named_sequence("geometric_like")
    assert convolution_additivity_check(tq, gq, 10)


def test_convolution_check_rejects_mixed_rings():
    rational = named_sequence("gamma_minus_one")
    poly = named_sequence("two_atom")
    for f, g in ((rational, poly), (poly, rational)):
        with pytest.raises(RingMismatchError):
            convolution_additivity_check(f, g, 6)


def test_additivity_cancellation_is_elementwise_zero():
    for a, b in [("gamma_minus_one", "shifted_exponential"),
                 ("two_atom", "geometric_like")]:
        ka = named_sequence(a).classical_cumulants(10)
        kb = named_sequence(b).classical_cumulants(10)
        assert all(x + y == 0 for x, y in zip(ka, kb))
