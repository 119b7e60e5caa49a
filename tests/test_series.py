import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from troupes.rings import QPoly, RingMismatchError, q, ring_inverse
from troupes.series import (
    Series,
    _lagrange_root,
    boolean_free_series_check,
    inverse_troupe_transform,
    troupe_transform,
)

from oracles import (
    list_compose,
    list_inverse_troupe_transform,
    list_lagrange_root,
    list_mul,
    list_troupe_transform,
)

# Frozen reference sequences, cross-checked against enumeration elsewhere.
CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]  # C_1..
MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798]  # M_0..


def series(*coeffs, order=None):
    return Series(list(coeffs), order=order)


def t_series(order, poly=False):
    """The series t, truncated at ``order``."""
    return Series.one(order, poly=poly).shift()


def geometric(order):
    return Series.one(order) / (Series.one(order) - t_series(order))


small_series = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=8
).map(Series)


# -- arithmetic


def test_difference_of_squares():
    one, t = Series.one(4), t_series(4)
    assert (one + t) * (one - t) == series(1, 0, -1, 0)


def test_geometric_series():
    assert geometric(6) == series(1, 1, 1, 1, 1, 1)


def test_long_division_poly_ring():
    # (1 - q t)/(1 - t) worked out by long division: 1 + (1-q)t + (1-q)t^2 + ...
    one, t = Series.one(4, poly=True), t_series(4, poly=True)
    out = (one - Series([0, q], order=4)) / (one - t)
    assert out == Series([QPoly((1,)), 1 - q, 1 - q, 1 - q])


def test_division_by_zero_constant():
    with pytest.raises(ZeroDivisionError):
        Series.one(3) / t_series(3)


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        Series.one(3) + Series.one(3, poly=True)


def test_common_order_truncation():
    a = Series([1, 1, 1, 1, 1])
    b = Series([1, 2])
    assert (a + b).order == 2


# -- composition


def test_compose_identity_inner():
    f = t_series(5) / (Series.one(5) - t_series(5))
    assert f.compose(t_series(5)) == f


def test_compose_square():
    outer = series(0, 0, 1, 0, 0)
    inner = series(0, 1, 1, 0, 0)
    assert outer.compose(inner) == series(0, 0, 1, 2, 1)


def test_compose_geometric():
    outer = geometric(5)
    inner = t_series(5) / (Series.one(5) - t_series(5))
    assert outer.compose(inner) == series(1, 1, 2, 4, 8)


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        Series.one(3).compose(Series.one(3))


@settings(max_examples=30, deadline=None)
@given(small_series, small_series, small_series)
def test_compose_associative(f, g, h):
    n = min(f.order, g.order, h.order)
    g = Series([Fraction(0)] + list(g.coeffs[1:n]), order=n)
    h = Series([Fraction(0)] + list(h.coeffs[1:n]), order=n)
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


# -- log and exp


def test_mercator():
    f = geometric(6).log()
    assert f == Series([Fraction(0)] + [Fraction(1, n) for n in range(1, 6)])


def test_exp_t():
    fact = [1, 1, 2, 6, 24, 120]
    assert t_series(6).exp() == Series([Fraction(1, f) for f in fact])


def test_log_of_product():
    # log((1-t) e^t) = t + log(1-t), checked through independent arithmetic
    n = 8
    one, t = Series.one(n), t_series(n)
    f = ((one - t) * t.exp()).log()
    assert f == t + (one - t).log()
    assert f == Series([0, 0] + [Fraction(-1, k) for k in range(2, n)])


def test_log_exp_preconditions():
    with pytest.raises(ValueError):
        t_series(3).log()
    with pytest.raises(ValueError):
        Series.one(3).exp()


@settings(max_examples=30, deadline=None)
@given(small_series)
def test_exp_log_mutual_inverse(f):
    g = Series([Fraction(0)] + list(f.coeffs), order=f.order + 1)
    assert g.exp().log() == g
    h = Series([Fraction(1)] + list(f.coeffs), order=f.order + 1)
    assert h.log().exp() == h


def test_log_exp_poly_ring():
    g = Series([QPoly(), q, q * q], order=5)
    assert g.exp().log() == g


# -- the branch-to-tree transform


def test_transform_powers_of_two_to_catalan():
    b = Series([0] + [2 ** (n - 1) for n in range(1, 13)])
    assert troupe_transform(b) == Series([0] + CATALAN)


def test_transform_single_branch_to_odd_catalan():
    t = troupe_transform(Series([0, 1], order=13))
    expect = [0] * 13
    for n in range(1, 13, 2):
        expect[n] = CATALAN[(n - 1) // 2 - 1] if n > 1 else 1
    expect[1] = 1
    assert t == Series(expect)


def test_transform_ones_to_motzkin():
    b = Series([0] + [1] * 12)
    assert troupe_transform(b) == Series([0] + MOTZKIN[:12])


def test_transform_narayana():
    # q(1+q)^(n-1) maps to q N_n(q); frozen N_4 = 1 + 6q + 6q^2 + q^3
    b = Series([QPoly()] + [q * (1 + q) ** (n - 1) for n in range(1, 6)])
    t = troupe_transform(b)
    assert t.coeffs[4] == q * QPoly((1, 6, 6, 1))


def test_transform_linear_coefficient_fixed():
    b = Series([0, 7, -3, 11])
    assert troupe_transform(b).coeffs[1] == 7


def test_transform_precondition():
    with pytest.raises(ValueError):
        troupe_transform(Series.one(4))


def test_inverse_transform_examples():
    t = Series([0] + CATALAN)
    assert inverse_troupe_transform(t) == Series(
        [0] + [2 ** (n - 1) for n in range(1, 13)]
    )
    roundtrip = troupe_transform(inverse_troupe_transform(Series([0, 1], order=8)))
    assert roundtrip == Series([0, 1], order=8)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                min_size=1, max_size=15))
def test_transform_roundtrip(coeffs):
    b = Series([Fraction(0)] + coeffs)
    assert inverse_troupe_transform(troupe_transform(b)) == b


# -- the Boolean/free cumulant series identity


def test_series_check_trivial():
    assert boolean_free_series_check(Series([0], order=5), Series([0], order=5))


def test_series_check_worked_pair():
    b = Series([0] + [2 ** (n - 1) for n in range(1, 12)])
    t = troupe_transform(b)
    assert boolean_free_series_check(-b.shift(), -t.shift())


def test_series_check_false():
    assert not boolean_free_series_check(t_series(5), Series([0], order=5))


def test_series_check_precondition():
    with pytest.raises(ValueError):
        boolean_free_series_check(Series.one(4), Series([0], order=4))


def test_series_check_rejects_mixed_rings():
    """Only ``Series`` promotes; the check does not mix a rational series
    with a polynomial one."""
    rational = Series([0, 1, 1, 2])
    poly = Series([0, q, 1, 2])
    for pair in ((rational, poly), (poly, rational)):
        with pytest.raises(RingMismatchError):
            boolean_free_series_check(*pair)


# -- brute-force oracles for the Lagrange-inversion solve and the recurrences
#
# These are the slow, direct solves: the transform and the compositional
# inverse fix one coefficient per degree by a full composition, and log/exp
# sum powers of the series.  Outcomes must agree exactly, errors included.


def zero_of(s):
    return QPoly() if s.is_poly_ring else Fraction(0)


def oracle_troupe_transform(b):
    if b.coeffs[0] != 0:
        raise ValueError("the branch series must have zero constant term")
    n = b.order
    one = Series.one(n, poly=b.is_poly_ring)
    t = t_series(n, poly=b.is_poly_ring)
    coeffs = [zero_of(b) for _ in range(n)]
    for m in range(1, n):
        inner = t / (one - Series(coeffs).shift())
        coeffs[m] = b.compose(inner).coeffs[m]
    return Series(coeffs)


def oracle_compositional_inverse(f):
    n = f.order
    if f.coeffs[0] != 0:
        raise ValueError("compositional inverse needs zero constant term")
    inv_w1 = ring_inverse(f.coeffs[1])
    out = [zero_of(f), inv_w1]
    for m in range(2, n):
        residue = f.compose(Series(out, order=n)).coeffs[m]
        out.append(-residue * inv_w1)
    return Series(out, order=n)


def oracle_inverse_troupe_transform(ts):
    if ts.coeffs[0] != 0:
        raise ValueError("the tree series must have zero constant term")
    n = ts.order
    if n == 1:
        return ts
    one = Series.one(n, poly=ts.is_poly_ring)
    t = t_series(n, poly=ts.is_poly_ring)
    return ts.compose(oracle_compositional_inverse(t / (one - ts.shift())))


def oracle_log(f):
    if f.coeffs[0] != zero_of(f) + 1:
        raise ValueError("log needs constant term 1")
    n = f.order
    h = f - Series.one(n, poly=f.is_poly_ring)
    out = Series([zero_of(f)] * n)
    power = Series.one(n, poly=f.is_poly_ring)
    for k in range(1, n):
        power = power * h
        out = out + Series([c * Fraction((-1) ** (k + 1), k) for c in power.coeffs])
    return out


def oracle_exp(f):
    if f.coeffs[0] != 0:
        raise ValueError("exp needs constant term 0")
    n = f.order
    out = Series.one(n, poly=f.is_poly_ring)
    power = Series.one(n, poly=f.is_poly_ring)
    kfact = 1
    for k in range(1, n):
        power = power * f
        kfact *= k
        out = out + Series([c * Fraction(1, kfact) for c in power.coeffs])
    return out


def outcome(fn, s):
    """The result of ``fn(s)``, or the type of the error it raises."""
    try:
        return fn(s)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def random_series(seed):
    """A seeded rational series of order <= 14 (even seeds) or a QPoly series
    of order <= 9 (odd seeds), with some zero coefficients."""
    rng = random.Random(seed)
    if seed % 2 == 0:
        order = rng.randint(1, 14)
        return Series([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(order)])
    order = rng.randint(1, 9)
    return Series([QPoly(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                         for _ in range(rng.randint(0, 3)))
                   for _ in range(order)])


def with_head(s, *head):
    """``s`` with its leading coefficients replaced, keeping its order and ring."""
    zero = zero_of(s)
    cs = [zero + c for c in head] + list(s.coeffs[len(head):])
    return Series(cs[: s.order])


FAST_AND_ORACLE = [
    (troupe_transform, oracle_troupe_transform),
    (inverse_troupe_transform, oracle_inverse_troupe_transform),
    (Series.log, oracle_log),
    (Series.exp, oracle_exp),
]


def test_fast_paths_match_brute_force_oracles():
    seen = set()
    for seed in range(40):
        s = random_series(seed)
        # as drawn; zero constant term; invertible, zero and (for QPoly)
        # positive-degree linear term; constant term 1
        variants = [s, with_head(s, 0), with_head(s, 0, 2), with_head(s, 0, 0),
                    with_head(s, 1)]
        if s.is_poly_ring:
            variants.append(with_head(s, 0, q))
        for fast, oracle in FAST_AND_ORACLE:
            for v in variants:
                got = outcome(fast, v)
                assert got == outcome(oracle, v), (fast.__name__, v)
                kind = got if isinstance(got, type) else Series
                seen.add((fast.__name__, kind, v.is_poly_ring))
    # every outcome occurs in both rings, so no comparison above is vacuous
    for poly in (False, True):
        for fast, _ in FAST_AND_ORACLE:
            assert (fast.__name__, Series, poly) in seen
            assert (fast.__name__, ValueError, poly) in seen


def test_order_one_matches_oracles():
    for fast, oracle in FAST_AND_ORACLE:
        for s in (Series([0]), Series([1]), Series([QPoly()]), Series([QPoly((1,))])):
            assert outcome(fast, s) == outcome(oracle, s)
    assert troupe_transform(Series([0])) == Series([0])
    assert inverse_troupe_transform(Series([0])) == Series([0])
    assert inverse_troupe_transform(Series([QPoly()])) == Series([QPoly()])


# -- the storage: integer numerators over one common denominator, checked
# against series as plain lists of ring elements (tests/oracles.py)


def assert_normal(s):
    """``s`` is stored in normal form: ``int`` numerators, or ``QPoly``
    numerators with ``int`` coefficients, over a positive ``int`` denominator
    that shares no factor with every integer coefficient of them."""
    assert type(s._den) is int and s._den > 0
    if s.is_poly_ring:
        assert all(type(c) is QPoly and all(type(k) is int for k in c._num) and c._den == 1
                   for c in s._num)
        ints = [k for c in s._num for k in c._num]
    else:
        ints = list(s._num)
        assert all(type(c) is int for c in ints)
    assert math.gcd(s._den, *ints) == 1
    return s


def assert_same(s, ref):
    """``s`` reads the list ``ref``, coefficient by coefficient, in value and
    in ``type()``, both through ``coeffs`` and through ``s[k]``."""
    assert_normal(s)
    for got in (list(s.coeffs), [s[k] for k in range(s.order)]):
        assert [type(c) for c in got] == [type(c) for c in ref]
        assert got == ref


def random_list(rng, order, poly):
    """Seeded coefficients, about one in four zero: rationals with
    denominators up to 4, or ``QPoly``s of degree at most 1."""
    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.75 else Fraction(0)

    if poly:
        return [QPoly((rational(), rational())) for _ in range(order)]
    return [rational() for _ in range(order)]


def test_products_and_compositions_match_the_list_oracle():
    rng = random.Random(14)
    for poly in (False, True):
        for order in range(1, 21):
            a, b = random_list(rng, order, poly), random_list(rng, order + 2, poly)
            b[0] = a[0] * 0
            sa, sb = Series(a), Series(b)
            assert_same(sa * sb, list_mul(a, b))
            assert_same(sb * sa, list_mul(a, b))
            assert_same(sa.compose(sb), list_compose(a, b))


def test_lagrange_root_and_transforms_match_the_list_oracle():
    rng = random.Random(41)
    for poly in (False, True):
        for order in range(1, 21):
            phi = random_list(rng, order, poly)
            phi[0] = phi[0] * 0 + rng.choice([1, 2, Fraction(-1, 3)])
            assert_same(_lagrange_root(Series(phi)), list_lagrange_root(phi))
            b = random_list(rng, order, poly)
            b[0] = b[0] * 0
            assert_same(troupe_transform(Series(b)), list_troupe_transform(b))
            assert_same(inverse_troupe_transform(Series(b)), list_inverse_troupe_transform(b))


def test_equal_series_have_equal_storage_and_the_old_hash():
    a, b = Series([1, 2]), Series([Fraction(1), Fraction(2)])
    assert a == b and hash(a) == hash(b)
    assert (a._num, a._den) == (b._num, b._den) == ((1, 2), 1)
    half = Series([Fraction(1, 2), Fraction(-1, 3), 0])
    assert (half._num, half._den) == ((3, -2, 0), 6)
    assert hash(half) == hash((Fraction(1, 2), Fraction(-1, 3), Fraction(0)))
    assert Series([Fraction(2, 6), Fraction(4, 6)]) == Series([Fraction(1, 3), Fraction(2, 3)])
    zero = Series([0, 0], order=3)
    assert (zero._num, zero._den) == ((0, 0, 0), 1)
    assert (Series([Fraction(1, 2), 1]) - Series([Fraction(1, 2), 1])) == Series(zero.coeffs, order=2)
    # a constant polynomial series equals the rational one, as coefficients do
    assert Series([QPoly((1,)), QPoly((2,))]) == a
    assert hash(Series([QPoly((1,)), QPoly((2,))])) == hash(a)
    assert Series([QPoly((1,)), q]) != Series([1, 1])


def test_a_rational_polynomial_series_is_stored_over_one_denominator():
    """``QPoly`` coefficients with rational coefficients become integer
    ``QPoly`` numerators over the lcm of their denominators, as rationals
    become integer numerators, and read back as the ``QPoly`` values."""
    half_third = QPoly((Fraction(1, 2), Fraction(1, 3)))
    s = assert_normal(Series([half_third, q / 6]))
    assert (s._num, s._den) == ((QPoly((3, 2)), q), 6)
    assert_same(s, [half_third, q / 6])
    six = s * Series([QPoly((6,))], order=2)
    assert_same(six, [QPoly((3, 2)), q])
    assert (six._num, six._den) == ((QPoly((3, 2)), q), 1)
    assert_same(s * Series([q], order=2), [half_third * q, q * q / 6])
    # only the constructor promotes: a rational series times q does not
    with pytest.raises(RingMismatchError):
        Series([1, 2]) * Series([q / 2], order=2)
    # a sum that cancels every q comes back reduced, over 2
    cancelled = s + Series([-q / 3, -q / 6])
    assert_same(cancelled, [QPoly((Fraction(1, 2),)), QPoly()])
    assert (cancelled._num, cancelled._den) == ((QPoly((1,)), QPoly()), 2)


def test_mixed_input_promotes_as_before():
    s = Series([1, Fraction(1, 2)])
    assert [type(c) for c in s.coeffs] == [Fraction, Fraction]
    s = Series([1, Fraction(1, 2), q], order=4)
    assert [type(c) for c in s.coeffs] == [QPoly] * 4
    assert s.coeffs == (QPoly((1,)), QPoly((Fraction(1, 2),)), q, QPoly())
    assert s.is_poly_ring and assert_normal(s)
    assert Series([QPoly(), 1]).coeffs == (QPoly(), QPoly((1,)))
    with pytest.raises(TypeError):
        Series([1, 0.5])


def test_every_operation_returns_normal_storage():
    """A negative constant term, a cancelling tail and a product with a
    constant over a denominator all come back reduced, with a positive
    denominator."""
    rng = random.Random(7)
    for order in range(1, 12):
        for poly in (False, True):
            a = Series(random_list(rng, order, poly))
            b = random_list(rng, order, poly)
            b[0] = b[0] * 0 + Fraction(-3, 2)
            b = Series(b)
            zero_head = Series([b[0] * 0] + list(b.coeffs[1:]))
            scale = Series([b[0] * 0 + Fraction(-2, 9)], order=order)
            results = [a + b, a - b, a - a, -a, a * b, a / b, b / b, a.shift(), Series(a.coeffs, order=1),
                       a * scale, a.compose(zero_head),
                       Series([b[0] * 0 + 1] + list(a.coeffs[1:])).log(), zero_head.exp()]
            for s in results:
                assert_normal(s)
    assert (Series([1, 1]) / Series([-3, 0])).coeffs == (Fraction(-1, 3), Fraction(-1, 3))
    assert Series([Fraction(1, 2), Fraction(1, 3)]).shift()._den == 2
    assert Series([Fraction(1, 2), Fraction(1, 3)], order=1)._den == 2
