import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from troupes.rings import (
    QPoly,
    RingMismatchError,
    denominator,
    format_ring_elem,
    parse_ring_elem,
    parse_word,
    q,
    ring_inverse,
    to_poly,
)

from oracles import FractionQPoly

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys_st = st.lists(fractions_st, max_size=5).map(QPoly)


def test_qpoly_normalization():
    assert QPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert QPoly((0, 0)).coeffs == ()
    assert QPoly().degree == -1
    assert QPoly((5,)).degree == 0
    with pytest.raises(AttributeError, match="QPoly is immutable"):
        q._num = (1,)


def test_indeterminate():
    assert q.coeffs == (Fraction(0), Fraction(1))
    assert (q * q + 1).coeffs == (Fraction(1), Fraction(0), Fraction(1))


def test_scalar_mixing_promotes():
    assert 1 + q == QPoly((1, 1))
    assert Fraction(1, 2) * q == QPoly((0, Fraction(1, 2)))
    assert (q - 1) == QPoly((-1, 1))
    assert 2 - q == QPoly((2, -1))


def test_pow():
    assert (1 + q) ** 3 == QPoly((1, 3, 3, 1))
    assert (1 + q) ** 0 == QPoly((1,))


def test_constant_comparisons():
    assert QPoly((3,)) == 3
    assert QPoly((3,)) == Fraction(3)
    assert QPoly((0, 1)) != 3
    assert QPoly() == 0
    assert (q == "x") is False and q != "x"


def test_foreign_operands_raise_type_error():
    for apply in (lambda: q + "x", lambda: "x" - q, lambda: object() - q,
                  lambda: q - None, lambda: q * object()):
        with pytest.raises(TypeError):
            apply()


@given(polys_st, polys_st, polys_st)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPoly() == a
    assert a * QPoly((1,)) == a


def test_inverse():
    assert ring_inverse(Fraction(3, 2)) == Fraction(2, 3)
    assert ring_inverse(QPoly((2,))) == QPoly((Fraction(1, 2),))
    with pytest.raises(ZeroDivisionError):
        ring_inverse(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        ring_inverse(q)


def test_poly_scalar_division():
    assert (q + q) / 2 == q
    assert (3 * q) / Fraction(3, 2) == 2 * q
    # a polynomial divisor, even a constant one, goes through ring_inverse
    assert q * ring_inverse(QPoly((2,))) == QPoly((0, Fraction(1, 2)))
    with pytest.raises(TypeError):
        q / QPoly((2,))
    with pytest.raises(ZeroDivisionError):
        q / 0


def test_qpoly_takes_only_rational_coefficients():
    assert QPoly((1, Fraction(1, 2))).coeffs == (1, Fraction(1, 2))
    for bad in (q, 0.5, "1", None):
        with pytest.raises(TypeError, match="as a rational"):
            QPoly((1, bad))


def test_format_rational():
    assert format_ring_elem(Fraction(3)) == "3"
    assert format_ring_elem(Fraction(-3, 7)) == "-3/7"
    assert format_ring_elem(Fraction(0)) == "0"


def test_format_poly():
    assert format_ring_elem(QPoly()) == "0"
    assert format_ring_elem(QPoly((1, 0, Fraction(-3, 2)))) == "1 + 0*q + -3/2*q^2"
    assert format_ring_elem(q) == "0 + 1*q"


def test_parse_examples():
    assert parse_ring_elem("-3/7") == Fraction(-3, 7)
    assert parse_ring_elem("1 + 0*q + -3/2*q^2") == QPoly((1, 0, Fraction(-3, 2)))
    # a bare q or q^k term has coefficient 1; negative degrees are rejected
    assert parse_ring_elem("q") == q
    assert parse_ring_elem("2 + q^3") == QPoly((2, 0, 0, 1))
    assert parse_ring_elem("q + -1/2*q^2") == QPoly((0, 1, Fraction(-1, 2)))
    for bad in ("1 + nope*q", "q^-1", "1*q^-2", "-q", "qq",
                "1e1", "0.5", "1_0", "\u0663", "q^\u0661", "2*q^"):
        with pytest.raises(ValueError):
            parse_ring_elem(bad)


@given(fractions_st)
def test_rational_roundtrip(x):
    assert parse_ring_elem(format_ring_elem(x)) == x


@given(polys_st)
def test_poly_roundtrip(p):
    got = parse_ring_elem(format_ring_elem(p))
    # a constant polynomial prints like a rational; equality still holds
    assert got == p or to_poly(got) == p


def test_to_poly():
    assert to_poly(Fraction(2)) == QPoly((2,))
    assert to_poly(q) is q


def test_denominator():
    assert denominator(-3) == 1
    assert denominator(Fraction(6, -4)) == 2
    assert denominator(QPoly((Fraction(1, 2), Fraction(1, 3)))) == 6
    assert denominator(QPoly((Fraction(1, 2), Fraction(3, 2)))) == 2
    assert denominator(QPoly()) == 1
    with pytest.raises(TypeError):
        denominator(0.5)


@given(polys_st)
def test_denominator_is_the_lcm_of_the_coefficients(p):
    assert denominator(p) == math.lcm(*(c.denominator for c in p.coeffs))


def test_negative_power_and_nonconstant_value_raise():
    with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
        q ** -1
    with pytest.raises(ValueError, match=re.escape("0 + 1*q is not constant")):
        q.constant_value()


def test_ring_mismatch_is_value_error():
    assert issubclass(RingMismatchError, ValueError)


def _seeded_polys(seed: int, count: int = 40) -> list[QPoly]:
    """Degree 0..12, mixed denominators, some zero coefficients."""
    rng = random.Random(seed)
    out = [QPoly(), QPoly((1,)), QPoly((Fraction(-3, 4),)), q]
    while len(out) < count:
        out.append(QPoly(
            Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 7, 12, 35)))
            if rng.random() < 0.8 else 0
            for _ in range(rng.randint(1, 13))))
    return out


def _oracle(p: QPoly) -> FractionQPoly:
    return FractionQPoly(p.coeffs)


def _assert_normal(p: QPoly) -> QPoly:
    num, den = p._num, p._den
    assert type(num) is tuple and all(type(c) is int for c in num)
    assert type(den) is int and den > 0
    assert not num or num[-1] != 0
    assert math.gcd(den, *num) == 1  # also den == 1 for the zero polynomial
    return p


SCALARS = (0, 1, -2, 3, Fraction(1, 2), Fraction(-5, 6), Fraction(35, 12))


def test_arithmetic_matches_the_fraction_oracle():
    polys = _seeded_polys(1)
    for a, b in zip(polys, polys[1:] + polys[:1]):
        oa, ob = _oracle(a), _oracle(b)
        assert _oracle(_assert_normal(a + b)) == oa + ob
        assert _oracle(_assert_normal(a - b)) == oa - ob
        assert _oracle(_assert_normal(a * b)) == oa * ob
        assert _oracle(_assert_normal(-a)) == -oa
        for k in range(4):
            assert _oracle(_assert_normal(a ** k)) == oa ** k
        for s in SCALARS:
            os_ = FractionQPoly((s,))
            assert _oracle(_assert_normal(a + s)) == oa + os_
            assert _oracle(_assert_normal(s - a)) == os_ - oa
            assert _oracle(_assert_normal(s * a)) == oa.scale(s)
            if s:
                assert _oracle(_assert_normal(a / s)) == oa.scale(1 / Fraction(s))


def test_ring_inverse_matches_the_fraction_oracle():
    for s in SCALARS[1:]:
        c = QPoly((s,))
        assert _oracle(_assert_normal(ring_inverse(c))) == _oracle(c).inverse()
        assert c * ring_inverse(c) == 1


def test_seeded_ring_laws_hold_in_normal_form():
    polys = _seeded_polys(2, count=24)
    for a, b, c in zip(polys, polys[1:], polys[2:]):
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        # equal values reached by different routes have equal storage
        assert (a + b) - b == a
        assert (a * 6) / 6 == a
        assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
        assert (a + c) ** 2 == a * a + 2 * a * c + c * c


def test_equality_and_hash_match_the_fraction_oracle():
    for p in _seeded_polys(3):
        assert p == QPoly(p.coeffs) and hash(p) == hash(QPoly(p.coeffs))
        assert hash(p) == hash(_oracle(p))
        if p.is_constant():
            c = p.constant_value()
            assert p == c and hash(p) == hash(c)
            if c.denominator == 1:
                assert p == c.numerator and hash(p) == hash(c.numerator)
        else:
            assert p != p.coeffs[0]
    for s in SCALARS:
        assert QPoly((s,)) == s and hash(QPoly((s,))) == hash(Fraction(s))


def test_format_and_parse_match_the_fraction_oracle():
    for p in _seeded_polys(4):
        text = format_ring_elem(p)
        assert text == _oracle(p).format()
        assert to_poly(parse_ring_elem(text)) == p


def parse_word_by_regex(text):
    """The README's list grammar as one regex split: a comma with optional
    whitespace around it, or whitespace alone, parts the items, and each
    must be an ASCII ``-?[0-9]+`` of value at least 0."""
    items = re.split(r"\s*,\s*|\s+", text.strip())
    if not all(re.fullmatch(r"-?[0-9]+", x) and int(x) >= 0 for x in items):
        raise ValueError(text)
    return tuple(map(int, items))


@given(st.text(alphabet="019-+_, \t\n\u0660\u00a0", max_size=10))
def test_parse_word_matches_the_regex_grammar(text):
    try:
        want = parse_word_by_regex(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_word(text)
    else:
        assert parse_word(text) == want


@pytest.mark.parametrize("text, message", [
    ("", "empty item in list ''"),
    (" \t", "empty item in list ' \\t'"),
    ("0,,1", "empty item in list '0,,1'"),
    ("1 ,", "empty item in list '1 ,'"),
    ("2, -1", "negative item '-1' in list '2, -1'"),
    ("+1", "bad integer '+1' in list '+1'"),
    ("0 1_0", "bad integer '1_0' in list '0 1_0'"),
])
def test_parse_word_quotes_the_bad_item_and_the_list(text, message):
    with pytest.raises(ValueError) as info:
        parse_word(text)
    assert str(info.value) == message


def test_parse_word_spellings():
    assert parse_word("2,3,1") == parse_word("2 3 1") == parse_word(" 2, 3 ,1\t") == (2, 3, 1)
    assert parse_word("-0") == (0,)
