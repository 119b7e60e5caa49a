from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from troupes.rings import (
    QPoly,
    RingMismatchError,
    format_ring_elem,
    parse_ring_elem,
    q,
    ring_inverse,
    to_poly,
)

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys_st = st.lists(fractions_st, max_size=5).map(QPoly)


def test_qpoly_normalization():
    assert QPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert QPoly((0, 0)).coeffs == ()
    assert QPoly().degree == -1
    assert QPoly((5,)).degree == 0


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
    assert q / QPoly((2,)) == QPoly((0, Fraction(1, 2)))
    with pytest.raises(ZeroDivisionError):
        q / QPoly((0, 1))


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
    for bad in ("1 + nope*q", "q^-1", "1*q^-2", "-q", "qq"):
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


def test_ring_mismatch_is_value_error():
    assert issubclass(RingMismatchError, ValueError)
