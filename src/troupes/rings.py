"""Exact scalar arithmetic: arbitrary-precision rationals and dense polynomials.

Two coefficient rings are supported throughout the package: the rationals
(``fractions.Fraction``) and the univariate polynomial ring over them in the
indeterminate ``q`` (:class:`QPoly`).  A ring element is either one of these;
rationals promote to constant polynomials on demand, never the other way.

This module also owns number text: :func:`parse_int` reads every integer the
package takes as input (``-?[0-9]+`` in ASCII digits), :func:`parse_word`
every list of them, and :func:`parse_ring_elem` every ring element, exactly
as :func:`format_ring_elem` writes it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union


class RingMismatchError(ValueError):
    """Raised when an operation would silently mix coefficient rings."""


class QPoly:
    """Dense polynomial in ``q`` with exact rational coefficients.

    Stored as integer numerators over one common denominator, lowest degree
    first, in normal form: the denominator is positive and shares no factor
    with all the numerators, and the last numerator is nonzero, so the zero
    polynomial is ``((), 1)`` and equal polynomials have equal storage.
    :attr:`coeffs` reads the coefficients as ``Fraction`` values.  Arithmetic
    with ``int`` and ``Fraction`` operands treats them as constant polynomials.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"cannot interpret {c!r} as a rational")
        den = lcm(*(c.denominator for c in cs))
        p = _make([_scaled(c, den) for c in cs], den)
        _set_num(self, p._num)
        _set_den(self, p._den)

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, lowest degree first, with no trailing zero."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    def is_constant(self) -> bool:
        return len(self._num) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a rational."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self._num[0], self._den) if self._num else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self._num == o[0] and self._den == o[1]

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash(self.coeffs)

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _make(*_add(self._num, self._den, o[0], o[1]))

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self._num], self._den)

    def __sub__(self, other):
        return NotImplemented if _parts(other) is None else self + -other

    def __rsub__(self, other):
        return NotImplemented if _parts(other) is None else -self + other

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _make(_convolve(self._num, o[0]), self._den * o[1])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = QPoly((1,))
        for _ in range(n):
            result = result * self
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / Fraction(other))
        return NotImplemented

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self):
        return format_ring_elem(self)


_new = object.__new__
_set_num = QPoly._num.__set__
_set_den = QPoly._den.__set__


def _make(num: list[int], den: int) -> QPoly:
    """The polynomial ``num/den`` in normal form; ``den`` must be positive."""
    while num and not num[-1]:
        num.pop()
    num, den = _reduce(num, den)
    p = _new(QPoly)
    _set_num(p, tuple(num))
    _set_den(p, den)
    return p


def _reduce(num: list, den: int) -> tuple[list, int]:
    """``num/den`` in lowest terms, for ``int`` or integer-coefficient ``QPoly``
    numerators (all ``QPoly``s after a division), by one gcd over ``den`` and
    every integer coefficient; all-zero numerators get the denominator 1."""
    if den == 1:
        return num, den
    try:
        g = gcd(den, *num)
    except TypeError:  # QPoly numerators: the gcd runs over their coefficients
        g = gcd(den, *(k for c in num for k in _parts(c)[0]))
        if g != 1:
            num, den = [_make([k // g for k in _parts(c)[0]], 1) for c in num], den // g
        return num, den
    if g != 1:
        num, den = [c // g for c in num], den // g
    return num, den


def _scaled(x, d: int):
    """``x*d`` as an ``int`` or a ``QPoly`` over 1; ``denominator(x)`` divides ``d``."""
    if x.__class__ is QPoly:
        k = d // x._den
        return _make([c * k for c in x._num], 1)
    return x.numerator * (d // x.denominator)


def _over(c, d: int):
    """``c/d`` for a positive ``int`` ``d``: a ``Fraction`` or a ``QPoly``, as ``c``."""
    if c.__class__ is QPoly:
        return _make(list(c._num), c._den * d)
    return Fraction(c, d)


def _parts(x):
    """``(numerators, denominator)`` of a ring element in normal form, or None."""
    if isinstance(x, QPoly):
        return x._num, x._den
    if isinstance(x, int):
        return ((x,) if x else ()), 1
    if isinstance(x, Fraction):
        return ((x.numerator,) if x else ()), x.denominator
    return None


def _add(a, da: int, b, db: int) -> tuple[list, int]:
    """``a/da + b/db`` over a common denominator, not reduced, for coefficient
    sequences over positive denominators; the longer sequence's tail is kept."""
    if da != db:
        g = gcd(da, db)
        a = [c * (db // g) for c in a]
        b = [c * (da // g) for c in b]
        da = da // g * db
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return out, da


def _convolve(a, b, n: int | None = None) -> list:
    """The first ``n`` coefficients (all of them by default) of the product of
    two coefficient sequences.  The entries may be ``int``s, as in a
    ``QPoly``'s numerators, or ``QPoly``s, as in a polynomial series; an
    output entry that no product reaches stays the ``int`` 0."""
    if not a or not b:
        return []
    size = len(a) + len(b) - 1
    if n is not None and n < size:
        size = n
    out = [0] * size
    for i, ca in enumerate(a[:size]):
        if ca:
            for k, cb in enumerate(b[:size - i], i):
                if cb:
                    out[k] += ca * cb
    return out


#: The indeterminate of ``QPoly``.
q = QPoly((0, 1))

RingElem = Union[Fraction, QPoly]


def as_ring_elem(x) -> RingElem:
    """Normalize ints to Fractions, leaving Fractions and QPolys alone."""
    if isinstance(x, (Fraction, QPoly)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a ring element: {x!r}")


def denominator(x) -> int:
    """The least positive integer that makes ``x`` integral: the denominator
    of an ``int`` or ``Fraction``, and the common denominator of a ``QPoly``'s
    coefficients."""
    if isinstance(x, QPoly):
        return x._den
    if isinstance(x, (int, Fraction)):
        return x.denominator
    raise TypeError(f"not a ring element: {x!r}")


def to_poly(x: RingElem) -> QPoly:
    """Promote a rational to a constant polynomial (polynomials pass through)."""
    if isinstance(x, QPoly):
        return x
    return QPoly((as_ring_elem(x),))


def ring_inverse(x: RingElem) -> RingElem:
    """Multiplicative inverse of an invertible ring element.

    In the polynomial ring only nonzero constants are invertible.
    """
    x = as_ring_elem(x)
    if isinstance(x, QPoly):
        if x.degree > 0:
            raise ZeroDivisionError(f"{x} is not invertible in the polynomial ring")
        return QPoly((Fraction(1) / x.constant_value(),))
    if x == 0:
        raise ZeroDivisionError("zero has no inverse")
    return Fraction(1) / x


def format_ring_elem(x: RingElem) -> str:
    """Render a ring element exactly.

    Rationals print as ``p/q`` (``/q`` omitted when the denominator is 1);
    polynomials print densely as ``c0 + c1*q + c2*q^2 + ...``.
    """
    x = as_ring_elem(x)
    if isinstance(x, Fraction):
        return str(x)
    if not x:
        return "0"
    return " + ".join(str(c) if k == 0 else f"{c!s}*q" if k == 1 else f"{c!s}*q^{k}"
                      for k, c in enumerate(x.coeffs))


def parse_int(text: str) -> int:
    """An integer written ``-?[0-9]+`` in ASCII digits, whitespace around it
    stripped; anything else, or more digits than ``int()`` converts, raises
    ``ValueError``."""
    text = text.strip()
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise ValueError(f"bad integer {text!r}")


def parse_word(text: str) -> tuple[int, ...]:
    """A nonempty list of nonnegative integers, each read by :func:`parse_int`
    and separated by a comma, with optional whitespace around it, or by
    whitespace alone; an empty item, a bad integer or a negative one raises
    ``ValueError`` quoting it and the list."""
    items = [item for part in text.split(",") for item in part.split() or [""]]
    word = []
    for item in items:
        if not item:
            raise ValueError(f"empty item in list {text!r}")
        try:
            x = parse_int(item)
        except ValueError as exc:
            raise ValueError(f"{exc} in list {text!r}") from None
        if x < 0:
            raise ValueError(f"negative item {item!r} in list {text!r}")
        word.append(x)
    return tuple(word)


def parse_ring_elem(text: str) -> RingElem:
    """Parse the output of :func:`format_ring_elem`; a bare ``q^k`` is ``1*q^k``."""
    text = text.strip()
    if "q" not in text:
        return _parse_fraction(text)
    coeffs: dict[int, Fraction] = {}
    for term in text.split(" + "):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in polynomial {text!r}")
        if term == "q":
            cs, ks = "1", "1"
        elif term.startswith("q^"):
            cs, ks = "1", term[2:]
        elif "*q^" in term:
            cs, _, ks = term.partition("*q^")
        elif term.endswith("*q"):
            cs, ks = term[:-2], "1"
        else:
            cs, ks = term, "0"
        try:
            k = parse_int(ks)
        except ValueError:
            raise ValueError(f"bad degree {ks!r} in polynomial {text!r}") from None
        if k < 0:
            raise ValueError(f"negative degree in polynomial {text!r}")
        if k in coeffs:
            raise ValueError(f"repeated degree {k} in polynomial {text!r}")
        coeffs[k] = _parse_fraction(cs)
    top = max(coeffs)
    return QPoly(coeffs.get(k, Fraction(0)) for k in range(top + 1))


def _parse_fraction(text: str) -> Fraction:
    """``p`` or ``p/d``, each part read by :func:`parse_int` with nothing
    around it, ``d`` positive and unsigned."""
    text = text.strip()
    num, sep, den = text.partition("/")
    try:
        if num == num.strip() and den == den.strip().removeprefix("-"):
            return Fraction(parse_int(num), parse_int(den) if sep else 1)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"bad rational {text!r}")
