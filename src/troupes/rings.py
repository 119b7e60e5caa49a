"""Exact scalar arithmetic: arbitrary-precision rationals and dense polynomials.

Two coefficient rings are supported throughout the package: the rationals
(``fractions.Fraction``) and the univariate polynomial ring over them in the
indeterminate ``q`` (:class:`QPoly`).  A ring element is either one of these;
rationals promote to constant polynomials on demand, never the other way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class RingMismatchError(ValueError):
    """Raised when an operation would silently mix coefficient rings."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


class QPoly:
    """Dense polynomial in ``q`` with exact rational coefficients.

    Coefficients are stored lowest degree first with no trailing zeros; the
    zero polynomial has an empty coefficient tuple.  Arithmetic with ``int``
    and ``Fraction`` operands treats them as constant polynomials.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a rational."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return QPoly(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self):
        return QPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = QPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            inv = Fraction(1) / Fraction(other)
            return QPoly(c * inv for c in self.coeffs)
        if isinstance(other, QPoly):
            return self * ring_inverse(other)
        return NotImplemented

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self):
        return format_ring_elem(self)


#: The indeterminate of ``QPoly``.
q = QPoly((0, 1))

RingElem = Union[Fraction, QPoly]


def _coerce(x):
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly((x,))
    return None


def is_poly(x: RingElem) -> bool:
    return isinstance(x, QPoly)


def as_ring_elem(x) -> RingElem:
    """Normalize ints to Fractions, leaving Fractions and QPolys alone."""
    if isinstance(x, (Fraction, QPoly)):
        return x
    if isinstance(x, int):
        return Fraction(x)
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
        return _format_fraction(x)
    if not x.coeffs:
        return "0"
    parts = []
    for k, c in enumerate(x.coeffs):
        cs = _format_fraction(c)
        if k == 0:
            parts.append(cs)
        elif k == 1:
            parts.append(f"{cs}*q")
        else:
            parts.append(f"{cs}*q^{k}")
    return " + ".join(parts)


def _format_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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
            cs, k = "1", 1
        elif term.startswith("q^"):
            cs, k = "1", int(term[2:])
        elif "*q^" in term:
            cs, _, ks = term.partition("*q^")
            k = int(ks)
        elif term.endswith("*q"):
            cs, k = term[:-2], 1
        else:
            cs, k = term, 0
        if k < 0:
            raise ValueError(f"negative degree in polynomial {text!r}")
        if k in coeffs:
            raise ValueError(f"repeated degree {k} in polynomial {text!r}")
        coeffs[k] = _parse_fraction(cs)
    top = max(coeffs)
    return QPoly(coeffs.get(k, Fraction(0)) for k in range(top + 1))


def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}") from exc
