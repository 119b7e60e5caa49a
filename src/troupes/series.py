"""Truncated formal power series with exact coefficients.

A :class:`Series` holds coefficients of ``t^0 .. t^(order-1)`` drawn from one
of the two supported coefficient rings (rationals or polynomials in ``q``).
Everything is exact; truncation order is the only approximation anywhere, and
binary operations truncate to the smaller operand order.

Every series is stored as numerators over one positive ``int`` denominator:
``int`` numerators for a rational series, integer-coefficient ``QPoly``
numerators for a polynomial one.  Addition, multiplication, composition and
the Lagrange root run on the numerators, through the truncated convolution of
:mod:`troupes.rings`, and reduce a result once, by one gcd over its
denominator and every integer coefficient of its numerators: the transform
spends its time in them.  Division, ``log`` and ``exp`` run only at small
orders (the Boolean-free series check and the moment EGFs), so they are plain
coefficient recurrences over ring elements that return through the
constructor.

The branch-to-tree generating function transform (:func:`troupe_transform`)
solves ``T(t) = B(t / (1 - t*T(t)))`` by Lagrange inversion (see
:func:`_lagrange_root`); its inverse is the same transform conjugated by
negation, ``-troupe_transform(-T)``.  ``log`` and ``exp`` solve
``f*(log f)' = f'`` and ``(exp f)' = f'*exp f``.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable

from .rings import (
    QPoly,
    RingElem,
    RingMismatchError,
    _add,
    _convolve,
    _over,
    _reduce,
    _scaled,
    as_ring_elem,
    denominator,
    format_ring_elem,
    ring_inverse,
    to_poly,
)


class Series:
    """A formal power series truncated at an exclusive order.

    ``Series([1, 2, 3])`` is ``1 + 2t + 3t^2 + O(t^3)``.  All coefficients
    share one ring; supplying any polynomial coefficient promotes the rest.

    A series is stored as numerators over one positive common ``int``
    denominator: ``int``s in the rationals, integer-coefficient ``QPoly``s in
    the polynomial ring.  The storage is in normal form: the denominator
    shares no factor with every integer coefficient of the numerators, so the
    zero series has denominator 1 and equal series have equal storage.
    ``s[n]`` and :attr:`coeffs` read the coefficients as ``Fraction`` (or
    ``QPoly``) values.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = [as_ring_elem(c) for c in coeffs]
        if order is not None:
            if order < 1:
                raise ValueError("order must be a positive integer")
            cs = cs[:order] + [0] * (order - len(cs))
        elif not cs:
            raise ValueError("a series needs an order")
        if any(isinstance(c, QPoly) for c in cs):
            cs = [to_poly(c) for c in cs]
        # numerators over the lcm of the reduced denominators share no factor with it
        den = lcm(*map(denominator, cs))
        _set_num(self, tuple([_scaled(c, den) for c in cs]))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- construction helpers

    @classmethod
    def one(cls, order: int, poly: bool = False) -> Series:
        return cls([QPoly((1,)) if poly else 1], order=order)

    # -- basic structure

    @property
    def order(self) -> int:
        return len(self._num)

    @property
    def is_poly_ring(self) -> bool:
        return type(self._num[0]) is QPoly  # __init__ puts all in one ring

    @property
    def coeffs(self) -> tuple[RingElem, ...]:
        """The coefficients of ``t^0 .. t^(order-1)``."""
        den = self._den
        return tuple([_over(c, den) for c in self._num])

    def __getitem__(self, n: int) -> RingElem:
        return _over(self._num[n], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.is_poly_ring != other.is_poly_ring:  # equal only if every coefficient is constant
            return self.coeffs == other.coeffs
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Series({[format_ring_elem(c) for c in self.coeffs]})"

    def _common(self, other: Series) -> int:
        if not isinstance(other, Series):
            raise TypeError("expected a Series")
        if self.is_poly_ring != other.is_poly_ring:
            raise RingMismatchError(
                "cannot combine a rational series with a polynomial series"
            )
        return min(self.order, other.order)

    # -- ring operations (exact, truncated to the common order)

    def __add__(self, other: Series) -> Series:
        n = self._common(other)
        return _build(*_add(self._num[:n], self._den, other._num[:n], other._den),
                      self.is_poly_ring)

    def __sub__(self, other: Series) -> Series:
        return self + -other

    def __neg__(self) -> Series:
        return _series([-c for c in self._num], self._den)

    def __mul__(self, other: Series) -> Series:
        n = self._common(other)
        return _build(_convolve(self._num, other._num, n), self._den * other._den,
                      self.is_poly_ring)

    def __truediv__(self, other: Series) -> Series:
        n = self._common(other)
        a, b = self.coeffs, other.coeffs
        if not b[0]:
            raise ZeroDivisionError("division by a series with zero constant term")
        inv = ring_inverse(b[0])  # only a constant is invertible in the polynomial ring
        # q_k = (a_k - sum_{0<j<=k} b_j q_(k-j)) / b_0, from self = other * (self/other)
        q: list = []
        for k in range(n):
            q.append((a[k] - sum(b[j] * q[k - j] for j in range(1, k + 1))) * inv)
        return Series(q)

    def shift(self) -> Series:
        """Multiply by t, keeping the truncation order."""
        return _build((0,) + self._num[:-1], self._den, self.is_poly_ring)

    # -- composition

    def compose(self, inner: Series) -> Series:
        """Exact Taylor composition ``self(inner(t))``.

        The inner series must have zero constant term.
        """
        n = self._common(inner)
        if inner._num[0]:
            raise ValueError("composition needs an inner series with zero constant term")
        # Horner evaluation: ((a_{n-1} inner + a_{n-2}) inner + ...) + a_0, on the
        # numerators, reduced once per step
        b, db, da = inner._num, inner._den, self._den
        num: list = [0] * n
        den = 1
        for ck in reversed(self._num[:n]):
            num, den = _reduce(*_add(_convolve(num, b, n), den * db, (ck,), da))
        return _build(num, den, self.is_poly_ring)

    # -- transcendental operations (ring contains the rationals)

    def log(self) -> Series:
        """Formal logarithm; the constant term must be 1."""
        f = self.coeffs
        if f[0] != 1:
            raise ValueError("log needs constant term 1")
        # g = log f solves f*g' = f': m*g_m = m*f_m - sum_{0<k<m} k*g_k*f_(m-k)
        g = [f[0] * 0]  # zero in f's ring, so an order-1 polynomial series stays one
        for m in range(1, len(f)):
            g.append((m * f[m] - sum(k * g[k] * f[m - k] for k in range(1, m))) / m)
        return Series(g)

    def exp(self) -> Series:
        """Formal exponential; the constant term must be 0."""
        f = self.coeffs
        if f[0]:
            raise ValueError("exp needs constant term 0")
        # g = exp f solves g' = f'*g: m*g_m = sum_{0<k<=m} k*f_k*g_(m-k)
        g = [f[0] * 0 + 1]  # one in f's ring
        for m in range(1, len(f)):
            g.append(sum(k * f[k] * g[m - k] for k in range(1, m + 1)) / m)
        return Series(g)


_new = object.__new__
_set_num = Series._num.__set__
_set_den = Series._den.__set__


def _series(num, den: int) -> Series:
    """The series with numerators ``num`` over ``den``, already in normal form."""
    s = _new(Series)
    _set_num(s, tuple(num))
    _set_den(s, den)
    return s


def _build(num, den: int, poly: bool) -> Series:
    """The series ``num/den`` in normal form, in the polynomial ring if
    ``poly``, for a nonzero ``int`` ``den`` and ``int`` or integer-coefficient
    ``QPoly`` numerators."""
    if poly:
        num = [to_poly(c) for c in num]
    if den < 0:
        num, den = [-c for c in num], -den
    return _series(*_reduce(num, den))


def _lagrange_root(phi: Series) -> Series:
    """The series ``W = t*phi(W)``, one order longer than ``phi``, by Lagrange
    inversion: ``[t^m] W = (1/m) [u^(m-1)] phi(u)^m`` (Stanley, EC2 Thm 5.4.2).

    ``phi^m`` runs on the numerators, reduced once per power; the ``1/m`` are
    folded into the one common denominator of the result.
    """
    f, df, n = phi._num, phi._den, phi.order
    power: list = [1]
    den = 1
    tops, dens = [0], [1]
    for m in range(1, n + 1):
        power, den = _reduce(_convolve(power, f, n), den * df)
        tops.append(power[m - 1])
        dens.append(den * m)
    common = lcm(*dens)
    return _build([x * (common // e) for x, e in zip(tops, dens)], common, phi.is_poly_ring)


def troupe_transform(b: Series) -> Series:
    """Solve ``T(t) = B(t / (1 - t*T(t)))`` for ``T`` to the truncation order,
    ``b`` being the branch series ``B``.

    ``b`` must have zero constant term; so does the result.
    ``W = t/(1 - t*T)`` solves ``W = t*(1 + W*B(W))``, and ``T = B(W)``.
    """
    if b._num[0]:
        raise ValueError("the branch series must have zero constant term")
    n = b.order
    if n == 1:
        return b
    phi = Series.one(n - 1, poly=b.is_poly_ring) + b.shift()
    return b.compose(_lagrange_root(phi))


def inverse_troupe_transform(tree_series: Series) -> Series:
    """Invert :func:`troupe_transform`: recover ``B`` from ``T`` as ``-F(-T)``.

    ``V = t*(1 - V*T(V))`` inverts ``W = t/(1 - t*T)`` and ``B = T(V)``: the
    forward equations with ``B`` and ``T`` replaced by ``-T`` and ``-B``.
    """
    if tree_series._num[0]:
        raise ValueError("the tree series must have zero constant term")
    return -troupe_transform(-tree_series)


def boolean_free_series_check(boolean_cumulants: Series, free_cumulants: Series) -> bool:
    """Check ``1 - B(t/(1 + R(t))) = 1/(1 + R(t))`` exactly.

    Both arguments are ordinary generating functions of cumulant sequences,
    over one ring, and must have zero constant term; a rational and a
    polynomial series raise :class:`RingMismatchError`, as arithmetic does.
    """
    bc, rc = boolean_cumulants, free_cumulants
    if bc._num[0] or rc._num[0]:
        raise ValueError("cumulant series must have zero constant term")
    n = min(bc.order, rc.order)
    one = Series.one(n, poly=rc.is_poly_ring)
    inv = one / (one + rc)
    return one - bc.compose(inv.shift()) == inv
