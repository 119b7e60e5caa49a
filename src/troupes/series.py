"""Truncated formal power series with exact coefficients.

A :class:`Series` holds coefficients of ``t^0 .. t^(order-1)`` drawn from one
of the two supported coefficient rings (rationals or polynomials in ``q``).
Everything is exact; truncation order is the only approximation anywhere, and
binary operations truncate to the smaller operand order.

The branch-to-tree generating function transform (:func:`troupe_transform`)
solves ``T(t) = B(t / (1 - t*T(t)))`` by Lagrange inversion (see
:func:`_lagrange_root`); its inverse is the same transform conjugated by
negation, ``-troupe_transform(-T)``.  ``log`` and ``exp`` solve
``f*(log f)' = f'`` and ``(exp f)' = f'*exp f``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .rings import (
    QPoly,
    RingElem,
    RingMismatchError,
    as_ring_elem,
    format_ring_elem,
    is_poly,
    ring_inverse,
    to_poly,
)


class Series:
    """A formal power series truncated at an exclusive order.

    ``Series([1, 2, 3])`` is ``1 + 2t + 3t^2 + O(t^3)``.  All coefficients
    share one ring; supplying any polynomial coefficient promotes the rest.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = [as_ring_elem(c) for c in coeffs]
        if order is not None:
            if order < 1:
                raise ValueError("order must be a positive integer")
            cs = cs[:order]
        if not cs and order is None:
            raise ValueError("a series needs an order")
        poly = any(is_poly(c) for c in cs)
        if poly:
            cs = [to_poly(c) for c in cs]
        if order is not None and len(cs) < order:
            cs.extend([QPoly() if poly else Fraction(0)] * (order - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- construction helpers

    @classmethod
    def zero(cls, order: int, poly: bool = False) -> Series:
        c = QPoly() if poly else Fraction(0)
        return cls([c] * order)

    @classmethod
    def one(cls, order: int, poly: bool = False) -> Series:
        c = QPoly((1,)) if poly else Fraction(1)
        return cls([c], order=order)

    @classmethod
    def t(cls, order: int, poly: bool = False) -> Series:
        one = QPoly((1,)) if poly else Fraction(1)
        return cls([one * 0, one], order=order)

    # -- basic structure

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def is_poly_ring(self) -> bool:
        return is_poly(self.coeffs[0])  # __init__ puts all in one ring

    def __getitem__(self, n: int) -> RingElem:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Series({[format_ring_elem(c) for c in self.coeffs]})"

    def truncate(self, order: int) -> Series:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series(self.coeffs[:order])

    def _zero(self) -> RingElem:
        return QPoly() if self.is_poly_ring else Fraction(0)

    def _one(self) -> RingElem:
        return QPoly((1,)) if self.is_poly_ring else Fraction(1)

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
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other: Series) -> Series:
        n = self._common(other)
        return Series([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __neg__(self) -> Series:
        return Series([-c for c in self.coeffs])

    def __mul__(self, other: Series) -> Series:
        n = self._common(other)
        a, b = self.coeffs, other.coeffs
        out = [self._zero()] * n
        for i in range(n):
            if a[i] == 0:
                continue
            for j in range(n - i):
                if b[j] != 0:
                    out[i + j] = out[i + j] + a[i] * b[j]
        return Series(out)

    def __truediv__(self, other: Series) -> Series:
        n = self._common(other)
        b0 = other.coeffs[0]
        if b0 == 0:
            raise ZeroDivisionError("division by a series with zero constant term")
        inv = ring_inverse(b0)
        a, b = self.coeffs, other.coeffs
        out: list[RingElem] = []
        for k in range(n):
            acc = a[k]
            for j in range(1, k + 1):
                acc = acc - b[j] * out[k - j]
            out.append(acc * inv)
        return Series(out)

    def scale(self, c) -> Series:
        c = as_ring_elem(c)
        return Series([c * x for x in self.coeffs])

    def shift(self) -> Series:
        """Multiply by t, keeping the truncation order."""
        return Series((self._zero(),) + self.coeffs[: self.order - 1])

    # -- composition

    def compose(self, inner: Series) -> Series:
        """Exact Taylor composition ``self(inner(t))``.

        The inner series must have zero constant term.
        """
        n = self._common(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        # Horner evaluation: ((a_{n-1} inner + a_{n-2}) inner + ...) + a_0
        result = Series([self._zero()] * n)
        for ck in reversed(self.coeffs[:n]):
            result = result * inner
            result = Series((result.coeffs[0] + ck,) + result.coeffs[1:])
        return result

    # -- transcendental operations (ring contains the rationals)

    def log(self) -> Series:
        """Formal logarithm; the constant term must be 1."""
        if self.coeffs[0] != self._one():
            raise ValueError("log needs constant term 1")
        # g = log f solves f*g' = f': m*g_m = m*f_m - sum_{0<k<m} k*g_k*f_(m-k)
        f, zero = self.coeffs, self._zero()
        kg = [zero]  # kg[k] = k*g_k
        for m in range(1, self.order):
            kg.append(f[m] * m - sum((kg[k] * f[m - k] for k in range(1, m)), zero))
        return Series([zero] + [kg[m] * Fraction(1, m) for m in range(1, self.order)])

    def exp(self) -> Series:
        """Formal exponential; the constant term must be 0."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs constant term 0")
        # g = exp f solves g' = f'*g: m*g_m = sum_{0<k<=m} k*f_k*g_(m-k)
        kf = [c * k for k, c in enumerate(self.coeffs)]  # kf[k] = k*f_k
        g, zero = [self._one()], self._zero()
        for m in range(1, self.order):
            km = sum((kf[k] * g[m - k] for k in range(1, m + 1)), zero)
            g.append(km * Fraction(1, m))
        return Series(g)


def _lagrange_root(phi: Series) -> Series:
    """The series ``W = t*phi(W)``, one order longer than ``phi``, by Lagrange
    inversion: ``[t^m] W = (1/m) [u^(m-1)] phi(u)^m`` (Stanley, EC2 Thm 5.4.2).
    """
    power = Series.one(phi.order, poly=phi.is_poly_ring)
    coeffs = [phi._zero()]
    for m in range(1, phi.order + 1):
        power = power * phi
        coeffs.append(power.coeffs[m - 1] * Fraction(1, m))
    return Series(coeffs)


def troupe_transform(branch_series: Series) -> Series:
    """Solve ``T(t) = B(t / (1 - t*T(t)))`` for ``T`` to the truncation order.

    ``branch_series`` must have zero constant term; so does the result.
    ``W = t/(1 - t*T)`` solves ``W = t*(1 + W*B(W))``, and ``T = B(W)``.
    """
    b = branch_series
    if b.coeffs[0] != 0:
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
    if tree_series.coeffs[0] != 0:
        raise ValueError("the tree series must have zero constant term")
    return -troupe_transform(-tree_series)


def boolean_free_series_check(boolean_cumulants: Series, free_cumulants: Series) -> bool:
    """Check ``1 - B(t/(1 + R(t))) = 1/(1 + R(t))`` exactly.

    Both arguments are ordinary generating functions of cumulant sequences,
    over one ring, and must have zero constant term; a rational and a
    polynomial series raise :class:`RingMismatchError`, as arithmetic does.
    """
    bc, rc = boolean_cumulants, free_cumulants
    if bc.coeffs[0] != 0 or rc.coeffs[0] != 0:
        raise ValueError("cumulant series must have zero constant term")
    n = min(bc.order, rc.order)
    bc, rc = bc.truncate(n), rc.truncate(n)
    one = Series.one(n, poly=rc.is_poly_ring)
    t = Series.t(n, poly=rc.is_poly_ring)
    denom = one + rc
    lhs = one - bc.compose(t / denom)
    rhs = one / denom
    return lhs == rhs
