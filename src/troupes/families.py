"""Worked moment/cumulant families and their counting polynomials.

Everything analytic is replaced by formal moment sequences: a "distribution"
here is just its sequence of moments with m_0 = 1, over the rationals or over
polynomials in q.  Each named family carries a closed form for its classical
cumulants, against which the generating-function route is checked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .cumulants import classical_via_egf, from_egf, to_egf
from .rings import QPoly, RingElem, q
from .series import Series


def eulerian_polynomial(n: int) -> QPoly:
    """Descent-generating polynomial of all permutations of 1..n, by the
    recurrence A(n, k) = (k + 1) A(n-1, k) + (n - k) A(n-1, k-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    row = [1]
    for m in range(2, n + 1):
        prev = [0] + row + [0]  # prev[k + 1] = A(m-1, k)
        row = [(k + 1) * prev[k + 1] + (m - k) * prev[k] for k in range(m)]
    return QPoly(row)


def alternating_count(n: int) -> int:
    """Number of alternating permutations of size n (up-down convention), by
    the Seidel-Entringer boustrophedon.  Odd entries are the tangent numbers."""
    if n < 1:
        raise ValueError("n must be positive")
    row = [1]
    for _ in range(n):
        sums = [0]
        for x in reversed(row):
            sums.append(sums[-1] + x)
        row = sums
    return row[-1]


class NamedSequence(NamedTuple):
    """A named moment sequence with its classical-cumulant closed form."""

    name: str
    moments: Callable[[int], list[RingElem]]  # m_0..m_N
    expected_classical: Callable[[int], list[RingElem]]  # K_1..K_N

    def classical_cumulants(self, order: int) -> list[RingElem]:
        return classical_via_egf(self.moments(order))


def _gamma_minus_one_moments(order: int) -> list[RingElem]:
    return [Fraction(1 - n) for n in range(order + 1)]


def _gamma_minus_one_cumulants(order: int) -> list[RingElem]:
    out: list[RingElem] = [Fraction(0)]
    fact = 1
    for n in range(2, order + 1):
        fact *= n - 1
        out.append(Fraction(-fact))
    return out[:order]


def _two_atom_moments(order: int) -> list[RingElem]:
    # m_n = (q^n - q)/(1 - q) written as the polynomial -q(1 + q + ... + q^(n-2))
    out: list[RingElem] = [QPoly((1,)), QPoly()]
    for n in range(2, order + 1):
        out.append(QPoly([0] + [-1] * (n - 1)))
    return out[: order + 1]


def _two_atom_cumulants(order: int) -> list[RingElem]:
    out: list[RingElem] = [QPoly()]
    for n in range(2, order + 1):
        out.append(-(q * eulerian_polynomial(n - 1)))
    return out[:order]


def _reciprocal(moments: list[RingElem]) -> list[RingElem]:
    """The moments whose EGF is the reciprocal of ``moments``' EGF, in their ring."""
    egf = to_egf(moments)
    return from_egf(Series.one(egf.order, poly=egf.is_poly_ring) / egf)


def _secant_moments(order: int) -> list[RingElem]:
    # sec t = 1/cos t as an EGF
    return _reciprocal([0 if n % 2 else (-1) ** (n // 2) for n in range(order + 1)])


def _secant_cumulants(order: int) -> list[RingElem]:
    # K_n is the tangent number a_(n-1) for even n: differentiating the log
    # of the moment EGF gives the tangent series, shifting indices by one.
    return [
        Fraction(alternating_count(n - 1)) if n % 2 == 0 else Fraction(0)
        for n in range(1, order + 1)
    ]


def _negated(cumulants: Callable[[int], list[RingElem]], order: int) -> list[RingElem]:
    return [-k for k in cumulants(order)]


def _inverse(name: str, partner: NamedSequence) -> NamedSequence:
    """The convolution inverse of ``partner``: its moment EGF the reciprocal of
    the partner's, its cumulants the partner's closed form negated."""
    return NamedSequence(name, lambda order: _reciprocal(partner.moments(order)),
                         partial(_negated, partner.expected_classical))


_GAMMA = NamedSequence("gamma_minus_one", _gamma_minus_one_moments, _gamma_minus_one_cumulants)
_TWO_ATOM = NamedSequence("two_atom", _two_atom_moments, _two_atom_cumulants)
NAMED_SEQUENCES = {
    "gamma_minus_one": _GAMMA,
    "shifted_exponential": _inverse("shifted_exponential", _GAMMA),
    "two_atom": _TWO_ATOM,
    "geometric_like": _inverse("geometric_like", _TWO_ATOM),
    "secant": NamedSequence("secant", _secant_moments, _secant_cumulants),
}


def named_sequence(name: str) -> NamedSequence:
    try:
        return NAMED_SEQUENCES[name]
    except KeyError:
        raise ValueError(f"unknown sequence {name!r}; choose from "
                         f"{sorted(NAMED_SEQUENCES)}") from None


def convolution_additivity_check(f: NamedSequence, g: NamedSequence,
                                 order: int) -> bool:
    """Multiply the two moment EGFs and check that classical cumulants add.

    For convolution-inverse pairs the product EGF is 1 and all cumulants of
    the product vanish.
    """
    mf = f.moments(order)
    mg = g.moments(order)
    conv_moments = from_egf(to_egf(mf) * to_egf(mg))
    kf = classical_via_egf(mf)
    kg = classical_via_egf(mg)
    kfg = classical_via_egf(conv_moments)
    return all(kfg[i] == kf[i] + kg[i] for i in range(order))
