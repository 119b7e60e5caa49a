"""Seeded workloads and the oracles that check every operation's output.

An operation is one ``python -m troupes ...`` command (kind ``cli``) or one
``perfbench/plotdriver.py`` command (kind ``plot``).  Every random input is
drawn from ``random.Random(seed)``, so one seed gives one op list, and every
seed gives the same number of ops.  Oracles are computed here from closed
forms, independently of the library; the fixed-argument ops must also match
the stdout digests recorded at the commit that introduced this benchmark.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# An op's argv may contain PREV; it is replaced by the stripped stdout of the
# op before it, so the inverse transform runs on the forward transform's output.
PREV = "{prev}"

# sha256 of the stdout of the fixed-argument verify op, recorded at the commit
# that introduced this benchmark: the CLI output must stay byte-identical.  The
# fixed transform ops are compared with exact closed-form text instead.
DIGESTS = {
    ("verify", "--troupe", "all", "--n", "8", "--order", "8"):
        "f021f482f8cfa89d94aad51d45f8d4b764443747d0bb78f63f51e1921e572408",
}


@dataclass(frozen=True)
class Op:
    kind: str                     # "cli" or "plot"
    argv: tuple[str, ...]
    check: Callable[[str], str | None]  # stdout -> None, or why it is wrong


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    imports: tuple[str, ...]      # what a fresh interpreter imports for setup_s
    nominal_round_s: float        # one round's measured time on a 2-vCPU VM; sets rounds
    ops: Callable[..., list[Op]]


# ---------------------------------------------------------------------------
# Oracles


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def narayana(n: int) -> list[Fraction]:
    """Coefficients of N_n(q) = sum_k C(n,k) C(n,k+1)/n q^k."""
    return [Fraction(math.comb(n, k) * math.comb(n, k + 1), n) for k in range(n)]


def binomial_row(n: int) -> list[Fraction]:
    """Coefficients of (1+q)^n."""
    return [Fraction(math.comb(n, k)) for k in range(n + 1)]


def fmt_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_poly(coeffs: list[Fraction]) -> str:
    """Dense ``c0 + c1*q + c2*q^2`` text, as the CLI reads and writes it."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return "0"
    terms = []
    for k, c in enumerate(coeffs):
        c = fmt_rational(c)
        terms.append(c if k == 0 else f"{c}*q" if k == 1 else f"{c}*q^{k}")
    return " + ".join(terms)


def shift_q(coeffs: list[Fraction]) -> list[Fraction]:
    """Multiply a polynomial by q."""
    return [Fraction(0)] + coeffs


def expect_exact(text: str) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        return None if stdout == text else f"stdout differs from the closed form: {stdout[:120]!r}"
    return check


def expect_rationals(count: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        items = stdout.rstrip("\n").split(",")
        if len(items) != count or stdout.count("\n") != 1:
            return f"expected one line of {count} coefficients"
        try:
            [Fraction(x) for x in items]
        except (ValueError, ZeroDivisionError):
            return "a coefficient is not a rational"
        return None
    return check


def expect_verify(words: int, digest: str | None = None) -> Callable[[str], str | None]:
    """Every word line ``ok``, the series line ``ok``, and ``PASS`` last.

    Single-colour words of lengths 1..n are n words.
    """
    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[-1] != f"PASS ({words} words checked)":
            return f"last line is not PASS over {words} words: {lines[-1:]!r}"
        if len(lines) != words + 2 or any(not ln.startswith("ok ") for ln in lines[:-1]):
            return "a check line is not ok"
        if digest is not None and hashlib.sha256(stdout.encode()).hexdigest() != digest:
            return "stdout differs from the recorded digest"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads


def verify_deep_ops(seed: int, n: int = 8) -> list[Op]:
    """The series identity is checked to order n, not the CLI's default 12,
    so that series work stays a small share of the workload."""
    rng = random.Random(seed)
    troupe_seed = rng.randrange(10 ** 6)
    fixed = ("verify", "--troupe", "all", "--n", str(n), "--order", str(n))
    rand = ("verify", "--troupe", "random", "--seed", str(troupe_seed), "--n", str(n),
            "--order", str(n))
    return [
        Op("cli", fixed, expect_verify(n, DIGESTS.get(fixed))),
        Op("cli", rand, expect_verify(n)),
    ]


def transform_ops(seed: int, order: int = 20, poly_order: int = 11) -> list[Op]:
    rng = random.Random(seed)
    rand = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order - 1)]
    powers = [Fraction(2 ** (n - 1)) for n in range(1, order)]
    cats = [Fraction(catalan(n)) for n in range(1, order)]
    branch_q = [fmt_poly(shift_q(binomial_row(n - 1))) for n in range(1, poly_order)]
    tree_q = [fmt_poly(shift_q(narayana(n))) for n in range(1, poly_order)]

    def line(items: list) -> str:
        return ",".join(x if isinstance(x, str) else fmt_rational(x) for x in items)

    def forward(o: int, coeffs: str) -> tuple[str, ...]:
        return ("transform", "--order", str(o), f"--coeffs={coeffs}")

    def inverse(o: int, coeffs: str) -> tuple[str, ...]:
        return ("transform", "--order", str(o), "--kind", "inverse", f"--coeffs={coeffs}")

    return [
        Op("cli", forward(order, line(rand)), expect_rationals(order - 1)),
        Op("cli", inverse(order, PREV), expect_exact(line(rand) + "\n")),
        Op("cli", forward(order, line(powers)), expect_exact(line(cats) + "\n")),
        Op("cli", inverse(order, line(cats)), expect_exact(line(powers) + "\n")),
        Op("cli", forward(poly_order, line(branch_q)), expect_exact(line(tree_q) + "\n")),
        Op("cli", inverse(poly_order, line(tree_q)), expect_exact(line(branch_q) + "\n")),
    ]


def plot_ops(seed: int, size: int = 12, count: int = 1500,
             lengths: tuple[int, ...] = (7, 8)) -> list[Op]:
    rng = random.Random(seed)
    perm_seed = rng.randrange(10 ** 6)
    ops = [Op("plot", ("peaks", str(perm_seed), str(count), str(size)),
              expect_exact(f"peaks {size} {count} ok\n"))]
    for length in lengths:
        word = ",".join(str(rng.randrange(2)) for _ in range(length))
        ops.append(Op("plot", ("psi", word),
                      expect_exact(f"psi {word} {catalan(length - 1)} ok\n")))
        ops.append(Op("plot", ("phi", word),
                      expect_exact(f"phi {word} {math.factorial(length - 1)} ok\n")))
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-deep",
                 "long single-colour words: Bell(8) partition tables, 7! decreasing "
                 "trees and classical lattice sums dominate; no QPoly, little series work",
                 ("troupes.cli",), 2.9, verify_deep_ops),
        Workload("transform",
                 "series transform and its inverse, rational and QPoly: only series and "
                 "rings run; trees, partitions, cumulants and troupe are bypassed",
                 ("troupes.cli",), 4.0, transform_ops),
        Workload("plot-bijections",
                 "psi/phi round trips and plot-read factors: bijections, peaks and "
                 "labelled factorization with no troupe cache; no series, no QPoly",
                 ("troupes.peaks", "troupes.bijections"), 4.0, plot_ops),
    )
}
