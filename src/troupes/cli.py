"""Command-line surface: counting, enumeration, transforms, verification.

All input and output is line-oriented plain text using the serialization
formats of the library modules, so results are stable byte for byte and
compose in shell pipelines.  Exit status: 0 on success (and on verification
pass), 1 on verification failure, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Sequence

# Only the ring and series layers load with this module, since they are all
# that ``transform`` uses; every other handler imports its own layers.
from .rings import format_ring_elem, parse_int, parse_ring_elem, parse_word
from .series import Series, inverse_troupe_transform, troupe_transform

DEFAULT_ORDER = 12


class CliError(argparse.ArgumentTypeError):
    """Usage or input error; reported on stderr with exit status 2.

    Raised from an argparse ``type=`` function it becomes argparse's own
    usage error, which exits 2 as well.
    """


def _argument(parse):
    """``parse``, a reader of :mod:`~troupes.rings`, for argparse: its
    ``ValueError`` becomes a CliError, whose own message argparse prints."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    return read


_parse_int = _argument(parse_int)
_parse_word = _argument(parse_word)


def _parse_permutation(text: str) -> tuple[int, ...]:
    word = _parse_word(text)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise CliError(f"{text!r} is not a permutation of 1..n")
    return word


PARTITION_KIND_NAMES = {
    "partition": "all",
    "interval": "interval",
    "noncrossing": "noncrossing",
    "nc-irreducible": "nc_irreducible",
    "nc-irreducible-min2": "nc_irreducible_min2",
}


def _check_min(flag: str, value: int | None, least: int) -> None:
    """Reject a size or order below the smallest one that means anything."""
    if value is not None and value < least:
        raise CliError(f"{flag} must be at least {least}, got {value}")


def _family_items(kind: str, n: int | None, colors: tuple[int, ...] | None):
    """The items of a family, and the function that prints one as a line."""
    from .trees import TREE_KINDS, encode, encode_labeled, enumerate_trees, size_word

    kind = kind.lower()
    if kind in TREE_KINDS:
        if (n is None) == (colors is None):
            raise CliError("give exactly one of --n and --colors")
        if n is not None:
            _check_min("--n", n, 0)
            colors = size_word(n)
        return enumerate_trees(kind, colors), encode_labeled if kind == "dbpt" else encode
    if kind in PARTITION_KIND_NAMES or kind == "d-permutations":
        from .partitions import iter_D, iter_partitions

        if n is None:
            raise CliError(f"--n is required for kind {kind!r}")
        _check_min("--n", n, 1)
        if colors is not None:
            raise CliError(f"--colors does not apply to kind {kind!r}")
        if kind == "d-permutations":
            return iter_D(n), lambda sigma: ",".join(map(str, sigma))
        return iter_partitions(n, PARTITION_KIND_NAMES[kind]), str
    raise CliError(
        f"unknown kind {kind!r}; expected one of "
        f"{TREE_KINDS + tuple(PARTITION_KIND_NAMES) + ('d-permutations',)}"
    )


def cmd_count(args) -> int:
    items, _ = _family_items(args.kind, args.n, args.colors)
    print(sum(1 for _ in items))
    return 0


def cmd_enumerate(args) -> int:
    items, line = _family_items(args.kind, args.n, args.colors)
    for item in items:
        print(line(item))
    return 0


def cmd_transform(args) -> int:
    _check_min("--order", args.order, 2)
    try:
        coeffs = [Fraction(0), *map(parse_ring_elem, args.coeffs.split(","))]
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.order is not None and len(coeffs) > args.order:
        raise CliError(f"{len(coeffs) - 1} coefficients given, but --order {args.order} "
                       f"keeps only {args.order - 1}")
    order = args.order if args.order is not None else max(DEFAULT_ORDER, len(coeffs))
    series = Series(coeffs, order=order)
    if args.kind == "inverse":
        out = inverse_troupe_transform(series)
    else:
        out = troupe_transform(series)
    print(",".join(format_ring_elem(c) for c in out.coeffs[1:]))
    return 0


def cmd_cumulants(args) -> int:
    from .cumulants import format_table, moment_functional_from_text, moments_to_cumulants

    try:
        with open(args.moments, "rb") as fh:
            # decoded whole, so a decode error's offset counts from the file start
            phi = moment_functional_from_text(fh.read().decode("utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read {args.moments}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{args.moments}: not UTF-8 text: byte "
                       f"0x{exc.object[exc.start]:02x} at offset {exc.start}") from exc
    except (KeyError, ValueError) as exc:
        raise CliError(f"{args.moments}: {exc.args[0]}") from exc
    for kind in ("classical", "free", "boolean"):
        table = moments_to_cumulants(phi, kind)
        print(f"# {kind}")
        sys.stdout.write(format_table(table.table))
    return 0


def cmd_verify(args) -> int:
    from .cumulants import equivalence_reports
    from .troupe import builtin, from_table, random_branch_table

    _check_min("--n", args.n, 1)
    _check_min("--num-colors", args.num_colors, 1)
    # the series identity first compares a coefficient at order 3
    _check_min("--order", args.order, 3)
    alphabet = range(args.num_colors)
    if args.troupe == "random":
        # the word lines read every branch of up to n - 1 vertices, the series
        # line each color's constant words up to --order: their branches take
        # the one-color table's weights, recolored, where the table has none
        table = random_branch_table(args.seed, max(args.n - 1, 1), args.num_colors)
        for key, weight in random_branch_table(args.seed, args.order - 1).items():
            for color in alphabet:
                table.setdefault(key.replace("0", str(color)), weight)
        tau = from_table(table, name=f"random(seed={args.seed})")
    else:
        try:
            tau = builtin(args.troupe, args.num_colors)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    reports, series_fail = equivalence_reports(tau, alphabet, args.n, args.order)
    failures = 0
    for report in reports:
        status = "ok" if report.all_equal else "FAIL"
        if not report.all_equal:
            failures += 1
        cells = []
        for check in report.checks:
            cell = f"{check.kind}={format_ring_elem(check.enumeration)}"
            if not check.equal:  # name every route, so the one that disagreed shows
                routes = {"from_moments": check.from_moments, "bridge": check.bridge}
                cell += " [" + " ".join(f"{name}={format_ring_elem(value)}" for name, value
                                        in routes.items() if value is not None) + "]"
            cells.append(cell)
        word = ",".join(map(str, report.word))
        print(f"{status} word {word}: " + " ".join(cells))
    print(f"{'ok' if series_fail is None else 'FAIL'} cumulant series identity to "
          f"order {args.order}{series_fail or ''}")
    if series_fail is not None:
        failures += 1
    print(f"{'PASS' if failures == 0 else 'FAIL'} ({len(reports)} words checked)")
    return 0 if failures == 0 else 1


def cmd_peaks(args) -> int:
    from .peaks import factors_from_plot, peaks
    from .trees import encode_labeled

    word = _parse_permutation(args.permutation)
    print("peaks: " + ",".join(map(str, peaks(word))))
    for factor in factors_from_plot(word):
        print(encode_labeled(factor))
    return 0


def cmd_sort(args) -> int:
    from .trees import stack_sort

    word = _parse_permutation(args.permutation)
    print(",".join(map(str, stack_sort(word))))
    return 0


def cmd_examples(args) -> int:
    from .cumulants import MomentFunctional, moments_to_cumulants
    from .families import named_sequence

    try:
        seq = named_sequence(args.name)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _check_min("--order", args.order, 1)
    moments = seq.moments(args.order)
    print("# moments")
    for n, m in enumerate(moments):
        print(f"{n}: {format_ring_elem(m)}")
    classical = seq.classical_cumulants(args.order)
    print("# classical cumulants")
    for n, k in enumerate(classical, start=1):
        print(f"{n}: {format_ring_elem(k)}")
    phi = MomentFunctional.of((0,), args.order,
                              {(0,) * n: moments[n] for n in range(1, args.order + 1)})
    for kind in ("free", "boolean"):
        cum = moments_to_cumulants(phi, kind)
        print(f"# {kind} cumulants")
        for length in range(1, args.order + 1):
            print(f"{length}: {format_ring_elem(cum.table[(0,) * length])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troupes",
        description="Exact tree enumeration, troupe transforms, and cumulants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p):
        p.add_argument("--kind", required=True,
                       help="bpt, branch, dbpt, partition, interval, noncrossing, "
                            "nc-irreducible, nc-irreducible-min2, d-permutations")
        p.add_argument("--n", type=_parse_int, default=None, help="size (single color)")
        p.add_argument("--colors", type=_parse_word, default=None,
                       help="color word i1,i2,...,in")

    p = sub.add_parser("count", help="count a combinatorial family")
    add_family_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list a combinatorial family")
    add_family_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("transform", help="apply the branch-to-tree series transform")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated coefficients of t^1,t^2,...")
    p.add_argument("--order", type=_parse_int, default=None)
    p.add_argument("--kind", choices=("forward", "inverse"), default="forward")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("cumulants", help="convert a moment table to cumulant tables")
    p.add_argument("--moments", required=True, help="moment table file")
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("verify", help="check the cumulant/tree-sum equivalences")
    p.add_argument("--troupe", required=True,
                   help="all, full, motzkin, colorset:J, rightmono:t1,t2, "
                        "colorcount:J, or random")
    p.add_argument("--n", type=_parse_int, default=6, help="maximum word length")
    p.add_argument("--order", type=_parse_int, default=DEFAULT_ORDER,
                   help="truncation order for the series identity")
    p.add_argument("--seed", type=_parse_int, default=0, help="seed for random troupes")
    p.add_argument("--num-colors", type=_parse_int, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("peaks", help="peaks and plot-extracted insertion factors")
    p.add_argument("permutation", help="e.g. 1,3,2")
    p.set_defaults(func=cmd_peaks)

    p = sub.add_parser("sort", help="one pass of the stack-sorting map")
    p.add_argument("permutation", help="e.g. 2,3,1")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("examples", help="moments and cumulants of a named family")
    p.add_argument("name")
    p.add_argument("--order", type=_parse_int, default=DEFAULT_ORDER)
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too large: maximum recursion depth exceeded", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
