"""Moment/cumulant conversion over three partition lattices, plus bridges.

Moments and cumulants are dense tables over words in a finite color alphabet.
The three cumulant kinds differ only in which partitions of word positions
enter the defining expansion:

* classical -- all partitions,
* free      -- noncrossing partitions,
* boolean   -- interval partitions.

Both conversions are one first-block recursion: a moment is the sum, over
the blocks S that hold the first position, of the cumulant on S times the
moments of what S leaves (the complement, the gaps of S, or the suffix).
Moments to cumulants solves it triangularly, holding the unknown cumulant at
0 so the one-block term drops out; cumulants to moments fills moments in
length order.  The two bridges are the theorem's other route: they negate a
Boolean table, sum it over the irreducible noncrossing partitions (free) or
over the descending runs of the permutations with first entry maximal
(classical, by a walk over run states that lists no partition), and negate.
Conversions and bridges alike sum on integers over a graded table (:func:`_grade`).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .rings import (RingElem, _over, _scaled, as_ring_elem, denominator,
                    format_ring_elem, parse_ring_elem, parse_word)
from .partitions import partitions_as_index_blocks
from .series import Series, boolean_free_series_check, troupe_transform
from .trees import iter_words
from .troupe import WeightedTroupe, tree_sums

Word = tuple[int, ...]


class MomentFunctional(NamedTuple):
    """Dense table of moments for words up to ``max_len``.

    The empty word implicitly has moment 1 (the functional is unital).
    """

    alphabet: tuple[int, ...]
    max_len: int
    table: Mapping[Word, RingElem]

    @classmethod
    def of(cls, alphabet: Sequence[int], max_len: int,
           table: Mapping[Word, RingElem]) -> MomentFunctional:
        alphabet = tuple(sorted(set(alphabet)))
        full = {}
        for word in iter_words(alphabet, max_len):
            if word not in table:
                raise KeyError(f"missing moment for word {word}")
            full[word] = as_ring_elem(table[word])
        return cls(alphabet, max_len, full)


class CumulantTable(NamedTuple):
    """Dense table of cumulants of one kind over the same word domain."""

    kind: str
    alphabet: tuple[int, ...]
    max_len: int
    table: Mapping[Word, RingElem]


KINDS = ("classical", "free", "boolean")


def _first_block_sum(word: Word, kind: str, cumulants: Mapping[Word, RingElem],
                     moments: Mapping[Word, RingElem]) -> RingElem:
    """Sum over the blocks S that hold position 0 of ``cumulants[word|S]``
    times the moments of what S leaves: the complement (classical), the gaps
    between consecutive elements of S and after its last one (free), or the
    suffix, S being a prefix (boolean).  The empty word has moment 1.

    Positions join S or the open gap from left to right: a free gap closes
    into the running product when S resumes, a Boolean S never resumes, and
    the classical complement stays one open gap.  Each term is linear in the
    closed gaps' product, so the blocks giving one (word on S, open gap) are
    one state holding the sum of their products: at most one state per pair
    of subwords, not one per block.
    """
    # (word on S, open gap) -> sum of the products of the closed gaps' moments
    states: dict[tuple[Word, Word], RingElem] = {((word[0],), ()): 1}
    for letter in word[1:]:
        grown: dict[tuple[Word, Word], RingElem] = {}
        for (block, gap), closed in states.items():
            if kind == "classical" or not gap:
                key = (block + (letter,), gap)
                grown[key] = grown.get(key, 0) + closed
            elif kind == "free":
                key = (block + (letter,), ())
                grown[key] = grown.get(key, 0) + closed * moments[gap]
            key = (block, gap + (letter,))
            grown[key] = grown.get(key, 0) + closed
        states = grown
    acc: RingElem = 0
    for (block, gap), closed in states.items():
        term = cumulants[block] * closed
        if gap:
            term = term * moments[gap]
        acc = acc + term
    return acc


def _grade(table: Mapping[Word, RingElem]) -> tuple[dict[Word, RingElem], int]:
    """The table with each entry times ``d**len(word)``, and ``d``, the lcm of
    the entries' denominators: entries become ``int``s or integer-coefficient
    ``QPoly``s.  Every kernel here is homogeneous of degree ``len(word)`` in
    its table, so it runs unchanged on the graded table, and
    :func:`_ungrade` divides once per word."""
    d = lcm(*map(denominator, table.values()))
    return {word: _scaled(x, d ** len(word)) for word, x in table.items()}, d


def _ungrade(graded: Mapping[Word, RingElem], d: int) -> dict[Word, RingElem]:
    """Each entry over ``d**len(word)``: a ``Fraction`` from an ``int``, a
    ``QPoly`` from a ``QPoly``."""
    return {word: _over(x, d ** len(word)) for word, x in graded.items()}


def moments_to_cumulants(phi: MomentFunctional, kind: str) -> CumulantTable:
    """Triangular solve of the first-block recursion for the requested kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown cumulant kind {kind!r}")
    moments, d = _grade(phi.table)
    table: dict[Word, RingElem] = {}
    for word in iter_words(phi.alphabet, phi.max_len):
        table[word] = 0  # held at 0 in its own sum: the one-block term drops out
        table[word] = moments[word] - _first_block_sum(word, kind, table, moments)
    return CumulantTable(kind, phi.alphabet, phi.max_len, _ungrade(table, d))


def cumulants_to_moments(c: CumulantTable) -> MomentFunctional:
    """The first-block recursion, filling moments in length order."""
    if c.kind not in KINDS:
        raise ValueError(f"unknown cumulant kind {c.kind!r}")
    cumulants, d = _grade(c.table)
    table: dict[Word, RingElem] = {}
    for word in iter_words(c.alphabet, c.max_len):
        table[word] = _first_block_sum(word, c.kind, cumulants, table)
    return MomentFunctional(c.alphabet, c.max_len, _ungrade(table, d))


State = tuple[Word, ...]  # the sorted run words shared by some of a tail's permutations


def _closed_sum(state: State, c: int, negated: Mapping[Word, RingElem]) -> RingElem:
    """Sum over the successors of ``state``, a new least position of color
    ``c`` put right after some entry, of the product of ``negated`` over their
    runs.  After the k-th least entry of a run r it makes ``(c,) + r[k:]`` a
    run and leaves ``r[:k]`` one if k > 0, so the sum is, over the runs r, the
    other runs' product times the sum over k for r alone."""
    value: RingElem = 0
    for j, run in enumerate(state):
        term = sum((negated[(c,) + run[k:]] * negated[run[:k]] for k in range(1, len(run))),
                   negated[(c,) + run])
        for other in state[:j] + state[j + 1:]:
            term = term * negated[other]
        value = value + term
    return value


def _first_max_sums(negated: Mapping[Word, RingElem], alphabet: Sequence[int],
                    max_len: int) -> dict[Word, RingElem]:
    """For each word up to ``max_len``, the sum over the permutations of its
    positions with first entry maximal of the product of ``negated`` over
    their descending runs, each run read as the word on its positions.

    Such a permutation of ``(c,) + u`` is one of u's, shifted up by 1, with 0
    put right after some entry.  So a tail u keeps its permutations as states,
    each with the number of permutations that have it, and ``(c,) + u`` sums
    that number times :func:`_closed_sum`, one per (state, c), over them.
    Depth first, a tail holds its states only while its extensions read them.
    """
    closed: dict[tuple[State, int], RingElem] = {}
    sums = {(c,): negated[(c,)] for c in alphabet if max_len}  # one position, one run
    stack = [((c,), {((c,),): 1}, iter(alphabet)) for c in alphabet if max_len > 1]
    while stack:
        tail, states, letters = stack[-1]
        for c in letters:
            word, acc, grown = (c,) + tail, 0, {}
            for state, count in states.items():
                value = closed.get((state, c))
                if value is None:
                    value = closed[state, c] = _closed_sum(state, c, negated)
                acc = acc + count * value
                if len(word) < max_len:  # the successors, as states of word
                    for j, run in enumerate(state):
                        for k in range(len(run)):
                            cut = ((c,) + run[k:], run[:k]) if k else ((c,) + run,)
                            new = tuple(sorted(state[:j] + state[j + 1:] + cut))
                            grown[new] = grown.get(new, 0) + count
            sums[word] = acc
            if grown:
                stack.append((word, grown, iter(alphabet)))
                break
        else:
            stack.pop()
    return sums


def _partition_sum(word: Word, partitions: Iterable[tuple[int, ...]],
                   table: Mapping[Word, RingElem]) -> RingElem:
    """Sum over the partitions, as tuples of block masks, of the product of
    ``table[word|block]`` over the blocks, each mask looked up once."""
    values: dict[int, RingElem] = {}
    acc: RingElem = 0
    for blocks in partitions:
        prod: RingElem = 1
        for block in blocks:
            value = values.get(block)
            if value is None:
                value = values[block] = table[tuple([c for i, c in enumerate(word)
                                                     if block >> i & 1])]
            prod = prod * value
        acc = acc + prod
    return acc


def _bridge(b: CumulantTable, kind: str,
            sums: Callable[[dict[Word, RingElem]], Mapping[Word, RingElem]]) -> CumulantTable:
    """Negated ``sums`` of the negated Boolean table: ``sums`` maps it to
    each word's partition sum."""
    if b.kind != "boolean":
        raise ValueError("input must be a boolean cumulant table")
    graded, d = _grade(b.table)
    found = sums({word: -value for word, value in graded.items()})
    table = {word: -found[word] for word in iter_words(b.alphabet, b.max_len)}
    return CumulantTable(kind, b.alphabet, b.max_len, _ungrade(table, d))


def boolean_to_free(b: CumulantTable) -> CumulantTable:
    """Bridge from Boolean to free cumulants through irreducible noncrossing
    partitions: the negated free cumulant of a word is the sum over such
    partitions of products of negated Boolean cumulants of the blocks."""
    return _bridge(b, "free", lambda negated: {word: _partition_sum(
        word, partitions_as_index_blocks(len(word), "nc_irreducible"), negated)
        for word in iter_words(b.alphabet, b.max_len)})


def boolean_to_classical(b: CumulantTable) -> CumulantTable:
    """Bridge from Boolean to classical cumulants through permutations whose
    first entry is maximal, grouped by descending runs (:func:`_first_max_sums`).
    Terms with a singleton run vanish whenever the length-1 cumulants do."""
    return _bridge(b, "classical",
                   lambda negated: _first_max_sums(negated, b.alphabet, b.max_len))


def to_egf(seq: Sequence[RingElem]) -> Series:
    """The exponential generating function ``sum c_n t^n/n!`` of ``c_0..c_N``,
    to order ``N+1``."""
    return Series([c * Fraction(1, factorial(n)) for n, c in enumerate(seq)])


def from_egf(egf: Series) -> list[RingElem]:
    """The sequence ``n!·[t^n] egf`` below the order: :func:`to_egf` undone."""
    return [egf[n] * factorial(n) for n in range(egf.order)]


def classical_via_egf(moments: Sequence[RingElem]) -> list[RingElem]:
    """Univariate classical cumulants from the log of the moment EGF.

    ``moments`` is ``m_0..m_N`` with ``m_0 = 1``; returns ``K_1..K_N``.
    Works over either coefficient ring since only integer divisions occur.
    """
    moments = [as_ring_elem(m) for m in moments]
    if not moments or moments[0] != 1:
        raise ValueError("moment sequence must start with m_0 = 1")
    return from_egf(to_egf(moments).log())[1:]


# ---------------------------------------------------------------------------
# Serialization (one line per word)


def format_table(table: Mapping[Word, RingElem]) -> str:
    return "\n".join(f"word {','.join(map(str, word))} = {format_ring_elem(table[word])}"
                     for word in sorted(table, key=lambda w: (len(w), w))) + "\n"


def parse_table(text: str) -> dict[Word, RingElem]:
    """Parse ``word i1,...,ik = value`` lines; raises with the line number."""
    table: dict[Word, RingElem] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if not line.startswith("word "):
                raise ValueError("expected a 'word ... = ...' line")
            word_text, sep, value_text = line[len("word "):].partition("=")
            if not sep:
                raise ValueError("missing '='")
            word = parse_word(word_text.strip())
            if word in table:
                raise ValueError(f"repeated word {word_text.strip()}")
            table[word] = parse_ring_elem(value_text)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return table


def moment_functional_from_text(text: str) -> MomentFunctional:
    table = parse_table(text)
    if not table:
        raise ValueError("empty moment table")
    return MomentFunctional.of({c for w in table for c in w}, max(map(len, table)), table)


# ---------------------------------------------------------------------------
# Tree-enumeration characterization of the three cumulant kinds


class ConditionCheck(NamedTuple):
    """One cumulant kind's comparison for one word.

    ``enumeration`` is the negated weighted tree sum, ``from_moments`` the
    cumulant recomputed from the synthesized moments, and ``bridge`` the
    value obtained through the Boolean-cumulant bridge (None for the boolean
    condition itself, which has no bridge).
    """

    kind: str
    enumeration: RingElem
    from_moments: RingElem
    bridge: RingElem | None

    @property
    def equal(self) -> bool:
        return (self.from_moments == self.enumeration
                and (self.bridge is None or self.bridge == self.enumeration))


class EquivalenceReport(NamedTuple):
    word: Word
    checks: tuple[ConditionCheck, ...]

    @property
    def all_equal(self) -> bool:
        return all(c.equal for c in self.checks)


class Verification(NamedTuple):
    """What :func:`equivalence_reports` found: one report per word, and the
    series check's outcome, None when it holds (see :func:`_series_failure`)."""

    reports: tuple[EquivalenceReport, ...]
    series_failure: str | None


def equivalence_reports(tau: WeightedTroupe, alphabet: Sequence[int],
                        max_len: int, order: int) -> Verification:
    """Check the tree-enumeration characterization on every word up to
    ``max_len``, and the series identity to ``order``.

    The moment functional is synthesized so that the Boolean condition holds
    by construction (Boolean cumulants are negated branch sums); the other
    conditions are then compared against the decreasing-tree and plain-tree
    enumerations, and against the two bridge formulas.  Each family is one
    :func:`tree_sums` table; the branch and plain-tree tables also hold each
    color's constant words of lengths ``max_len+1..order``, which only the
    series check reads.  ``order`` must be positive.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    alphabet = tuple(sorted(set(alphabet)))
    words = list(iter_words(alphabet, max_len))
    constant = [(c,) * n for c in alphabet for n in range(max_len + 1, order + 1)]
    branch = tree_sums(tau, "branch", words + constant)
    boolean_table = {word: -branch[word] for word in words}
    boolean = CumulantTable("boolean", alphabet, max_len, boolean_table)
    phi = cumulants_to_moments(boolean)
    classical = moments_to_cumulants(phi, "classical")
    free = moments_to_cumulants(phi, "free")
    boolean_back = moments_to_cumulants(phi, "boolean")
    free_bridge = boolean_to_free(boolean)
    classical_bridge = boolean_to_classical(boolean)
    dbpt = tree_sums(tau, "dbpt", words)
    bpt = tree_sums(tau, "bpt", words + constant)

    reports = []
    for word in words:
        checks = (
            ConditionCheck("classical", -dbpt[word], classical.table[word],
                           classical_bridge.table[word]),
            ConditionCheck("free", -bpt[word], free.table[word], free_bridge.table[word]),
            ConditionCheck("boolean", boolean_table[word], boolean_back.table[word], None),
        )
        reports.append(EquivalenceReport(word, checks))
    return Verification(tuple(reports), _series_failure(alphabet, order, branch, bpt))


def _series_failure(alphabet: Sequence[int], order: int, branch: Mapping[Word, RingElem],
                    bpt: Mapping[Word, RingElem]) -> str | None:
    """None if, for each color c, the branch series B_c of c's constant words
    satisfies the series identity and its transform equals their plain-tree
    sums to ``order``; else ``""`` if the identity fails first, or the color,
    coefficient and both values that differ, as the word lines name a route."""
    for c in alphabet:
        bseries = Series([branch[(c,) * (k + 1)] for k in range(order)])
        tseries = troupe_transform(bseries)
        if not boolean_free_series_check(-bseries.shift(), -tseries.shift()):
            return ""
        for k in range(1, order):
            trees = bpt[(c,) * (k + 1)]
            if tseries[k] != trees:
                return (f" [color {c} coefficient {k}: transform={format_ring_elem(tseries[k])} "
                        f"trees={format_ring_elem(trees)}]")
    return None
