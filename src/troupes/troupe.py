"""Weighted troupes: multiplicative tree weights determined by branch values.

A weighted troupe assigns every nonempty colored tree a ring value so that
inserting one tree into another multiplies their values, and the empty tree
maps to 0.  Such a weighting is pinned down by its values on branches, so a
troupe here is simply a branch-weight rule; evaluation on a general tree
multiplies the rule over the tree's insertion factors.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .rings import (RingElem, _over, _scaled, as_ring_elem, denominator,
                    parse_ring_elem, parse_word, q)
from .trees import (TREE_KINDS, ColoredTree, Vertex, _new, encode, factor_paths,
                    iter_branch_word, iter_dbpt, iter_words, right_edges)


class WeightedTroupe:
    """A branch-weight rule extended multiplicatively to all trees.

    ``branch_weight`` must be total on branches; it is only ever called on
    branches.  Branch weights are memoized under the branch's box color and
    its vertices, numbered from the bottom one (0) up as
    :func:`~troupes.trees._write_branch` writes them, so the cache grows with
    the number of distinct branches met, not with the number of trees
    evaluated.
    """

    def __init__(self, name: str, branch_weight: Callable[[ColoredTree], RingElem]):
        self.name = name
        self.branch_weight = branch_weight
        self._cache: dict[tuple[int, tuple[Vertex, ...]], RingElem] = {}

    def __repr__(self):
        return f"WeightedTroupe({self.name!r})"

    def _weight(self, box: int, nodes: tuple[Vertex, ...]) -> RingElem:
        """The weight of the branch of box color ``box`` whose vertices,
        numbered from the bottom one up, are ``nodes``."""
        key = (box, nodes)
        value = self._cache.get(key)
        if value is None:
            branch = _new(ColoredTree, (nodes, len(nodes) - 1, box))
            value = self._cache[key] = as_ring_elem(self.branch_weight(branch))
        return value

    def evaluate(self, t: ColoredTree) -> RingElem:
        """0 on the empty tree, else the product of branch weights over the
        insertion factors."""
        if not t.nodes:
            return Fraction(0)
        weight = self._weight
        factors = iter(factor_paths(t))
        _, _, branch = next(factors)
        value = weight(branch.box_color, branch.nodes)
        for _, _, branch in factors:
            value = value * weight(branch.box_color, branch.nodes)
        return value


# ---------------------------------------------------------------------------
# Built-in families


def all_trees() -> WeightedTroupe:
    """Weight 1 on every branch: the indicator of all nonempty trees."""
    return WeightedTroupe("all", lambda b: Fraction(1))


def full_trees() -> WeightedTroupe:
    """Indicator of full trees (no vertex with exactly one child); the
    branches of that family are the single-vertex ones."""
    return WeightedTroupe("full", lambda b: Fraction(1 if len(b.nodes) == 1 else 0))


def motzkin_trees() -> WeightedTroupe:
    """Indicator of trees where a right child implies a left child; its
    branches are those with no right edges."""
    return WeightedTroupe("motzkin", lambda b: Fraction(1 if right_edges(b) == 0 else 0))


def color_constrained(allowed: Iterable[int]) -> WeightedTroupe:
    """Indicator of trees whose left-child-bearing vertices and box all carry
    a color from ``allowed``."""
    colors = frozenset(allowed)

    def weight(b: ColoredTree) -> RingElem:
        if b.box_color not in colors:
            return Fraction(0)
        for color, left, _ in b.nodes:
            if left is not None and color not in colors:
                return Fraction(0)
        return Fraction(1)

    return WeightedTroupe(f"colorset:{sorted(colors)}", weight)


def right_two_monomial(t1: RingElem, t2: RingElem) -> WeightedTroupe:
    """Weight ``t1^(right(T)+1) * t2^(two(T)+1)``; branches have two(T)=0."""
    t1 = as_ring_elem(t1)
    t2 = as_ring_elem(t2)

    def weight(b: ColoredTree) -> RingElem:
        return t1 ** (right_edges(b) + 1) * t2

    return WeightedTroupe("rightmono", weight)


def color_count(counted: Iterable[int]) -> WeightedTroupe:
    """Weight ``q^k`` where k counts vertices (and the box) colored from
    ``counted``, over the all-trees troupe."""
    colors = frozenset(counted)

    def weight(b: ColoredTree) -> RingElem:
        k = sum(1 for color, _, _ in b.nodes if color in colors)
        if b.box_color in colors:
            k += 1
        return q ** k

    return WeightedTroupe(f"colorcount:{sorted(colors)}", weight)


def from_table(table: Mapping[str, RingElem], name: str = "table") -> WeightedTroupe:
    """Branch weights looked up by canonical encoding; a branch missing from
    the table weighs 0."""
    frozen = {k: as_ring_elem(v) for k, v in table.items()}
    zero = Fraction(0)
    return WeightedTroupe(name, lambda b: frozen.get(encode(b), zero))


def random_branch_table(seed: int, max_size: int, num_colors: int = 1) -> dict[str, RingElem]:
    """Deterministic random rational weights for every colored branch up to
    ``max_size``, numerators in -5..5 over denominators in 1..4; useful with
    :func:`from_table`."""
    rng = random.Random(seed)
    table: dict[str, RingElem] = {}
    for word in iter_words(range(num_colors), max_size + 1):
        for b in iter_branch_word(word):
            table[encode(b)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return table


def builtin(spec: str, num_colors: int) -> WeightedTroupe:
    """Resolve a CLI troupe name over the colors ``0..num_colors-1``.

    Accepted: ``all``, ``full``, ``motzkin`` (with no ``:`` part),
    ``colorset:J``, ``rightmono:t1,t2`` and ``colorcount:J`` where J is a
    list of colors in that range, read by :func:`~troupes.rings.parse_word`,
    and t1,t2 are rationals or the literal ``q``.
    """
    head, sep, arg = spec.partition(":")
    if sep and head in ("all", "full", "motzkin"):
        raise ValueError(f"troupe {head!r} takes no argument, got {spec!r}")
    if head == "all":
        return all_trees()
    if head == "full":
        return full_trees()
    if head == "motzkin":
        return motzkin_trees()
    if head in ("colorset", "colorcount"):
        try:
            colors = parse_word(arg)
        except ValueError as exc:
            raise ValueError(f"troupe {spec!r}: {exc}") from None
        outside = sorted({c for c in colors if c >= num_colors})
        if outside:  # the check would compare nothing the troupe names
            raise ValueError(f"troupe {spec!r} names colors {outside} outside "
                             f"0..{num_colors - 1} (--num-colors {num_colors})")
        return (color_constrained if head == "colorset" else color_count)(colors)
    if head == "rightmono":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ValueError("rightmono needs two parameters, e.g. rightmono:q,1")
        return right_two_monomial(parse_ring_elem(parts[0]), parse_ring_elem(parts[1]))
    raise ValueError(f"unknown troupe {spec!r}")


# ---------------------------------------------------------------------------
# Weighted sums over the families


def tree_sums(tau: WeightedTroupe, kind: str,
              words: Iterable[Sequence[int]]) -> dict[tuple[int, ...], RingElem]:
    """``{word: sum}`` over the family ``kind`` of each of the nonempty
    ``words``, in the order given.

    - ``bpt`` and ``branch`` go by recursion on the root (:func:`_root_sum`),
      which builds no tree, with one pair of memos for the whole call, so
      the words share the sums of their shorter subwords;
    - ``dbpt`` goes through :func:`iter_dbpt`, word by word: a labeled tree's
      value depends only on its colored tree, so each distinct colored tree
      is evaluated once and weighted by its number of decreasing labelings.
    """
    kind = kind.lower()
    if kind not in TREE_KINDS:
        raise ValueError(f"unknown tree family {kind!r}")
    if kind == "dbpt":
        sum_of = functools.partial(_dbpt_sum, tau)
    else:
        sum_of = functools.partial(_root_sum, tau, split=_cuts if kind == "bpt" else _no_split,
                                   tables={}, sums={})
    table = {}
    for word in map(tuple, words):
        if not word:
            raise ValueError("color word must be nonempty")
        table[word] = sum_of(word)
    return table


def _dbpt_sum(tau: WeightedTroupe, word: tuple[int, ...]) -> RingElem:
    """The decreasing-tree sum of one word, its :func:`iter_dbpt` memo
    dropped with the word: shared across words it would hold every colored
    tree of every shorter word.  The values are summed as integer numerators
    over the lcm of their denominators, then divided once."""
    terms = [(tau.evaluate(t), count) for t, count in iter_dbpt(word)]
    d = lcm(*[denominator(value) for value, _ in terms])
    return _over(sum([_scaled(value, d * count) for value, count in terms]), d)


# A tree's weight is the branch weight of its root factor (the box's factor)
# times the closed weights of the right subtrees of that factor's two-child
# vertices, each a whole tree whose box color is its parent's color.  So a
# family is summed by recursion on the root, through one table per vertex
# color word: ``{vertices: summed value}`` over the trees on that word,
# keyed by their open root factor's vertices, numbered from its bottom one
# (0) up as in a branch.  The families differ only in how a two-child root
# splits the other vertices between its subtrees, which a split function
# gives as ``(left, right)`` pairs, both color words nonempty; branches have
# no two-child vertex, so no split.


def _cuts(s: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The two-child splits of the plain trees whose postorder colors are
    ``s`` and root ``s[-1]``: a contiguous cut of ``s[:-1]``, each once."""
    for k in range(1, len(s) - 1):
        yield s[:k], s[k:-1]


def _no_split(s: tuple[int, ...]) -> tuple:
    """The split of a branch: none."""
    return ()


def _root_sum(tau: WeightedTroupe, word: tuple[int, ...], split: Callable,
              tables: dict, sums: dict) -> RingElem:
    """The sum over the family of the nonempty color ``word``: vertex colors
    ``word[:-1]``, in the order ``split`` reads them (postorder for
    :func:`_cuts` and for branches), and box color ``word[-1]``.

    It reads only branch weights and the sums of shorter words; both memos,
    ``sums`` by word and ``tables`` by vertex color word, belong to the
    caller.
    """
    total = sums.get(word)
    if total is None:
        total = Fraction(0)
        if len(word) > 1:
            box = word[-1]
            weight = tau._weight
            for nodes, value in _open_table(tau, word[:-1], split, tables, sums).items():
                total = total + value * weight(box, nodes)
        sums[word] = total
    return total


def _open_table(tau: WeightedTroupe, s: tuple[int, ...], split: Callable,
                tables: dict, sums: dict) -> dict:
    """``{open root factor's vertices: summed value}`` over the trees on the
    nonempty vertex color word ``s``, whose root has color ``s[-1]``."""
    table = tables.get(s)
    if table is not None:
        return table
    root = s[-1]
    if len(s) == 1:
        table = {((root, None, None),): 1}
    else:
        # a one-child root heads the open factor, over all other vertices:
        # it takes the next id, over the factor's top vertex on either side
        below = _open_table(tau, s[:-1], split, tables, sums)
        table = {nodes + ((root, len(nodes) - 1, None),): value for nodes, value in below.items()}
        table.update({nodes + ((root, None, len(nodes) - 1),): value
                      for nodes, value in below.items()})
        # a two-child root passes the open factor to its left subtree and
        # closes its right one, whose box takes the root's color
        for left, right in split(s):
            closed = _root_sum(tau, right + (root,), split, tables, sums)
            for key, value in _open_table(tau, left, split, tables, sums).items():
                table[key] = table.get(key, 0) + value * closed
    tables[s] = table
    return table

