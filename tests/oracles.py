"""Brute-force routes kept as test oracles.

The swing of a single child, and the two-step bijection phi built on it:
phi as the intermediate tree followed by one swing per left step, and its
inverse as one swing per left-only vertex followed by the inorder reading.
Also the branch built from its root-down sides and colors, the branch
profile that reads them back, and the insertion factors built from the
profiles of a factor walk that recurses on owners.
Also the recursive max-split build of a decreasing tree, memoized by its
permutation for the swing route, and a labeled tree colored by its labels.
Also the permutations with first entry n and their descending runs, read by
counting the ascents before each position, also normalised through
``SetPartition.of`` and counted by run partition on block masks,
``SetPartition.of`` by sets, psi by iterated insertion, the Narayana
polynomial and the tree series by enumeration, the plain trees of a color
word built shape by shape, the decreasing-tree sum over the labeled trees
with one product of branch weights per multiset of insertion factors, and by
one ring addition per colored tree of ``iter_dbpt``, one tree's value as
``Fraction(1)`` times its factors' branch weights, the tree predicates only
tests use, the single-word equivalence report, the tree walks as
self-recursive closures, the standard traversal labelings, the descent set
of a permutation, and the plot regions by a scan over every peak.
Also the polynomial ring with one ``Fraction`` per coefficient, truncated
series as plain lists of ring elements, the irreducible noncrossing
partitions without singletons by filtering, and a frozen-dataclass twin of
each ``NamedTuple`` record.
"""

import dataclasses
import itertools
from fractions import Fraction
from functools import lru_cache

from troupes.bijections import PhiInput, PsiInput
from troupes.cumulants import EquivalenceReport, equivalence_reports
from troupes.partitions import SetPartition, iter_partitions
from troupes.peaks import peaks
from troupes.rings import QPoly, as_ring_elem
from troupes.trees import (
    BOX,
    ColoredTree,
    LabeledTree,
    alpha,
    encode,
    inorder,
    insert,
    insertion_factors,
    iter_bpt_word,
    iter_branch_word,
    iter_dbpt,
    iter_dbpt_word,
    postorder,
    right_edges,
    size_word,
)
from troupes.series import Series
from troupes.troupe import WeightedTroupe


def swing(t: ColoredTree, *vs: int) -> ColoredTree:
    """Flip the single child of each vertex of ``vs`` in turn to the other
    side; each flip is an involution."""
    nodes = list(t.nodes)
    for v in vs:
        color, left, right = nodes[v]
        if (left is None) == (right is None):
            raise ValueError("swing needs a vertex with exactly one child")
        nodes[v] = (color, right, left)
    return ColoredTree(tuple(nodes), t.root, t.box_color)


def swing_labeled(lt: LabeledTree, *vs: int) -> LabeledTree:
    return LabeledTree(swing(lt.tree, *vs), lt.labels)


def branch_from_directions(directions, colors_root_down=None, box_color: int = 0) -> ColoredTree:
    """Build a branch from root-down direction choices (``L`` or ``R``).

    ``colors_root_down[i]`` colors the vertex at depth ``i``.  Node ids run
    from the bottom vertex (0) up to the root.
    """
    n = len(directions) + 1
    nodes: list[tuple] = []
    below = None
    for depth in range(n - 1, -1, -1):
        color = colors_root_down[depth] if colors_root_down is not None else 0
        if below is None:
            nodes.append((color, None, None))
        elif directions[depth] == "L":
            nodes.append((color, below, None))
        elif directions[depth] == "R":
            nodes.append((color, None, below))
        else:
            raise ValueError(f"bad direction {directions[depth]!r}")
        below = len(nodes) - 1
    return ColoredTree(tuple(nodes), below, box_color)


def branch_profile(b: ColoredTree) -> tuple[list[str], list[int], int]:
    """Root-down direction word, root-down colors, and box color of a branch;
    the inverse of ``branch_from_directions``.  ``ValueError`` unless the
    walk from the root ends at a leaf after exactly ``len(b.nodes)``
    vertices, none with two children."""
    nodes = b.nodes
    dirs: list[str] = []
    colors: list[int] = []
    v = b.root
    if v is not None:
        for _ in range(len(nodes)):
            color, left, right = nodes[v]
            colors.append(color)
            if left is None:
                if right is None:
                    if len(colors) == len(nodes):
                        return dirs, colors, b.box_color
                    break
                dirs.append("R")
                v = right
            elif right is None:
                dirs.append("L")
                v = left
            else:
                break
    raise ValueError("expected a branch")


def factor_profiles(t: ColoredTree) -> list[tuple[int, list[int], list[str]]]:
    """``(owner, root-down vertices, root-down sides)`` of each insertion
    factor: a factor runs from its owner's right child (the box's from the
    root) down through one-child vertices, passing each two-child vertex to
    its left child; that vertex's own factor follows, by recursion, in the
    reverse of the order met.  The box's factor comes first."""
    out = []

    def factor(owner, v):
        vertices, sides, owned = [], [], []
        while v is not None:
            _, left, right = t.nodes[v]
            if left is not None and right is not None:
                owned.append((v, right))
                v = left
                continue
            vertices.append(v)
            if left is not None:
                sides.append("L")
            elif right is not None:
                sides.append("R")
            v = left if left is not None else right
        out.append((owner, vertices, sides))
        for owner, v in reversed(owned):
            factor(owner, v)

    factor(BOX, t.root)
    return out


def insertion_factors_by_profiles(t: ColoredTree) -> list[ColoredTree]:
    """Each factor of :func:`factor_profiles` built by
    ``branch_from_directions`` from its sides and colors."""
    nodes = t.nodes
    return [branch_from_directions(sides, [nodes[u][0] for u in vertices],
                                   t.box_color if owner == BOX else nodes[owner][0])
            for owner, vertices, sides in factor_profiles(t)]


def labeled_insertion_factors_by_profiles(lt: LabeledTree) -> list[LabeledTree]:
    """:func:`insertion_factors_by_profiles` with each factor's labels, from
    the bottom vertex up."""
    paths = factor_profiles(lt.tree)
    return [LabeledTree(b, tuple(lt.labels[u] for u in reversed(vertices)))
            for b, (_, vertices, _) in zip(insertion_factors_by_profiles(lt.tree), paths)]


def phi_tilde(inp: PhiInput) -> LabeledTree:
    """The intermediate tree of phi: drop the leading n, invert the inorder
    bijection, and color by labels, each run's labels taking its branch's
    profile colors from the root down and its maximum the box color.

    Because no run is a singleton, every vertex with a left child also has a
    right child (a reverse Motzkin tree).  The input is checked here, through
    :func:`druns` and :func:`branch_profile`, not by ``PhiInput.validate``,
    whose run reader ``phi`` shares, and the tree is built by the max-split
    recursion, not by the stack pass ``phi`` runs.
    """
    n = len(inp.sigma)
    blocks = druns(inp.sigma).blocks
    if inp.sigma[0] != n or min(map(len, blocks)) < 2 or len(blocks) != len(inp.branches):
        raise ValueError("expected n first, no one-entry run and one branch per run")
    word = [0] * (n + 1)
    for block, br in zip(blocks, inp.branches):
        _, colors, box = branch_profile(br)
        if len(colors) != len(block) - 1:
            raise ValueError(f"expected a branch on {len(block) - 1} vertices")
        word[block[-1]] = box
        for label, color in zip(block[-2::-1], colors):
            word[label] = color
    return color_by_labels(_max_split_tree(inp.sigma), word[1:n], word[n])


def phi_via_swings(inp: PhiInput) -> LabeledTree:
    """Swing the intermediate tree at every branch vertex whose step is L."""
    lt = phi_tilde(inp)
    vertex = {label: v for v, label in enumerate(lt.labels)}
    swung = []
    for block, br in zip(druns(inp.sigma).blocks, inp.branches):
        dirs, _, _ = branch_profile(br)
        swung += [vertex[label] for label, side in zip(block[-2::-1], dirs) if side == "L"]
    return swing_labeled(lt, *swung)


def phi_inverse_via_swings(lt: LabeledTree) -> PhiInput:
    """Swing every left-only vertex, read the result in inorder after n, and
    rebuild each run's branch with child sides copied from ``lt``."""
    n = lt.size + 1
    tilde = swing_labeled(lt, *[v for v, (_, left, right) in enumerate(lt.tree.nodes)
                                if left is not None and right is None])
    sigma = (n,) + alpha(tilde)
    node = {label: lt.tree.nodes[v] for v, label in enumerate(lt.labels)}
    branches = []
    for block in druns(sigma).blocks:
        labels_desc = list(reversed(block[:-1]))
        dirs = []
        for lab in labels_desc[:-1]:
            _, left, _ = node[lab]
            dirs.append("L" if left is not None else "R")
        colors = [node[lab][0] for lab in labels_desc]
        mx = block[-1]
        box = lt.tree.box_color if mx == n else node[mx][0]
        branches.append(branch_from_directions(dirs, colors, box))
    return PhiInput(sigma, tuple(branches))


def alpha_inverse_by_max_split(word) -> LabeledTree:
    """The recursive build: the maximum is the root, and the prefix and the
    suffix around it build the left and right subtrees.  Node ids come out
    in postorder; every vertex and the box have color 0."""
    nodes: list[tuple] = []
    labels: list[int] = []

    def build(lo: int, hi: int):
        if lo > hi:
            return None
        m = max(range(lo, hi + 1), key=lambda i: word[i])
        left = build(lo, m - 1)
        right = build(m + 1, hi)
        nodes.append((0, left, right))
        labels.append(word[m])
        return len(nodes) - 1

    root = build(0, len(word) - 1)
    return LabeledTree(ColoredTree(tuple(nodes), root, 0), tuple(labels))


@lru_cache(maxsize=None)
def _max_split_tree(sigma: tuple[int, ...]) -> LabeledTree:
    """:func:`alpha_inverse_by_max_split` of ``sigma`` after its first entry,
    memoized: each sigma recurs for every color word of its length."""
    return alpha_inverse_by_max_split(sigma[1:])


def color_by_labels(lt: LabeledTree, colors, box_color: int = 0) -> LabeledTree:
    """``lt`` with ``colors[k-1]`` on the vertex labeled ``k`` and box color
    ``box_color``."""
    nodes = tuple([(colors[label - 1], left, right)
                   for (_, left, right), label in zip(lt.tree.nodes, lt.labels)])
    return LabeledTree(ColoredTree(nodes, lt.tree.root, box_color), lt.labels)


def iter_sigma_first_n(n: int):
    """Permutations of 1..n with first entry n, lexicographic in the rest."""
    for rest in itertools.permutations(range(1, n)):
        yield (n,) + rest


def runs_by_ascent_count(sigma) -> list[tuple[int, ...]]:
    """The maximal descending runs of ``sigma`` as they stand in it, ordered
    by minimum: the entry at position i lies in run number k, k the number
    of ascents among positions 0..i, each counted afresh."""
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(sigma):
        k = sum(1 for j in range(1, i + 1) if sigma[j - 1] < sigma[j])
        groups.setdefault(k, []).append(x)
    return sorted((tuple(g) for g in groups.values()), key=min)


def druns(sigma) -> SetPartition:
    """Partition of values into maximal consecutive decreasing runs."""
    return _druns(tuple(sigma))


@lru_cache(maxsize=None)
def _druns(sigma: tuple[int, ...]) -> SetPartition:
    """:func:`druns`, memoized: each sigma recurs for every color word of its
    length."""
    n = len(sigma)
    if n == 0:
        raise ValueError("empty permutation")
    if set(sigma) != set(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}")
    blocks = sorted(tuple(sorted(run)) for run in runs_by_ascent_count(sigma))
    return SetPartition(n, tuple(blocks))


@lru_cache(maxsize=None)
def run_partition_counts(n: int) -> dict[tuple[int, ...], int]:
    """Each descending-run partition of the permutations of 0..n-1 with
    first entry maximal, as a tuple of block masks (bit i is value i), with
    the number of those permutations that have it.

    Such a permutation is one of size n-1, its values shifted up by 1, with
    0 put right after some entry a, ending a's run.  If a is its block's
    minimum, 0 joins that block; otherwise the block splits into
    {x >= a} + {0} and {x < a}.  The block of 0 goes first and the rest keep
    their places, so each key lists its blocks by least bit.
    """
    if n == 1:
        return {(1,): 1}
    counts: dict[tuple[int, ...], int] = {}
    for key, count in run_partition_counts(n - 1).items():
        blocks = tuple([b << 1 for b in key])
        for j, b in enumerate(blocks):
            head, tail = blocks[:j], blocks[j + 1:]
            lower, upper = 0, b
            while upper:  # a is the least bit of upper
                new = (upper | 1,) + head + ((lower,) if lower else ()) + tail
                counts[new] = counts.get(new, 0) + count
                a = upper & -upper
                lower, upper = lower | a, upper ^ a
    return counts


def set_partition_of_by_sets(n: int, blocks) -> SetPartition:
    """Normalize and validate blocks covering 1..n: each block sorted, the
    blocks ordered by minimum, and coverage checked by a set and a count."""
    materialized = [tuple(sorted(b)) for b in blocks]
    if any(not b for b in materialized):
        raise ValueError("blocks must be nonempty")
    canon = tuple(sorted(materialized, key=lambda b: b[0]))
    seen: set[int] = set()
    for b in canon:
        seen.update(b)
    if seen != set(range(1, n + 1)) or sum(len(b) for b in canon) != n:
        raise ValueError(f"blocks do not partition 1..{n}")
    return SetPartition(n, canon)


def druns_by_normalisation(sigma) -> SetPartition:
    """Split into maximal decreasing runs, then normalise the blocks."""
    blocks = [[sigma[0]]]
    for prev, cur in zip(sigma, sigma[1:]):
        if prev > cur:
            blocks[-1].append(cur)
        else:
            blocks.append([cur])
    return SetPartition.of(len(sigma), blocks)


def _branch_label_map(br: ColoredTree, block: tuple[int, ...]) -> dict[int, int]:
    """Map block labels (decreasing from the root) to branch node ids."""
    labels_desc = list(reversed(block[:-1]))
    out: dict[int, int] = {}
    v = br.root
    for lab in labels_desc:
        out[lab] = v
        _, left, right = br.nodes[v]
        v = left if left is not None else right
    return out


def psi_via_insertions(inp: PsiInput) -> tuple[ColoredTree, dict[int, int]]:
    """The map psi computed by iterated insertion, blocks by minimum.

    Returns the tree plus the map from vertex names 1..n-1 to node ids.  The
    first block's branch seeds the tree; each later branch is inserted at the
    vertex named ``min(U)-1``, and the vertex created by that insertion is
    named ``max(U)``.
    """
    inp.validate()
    blocks = inp.partition.blocks
    n = inp.partition.n
    if blocks[0][-1] != n:
        raise AssertionError("irreducible partition must tie 1 to n")
    first = inp.branches[0]
    names = dict(_branch_label_map(first, blocks[0]))
    tree = first
    for block, br in zip(blocks[1:], inp.branches[1:]):
        v = names[block[0] - 1]
        offset = tree.size + 1
        tree = insert(tree, v, br)
        names[block[-1]] = offset - 1  # the vertex created by the insertion
        for lab, bid in _branch_label_map(br, block).items():
            names[lab] = bid + offset
    return tree, names


@lru_cache(maxsize=None)
def narayana_polynomial(n: int) -> QPoly:
    """Right-edge-generating polynomial of size-n trees, by brute-force
    enumeration."""
    if n < 1:
        raise ValueError("n must be positive")
    counts = [0] * n
    for t in iter_bpt_word(size_word(n)):
        counts[right_edges(t)] += 1
    return QPoly(counts)


def regions_by_peak_scan(word) -> list[list[tuple[int, int]]]:
    """The plot regions of ``peaks._regions`` as ``(position, value)``
    points: each point goes to the latest peak at or before it that is at
    least as high, found by scanning every peak from the last (leftover
    region 0 when there is none)."""
    ps = peaks(word)
    regions: list[list[tuple[int, int]]] = [[] for _ in range(len(ps) + 1)]
    for i, value in enumerate(word, start=1):
        owner = 0
        for j in range(len(ps), 0, -1):
            p = ps[j - 1]
            if i >= p and value <= word[p - 1]:
                owner = j
                break
        regions[owner].append((i, value))
    return regions


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple:
    """Every tree shape of size n as nested ``(left, right)`` tuples: left
    sizes ascend, then left shapes vary, then right shapes."""
    if n == 0:
        return (None,)
    return tuple((left, right) for k in range(n)
                 for left in _shapes(k) for right in _shapes(n - 1 - k))


def bpt_by_shapes(word) -> list[ColoredTree]:
    """The plain trees of a color word, built shape by shape from
    :func:`_shapes`: each vertex takes the next color of ``word[:-1]`` in
    postorder, which is also the order of the node ids."""
    def build(shape, colors, nodes):
        if shape is None:
            return None
        left = build(shape[0], colors, nodes)
        right = build(shape[1], colors, nodes)
        nodes.append((next(colors), left, right))
        return len(nodes) - 1

    trees = []
    for shape in _shapes(len(word) - 1):
        nodes = []
        root = build(shape, iter(word[:-1]), nodes)
        trees.append(ColoredTree(tuple(nodes), root, word[-1]))
    return trees


def tree_series(tau: WeightedTroupe, order: int) -> Series:
    """Generating function of tree sums, by direct enumeration."""
    coeffs = [Fraction(0)]
    for n in range(1, order):
        coeffs += bpt_sums_by_trees([tau], size_word(n))
    return Series(coeffs)


def bpt_sums_by_trees(taus, word) -> list:
    """Each troupe summed over the plain trees of a word, evaluating every
    one of them."""
    totals = [Fraction(0)] * len(taus)
    for t in iter_bpt_word(word):
        for i, tau in enumerate(taus):
            totals[i] = totals[i] + tau.evaluate(t)
    return totals


def branch_sums_by_trees(taus, word) -> list:
    """Each troupe summed over the branches of a word, evaluating every one
    of them."""
    totals = [Fraction(0)] * len(taus)
    for t in iter_branch_word(word):
        for i, tau in enumerate(taus):
            totals[i] = totals[i] + tau.evaluate(t)
    return totals


def dbpt_sums_by_labeled_trees(taus, word) -> list:
    """Each troupe summed over the decreasing trees of a word.  The (n-1)!
    labeled trees are grouped by their colored tree's :func:`encode`.  A
    tree's value is the product of its insertion factors' weights, so those
    trees are grouped again by their multiset of factors, and each troupe
    weighs one product per group, times the group's number of labeled trees."""
    trees: dict[str, list] = {}
    for lt in iter_dbpt_word(word):
        group = trees.setdefault(encode(lt.tree), [lt.tree, 0])
        group[1] += 1
    bags: dict[tuple[int, ...], int] = {}
    index: dict[ColoredTree, int] = {}  # each factor met, numbered in order
    for t, count in trees.values():
        if t.nodes:  # the empty tree has value 0
            bag = tuple(sorted(index.setdefault(b, len(index)) for b in insertion_factors(t)))
            bags[bag] = bags.get(bag, 0) + count
    totals = []
    for tau in taus:
        weight = [as_ring_elem(tau.branch_weight(b)) for b in index]
        total = Fraction(0)
        for bag, count in bags.items():
            value = weight[bag[0]]
            for k in bag[1:]:
                value = value * weight[k]
            total = total + value * count
        totals.append(total)
    return totals


def dbpt_sum_by_ring_additions(tau: WeightedTroupe, word):
    """The decreasing-tree sum of one word, as ``troupe`` summed it before it
    went to integer numerators: one ring multiplication and addition per
    colored tree, starting from ``Fraction(0)``."""
    total = Fraction(0)
    for t, count in iter_dbpt(word):
        total = total + tau.evaluate(t) * count
    return total


def is_branch(t: ColoredTree) -> bool:
    if not t.nodes:
        return False
    return all(left is None or right is None for _, left, right in t.nodes)


def is_full(t: ColoredTree) -> bool:
    if t.size == 0:
        return False
    return all((left is None) == (right is None) for _, left, right in t.nodes)


def is_motzkin(t: ColoredTree) -> bool:
    """Every vertex with a right child also has a left child."""
    if t.size == 0:
        return False
    return all(right is None or left is not None for _, left, right in t.nodes)


def two_child_count(t: ColoredTree) -> int:
    return sum(1 for _, left, right in t.nodes if left is not None and right is not None)


def evaluate_from_one(tau: WeightedTroupe, t: ColoredTree):
    """``Fraction(1)`` times the branch weight of each insertion factor, the
    factors read off their profiles and weighed by the troupe's own rule."""
    value = Fraction(1)
    for b in insertion_factors_by_profiles(t):
        value = value * as_ring_elem(tau.branch_weight(b))
    return value


def equivalence_report(tau: WeightedTroupe, word) -> EquivalenceReport:
    """The report of one word, out of :func:`equivalence_reports` over its
    letters up to its length."""
    word = tuple(word)
    for r in equivalence_reports(tau, sorted(set(word)), len(word), len(word)).reports:
        if r.word == word:
            return r
    raise AssertionError("word not covered")


def encode_by_closure(t: ColoredTree) -> str:
    def enc(v):
        if v is None:
            return "."
        color, left, right = t.nodes[v]
        return f"({color} {enc(left)} {enc(right)})"

    return f"{t.box_color}:{enc(t.root)}"


def encode_labeled_by_closure(lt: LabeledTree) -> str:
    def enc(v):
        if v is None:
            return "."
        color, left, right = lt.tree.nodes[v]
        return f"({color}|{lt.labels[v]} {enc(left)} {enc(right)})"

    return f"{lt.tree.box_color}:{enc(lt.tree.root)}"


def inorder_by_closure(t: ColoredTree) -> list[int]:
    out: list[int] = []

    def walk(v):
        if v is None:
            return
        _, left, right = t.nodes[v]
        walk(left)
        out.append(v)
        walk(right)

    walk(t.root)
    return out


def postorder_by_closure(t: ColoredTree) -> list[int]:
    out: list[int] = []

    def walk(v):
        if v is None:
            return
        _, left, right = t.nodes[v]
        walk(left)
        walk(right)
        out.append(v)

    walk(t.root)
    return out


def nc_irreducible_min2_by_filter(n: int) -> list[SetPartition]:
    """Every irreducible noncrossing partition, less those with a singleton."""
    return [p for p in iter_partitions(n, "nc_irreducible")
            if all(len(b) >= 2 for b in p.blocks)]


class FractionQPoly:
    """Dense polynomial in ``q`` with one ``Fraction`` per coefficient,
    lowest degree first, no trailing zero."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return isinstance(other, FractionQPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else Fraction(0))
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return FractionQPoly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                             for i in range(n))

    def __neg__(self):
        return FractionQPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FractionQPoly(out)

    def __pow__(self, n: int):
        result = FractionQPoly((1,))
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c) -> "FractionQPoly":
        return FractionQPoly(x * c for x in self.coeffs)

    def inverse(self) -> "FractionQPoly":
        """Inverse of a nonzero constant."""
        assert len(self.coeffs) == 1
        return FractionQPoly((1 / self.coeffs[0],))

    def format(self) -> str:
        """Dense ``c0 + c1*q + c2*q^2`` text, ``0`` for the zero polynomial."""
        def frac(c):
            return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

        if not self.coeffs:
            return "0"
        return " + ".join(frac(c) if k == 0 else f"{frac(c)}*q" if k == 1
                          else f"{frac(c)}*q^{k}" for k, c in enumerate(self.coeffs))


def frozen_dataclass_twin(cls):
    """A frozen dataclass with the fields of the record class ``cls``, whose
    hashing, equality and repr the record must reproduce."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)


def descents(sigma) -> list[int]:
    """The positions ``i`` with ``sigma[i-1] > sigma[i]``."""
    return [i for i in range(1, len(sigma)) if sigma[i - 1] > sigma[i]]


def traversal_labeling(t: ColoredTree, kind: str) -> LabeledTree:
    """Standard labeling assigning 1..n in the requested traversal order.

    The postorder labeling is always decreasing (children precede parents in
    postorder), so the result of ``kind="postorder"`` is a valid LabeledTree;
    the inorder labeling generally is not decreasing and is returned unchecked.
    """
    if t.size == 0:
        raise ValueError("cannot label the empty tree")
    if kind == "inorder":
        order = inorder(t)
    elif kind == "postorder":
        order = postorder(t)
    else:
        raise ValueError(f"unknown traversal {kind!r}")
    labels = [0] * t.size
    for pos, v in enumerate(order, start=1):
        labels[v] = pos
    return LabeledTree(t, tuple(labels))


# Truncated power series as plain lists of ring elements (``Fraction`` or
# ``QPoly``), one element per coefficient, with no common denominator.


def list_mul(a: list, b: list) -> list:
    """The product of two series, truncated to the shorter one."""
    zero = a[0] * 0
    return [sum((a[i] * b[k - i] for i in range(k + 1)), zero)
            for k in range(min(len(a), len(b)))]


def list_compose(a: list, b: list) -> list:
    """``a(b(t))`` by Horner's rule, truncated to the shorter series;
    ``b[0]`` must be zero."""
    n = min(len(a), len(b))
    out = [a[0] * 0] * n
    for c in reversed(a[:n]):
        out = list_mul(out, b[:n])
        out[0] = out[0] + c
    return out


def list_lagrange_root(phi: list) -> list:
    """``W = t*phi(W)``, one term longer than ``phi``:
    ``[t^m] W = (1/m) [u^(m-1)] phi(u)^m``."""
    zero = phi[0] * 0
    power = [zero + 1] + [zero] * (len(phi) - 1)
    root = [zero]
    for m in range(1, len(phi) + 1):
        power = list_mul(power, phi)
        root.append(power[m - 1] * Fraction(1, m))
    return root


def list_troupe_transform(b: list) -> list:
    """``T = B(W)`` with ``W = t*(1 + W*B(W))``, which solves
    ``T(t) = B(t/(1 - t*T(t)))``; ``b[0]`` must be zero."""
    if len(b) == 1:
        return list(b)
    phi = [b[0] + 1] + b[:len(b) - 2]  # 1 + u*B(u), one term shorter than b
    return list_compose(b, list_lagrange_root(phi))


def list_inverse_troupe_transform(t: list) -> list:
    """``B = T(V)`` with ``V = t*(1 - V*T(V))``, which inverts ``W = t/(1 - t*T)``;
    ``t[0]`` must be zero."""
    if len(t) == 1:
        return list(t)
    psi = [t[0] + 1] + [-c for c in t[:len(t) - 2]]  # 1 - u*T(u)
    return list_compose(t, list_lagrange_root(psi))
