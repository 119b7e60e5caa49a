"""Bijective expansions of trees into (partition, branches) and
(permutation, branches) pairs, one branch per block:

* ``phi``: a permutation with first entry n and no singleton descending run,
  plus a colored branch per run, maps to a decreasing labeled colored tree of
  size n-1 whose insertion-factor multiset is exactly the given branches.
* ``psi``: an irreducible noncrossing partition of 1..n with all blocks of
  size >= 2, plus a colored branch per block, maps to a colored tree of size
  n-1 with the same property: ``phi`` on the tree labeled by postorder
  position, whose descending runs are the blocks.

Each branch is read straight off its run as σ holds it, or off its block
from the maximum down: the maximum is the box, and the rest label the
branch's vertices from the root down.  Branches are stored as plain
:class:`~troupes.trees.ColoredTree` branches, node ids from the bottom up.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

from .partitions import (
    SetPartition,
    _runs,
    is_irreducible,
    iter_D,
    iter_partitions,
)
from .trees import (
    ColoredTree,
    LabeledTree,
    _decreasing_tree,
    _new,
    _write_branch,
    encode,
    iter_branch_word,
    postorder,
)


class PsiInput(NamedTuple):
    """A partition paired with one branch per block (aligned with
    ``partition.blocks``)."""

    partition: SetPartition
    branches: tuple[ColoredTree, ...]

    def key(self):
        """Canonical fingerprint used for equality in tests."""
        return self.partition.blocks, tuple(map(encode, self.branches))

    def validate(self) -> tuple[list[int], set[int]]:
        """Check the input; read each block's branch from its maximum down (:func:`_read_runs`)."""
        p = self.partition
        if p.n < 2:
            raise ValueError("psi needs n >= 2")
        if not is_irreducible(p):
            raise ValueError("partition must be noncrossing and irreducible")
        if any(len(b) < 2 for b in p.blocks):
            raise ValueError("all blocks must have size >= 2")
        return _read_runs(p.n, [block[::-1] for block in p.blocks], self.branches, "block")


class PhiInput(NamedTuple):
    """A permutation (first entry maximal, no singleton run) paired with one
    branch per descending run, the runs ordered by minimum."""

    sigma: tuple[int, ...]
    branches: tuple[ColoredTree, ...]

    def key(self):
        return self.sigma, tuple(map(encode, self.branches))

    def validate(self) -> tuple[list[int], set[int]]:
        """Check the permutation and its runs, and read the runs' branches
        (:func:`_read_runs`)."""
        sigma = self.sigma
        n = len(sigma)
        if n == 0 or sigma[0] != n:
            raise ValueError("permutation must start with its maximum")
        if not set(sigma).issuperset(range(1, n + 1)):  # n entries that hold 1..n are 1..n
            raise ValueError(f"not a permutation of 1..{n}")
        runs = _runs(sigma)
        if min(map(len, runs)) < 2:
            raise ValueError("all descending runs must have size >= 2")
        return _read_runs(n, runs, self.branches, "run")


def _read_runs(n: int, runs, branches, what: str) -> tuple[list[int], set[int]]:
    """Read each branch straight off its run, a run read from its maximum
    down: the box onto ``run[0]``, the vertices from the root down onto
    ``run[1:]``.  Returns the color word (``word[k]`` the color of label k)
    and the set of labels whose child hangs on the left.

    The walk down a branch is its check: it raises ``ValueError`` unless the
    branch has ``len(run) - 1`` vertices, passes ``len(run) - 2`` one-child
    vertices and ends at a leaf, so it met every vertex once.  A negative
    id, which indexing would wrap, counts as out of range.
    """
    if len(branches) != len(runs):
        raise ValueError(f"one branch per {what} required")
    word = [0] * (n + 1)
    left_steps: set[int] = set()
    for run, (nodes, v, box) in zip(runs, branches):
        if len(nodes) != len(run) - 1:
            raise ValueError(f"expected a branch on {len(run) - 1} vertices, got {len(nodes)}")
        word[run[0]] = box
        try:
            for label in run[1:-1]:
                if v < 0:
                    raise IndexError(v)
                color, left, right = nodes[v]
                word[label] = color
                if right is None and left is not None:
                    left_steps.add(label)
                    v = left
                elif left is None and right is not None:
                    v = right
                else:
                    raise ValueError("expected a branch")
            if v < 0:
                raise IndexError(v)
            color, left, right = nodes[v]
        except (IndexError, TypeError):
            raise ValueError("expected a branch: a child index is out of range") from None
        if left is not None or right is not None:
            raise ValueError("expected a branch")
        word[run[-1]] = color
    return word, left_steps


# ---------------------------------------------------------------------------
# psi: partitions with branches  <->  colored trees


def _psi_sigma(p: SetPartition) -> list[int]:
    """σ_p: n, then the vertices 1..n-1 as :func:`phi_inverse` reads
    :func:`psi`'s tree, from n-1.  A block minimum is a leaf, read alone; an
    interior element j is read, then j-1; a block maximum j < n waits on a
    stack for the subtree at min-1, then is read, then the subtree at j-1."""
    n = p.n
    low = [0] * n  # low[j]: the block minimum, at a block maximum j < n
    leaf = [False] * n
    for block in p.blocks:
        leaf[block[0]] = True
        if block[-1] < n:
            low[block[-1]] = block[0]
    sigma = [n]
    waiting: list[int] = []
    j = n - 1
    while True:
        if low[j]:
            waiting.append(j)
            j = low[j] - 1
            continue
        sigma.append(j)
        if leaf[j]:
            if not waiting:
                return sigma
            j = waiting.pop()
            sigma.append(j)
        j -= 1


def psi(inp: PsiInput) -> ColoredTree:
    """The plain tree whose factors are the input branches: the tree of
    :func:`phi` on σ_p (:func:`_psi_sigma`).  Block minima are leaves, an
    interior element j has j-1 as its one child, on its branch's side, and a
    block maximum j < n has left child min(U)-1 and right child j-1.  Node
    ids are postorder positions, so vertex j is node id j-1."""
    word, left_steps = inp.validate()
    return _decreasing_tree(_psi_sigma(inp.partition)[1:], word, word[-1], left_steps).tree


def psi_inverse(t: ColoredTree) -> PsiInput:
    """Read the partition and branch factors back off a tree:
    :func:`phi_inverse` of the tree labeled by postorder position, whose
    descending runs, reversed, are the blocks."""
    m = len(t.nodes)
    if m == 0:
        raise ValueError("psi_inverse needs a nonempty tree")
    labels = [0] * m
    for k, v in enumerate(postorder(t), start=1):
        labels[v] = k
    _, runs, branches = _read_tree(_new(LabeledTree, (t, tuple(labels))))
    blocks = tuple([run[::-1] for run in runs])
    return _new(PsiInput, (_new(SetPartition, (m + 1, blocks)), branches))


def _iter_inputs(record: type, word: Sequence[int], skeletons) -> Iterator:
    """``record(skeleton, branches)`` for each ``(skeleton, runs)`` pair in
    ``skeletons``, runs read from the maximum down, with every choice of one
    branch per run: a branch whose word is the run's colors from its minimum
    up.  Each word's branches are listed once, shared by its runs."""
    branches: dict[tuple[int, ...], list[ColoredTree]] = {}  # by run colors
    color = (0, *word).__getitem__  # color(u): the color of element u
    for skeleton, runs in skeletons:
        choices = []
        for run in runs:
            colors = tuple(map(color, run))
            if colors not in branches:
                branches[colors] = list(iter_branch_word(colors[::-1]))
            choices.append(branches[colors])
        for combo in itertools.product(*choices):
            yield _new(record, (skeleton, combo))


def iter_psi_inputs(word: Sequence[int]) -> Iterator[PsiInput]:
    """Every valid input for the given color word, deterministically: the
    partitions in order, each with every choice of one branch per block."""
    yield from _iter_inputs(PsiInput, word, ((p, [b[::-1] for b in p.blocks]) for p in
                                             iter_partitions(len(word), "nc_irreducible_min2")))


# ---------------------------------------------------------------------------
# phi: permutations with branches  <->  decreasing labeled trees


def phi(inp: PhiInput) -> LabeledTree:
    """The decreasing tree whose factors are the input branches.

    The intermediate tree drops the leading n, inverts the inorder bijection
    and colors by labels; no run is a singleton, so in it every vertex with
    a left child also has a right child.  ``phi`` is that tree with the
    single child moved to the left at every branch vertex whose step is
    ``L``.  :meth:`PhiInput.validate` checks the input and reads the colors
    and those labels in one pass over the branches; one stack pass then
    builds the tree with those vertices' child slots exchanged, so node ids
    are postorder ids of the intermediate tree.
    """
    word, left_steps = inp.validate()
    return _decreasing_tree(inp.sigma[1:], word, word[-1], left_steps)


def phi_inverse(lt: LabeledTree) -> PhiInput:
    """Recover the permutation and run branches from a decreasing tree.

    One walk from the root reads the permutation and checks the input: n
    followed by the inorder reading of the tree in which every left-only
    child counts as a right child (the inverse of :func:`phi`'s exchange).
    Every edge it follows must stay in range and lower the label, so it
    ends; every vertex it enters must carry a new label in 1..n-1, so no
    vertex is entered twice, and it must enter all of them.  Each run then
    builds its branch from the vertices its labels name, with the same
    colors and child sides (:func:`_read_tree`).
    """
    sigma, _, branches = _read_tree(lt)
    return _new(PhiInput, (sigma, branches))


def _read_tree(lt: LabeledTree) -> tuple[tuple[int, ...], list, tuple[ColoredTree, ...]]:
    """:func:`phi_inverse`'s permutation, its runs (:func:`_runs`) and branches."""
    t = lt.tree
    nodes, labels = t.nodes, lt.labels
    m = len(nodes)
    if m == 0:
        raise ValueError("phi_inverse needs a nonempty tree")
    n = m + 1
    if len(labels) != m:
        raise ValueError(f"labels must be a bijection onto 1..{m}")
    v = t.root
    if v is None or not 0 <= v < m:
        raise ValueError("the root must be a vertex")
    vertex = [-1] * n  # vertex[k] is the vertex labeled k
    reading = [n]
    pending: list[int] = []
    while True:
        while v is not None:
            _, left, right = nodes[v]
            label = labels[v]
            if not 0 < label < n or vertex[label] >= 0:
                raise ValueError(f"labels must be a bijection onto 1..{m}")
            vertex[label] = v
            if (left is not None and not (0 <= left < m and labels[left] < label)
                    or right is not None and not (0 <= right < m and labels[right] < label)):
                raise ValueError(f"a child of vertex {v} is out of range "
                                 "or not below it in the labeling")
            if right is None:  # a leaf, or a left-only child read as right
                reading.append(label)
            else:
                pending.append(v)
            v = left
        if not pending:
            break
        v = pending.pop()
        reading.append(labels[v])
        v = nodes[v][2]
    if len(reading) != n:
        raise ValueError("unreachable vertices present")
    # the labels were checked to be a bijection onto 1..n-1, so this is a
    # permutation of 1..n and its runs need no further check
    sigma = tuple(reading)

    # A run ends where the reading ascends, only after a leaf: every other
    # vertex is read just before a subtree below it.  So a run's minimum labels
    # a leaf, and its branch is written bottom-up on its labels' vertices.
    runs = _runs(sigma)
    branches = []
    at = vertex.__getitem__
    for run in runs:
        box = t.box_color if run[0] == n else nodes[vertex[run[0]]][0]
        branches.append(_write_branch(nodes, map(at, run[:0:-1]), box))
    return sigma, runs, tuple(branches)


def iter_phi_inputs(word: Sequence[int]) -> Iterator[PhiInput]:
    """Every valid input for the given color word, deterministically: the
    permutations of :func:`~troupes.partitions.iter_D` in order, each with
    every choice of one branch per run."""
    yield from _iter_inputs(PhiInput, word, ((sigma, _runs(sigma)) for sigma in iter_D(len(word))))
