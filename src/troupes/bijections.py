"""Bijective expansions of trees into (partition, branches) and
(permutation, branches) pairs.

Both maps pair a combinatorial skeleton with one branch per block:

* ``phi``: a permutation with first entry n and no singleton descending run,
  plus a colored branch per run, maps to a decreasing labeled colored tree of
  size n-1 whose insertion-factor multiset is exactly the given branches.
* ``psi``: an irreducible noncrossing partition of 1..n with all blocks of
  size >= 2, plus a colored branch per block, maps to a colored tree of size
  n-1 with the same property: ``phi`` on the tree labeled by postorder
  position, whose descending runs are the blocks.

Branches attached to a block U are realized on the vertex set U minus its
maximum, labels decreasing from the root down; positionally they are stored
as plain :class:`~troupes.trees.ColoredTree` branches whose root corresponds
to the largest element of U minus max(U).
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

from .partitions import (
    SetPartition,
    _run_blocks,
    is_irreducible,
    iter_D,
    iter_partitions,
)
from .trees import (
    ColoredTree,
    LabeledTree,
    _decreasing_tree,
    _new,
    _read_branch,
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
        return self.partition.blocks, tuple([encode(b) for b in self.branches])

    def validate(self) -> None:
        self._read()

    def _read(self) -> tuple[list[int], set[int]]:
        """Check the input and read its blocks' branches (:func:`_read_blocks`)."""
        p = self.partition
        if p.n < 2:
            raise ValueError("psi needs n >= 2")
        if not is_irreducible(p):
            raise ValueError("partition must be noncrossing and irreducible")
        if any(len(b) < 2 for b in p.blocks):
            raise ValueError("all blocks must have size >= 2")
        return _read_blocks(p.n, p.blocks, self.branches, "block")


class PhiInput(NamedTuple):
    """A permutation (first entry maximal, no singleton run) paired with one
    branch per descending run, the runs as canonical blocks (reversed, so
    ascending, and ordered by minimum)."""

    sigma: tuple[int, ...]
    branches: tuple[ColoredTree, ...]

    def key(self):
        return self.sigma, tuple([encode(b) for b in self.branches])

    def validate(self) -> None:
        self._read()

    def _read(self) -> tuple[list[int], set[int]]:
        """Check the permutation and its runs, and read the runs' branches
        (:func:`_read_blocks`)."""
        sigma = self.sigma
        n = len(sigma)
        if n == 0 or sigma[0] != n:
            raise ValueError("permutation must start with its maximum")
        if set(sigma) != set(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}")
        blocks = _run_blocks(tuple(sigma))
        if any(len(b) < 2 for b in blocks):
            raise ValueError("all descending runs must have size >= 2")
        return _read_blocks(n, blocks, self.branches, "run")


def _read_blocks(n: int, blocks, branches, what: str) -> tuple[list[int], set[int]]:
    """Read each block's branch onto the block less its maximum, labels
    falling from the root down, in one pass over the branches' vertices.

    Returns the color word ``word`` (``word[k]`` the color of label k, 1-based,
    a block maximum taking its branch's box color) and the set of labels
    whose child hangs on the left.  Each branch must be a branch with one
    vertex fewer than its block (:func:`~troupes.trees._read_branch`).
    """
    if len(branches) != len(blocks):
        raise ValueError(f"one branch per {what} required")
    word = [0] * (n + 1)
    left_steps: set[int] = set()
    for block, br in zip(blocks, branches):
        _read_branch(br, block[-2::-1], word, left_steps)
        word[block[-1]] = br.box_color
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
    word, left_steps = inp._read()
    return _decreasing_tree(_psi_sigma(inp.partition)[1:], word[1:], word[-1], left_steps).tree


def psi_inverse(t: ColoredTree) -> PsiInput:
    """Read the partition and branch factors back off a tree:
    :func:`phi_inverse` of the tree labeled by postorder position, whose
    descending runs are the blocks."""
    m = len(t.nodes)
    if m == 0:
        raise ValueError("psi_inverse needs a nonempty tree")
    labels = [0] * m
    for k, v in enumerate(postorder(t), start=1):
        labels[v] = k
    x = phi_inverse(_new(LabeledTree, (t, tuple(labels))))
    return PsiInput(SetPartition.of(m + 1, _run_blocks(x.sigma)), x.branches)


def _iter_inputs(record: type, word: Sequence[int], skeletons) -> Iterator:
    """``record(skeleton, branches)`` for each ``(skeleton, blocks)`` pair in
    ``skeletons``, with every choice of one branch per block: a branch whose
    word is the block's color subword.  The branches of each subword are
    listed once and shared by every block that has it."""
    branches: dict[tuple[int, ...], list[ColoredTree]] = {}  # by block subword
    for skeleton, blocks in skeletons:
        choices = []
        for block in blocks:
            restricted = tuple([word[u - 1] for u in block])
            if restricted not in branches:
                branches[restricted] = list(iter_branch_word(restricted))
            choices.append(branches[restricted])
        for combo in itertools.product(*choices):
            yield _new(record, (skeleton, combo))


def iter_psi_inputs(word: Sequence[int]) -> Iterator[PsiInput]:
    """Every valid input for the given color word, deterministically: the
    partitions in order, each with every choice of one branch per block."""
    yield from _iter_inputs(PsiInput, word, ((p, p.blocks) for p in
                                             iter_partitions(len(word), "nc_irreducible_min2")))


# ---------------------------------------------------------------------------
# phi: permutations with branches  <->  decreasing labeled trees


def phi(inp: PhiInput) -> LabeledTree:
    """The decreasing tree whose factors are the input branches.

    The intermediate tree drops the leading n, inverts the inorder bijection
    and colors by labels; no run is a singleton, so in it every vertex with
    a left child also has a right child.  ``phi`` is that tree with the
    single child moved to the left at every branch vertex whose step is
    ``L``.  :meth:`PhiInput._read` checks the input and reads the colors and
    those labels in one pass over the branches; one stack pass then builds
    the tree with those vertices' child slots exchanged, so node ids are
    postorder ids of the intermediate tree.
    """
    word, left_steps = inp._read()
    n = len(inp.sigma)
    return _decreasing_tree(inp.sigma[1:], word[1:], word[n], left_steps)


def phi_inverse(lt: LabeledTree) -> PhiInput:
    """Recover the permutation and run branches from a decreasing tree.

    One walk from the root reads the permutation and checks the input: n
    followed by the inorder reading of the tree in which every left-only
    child counts as a right child (the inverse of :func:`phi`'s exchange).
    Every edge it follows must stay in range and lower the label, so it
    ends; every vertex it enters must carry a new label in 1..n-1, so no
    vertex is entered twice, and it must enter all of them.  Each run block
    then builds its branch from the vertices its labels name, with the same
    colors and child sides.
    """
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

    # A run ends where the reading ascends, which is only after a leaf: every
    # other vertex is read just before a subtree below it.  So a run's
    # minimum labels a leaf, and its branch is written bottom-up on the
    # vertices its labels name, less its maximum's.
    branches = []
    for block in _run_blocks(sigma):
        mx = block[-1]
        box = t.box_color if mx == n else nodes[vertex[mx]][0]
        branches.append(_write_branch(nodes, [vertex[label] for label in block[:-1]], box))
    return _new(PhiInput, (sigma, tuple(branches)))


def iter_phi_inputs(word: Sequence[int]) -> Iterator[PhiInput]:
    """Every valid input for the given color word, deterministically: the
    permutations of :func:`~troupes.partitions.iter_D` in order, each with
    every choice of one branch per run."""
    yield from _iter_inputs(PhiInput, word,
                            ((sigma, _run_blocks(sigma)) for sigma in iter_D(len(word))))
