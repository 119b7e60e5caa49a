"""Bijective expansions of trees into (partition, branches) and
(permutation, branches) pairs.

Both maps pair a combinatorial skeleton with one branch per block:

* ``psi``: an irreducible noncrossing partition of 1..n with all blocks of
  size >= 2, plus a colored branch per block, maps to a colored tree of size
  n-1 whose postorder matches the usual order and whose insertion-factor
  multiset is exactly the given branches.
* ``phi``: a permutation with first entry n and no singleton descending run,
  plus a colored branch per run, maps to a decreasing labeled colored tree of
  size n-1 with the same factor-preservation property.

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
    BOX,
    ColoredTree,
    LabeledTree,
    _decreasing_tree,
    _new,
    _read_branch,
    _write_branch,
    encode,
    factor_paths,
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


def psi(inp: PsiInput) -> ColoredTree:
    """Assemble the tree on vertices 1..n-1 directly from the block rules.

    Block minima become leaves; interior elements pass their single child
    down by one with the side copied from the block's branch; block maxima
    (other than n) take ``j-1`` as right child and ``min(U)-1`` as left child.
    Vertex j is node id j-1, and the coloring reads the word off the input.
    Vertex n-1, last in postorder, is the root, and
    :meth:`~troupes.trees.ColoredTree.validate` checks the tree.
    """
    word, left_steps = inp._read()
    n = inp.partition.n
    if n < 2:
        raise ValueError("psi needs n >= 2")
    # left[j] and right[j] are the child node ids of vertex j
    left: list[int | None] = [None] * n
    right: list[int | None] = [None] * n
    for block in inp.partition.blocks:
        mn, mx = block[0], block[-1]
        if mx < n:
            right[mx] = mx - 2
            left[mx] = mn - 2
        # the branch's one-child vertices are the block's interior elements
        for j in block[1:-1]:
            if j in left_steps:
                left[j] = j - 2
            else:
                right[j] = j - 2
    nodes = tuple(zip(word[1:n], left[1:], right[1:]))
    out = _new(ColoredTree, (nodes, n - 2, word[n]))
    out.validate()
    return out


def psi_inverse(t: ColoredTree) -> PsiInput:
    """Read the partition and branch factors back off a tree.

    Vertices are named by postorder position and the box by n.  Each factor
    of :func:`~troupes.trees.factor_paths` gives its branch and a block: its
    vertices' names, which rise from the bottom up, and last the name of its
    owner, which exceeds every name in the owner's right subtree.
    """
    m = len(t.nodes)
    if m == 0:
        raise ValueError("psi_inverse needs a nonempty tree")
    n = m + 1
    name = [0] * m
    for k, v in enumerate(postorder(t), start=1):
        name[v] = k
    pairs = []
    for owner, vertices, branch in factor_paths(t):
        top = n if owner == BOX else name[owner]
        pairs.append((tuple([name[u] for u in vertices]) + (top,), branch))
    pairs.sort(key=lambda pair: pair[0])
    return PsiInput(SetPartition.of(n, [block for block, _ in pairs]),
                    tuple(branch for _, branch in pairs))


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
