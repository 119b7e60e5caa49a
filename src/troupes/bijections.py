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
    druns,
    is_irreducible,
    iter_partitions,
    iter_sigma_first_n,
)
from .trees import (
    BOX,
    ColoredTree,
    LabeledTree,
    _decreasing_tree,
    _new,
    alpha_inverse,
    branch_from_directions,
    branch_profile,
    encode,
    factor_branch,
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
        return self.partition.blocks, tuple(encode(b) for b in self.branches)

    def validate(self) -> None:
        self._runs()

    def _runs(self) -> list[tuple[tuple[int, ...], list[str], list[int], int]]:
        """Check the input, then give each block with its branch's
        :func:`~troupes.trees.branch_profile`."""
        p = self.partition
        if not is_irreducible(p):
            raise ValueError("partition must be noncrossing and irreducible")
        if any(len(b) < 2 for b in p.blocks):
            raise ValueError("all blocks must have size >= 2")
        return _profiles(p.blocks, self.branches, "block")


class PhiInput(NamedTuple):
    """A permutation (first entry maximal, no singleton run) paired with one
    branch per descending run (aligned with ``druns(sigma).blocks``)."""

    sigma: tuple[int, ...]
    branches: tuple[ColoredTree, ...]

    def key(self):
        return self.sigma, tuple(encode(b) for b in self.branches)

    def validate(self) -> None:
        self._runs()

    def _runs(self) -> list[tuple[tuple[int, ...], list[str], list[int], int]]:
        """Check the input, then give each run block with its branch's
        :func:`~troupes.trees.branch_profile`."""
        n = len(self.sigma)
        if n == 0 or self.sigma[0] != n:
            raise ValueError("permutation must start with its maximum")
        blocks = druns(self.sigma).blocks
        if any(len(b) < 2 for b in blocks):
            raise ValueError("all descending runs must have size >= 2")
        return _profiles(blocks, self.branches, "run")


def _profiles(blocks, branches, what: str) -> list[tuple[tuple[int, ...], list[str], list[int], int]]:
    """Each block with the :func:`~troupes.trees.branch_profile` of its
    branch, which must be a branch with one vertex fewer than the block."""
    if len(branches) != len(blocks):
        raise ValueError(f"one branch per {what} required")
    runs = []
    for block, br in zip(blocks, branches):
        if len(br.nodes) != len(block) - 1:
            raise ValueError(f"branch for {what} {block} has the wrong size")
        runs.append((block, *branch_profile(br)))  # checks it is a branch
    return runs


def _recover_word(n: int, runs) -> list[int]:
    """The color word i_1..i_n (1-indexed list) encoded by blocks paired with
    branch profiles ``(block, directions, colors, box)``."""
    word = [0] * (n + 1)
    for block, _, colors, box in runs:
        if len(colors) != len(block) - 1:
            raise ValueError("branch size does not match its block")
        word[block[-1]] = box
        for lab, color in zip(block[-2::-1], colors):
            word[lab] = color
    return word


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
    runs = inp._runs()
    n = inp.partition.n
    if n < 2:
        raise ValueError("psi needs n >= 2")
    word = _recover_word(n, runs)
    # left[j] and right[j] are the child node ids of vertex j
    left: list[int | None] = [None] * n
    right: list[int | None] = [None] * n
    for block, dirs, _, _ in runs:
        mn, mx = block[0], block[-1]
        if mx < n:
            right[mx] = mx - 2
            left[mx] = mn - 2
        # the branch's root-down steps run over the block from block[-2] down
        last = len(block) - 2
        for p in range(1, last + 1):
            j = block[p]
            if dirs[last - p] == "L":
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
    path of :func:`~troupes.trees.factor_paths` gives a block: its vertices'
    names, which fall from the root down, and last the name of its owner,
    which exceeds every name in the owner's right subtree.
    """
    m = len(t.nodes)
    if m == 0:
        raise ValueError("psi_inverse needs a nonempty tree")
    n = m + 1
    name = [0] * m
    for k, v in enumerate(postorder(t), start=1):
        name[v] = k
    pairs = []
    for owner, vertices, sides in factor_paths(t):
        top = n if owner == BOX else name[owner]
        block = tuple(name[u] for u in reversed(vertices)) + (top,)
        pairs.append((block, factor_branch(t, owner, vertices, sides)))
    pairs.sort(key=lambda pair: pair[0])
    return PsiInput(SetPartition.of(n, [block for block, _ in pairs]),
                    tuple(branch for _, branch in pairs))


def iter_psi_inputs(word: Sequence[int]) -> Iterator[PsiInput]:
    """Every valid input for the given color word, deterministically."""
    n = len(word)
    for p in iter_partitions(n, "nc_irreducible_min2"):
        choices = []
        for block in p.blocks:
            restricted = tuple(word[u - 1] for u in block)
            choices.append(list(iter_branch_word(restricted)))
        for combo in itertools.product(*choices):
            yield PsiInput(p, tuple(combo))


# ---------------------------------------------------------------------------
# phi: permutations with branches  <->  decreasing labeled trees


def phi_tilde(inp: PhiInput) -> LabeledTree:
    """The intermediate tree: drop the leading n, invert the inorder
    bijection, and color by labels.

    Because no run is a singleton, every vertex with a left child also has a
    right child (a reverse Motzkin tree).
    """
    n = len(inp.sigma)
    word = _recover_word(n, inp._runs())
    return alpha_inverse(inp.sigma[1:], colors=word[1:n], box_color=word[n])


def phi(inp: PhiInput) -> LabeledTree:
    """The decreasing tree whose factors are the input branches.

    It is :func:`phi_tilde` with the single child moved to the left at every
    branch vertex whose step is ``L``; one stack pass builds it with those
    vertices' child slots exchanged, so node ids stay postorder ids of the
    intermediate tree.
    """
    runs = inp._runs()
    n = len(inp.sigma)
    word = _recover_word(n, runs)
    left_steps = {label for block, dirs, _, _ in runs
                  for label, side in zip(block[-2::-1], dirs) if side == "L"}
    return _decreasing_tree(inp.sigma[1:], word[1:], word[n], left_steps)


def phi_inverse(lt: LabeledTree) -> PhiInput:
    """Recover the permutation and run branches from a decreasing tree.

    One walk from the root reads the permutation and checks the input: n
    followed by the inorder reading of the tree in which every left-only
    child counts as a right child (the inverse of :func:`phi`'s exchange).
    Every edge it follows must stay in range and lower the label, so it
    ends; every vertex it enters must carry a new label in 1..n-1, so no
    vertex is entered twice, and it must enter all of them.  Each run block
    then rebuilds its branch with child sides copied from ``lt``.
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
            for c in (left, right):
                if c is not None and not (0 <= c < m and labels[c] < label):
                    raise ValueError(f"child {c} of vertex {v} is out of range "
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

    branches = []
    for block in _run_blocks(sigma):
        labels_desc = block[-2::-1]
        dirs = []
        for label in labels_desc[:-1]:
            _, left, right = nodes[vertex[label]]
            if (left is None) == (right is None):
                raise AssertionError("run interior vertex must have one child")
            dirs.append("L" if left is not None else "R")
        colors = [nodes[vertex[label]][0] for label in labels_desc]
        mx = block[-1]
        box = t.box_color if mx == n else nodes[vertex[mx]][0]
        branches.append(branch_from_directions(dirs, colors, box))
    return _new(PhiInput, (sigma, tuple(branches)))


def iter_phi_inputs(word: Sequence[int]) -> Iterator[PhiInput]:
    """Every valid input for the given color word, deterministically."""
    branches: dict[tuple[int, ...], list[ColoredTree]] = {}  # by block subword
    for sigma in iter_sigma_first_n(len(word)):
        blocks = _run_blocks(sigma)
        if any(len(b) < 2 for b in blocks):
            continue
        choices = []
        for block in blocks:
            restricted = tuple(word[u - 1] for u in block)
            if restricted not in branches:
                branches[restricted] = list(iter_branch_word(restricted))
            choices.append(branches[restricted])
        for combo in itertools.product(*choices):
            yield _new(PhiInput, (sigma, combo))
