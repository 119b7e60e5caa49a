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
    druns,
    is_irreducible,
    iter_partitions,
    iter_sigma_first_n,
)
from .trees import (
    BOX,
    ColoredTree,
    LabeledTree,
    Node,
    _decreasing_tree,
    _new,
    alpha_inverse,
    branch_from_directions,
    branch_profile,
    encode,
    factor_branch,
    factor_paths,
    is_branch,
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
        p = self.partition
        if not is_irreducible(p):
            raise ValueError("partition must be noncrossing and irreducible")
        if any(len(b) < 2 for b in p.blocks):
            raise ValueError("all blocks must have size >= 2")
        if len(self.branches) != len(p.blocks):
            raise ValueError("one branch per block required")
        for block, br in zip(p.blocks, self.branches):
            if not is_branch(br) or br.size != len(block) - 1:
                raise ValueError(f"branch for block {block} has the wrong size")


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
        if len(self.branches) != len(blocks):
            raise ValueError("one branch per run required")
        runs = []
        for block, br in zip(blocks, self.branches):
            if br.size != len(block) - 1:
                raise ValueError(f"branch for run {block} has the wrong size")
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
    """
    inp.validate()
    n = inp.partition.n
    if n < 2:
        raise ValueError("psi needs n >= 2")
    runs = [(block, *branch_profile(br))
            for block, br in zip(inp.partition.blocks, inp.branches)]
    word = _recover_word(n, runs)
    left = [None] * (n + 1)
    right = [None] * (n + 1)
    for block, dirs, _, _ in runs:
        labels_desc = list(reversed(block[:-1]))
        mn, mx = block[0], block[-1]
        for j in block:
            if j == mx:
                if j <= n - 1:
                    right[j] = j - 1
                    left[j] = mn - 1
            elif j == mn:
                pass
            else:
                side = dirs[labels_desc.index(j)]
                if side == "L":
                    left[j] = j - 1
                else:
                    right[j] = j - 1
    nodes = tuple([
        _new(Node, (word[j], None if left[j] is None else left[j] - 1,
                    None if right[j] is None else right[j] - 1))
        for j in range(1, n)
    ])
    referenced = {c for c in left[1:n] + right[1:n] if c is not None}
    roots = [j for j in range(1, n) if j not in referenced]
    if len(roots) != 1:
        raise AssertionError("construction did not produce a single root")
    out = ColoredTree(nodes, roots[0] - 1, word[n])
    out.validate()
    return out


def psi_inverse(t: ColoredTree) -> PsiInput:
    """Read the partition and branch factors back off a tree.

    Vertices are named by postorder position and the box by n.  Each factor
    path of :func:`~troupes.trees.factor_paths` gives a block: its vertices'
    names, which fall from the root down, and last the name of its owner,
    which exceeds every name in the owner's right subtree.
    """
    if t.size == 0:
        raise ValueError("psi_inverse needs a nonempty tree")
    n = t.size + 1
    name = [0] * t.size
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

    One pass indexes the vertices by label and checks that the labels are a
    bijection onto 1..n-1 that falls along every edge.  The permutation is n
    followed by the inorder reading of the tree in which every left-only
    child counts as a right child (the inverse of :func:`phi`'s exchange);
    each run block rebuilds its branch with child sides copied from ``lt``.
    """
    t = lt.tree
    m = t.size
    if m == 0:
        raise ValueError("phi_inverse needs a nonempty tree")
    n = m + 1
    nodes, labels = t.nodes, lt.labels
    if len(labels) != m:
        raise ValueError(f"labels must be a bijection onto 1..{m}")
    vertex = [-1] * n  # vertex[k] is the vertex labeled k
    has_parent = [False] * m
    for v, nd in enumerate(nodes):
        label = labels[v]
        if not 0 < label < n or vertex[label] >= 0:
            raise ValueError(f"labels must be a bijection onto 1..{m}")
        vertex[label] = v
        for c in (nd.left, nd.right):
            if c is None:
                continue
            if not 0 <= c < m or has_parent[c]:
                raise ValueError(f"child {c} of vertex {v} is out of range or has two parents")
            if labels[c] >= label:
                raise ValueError("labeling is not decreasing")
            has_parent[c] = True
    if t.root is None or not 0 <= t.root < m or has_parent[t.root]:
        raise ValueError("the root must be a vertex without a parent")

    sigma = [n]
    pending: list[int] = []
    v = t.root
    while True:
        while v is not None:
            nd = nodes[v]
            if nd.right is None:  # a leaf, or a left-only child read as right
                sigma.append(labels[v])
            else:
                pending.append(v)
            v = nd.left
        if not pending:
            break
        v = pending.pop()
        sigma.append(labels[v])
        v = nodes[v].right
    if len(sigma) != n:
        raise ValueError("unreachable vertices present")

    branches = []
    for block in druns(sigma).blocks:
        labels_desc = block[-2::-1]
        dirs = []
        for label in labels_desc[:-1]:
            nd = nodes[vertex[label]]
            if (nd.left is None) == (nd.right is None):
                raise AssertionError("run interior vertex must have one child")
            dirs.append("L" if nd.left is not None else "R")
        colors = [nodes[vertex[label]].color for label in labels_desc]
        mx = block[-1]
        box = t.box_color if mx == n else nodes[vertex[mx]].color
        branches.append(branch_from_directions(dirs, colors, box))
    return PhiInput(tuple(sigma), tuple(branches))


def iter_phi_inputs(word: Sequence[int]) -> Iterator[PhiInput]:
    """Every valid input for the given color word, deterministically."""
    branches: dict[tuple[int, ...], list[ColoredTree]] = {}  # by block subword
    for sigma in iter_sigma_first_n(len(word)):
        blocks = druns(sigma).blocks
        if any(len(b) < 2 for b in blocks):
            continue
        choices = []
        for block in blocks:
            restricted = tuple(word[u - 1] for u in block)
            if restricted not in branches:
                branches[restricted] = list(iter_branch_word(restricted))
            choices.append(branches[restricted])
        for combo in itertools.product(*choices):
            yield PhiInput(sigma, combo)
