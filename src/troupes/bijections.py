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
from dataclasses import dataclass
from typing import Iterator, Sequence

from .partitions import (
    SetPartition,
    druns,
    is_irreducible,
    iter_D,
    iter_partitions,
    parse_partition,
)
from .trees import (
    BOX,
    ColoredTree,
    LabeledTree,
    Node,
    alpha,
    alpha_inverse,
    branch_from_directions,
    branch_profile,
    encode,
    factor_branch,
    factor_paths,
    is_branch,
    iter_branch_word,
    insert,
    parse_tree,
    postorder,
    swing_labeled,
)


@dataclass(frozen=True)
class PsiInput:
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


@dataclass(frozen=True)
class PhiInput:
    """A permutation (first entry maximal, no singleton run) paired with one
    branch per descending run (aligned with ``druns(sigma).blocks``)."""

    sigma: tuple[int, ...]
    branches: tuple[ColoredTree, ...]

    def key(self):
        return self.sigma, tuple(encode(b) for b in self.branches)

    def validate(self) -> None:
        n = len(self.sigma)
        if n == 0 or self.sigma[0] != n:
            raise ValueError("permutation must start with its maximum")
        blocks = druns(self.sigma).blocks
        if any(len(b) < 2 for b in blocks):
            raise ValueError("all descending runs must have size >= 2")
        if len(self.branches) != len(blocks):
            raise ValueError("one branch per run required")
        for block, br in zip(blocks, self.branches):
            if not is_branch(br) or br.size != len(block) - 1:
                raise ValueError(f"branch for run {block} has the wrong size")


def _recover_word(n: int, blocks: Sequence[tuple[int, ...]],
                  branches: Sequence[ColoredTree]) -> list[int]:
    """The color word i_1..i_n encoded by the branches (1-indexed list)."""
    word = [0] * (n + 1)
    for block, br in zip(blocks, branches):
        dirs, colors, box = branch_profile(br)
        labels_desc = list(reversed(block[:-1]))
        if len(colors) != len(labels_desc):
            raise ValueError("branch size does not match its block")
        word[block[-1]] = box
        for depth, lab in enumerate(labels_desc):
            word[lab] = colors[depth]
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
    word = _recover_word(n, inp.partition.blocks, inp.branches)
    left = [None] * (n + 1)
    right = [None] * (n + 1)
    for block, br in zip(inp.partition.blocks, inp.branches):
        dirs, _, _ = branch_profile(br)
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
    nodes = tuple(
        Node(
            word[j],
            None if left[j] is None else left[j] - 1,
            None if right[j] is None else right[j] - 1,
        )
        for j in range(1, n)
    )
    referenced = {c for c in left[1:n] + right[1:n] if c is not None}
    roots = [j for j in range(1, n) if j not in referenced]
    if len(roots) != 1:
        raise AssertionError("construction did not produce a single root")
    out = ColoredTree(nodes, roots[0] - 1, word[n])
    out.validate()
    return out


def _branch_label_map(br: ColoredTree, block: tuple[int, ...]) -> dict[int, int]:
    """Map block labels (decreasing from the root) to branch node ids."""
    labels_desc = list(reversed(block[:-1]))
    out: dict[int, int] = {}
    v = br.root
    for lab in labels_desc:
        out[lab] = v
        nd = br.nodes[v]
        v = nd.left if nd.left is not None else nd.right
    return out


def psi_via_insertions(inp: PsiInput) -> tuple[ColoredTree, dict[int, int]]:
    """The same map computed by iterated insertion, blocks by minimum.

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
    inp.validate()
    n = len(inp.sigma)
    blocks = druns(inp.sigma).blocks
    word = _recover_word(n, blocks, inp.branches)
    return alpha_inverse(inp.sigma[1:], colors=word[1:n], box_color=word[n])


def phi(inp: PhiInput) -> LabeledTree:
    """Swing the intermediate tree at every branch vertex that has a left
    child; the result is the decreasing tree whose factors are the input
    branches."""
    lt = phi_tilde(inp)
    blocks = druns(inp.sigma).blocks
    for block, br in zip(blocks, inp.branches):
        dirs, _, _ = branch_profile(br)
        labels_desc = list(reversed(block[:-1]))
        for depth, side in enumerate(dirs):
            if side == "L":
                v = lt.labels.index(labels_desc[depth])
                lt = swing_labeled(lt, v)
    return lt


def phi_inverse(lt: LabeledTree) -> PhiInput:
    """Recover the permutation and run branches from a decreasing tree.

    Swinging every left-only-child vertex gives a reverse Motzkin tree whose
    inorder reading (with n prepended) is the permutation; each run block
    rebuilds its branch with child sides copied from the original tree.
    """
    if lt.size == 0:
        raise ValueError("phi_inverse needs a nonempty tree")
    n = lt.size + 1
    tilde = lt
    for v, nd in enumerate(lt.tree.nodes):
        if nd.left is not None and nd.right is None:
            tilde = swing_labeled(tilde, v)
    sigma = (n,) + alpha(tilde)
    blocks = druns(sigma).blocks
    branches = []
    for block in blocks:
        labels_desc = list(reversed(block[:-1]))
        dirs = []
        for lab in labels_desc[:-1]:
            v = lt.labels.index(lab)
            nd = lt.tree.nodes[v]
            if (nd.left is None) == (nd.right is None):
                raise AssertionError("run interior vertex must have one child")
            dirs.append("L" if nd.left is not None else "R")
        colors = [lt.tree.nodes[lt.labels.index(lab)].color for lab in labels_desc]
        mx = block[-1]
        box = lt.tree.box_color if mx == n else lt.tree.nodes[lt.labels.index(mx)].color
        branches.append(branch_from_directions(dirs, colors, box))
    return PhiInput(sigma, tuple(branches))


def iter_phi_inputs(word: Sequence[int]) -> Iterator[PhiInput]:
    """Every valid input for the given color word, deterministically."""
    n = len(word)
    for sigma in iter_D(n):
        blocks = druns(sigma).blocks
        choices = []
        for block in blocks:
            restricted = tuple(word[u - 1] for u in block)
            choices.append(list(iter_branch_word(restricted)))
        for combo in itertools.product(*choices):
            yield PhiInput(sigma, tuple(combo))


# ---------------------------------------------------------------------------
# Serialization: skeleton line, then one "block -> tree encoding" line each


def format_psi_input(inp: PsiInput) -> str:
    lines = [str(inp.partition)]
    for block, br in zip(inp.partition.blocks, inp.branches):
        lines.append(f"{','.join(map(str, block))} -> {encode(br)}")
    return "\n".join(lines) + "\n"


def format_phi_input(inp: PhiInput) -> str:
    lines = [",".join(map(str, inp.sigma))]
    for block, br in zip(druns(inp.sigma).blocks, inp.branches):
        lines.append(f"{','.join(map(str, block))} -> {encode(br)}")
    return "\n".join(lines) + "\n"


def _parse_block_lines(lines: list[str]) -> dict[tuple[int, ...], ColoredTree]:
    out: dict[tuple[int, ...], ColoredTree] = {}
    for line in lines:
        block_text, sep, tree_text = line.partition("->")
        if not sep:
            raise ValueError(f"expected 'block -> tree' in {line!r}")
        block = tuple(sorted(int(x) for x in block_text.strip().split(",")))
        if block in out:
            raise ValueError(f"repeated block {','.join(map(str, block))}")
        out[block] = parse_tree(tree_text.strip())
    return out


def parse_psi_input(text: str) -> PsiInput:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty input")
    partition = parse_partition(lines[0])
    by_block = _parse_block_lines(lines[1:])
    if set(by_block) != set(partition.blocks):
        raise ValueError("branch lines do not match the partition blocks")
    return PsiInput(partition, tuple(by_block[b] for b in partition.blocks))


def parse_phi_input(text: str) -> PhiInput:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty input")
    sigma = tuple(int(x) for x in lines[0].split(","))
    by_block = _parse_block_lines(lines[1:])
    blocks = druns(sigma).blocks
    if set(by_block) != set(blocks):
        raise ValueError("branch lines do not match the descending runs")
    return PhiInput(sigma, tuple(by_block[b] for b in blocks))
