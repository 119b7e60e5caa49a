"""Brute-force routes kept as test oracles.

The swing of a single child, and the two-step bijection phi built on it:
phi as the intermediate tree followed by one swing per left step, and its
inverse as one swing per left-only vertex followed by the inorder reading.
Also the recursive max-split build of a decreasing tree, and descending runs
normalised through ``SetPartition.of``.
"""

from troupes.bijections import PhiInput, phi_tilde
from troupes.partitions import SetPartition, druns
from troupes.trees import (
    ColoredTree,
    LabeledTree,
    Node,
    alpha,
    branch_from_directions,
    branch_profile,
)


def swing(t: ColoredTree, v: int) -> ColoredTree:
    """Flip the single child of ``v`` to the other side; an involution."""
    nd = t.nodes[v]
    if (nd.left is None) == (nd.right is None):
        raise ValueError("swing needs a vertex with exactly one child")
    flipped = Node(nd.color, nd.right, nd.left)
    nodes = t.nodes[:v] + (flipped,) + t.nodes[v + 1:]
    return ColoredTree(nodes, t.root, t.box_color)


def swing_labeled(lt: LabeledTree, v: int) -> LabeledTree:
    return LabeledTree(swing(lt.tree, v), lt.labels)


def phi_via_swings(inp: PhiInput) -> LabeledTree:
    """Swing the intermediate tree at every branch vertex whose step is L."""
    lt = phi_tilde(inp)
    for block, br in zip(druns(inp.sigma).blocks, inp.branches):
        dirs, _, _ = branch_profile(br)
        labels_desc = list(reversed(block[:-1]))
        for depth, side in enumerate(dirs):
            if side == "L":
                lt = swing_labeled(lt, lt.labels.index(labels_desc[depth]))
    return lt


def phi_inverse_via_swings(lt: LabeledTree) -> PhiInput:
    """Swing every left-only vertex, read the result in inorder after n, and
    rebuild each run's branch with child sides copied from ``lt``."""
    n = lt.size + 1
    tilde = lt
    for v, nd in enumerate(lt.tree.nodes):
        if nd.left is not None and nd.right is None:
            tilde = swing_labeled(tilde, v)
    sigma = (n,) + alpha(tilde)
    branches = []
    for block in druns(sigma).blocks:
        labels_desc = list(reversed(block[:-1]))
        dirs = []
        for lab in labels_desc[:-1]:
            nd = lt.tree.nodes[lt.labels.index(lab)]
            dirs.append("L" if nd.left is not None else "R")
        colors = [lt.tree.nodes[lt.labels.index(lab)].color for lab in labels_desc]
        mx = block[-1]
        box = lt.tree.box_color if mx == n else lt.tree.nodes[lt.labels.index(mx)].color
        branches.append(branch_from_directions(dirs, colors, box))
    return PhiInput(sigma, tuple(branches))


def alpha_inverse_by_max_split(word, colors=None, box_color: int = 0) -> LabeledTree:
    """The recursive build: the maximum is the root, and the prefix and the
    suffix around it build the left and right subtrees.  Node ids come out
    in postorder."""
    nodes: list[Node] = []
    labels: list[int] = []

    def build(lo: int, hi: int):
        if lo > hi:
            return None
        m = max(range(lo, hi + 1), key=lambda i: word[i])
        left = build(lo, m - 1)
        right = build(m + 1, hi)
        nodes.append(Node(colors[word[m] - 1] if colors is not None else 0, left, right))
        labels.append(word[m])
        return len(nodes) - 1

    root = build(0, len(word) - 1)
    return LabeledTree(ColoredTree(tuple(nodes), root, box_color), tuple(labels))


def druns_by_normalisation(sigma) -> SetPartition:
    """Split into maximal decreasing runs, then normalise the blocks."""
    blocks = [[sigma[0]]]
    for prev, cur in zip(sigma, sigma[1:]):
        if prev > cur:
            blocks[-1].append(cur)
        else:
            blocks.append([cur])
    return SetPartition.of(len(sigma), blocks)
