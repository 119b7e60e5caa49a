"""Colored binary plane trees: traversals, insertion, factorization, enumeration.

Trees are stored positionally: a node is an index into a node list, and each
vertex is a plain ``(color, left, right)`` tuple whose children are node
indices or ``None``.  Isomorphism of colored trees is decided through
:func:`encode`, a canonical serialization that is also the CLI's output
format; trees are written, never read back.

Colors are nonnegative integers into an ambient index set; a tree also carries
a ``box_color``, the color of the external marker that rides along with every
tree (including the empty one).

The trees themselves are ``NamedTuple`` records, so ``len()`` of one is its
field count: a tree's vertex count is ``size``, or ``len(t.nodes)``.  The
builders make records with ``_new``, which runs no Python-level constructor.
"""

from __future__ import annotations

import itertools
from math import inf
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

# ``_new(Record, fields)`` builds a record from the tuple of its fields.
_new = tuple.__new__

# A vertex: its color, then its left and right child ids.
Vertex = tuple[int, int | None, int | None]


class ColoredTree(NamedTuple):
    """A binary plane tree with per-vertex colors and an external box color.

    Node identity is positional; two representations of the same colored tree
    may differ, so compare trees with :func:`encode`, not ``==``.
    """

    nodes: tuple[Vertex, ...]
    root: int | None
    box_color: int = 0

    @property
    def size(self) -> int:
        return len(self.nodes)

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation.

        The postorder walk checks the root and each id it meets and meets
        none twice: the tree holds each vertex once when it meets them all."""
        if len(_order(self, True)) != len(self.nodes):
            raise ValueError("a vertex is unreachable from the root")


class LabeledTree(NamedTuple):
    """A colored tree plus a standard decreasing labeling (labels 1..size)."""

    tree: ColoredTree
    labels: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.tree.size

    def validate(self) -> None:
        t = self.tree
        t.validate()
        n = len(t.nodes)
        if sorted(self.labels) != list(range(1, n + 1)):
            raise ValueError("labels must be a bijection onto 1..n")
        for v, (_, left, right) in enumerate(t.nodes):
            for c in (left, right):
                if c is not None and self.labels[c] >= self.labels[v]:
                    raise ValueError("labeling is not decreasing")


# ---------------------------------------------------------------------------
# Traversals and the inorder/postorder machinery


# Trees with fewer vertices than this are encoded by plain recursion, whose
# depth their size bounds; larger ones by one loop.
_RECURSIVE_SIZE = 256

# A walk that enters a vertex it has marked met it twice: through a loop, or
# a vertex under two parents.  A walk needs a root exactly when the tree is nonempty.
_REACHED_TWICE = "a vertex is reached twice: the child links loop or share a vertex"
_ROOTLESS = "root must be a vertex exactly when the tree is nonempty"


def _order(t: ColoredTree, post: bool) -> list[int]:
    """Node ids in inorder, or in postorder when ``post``, by one walk on a
    stack: entering a vertex pushes its children and its output slot (a
    ``None`` over its id) in the order the traversal writes them.  An id out
    of range, a vertex entered twice (a loop, or a vertex under two parents)
    or a root given exactly when the tree is empty raises ``ValueError``."""
    nodes = t.nodes
    n = len(nodes)
    if (t.root is None) != (n == 0):
        raise ValueError(_ROOTLESS)
    entered = [False] * n
    out: list[int] = []
    stack = [] if t.root is None else [t.root]
    while stack:
        v = stack.pop()
        if v is None:
            out.append(stack.pop())
            continue
        if not 0 <= v < n:
            raise ValueError(f"vertex id {v} not in 0..{n - 1}")
        if entered[v]:
            raise ValueError(_REACHED_TWICE)
        entered[v] = True
        _, left, right = nodes[v]
        if post:
            stack.append(v)
            stack.append(None)
        if right is not None:
            stack.append(right)
        if not post:
            stack.append(v)
            stack.append(None)
        if left is not None:
            stack.append(left)
    return out


def inorder(t: ColoredTree) -> list[int]:
    """Node ids in inorder (left subtree, vertex, right subtree)."""
    return _order(t, False)


def postorder(t: ColoredTree) -> list[int]:
    """Node ids in postorder (left subtree, right subtree, vertex)."""
    return _order(t, True)


def alpha(lt: LabeledTree) -> tuple[int, ...]:
    """The permutation read off a labeled tree in inorder."""
    return tuple(lt.labels[v] for v in inorder(lt.tree))


def beta(lt: LabeledTree) -> tuple[int, ...]:
    """The permutation read off a labeled tree in postorder."""
    return tuple(lt.labels[v] for v in postorder(lt.tree))


def alpha_inverse(word: Sequence[int]) -> LabeledTree:
    """The unique decreasing labeled tree whose inorder reading is ``word``.

    Built by :func:`_decreasing_tree` in one stack pass, so node ids come out
    in postorder.  Every vertex and the box have color 0.
    """
    if len(word) == 0:
        raise ValueError("alpha_inverse needs a nonempty word")
    if len(set(word)) != len(word):
        raise ValueError("word entries must be distinct")
    return _decreasing_tree(word, None, 0, ())


def _decreasing_tree(word: Sequence[int], colors: Sequence[int] | None,
                     box_color: int, swapped: Container[int]) -> LabeledTree:
    """:func:`alpha_inverse` of a nonempty word of distinct entries, with the
    two child slots exchanged at every vertex whose label is in ``swapped``
    and, when ``colors`` is given, ``colors[k]`` on the vertex labeled ``k``.

    The stack-sorting pass: the open vertices of the right spine are a stack
    of ``(label, left child id)`` pairs, labels falling toward the top (held
    in ``label, left``), over an ``inf`` sentinel no entry pops.  Each entry
    pops every smaller label, one pop per vertex, and a last ``inf`` pops the
    whole spine, so pops come in postorder.  A popped vertex takes the vertex
    popped just before it in the same sweep as its right child, and keeps as
    left child the last one popped before its push.  Node ids are pop positions.
    """
    nodes: list[Vertex] = []
    labels: list[int] = []
    spine: list[tuple[float, int | None]] = []
    label, left = inf, None
    for x in [*word, inf]:
        below = None
        while label < x:
            color = colors[label] if colors is not None else 0
            nodes.append((color, below, left) if label in swapped else (color, left, below))
            below = len(labels)
            labels.append(label)
            label, left = spine.pop()
        spine.append((label, left))
        label, left = x, below
    tree = _new(ColoredTree, (tuple(nodes), below, box_color))
    return _new(LabeledTree, (tree, tuple(labels)))


def stack_sort(sigma: Sequence[int]) -> tuple[int, ...]:
    """One pass of the stack-sorting map, ``beta(alpha_inverse(sigma))``: the
    stack pass stores labels in pop order, which is postorder."""
    return alpha_inverse(sigma).labels


# ---------------------------------------------------------------------------
# Insertion and insertion factors


def insert(t1: ColoredTree, v: int, t2: ColoredTree) -> ColoredTree:
    """Graft ``t2`` onto ``t1`` at vertex ``v``.

    A new vertex ``v*`` takes over v's position, v hangs below it as a left
    child (keeping its own subtrees), and ``t2`` becomes the right subtree of
    ``v*``.  The new vertex takes ``t2``'s box color; the result keeps
    ``t1``'s box color.  Node ids: ``t1``'s ids are unchanged, ``v*`` gets id
    ``t1.size``, and ``t2``'s ids are shifted up by ``t1.size + 1``.
    """
    n1 = len(t1.nodes)
    if n1 == 0 or not t2.nodes:
        raise ValueError("insertion needs nonempty operands")
    if not 0 <= v < n1:
        raise ValueError(f"vertex {v} not in the host tree")
    v_star = n1
    offset = n1 + 1
    nodes = list(t1.nodes)
    for u, (color, left, right) in enumerate(t1.nodes):
        # only the parent of v is rewired; v itself keeps its children
        if u != v and (left == v or right == v):
            nodes[u] = (color, v_star if left == v else left,
                        v_star if right == v else right)
    nodes.append((t2.box_color, v, t2.root + offset))
    for color, left, right in t2.nodes:
        nodes.append((color, None if left is None else left + offset,
                      None if right is None else right + offset))
    root = v_star if t1.root == v else t1.root
    return _new(ColoredTree, (tuple(nodes), root, t1.box_color))


BOX = -1  # sentinel for the external box in factor computations


def _write_branch(nodes: Sequence[Vertex], vertices: Iterable[int], box: int) -> ColoredTree:
    """The branch of box color ``box`` on ``vertices``, ids into ``nodes``
    from the bottom one, a leaf, up: vertex ``i`` is the ``i``-th one's entry
    with its one child, vertex ``i-1``, on the same side.  Node ids run from
    the bottom (0) up, the numbering ``WeightedTroupe._weight`` keys on."""
    vertices = iter(vertices)
    branch = [nodes[next(vertices)]]
    below = 0
    for u in vertices:
        color, left, _ = nodes[u]
        branch.append((color, below, None) if left is not None else (color, None, below))
        below += 1
    return _new(ColoredTree, (tuple(branch), below, box))


def factor_paths(t: ColoredTree) -> list[tuple[int, list[int], ColoredTree]]:
    """The insertion factors of a tree, each read off its vertices, in O(n).

    Returns ``(owner, vertices, branch)`` triples, one per factor.  ``owner``
    is ``BOX`` or a two-child vertex, whose color is the factor's box color.
    A factor starts at its owner's right child (the box's at the root) and
    descends through one-child vertices; a two-child vertex on the way is
    passed to its left child and owns the factor of its right child.  The
    box's factor comes first.

    ``vertices`` lists the factor's vertices from the bottom one, a leaf, up,
    and ``branch`` is the factor itself: its vertex ``i`` is ``vertices[i]``
    with the same color and its one child on the same side, so node ids run
    from the bottom vertex (0) up, as in :func:`iter_branch_word`.  The
    walk marks each vertex it enters, so child links that loop, or that reach
    a vertex twice, raise ``ValueError``, and so do an id outside ``0..n-1``
    and a missing root.
    """
    if not t.nodes or t.root is None:
        raise ValueError(_ROOTLESS if t.nodes else "the empty tree has no factors")
    nodes = t.nodes
    n = len(nodes)
    entered = [False] * n
    out = []
    work: list[tuple[int, int, int]] = []
    owner, box, v = BOX, t.box_color, t.root
    path: list[int] = []
    while True:
        if not 0 <= v < n:
            raise ValueError(f"vertex id {v} not in 0..{n - 1}")
        if entered[v]:
            raise ValueError(_REACHED_TWICE)
        entered[v] = True
        color, left, right = nodes[v]
        if right is None:
            if left is not None:
                path.append(v)
                v = left
                continue
        elif left is None:
            path.append(v)
            v = right
            continue
        else:
            work.append((v, color, right))
            v = left
            continue
        # a leaf ends the factor
        path.append(v)
        path.reverse()
        out.append((owner, path, _write_branch(nodes, path, box)))
        path = []
        if not work:
            return out
        owner, box, v = work.pop()


def insertion_factors(t: ColoredTree) -> list[ColoredTree]:
    """The multiset of branches a tree factors into under iterated insertion.

    The branches of :func:`factor_paths`; each factor's box color is the
    color of its governing vertex (the tree's box color for the box factor).
    The factor list order is deterministic; treat it as a multiset.
    """
    return [branch for _, _, branch in factor_paths(t)]


def labeled_insertion_factors(lt: LabeledTree) -> list[LabeledTree]:
    """Insertion factors of a labeled tree, keeping the original labels.

    The labels of each factor are the restriction of the tree's labeling, not
    renormalized, so factors of distinct owners carry disjoint label sets.
    """
    label = lt.labels.__getitem__
    return [_new(LabeledTree, (branch, tuple(map(label, vertices))))
            for _, vertices, branch in factor_paths(lt.tree)]


# ---------------------------------------------------------------------------
# Predicates and statistics


def right_edges(t: ColoredTree) -> int:
    return sum(1 for _, _, right in t.nodes if right is not None)


# ---------------------------------------------------------------------------
# Canonical encoding (also the CLI output format)


def _encode_small(nodes: Sequence[Vertex], labels: Sequence[int] | None, v: int) -> str:
    """The encoding of the subtree at vertex ``v``, by recursion: one call
    per vertex, none per empty child slot.  It keeps no marks, so it writes
    a shared vertex once per path, until a join longer than 64 characters
    per vertex holds more ``(`` than the tree has vertices, which raises
    ``ValueError``; a negative id, which indexing would wrap, raises ``IndexError``."""
    if v < 0:
        raise IndexError(v)
    color, left, right = nodes[v]
    if labels is not None:
        color = f"{color}|{labels[v]}"
    if left is None:
        if right is None:
            return f"({color} . .)"
        return f"({color} . {_encode_small(nodes, labels, right)})"
    if right is None:
        return f"({color} {_encode_small(nodes, labels, left)} .)"
    text = f"({color} {_encode_small(nodes, labels, left)} {_encode_small(nodes, labels, right)})"
    if len(text) > 64 * len(nodes) and text.count("(") > len(nodes):
        raise ValueError(_REACHED_TWICE)
    return text


def _encode_large(nodes: Sequence[Vertex], labels: Sequence[int] | None, v: int) -> str:
    """:func:`_encode_small` in one loop over a stack of the pieces still to
    write: strings, and vertex ids to expand.  The loop marks each vertex it
    expands, so child links that loop, or that reach a vertex twice, raise
    ``ValueError``; a negative id raises ``IndexError``."""
    entered = [False] * len(nodes)
    out: list[str] = []
    pieces: list[int | str] = [v]
    while pieces:
        piece = pieces.pop()
        if piece.__class__ is str:
            out.append(piece)
            continue
        if piece < 0:
            raise IndexError(piece)
        if entered[piece]:
            raise ValueError(_REACHED_TWICE)
        entered[piece] = True
        color, left, right = nodes[piece]
        out.append(f"({color} " if labels is None else f"({color}|{labels[piece]} ")
        pieces += (" .)",) if right is None else (")", right, " ")
        pieces.append("." if left is None else left)
    return "".join(out)


def _encode(t: ColoredTree, labels: Sequence[int] | None) -> str:
    """:func:`encode`, with ``|label`` after each vertex's color when
    ``labels`` is given.  The encoder is chosen once per tree: recursion
    below ``_RECURSIVE_SIZE`` vertices, whose depth the size bounds, and the
    loop from there on.  A loop runs the recursion out of stack, and the
    loop then names the fault.  A bad id or root, or a label count that is
    not the vertex count, raises ``ValueError``."""
    nodes, root, box = t
    if labels is not None and len(labels) != len(nodes):
        raise ValueError(f"expected {len(nodes)} labels, one per vertex, got {len(labels)}")
    if root is None:
        if nodes:
            raise ValueError(_ROOTLESS)
        return f"{box}:."
    try:
        if len(nodes) < _RECURSIVE_SIZE:
            try:
                return f"{box}:{_encode_small(nodes, labels, root)}"
            except RecursionError:
                pass
        return f"{box}:{_encode_large(nodes, labels, root)}"
    except IndexError:
        raise ValueError("a child id is out of range") from None


def encode(t: ColoredTree) -> str:
    """Canonical serialization ``boxcolor:(color L R)`` with ``.`` for gaps.

    Equal strings exactly characterize isomorphic colored trees.
    """
    return _encode(t, None)


def encode_labeled(lt: LabeledTree) -> str:
    """Like :func:`encode` but each vertex prints ``color|label``."""
    return _encode(lt.tree, lt.labels)


def multiset_key(trees: Sequence[ColoredTree]) -> tuple[str, ...]:
    """Order-free fingerprint of a collection of colored trees."""
    return tuple(sorted(map(encode, trees)))


def labeled_multiset_key(lts: Sequence[LabeledTree]) -> tuple[str, ...]:
    return tuple(sorted(map(encode_labeled, lts)))


# ---------------------------------------------------------------------------
# Deterministic enumeration


def size_word(n: int) -> tuple[int, ...]:
    """The color word of the single-color family of size n: n+1 zeros.

    Every family of size n is the family of this constant word.
    """
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    return (0,) * (n + 1)


def iter_words(alphabet: Sequence[int], max_len: int) -> Iterator[tuple[int, ...]]:
    """All words over the alphabet of lengths 1..max_len, shortest first."""
    for n in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def _grow_bpt(s: Sequence[int], nodes: list[Vertex]) -> Iterator[int | None]:
    """The trees with postorder colors ``s``, grown one at a time on the end
    of ``nodes``: each yields its root id while its vertices are on the list,
    and pops them before the next.  The root takes ``s[-1]``; the left
    subtree sizes ascend, then left subtrees vary, then right ones.  An empty
    ``s`` yields the empty tree's root, ``None``."""
    if not s:
        yield None
        return
    root = s[-1]
    for k in range(len(s)):
        for left in _grow_bpt(s[:k], nodes):
            for right in _grow_bpt(s[k:-1], nodes):
                nodes.append((root, left, right))
                yield len(nodes) - 1
                nodes.pop()


def iter_bpt_word(word: Sequence[int]) -> Iterator[ColoredTree]:
    """Colored trees of size ``len(word)-1`` with postorder colors
    ``word[:-1]`` and box color ``word[-1]``, node ids in postorder.

    For a word of length 1 this is the singleton family holding the empty
    tree with the prescribed box color.  The trees are grown in place on one
    vertex list, so memory stays linear in the size.
    """
    if len(word) < 1:
        raise ValueError("color word must be nonempty")
    box = word[-1]
    nodes: list[Vertex] = []
    for root in _grow_bpt(tuple(word[:-1]), nodes):
        yield _new(ColoredTree, (tuple(nodes), root, box))


def iter_branch_word(word: Sequence[int]) -> Iterator[ColoredTree]:
    """Colored branches with postorder colors ``word[:-1]`` and box
    ``word[-1]``; empty for words of length 1 (branches are nonempty).
    Vertex ``i``, from the bottom (0) up, has color ``word[i]`` and child
    ``i-1``; the child sides, read root-down, vary left first, lowest fastest."""
    n = len(word)
    if n < 1:
        raise ValueError("color word must be nonempty")
    if n == 1:
        return
    *colors, box = word
    leaf = (colors[0], None, None)
    # each vertex above the leaf, from the root down, with its child on either side
    choices = [((colors[i], i - 1, None), (colors[i], None, i - 1)) for i in range(n - 2, 0, -1)]
    for spine in itertools.product(*choices):
        yield _new(ColoredTree, ((leaf, *spine[::-1]), n - 2, box))


def iter_dbpt_word(word: Sequence[int]) -> Iterator[LabeledTree]:
    """Decreasing labeled colored trees of size ``len(word)-1``: the vertex
    labeled k has color ``word[k-1]`` and the box color is ``word[-1]``."""
    n = len(word)
    if n < 1:
        raise ValueError("color word must be nonempty")
    if n == 1:
        yield LabeledTree(ColoredTree((), None, word[0]), ())
        return
    box, colors = word[-1], (0, *word)
    for perm in itertools.permutations(range(1, n)):
        yield _decreasing_tree(perm, colors, box, ())


def _dbpt_counts(colors: tuple[int, ...], memo: dict) -> dict:
    """``{nodes: count}`` over the decreasing trees whose vertex colors, read
    in increasing label order, are ``colors``: ``nodes`` is a colored tree's
    vertices numbered in postorder, and ``count`` the number of decreasing
    labelings that give that tree.

    The root carries the largest label; the splits of the other labels into
    a left and a right set are grouped by their pair of color subwords.  The
    right subtrees of a split are renumbered past the left ones once per
    split.
    """
    counts = memo.get(colors)
    if counts is not None:
        return counts
    if not colors:
        counts = {(): 1}
    else:
        splits = {((), ()): 1}
        for c in colors[:-1]:
            grown: dict = {}
            for (left, right), k in splits.items():
                for key in ((left + (c,), right), (left, right + (c,))):
                    grown[key] = grown.get(key, 0) + k
            splits = grown
        root = colors[-1]
        counts = {}
        for (left, right), k in splits.items():
            size = len(left)
            top = size + len(right) - 1
            lroot = size - 1 if size else None
            node = (root, lroot, top if right else None)
            rights = [
                (tuple([(color, None if lc is None else lc + size,
                         None if rc is None else rc + size)
                        for color, lc, rc in rnodes]) + (node,), rk)
                for rnodes, rk in _dbpt_counts(right, memo).items()
            ]
            for lnodes, lk in _dbpt_counts(left, memo).items():
                for rnodes, rk in rights:
                    key = lnodes + rnodes
                    counts[key] = counts.get(key, 0) + k * lk * rk
    memo[colors] = counts
    return counts


def iter_dbpt(word: Sequence[int]) -> Iterator[tuple[ColoredTree, int]]:
    """The family of :func:`iter_dbpt_word` grouped by colored tree: one
    ``(tree, count)`` per distinct colored tree, ``count`` being the number
    of decreasing labelings that give it.  The counts sum to
    ``(len(word)-1)!``; node ids are postorder positions."""
    if len(word) < 1:
        raise ValueError("color word must be nonempty")
    box = word[-1]
    for nodes, count in _dbpt_counts(tuple(word[:-1]), {}).items():
        yield _new(ColoredTree, (nodes, len(nodes) - 1 if nodes else None, box)), count


TREE_KINDS = ("bpt", "branch", "dbpt")


def enumerate_trees(kind: str, word: Sequence[int]):
    """The family ``kind`` of a color word, dispatched to ``iter_<kind>_word``.

    ``bpt`` and ``branch`` yield :class:`ColoredTree`, ``dbpt`` yields
    :class:`LabeledTree`.  The enumerator is looked up in the module namespace
    on each call, so a wrapper bound to that name later is the one called.
    """
    kind = kind.lower()
    if kind not in TREE_KINDS:
        raise ValueError(f"unknown tree family {kind!r}")
    return globals()[f"iter_{kind}_word"](word)
