"""Pictorial chain objects: cycle diagrams with monotone edge labelings
(computing t(n,k,r) as a signed weight sum), permutation diagrams with
colorings, and the labeled binary trees that biject with maximal
decreasing chains of the lattice.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product
from operator import gt
from typing import Iterator, Mapping, NamedTuple, Sequence

from .lattice import CoverLabel, _admits, _raise
from .wpartition import WeightedPartition, _decode

__all__ = [
    "CycleDiagram",
    "enumerate_cycle_diagrams",
    "wt_k",
    "t_via_diagrams",
    "i_of_sigma",
    "enumerate_colorings",
    "diagram_to_decreasing_chain",
    "apply_chain",
    "LBT",
    "lbt_check",
    "enumerate_lbt",
    "lbt_to_chain",
    "chain_to_lbt",
]


# ---------------------------------------------------------------------------
# cycle diagrams

class _Diagram(NamedTuple):
    n: int
    edges: frozenset[tuple[int, int]]


class CycleDiagram(_Diagram):
    """An increasing forest on points 1..n: directed edges (i -> j) with
    i < j, every point has at most one incoming edge."""

    __slots__ = ()

    def __new__(cls, n: int, edges: frozenset[tuple[int, int]]):
        targets = [j for _, j in edges]
        if len(targets) != len(set(targets)):
            raise ValueError("at most one incoming edge per point")
        if not all(1 <= i < j <= n for i, j in edges):
            raise ValueError(f"edges must satisfy 1 <= i < j <= {n}")
        # increasing edges force the minimum of each component to be a root
        return super().__new__(cls, n, edges)

    @property
    def roots(self) -> list[int]:
        targets = {j for _, j in self.edges}
        return [p for p in range(1, self.n + 1) if p not in targets]

    def children(self, p: int) -> list[int]:
        return sorted(j for i, j in self.edges if i == p)


def enumerate_cycle_diagrams(n: int, r: int) -> Iterator[CycleDiagram]:
    """All diagrams with n points and r components; |C(n, r)| = |s(n, r)|."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    # every point j >= 2 picks an incoming edge from a smaller point, or none
    for parents in product(*(range(j) for j in range(2, n + 1))):
        # parents[j-2] in 0..j-1 for point j; 0 means root
        edges = frozenset((p, j) for j, p in zip(range(2, n + 1), parents) if p)
        if n - len(edges) == r:
            yield CycleDiagram(n, edges)


def wt_k(diagram: CycleDiagram, k: int) -> int:
    """Number of edge labelings with labels in [1, k] weakly increasing
    along every directed path (dynamic programming leaf-up)."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def g(v: int, c: int) -> int:
        # labelings of the subtree below v given the incoming edge label c
        prod_ = 1
        for w in diagram.children(v):
            prod_ *= sum(g(w, c2) for c2 in range(c, k + 1))
        return prod_

    total = 1
    for root in diagram.roots:
        for w in diagram.children(root):
            total *= sum(g(w, c) for c in range(1, k + 1))
    return total


def t_via_diagrams(n: int, k: int, r: int) -> int:
    """t(n, k, r) = (-1)^{n+r} sum over diagrams of wt_k."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    return (-1) ** (n + r) * sum(wt_k(c, k) for c in enumerate_cycle_diagrams(n, r))


# ---------------------------------------------------------------------------
# permutation diagrams with colorings

def i_of_sigma(sigma: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The pair set I(sigma) of a permutation with sigma_1 = 1: for each
    position j >= 2 take (sigma_i, sigma_j) with i the largest index < j
    such that sigma_i < sigma_j."""
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("input must be a permutation of [n]")
    if sigma[0] != 1:
        raise ValueError("the permutation must start with 1")
    pairs = set()
    for j in range(1, n):
        i = max(i for i in range(j) if sigma[i] < sigma[j])
        pairs.add((sigma[i], sigma[j]))
    return frozenset(pairs)


def enumerate_colorings(pairs: frozenset[tuple[int, int]], k: int
                        ) -> Iterator[dict[tuple[int, int], int]]:
    """All colorings: pairs containing the point 1 take colors in [1, k-1],
    every other pair in [1, k]."""
    ordered = sorted(pairs)
    ranges = [range(1, k) if 1 in p else range(1, k + 1) for p in ordered]
    for combo in product(*ranges):
        yield dict(zip(ordered, combo))


def diagram_to_decreasing_chain(pairs: frozenset[tuple[int, int]],
                                coloring: Mapping[tuple[int, int], int] | None,
                                n: int, k: int) -> tuple[CoverLabel, ...]:
    """The maximal decreasing chain of the colored diagram: the colored
    pairs sorted strictly decreasing, then (for k >= 2) the final (1,n)_k
    step into the top."""
    if coloring is None:
        coloring = {p: 1 for p in pairs}
    labels = [CoverLabel(a, b, coloring[(a, b)]) for a, b in pairs]
    labels.sort(key=lambda lab: lab.sort_key, reverse=True)
    if k >= 2:
        labels.append(CoverLabel(1, n, k))
    keys = [lab.sort_key for lab in labels]
    if not all(a > b for a, b in zip(keys, keys[1:])):
        raise ValueError("labels must strictly decrease")
    return tuple(labels)


def _chain_codes(n: int, k: int, labels: Sequence[CoverLabel], maximal: bool = False
                 ) -> list[bytes]:
    """The codes of the elements that ``labels`` visit from the bottom
    (bottom first), each label tested by :func:`~wplat.lattice._admits` and
    applied by :func:`~wplat.lattice._raise`.  Raises ValueError on a
    non-admissible step or a label past the top, and, when ``maximal``,
    unless the labels are a maximal chain into the top."""
    code = bytes(range(1, n + 1)) * k  # the bottom: every element its own block
    codes = [code]
    for pos, lab in enumerate(labels):
        if pos == n - 1:  # each cover raises the rank by one
            if k >= 2 and pos == len(labels) - 1 and lab == CoverLabel(1, n, k):
                break
            raise ValueError(f"label {lab} past the top of P")
        if not _admits(code, n, k, *lab):
            raise ValueError(f"label {lab} is not admissible at step {pos}")
        code = _raise(code, n, *lab)
        codes.append(code)
    if maximal:
        if k >= 2 and labels[-1] != CoverLabel(1, n, k):
            raise ValueError("a maximal chain must end with the (1,n)_k step")
        if len(labels) - (k >= 2) != n - 1 or len(codes) != n:
            raise ValueError("chain is not maximal")
    return codes


def apply_chain(n: int, k: int, labels: Sequence[CoverLabel]
                ) -> list[WeightedPartition]:
    """Apply cover labels starting from the bottom element, taking the one
    cover each label reaches (:func:`_chain_codes`); raises ValueError on a
    non-admissible step.  Returns the visited elements
    (bottom first).  The final (1,n)_k step into the adjoined top, if
    present, must be the last label."""
    return [_decode(n, k, code) for code in _chain_codes(n, k, labels)]


# ---------------------------------------------------------------------------
# labeled binary trees

class LBT(NamedTuple):
    """A node of a complete binary tree.  ``value``/``sub`` form the label
    (integer and subscript); the root carries None for both.  Leaves have
    no children."""

    value: int | None
    sub: int | None
    left: "LBT | None" = None
    right: "LBT | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def to_nested(self):
        """Nested-array serialization: [value, sub] for leaves,
        [[value, sub], left, right] for internal nodes."""
        if self.is_leaf:
            return [self.value, self.sub]
        label = None if self.value is None else [self.value, self.sub]
        return [label, self.left.to_nested(), self.right.to_nested()]


# an LBT, or a cover label, from the tuple of its fields, without the
# Python-level ``__new__`` of a NamedTuple: the tree builders make one per
# node, and the read-off one per label
_new_lbt = partial(tuple.__new__, LBT)
_new_label = partial(tuple.__new__, CoverLabel)


def _merge_label(lc: LBT, rc: LBT) -> CoverLabel:
    """e(v) of the internal node v with children ``lc`` and ``rc``: the
    cover label that the read-off emits when it deletes v."""
    return CoverLabel(lc.value, rc.value, lc.sub)


def _heap_ordered(lc: LBT, rc: LBT) -> bool:
    """S4 at the node with children ``lc`` and ``rc``: every internal child
    (a leaf has no left child) has a larger merge label than the node,
    compared as the labels' sort keys (-s, a, b) without building them."""
    key = (-lc.sub, lc.value, rc.value)
    for c in (lc, rc):
        if c.left is not None and not key < (-c.left.sub, c.left.value, c.right.value):
            return False
    return True


def lbt_check(tree: LBT, n: int, k: int) -> list[str]:
    """Violated conditions of the tree definition, empty when valid.

    The root is unlabeled; every other node is labeled a_s, a in [n], s in
    [k], and has no child or two.  S1: the leaf integers biject with [n].
    S2: siblings share a subscript, the left integer smaller.  S3:
    subscripts weakly increase toward the root.  S4 (heap order): each
    internal child of a node v has a larger merge label than v, where the
    merge label of a node with children a_s, b_s is the cover label (a,b)_s
    that :func:`lbt_to_chain` emits when it deletes the node.  S5: each
    labeled internal node draws its integer from its subtree (a right child
    only from the integers not used as a right-child label strictly inside
    it).  Root rule (k >= 2): the root's left child is not 1_k.
    """
    problems: list[str] = []
    if tree.value is not None or tree.sub is not None:
        problems.append("root must be unlabeled")
    leaves: list[int] = []
    found: list[str] = []
    _check_node(tree, True, n, k, leaves, found)
    if sorted(leaves) != list(range(1, n + 1)):
        problems.append("S1: leaf integers must be a bijection with [n]")
    problems += found
    if k >= 2:
        lc = tree.left
        if lc is not None and (lc.value, lc.sub) == (1, k):
            problems.append("left child of the root is labeled 1_k")
    return problems


def _node_name(node: LBT, is_root: bool) -> str:
    return "root" if is_root else f"node {node.value}_{node.sub}"


_NO_INTS: frozenset[int] = frozenset()


def _check_node(node: LBT, is_root: bool, n: int, k: int, leaves: list[int],
                found: list[str]) -> tuple[set[int], set[int]]:
    """Append the problems at and below node to ``found``, in pre-order, and
    its leaf integers to ``leaves``; return the label integers of its two
    subtrees and the integers used as a right-child label strictly inside
    it (:func:`lbt_check`).  S5 draws node's integer from the first set,
    less the second for a right child; both are filled bottom-up."""
    if not is_root:
        if node.value is None or not 1 <= node.value <= n:
            found.append("label integer out of range")
        if node.sub is None or not 1 <= node.sub <= k:
            found.append("label subscript out of range")
    lc, rc = node.left, node.right
    if lc is None or rc is None:
        if lc is None and rc is None:
            leaves.append(node.value)
            return _NO_INTS, _NO_INTS
        found.append(f"{_node_name(node, is_root)} has one child")
        return _check_node(rc if lc is None else lc, False, n, k, leaves, found)
    if not (lc.value < rc.value and lc.sub == rc.sub):
        found.append(f"S2: siblings {lc.value}_{lc.sub},{rc.value}_{rc.sub}")
    # S4 reads the children of internal children: a child with one child
    # is listed on its own instead
    elif ((lc.left is None) == (lc.right is None) and (rc.left is None) == (rc.right is None)
          and not _heap_ordered(lc, rc)):
        found.append(f"S4: a child of {_merge_label(lc, rc)} has a smaller merge label")
    if not is_root:
        if node.sub < lc.sub or node.sub < rc.sub:
            found.append("S3: subscripts must weakly increase to the root")
    at = len(found)  # S5 at the children comes before the problems below them
    left_below, left_inside = _check_node(lc, False, n, k, leaves, found)
    right_below, right_inside = _check_node(rc, False, n, k, leaves, found)
    # S5 applies to every labeled internal node, by its child position
    if (lc.left is not None or lc.right is not None) and lc.value not in left_below:
        found.insert(at, f"S5: left child {lc.value}_{lc.sub} label not allowed")
        at += 1
    if (rc.left is not None or rc.right is not None) and \
            rc.value not in right_below - right_inside:
        found.insert(at, f"S5: right child {rc.value}_{rc.sub} label not allowed")
    below = {*left_below, *right_below}
    for child in (lc, rc):
        if child.value is not None:
            below.add(child.value)
    inside = {*left_inside, *right_inside}
    if rc.value is not None:
        inside.add(rc.value)
    return below, inside


def _gen_subtrees(shape, ints: tuple[int, ...], is_right: bool, n: int, k: int,
                  memo: dict) -> tuple[tuple[LBT, ...], tuple[int, ...]]:
    """Labeled subtrees of the given shape over the given (ascending) leaf
    integers, with the subtree root labeled according to its child
    position, as two tuples in step: the subtrees, and the bitmask of the
    integers used as a right-child label in each (its root included when
    it is a right child).

    S5 draws a node's integer from the integers of its subtree, which are
    its leaf integers, as every node below draws from its own; a right
    child leaves out the right-child labels strictly inside it.

    No internal node is built that S2 or S4 refuses at every parent, the
    root included.  The node's sibling draws its integer from outside
    ``ints`` (S1 and S5), and the parent's merge key is (-s, v, w) with
    v < w (S2), v the left child's integer and w the right child's.
    - A right child (x = w) needs some v outside ``ints`` below w: the
      least integer outside ``ints`` must be below w.
    - A left child v_s with children a_t and b_t (t <= s by S3) needs
      some w outside ``ints`` above v, and at t = s also (v, w) < (a, b),
      as S4 needs its merge key (-t, a, b) above the parent's: v < a, or
      v = a and a < w < b.

    Each (shape, ints, is_right) is built once and kept in ``memo``, which
    lives for one :func:`enumerate_lbt` call."""
    key = (shape, ints, is_right)
    if key in memo:
        return memo[key]
    if shape == ():
        nodes = [_new_lbt((ints[0], s, None, None)) for s in range(1, k + 1)]
        masks = [1 << ints[0] if is_right else 0] * k
    else:
        nodes, masks = [], []
        outside = [u for u in range(1, n + 1) if u not in ints]  # the sibling's integers
        above = [w for w in ints if w > outside[0]]  # a right child's integers by S2
        below = [v for v in ints if v < outside[-1]]  # a left child's integers by S2
        for lc, rc, inside in _child_pairs(shape, ints, n, k, memo):
            if is_right:
                allowed = [w for w in above if not inside >> w & 1]
                for s in range(lc.sub, k + 1):
                    for w in allowed:
                        nodes.append(_new_lbt((w, s, lc, rc)))
                        masks.append(inside | 1 << w)
            else:
                a, b = lc.value, rc.value
                at_t = [v for v in below if v < a or v == a and any(a < u < b for u in outside)]
                for s in range(lc.sub, k + 1):
                    for v in below if s > lc.sub else at_t:
                        nodes.append(_new_lbt((v, s, lc, rc)))
                masks += [inside] * (len(nodes) - len(masks))
    memo[key] = out = (tuple(nodes), tuple(masks))
    return out


def _child_pairs(shape, ints: tuple[int, ...], n: int, k: int, memo: dict
                 ) -> Iterator[tuple[LBT, LBT, int]]:
    """The (left, right) children of a node of the given (non-leaf) shape
    over the given leaf integers that satisfy S2 and S4 at the node, in
    generation order, each with the bitmask of the right-child labels
    strictly inside the node.  S4 is hereditary, so no subtree that fails
    it is ever built; the left subtrees of a split are not built when it
    has no right subtree."""
    ls, rs = shape
    for left_ints, right_ints in _splits(ints, _count_leaves(ls)):
        rights: dict[int, list[int]] = {}  # positions by subscript, in generation order
        r_nodes, r_masks = _gen_subtrees(rs, right_ints, True, n, k, memo)
        for i, rc in enumerate(r_nodes):
            rights.setdefault(rc.sub, []).append(i)
        if not rights:
            continue
        l_nodes, l_masks = _gen_subtrees(ls, left_ints, False, n, k, memo)
        for lc, in_lc in zip(l_nodes, l_masks):
            for i in rights.get(lc.sub, ()):
                rc = r_nodes[i]
                if lc.value < rc.value and _heap_ordered(lc, rc):
                    yield lc, rc, in_lc | r_masks[i]


def _splits(ints: tuple[int, ...], nl: int
            ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(left, right) leaf-integer splits with ``nl`` integers on the left,
    left sets in combination order."""
    for left_ints in combinations(ints, nl):
        yield left_ints, tuple(v for v in ints if v not in left_ints)


def _shapes(n: int) -> list:
    if n == 1:
        return [()]
    out = []
    for nl in range(1, n):
        for ls in _shapes(nl):
            for rs in _shapes(n - nl):
                out.append((ls, rs))
    return out


def enumerate_lbt(n: int, k: int) -> list[LBT]:
    """All labeled binary trees for (n, k); |result| = |mu| of the lattice.

    Only trees that satisfy :func:`lbt_check` are built, so no filter and
    no lattice code runs.  Labeled subtrees are memoised per call: each
    (shape, leaf integers, child position) is built once, as a tuple of
    subtrees beside a tuple of their right-label masks, and holds no
    subtree that S2 or S4 refuses under every parent (:func:`_gen_subtrees`).
    At (6, 2) the memo holds 3,170 internal nodes, of which the 945 trees
    keep 909."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    memo: dict = {}
    return [_new_lbt((None, None, lc, rc))
            for shape in _shapes(n)
            for lc, rc, _ in _child_pairs(shape, tuple(range(1, n + 1)), n, k, memo)
            if k == 1 or (lc.value, lc.sub) != (1, k)]


def _count_leaves(shape) -> int:
    return 1 if shape == () else _count_leaves(shape[0]) + _count_leaves(shape[1])


# ---------------------------------------------------------------------------
# the chain <-> tree bijection

def lbt_to_chain(tree: LBT, k: int) -> tuple[CoverLabel, ...]:
    """Read off the maximal decreasing chain: repeatedly take, among the
    internal nodes with two leaf children, the one with the largest label
    pair, emit that label, and shrink the node to a leaf carrying its own
    label; finally (k >= 2) append the (1,n)_k step into the top.

    A node is freed only after every internal node below it, and its two
    subtrees free nodes independently, so a node's read-off is its
    subtrees' read-offs merged by largest label, then its own merge label.
    Each read-off is a subsequence of the whole, so the whole is strictly
    decreasing exactly when every node is heap-ordered (:func:`_heap_ordered`)
    and the merge labels are distinct and larger than the top step; it is
    then the merge labels sorted from the largest down.  Labels are compared
    as their sort keys (-s, a, b)."""
    keys = []
    ordered = True
    leaves = 0
    stack = [(tree, None)]  # each node with the key of the node above it
    while stack:
        node, above = stack.pop()
        lc, rc = node.left, node.right
        if lc is None or rc is None:
            if lc is not None or rc is not None:
                raise ValueError(f"{_node_name(node, node is tree)} has one child")
            leaves += 1
            continue
        key = (-lc.sub, lc.value, rc.value)
        ordered = ordered and (above is None or above < key)
        keys.append(key)
        stack += ((lc, key), (rc, key))
    keys.sort(reverse=True)
    if k >= 2:
        keys.append((-k, 1, leaves))
    if not ordered or not all(map(gt, keys, keys[1:])):
        raise ValueError("tree does not yield a strictly decreasing chain")
    return tuple([_new_label((a, b, -s)) for s, a, b in keys])


def chain_to_lbt(labels: Sequence[CoverLabel], n: int, k: int) -> LBT:
    """Inverse construction.  ``labels`` must be a maximal decreasing
    0^-to-top chain (checked against the cover relation)."""
    keys = [(-layer, alpha, beta) for alpha, beta, layer in labels]  # the sort keys
    if not all(map(gt, keys, keys[1:])):
        raise ValueError("chain labels must strictly decrease")
    codes = _chain_codes(n, k, labels, maximal=True)

    # the children of the working tree over each first-layer block (none
    # for a leaf), by the block's minimum: the step (a,b)_s joins the tree
    # of b, the minimum of its block, to the tree of f_1(a), read from the
    # code before the step, and the joined block keeps the smaller minimum
    children: list[tuple] = [(None, None)] * (n + 1)
    for (alpha, beta, layer), code in zip(labels[:n - 1], codes):
        a = code[alpha - 1]
        children[a] = (_new_lbt((alpha, layer, *children[a])),
                       _new_lbt((beta, layer, *children[beta])))
    return _new_lbt((None, None, *children[1]))
