"""The graded poset of weighted partitions: labeled covers, explicit
poset construction, EL-labeling verification, Möbius function,
characteristic polynomial, structure report.

For k >= 2 (and n >= 2) the poset adjoins a top element above the
single-block weighted partitions; for k = 1 the single-block partition is
already the unique top, so nothing is adjoined (this reproduces the
classical partition lattice).  The order is the reflexive-transitive
closure of the admissible covers.

The built order is graded, bounded, EL-labeled and atomistic, with the
paper's mu and characteristic polynomial.  For k >= 2 and n >= 3 it is not a
lattice and not upper semimodular: at (3,2), 13/2 and 1/23 have two minimal
upper bounds, (12)^2 3 and 123.  ``paper_join``/``paper_meet`` are the
layerwise block union and intersection, read off ``edge_set_inverse`` from
the union and the label-wise minimum of two edge sets: the bounds of the
layerwise refinement order, not of this one.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, reduce
from itertools import accumulate, chain, combinations, islice, repeat
from math import comb, factorial
from operator import add, and_, getitem, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

# defined in the package, so that the CLI can catch the errors, and the
# numbers commands read the guard, without this module
from . import DEFAULT_GUARD, GuardExceeded, RouteMismatch, _guard_limit
from .wpartition import (
    WeightedPartition,
    _code,
    _decode,
    _decode_chains,
    _id_chains,
    _set_partitions,
    edge_set,
    edge_set_inverse,
)
from .stirling import T_def

__all__ = [
    "CoverLabel",
    "GuardExceeded",
    "TOP",
    "DEFAULT_GUARD",
    "admissible_covers",
    "Poset",
    "build_poset",
    "check_guard",
    "mobius_closed_form",
    "paper_join",
    "paper_meet",
    "char_poly_summation",
    "char_poly_product",
    "char_poly_roots",
    "structural_checks",
    "hasse_dot",
]

# the closures and masks may take one 4 KiB page per unit of the guard: 781
# MiB at the default, which admits the structure report at (7,2) (177 MiB)
# and refuses it at (6,4) (948 MiB), and refuses the Möbius recursion's
# masks at (8,2) (2,178 MiB)
CLOSURE_BYTES_PER_GUARD = 4096
MAX_WITNESSES = 10  # witnesses listed per check; counts cover every case
DOT_CHUNK_LINES = 4096  # lines per write when a text is streamed (_write_chunks)


def check_guard(n: int, k: int, guard: int | None = None, chains: int = 0,
                closures: int = 0, interval_masks: bool = False) -> None:
    """Raise :class:`GuardExceeded` before any enumeration when (n, k) is
    too large.

    The estimate is max(sum_r T(n, k, r) + 1, |mu|, ``chains``): the poset's
    elements N (with the adjoined top), its decreasing chains, which are as
    many as the labeled binary trees, and any other chains the caller is
    about to list.  Every guarded command enumerates one or more of them.
    Memory may take CLOSURE_BYTES_PER_GUARD bytes per unit of the guard: a
    request is also refused when the elements' layers, one 8-byte pointer
    per layer (to its id in the element's chain), need more; when the
    ``closures`` of the order that the caller will build, each with a list
    of cover masks beside it, N^2/8 bytes each, need more (the structure
    report, the only reader of the closures, builds two closures and the
    masks of the lower and of the upper covers: at (6,3) a closure takes
    21.5 MiB, the lower-cover masks 19.5 MiB and the upper-cover masks
    10.4 MiB); and, for
    a caller that runs the Möbius recursion (``interval_masks``), when its
    masks need more: those of two adjacent rank levels, each as wide as the
    elements through the upper level (:meth:`Poset._mobius_up`), at the
    pair of levels where that is most, from the per-rank counts.
    The limit is ``guard``, else WPLAT_GUARD (an integer), else DEFAULT_GUARD.

    Lower bounds that cost nothing are tested first, so that no size is too
    large to refuse at once: N is at least 2^(n-1) (the set partitions
    whose one block of two or more holds 1) and at least C(n+k-1, n-1)
    (the elements whose one block of two or more at each layer is {1..m}),
    and each element holds k layers.  Past them n - 1 is under the guard's
    bit length, and the exact counts (:func:`_rank_counts`) loop in n
    only.
    """
    guard = _guard_limit(guard)
    if n - 1 >= guard.bit_length() or k > guard or comb(n + k - 1, n - 1) + 1 > guard:
        raise GuardExceeded(
            f"(n={n}, k={k}) needs more than {guard} elements or layers, "
            f"over the guard of {guard}; raise the guard to proceed")
    levels = _rank_counts(n, k) + [1]  # with the adjoined top
    size = sum(levels)
    estimate = max(size, abs(mobius_closed_form(n, k)), chains)
    if estimate > guard:
        raise GuardExceeded(
            f"(n={n}, k={k}) needs about {estimate} elements or chains, "
            f"over the guard of {guard}; raise the guard to proceed")
    masks = 0
    if interval_masks:  # one bit per element found through the upper level
        through = list(accumulate(levels))
        masks = max([(levels[r] + levels[r + 1]) * through[r + 1] // 8 for r in range(n)])
    limit = guard * CLOSURE_BYTES_PER_GUARD
    for need, what in (
            (8 * size * k, "the elements' layers"),  # one pointer per layer per element
            # a closure and a list of cover masks, N bits per element each
            (2 * closures * size * size // 8, "the order's closures and cover masks"),
            (masks, "the Möbius recursion's interval masks")):
        if need > limit:
            raise GuardExceeded(
                f"(n={n}, k={k}) needs about {need >> 20} MiB for {what}, over the "
                f"{limit >> 20} MiB that the guard of {guard} allows; raise the guard "
                f"to proceed")


def _rank_counts(n: int, k: int) -> list[int]:
    """The weighted partitions of [n] with k layers per rank r = 0..n-1,
    T(n, k, n - r) (n - r first-layer blocks).  Those of rank r are the
    multichains p_1 >= ... >= p_k of set partitions of [n] whose p_1 has
    rank r, so their count is a polynomial in k of degree r (a sum of zeta
    polynomials of partition lattices); for k > n it is read off the counts
    at k = 1..n by Newton's forward differences, with no loop in k."""
    if k <= n:
        return [T_def(n, k, n - r) for r in range(n)]
    values = [_rank_counts(n, j) for j in range(1, n + 1)]
    total = [0] * n
    for i in range(n):
        step = comb(k - 1, i)
        total = [t + step * v for t, v in zip(total, values[0])]
        values = [[b - a for a, b in zip(low, high)] for low, high in zip(values, values[1:])]
    return total


class CoverLabel(NamedTuple):
    """Edge label (alpha, beta)_layer; deeper layers compare smaller.

    Equality and hashing are those of the field tuple; all four order
    comparisons go through ``sort_key``, since the tuple's own would order
    by (alpha, beta, layer)."""

    alpha: int
    beta: int
    layer: int

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (-self.layer, self.alpha, self.beta)

    def __lt__(self, other: "CoverLabel") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "CoverLabel") -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "CoverLabel") -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other: "CoverLabel") -> bool:
        return self.sort_key >= other.sort_key

    def __str__(self) -> str:
        return f"({self.alpha},{self.beta})_{self.layer}"


class _Top:
    """Sentinel for the adjoined top element."""

    def __repr__(self) -> str:
        return "TOP"

    def __str__(self) -> str:
        return "1^"


TOP = _Top()


def _bits(m: int) -> Iterator[int]:
    """Positions of the set bits of ``m``, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _admits(code: bytes, n: int, k: int, alpha: int, beta: int, layer: int) -> bool:
    """The cover rule: (alpha, beta)_layer is admissible at the element with
    code ``code`` when 1 <= layer <= k, 1 <= alpha < beta <= n and
    f_layer(alpha) = alpha, f_1(beta) = beta; that is, alpha is the minimum
    of its layer-l block and beta of its first-layer block, which then
    differs from alpha's."""
    return (1 <= layer <= k and 1 <= alpha < beta <= n
            and code[(layer - 1) * n + alpha - 1] == alpha and code[beta - 1] == beta)


def _labels_from_minima(minima) -> list[tuple[int, int, int]]:
    """The labels (alpha, beta, l) that :func:`_admits` accepts at an element
    whose layer-l blocks have the ascending minima ``minima[l - 1]``, in label
    order (deeper layers first): alpha a layer-l minimum, beta > alpha a
    first-layer minimum."""
    return [(alpha, beta, l) for l in range(len(minima), 0, -1) for alpha in minima[l - 1]
            for beta in minima[0] if beta > alpha]


def _admissible(code: bytes, n: int, k: int) -> list[tuple[int, int, int]]:
    """The labels (alpha, beta, l) that :func:`_admits` accepts at the
    element with code ``code``, in label order (deeper layers first)."""
    return _labels_from_minima([[e for e, m in enumerate(code[j:j + n], 1) if m == e]
                                for j in range(0, k * n, n)])


_BYTES = [bytes((i,)) for i in range(256)]  # each byte value as a bytes object


def _raise(code: bytes, n: int, alpha: int, beta: int, layer: int) -> bytes:
    """The code of the cover (alpha, beta)_layer: the alpha- and beta-blocks
    merge at every layer <= ``layer``.  beta is the minimum of its block at
    every layer, so each byte beta of f_l becomes f_l(alpha) < beta.  Each
    layer is replaced apart, so the first l layers of the raise at a layer
    above l are those of the raise at l."""
    b = _BYTES[beta]
    head = b""
    for j in range(0, layer * n, n):
        head += code[j:j + n].replace(b, _BYTES[code[j + alpha - 1]])
    return head + code[layer * n:]


def admissible_covers(pi: WeightedPartition) -> list[tuple[CoverLabel, WeightedPartition]]:
    """All covers of pi inside P_n^(k), sorted by label: the labels of
    :func:`_admissible`, each with the partition :func:`_raise` reaches.
    Rank n-1 elements have no covers inside P.
    """
    n, k = pi.n, pi.k
    code = _code(pi)
    return [(CoverLabel(*step), _decode(n, k, _raise(code, n, *step)))
            for step in _admissible(code, n, k)]


def _closure_above(order: list[int], up: list[list[int]]) -> list[int]:
    """Per element, the mask of itself and the elements above it, pulled
    from its upper covers ``up`` along ``order`` reversed; ``order`` lists
    every element before its upper covers."""
    masks = [0] * len(up)
    for y in reversed(order):
        m = 1 << y
        for z in up[y]:
            m |= masks[z]
        masks[y] = m
    return masks


def _closure_below(order: list[int], up: list[list[int]]) -> list[int]:
    """Per element, the mask of itself and the elements below it, pushed
    from each element to its upper covers ``up`` along ``order``, which
    lists every element before its upper covers."""
    masks = [0] * len(up)
    for y in order:
        m = masks[y] = masks[y] | 1 << y
        for z in up[y]:
            masks[z] |= m
    return masks


def _least_first_code(least: dict[int, int], w: int, context: tuple) -> int:
    """The least label code that starts a strictly decreasing chain from w
    to y, or the number of labels, above every code, when there is none.
    ``least`` is the decreasing walk's table: it holds -1 at y, whose empty
    chain may follow any code, and every value found so far, and the value
    is stored in it.  ``context`` is (up, up_codes, rank, rank of y less 1,
    y, the mask of the elements below y, the number of labels).

    The value is the least code c of a cover w < v inside the mask whose
    own value is below c.  Every such cover is read, so the codes of an up
    list need not ascend; a cover whose code is not below the least found
    so far cannot lower it, and its upper end is not looked up.  An element
    one rank below y lies below y only by its cover to y, whose code is its
    value.  So the table holds only elements that the walk reaches below y,
    and of those only the ones that the walk or a value asks for.
    """
    up, codes, rank, beneath, y, below_y, first = context
    adj = up[w]
    if rank[w] == beneath:
        if y in adj:  # a cut order's top may miss an element of that rank
            first = codes[w][adj.index(y)]
    else:
        for v, c in zip(adj, codes[w]):
            if c < first and below_y >> v & 1 and (
                    least[v] if v in least else _least_first_code(least, v, context)) < c:
                first = c
    least[w] = first
    return first


class Poset:
    """The explicit order for given (n, k), graded, bounded, EL-labeled and,
    for k >= 2 and n >= 3, not a lattice: indexed elements, labeled covers,
    rank function, order queries, chains, Möbius values.

    ``id_chains`` is one flat list that holds, per element but an adjoined
    top and in element order, the ids p_1, ..., p_k of its chain of set
    partitions (``wpartition._id_chains``); an adjoined top comes last and
    has no chain.  The rank of an element is n less the number of blocks of
    p_1, and n for the top.  ``labels`` lists the labels in label order,
    and a label's code is its index there.  The one stored form of the
    order is ``up[x]``, the list of x's upper covers in the order that
    chains are listed in (:func:`build_poset` emits them in label order),
    beside ``up_codes[x]``, the tuple of their label codes in step with it;
    elements with the same labels may share one tuple.  The weighted
    partitions ``elements`` and their names, ``covers`` and the closures
    ``_anc`` and ``_desc`` (each holding its element) are derived on first
    use.  ``_rank_order`` lists the int objects of ``indices`` (default:
    new ones), so that a caller that holds the indices already
    (:func:`build_poset`) makes no second int per element."""

    def __init__(self, n: int, k: int, id_chains: list, labels: list,
                 up: list, up_codes: list, bottom_idx: int, top_idx: int,
                 indices: Iterable[int] | None = None):
        self.n = n
        self.k = k
        self.id_chains = id_chains  # p_1..p_k per element in turn, bar an adjoined top
        self.labels = labels      # CoverLabel per code
        self.up = up              # per element, its upper covers
        self.up_codes = up_codes  # per element, the label codes of its upper covers
        self.bottom_idx = bottom_idx
        self.top_idx = top_idx
        # each first id's rank: n less the blocks of its layer
        ranks = [n - len(layer) for layer in _set_partitions(n)[1]]
        self.rank = list(map(ranks.__getitem__, islice(id_chains, 0, None, k)))
        self.rank += [n] * (len(up) - len(self.rank))
        self._rank_order = sorted(range(len(up)) if indices is None else indices,
                                  key=self.rank.__getitem__)

    def _decoded(self) -> Iterator:
        """The weighted partitions, decoded afresh from ``id_chains`` one at
        a time, then the adjoined top (TOP), if any."""
        chained = _decode_chains(self.n, self.k, self.id_chains)
        return chain(chained, repeat(TOP, len(self.up) - len(self.id_chains) // self.k))

    @cached_property
    def elements(self) -> list:
        """The weighted partitions, decoded from ``id_chains``, then the
        adjoined top (TOP), if any."""
        return list(self._decoded())

    @cached_property
    def covers(self) -> list[tuple[int, int, CoverLabel]]:
        """The covers (lower index, upper index, label), by lower index."""
        labels = self.labels
        return [(lo, hi, labels[c]) for lo, (adj, codes) in enumerate(zip(self.up, self.up_codes))
                for hi, c in zip(adj, codes)]

    @cached_property
    def _anc(self) -> list[int]:
        """Per element, the bitmask of the elements below it, itself included."""
        return _closure_below(self._rank_order, self.up)

    @cached_property
    def _desc(self) -> list[int]:
        """Per element, the bitmask of the elements above it, itself included."""
        return _closure_above(self._rank_order, self.up)

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.up)

    @cached_property
    def _names(self) -> list[str]:
        """One-line names of all elements."""
        return [str(el) for el in self.elements]

    def element_name(self, i: int) -> str:
        return self._names[i]

    def leq(self, x: int, y: int) -> bool:
        return bool(self._anc[y] >> x & 1)

    def interval(self, x: int, y: int) -> list[int]:
        """Members of [x, y], ordered by rank then index."""
        if not self.leq(x, y):
            raise ValueError("interval requires x <= y")
        return sorted(_bits(self._anc[y] & self._desc[x]), key=lambda z: (self.rank[z], z))

    # -- chains -------------------------------------------------------------

    def _walk(self, x: int, y: int, order: str | None = None
              ) -> Iterator[tuple[CoverLabel, ...]]:
        """Label sequences of the saturated chains from x to y, in cover
        order: all of them (``order`` None), or those whose label codes
        weakly rise ("rising") or strictly fall ("decreasing").  Each step
        tries only the codes in [lo, hi) that may follow the step before
        it, so a prefix that breaks the order is not extended.

        The mask of the elements below y only prunes steps that cannot reach
        y.  Every element of a built order lies below its top, so a walk to
        the top reads no closure: -1 has every bit set.  The decreasing walk
        also enters a cover with code c only when some decreasing chain from
        its upper end to y starts below c, as its table of least first codes
        tells (:func:`_least_first_code`), so every prefix that it extends
        ends in a chain; it lists the same chains in the same order.  A walk
        of one step needs no table."""
        below_y = -1 if y == self.top_idx else self._anc[y]
        if not below_y >> x & 1:
            return
        if x == y:
            yield ()
            return
        labels, up, codes = self.labels, self.up, self.up_codes
        rising, falling = order == "rising", order == "decreasing"
        none = len(labels)  # above every code
        least = context = None
        if falling and self.rank[y] - self.rank[x] > 1:
            least = {y: -1}
            context = (up, codes, self.rank, self.rank[y] - 1, y, below_y, none)
        path: list[CoverLabel] = []  # the labels of the steps taken
        # per step taken and x: the covers left to try, and the codes
        # [lo, hi) that may come next
        stack = [(zip(up[x], codes[x]), 0, none)]
        while stack:
            covers, lo, hi = stack[-1]
            for nxt, c in covers:
                if lo <= c < hi and below_y >> nxt & 1:
                    if nxt == y:
                        yield (*path, labels[c])
                    elif least is None or (least[nxt] if nxt in least else
                                           _least_first_code(least, nxt, context)) < c:
                        path.append(labels[c])
                        stack.append((zip(up[nxt], codes[nxt]),
                                      c if rising else 0, c if falling else none))
                        break
            else:
                stack.pop()
                if path:
                    path.pop()

    def maximal_chains(self, x: int, y: int) -> Iterator[tuple[CoverLabel, ...]]:
        """Label sequences of every saturated chain from x to y."""
        return self._walk(x, y)

    def rising_chains(self, x: int, y: int) -> Iterator[tuple[CoverLabel, ...]]:
        """Maximal chains with weakly rising labels."""
        return self._walk(x, y, "rising")

    def decreasing_chains(self, x: int, y: int) -> Iterator[tuple[CoverLabel, ...]]:
        """Maximal chains with strictly decreasing labels."""
        return self._walk(x, y, "decreasing")

    def chain_count(self) -> int:
        """The number of maximal chains from the bottom to the top, counted
        up the covers in rank order without listing them."""
        count = [0] * len(self.up)
        count[self.bottom_idx] = 1
        for x in self._rank_order:
            for z in self.up[x]:
                count[z] += count[x]
        return count[self.top_idx]

    # -- EL verification ----------------------------------------------------

    def verify_el(self) -> dict:
        """Check that the cover labels are an EL-labeling (Björner–Wachs):
        in every interval [x, y] exactly one maximal chain is weakly rising,
        and its label sequence is strictly lexicographically first.

        For each x, one pass up the order (:meth:`_el_pass`) counts the
        weakly rising chains from x to every y, finds the lex-first label
        sequence, how many chains carry it and whether it rises.  [x, y]
        passes when it has exactly one weakly rising chain, one chain
        carries the lex-first sequence, and that sequence rises.  Only an
        interval that fails is enumerated with :meth:`maximal_chains`, to
        report its witness; when that finds no fault, the two routes
        disagree and :class:`wplat.RouteMismatch` names the interval.
        """
        witnesses = []
        up, codes = self.up, self.up_codes
        for x in range(len(up)):
            failing = [y for y, rising, _, carriers, rises in self._el_pass(x, up, codes)
                       if not (rising == 1 and carriers == 1 and rises)]
            for y in sorted(failing):
                witness = self._el_witness(x, y)
                if witness is None:
                    raise RouteMismatch(
                        f"el routes disagree on [{self.element_name(x)}, "
                        f"{self.element_name(y)}]: the level pass fails it, "
                        f"its maximal chains pass")
                witnesses.append(witness)
        return {"check": "el", "status": "pass" if not witnesses else "fail",
                "witnesses": witnesses}

    @staticmethod
    def _el_pass(x: int, up: Sequence[Sequence[int]], codes: Sequence[Sequence[int]]
                 ) -> Iterator[tuple[int, int, tuple[int, ...], int, bool]]:
        """Per element y >= x, as the pass reaches it: y, the number of
        weakly rising chains from x to y, the lex-first label-code sequence
        from x to y, the number of chains that carry it, and whether it is
        weakly rising; ``up`` holds per element its upper covers and
        ``codes`` their label codes, in step.

        One pass up from x, a level at a time, with constant work per cover
        but for one rare case.  Every chain from x to y has the same length,
        so the lex-first sequence to y extends the lex-first sequence to one
        of y's lower covers z by the label c of z < y: it is the least pair
        (sequence to z, c), extended once, when the pass reaches y; it rises
        when z's does and z's last code is at most c.  Its carriers are
        those of the lower covers that reach it; this holds when labels
        collide too.  The rising chains to y are kept with their total and
        their least and greatest last code: a cover whose code is at or
        above the greatest extends all of them, one below the least none,
        and only a code strictly between sums the chains by last code at or
        below it.  While the rising chains end in one code, least and
        greatest are that code and no chains are kept by code; a second
        code starts a {last code: chains} dict.  A built order is
        EL-labeled, so each y has one rising chain from x, no dict is made
        and the sum never runs; both happen on orders with relabeled covers.
        """
        # element -> [rising chains by last code (None while they end in
        # one code), their total, least and greatest last code, lex to a
        # lower cover, its code (the best pair), carriers, whether that lex
        # rises]
        level = {x: [None, 1, -1, -1, (), None, 1, True]}
        unset = float("inf")  # the least last code while there is none
        while level:
            above: dict[int, list] = {}
            for z, (ends, total, least, greatest, lex, code, carriers, rises) in level.items():
                if code is not None:  # z > x: extend the lower cover's sequence
                    rises = rises and (not lex or lex[-1] <= code)
                    lex += (code,)
                yield z, total, lex, carriers, rises
                for w, c in zip(up[z], codes[z]):
                    if c >= greatest:
                        chains = total
                    elif c < least:
                        chains = 0
                    else:
                        chains = sum(m for l, m in ends.items() if l <= c)
                    node = above.get(w)
                    if node is None:
                        if chains:
                            above[w] = [None, chains, c, c, lex, c, carriers, rises]
                        else:
                            above[w] = [None, 0, unset, -1, lex, c, carriers, rises]
                        continue
                    best = node[4]
                    if lex < best or lex == best and c < node[5]:
                        node[4:] = lex, c, carriers, rises
                    elif lex == best and c == node[5]:
                        node[6] += carriers
                    if chains:
                        low = node[2]
                        if node[1] == 0:  # the first rising chains
                            node[1:4] = chains, c, c
                            continue
                        node[1] += chains
                        by_code = node[0]
                        if by_code is None:
                            if c == low:  # still one last code
                                continue
                            by_code = node[0] = {low: node[1] - chains}
                        by_code[c] = by_code.get(c, 0) + chains
                        if c < low:
                            node[2] = c
                        if c > node[3]:
                            node[3] = c
            level = above

    def _el_witness(self, x: int, y: int) -> dict | None:
        """The EL finding for [x, y] by enumerating its maximal chains, or
        None when the interval passes."""
        chains = sorted(self.maximal_chains(x, y),
                        key=lambda ch: [lab.sort_key for lab in ch])
        rising = [ch for ch in chains
                  if all(a.sort_key <= b.sort_key for a, b in zip(ch, ch[1:]))]
        interval = [self.element_name(x), self.element_name(y)]
        if len(rising) != 1:
            return {"interval": interval,
                    "issue": f"{len(rising)} rising chains",
                    "rising": [[str(l) for l in ch] for ch in rising]}
        if chains[0] != rising[0] or (len(chains) > 1 and chains[1] == chains[0]):
            return {"interval": interval,
                    "issue": "rising chain is not strictly lex-first",
                    "rising": [str(l) for l in rising[0]],
                    "lex_first": [str(l) for l in chains[0]]}
        return None

    # -- Möbius -------------------------------------------------------------

    def _mobius_up(self, x: int, last: int) -> Iterator[tuple[int, int]]:
        """(z, mu(x, z)) for every z >= x of rank up to ``last``, by the
        defining recursion mu(x, z) = -sum_{x <= w < z} mu(x, w), a rank
        level at a time.

        No closure is read: the mask of [x, z] is pushed up the covers, the
        OR of the masks of z's lower covers that lie above x with z's own
        bit.  A bit is a position in the pass's own rank order, given to
        each z in turn as its level is reached, so a mask is as wide as the
        elements >= x found through z's rank, and only the masks of the
        current level and the next are held.  The sum is taken by value:
        ``found[v]`` is the mask of the w >= x found so far with mu(x, w) =
        v, so each z costs one AND and count per value, not one step per w
        below it."""
        up = self.up
        found = {1: 1}  # mu value -> the mask of the w found with it
        level = {x: 1}  # each z >= x of the current rank -> the mask of [x, z]
        bit = 1
        yield x, 1
        for _ in range(self.rank[x], last):
            above: dict[int, int] = {}
            for w, mask in level.items():
                for z in up[w]:
                    below = above.get(z)
                    above[z] = mask if below is None else below | mask
            for z, below in above.items():
                m = -sum([v * (below & seen).bit_count() for v, seen in found.items()])
                bit <<= 1
                above[z] = below | bit
                if m:
                    found[m] = found.get(m, 0) | bit
                yield z, m
            level = above

    def _mobius_from(self, x: int) -> list[int]:
        """mu(x, z) for every element z (0 unless x <= z), by the recursion
        of :meth:`_mobius_up`."""
        mu = [0] * len(self.up)
        for z, m in self._mobius_up(x, self.rank[self.top_idx]):
            mu[z] = m
        return mu

    def mobius_from_bottom(self) -> list[int]:
        """mu(0^, z) for every element z."""
        return self._mobius_from(self.bottom_idx)

    def mobius_recursive(self, x: int, y: int) -> int:
        """mu(x, y) by the defining recursion (:meth:`_mobius_up`), pushed
        up from x through y's rank; x <= y when the pass reaches y.  It
        reads neither closure."""
        for z, m in self._mobius_up(x, self.rank[y]):
            if z == y:
                return m
        raise ValueError("mobius requires x <= y")

    def mobius_row_via_chains(self) -> list[int]:
        """mu(0^, z) for every element z by the falling-chain formula:
        (-1)^rank(z) times the number of strictly decreasing maximal chains
        from the bottom to z, which holds for an EL-labeling (Björner 1980;
        :meth:`verify_el` checks the premise).

        One pass up the covers in rank order carries, per element, its
        decreasing chains counted by the code of their last label; the
        chains that a cover with code c extends are those whose last code is
        above c.  It reads only ``up`` and ``up_codes``, not the closures."""
        size = len(self.up)
        up, up_codes, rank, base = self.up, self.up_codes, self.rank, self.rank[self.bottom_idx]
        ends: list[dict[int, int] | None] = [None] * size  # last code -> chains
        ends[self.bottom_idx] = {len(self.labels): 1}  # the empty chain: any label follows
        mu = [0] * size
        for w in self._rank_order:
            last = ends[w]
            if last is None:
                continue
            ends[w] = None
            codes = sorted(last)
            above = [0] * (len(codes) + 1)  # above[i]: chains with last code >= codes[i]
            for i in range(len(codes) - 1, -1, -1):
                above[i] = above[i + 1] + last[codes[i]]
            mu[w] = -above[0] if (rank[w] - base) & 1 else above[0]
            for z, c in zip(up[w], up_codes[w]):
                chains = above[bisect_right(codes, c)]
                if chains:
                    after = ends[z]
                    if after is None:
                        ends[z] = {c: chains}
                    else:
                        after[c] = after.get(c, 0) + chains
        return mu

    def mobius_via_chains(self) -> int:
        """(-1)^{rank of top} times the number of maximal decreasing
        0^-to-top chains, counted by :meth:`mobius_row_via_chains`."""
        return self.mobius_row_via_chains()[self.top_idx]


def build_poset(n: int, k: int, guard: int | None = None, closures: int = 0,
                interval_masks: bool = False) -> Poset:
    """Construct the poset for (n, k) explicitly: the elements of
    :func:`enumerate_all` in that order, each with its upper covers in label
    order (``Poset.up``) beside their codes (``Poset.up_codes``); then for
    k >= 2 and n >= 2 the adjoined top.  The
    labels are all k n(n-1)/2 of them, since each is admissible at the bottom.

    Each element is a chain p_1 >= ... >= p_k of set partitions of [n], read
    from ``wpartition._id_chains`` as its ids (``wpartition._set_partitions``,
    B of them) and its key, the integer sum_j p_j B^(j-1); no partition is
    built (``Poset.elements`` decodes them on first read).  One walk of the
    chains fills the flat list of their ids (``Poset.id_chains``) and the
    dict from each key to its element's index; the keys are then read back
    in the dict's order, and no (ids, key) pair or id tuple is kept.  The
    index ints are the ones that the up lists and ``Poset._rank_order``
    hold.  The cover (alpha, beta)_l replaces p_1, ..., p_l by their
    merges of the alpha- and beta-blocks, read from a row per partition that
    :func:`_raise` fills once on the partition's one-layer code, so a
    cover's key is the element's plus a few row entries, and no partition
    and no code is built per cover.  The cover rule reads only which bytes
    of the element's block-minimum code are fixed points, the minima of each
    p_j, so :func:`_labels_from_minima` lists the labels once per
    fixed-point pattern, and those at layers < k once per prefix p_1, ...,
    p_(k-1).

    :func:`check_guard` (with ``guard``, the number of closures
    ``closures`` that the caller will read, each with its cover masks, and
    whether it will run the Möbius recursion on ``interval_masks``) aborts
    with :class:`GuardExceeded` before any enumeration.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    check_guard(n, k, guard, closures=closures, interval_masks=interval_masks)

    # one walk of the chains: their ids, flat, and each key to its index;
    # the keys are read back in the dict's order, which is the elements'
    chains: list[int] = []
    index: dict[int, int] = {}
    for ids, key in _id_chains(n, k):
        index[key] = len(index)
        chains += ids
    codes, full, _ = _set_partitions(n)
    size = len(codes)
    weights = [size ** j for j in range(k)]

    # merges[p][alpha n + beta]: the id of p with the alpha- and beta-blocks
    # merged, less p, for each block minimum beta of p and alpha < beta
    code_id = dict(zip(codes, range(size)))
    minima = [tuple([e for e, m in enumerate(code, 1) if m == e]) for code in codes]
    merges = []
    for p, code in enumerate(codes):
        row = [0] * (n * n + 1)
        for beta in minima[p][1:]:
            for alpha in range(1, beta):
                row[alpha * n + beta] = code_id[_raise(code, n, alpha, beta, 1)] - p
        merges.append(row)

    # every label, in label order: all of them are admissible at the bottom
    labels = [CoverLabel(*step) for step in _admissible(bytes(range(1, n + 1)) * k, n, k)]
    label_code = {lab: c for c, lab in enumerate(labels)}  # also keyed by plain tuples

    # The cover (alpha, beta)_l adds to the element's key the merges of
    # p_1..p_l, each weighted: entry alpha n + beta of ``sums[l]``, their
    # rows added up.  ``sums`` and the offsets ``tail`` of the covers at
    # layers < k are the same for every element of one prefix p_1..p_(k-1),
    # which the canonical order lists together, so they are read once per
    # prefix.  The labels are listed once per fixed-point pattern, keyed by
    # the integer whose bits n(j-1)..nj-1 mark the minima of p_j: those at
    # layers < k per prefix pattern (``lower_plans``), the codes of all of
    # them and the pairs at layer k per element pattern (``plans``).  Every
    # element of a pattern shares its tuple of codes, one object per
    # distinct tuple; an element of rank n - 1, whose p_1 is one block, has
    # no label but the adjoined top's.
    adjoined = k >= 2 and n >= 2
    whole = [len(layer) for layer in full].index(1)  # the one-block partition
    top_codes = (label_code[1, n, k],) if adjoined else ()
    fixed = [sum([1 << e - 1 for e in mins]) for mins in minima]
    fixed = [[m << n * j for m in fixed] for j in range(k)]
    lower_plans: dict[int, tuple[list, list[tuple[int, int]]]] = {}
    plans: dict[int, tuple[tuple[int, ...], list[int]]] = {}
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    up: list[list[int]] = []
    up_codes: list[tuple[int, ...]] = []
    top_idx = len(index)  # the adjoined top's index, if there is one
    prefix = None
    last = weights[-1]
    for (key, x), ids in zip(index.items(), zip(*[iter(chains)] * k)):
        if ids[:-1] != prefix:
            prefix = ids[:-1]
            head = sum(map(getitem, fixed, prefix))
            if head not in lower_plans:
                mins = list(map(minima.__getitem__, prefix))
                lower_plans[head] = mins, [(l, a * n + b) for a, b, l in _labels_from_minima(mins)]
            mins, lower = lower_plans[head]
            sums = [[0] * (n * n + 1)]
            for p, weight in zip(prefix, weights):
                sums.append(list(map(add, sums[-1], map(mul, merges[p], repeat(weight)))))
            above = sums[-1]
            tail = [sums[l][t] for l, t in lower]
        q = ids[-1]
        plan = plans.get(head + fixed[-1][q])
        if plan is None:
            steps = _labels_from_minima(mins + [minima[q]])
            codes = tuple(map(label_code.__getitem__, steps))
            if ids[0] == whole:
                codes += top_codes
            plan = plans[head + fixed[-1][q]] = (
                shared.setdefault(codes, codes), [a * n + b for a, b, l in steps if l == k])
        label_codes, pairs = plan
        up_codes.append(label_codes)
        if ids[0] == whole:  # rank n - 1: no cover inside P, only the adjoined top
            if adjoined:
                up.append([top_idx])
                continue
            top_idx = x
        row = merges[q]
        # one concatenation, so that the list holds no spare slots
        up.append([index[key + above[t] + row[t] * last] for t in pairs]
                  + [index[key + d] for d in tail])
    if adjoined:
        up.append([])
        up_codes.append(())

    bottom_idx = index[code_id[bytes(range(1, n + 1))] * sum(weights)]
    indices = chain(index.values(), [top_idx] if adjoined else [])
    poset = Poset(n, k, chains, labels, up, up_codes, bottom_idx, top_idx, indices)
    del index  # before the checks below build their set

    # sanity: grading and reachability, raised rather than asserted so that
    # ``python -O`` keeps them.  In a graded order every element is
    # reachable from the bottom when each element of rank >= 1 has a lower
    # cover and the bottom is the only one of rank 0: then the upper ends of
    # the covers are all elements but one.
    rank = poset.rank
    if not all(rank[hi] == rank[lo] + 1 for lo, adj in enumerate(up) for hi in adj):
        raise RouteMismatch("cover must raise rank by 1")
    if len(set().union(*up)) != len(up) - 1:
        raise RouteMismatch("every element must be reachable from the bottom")
    return poset


def mobius_closed_form(n: int, k: int) -> int:
    """mu of the full poset: (-1)^n prod_{j=0}^{n-2} (k(j+1)-1) for
    k >= 2; the classical (-1)^{n-1} (n-1)! for k = 1; 1 for n = 1."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if n == 1:
        return 1
    if k == 1:
        return (-1) ** (n - 1) * factorial(n - 1)
    prod = 1
    for j in range(n - 1):
        prod *= k * (j + 1) - 1
    return (-1) ** n * prod


# ---------------------------------------------------------------------------
# layerwise join / meet, characteristic polynomial

def paper_join(x: WeightedPartition, y: WeightedPartition) -> WeightedPartition:
    """Layerwise join: the blocks of layer l are the connected components of
    the pairs labeled >= l in either partition's edge set."""
    if (x.n, x.k) != (y.n, y.k):
        raise ValueError("join requires matching (n, k)")
    return edge_set_inverse(edge_set(x) | edge_set(y), x.n, x.k)


def paper_meet(x: WeightedPartition, y: WeightedPartition) -> WeightedPartition:
    """Layerwise meet: each pair in both edge sets keeps the smaller of its
    two labels.  The pairs labeled >= l in both partitions form the
    intersection of two equivalences, so they are already the classes of
    layer l."""
    if (x.n, x.k) != (y.n, y.k):
        raise ValueError("meet requires matching (n, k)")
    x_label = {(i, j): l for i, j, l in edge_set(x)}
    return edge_set_inverse([(i, j, min(l, x_label[i, j])) for i, j, l in edge_set(y)
                             if (i, j) in x_label], x.n, x.k)


def char_poly_summation(n: int, k: int, poset: Poset | None = None) -> list[int]:
    """Coefficients [c_0, ..., c_n] of the characteristic polynomial by
    Möbius summation: c_r is the Whitney number of the first kind w_r, the
    sum of mu(0^, pi) over the weighted partitions with r first-layer
    blocks, with mu from the decreasing-chain pass
    (:meth:`Poset.mobius_row_via_chains`)."""
    if poset is None:
        poset = build_poset(n, k)
    coeffs = [0] * (n + 1)
    mu = poset.mobius_row_via_chains()
    for r, m in zip(poset.rank[:len(poset.id_chains) // poset.k], mu):  # the adjoined top has none
        coeffs[n - r] += m
    return coeffs


def char_poly_roots(n: int, k: int) -> list[int]:
    return [k * j for j in range(n)]


def char_poly_product(n: int, k: int) -> list[int]:
    """Coefficients of prod_{j=0}^{n-1} (x - k j), ascending."""
    coeffs = [1]
    for root in char_poly_roots(n, k):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= root * c
        coeffs = nxt
    return coeffs


# ---------------------------------------------------------------------------
# structural checks and rendering

def _unique_bounds(above: list[int], below: list[int], covers: list[int]) -> Iterator[int]:
    """Per x, the mask of the y for which {x, y} has exactly one minimal
    upper bound, from the masks of the z >= x, of the z <= x and of the lower
    covers of z (lower bounds: swap the first two, pass upper covers).  z >= x
    is a minimal upper bound for y when y <= z and y lies below no lower cover
    w >= x of z; bit-sliced "once"/"twice" counters add these masks over z."""
    for beyond in above:
        once = twice = 0
        for z in _bits(beyond):
            blocked = 0
            for w in _bits(beyond & covers[z]):
                blocked |= below[w]
            hit = below[z] & ~blocked
            twice |= once & hit
            once |= hit
        yield once & ~twice


def structural_checks(poset: Poset) -> list[dict]:
    """What the built order is, from its closures and cover masks: pairs
    without a least upper / greatest lower bound, pairs of upper covers of
    one element with no common upper cover, and elements that are not the
    join of their atoms.  Each check has a ``count`` of ``of`` cases, status
    "warn" (a fact about the order, not a failure) when it is not 0, and at
    most MAX_WITNESSES witnesses."""
    name = poset.element_name
    size = len(poset)
    every = (1 << size) - 1
    anc, desc = poset._anc, poset._desc  # the z <= x, the z >= x
    lower = [0] * size  # pushed up each cover, as ``_anc`` is
    for x, adj in enumerate(poset.up):
        bit = 1 << x
        for z in adj:
            lower[z] |= bit
    upper = [sum(1 << z for z in adj) for adj in poset.up]

    def report(check: str, count: int, of: int, witnesses: Iterator[dict]) -> dict:
        return {"check": check, "status": "warn" if count else "pass", "count": count,
                "of": of, "witnesses": list(islice(witnesses, MAX_WITNESSES))}

    checks = []
    for check, above, below, covers, key in (
            ("least_upper_bounds", desc, anc, lower, "minimal_upper_bounds"),
            ("greatest_lower_bounds", anc, desc, upper, "maximal_lower_bounds")):
        # per x that has any, the y > x (the bits of -(2 << x)) without a
        # unique bound; only the first rows are kept, for the witnesses
        rows = ((x, m) for x, row in enumerate(_unique_bounds(above, below, covers))
                if (m := every & ~row & -(2 << x)))
        first = list(islice(rows, MAX_WITNESSES))
        checks.append(report(
            check, sum(m.bit_count() for _, m in chain(first, rows)), size * (size - 1) // 2,
            ({"x": name(x), "y": name(y), key: [
                name(z) for z in _bits(above[x] & above[y])
                if below[z] & above[x] & above[y] == 1 << z]}  # no other bound below z
             for x, m in first for y in _bits(m))))

    apart = ((x, a, b) for x in range(size)
             for a, b in combinations(_bits(upper[x]), 2) if not upper[a] & upper[b])
    first = list(islice(apart, MAX_WITNESSES))
    pairs = sum(d * (d - 1) // 2 for d in map(int.bit_count, upper))
    checks.append(report("semimodular", len(first) + sum(1 for _ in apart), pairs, (
        {"x": name(x), "covers": [name(a), name(b)]} for x, a, b in first)))

    atoms = upper[poset.bottom_idx]  # x fails for an upper bound of its atoms not above x
    apart = [x for x in range(size)
             if reduce(and_, (desc[a] for a in _bits(atoms & anc[x])), every) & ~desc[x]]
    checks.append(report("atomistic", len(apart), size, ({"x": name(x)} for x in apart)))
    return checks


def _hasse_lines(poset: Poset) -> Iterator[str]:
    """The lines of :func:`hasse_dot`'s text, each with its newline."""
    yield "digraph hasse {\n"
    yield "  rankdir=BT;\n"
    yield "  node [shape=box];\n"
    # each name is rendered as its element is decoded; neither is kept
    for i, el in enumerate(poset._decoded()):
        yield f'  e{i} [label="{el}"];\n'
    by_rank: dict[int, list[int]] = {}
    for i, r in enumerate(poset.rank):
        by_rank.setdefault(r, []).append(i)
    for r in sorted(by_rank):
        ids = "; ".join(f"e{i}" for i in by_rank[r])
        yield f"  {{ rank=same; {ids}; }}\n"
    text = [str(lab) for lab in poset.labels]
    for lo, (adj, codes) in enumerate(zip(poset.up, poset.up_codes)):
        for hi, c in sorted(zip(adj, codes)):
            yield f'  e{lo} -> e{hi} [label="{text[c]}"];\n'
    yield "}\n"


def hasse_dot(poset: Poset, write=None) -> str | None:
    """Hasse diagram in DOT form: one node per element, covers as labeled
    edges, equal ranks clustered.

    Returns the text.  Given ``write`` (a text stream's ``write``, say), it
    passes the text to ``write`` in chunks of lines instead and returns
    None, so that the whole text is never held at once."""
    lines = _hasse_lines(poset)
    if write is None:
        return "".join(lines)
    _write_chunks(lines, write)
    return None


def _write_chunks(lines: Iterator[str], write) -> None:
    """Pass ``lines``, each with its newline, to ``write`` in chunks of
    ``DOT_CHUNK_LINES`` lines."""
    while chunk := "".join(islice(lines, DOT_CHUNK_LINES)):
        write(chunk)
