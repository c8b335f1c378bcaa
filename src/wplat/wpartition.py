"""Weighted (k-layer) set partitions of [n].

A weighted partition is an ordinary set partition of [n] = {1, ..., n}
(layer 1) together with k-1 further layers, each a family of pairwise
disjoint subsets of size >= 2 nested inside the previous layer.  The value
is stored as the refinement multichain (layer 1, ..., layer k) with
singletons omitted from layers >= 2; canonical form sorts every block's
elements ascending and every layer's blocks by minimum element.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, cycle, product, repeat
from math import factorial
from operator import getitem, itemgetter
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "InvalidPartition",
    "OneLineParseError",
    "WeightedPartition",
    "validate",
    "bottom",
    "edge_set",
    "edge_set_inverse",
    "one_line_print",
    "one_line_parse",
    "enumerate_all",
    "enumerate_by_blocks",
    "to_rooted_tree",
    "from_rooted_tree",
    "tree_shape",
    "tree_class_size",
    "enumerate_tree_shapes",
]

Block = tuple[int, ...]
Layer = tuple[Block, ...]


class InvalidPartition(ValueError):
    """Layered block data violating the weighted-partition invariants.

    ``violations`` is a list of (kind, message) pairs; kinds are
    "coverage", "overlap", "nesting", "singleton" and "malformed".
    """

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations
        super().__init__("; ".join(f"{kind}: {msg}" for kind, msg in violations))


class OneLineParseError(ValueError):
    def __init__(self, text: str, pos: int, expected: str):
        self.pos = pos
        self.expected = expected
        super().__init__(f"parse error at position {pos} in {text!r}: expected {expected}")


class WeightedPartition(NamedTuple):
    n: int
    k: int
    layers: tuple[Layer, ...]

    @property
    def rank(self) -> int:
        """n minus the number of first-layer blocks."""
        return self.n - len(self.layers[0])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "layers": [[list(b) for b in layer] for layer in self.layers],
        }

    def canonical_json(self) -> str:
        import json
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedPartition":
        return validate(data["n"], data["k"], data["layers"])

    def __str__(self) -> str:
        return one_line_print(self)


def validate(n: int, k: int, layers: Iterable[Iterable[Iterable[int]]]) -> WeightedPartition:
    """Check and canonicalize layered block data.

    Raises :class:`InvalidPartition` listing every violated invariant.
    """
    if n < 0 or k < 1:
        raise InvalidPartition([("malformed", f"need n >= 0 and k >= 1, got n={n}, k={k}")])
    raw = [list(layer) for layer in layers]
    if len(raw) != k:
        raise InvalidPartition([("malformed", f"expected {k} layers, got {len(raw)}")])

    violations: list[tuple[str, str]] = []
    canon: list[Layer] = []
    owner: dict[int, Block] = {}  # element -> its block in the layer before
    for idx, layer in enumerate(raw, start=1):
        blocks = []
        for b in layer:
            blk = sorted(b)
            if not blk:
                violations.append(("malformed", f"empty block in layer {idx}"))
                continue
            # sorted, so an all-int block is in range when its ends are
            if not all(map(isinstance, blk, repeat(int))) or blk[0] < 1 or blk[-1] > n:
                violations.append(("malformed", f"element out of [1,{n}] in layer {idx}: {blk}"))
                continue
            if len(set(blk)) != len(blk):
                violations.append(("overlap", f"repeated element within block {blk} of layer {idx}"))
                continue
            blocks.append(tuple(blk))
        blocks.sort(key=itemgetter(0))
        canon.append(tuple(blocks))

        seen: dict[int, Block] = {}
        for b in blocks:
            for e in b:
                if e in seen:
                    violations.append(
                        ("overlap", f"element {e} in two blocks of layer {idx}: {seen[e]} and {b}"))
                seen[e] = b
        if idx == 1:
            if len(seen) < n:  # the keys are distinct elements of [1, n]
                missing = [e for e in range(1, n + 1) if e not in seen]
                violations.append(("coverage", f"layer 1 misses elements {missing}"))
        else:
            for b in blocks:
                if len(b) == 1:
                    violations.append(("singleton", f"singleton block {b} in layer {idx}"))
            prev = canon[idx - 2]
            for b in blocks:
                # the block before that holds b's minimum holds b, or else b
                # is tested against every block (``owner`` keeps one block per
                # element when the layer before overlaps)
                if not set(b).issubset(owner.get(b[0], ())) and \
                        not any(set(b) <= set(p) for p in prev):
                    violations.append(
                        ("nesting", f"block {b} of layer {idx} not inside one block of layer {idx-1}"))
        owner = seen
    if violations:
        raise InvalidPartition(violations)
    return WeightedPartition(n, k, tuple(canon))


def bottom(n: int, k: int) -> WeightedPartition:
    """The all-singletons partition (the bottom element)."""
    layer1 = tuple((e,) for e in range(1, n + 1))
    return WeightedPartition(n, k, (layer1,) + ((),) * (k - 1))


def _nested_partition(n: int, k: int, layers: list[list[Block]]) -> WeightedPartition:
    """The weighted partition of layered sorted blocks that nest by
    construction: each element of a block below layer 1 is one of the
    elements of one block of the layer above.  So when the elements of
    layer 1 are 1..n, each once, the blocks of every layer are disjoint and
    nest; if also no block of layer 1 is empty and no deeper block is a
    singleton, the layers are a weighted partition, and are only put in
    order of their minima.  Otherwise :func:`validate` refuses them with
    its violations."""
    if k >= 1 and all(layers[0]) and \
            sorted([e for b in layers[0] for e in b]) == list(range(1, n + 1)) and \
            all([len(b) > 1 for layer in layers[1:] for b in layer]):
        # disjoint sorted blocks sort by their minima
        return WeightedPartition(n, k, tuple([tuple(sorted(layer)) for layer in layers]))
    return validate(n, k, layers)


# ---------------------------------------------------------------------------
# edge sets (circular presentation)

def edge_set(pi: WeightedPartition) -> frozenset[tuple[int, int, int]]:
    """Triples (i, j, l): the pair i < j shares a block at layer l and at no
    deeper layer."""
    deepest: dict[tuple[int, int], int] = {}
    for l, layer in enumerate(pi.layers, 1):
        for b in layer:
            if len(b) > 1:
                deepest.update(dict.fromkeys(combinations(b, 2), l))
    return frozenset([(i, j, l) for (i, j), l in deepest.items()])


def edge_set_inverse(edges: Iterable[tuple[int, int, int]], n: int, k: int) -> WeightedPartition:
    """Rebuild the weighted partition whose deepest-common-layer edge set is
    ``edges``: layer l blocks are the size >= 2 connected components of the
    edges with label >= l (layer 1 keeps singletons).  Each edge needs
    1 <= i < j <= n and 1 <= l <= k.

    The classes of one layer are disjoint and cover [n], and each class of
    layer l+1 lies inside one class of layer l, so the result is a weighted
    partition by construction and is built canonical, with no
    :func:`validate`."""
    edges = list(edges)
    bad = [e for e in edges if not (1 <= e[0] < e[1] <= n and 1 <= e[2] <= k)]
    if bad:
        raise InvalidPartition([("malformed", f"edges outside 1 <= i < j <= {n}, "
                                              f"1 <= l <= {k}: {sorted(bad)}")])
    if n < 0 or k < 1:
        validate(n, k, ())  # raises its "malformed" violation
    edges.sort(key=itemgetter(2), reverse=True)
    edges.append((0, 0, 0))  # a sentinel, labeled below every layer
    # one sweep from layer k down: the edges labeled l are joined before
    # layer l is read off; ``root`` maps each element to the minimum of its
    # class, whose sorted members ``members`` holds, and ``joined`` holds
    # the minima of the classes of two or more
    root = list(range(n + 1))
    members = [[e] for e in root]
    joined: set[int] = set()
    layers: list[Layer] = []
    l = k
    for i, j, label in edges:
        while label < l:
            layers.append(tuple([tuple(members[a]) for a in sorted(joined)]))
            l -= 1
        a, b = root[i], root[j]
        if a != b:
            if b < a:
                a, b = b, a
            for e in members[b]:
                root[e] = a
            members[a] = sorted(members[a] + members[b])
            joined.discard(b)
            joined.add(a)
    # the sentinel read layers k..1; layer 1 keeps its singletons
    layers[-1] = tuple([tuple(members[e]) for e in range(1, n + 1) if root[e] == e])
    layers.reverse()
    return WeightedPartition(n, k, tuple(layers))


# ---------------------------------------------------------------------------
# one-line notation

def _wide(n: int, k: int) -> bool:
    """Whether names at (n, k) are wide: elements and exponents are digit
    runs, and the printer separates items with commas.  Otherwise each is
    one digit, so "(46)^35" means "(46)^3 5"."""
    return n >= 10 or k >= 10


def one_line_print(pi: WeightedPartition) -> str:
    """Canonical one-line notation, by one descent over the layers: a block
    of layer l stays a block down to some layer d, written "(items)^d" when
    d >= 2, and its items are the layer-(d+1) blocks inside it and its
    elements outside them, in order of their minima."""
    sep = "," if _wide(pi.n, pi.k) else ""
    pieces = []
    for b in pi.layers[0]:
        if len(b) == 1:  # no deeper block holds a singleton's element
            pieces.append(str(b[0]))
            continue
        inner, depth = _render(pi.layers, sep, b, 1)
        pieces.append(f"({inner})^{depth}" if depth >= 2 else inner)
    return "/".join(pieces)


def _render(layers: tuple[Layer, ...], sep: str, b: Block, l: int) -> tuple[str, int]:
    """The items of the layer-l block b, and the deepest layer through which
    b stays a block (:func:`one_line_print`)."""
    k = len(layers)
    while l < k and b in layers[l]:
        l += 1
    # each layer-(l+1) block lies inside one layer-l block
    kids = [c for c in layers[l] if c[0] in b] if l < k else ()
    if not kids:
        return sep.join(map(str, b)), l
    in_kid = {e for c in kids for e in c}
    # (sort key, text, is_group)
    items = [(c[0], "(%s)^%d" % _render(layers, sep, c, l + 1), True) for c in kids]
    items += [(e, str(e), False) for e in b if e not in in_kid]
    items.sort()
    out = items[0][1]
    for (_, _, after_group), (_, text, _) in zip(items, items[1:]):
        if sep:
            out += sep
        elif after_group and text[0].isdigit():
            out += " "  # keep exponent digits apart from elements
        out += text
    return out, l


@lru_cache(maxsize=None)
def _token_pattern(wide: bool):
    """The tokens of a name of the width ``wide`` (:func:`_wide`): an
    element, an exponent (its digits may be missing), a symbol, or any
    other character but a separator; a token's first character tells its
    kind.  Compiled on first use, so a request that parses no name
    compiles none."""
    import re
    return re.compile(r"\d+|\^\d*|[()/]|[^\s,]" if wide else r"\d|\^\d?|[()/]|[^\s,]")


def one_line_parse(text: str, n: int, k: int) -> WeightedPartition:
    """Parse one-line notation, by one pass over the text.

    Blocks of layer 1 are separated by '/'; each is a list of items, an
    element or a group "(items)^L", whose block persists through layer L.
    The element-exponent alias "e^L" joins, at each layer up to L, the
    siblings that reach that layer into one block.  Every exponent of an
    items list lies in outer+1..k, where outer is the exponent of the group
    around it, and 1 for a block of layer 1.  Whitespace and commas only
    separate; at (n, k) with n or k >= 10 elements and exponents are digit
    runs, otherwise one digit each.

    A group's blocks lie inside the block around it, so the collected
    blocks nest by construction (:func:`_nested_partition`).
    """
    if n < 0 or k < 1:
        validate(n, k, ())  # raises its "malformed" violation
    return _nested_partition(n, k, _one_line_layers(text, n, k))


class _Fault(Exception):
    """A text that is no name: the index of the token at fault, the offset
    of the fault from the token's start, and what was expected there
    (:func:`_one_line_layers` turns it into :class:`OneLineParseError`)."""


def _one_line_layers(text: str, n: int, k: int) -> list[list[Block]]:
    """The blocks that a one-line name collects at each layer, sorted, each
    element once per occurrence (:func:`one_line_parse`); raises
    :class:`OneLineParseError` on a text that is no name.  Tokens are read
    as strings; their positions are found only to report a fault."""
    pattern = _token_pattern(_wide(n, k))
    try:
        layers = _collect(pattern.findall(text), k)
    except _Fault as fault:
        index, offset, expected = fault.args
        starts = [m.start() for m in pattern.finditer(text)]
        starts.append(len(text))  # errors at the end point past the text
        raise OneLineParseError(text, starts[index] + offset, expected) from None
    return [[tuple(sorted(b)) for b in layer] for layer in layers]


def _collect(toks: list[str], k: int) -> list[list[list[int]]]:
    """The unsorted blocks of the tokens ``toks`` at each of k layers
    (:func:`_one_line_layers`); raises :class:`_Fault`."""
    toks.append("")  # the end
    layers: list[list[list[int]]] = [[] for _ in range(k)]
    # the items list being read: the units of its groups and aliased
    # elements, (exponent, elements, token index, is_group), and all its
    # elements, in lists so that a repeated element stays; ``outer`` holds
    # the lists around each open group, with the index of its '('
    units: list = []
    elements: list[int] = []
    outer: list = []
    i = 0
    while True:
        tok = toks[i]
        i += 1
        if tok.isdecimal():
            elements.append(int(tok))
            if toks[i][:1] == "^":
                units.append((_exponent(toks, i), [int(tok)], i - 1, False))
                i += 1
        elif tok == "(":
            outer.append((units, elements, i - 1))
            units, elements = [], []
        elif tok[:1] == "^":
            raise _Fault(i - 1, 0, "element or '('")
        elif tok not in (")", "/", ""):
            raise _Fault(i - 1, 0, "element, '(', ')', '^', '/' or ','")
        elif outer:  # ')', '/' or the end, inside a group
            if tok != ")":
                raise _Fault(i - 1, 0, "')'")
            if toks[i][:1] != "^":
                raise _Fault(i, 0, "'^'")
            expo = _exponent(toks, i)
            i += 1
            inner, inner_elements = units, elements
            units, elements, opened = outer.pop()
            if not inner_elements:
                raise _Fault(opened, 1, "items inside '(...)'")
            # a group's inner blocks are emitted as soon as its exponent is read
            if inner:
                _emit(layers, inner, expo)
            units.append((expo, inner_elements, opened, True))
            elements += inner_elements
        else:  # '/', ')' or the end, after a block of layer 1
            if not elements:
                raise _Fault(i - 1, 0, "block items")
            layers[0].append(elements)
            if units:
                _emit(layers, units, 1)
            if not tok:
                return layers
            if tok != "/":
                raise _Fault(i - 1, 0, "'/' or end of input")
            units, elements = [], []


def _exponent(toks: list[str], i: int) -> int:
    """The exponent of the token i, a '^' (:func:`_collect`)."""
    if len(toks[i]) == 1:
        raise _Fault(i, 1, "exponent digit after '^'")
    return int(toks[i][1:])


def _emit(layers: list[list[list[int]]], units: list, outer: int) -> None:
    """Record the blocks that the units of an items list, inside a block
    that persists through layer ``outer``, make at the deeper layers: at
    each layer, the units that reach it are one block each, or one block
    together when an aliased element is among them (:func:`_collect`)."""
    k = len(layers)
    for expo, _, at, _ in units:
        if not outer < expo <= k:
            raise _Fault(at, 0, f"exponent in {outer + 1}..{k}")
    for l in range(outer + 1, max([u[0] for u in units]) + 1):
        reach = [u for u in units if u[0] >= l]
        if all([u[3] for u in reach]):
            layers[l - 1] += [u[1] for u in reach]
        else:
            layers[l - 1].append([e for u in reach for e in u[1]])


# ---------------------------------------------------------------------------
# enumeration

def _layer_text(layer: Layer) -> str:
    """The compact JSON text of one layer (``[[1,2],[3]]``), as
    ``canonical_json`` writes it, written out here rather than by
    :mod:`json`, which enumerating does not load."""
    return "[" + ",".join(["[" + ",".join(map(str, block)) + "]" for block in layer]) + "]"


def _block_codes(n: int, block: Block) -> list[int]:
    """The set partitions of ``block`` as integers: the block-minimum code
    f(e) of each element e of the block in the byte n - e of the integer,
    0 elsewhere (byte 0 the lowest).  The blocks of a partition of [n] cover
    disjoint bytes, so the code of a partition is the sum of one integer per
    block."""
    codes = [(0, ())]  # (code so far, minima so far)
    for e in block:
        at = 256 ** (n - e)
        codes = [(code + m * at, mins + (e,) if m == e else mins)
                 for code, mins in codes for m in mins + (e,)]
    return [code for code, _ in codes]


def _layer_code(n: int, layer: Layer) -> bytes:
    """The n bytes f(1), ..., f(n) of one layer, where f(e) is the minimum
    of e's block (a singleton is its own minimum)."""
    f = bytearray(range(1, n + 1))
    for b in layer:
        for e in b[1:]:
            f[e - 1] = b[0]
    return bytes(f)


def _code(pi: WeightedPartition) -> bytes:
    """The block-minimum code of pi: the codes of its layers in turn
    (:func:`_layer_code`)."""
    return b"".join([_layer_code(pi.n, layer) for layer in pi.layers])


def _decode(n: int, k: int, code: bytes) -> WeightedPartition:
    """The weighted partition with block-minimum code ``code``, canonical as
    built: each block is grouped under its minimum, which comes first, so
    blocks are sorted and ordered by minimum without ``validate``."""
    layers = []
    for j in range(0, n * k, n):
        blocks: dict[int, list[int]] = {}
        for e, m in enumerate(code[j:j + n], 1):
            if m == e:
                blocks[m] = [e]
            else:
                blocks[m].append(e)
        layers.append(tuple([tuple(b) for b in blocks.values() if j == 0 or len(b) > 1]))
    return WeightedPartition(n, k, tuple(layers))


@lru_cache(maxsize=8)
def _set_partitions(n: int) -> tuple[tuple[bytes, ...], tuple[Layer, ...], tuple[Layer, ...]]:
    """The set partitions of [n], each as its block-minimum code (the n
    bytes f(1), ..., f(n), f(e) the minimum of e's block), its layer with
    singletons (:func:`_decode`) and its layer without them; a partition's
    id is its index, in the order of the JSON text of the layer without
    singletons."""
    coded = []
    for code in _block_codes(n, tuple(range(1, n + 1))):
        f = code.to_bytes(n, "big")
        full = _decode(n, 1, f).layers[0]
        deep = tuple([b for b in full if len(b) > 1])
        coded.append((_layer_text(deep), f, full, deep))
    coded.sort()
    _, codes, full, deep = zip(*coded)
    return codes, full, deep


def _refinements(n: int) -> list[list[int]]:
    """Per set partition id (:func:`_set_partitions`), the ids of its
    refinements, itself included, ascending: one set partition of each of
    its blocks."""
    codes, full, _ = _set_partitions(n)
    ids = {int.from_bytes(code, "big"): p for p, code in enumerate(codes)}
    within: dict[Block, list[int]] = {}
    return [sorted(map(ids.__getitem__, map(sum, product(*[
        within.get(b) or within.setdefault(b, _block_codes(n, b)) for b in layer]))))
        for layer in full]


def _id_chains(n: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every weighted partition of [n] with k layers, in the canonical order
    of :func:`enumerate_all`, as the ids (p_1, ..., p_k) of its chain of set
    partitions (:func:`_set_partitions`, B of them) and its key, the integer
    sum_j p_j B^(j-1).

    One depth-first walk: p_1 runs over the set partitions in order of
    their text, and each deeper id over the refinements of the one above in
    order of their ids.  A chain's prefix is held once, in the path being
    extended, so each element costs its k ids and the walk holds one path
    at a time."""
    codes, full, _ = _set_partitions(n)
    size = len(codes)
    first = sorted(range(size), key=lambda p: _layer_text(full[p]))
    if k == 1:
        for p in first:
            yield (p,), p
        return
    finer = _refinements(n)
    weights = [size ** j for j in range(k)]
    path = [0] * k
    keys = [0] * k  # keys[j]: the key of the path's first j ids
    stack = [iter(first)]  # per layer of the path, the ids left to try
    while stack:
        j = len(stack) - 1
        for p in stack[-1]:
            path[j] = p
            key = keys[j] + p * weights[j]
            if j == k - 2:  # each refinement of p ends a chain
                for q in finer[p]:
                    path[-1] = q
                    yield tuple(path), key + q * weights[-1]
            else:
                keys[j + 1] = key
                stack.append(iter(finer[p]))
                break
        else:
            stack.pop()


def _decode_chains(n: int, k: int, chains: Iterable[int]) -> Iterator[WeightedPartition]:
    """The weighted partitions of the flat id chains ``chains`` (p_1, ...,
    p_k of each element in turn), decoded one at a time as they are read:
    layer 1 is p_1 with its singletons, each deeper layer p_j without them,
    all canonical as :func:`_set_partitions` stores them."""
    _, full, deep = _set_partitions(n)
    layers = map(getitem, cycle((full,) + (deep,) * (k - 1)), chains)
    new = tuple.__new__
    return (new(WeightedPartition, (n, k, element)) for element in zip(*[layers] * k))


def _count_by_blocks(n: int, k: int) -> dict[int, int]:
    """The number of weighted partitions of [n] with k layers per number of
    first-layer blocks, counted without listing them: the chains
    p_1 >= ... >= p_j that start at p number 1 for j = 1, and for each
    deeper layer the sum, over the refinements q of p
    (:func:`_refinements`, which :func:`_id_chains` walks), of the chains
    one layer shorter that start at q."""
    _, full, _ = _set_partitions(n)
    below = [1] * len(full)
    if k > 1:
        finer = _refinements(n)
        for _ in range(k - 1):
            below = [sum(map(below.__getitem__, qs)) for qs in finer]
    counts: dict[int, int] = {}
    for layer, c in zip(full, below):
        counts[len(layer)] = counts.get(len(layer), 0) + c
    return counts


def enumerate_all(n: int, k: int) -> list[WeightedPartition]:
    """Every weighted partition of [n] with k layers, in the canonical
    deterministic order (lexicographic on the canonical JSON form).

    A weighted partition is a chain p_1 >= ... >= p_k of set partitions of
    [n] under refinement, with singletons omitted below layer 1.  With n
    and k shared, the canonical order is the order of the tuples of the
    layers' JSON texts, since no JSON array is a proper prefix of another.
    So the chains are emitted in that order with no sort: p_1 runs over the
    set partitions in order of their text, and each deeper layer over the
    refinements of the layer above in order of their text without
    singletons, which is the order of their ids (:func:`_set_partitions`).
    The chains come from :func:`_id_chains` and are decoded here."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return list(_decode_chains(n, k, chain.from_iterable(ids for ids, _ in _id_chains(n, k))))


def enumerate_by_blocks(n: int, k: int, r: int) -> list[WeightedPartition]:
    """The weighted partitions with exactly r first-layer blocks."""
    return [pi for pi in enumerate_all(n, k) if len(pi.layers[0]) == r]


# ---------------------------------------------------------------------------
# k-level rooted trees
#
# A labeled tree is represented as nested frozensets: a leaf is an int, an
# internal node the frozenset of its children.  Distinct leaf labels make
# sibling subtrees distinct, so frozensets lose nothing, and exchanging
# sibling subtrees leaves the value unchanged — exactly the equivalence the
# bijection wants.

Tree = frozenset


def to_rooted_tree(pi: WeightedPartition):
    """The k-level rooted tree: depth-d nodes are the layer-d blocks
    (singletons included), leaves at depth k+1 carry the elements.  The
    subtree of a singleton block is the same for every tree, so it is built
    once (:func:`_tower`) and shared."""
    layers = pi.layers
    k = len(layers)
    return frozenset([_subtree(layers, b, 1, k) if len(b) > 1 else _tower(b[0], k)
                      for b in layers[0]])


def _subtree(layers: tuple[Layer, ...], block: Block, depth: int, k: int):
    """The node of the block ``block``, of two or more elements, at
    ``depth`` (:func:`to_rooted_tree`)."""
    if depth == k:
        return frozenset(block)  # children are the leaf elements
    kids = []
    rest = set(block)
    for c in layers[depth]:  # layer depth+1 blocks, each inside one block
        if c[0] in rest:
            kids.append(_subtree(layers, c, depth + 1, k))
            rest.difference_update(c)
    height = k - depth
    for e in rest:
        kids.append(_tower(e, height))
    return frozenset(kids)


@lru_cache(maxsize=None)
def _tower(e: int, height: int) -> frozenset:
    """The subtree of the singleton block (e,) at depth k + 1 - ``height``:
    ``height`` nested one-child nodes above the leaf e, built once per
    (e, height) and shared by every tree (:func:`to_rooted_tree`)."""
    return frozenset((e,) if height == 1 else (_tower(e, height - 1),))


def from_rooted_tree(tree) -> WeightedPartition:
    """Inverse of :func:`to_rooted_tree`; rejects trees whose leaves are not
    all at the same depth k+1.  A node's block lies inside its parent's, so
    the collected blocks nest by construction (:func:`_nested_partition`)."""
    depths: set[int] = set()  # of the leaves
    blocks: dict[int, list[Block]] = {}  # depth -> the blocks of its nodes
    labels = _tree_blocks(tree, 0, depths, blocks)
    if not labels:
        raise InvalidPartition([("malformed", "tree has no leaves")])
    if len(depths) != 1:
        raise InvalidPartition([("malformed", f"unequal leaf depths {sorted(depths)}")])
    k = depths.pop() - 1
    return _nested_partition(len(labels), k, [blocks.get(depth, []) for depth in range(1, k + 1)])


def _tree_blocks(node, depth: int, depths: set[int], blocks: dict[int, list[Block]]) -> Block:
    """The sorted leaves below the internal node ``node`` at ``depth``,
    recording on the way the leaf depths and, by depth, the node blocks
    that a layer keeps: every one of depth 1, and those of two or more
    leaves (:func:`from_rooted_tree`)."""
    leaves: list[int] = []
    for child in node:
        if isinstance(child, int):
            depths.add(depth + 1)
            leaves.append(child)
        else:
            leaves += _tree_blocks(child, depth + 1, depths, blocks)
    leaves.sort()
    block = tuple(leaves)
    if len(block) > 1 or depth == 1:
        blocks.setdefault(depth, []).append(block)
    return block


def tree_shape(tree):
    """Unlabeled shape: leaves become (), nodes sorted tuples of child
    shapes."""
    if isinstance(tree, int):
        return ()
    return tuple(sorted(tree_shape(c) for c in tree))


def tree_class_size(shape) -> int:
    """Number of leaf labelings of a shape up to sibling-subtree exchange:
    n! * prod over nodes of 1 / prod_j m_j!, where the m_j are the
    multiplicities of repeated child shapes."""

    def leaves(s) -> int:
        if s == ():
            return 1
        return sum(leaves(c) for c in s)

    def denom(s) -> int:
        if s == ():
            return 1
        mult: dict = {}
        d = 1
        for c in s:
            mult[c] = mult.get(c, 0) + 1
            d *= denom(c)
        for m in mult.values():
            d *= factorial(m)
        return d

    n = leaves(shape)
    q, rem = divmod(factorial(n), denom(shape))
    assert rem == 0, "class size must be an integer"
    return q


def enumerate_tree_shapes(n: int, k: int) -> dict:
    """Map shape -> number of weighted partitions realizing it."""
    counts: dict = {}
    for pi in enumerate_all(n, k):
        s = tree_shape(to_rooted_tree(pi))
        counts[s] = counts.get(s, 0) + 1
    return counts
