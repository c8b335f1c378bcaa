"""Shared oracles: small, independent reimplementations used to validate
the library's routes.  They favor obviousness over speed."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial

import pytest


def oracle_stirling1(n: int, r: int) -> int:
    """Signed first-kind numbers as coefficients of the falling factorial
    x(x-1)...(x-n+1), multiplied out term by term."""
    if n == 0:
        return 1 if r == 0 else 0
    coeffs = [0, 1]  # x
    for j in range(1, n):
        # multiply by (x - j)
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] -= j * c
        coeffs = nxt
    return coeffs[r] if 0 <= r < len(coeffs) else 0


def oracle_set_partitions(universe):
    """All set partitions of a list, by direct recursion on the first
    element."""
    universe = list(universe)
    if not universe:
        yield []
        return
    first, rest = universe[0], universe[1:]
    for size in range(len(rest) + 1):
        for mates in combinations(rest, size):
            block = (first,) + mates
            remaining = [e for e in rest if e not in mates]
            for sub in oracle_set_partitions(remaining):
                yield [block] + sub


def oracle_stirling2(n: int, r: int) -> int:
    return sum(1 for p in oracle_set_partitions(range(1, n + 1))
               if len(p) == r)


def oracle_stirling2_sum(n: int, r: int) -> int:
    """S(n, r) by the alternating sum (1/r!) sum_i (-1)^i C(r, i) (r - i)^n."""
    if n < 0 or r < 0 or r > n:
        return 0
    total = sum((-1) ** i * comb(r, i) * (r - i) ** n for i in range(r + 1))
    q, rem = divmod(total, factorial(r))
    assert rem == 0
    return q


def _oracle_index_tuples(n: int, k: int, r: int):
    """Weakly decreasing tuples n = i_0 >= i_1 >= ... >= i_{k-1} >= i_k = r,
    yielded as the full (i_0, ..., i_k)."""

    def rec(pos: int, prev: int, prefix: tuple[int, ...]):
        if pos == k:
            yield prefix + (r,)
            return
        for i in range(prev, r - 1, -1):
            yield from rec(pos + 1, i, prefix + (i,))

    yield from rec(1, n, (n,))


def oracle_transform_def(n: int, k: int, r: int, kernel) -> int:
    """The k-fold transform by walking every weakly decreasing index tuple
    and multiplying its k kernel factors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0 or r < 0 or r > n:
        return 0
    total = 0
    for tup in _oracle_index_tuples(n, k, r):
        prod = 1
        for a, b in zip(tup, tup[1:]):
            prod *= kernel(a, b)
            if prod == 0:
                break
        total += prod
    return total


def partitions(n: int):
    """Integer partitions of n as weakly decreasing tuples, in
    reverse-lexicographic order.  partitions(0) yields the empty tuple."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(largest, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def _multiplicities(lam) -> dict[int, int]:
    m: dict[int, int] = {}
    for part in lam:
        m[part] = m.get(part, 0) + 1
    return m


def f_lambda(lam) -> int:
    """f_lambda = n! / prod_j (j!)^{m_j} m_j! — the number of ways to split
    [n] into an unordered family of blocks with part sizes lambda."""
    n = sum(lam)
    denom = 1
    for j, mj in _multiplicities(lam).items():
        denom *= factorial(j) ** mj * factorial(mj)
    q, rem = divmod(factorial(n), denom)
    assert rem == 0
    return q


def g_lambda(lam) -> int:
    """g_lambda = (l(lambda) - 1)! * f_lambda."""
    return factorial(len(lam) - 1) * f_lambda(lam)


def oracle_partition_sum(n: int, length: int | None, coeff, weight) -> int:
    """The literal per-partition sum: over the integer partitions lambda of
    n (of length ``length`` only, unless it is None), one term
    coeff(lambda) * prod_j weight(lambda_j) per partition."""
    total = 0
    for lam in partitions(n):
        if length is None or len(lam) == length:
            term = coeff(lam)
            for part in lam:
                term *= weight(part)
            total += term
    return total


@lru_cache(maxsize=None)
def oracle_t_first_column(n: int, k: int) -> int:
    """t(n, k, 1) by the paper's recurrence, one integer partition at a
    time: sum_{lambda |- n} (-1)^{l(lambda)+1} g_lambda prod_i t(lambda_i, k-1, 1),
    from the identity column delta_{n,1} at k = 0."""
    if n < 1:
        return 0
    if k == 0:
        return 1 if n == 1 else 0
    return oracle_partition_sum(
        n, None, lambda lam: (-1) ** (len(lam) + 1) * g_lambda(lam),
        lambda part: oracle_t_first_column(part, k - 1))


def oracle_taylor_exp(coeffs: list[Fraction]) -> list[Fraction]:
    """exp of a univariate EGF-coefficient list (constant term 0) by direct
    Taylor summation of f^m / m!."""
    order = len(coeffs) - 1
    # convert EGF coefficients a_n (of x^n/n!) to ordinary coefficients
    fact = [1] * (order + 1)
    for i in range(1, order + 1):
        fact[i] = fact[i - 1] * i
    f = [Fraction(c, fact[i]) for i, c in enumerate(coeffs)]
    assert f[0] == 0
    result = [Fraction(0)] * (order + 1)
    result[0] = Fraction(1)
    power = [Fraction(0)] * (order + 1)
    power[0] = Fraction(1)  # f^0
    for m in range(1, order + 1):
        nxt = [Fraction(0)] * (order + 1)
        for i, a in enumerate(power):
            if a == 0:
                continue
            for j, b in enumerate(f):
                if i + j <= order:
                    nxt[i + j] += a * b
        power = nxt
        for d in range(order + 1):
            result[d] += power[d] / fact[m]
    return [result[i] * fact[i] for i in range(order + 1)]


def oracle_taylor_log1p(coeffs: list[Fraction]) -> list[Fraction]:
    """log(1 + f) of a univariate EGF-coefficient list (constant term 0)."""
    order = len(coeffs) - 1
    fact = [1] * (order + 1)
    for i in range(1, order + 1):
        fact[i] = fact[i - 1] * i
    f = [Fraction(c, fact[i]) for i, c in enumerate(coeffs)]
    assert f[0] == 0
    result = [Fraction(0)] * (order + 1)
    power = [Fraction(0)] * (order + 1)
    power[0] = Fraction(1)
    for m in range(1, order + 1):
        nxt = [Fraction(0)] * (order + 1)
        for i, a in enumerate(power):
            if a == 0:
                continue
            for j, b in enumerate(f):
                if i + j <= order:
                    nxt[i + j] += a * b
        power = nxt
        sign = Fraction((-1) ** (m + 1), m)
        for d in range(order + 1):
            result[d] += sign * power[d]
    return [result[i] * fact[i] for i in range(order + 1)]


def _oracle_disjoint_families(universe):
    """Families of pairwise disjoint subsets of size >= 2 of a list."""
    universe = list(universe)
    if len(universe) < 2:
        yield []
        return
    first, rest = universe[0], universe[1:]
    yield from _oracle_disjoint_families(rest)
    for size in range(1, len(rest) + 1):
        for mates in combinations(rest, size):
            remaining = [e for e in rest if e not in mates]
            for sub in _oracle_disjoint_families(remaining):
                yield [(first,) + mates] + sub


def _oracle_deep_entries(block, d, k):
    """All ways to nest layers d..k inside ``block``, as lists of
    (layer, block) contributions."""
    if d > k:
        yield []
        return
    for family in _oracle_disjoint_families(block):
        for combo in product(*(_oracle_deep_entries(c, d + 1, k) for c in family)):
            entries = [(d, c) for c in family]
            for sub in combo:
                entries.extend(sub)
            yield entries


def oracle_enumerate_all(n, k):
    """``enumerate_all`` from a set partition of [n] and, for each of its
    blocks, every nesting of the deeper layers inside it."""
    from wplat import WeightedPartition

    out = []
    for p1 in oracle_set_partitions(range(1, n + 1)):
        for combo in product(*(_oracle_deep_entries(b, 2, k) for b in p1)):
            layers = [sorted(p1)] + [[] for _ in range(k - 1)]
            for entries in combo:
                for l, c in entries:
                    layers[l - 1].append(c)
            out.append(WeightedPartition(n, k, tuple(tuple(sorted(layer)) for layer in layers)))
    out.sort(key=WeightedPartition.canonical_json)
    return out


def oracle_edge_set_inverse(edges, n, k):
    """``edge_set_inverse`` one layer at a time: the layer-l blocks are the
    unions, by ``_merged``, of the singletons and the edges labeled >= l."""
    from wplat import validate

    edges = list(edges)
    singletons = [(e,) for e in range(1, n + 1)]
    layers = []
    for l in range(1, k + 1):
        groups = _merged(singletons + [(i, j) for i, j, lab in edges if lab >= l])
        layers.append([g for g in groups if len(g) >= 2 or l == 1])
    return validate(n, k, layers)


def oracle_rooted_tree(pi):
    """``to_rooted_tree`` straight from the layers, with nothing shared: the
    node of a layer-d block (singletons of deeper layers included) holds the
    nodes of the layer-(d+1) blocks inside it, and at depth k its elements."""
    k = len(pi.layers)
    full = [list(pi.layers[0])]
    for layer in pi.layers[1:]:  # a deeper layer, with its singletons put back
        covered = {e for b in layer for e in b}
        full.append(list(layer) + [(e,) for e in range(1, pi.n + 1) if e not in covered])

    def node(block, depth):
        if depth == k:
            return frozenset(block)
        return frozenset(node(c, depth + 1) for c in full[depth] if set(c) <= set(block))

    return frozenset(node(b, 1) for b in full[0])


def oracle_tree_layers(tree):
    """The (n, k, layers) that ``from_rooted_tree`` collects from a tree, by
    one recursive walk: the sorted leaves under each node, grouped by the
    node's depth, with every block of depth 1 and the deeper blocks of two
    or more leaves.  Raises the "malformed" ``InvalidPartition`` of a tree
    with no leaves or with leaves at unequal depths."""
    from wplat import InvalidPartition

    by_depth = {}
    leaf_depths = set()

    def walk(node, depth):
        leaves = []
        for child in node:
            if isinstance(child, int):
                leaf_depths.add(depth + 1)
                leaves.append(child)
            else:
                leaves += walk(child, depth + 1)
        by_depth.setdefault(depth, []).append(tuple(sorted(leaves)))
        return leaves

    n = len(walk(tree, 0))
    if not n:
        raise InvalidPartition([("malformed", "tree has no leaves")])
    if len(leaf_depths) != 1:
        raise InvalidPartition([("malformed", f"unequal leaf depths {sorted(leaf_depths)}")])
    k = leaf_depths.pop() - 1
    return n, k, [[b for b in by_depth.get(d, []) if d == 1 or len(b) >= 2]
                  for d in range(1, k + 1)]


@pytest.fixture(scope="session")
def poset_cache():
    """Posets are expensive; share them across tests."""
    from wplat import build_poset

    cache = {}

    def get(n, k):
        if (n, k) not in cache:
            cache[n, k] = build_poset(n, k)
        return cache[n, k]

    return get


def order_atoms(poset, x):
    """The atoms of the built order below element x: the upper covers of
    the bottom that lie in x's ancestor mask, which holds x itself."""
    below = poset._anc[x]
    return [a for a in poset.up[poset.bottom_idx] if below >> a & 1]


def poset_from_covers(poset, covers):
    """A ``Poset`` on the elements, bottom and top of ``poset`` whose covers
    are ``covers``, triples (lower, upper, label): its labels are the
    distinct ones in label order, and each element's up list and its codes
    keep the order of ``covers``."""
    from wplat.lattice import Poset

    labels = sorted({lab for _, _, lab in covers}, key=lambda lab: lab.sort_key)
    code = {lab: c for c, lab in enumerate(labels)}
    up = [[] for _ in poset.up]
    codes = [[] for _ in poset.up]
    for lo, hi, lab in covers:
        up[lo].append(hi)
        codes[lo].append(code[lab])
    return Poset(poset.n, poset.k, poset.id_chains, labels, up, list(map(tuple, codes)),
                 poset.bottom_idx, poset.top_idx)


# -- order oracles: the enumerate-and-scan checks the bitset kernel replaced --

def oracle_leq(poset):
    """x <= y on a poset, by a search up its cover list from every x (the
    poset's own bitmasks are not used)."""
    succ = {}
    for lo, hi, _ in poset.covers:
        succ.setdefault(lo, []).append(hi)
    reach = []
    for x in range(len(poset.elements)):
        seen, stack = {x}, [x]
        while stack:
            for z in succ.get(stack.pop(), ()):
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        reach.append(seen)
    return lambda x, y: y in reach[x]


def _oracle_merge(pi, alpha, beta, l):
    """pi with the blocks of alpha and beta (a singleton where no stored
    block holds one) merged at layers 1..l, canonicalized by ``validate``."""
    from wplat import validate

    layers = []
    for j, layer in enumerate(pi.layers, start=1):
        blocks = [set(b) for b in layer]
        if j <= l:
            a = next((b for b in blocks if alpha in b), {alpha})
            b = next((b for b in blocks if beta in b), {beta})
            blocks = [c for c in blocks if c is not a and c is not b] + [a | b]
        layers.append(blocks)
    return validate(pi.n, pi.k, layers)


def oracle_admissible_covers(pi):
    """The covers of pi sorted by label, by trying every pair of first-layer
    blocks A, B: beta is the minimum of B, and alpha runs over the minima of
    the layer-l blocks that start in A and the elements of A no layer-l
    block covers."""
    from wplat import CoverLabel

    layer1 = pi.layers[0]
    out = []
    for B in layer1:
        beta = B[0]
        for A in layer1:
            if A is B:
                continue
            for l in range(1, pi.k + 1):
                covered = set()
                alphas = []
                for c in pi.layers[l - 1]:
                    if c[0] in A:
                        alphas.append(c[0])
                        covered.update(c)
                alphas.extend(e for e in A if e not in covered)
                for alpha in alphas:
                    if alpha < beta:
                        label = CoverLabel(alpha, beta, l)
                        out.append((label, _oracle_merge(pi, alpha, beta, l)))
    out.sort(key=lambda pair: pair[0].sort_key)
    return out


def oracle_build_covers(n, k):
    """``build_poset``'s cover list with one ``_raise`` per admissible
    label: every element of ``enumerate_all`` in turn, its labels in the
    order of ``_admissible``, and the covers into the adjoined top, stably
    sorted by lower element (an element of rank n-1 has only its cover
    into the top)."""
    from wplat import CoverLabel, enumerate_all
    from wplat.lattice import _admissible, _code, _raise

    elements = enumerate_all(n, k)
    codes = [_code(el) for el in elements]
    index = {code: i for i, code in enumerate(codes)}
    covers = [(i, index[_raise(code, n, *step)], CoverLabel(*step))
              for i, code in enumerate(codes) for step in _admissible(code, n, k)]
    if k >= 2 and n >= 2:
        covers += [(i, len(elements), CoverLabel(1, n, k))
                   for i, el in enumerate(elements) if el.rank == n - 1]
    return sorted(covers, key=lambda cover: cover[0])


def oracle_mobius(poset):
    """mu(x, y) for every pair x <= y, keyed by (x, y): for each x, the
    defining recursion over the elements above x in rank order, each summing
    mu(x, w) over the w found below it by ``oracle_leq``."""
    leq = oracle_leq(poset)
    size = len(poset.elements)
    out = {}
    for x in range(size):
        members = sorted((z for z in range(size) if leq(x, z)),
                         key=lambda z: (poset.rank[z], z))
        mu = {x: 1}
        for z in members[1:]:
            mu[z] = -sum(mu[w] for w in members if w in mu and w != z and leq(w, z))
        out.update(((x, z), m) for z, m in mu.items())
    return out


def _oracle_chains(poset):
    """``oracle_leq`` of the poset and a generator function of (x, y) that
    yields the label sequences of the maximal chains of [x, y], by a search
    up the poset's cover list."""
    leq = oracle_leq(poset)
    succ = {}
    for lo, hi, lab in poset.covers:
        succ.setdefault(lo, []).append((hi, lab))

    def chains(x, y):
        if x == y:
            yield ()
            return
        for z, lab in succ.get(x, ()):
            if leq(z, y):
                for rest in chains(z, y):
                    yield (lab,) + rest

    return leq, chains


def _oracle_rises(keys):
    return all(a <= b for a, b in zip(keys, keys[1:]))


def oracle_verify_el(poset):
    """The EL report of ``Poset.verify_el``, by enumerating and sorting every
    maximal chain of every interval."""
    leq, chains = _oracle_chains(poset)
    size = len(poset.elements)
    witnesses = []
    for x in range(size):
        for y in range(size):
            if not leq(x, y):
                continue
            every = sorted(chains(x, y), key=lambda ch: [lab.sort_key for lab in ch])
            rising = [ch for ch in every if _oracle_rises([lab.sort_key for lab in ch])]
            interval = [str(poset.elements[x]), str(poset.elements[y])]
            if len(rising) != 1:
                witnesses.append({"interval": interval,
                                  "issue": f"{len(rising)} rising chains",
                                  "rising": [[str(l) for l in ch] for ch in rising]})
            elif every[0] != rising[0] or (len(every) > 1 and every[1] == every[0]):
                witnesses.append({"interval": interval,
                                  "issue": "rising chain is not strictly lex-first",
                                  "rising": [str(l) for l in rising[0]],
                                  "lex_first": [str(l) for l in every[0]]})
    return {"check": "el", "status": "pass" if not witnesses else "fail",
            "witnesses": witnesses}


def oracle_label_codes(poset):
    """Each label's sort key mapped to its rank among the poset's labels."""
    keys = sorted({lab.sort_key for _, _, lab in poset.covers})
    return {key: c for c, key in enumerate(keys)}


def oracle_el_values(poset):
    """Per interval [x, y], keyed by (x, y): the number of weakly rising
    maximal chains, the lex-first label sequence coded by
    ``oracle_label_codes``, and the number of chains that carry it, by
    enumerating every maximal chain."""
    leq, chains = _oracle_chains(poset)
    code = oracle_label_codes(poset)
    size = len(poset.elements)
    out = {}
    for x in range(size):
        for y in range(size):
            if leq(x, y):
                seqs = [tuple(code[lab.sort_key] for lab in ch) for ch in chains(x, y)]
                lex = min(seqs)
                out[x, y] = (sum(map(_oracle_rises, seqs)), lex, seqs.count(lex))
    return out


def _padded(pi, layer):
    """The blocks of ``layer`` completed with the singletons of the elements
    it does not cover."""
    blocks = list(pi.layers[layer - 1])
    covered = {e for b in blocks for e in b}
    return blocks + [(e,) for e in range(1, pi.n + 1) if e not in covered]


def _merged(blocks):
    """The unions of the overlapping blocks: each block absorbs every group
    it meets so far."""
    groups = []
    for b in blocks:
        group, apart = set(b), []
        for g in groups:
            if g & group:
                group |= g
            else:
                apart.append(g)
        groups = apart + [group]
    return groups


def oracle_join(x, y):
    """Layerwise join from the singleton-padded layers: merge the
    overlapping blocks of both (layer 1 keeps singletons), then
    ``validate``."""
    from wplat import validate

    layers = []
    for l in range(1, x.k + 1):
        groups = _merged(_padded(x, l) + _padded(y, l))
        layers.append([g for g in groups if l == 1 or len(g) >= 2])
    return validate(x.n, x.k, layers)


def oracle_meet(x, y):
    """Layerwise meet from the singleton-padded layers: every non-empty
    pairwise intersection (size >= 2 below layer 1), then ``validate``."""
    from wplat import validate

    layers = []
    for l in range(1, x.k + 1):
        ys = _padded(y, l)
        cuts = [set(a) & set(b) for a in _padded(x, l) for b in ys]
        layers.append([c for c in cuts if c and (l == 1 or len(c) >= 2)])
    return validate(x.n, x.k, layers)


def oracle_structural_checks(poset):
    """The report of ``structural_checks`` by a scan of every pair of
    elements against ``oracle_leq``: common bounds, covers (the minimal
    elements strictly above) and atoms are found by testing each element in
    turn."""
    from wplat.lattice import MAX_WITNESSES

    leq = oracle_leq(poset)
    size = len(poset.elements)
    names = [str(el) for el in poset.elements]

    def extreme(members, le):
        return [z for z in members if not any(w != z and le(w, z) for w in members)]

    def covers(x):
        return extreme([z for z in range(size) if z != x and leq(x, z)], leq)

    def report(check, found, of):
        return {"check": check, "status": "warn" if found else "pass",
                "count": len(found), "of": of, "witnesses": found[:MAX_WITNESSES]}

    checks = []
    for check, le, key in (("least_upper_bounds", leq, "minimal_upper_bounds"),
                           ("greatest_lower_bounds", lambda a, b: leq(b, a),
                            "maximal_lower_bounds")):
        found = []
        for x in range(size):
            for y in range(x + 1, size):
                bounds = extreme([z for z in range(size) if le(x, z) and le(y, z)], le)
                if len(bounds) != 1:
                    found.append({"x": names[x], "y": names[y],
                                  key: [names[z] for z in bounds]})
        checks.append(report(check, found, size * (size - 1) // 2))

    upper = [covers(x) for x in range(size)]
    found, pairs = [], 0
    for x in range(size):
        for a, b in combinations(upper[x], 2):
            pairs += 1
            if not set(upper[a]) & set(upper[b]):
                found.append({"x": names[x], "covers": [names[a], names[b]]})
    checks.append(report("semimodular", found, pairs))

    found = []
    for x in range(size):
        atoms = [a for a in upper[poset.bottom_idx] if leq(a, x)]
        bounds = [z for z in range(size) if all(leq(a, z) for a in atoms)]
        if not all(leq(x, z) for z in bounds):
            found.append({"x": names[x]})
    checks.append(report("atomistic", found, size))
    return checks


# -- tree oracle: the nested-generator enumeration that the memoised one replaced --

def _all_ints(tree):
    """Integer parts of all labels in the tree (root excluded if unlabeled)."""
    out = [] if tree.value is None else [tree.value]
    if not tree.is_leaf:
        out += _all_ints(tree.left) + _all_ints(tree.right)
    return out


def _right_ints(tree, is_right):
    """Integer labels of right-child nodes within the tree (the tree's own
    root included when it is itself a right child)."""
    out = [tree.value] if is_right and tree.value is not None else []
    if not tree.is_leaf:
        out += _right_ints(tree.left, False) + _right_ints(tree.right, True)
    return out


def _oracle_subtrees(shape, ints, is_right, k):
    """Labeled subtrees of ``shape`` over ``ints``, regenerating the right
    subtrees for every left subtree (no memo)."""
    from wplat import LBT

    if shape == ():
        for s in range(1, k + 1):
            yield LBT(ints[0], s)
        return
    ls, rs = shape

    def leaves_of(sh) -> int:
        return 1 if sh == () else leaves_of(sh[0]) + leaves_of(sh[1])

    rest = list(ints)
    for left_ints in combinations(rest, leaves_of(ls)):
        right_ints = tuple(v for v in rest if v not in left_ints)
        for lc in _oracle_subtrees(ls, left_ints, False, k):
            for rc in _oracle_subtrees(rs, right_ints, True, k):
                if not (lc.value < rc.value and lc.sub == rc.sub):
                    continue
                allowed = set(_all_ints(lc)) | set(_all_ints(rc))
                if is_right:
                    allowed -= set(_right_ints(lc, False))
                    allowed -= set(_right_ints(rc, True))
                for s in range(lc.sub, k + 1):
                    for v in sorted(allowed):
                        yield LBT(v, s, lc, rc)


def oracle_count_descents(tree):
    """Non-root internal nodes whose label is smaller (in the label order:
    deeper subscript smaller) than their left child's."""
    if tree.is_leaf:
        return 0
    total = oracle_count_descents(tree.left) + oracle_count_descents(tree.right)
    if tree.value is not None:
        lc = tree.left
        if tree.sub > lc.sub or (tree.sub == lc.sub and tree.value < lc.value):
            total += 1
    return total


def oracle_lbt_check(tree, n, k):
    """``lbt_check`` before heap order: S1-S3 and S5, the root rule, a
    descent bound, and a greedy read-off that must be a strictly decreasing
    admissible chain reconstructing the tree (through the lattice's cover
    step)."""
    from wplat import chain_to_lbt, lbt_to_chain

    problems = []
    if tree.value is not None or tree.sub is not None:
        problems.append("root must be unlabeled")
    leaves = []

    def walk(node):
        if node is not tree:
            if node.value is None or not 1 <= node.value <= n:
                problems.append("label integer out of range")
            if node.sub is None or not 1 <= node.sub <= k:
                problems.append("label subscript out of range")
        if node.is_leaf:
            leaves.append(node.value)
            return
        lc, rc = node.left, node.right
        if not (lc.value < rc.value and lc.sub == rc.sub):
            problems.append(f"S2: siblings {lc.value}_{lc.sub},{rc.value}_{rc.sub}")
        if node is not tree:
            if node.sub < lc.sub or node.sub < rc.sub:
                problems.append("S3: subscripts must weakly increase to the root")
        for child, is_right in ((lc, False), (rc, True)):
            if child.is_leaf:
                continue
            allowed = set(_all_ints(child.left)) | set(_all_ints(child.right))
            if is_right:
                allowed -= set(_right_ints(child.left, False))
                allowed -= set(_right_ints(child.right, True))
            if child.value not in allowed:
                side = "right" if is_right else "left"
                problems.append(f"S5: {side} child {child.value}_{child.sub} label not allowed")
        walk(lc)
        walk(rc)

    walk(tree)
    if sorted(leaves) != list(range(1, n + 1)):
        problems.append("S1: leaf integers must be a bijection with [n]")
    if k >= 2:
        if oracle_count_descents(tree) > n - 2:
            problems.append("more than n-2 descents")
        lc = tree.left
        if lc is not None and (lc.value, lc.sub) == (1, k):
            problems.append("left child of the root is labeled 1_k")
    if not problems:
        try:
            chain = lbt_to_chain(tree, k)
            if chain_to_lbt(chain, n, k) != tree:
                problems.append("read-off chain does not reconstruct the tree")
        except ValueError as exc:
            problems.append(f"read-off chain invalid: {exc}")
    return problems


def oracle_root_candidates(n, k):
    """Every tree with an unlabeled root over two subtrees from
    ``_oracle_subtrees``, before any test at the root."""
    from wplat import LBT
    from wplat.chains import _count_leaves, _shapes

    for ls, rs in _shapes(n):
        for left_ints in combinations(range(1, n + 1), _count_leaves(ls)):
            right_ints = tuple(v for v in range(1, n + 1) if v not in left_ints)
            for lc in _oracle_subtrees(ls, left_ints, False, k):
                for rc in _oracle_subtrees(rs, right_ints, True, k):
                    yield LBT(None, None, lc, rc)


def oracle_enumerate_lbt(n, k):
    """``enumerate_lbt`` as nested generators filtered by the round-trip
    checker, in the same generation order."""
    out = []
    for tree in oracle_root_candidates(n, k):
        lc, rc = tree.left, tree.right
        if not (lc.value < rc.value and lc.sub == rc.sub):
            continue
        if k >= 2:
            if (lc.value, lc.sub) == (1, k):
                continue
            if oracle_count_descents(tree) > n - 2:
                continue
        if not oracle_lbt_check(tree, n, k):
            out.append(tree)
    return out
