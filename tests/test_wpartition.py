"""Weighted partitions: validation, printing/parsing, enumeration, and the
rooted-tree and edge-set encodings."""

import hashlib
import json
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations

import pytest
from conftest import (
    oracle_edge_set_inverse,
    oracle_enumerate_all,
    oracle_rooted_tree,
    oracle_tree_layers,
    order_atoms,
)
from hypothesis import given, settings
from hypothesis import strategies as st_

from wplat import wpartition
from wplat import (
    InvalidPartition,
    OneLineParseError,
    TOP,
    T_def,
    WeightedPartition,
    edge_set,
    edge_set_inverse,
    enumerate_all,
    enumerate_by_blocks,
    enumerate_tree_shapes,
    from_rooted_tree,
    one_line_parse,
    one_line_print,
    to_rooted_tree,
    tree_class_size,
    tree_shape,
    validate,
)
from wplat.wpartition import _layer_text, _one_line_layers


def wp(n, k, layers):
    return validate(n, k, layers)


class TestValidation:
    def test_valid_paper_example(self):
        pi = wp(6, 3, [
            [(1, 3, 5), (2, 4), (6,)],
            [(3, 5), (2, 4)],
            [(2, 4)],
        ])
        assert pi.rank == 3
        assert str(pi) == "1(35)^2/(24)^3/6"

    def test_singleton_forbidden_above_layer_one(self):
        with pytest.raises(InvalidPartition) as exc:
            wp(4, 2, [[(1, 3), (2,), (4,)], [(2,)]])
        assert any(kind == "singleton" for kind, _ in exc.value.violations)

    def test_coverage_error(self):
        with pytest.raises(InvalidPartition) as exc:
            wp(4, 1, [[(1, 2), (3,)]])
        assert any(kind == "coverage" for kind, _ in exc.value.violations)

    def test_overlap_error(self):
        with pytest.raises(InvalidPartition) as exc:
            wp(4, 1, [[(1, 2), (2, 3), (4,)]])
        assert any(kind == "overlap" for kind, _ in exc.value.violations)

    def test_nesting_error(self):
        # a layer-2 block must sit inside a single layer-1 block
        with pytest.raises(InvalidPartition) as exc:
            wp(4, 2, [[(1, 2), (3, 4)], [(2, 3)]])
        assert any(kind == "nesting" for kind, _ in exc.value.violations)

    def test_nesting_scans_when_the_layer_before_overlaps(self):
        # layer 1 holds 1 and 2 twice, so the owner of 1 is (1, 2); the block
        # (1, 3) of layer 2 still lies inside (1, 2, 3)
        with pytest.raises(InvalidPartition) as exc:
            wp(3, 2, [[(1, 2, 3), (1, 2)], [(1, 3)]])
        assert exc.value.violations == [
            ("overlap", "element 1 in two blocks of layer 1: (1, 2, 3) and (1, 2)"),
            ("overlap", "element 2 in two blocks of layer 1: (1, 2, 3) and (1, 2)")]
        with pytest.raises(InvalidPartition) as exc:
            wp(4, 2, [[(1, 2, 3), (1, 2), (4,)], [(1, 4)]])
        assert exc.value.violations[-1] == (
            "nesting", "block (1, 4) of layer 2 not inside one block of layer 1")

    def test_violation_lists_match_pinned_digest(self):
        # 3,000 seeded layer lists, nearly all malformed: every violation
        # list, in order, or the partition when there is none
        rng = random.Random(16)
        outs = []
        for _ in range(3000):
            n, k = rng.randint(1, 6), rng.randint(1, 3)
            layers = [[[rng.randint(0, n + 1) for _ in range(rng.randint(0, 3))]
                       for _ in range(rng.randint(1, 4))] for _ in range(k)]
            try:
                outs.append(str(validate(n, k, layers)))
            except InvalidPartition as exc:
                outs.append(repr(exc.violations))
        assert sum("nesting" in o for o in outs) == 1038
        assert hashlib.sha256("\n".join(outs).encode()).hexdigest() == (
            "e6ddb82cb53ef8586b49aed2cf5d45ce885d0c5d32b6bcbe7eb40cbcfbec9e48")

    def test_rank_is_n_minus_first_layer_blocks(self):
        pi = wp(5, 2, [[(1, 2, 3), (4, 5)], [(1, 2), (4, 5)]])
        assert pi.rank == 5 - 2


class TestOneLineNotation:
    def test_paper_example_round_trip(self):
        text = "1(35)^2/(24)^3/6"
        pi = one_line_parse(text, 6, 3)
        assert one_line_print(pi) == text

    def test_alias_exponent_on_element(self):
        # an exponent on a bare element extends every enclosing block
        pi = one_line_parse("1^2(23)^3/(46)^35", 6, 3)
        canonical = one_line_print(pi)
        assert one_line_parse(canonical, 6, 3) == pi

    @pytest.mark.parametrize("text, n, k", [("113/24/5", 5, 2), ("(112)^2 3/4", 4, 2)])
    def test_repeated_element_rejected(self, text, n, k):
        # each occurrence of an element is kept, so validate sees the repeat
        with pytest.raises(InvalidPartition) as exc:
            one_line_parse(text, n, k)
        assert "overlap" in [kind for kind, _ in exc.value.violations]

    @pytest.mark.parametrize("n, k", [(1, 0), (1, -1), (-1, 1)])
    def test_bad_size_rejected_as_malformed(self, n, k):
        with pytest.raises(InvalidPartition) as exc:
            one_line_parse("1", n, k)
        assert exc.value.violations == [
            ("malformed", f"need n >= 0 and k >= 1, got n={n}, k={k}")]

    def test_singleton_layer2_rejected(self):
        with pytest.raises((InvalidPartition, OneLineParseError)):
            one_line_parse("13/(2)^24", 4, 2)

    # texts with one fault each, and where the parser reports it
    ERRORS = [("1(", 2, 1, 2), ("1(23/4", 4, 2, 4), ("(12)3", 3, 2, 4), ("()^2", 2, 2, 1),
              ("1x2", 2, 1, 1), ("(12)^", 2, 2, 5), ("1/2/", 2, 1, 4), ("1)2", 2, 1, 1),
              ("(1(23)^2)^2", 3, 3, 2), ("(12)^2^3", 2, 3, 6), ("1//2", 2, 1, 2)]

    def test_parse_error_position(self):
        for text, n, k, pos in self.ERRORS:
            with pytest.raises(OneLineParseError) as caught:
                one_line_parse(text, n, k)
            assert caught.value.pos == pos, text

    @pytest.mark.parametrize("text, n, k, pos", [
        ("(12)^5", 2, 2, 0),       # group exponent above k
        ("1(23)^9", 3, 2, 1),
        ("(12)^2 3^3", 3, 2, 7),   # aliased element exponent above k
        ("(25)^1/134", 5, 2, 0),   # top-level group exponent below 2
        ("(25)^0/134", 5, 2, 0),
        ("1^1 2", 2, 2, 0),        # top-level element exponent below 2
    ])
    def test_exponent_out_of_range_rejected(self, text, n, k, pos):
        with pytest.raises(OneLineParseError) as caught:
            one_line_parse(text, n, k)
        assert caught.value.pos == pos

    def test_wide_names_separate_items_with_commas(self):
        # exponents of two digits make the names wide at any n
        assert one_line_print(validate(2, 10, [[(1, 2)]] * 10)) == "(1,2)^10"

    def test_round_trip_everything_small(self):
        for n, k in [(1, 1), (3, 1), (3, 2), (4, 2), (4, 3), (2, 10), (3, 10), (2, 12)]:
            for pi in enumerate_all(n, k):
                assert one_line_parse(one_line_print(pi), n, k) == pi

    def test_names_match_pinned_digest(self):
        # every element at (4,4), (5,3) and (6,2), then 500 seeded
        # partitions at n = 10..12 (comma separators, deeper nesting)
        rng = random.Random(12)
        pis = [pi for n, k in [(4, 4), (5, 3), (6, 2)] for pi in enumerate_all(n, k)]
        for _ in range(500):
            n, k = rng.randint(10, 12), rng.randint(1, 3)
            edges = [(i, j, rng.randint(1, k)) for i, j in combinations(range(1, n + 1), 2)
                     if rng.random() < 2 / n]
            pis.append(edge_set_inverse(edges, n, k))
        names = "\n".join(one_line_print(pi) for pi in pis)
        assert len(pis) == 4590
        assert hashlib.sha256(names.encode()).hexdigest() == (
            "61404d390c188443074c6295f0529c5ab84b1336dd64d572bbd7c37c7f23bd6f")


class TestEnumeration:
    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 1), (4, 1),
                                     (2, 2), (3, 2), (4, 2),
                                     (2, 3), (3, 3), (4, 3)])
    def test_counts_match_T(self, n, k):
        everything = enumerate_all(n, k)
        assert len(everything) == sum(T_def(n, k, r) for r in range(n + 1))
        by_rank = {}
        for pi in everything:
            by_rank[len(pi.layers[0])] = by_rank.get(len(pi.layers[0]), 0) + 1
        for r in range(1, n + 1):
            assert by_rank.get(r, 0) == T_def(n, k, r)

    def test_by_blocks_consistent(self):
        for r in range(1, 4):
            subset = enumerate_by_blocks(3, 2, r)
            assert len(subset) == T_def(3, 2, r)
            assert all(len(pi.layers[0]) == r for pi in subset)

    def test_paper_case_3_2(self):
        counts = [len(enumerate_by_blocks(3, 2, r)) for r in (1, 2, 3)]
        assert counts == [5, 6, 1]
        assert sum(counts) == 12

    def test_deterministic_order(self):
        a = [str(pi) for pi in enumerate_all(4, 2)]
        b = [str(pi) for pi in enumerate_all(4, 2)]
        assert a == b

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, 4)]
                             + [(4, 4), (3, 5), (2, 6), (7, 1)])
    def test_matches_oracle(self, n, k):
        assert enumerate_all(n, k) == oracle_enumerate_all(n, k)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, 5)]
                             + [(7, 2), (2, 40)])
    def test_block_tallies_match_enumeration(self, n, k):
        # count sums over the refinement lists, and lists no chain and
        # builds no partition
        assert wpartition._count_by_blocks(n, k) \
            == Counter(len(pi.layers[0]) for pi in enumerate_all(n, k)) \
            == Counter(len(pi.layers[0]) for pi in oracle_enumerate_all(n, k))

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in range(1, 4)]
                             + [(5, 3), (6, 2)])
    def test_id_chains_key_their_ids(self, n, k):
        # the chains' ids, flat, decode to the elements, and each key is
        # sum_j p_j B^(j-1)
        size = len(wpartition._set_partitions(n)[0])
        chains = list(wpartition._id_chains(n, k))
        flat = [p for ids, _ in chains for p in ids]
        assert list(wpartition._decode_chains(n, k, flat)) == enumerate_all(n, k)
        assert [key for _, key in chains] == [
            sum(p * size ** j for j, p in enumerate(ids)) for ids, _ in chains]

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(1, 4)]
                             + [(7, 2)])
    def test_canonical_json_order(self, n, k):
        everything = enumerate_all(n, k)
        assert everything == sorted(everything, key=WeightedPartition.canonical_json)


class TestJsonRoundTrip:
    def test_json_round_trip(self):
        for pi in enumerate_all(3, 2):
            data = json.loads(pi.canonical_json())
            assert WeightedPartition.from_json_dict(data) == pi


class TestTreesAndEdges:
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in range(1, 4)]
                             + [(5, 3)])
    def test_rooted_tree_matches_oracle(self, n, k):
        for pi in enumerate_all(n, k):
            assert to_rooted_tree(pi) == oracle_rooted_tree(pi)

    def test_rooted_tree_round_trip(self):
        for n, k in [(3, 1), (3, 2), (4, 2), (4, 3)]:
            for pi in enumerate_all(n, k):
                assert from_rooted_tree(to_rooted_tree(pi)) == pi

    def test_edge_set_round_trip(self):
        for n, k in [(3, 1), (3, 2), (4, 2), (4, 3)]:
            for pi in enumerate_all(n, k):
                assert edge_set_inverse(edge_set(pi), n, k) == pi

    @pytest.mark.parametrize("edges", [{(1, 2, 0)}, {(1, 2, 5)}, {(2, 1, 1)},
                                       {(1, 1, 1)}, {(0, 2, 1)}, {(1, 4, 1)}])
    def test_edge_set_inverse_rejects_malformed_edges(self, edges):
        with pytest.raises(InvalidPartition) as exc:
            edge_set_inverse(edges, 3, 2)
        assert [kind for kind, _ in exc.value.violations] == ["malformed"]

    def test_edge_set_inverse_rejects_malformed_edges_with_their_list(self):
        with pytest.raises(InvalidPartition) as exc:
            edge_set_inverse([(1, 2, 1), (2, 1, 1), (1, 3, 3)], 3, 2)
        assert exc.value.violations == [
            ("malformed", "edges outside 1 <= i < j <= 3, 1 <= l <= 2: [(1, 3, 3), (2, 1, 1)]")]

    @pytest.mark.parametrize("n,k", [(4, 3), (5, 2)])
    def test_edge_set_inverse_matches_per_layer_oracle(self, n, k):
        for pi in enumerate_all(n, k):
            edges = edge_set(pi)
            assert edge_set_inverse(edges, n, k) == oracle_edge_set_inverse(edges, n, k) == pi

    def test_edge_set_inverse_of_any_edge_set_matches_oracle(self):
        # edge sets that are no element's: pairs repeated with other labels,
        # labels that break nesting, up to n = 10
        rng = random.Random(7)
        for _ in range(400):
            n, k = rng.randint(1, 10), rng.randint(1, 4)
            edges = [(i, j, rng.randint(1, k)) for i, j in combinations(range(1, n + 1), 2)
                     for _ in range(2) if rng.random() < 1.5 / n]
            assert edge_set_inverse(edges, n, k) == oracle_edge_set_inverse(edges, n, k)

    @pytest.mark.parametrize("tree,message", [
        (frozenset(), "tree has no leaves"),
        (frozenset({frozenset(), frozenset({frozenset()})}), "tree has no leaves"),
        (frozenset({1, frozenset({2})}), "unequal leaf depths [1, 2]"),
        (frozenset({frozenset({frozenset({1, 2})}), frozenset({3})}),
         "unequal leaf depths [2, 3]"),
    ])
    def test_from_rooted_tree_rejects_malformed_trees(self, tree, message):
        with pytest.raises(InvalidPartition) as exc:
            from_rooted_tree(tree)
        assert exc.value.violations == [("malformed", message)]

    def test_shape_class_sizes_3_2(self):
        shapes = enumerate_tree_shapes(3, 2)
        sizes = sorted(tree_class_size(s) for s in shapes)
        assert sizes == [1, 1, 1, 3, 3, 3]

    def test_paper_example_class_size(self):
        pi = one_line_parse("1(35)^2/(24)^3/6", 6, 3)
        assert tree_class_size(tree_shape(to_rooted_tree(pi))) == 180

    def test_class_sizes_partition_the_poset(self):
        for n, k in [(3, 2), (4, 2)]:
            shapes = enumerate_tree_shapes(n, k)
            assert sum(tree_class_size(s) for s in shapes) == \
                len(enumerate_all(n, k))


def _outcome(f, *args):
    """What f(*args) returns, or the refusal it raises."""
    try:
        return f(*args)
    except InvalidPartition as exc:
        return "refused", exc.violations
    except OneLineParseError as exc:
        return "syntax", exc.pos, exc.expected


@lru_cache(maxsize=None)
def _elements(n, k):
    return enumerate_all(n, k)


def _as_lists(node):
    return node if isinstance(node, int) else [_as_lists(c) for c in node]


def _as_tree(node):
    return node if isinstance(node, int) else frozenset(_as_tree(c) for c in node)


def _internal_nodes(node):
    out = [node]
    for c in node:
        if not isinstance(c, int):
            out += _internal_nodes(c)
    return out


def _corrupt_tree(rng, tree, n):
    """One or two faults: a leaf repeated, missing or out of range, an empty
    node, or a child moved one level down or up."""
    root = _as_lists(tree)
    for _ in range(rng.randint(1, 2)):
        nodes = _internal_nodes(root)
        holders = [v for v in nodes if any(isinstance(c, int) for c in v)]
        fault = rng.choice(["repeat", "missing", "range", "empty", "down", "up"])
        if fault in ("repeat", "missing", "range") and holders:
            v = rng.choice(holders)
            i = rng.choice([i for i, c in enumerate(v) if isinstance(c, int)])
            if fault == "repeat":
                v[i] = rng.randint(1, n)
            elif fault == "missing":
                del v[i]
            else:
                v[i] = rng.choice([0, -1, n + 1])
        elif fault == "empty":
            rng.choice(nodes).append([])
        elif fault == "down":
            v = rng.choice(nodes)
            if v:
                i = rng.randrange(len(v))
                v[i] = [v[i]]
        else:
            v = rng.choice(nodes)
            inner = [i for i, c in enumerate(v) if not isinstance(c, int)]
            if inner:
                i = rng.choice(inner)
                v[i:i + 1] = v[i]
    return _as_tree(root)


def _corrupt_name(rng, text, n):
    """One to three edits: a character inserted, replaced or deleted."""
    alphabet = "()^/ ," + "".join(map(str, range(min(n + 2, 10))))
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice("ird") if chars else "i"
        if edit == "i":
            chars.insert(rng.randint(0, len(chars)), rng.choice(alphabet))
        elif edit == "r":
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        else:
            del chars[rng.randrange(len(chars))]
    return "".join(chars)


class TestInversesAgainstValidate:
    """The three inverses build their results canonical without
    ``validate``, which runs only to refuse: each result is its own
    ``validate``, and each refusal is the one ``validate`` gives for the
    layers collected from the same input."""

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, 4)])
    def test_every_element(self, n, k):
        for pi in _elements(n, k):
            for got in (from_rooted_tree(to_rooted_tree(pi)),
                        edge_set_inverse(edge_set(pi), n, k),
                        one_line_parse(one_line_print(pi), n, k)):
                assert got == validate(n, k, got.layers) == pi

    def test_corrupted_trees(self):
        rng = random.Random(25)
        seen = Counter()
        for _ in range(1500):
            n, k = rng.randint(2, 5), rng.randint(1, 3)
            tree = _corrupt_tree(rng, to_rooted_tree(rng.choice(_elements(n, k))), n)
            got = _outcome(from_rooted_tree, tree)
            assert got == _outcome(lambda: validate(*oracle_tree_layers(tree)))
            if isinstance(got, WeightedPartition):
                assert got == validate(got.n, got.k, got.layers)
            seen[got[0] if got[0] == "refused" else "accepted"] += 1
        assert seen["accepted"] >= 100 and seen["refused"] >= 1000

    def test_corrupted_names(self):
        rng = random.Random(26)
        seen = Counter()
        for _ in range(1500):
            n, k = rng.randint(2, 5), rng.randint(1, 3)
            text = _corrupt_name(rng, one_line_print(rng.choice(_elements(n, k))), n)
            got = _outcome(one_line_parse, text, n, k)
            assert got == _outcome(lambda: validate(n, k, _one_line_layers(text, n, k))), text
            if isinstance(got, WeightedPartition):
                assert got == validate(n, k, got.layers)
            seen[got[0] if got[0] in ("refused", "syntax") else "accepted"] += 1
        assert min(seen["accepted"], seen["refused"], seen["syntax"]) >= 100

    def test_random_edge_sets(self):
        rng = random.Random(27)
        refused = 0
        for _ in range(1500):
            n, k = rng.randint(1, 6), rng.randint(1, 3)
            edges = [(i, j, rng.randint(1, k)) for i, j in combinations(range(1, n + 1), 2)
                     for _ in range(2) if rng.random() < 1.5 / n]
            if rng.random() < 0.2:
                edges.append(rng.choice([(0, 1, 1), (1, n + 1, 1), (2, 1, 1), (1, 2, 0),
                                         (1, 2, k + 1)]))
            got = _outcome(edge_set_inverse, edges, n, k)
            bad = sorted(e for e in edges if not (1 <= e[0] < e[1] <= n and 1 <= e[2] <= k))
            if bad:
                refused += 1
                assert got == ("refused", [("malformed", f"edges outside 1 <= i < j <= {n}, "
                                                         f"1 <= l <= {k}: {bad}")])
            else:
                assert got == validate(n, k, got.layers) == oracle_edge_set_inverse(edges, n, k)
        assert refused >= 100


class TestAtoms:
    """The atoms of the built order, read from its covers and masks."""

    def test_atom_count(self, poset_cache):
        for n, k in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
            P = poset_cache(n, k)
            assert len(order_atoms(P, P.top_idx)) == k * n * (n - 1) // 2

    def test_atoms_have_rank_one(self, poset_cache):
        P = poset_cache(4, 2)
        assert sorted(order_atoms(P, P.top_idx)) == [x for x in range(len(P)) if P.rank[x] == 1]

    def test_decomposition_reconstitutes(self, poset_cache):
        # merging the edges of the atoms below an element reproduces it
        for n, k in [(3, 2), (4, 2), (4, 3)]:
            P = poset_cache(n, k)
            for x, pi in enumerate(P.elements):
                if pi is not TOP:
                    edges = set()
                    for a in order_atoms(P, x):
                        edges |= edge_set(P.elements[a])
                    assert edge_set_inverse(edges, n, k) == pi, str(pi)

    def test_bottom_has_no_atoms(self, poset_cache):
        P = poset_cache(4, 2)
        assert order_atoms(P, P.bottom_idx) == []


@given(st_.data())
@settings(max_examples=40, deadline=None)
def test_property_print_parse_identity(data):
    n = data.draw(st_.integers(2, 4))
    k = data.draw(st_.integers(1, 3))
    everything = enumerate_all(n, k)
    pi = data.draw(st_.sampled_from(everything))
    assert one_line_parse(one_line_print(pi), n, k) == pi
    assert from_rooted_tree(to_rooted_tree(pi)) == pi


@st_.composite
def weighted_partitions(draw, n, k):
    """Element e lies in the layer-l block of the elements whose first l
    drawn colours equal its own; singletons are dropped below layer 1."""
    colours = draw(st_.lists(st_.lists(st_.integers(0, 5), min_size=k, max_size=k),
                             min_size=n, max_size=n))
    layers = []
    for l in range(1, k + 1):
        blocks = {}
        for e, c in enumerate(colours, start=1):
            blocks.setdefault(tuple(c[:l]), []).append(e)
        layers.append([b for b in blocks.values() if l == 1 or len(b) >= 2])
    return validate(n, k, layers)


@given(st_.data())
@settings(max_examples=60, deadline=None)
def test_canonical_order_past_nine(data):
    # from n = 10 on, the JSON text "10" sorts before "2"
    n = data.draw(st_.integers(10, 12))
    k = data.draw(st_.integers(1, 3))
    parts = data.draw(st_.lists(weighted_partitions(n, k), min_size=2, max_size=30))
    # enumerate_all orders each layer by its text, and a stack by the tuple
    # of its layers' texts
    want = sorted(parts, key=WeightedPartition.canonical_json)
    assert sorted(parts, key=lambda pi: tuple(map(_layer_text, pi.layers))) == want
