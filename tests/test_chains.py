"""Cycle diagrams, colorings, and the chain <-> labeled-binary-tree
bijection."""

import gc
import hashlib
import json
import random
from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest
from conftest import (
    oracle_admissible_covers,
    oracle_count_descents,
    oracle_enumerate_lbt,
    oracle_lbt_check,
    oracle_root_candidates,
)

import wplat.chains
import wplat.lattice
from wplat import (
    CycleDiagram,
    LBT,
    TOP,
    apply_chain,
    chain_to_lbt,
    diagram_to_decreasing_chain,
    edge_set,
    edge_set_inverse,
    enumerate_colorings,
    enumerate_cycle_diagrams,
    enumerate_lbt,
    from_rooted_tree,
    i_of_sigma,
    lbt_check,
    lbt_to_chain,
    mobius_closed_form,
    one_line_parse,
    one_line_print,
    stirling1,
    t_def,
    t_via_diagrams,
    to_rooted_tree,
    wt_k,
)


def decreasing_chain_set(poset):
    return {tuple(c) for c in
            poset.decreasing_chains(poset.bottom_idx, poset.top_idx)}


class TestCycleDiagrams:
    def test_counts_by_components(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                count = sum(1 for _ in enumerate_cycle_diagrams(n, r))
                assert count == abs(stirling1(n, r))

    def test_paper_weights(self):
        # path 1 -> 2 -> 3 -> 4 and star 2 -> {3,4} with 1 -> 2
        path = CycleDiagram(4, frozenset({(1, 2), (2, 3), (3, 4)}))
        star = CycleDiagram(4, frozenset({(1, 2), (2, 3), (2, 4)}))
        assert wt_k(path, 3) == 10
        assert wt_k(star, 3) == 14
        assert wt_k(path, 1) == 1 and wt_k(star, 1) == 1

    def test_t_via_diagrams_matches_def(self):
        for k in (1, 2, 3):
            for n in range(1, 7):
                for r in range(1, n + 1):
                    assert t_via_diagrams(n, k, r) == t_def(n, k, r)


class TestPairsAndColorings:
    def test_paper_example_pairs(self):
        got = sorted(i_of_sigma([1, 4, 5, 3, 6, 2]))
        assert got == [(1, 2), (1, 3), (1, 4), (3, 6), (4, 5)]

    def test_pair_rule(self):
        # for every j >= 2 the partner is the rightmost smaller entry left of it
        sigma = [1, 3, 2, 5, 4]
        pairs = i_of_sigma(sigma)
        assert (2, 5) in pairs  # partner of 5 is sigma_3 = 2? no: rightmost smaller left of 5 is 2
        assert len(pairs) == len(sigma) - 1

    def test_colorings_count(self):
        # pairs containing 1 admit k-1 colors, others k
        total = 0
        for tail in permutations(range(2, 4)):
            sigma = (1,) + tail
            total += len(list(enumerate_colorings(i_of_sigma(sigma), 2)))
        assert total == abs(mobius_closed_form(3, 2))

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 3), (4, 3)])
    def test_colored_diagrams_biject_with_decreasing_chains(self, n, k,
                                                           poset_cache):
        P = poset_cache(n, k)
        want = decreasing_chain_set(P)
        got = set()
        for tail in permutations(range(2, n + 1)):
            sigma = (1,) + tail
            pairs = i_of_sigma(sigma)
            for col in enumerate_colorings(pairs, k):
                got.add(tuple(diagram_to_decreasing_chain(pairs, col, n, k)))
        assert got == want
        assert len(got) == abs(mobius_closed_form(n, k))

    def test_k1_diagrams_biject(self, poset_cache):
        for n in (3, 4, 5):
            P = poset_cache(n, 1)
            want = decreasing_chain_set(P)
            got = set()
            for tail in permutations(range(2, n + 1)):
                sigma = (1,) + tail
                pairs = i_of_sigma(sigma)
                got.add(tuple(diagram_to_decreasing_chain(pairs, None, n, 1)))
            assert got == want
            assert len(got) == factorial(n - 1)


class TestLBT:
    @pytest.mark.parametrize("n,k,count", [
        (2, 1, 1), (3, 1, 2), (4, 1, 6), (5, 1, 24),
        (2, 2, 1), (3, 2, 3), (4, 2, 15),
        (2, 3, 2), (3, 3, 10), (4, 3, 80),
        (6, 1, 120), (6, 2, 945), (6, 3, 12320),
    ])
    def test_counts_match_mobius(self, n, k, count):
        trees = enumerate_lbt(n, k)
        assert len(trees) == count == abs(mobius_closed_form(n, k))

    def test_trees_pass_checker(self):
        for n, k in [(3, 2), (4, 2), (3, 3)]:
            for t in enumerate_lbt(n, k):
                assert lbt_check(t, n, k) == []

    def test_checker_rejects_wrong_leaf_set(self):
        bad = LBT(None, None, LBT(1, 1), LBT(3, 1))
        assert any("S1" in p for p in lbt_check(bad, 2, 1))

    def test_checker_rejects_sibling_order(self):
        bad = LBT(None, None, LBT(2, 1), LBT(1, 1))
        assert any("S2" in p for p in lbt_check(bad, 2, 1))

    def test_checker_rejects_rising_readoff(self):
        # structurally plausible but reads off a non-decreasing chain
        bad = LBT(None, None,
                  LBT(1, 1, LBT(1, 1), LBT(2, 1)),
                  LBT(3, 1))
        assert any("S4" in p for p in lbt_check(bad, 3, 1))

    def test_root_left_child_rule(self):
        # the k >= 2 tree whose root's left child is 1_k cannot extend past
        # the final step into the top
        bad = LBT(None, None,
                  LBT(1, 2, LBT(1, 1), LBT(3, 1)),
                  LBT(2, 2))
        assert any("1_k" in p for p in lbt_check(bad, 3, 2))

    # an internal node with one child: left only, and right only one level
    # down, where the heap order of the node above would read its children
    ONE_CHILD = [
        (LBT(None, None, LBT(1, 1, LBT(1, 1), None), LBT(2, 1)), 2, 1),
        (LBT(None, None, LBT(1, 1), LBT(2, 1, LBT(2, 1, None, LBT(3, 1)), None)), 3, 1),
    ]

    @pytest.mark.parametrize("tree,n,k", ONE_CHILD)
    def test_checker_reports_one_child_node(self, tree, n, k):
        assert any("has one child" in p for p in lbt_check(tree, n, k))

    @pytest.mark.parametrize("tree,n,k", ONE_CHILD)
    def test_read_off_refuses_one_child_node(self, tree, n, k):
        with pytest.raises(ValueError, match="has one child"):
            lbt_to_chain(tree, k)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 1), (5, 1),
                                     (2, 2), (3, 2), (4, 2),
                                     (2, 3), (3, 3), (4, 3)])
    def test_bijection_with_decreasing_chains(self, n, k, poset_cache):
        P = poset_cache(n, k)
        want = decreasing_chain_set(P)
        got = set()
        for t in enumerate_lbt(n, k):
            ch = lbt_to_chain(t, k)
            got.add(ch)
            assert chain_to_lbt(ch, n, k) == t
        assert got == want

    def test_read_off_matches_pinned_digest(self):
        # every root candidate at n <= 4, k <= 3, valid or not: the chain's
        # labels, or the exception the read-off raises
        def outcome(tree, k):
            try:
                return " ".join(map(str, lbt_to_chain(tree, k)))
            except Exception as exc:
                return f"{type(exc).__name__}: {exc}"

        outs = [outcome(t, k) for n in (2, 3, 4) for k in (1, 2, 3)
                for t in oracle_root_candidates(n, k)]
        assert len(outs) == 3301
        assert sum(o.startswith("ValueError") for o in outs) == 2380
        assert hashlib.sha256("\n".join(outs).encode()).hexdigest() == (
            "ec47763c94fcf01b638fd088d4535051d147aae3853d058b3a104a3c98ba0f6b")

    def test_chain_round_trip(self, poset_cache):
        for n, k in [(4, 2), (3, 3)]:
            P = poset_cache(n, k)
            for ch in decreasing_chain_set(P):
                t = chain_to_lbt(ch, n, k)
                assert lbt_to_chain(t, k) == ch

    def test_descent_bound(self):
        # implied by heap order, so the checker no longer tests it
        for n in range(2, 7):
            for k in (1, 2, 3):
                for t in enumerate_lbt(n, k):
                    assert oracle_count_descents(t) <= n - 2

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 5) for k in range(1, 4)]
                             + [(5, 2)])
    def test_checker_accepts_what_the_round_trip_accepts(self, n, k):
        for t in oracle_root_candidates(n, k):
            assert (lbt_check(t, n, k) == []) == (oracle_lbt_check(t, n, k) == [])

    def test_enumeration_does_not_use_the_lattice(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the tree generator stepped through the lattice")

        for module in (wplat.chains, wplat.lattice):
            monkeypatch.setattr(module, "_admits", refuse)
            monkeypatch.setattr(module, "_raise", refuse)
        assert len(enumerate_lbt(5, 3)) == 880

    def test_heap_order_matches_merge_label_comparison(self, monkeypatch):
        # every (left, right) pair that enumerate_lbt(4, 3) tests for S4, and
        # every node of the trees it returns
        from wplat.chains import _heap_ordered, _merge_label

        tested = []

        def recording(lc, rc):
            tested.append((lc, rc))
            return _heap_ordered(lc, rc)

        monkeypatch.setattr(wplat.chains, "_heap_ordered", recording)
        trees = enumerate_lbt(4, 3)
        monkeypatch.undo()
        stack = list(trees)
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                tested.append((node.left, node.right))
                stack += (node.left, node.right)
        outcomes = set()
        for lc, rc in tested:
            label = _merge_label(lc, rc)
            want = all(c.is_leaf or label < _merge_label(c.left, c.right) for c in (lc, rc))
            assert _heap_ordered(lc, rc) == want
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_leaves_biject(self):
        def leaves(node):
            if node.is_leaf:
                return [node.value]
            return leaves(node.left) + leaves(node.right)

        for t in enumerate_lbt(4, 2):
            assert sorted(leaves(t)) == [1, 2, 3, 4]

    @pytest.mark.parametrize("n,k,bound", [(5, 3, 1691), (6, 2, 3170)])
    def test_generator_builds_few_nodes(self, monkeypatch, n, k, bound):
        # the labeled internal nodes built through _new_lbt: the trees keep
        # 819 and 909 of them, and without the sibling rules of
        # _gen_subtrees the generator built 6,700 and 19,673
        new, built = wplat.chains._new_lbt, []

        def counting(fields):
            if fields[0] is not None and fields[2] is not None:
                built.append(fields)
            return new(fields)

        monkeypatch.setattr(wplat.chains, "_new_lbt", counting)
        enumerate_lbt(n, k)
        assert len(built) <= bound

    @pytest.mark.parametrize("n,k", [(4, 3), (5, 2), (5, 3)])
    def test_generator_builds_no_node_every_parent_refuses(self, monkeypatch, n, k):
        # each labeled internal node built is a child in some (left, right)
        # pair that passes S2 and S4 at its parent
        new, pairs = wplat.chains._new_lbt, wplat.chains._child_pairs
        built, paired = [], set()

        def building(fields):
            node = new(fields)
            if node.value is not None and node.left is not None:
                built.append(node)
            return node

        def pairing(*args):
            for lc, rc, inside in pairs(*args):
                paired.update((id(lc), id(rc)))
                yield lc, rc, inside

        monkeypatch.setattr(wplat.chains, "_new_lbt", building)
        monkeypatch.setattr(wplat.chains, "_child_pairs", pairing)
        enumerate_lbt(n, k)
        assert built and all(id(node) in paired for node in built)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 5) for k in range(1, 4)]
                             + [(5, 1), (5, 2), (5, 3)])
    def test_generation_order_matches_oracle(self, n, k):
        # a list comparison: `trees` prints trees in generation order
        assert enumerate_lbt(n, k) == oracle_enumerate_lbt(n, k)


def _random_tree(rng, n, k):
    """A complete binary tree over a shuffle of [n] (one leaf repeated at
    times), its internal integers mostly drawn from their subtree and its
    subscripts mostly weakly rising, some out of range; the root is
    usually unlabeled."""
    def build(items):
        if len(items) == 1:
            return LBT(items[0], rng.randint(1, k))
        cut = rng.randint(1, len(items) - 1)
        lc, rc = build(items[:cut]), build(items[cut:])
        value = rng.choice(items) if rng.random() < 0.8 else rng.randint(0, n + 1)
        sub = max(lc.sub, rc.sub) if rng.random() < 0.7 else rng.randint(0, k + 1)
        return LBT(value, sub, lc, rc)

    leaves = rng.sample(range(1, n + 1), n)
    if rng.random() < 0.1:
        leaves[0] = leaves[-1]
    tree = build(leaves)
    return tree._replace(value=None, sub=None) if rng.random() < 0.9 else tree


class TestS5Sets:
    """S5's integer sets come from the split's leaf integers and the right
    labels kept with each subtree (generation), or are filled once per node
    bottom-up (the check); both pinned from the recursive rebuild of both
    subtrees' sets at every node."""

    def test_check_messages_match_pinned_digest(self):
        rng = random.Random(17)
        messages = []
        for _ in range(3000):
            n, k = rng.randint(2, 7), rng.randint(1, 3)
            messages.append(lbt_check(_random_tree(rng, n, k), n, k))
        assert sum(1 for m in messages if not m) == 96
        assert sum(1 for m in messages for p in m if p.startswith("S5")) == 2776
        assert hashlib.sha256(json.dumps(messages).encode()).hexdigest() == \
            "dafe6affd15e32da85c95caeccd330f72ece33298dfe9ec9422166f23a1b839d"

    def test_generation_matches_pinned_digest(self):
        text = json.dumps([[t.to_nested() for t in enumerate_lbt(n, k)]
                           for n, k in [(5, 3), (6, 2), (4, 4)]])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "518ec18ee8de62e53f6aeca9df86cbf9822740ee7971a039485098acc3c486bc"


@lru_cache(maxsize=None)
def _oracle_covers(pi):
    """The covers of pi by the block-pair scan, keyed by label."""
    return dict(oracle_admissible_covers(pi))


def _walk_by_cover(n, k, labels):
    """apply_chain written one block-pair scan per visited element, which
    shares no code with the walk on block-minimum codes."""
    from wplat import CoverLabel, bottom

    pi = bottom(n, k)
    seq = [pi]
    for pos, lab in enumerate(labels):
        if pi.rank == n - 1:
            if k >= 2 and pos == len(labels) - 1 and lab == CoverLabel(1, n, k):
                return seq
            raise ValueError(f"label {lab} past the top of P")
        pi = _oracle_covers(pi).get(lab)
        if pi is None:
            raise ValueError(f"label {lab} is not admissible at step {pos}")
        seq.append(pi)
    return seq


def _outcome(walk, n, k, labels):
    try:
        return walk(n, k, labels)
    except ValueError as exc:
        return str(exc)


class TestApplyChain:
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in range(1, 4)])
    def test_matches_cover_by_cover_walk(self, n, k, poset_cache):
        from wplat import CoverLabel

        P = poset_cache(n, k)
        checked = errors = 0
        for chain in P.maximal_chains(P.bottom_idx, P.top_idx):
            top = CoverLabel(1, n, k)
            # the chain, then labels past the top, then one label swapped for
            # one with alpha > beta, a layer out of range, beta outside [1, n]
            # or another layer
            variants = [chain, chain + chain[-1:], chain + (top,), chain + (top, top)]
            for pos, lab in enumerate(chain):
                a, b, l = lab.alpha, lab.beta, lab.layer
                for bad in [(b, a, l), (a, b, 0), (a, b, k + 1), (a, n + 1, l),
                            (a, b, l % k + 1)]:
                    variants.append(chain[:pos] + (CoverLabel(*bad),) + chain[pos + 1:])
            for labels in variants:
                want = _outcome(_walk_by_cover, n, k, labels)
                assert _outcome(apply_chain, n, k, labels) == want
                checked += 1
                errors += isinstance(want, str)
        assert errors and checked > errors

    def test_rejects_non_chain(self):
        from wplat import CoverLabel

        with pytest.raises(ValueError):
            # merging 2,3 twice at the same layer is not a cover sequence
            apply_chain(3, 1, [CoverLabel(2, 3, 1), CoverLabel(2, 3, 1)])

    @pytest.mark.parametrize("n,k,labels", [
        # beta = 3 is not the minimum of its first-layer block {2, 3}
        (3, 1, [(2, 3, 1), (1, 3, 1)]),
        # alpha = 2 is not the minimum of its layer-2 block {1, 2}
        (3, 2, [(1, 2, 2), (2, 3, 2)]),
        # alpha and beta share the first-layer block {1, 2}
        (3, 1, [(1, 2, 1), (1, 2, 1)]),
        # alpha > beta, alpha = beta
        (3, 1, [(2, 1, 1)]),
        (3, 1, [(2, 2, 1)]),
        # layer 0 and layer k + 1
        (3, 2, [(1, 2, 0)]),
        (3, 2, [(1, 2, 3)]),
        # elements outside [1, n]
        (3, 1, [(0, 2, 1)]),
        (3, 1, [(1, 4, 1)]),
    ])
    def test_rejects_inadmissible_label(self, n, k, labels):
        from wplat import CoverLabel

        with pytest.raises(ValueError, match="not admissible"):
            apply_chain(n, k, [CoverLabel(*lab) for lab in labels])

    @pytest.mark.parametrize("k,labels", [
        (1, [(2, 3, 1), (1, 2, 1), (1, 3, 1)]),
        (2, [(2, 3, 1), (1, 2, 1), (1, 2, 2)]),
        # the (1,n)_k step into the top, but not in last position
        (2, [(2, 3, 1), (1, 2, 1), (1, 3, 2), (1, 3, 2)]),
        (2, [(2, 3, 1), (1, 2, 1), (1, 3, 2), (1, 2, 1)]),
    ])
    def test_rejects_label_past_the_top(self, k, labels):
        from wplat import CoverLabel

        with pytest.raises(ValueError, match="past the top"):
            apply_chain(3, k, [CoverLabel(*lab) for lab in labels])

    @pytest.mark.parametrize("n,k,labels,message,visited", [
        (3, 1, [(2, 3, 1), (1, 3, 1)], "label (1,3)_1 is not admissible at step 1", None),
        (4, 2, [(3, 4, 1), (2, 3, 1), (1, 4, 1)], "label (1,4)_1 is not admissible at step 2",
         None),
        (3, 2, [(2, 3, 1), (1, 2, 1), (2, 3, 2)], "label (2,3)_2 past the top of P", None),
        (3, 1, [(2, 3, 1)], "chain is not maximal", 2),
        (3, 2, [(1, 3, 2)], "chain is not maximal", 2),
        (3, 2, [(2, 3, 1)], "a maximal chain must end with the (1,n)_k step", 2),
    ])
    def test_error_messages(self, n, k, labels, message, visited):
        # strictly decreasing labels: chain_to_lbt raises the walk's errors,
        # which apply_chain shares, then its own maximality errors, where
        # apply_chain returns the elements it visited
        from wplat import CoverLabel

        labels = [CoverLabel(*lab) for lab in labels]
        with pytest.raises(ValueError) as exc:
            chain_to_lbt(labels, n, k)
        assert str(exc.value) == message
        if visited is None:
            with pytest.raises(ValueError) as exc:
                apply_chain(n, k, labels)
            assert str(exc.value) == message
        else:
            assert len(apply_chain(n, k, labels)) == visited

    def test_chain_to_lbt_requires_decreasing(self):
        from wplat import CoverLabel

        rising = (CoverLabel(1, 2, 2), CoverLabel(1, 3, 2), CoverLabel(1, 3, 2))
        with pytest.raises(ValueError):
            chain_to_lbt(rising, 3, 2)


def test_round_trips_leave_no_cyclic_garbage(poset_cache):
    # the bijection suite's round trips free every object they make by its
    # reference count, so the cyclic collector finds nothing after them
    n, k = 4, 3
    P = poset_cache(n, k)
    elements = [pi for pi in P.elements if pi is not TOP]
    chains = list(P.decreasing_chains(P.bottom_idx, P.top_idx))
    gc.collect()
    gc.disable()
    try:
        for pi in elements:
            assert from_rooted_tree(to_rooted_tree(pi)) == pi
            assert edge_set_inverse(edge_set(pi), n, k) == pi
            assert one_line_parse(one_line_print(pi), n, k) == pi
        for labels in chains:
            tree = chain_to_lbt(labels, n, k)
            assert lbt_to_chain(tree, k) == labels
            assert lbt_check(tree, n, k) == []
        assert len(enumerate_lbt(n, k)) == len(chains)
        assert gc.collect() == 0
    finally:
        gc.enable()
