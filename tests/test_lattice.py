"""The lattice: covers, EL property, Möbius routes, characteristic
polynomial, Whitney numbers, and the structural audit."""

import hashlib
import json
import os
import random
from collections import Counter

import pytest
from conftest import (
    _oracle_chains,
    _oracle_rises,
    oracle_admissible_covers,
    oracle_build_covers,
    oracle_el_values,
    oracle_join,
    oracle_label_codes,
    oracle_leq,
    oracle_meet,
    oracle_mobius,
    oracle_structural_checks,
    oracle_verify_el,
    poset_from_covers,
)

from wplat import chains, lattice, wpartition
from wplat import (
    CoverLabel,
    GuardExceeded,
    T_def,
    admissible_covers,
    apply_chain,
    bottom,
    build_poset,
    char_poly_product,
    char_poly_roots,
    char_poly_summation,
    edge_set,
    edge_set_inverse,
    enumerate_all,
    hasse_dot,
    mobius_closed_form,
    one_line_parse,
    one_line_print,
    paper_join,
    paper_meet,
    stirling1,
    structural_checks,
    validate,
)


class TestLabels:
    def test_label_order_paper_example(self):
        # the six labels of the (3,2) lattice in increasing order
        want = [(1, 2, 2), (1, 3, 2), (2, 3, 2), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
        labels = sorted(CoverLabel(a, b, l)
                        for (a, b, l) in [(1, 2, 1), (1, 3, 1), (2, 3, 1),
                                          (1, 2, 2), (1, 3, 2), (2, 3, 2)])
        assert [(l.alpha, l.beta, l.layer) for l in labels] == want

    def test_str(self):
        assert str(CoverLabel(1, 3, 2)) == "(1,3)_2"


class TestCovers:
    def test_bottom_covers_are_atoms(self):
        for n, k in [(3, 1), (3, 2), (4, 2)]:
            covers = admissible_covers(bottom(n, k))
            assert len(covers) == k * n * (n - 1) // 2

    def test_cover_raises_rank_by_one(self):
        for pi in enumerate_all(3, 2):
            for label, nxt in admissible_covers(pi):
                assert nxt.rank == pi.rank + 1

    def test_alpha_beta_are_block_minima(self):
        pi = one_line_parse("12/34", 4, 2)
        for label, nxt in admissible_covers(pi):
            assert label.alpha < label.beta
            # beta is the minimum of its first-layer block
            assert label.beta == min(next(b for b in pi.layers[0] if label.beta in b))


class TestPosetShape:
    def test_element_counts(self, poset_cache):
        # |P| = sum_r T(n,k,r), plus the adjoined top for k >= 2
        from wplat import T_def

        for n, k in [(3, 1), (4, 1), (3, 2), (4, 2), (3, 3)]:
            P = poset_cache(n, k)
            base = sum(T_def(n, k, r) for r in range(n + 1))
            want = base + (1 if k >= 2 and n >= 2 else 0)
            assert len(P) == want

    def test_paper_chain_counts_3_2(self, poset_cache):
        P = poset_cache(3, 2)
        assert len(P) == 13
        chains = list(P.maximal_chains(P.bottom_idx, P.top_idx))
        assert len(chains) == 13
        dec = list(P.decreasing_chains(P.bottom_idx, P.top_idx))
        assert len(dec) == 3

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            build_poset(5, 2, guard=10)

    def test_element_count_is_a_polynomial_in_k(self):
        # the guard reads the counts per rank at k > n off their values at
        # k = 1..n
        for n in range(1, 6):
            for k in range(1, 13):
                assert lattice._rank_counts(n, k) == [T_def(n, k, n - r)
                                                      for r in range(n)], (n, k)

    def test_guard_env(self, monkeypatch):
        monkeypatch.setenv("WPLAT_GUARD", "10")
        with pytest.raises(GuardExceeded):
            build_poset(5, 2)

    def test_guard_counts_decreasing_chains(self, monkeypatch):
        # (7,3) has 146,116 elements but |mu| = 209,440 decreasing chains
        assert sum(T_def(7, 3, r) for r in range(8)) + 1 <= 200_000
        assert abs(mobius_closed_form(7, 3)) == 209_440

        def refuse(*_):
            raise AssertionError("the guard must not enumerate")

        monkeypatch.setattr(lattice, "_id_chains", refuse)
        with pytest.raises(GuardExceeded, match="209440"):
            lattice.check_guard(7, 3, guard=200_000)

    def test_guard_estimates_closures(self, monkeypatch):
        # (8,2) has 167,895 elements with the top and |mu| = 135,135, both
        # under the default guard, but its two closures need about 6.9 GB
        def refuse(*_):
            raise AssertionError("the guard must not enumerate")

        monkeypatch.setattr(lattice, "_id_chains", refuse)
        size = sum(T_def(8, 2, r) for r in range(9)) + 1
        assert size == 167_895 and 2 * size * size // 8 >> 20 == 6_720
        lattice.check_guard(8, 2)
        with pytest.raises(GuardExceeded, match="6720 MiB for the order's closures, "
                                                "over the 781 MiB"):
            lattice.check_guard(8, 2, closures=2)
        # the estimate counts the closures that the caller builds: one
        # closure alone takes 3360 MiB
        with pytest.raises(GuardExceeded, match="3360 MiB for the order's closures, "
                                                "over the 781 MiB"):
            lattice.check_guard(8, 2, closures=1)
        lattice.check_guard(8, 2, guard=10 ** 12, closures=2)
        # the closure requests that the unguarded build finished stay
        # admitted: (6,3), (7,2) and (6,4) need 39, 88 and 474 MiB
        for n, k in (6, 3), (7, 2), (6, 4):
            lattice.check_guard(n, k, closures=2)
        # (7,2) needs 93,151,452 bytes, 22,742.05 pages of 4 KiB
        lattice.check_guard(7, 2, guard=22_743, closures=2)
        with pytest.raises(GuardExceeded, match="88 MiB"):
            lattice.check_guard(7, 2, guard=22_742, closures=2)
        # the closures of (6,5) and (10,1) need over 3 GB
        for n, k in (6, 5), (10, 1):
            lattice.check_guard(n, k, guard=800_000)
            with pytest.raises(GuardExceeded, match="for the order's closures"):
                lattice.check_guard(n, k, guard=800_000, closures=2)

    def test_guard_estimates_interval_masks(self, monkeypatch):
        # the Möbius recursion holds the masks of two adjacent rank levels,
        # each as wide as the elements through the upper level: at (8,2)
        # the most is at ranks 5 and 6 (70,756 and 40,819 elements, 163,754
        # through rank 6), 2178 MiB, where one closure takes 3360 MiB
        def refuse(*_):
            raise AssertionError("the guard must not enumerate")

        monkeypatch.setattr(lattice, "_id_chains", refuse)
        assert lattice._rank_counts(8, 2) == [1, 56, 1120, 10010, 40992, 70756, 40819, 4140]
        need = (70_756 + 40_819) * 163_754 // 8
        assert need == 2_283_856_568 and need >> 20 == 2178
        with pytest.raises(GuardExceeded, match="2178 MiB for the Möbius recursion's "
                                                "interval masks, over the 781 MiB"):
            lattice.check_guard(8, 2, interval_masks=True)
        # 557,582.2 pages of 4 KiB
        lattice.check_guard(8, 2, guard=557_583, interval_masks=True)
        with pytest.raises(GuardExceeded, match="2178 MiB for the Möbius"):
            lattice.check_guard(8, 2, guard=557_582, interval_masks=True)
        # the other bounds are the same with or without the masks
        lattice.check_guard(8, 2, guard=557_582)

    def test_build_walks_id_chains_and_count_reads_refinements(self, capsys, monkeypatch):
        # the guard tests patch lattice._id_chains to refuse, which shows the
        # guard refusing first only while the build enumerates through it;
        # the build enumerates once, and count reads the refinement lists
        # that the walk reads, without walking the chains
        from wplat.cli import main

        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append((fn.__name__, *args))
                return fn(*args)
            return wrapper

        chains = counted(wpartition._id_chains)
        monkeypatch.setattr(lattice, "_id_chains", chains)
        monkeypatch.setattr(wpartition, "_id_chains", chains)
        monkeypatch.setattr(wpartition, "_refinements", counted(wpartition._refinements))
        P = build_poset(4, 2)
        assert calls == [("_id_chains", 4, 2), ("_refinements", 4)]
        assert main(["count", "--n", "4", "--k", "2"]) == 0
        assert capsys.readouterr().out == "r=1:15, r=2:32, r=3:12, r=4:1, total 60\n"
        assert calls == [("_id_chains", 4, 2), ("_refinements", 4), ("_refinements", 4)]
        monkeypatch.undo()
        assert P.elements[:-1] == enumerate_all(4, 2)


    def test_queries_decode_no_element(self):
        # the order's queries read the id chains and the covers; the
        # weighted partitions and their names are decoded only when read
        P = build_poset(5, 3)
        P.mobius_via_chains()
        P.mobius_recursive(P.bottom_idx, P.top_idx)
        list(P.decreasing_chains(P.bottom_idx, P.top_idx))
        char_poly_summation(5, 3, P)
        P.verify_el()
        assert "elements" not in vars(P) and "_names" not in vars(P)
        hasse_dot(P)
        assert P.elements == enumerate_all(5, 3) + [lattice.TOP]

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (3, 3)])
    def test_hasse_streams_the_names(self, n, k):
        # hasse_dot renders each name as it decodes that element, by the
        # decoder that fills elements, and keeps neither the elements nor
        # the names; its node lines name the elements in order
        P = build_poset(n, k)
        text = hasse_dot(P)
        assert "elements" not in vars(P) and "_names" not in vars(P)
        nodes = [line for line in text.splitlines() if "[label=" in line and "->" not in line]
        assert nodes == [f'  e{i} [label="{el}"];' for i, el in enumerate(P.elements)]


class TestEL:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 1),
                                     (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_el_property(self, n, k, poset_cache):
        report = poset_cache(n, k).verify_el()
        assert report["status"] == "pass", report

    def test_rising_chain_of_full_interval(self, poset_cache):
        P = poset_cache(3, 2)
        rising = [ch for ch in P.maximal_chains(P.bottom_idx, P.top_idx)
                  if P.is_rising(ch)]
        assert len(rising) == 1
        assert [str(l) for l in rising[0]] == ["(1,2)_2", "(1,3)_2", "(1,3)_2"]


def _not_products(P, mu):
    """The names of the elements pi of P with mu[pi] != prod_B mu[pi|B] over
    pi's first-layer blocks B, where pi|B keeps B with its deeper layers and
    splits the rest into singletons; ``mu`` is a row mu(0^, .) of P."""
    n, k = P.n, P.k
    index = {el: i for i, el in enumerate(P.elements)}
    bad = []
    for i, pi in enumerate(P.elements):
        if pi is lattice.TOP:
            continue
        product = 1
        for B in pi.layers[0]:
            rest = [(e,) for e in range(1, n + 1) if e not in B]
            deeper = [[b for b in layer if set(b) <= set(B)] for layer in pi.layers[1:]]
            product *= mu[index[validate(n, k, [[B, *rest], *deeper])]]
        if mu[i] != product:
            bad.append(str(pi))
    return bad


class TestMobius:
    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1),
                                     (2, 2), (3, 2), (4, 2),
                                     (2, 3), (3, 3), (4, 3)])
    def test_three_routes_agree(self, n, k, poset_cache):
        closed = mobius_closed_form(n, k)
        P = poset_cache(n, k)
        assert P.mobius_recursive(P.bottom_idx, P.top_idx) == closed
        assert P.mobius_via_chains() == closed

    def test_paper_values(self):
        assert mobius_closed_form(4, 2) == 15
        assert mobius_closed_form(5, 2) == -105
        assert mobius_closed_form(4, 3) == 80

    def test_k1_is_classical(self):
        from math import factorial

        for n in range(1, 8):
            assert mobius_closed_form(n, 1) == (-1) ** (n - 1) * factorial(n - 1)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, 4)]
                             + [(6, 2)])
    def test_decreasing_chain_pass_matches_recursion(self, n, k, poset_cache):
        P = poset_cache(n, k)
        assert P.mobius_row_via_chains() == P.mobius_from_bottom()

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_decreasing_chain_pass_reads_the_labels(self, n, k, poset_cache):
        # relabeled copies keep the order, so the recursion keeps its row,
        # while the signed decreasing-chain counts change: the comparison
        # can fail, and it equals the listed chains every time
        differ = 0
        for seed in range(70):
            Q = _relabeled(poset_cache(n, k), seed)
            row = Q.mobius_row_via_chains()
            differ += row != Q.mobius_from_bottom()
            for z in range(len(Q)):
                count = sum(1 for _ in Q.decreasing_chains(Q.bottom_idx, z))
                assert row[z] == (-1) ** Q.rank[z] * count, (seed, z)
        assert differ > 0

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)])
    def test_lower_intervals_are_products(self, n, k, poset_cache):
        # each cover merges pieces of two first-layer blocks, so [0^, pi] is
        # the product of the [0^, pi|B] over pi's first-layer blocks B; all
        # read from one row of the decreasing-chain pass
        P = poset_cache(n, k)
        assert _not_products(P, P.mobius_row_via_chains()) == []

    @pytest.mark.parametrize("n,k,cuts,by_recursion,by_chains", [
        (3, 2, 24, 0, 0), (3, 3, 51, 0, 0), (4, 2, 177, 24, 21)])
    def test_product_check_catches_some_cut_orders(self, n, k, cuts, by_recursion,
                                                   by_chains, poset_cache):
        # an order with one cover removed fails the product check on only
        # some cuts, and never at n = 3, where every pi|B is pi itself or 0^
        P = poset_cache(n, k)
        failed = Counter()
        for c in range(len(P.covers)):
            Q = poset_from_covers(P, P.covers[:c] + P.covers[c + 1:])
            failed["recursion"] += bool(_not_products(Q, Q.mobius_from_bottom()))
            failed["chains"] += bool(_not_products(Q, Q.mobius_row_via_chains()))
        assert (len(P.covers), failed["recursion"], failed["chains"]) == \
            (cuts, by_recursion, by_chains)

    def test_recursion_refuses_x_not_below_y(self, poset_cache):
        # x <= y when the pass up from x reaches y: below, beside and above
        # y's rank, each pair that is not in order is refused, and no
        # closure is built to decide it
        P = build_poset(4, 2)
        leq = oracle_leq(poset_cache(4, 2))
        apart = [(x, y) for x in range(len(P)) for y in range(len(P)) if not leq(x, y)]
        assert {P.rank[y] - P.rank[x] > 0 for x, y in apart} == {True, False}
        for x, y in apart[::7]:
            with pytest.raises(ValueError, match=r"^mobius requires x <= y$"):
                P.mobius_recursive(x, y)
        assert "_anc" not in vars(P) and "_desc" not in vars(P)

    def test_upper_intervals_are_not_products(self, poset_cache):
        # at (4,2), mu(pi, 1^) over the elements with two first-layer blocks
        # takes three values, so [pi, 1^] is not fixed by pi's block count
        P = poset_cache(4, 2)
        seen = Counter(P.mobius_recursive(i, P.top_idx) for i, pi in enumerate(P.elements)
                       if pi is not lattice.TOP and len(pi.layers[0]) == 2)
        assert seen == {1: 23, 2: 8, 3: 1}


class TestCharPoly:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 1),
                                     (2, 2), (3, 2), (4, 2), (3, 3)])
    def test_summation_equals_product(self, n, k, poset_cache):
        assert char_poly_summation(n, k, poset_cache(n, k)) == \
            char_poly_product(n, k)

    def test_roots(self):
        assert char_poly_roots(3, 2) == [0, 2, 4]
        assert char_poly_roots(4, 1) == [0, 1, 2, 3]

    def test_paper_3_2(self):
        # x(x-2)(x-4) = x^3 - 6x^2 + 8x, low degree first
        assert char_poly_product(3, 2) == [0, 8, -6, 1]

    def test_value_at_one_is_minus_mobius(self, poset_cache):
        # holds for k >= 2, where the top sits beyond the summation range;
        # for k = 1 the poset's own maximum makes the total Mobius sum zero
        for n, k in [(3, 2), (4, 2), (3, 3), (4, 3)]:
            coeffs = char_poly_product(n, k)
            value = sum(c for c in coeffs)
            assert value == -mobius_closed_form(n, k)
        for n in (2, 3, 4):
            assert sum(char_poly_product(n, 1)) == 0

    def test_whitney_closed_form(self, poset_cache):
        # the summation's coefficients are the Whitney numbers w_r
        for n, k in [(3, 1), (4, 1), (3, 2), (4, 2), (3, 3)]:
            P = poset_cache(n, k)
            for r, w in enumerate(char_poly_summation(n, k, P)):
                assert w == k ** (n - r) * stirling1(n, r)


SMALL = [(n, k) for n in range(1, 5) for k in range(1, 4)]


def _edge_atoms(x):
    """One rank-1 element per edge (i, j, l) of x: the block {i, j}
    through layer l."""
    return [edge_set_inverse([edge], x.n, x.k) for edge in edge_set(x)]


def _pairs(n, k):
    """Every unordered pair of elements for n <= 5; for larger n, 200
    seeded random pairs, whose blocks hold elements >= 8 (sets of those do
    not iterate in sorted order)."""
    if n <= 5:
        elems = enumerate_all(n, k)
        return [(x, y) for i, x in enumerate(elems) for y in elems[i:]]
    rng = random.Random(0)

    def sample():
        edges = [(i, j, rng.randint(1, k)) for i in range(1, n + 1)
                 for j in range(i + 1, n + 1) if rng.random() < 0.08]
        return edge_set_inverse(edges, n, k)

    return [(sample(), sample()) for _ in range(200)]


class TestBoundsAndAudit:
    def test_paper_join_meet_idempotent_monotone(self):
        elems = enumerate_all(3, 2)
        for x in elems:
            assert paper_join(x, x) == x
            assert paper_meet(x, x) == x

    def test_join_with_bottom(self):
        bot = bottom(3, 2)
        for x in enumerate_all(3, 2):
            assert paper_join(x, bot) == x
            assert paper_meet(x, bot) == bot

    @pytest.mark.parametrize("n,k", SMALL + [(5, 2), (10, 3)])
    def test_join_meet_match_oracle(self, n, k):
        # built without validate(): the result must already be canonical;
        # ``canonical`` holds validate's answer per distinct result
        canonical = {}
        for x, y in _pairs(n, k):
            jn, mt = paper_join(x, y), paper_meet(x, y)
            for got in (jn, mt):
                if got not in canonical:
                    canonical[got] = validate(n, k, got.layers)
            assert jn == oracle_join(x, y) == canonical[jn], (x, y)
            assert mt == oracle_meet(x, y) == canonical[mt], (x, y)

    def test_join_meet_reject_mismatched_sizes(self):
        for x, y in [(bottom(3, 2), bottom(4, 2)), (bottom(3, 2), bottom(3, 3))]:
            with pytest.raises(ValueError, match="matching"):
                paper_join(x, y)
            with pytest.raises(ValueError, match="matching"):
                paper_meet(x, y)

    @pytest.mark.parametrize("n,k", SMALL)
    def test_layerwise_semimodular_inequality(self, n, k):
        # what the structure report once printed as "semimodular: pass"
        for x, y in _pairs(n, k):
            assert x.rank + y.rank >= paper_join(x, y).rank + paper_meet(x, y).rank, (x, y)

    @pytest.mark.parametrize("n,k", SMALL)
    def test_layerwise_join_of_atoms(self, n, k):
        for x in enumerate_all(n, k):
            acc = bottom(n, k)
            for a in _edge_atoms(x):
                acc = paper_join(acc, a)
            assert acc == x

    def test_structural_checks_statuses(self, poset_cache):
        report = structural_checks(poset_cache(3, 2))
        by_name = {c["check"]: (c["status"], c["count"], c["of"]) for c in report}
        assert by_name == {"least_upper_bounds": ("warn", 1, 78),
                           "greatest_lower_bounds": ("warn", 1, 78),
                           "semimodular": ("warn", 5, 23),
                           "atomistic": ("pass", 0, 13)}

    def test_two_minimal_upper_bounds_3_2(self, poset_cache):
        # the order built at (3,2) is not a lattice
        report = structural_checks(poset_cache(3, 2))
        lub, = [c for c in report if c["check"] == "least_upper_bounds"]
        assert lub["witnesses"] == [{"x": "13/2", "y": "1/23",
                                     "minimal_upper_bounds": ["(12)^2 3", "123"]}]

    def test_audit_known_finding_4_2(self, poset_cache):
        # (123)^2 4 is not below (1234)^2 in the built order: the pair has
        # the adjoined top as its unique least upper bound, not the layerwise
        # join, and (123)^2/4 as its greatest lower bound, not the meet
        P = poset_cache(4, 2)
        names = [P.element_name(i) for i in range(len(P))]
        x, y = names.index("(1234)^2"), names.index("(123)^2 4")
        le, ge = P._anc, P._desc
        lower_covers, upper_covers = [0] * len(P), [0] * len(P)
        for lo, hi, _ in P.covers:
            lower_covers[hi] |= 1 << lo
            upper_covers[lo] |= 1 << hi
        assert list(lattice._unique_bounds(ge, le, lower_covers))[x] >> y & 1
        assert list(lattice._unique_bounds(le, ge, upper_covers))[x] >> y & 1
        assert ge[x] & ge[y] == 1 << P.top_idx
        lower = le[x] & le[y]
        assert [names[z] for z in range(len(P)) if lower >> z & 1 and ge[z] & lower == 1 << z] \
            == ["(123)^2/4"]
        a, b = P.elements[x], P.elements[y]
        assert one_line_print(paper_join(a, b)) == "(1234)^2"
        assert one_line_print(paper_meet(a, b)) == "(123)^2 4"


def refinement_order_mobius(n, k):
    """mu(0^, 1^) of the layerwise refinement order on the weighted
    partitions, by brute force: x <= y when each layer-l block of x lies in
    a layer-l block of y.  Its top is the element with every layer [n]."""
    elements = enumerate_all(n, k)

    def leq(x, y):
        return all(any(set(b) <= set(c) for c in y_layer)
                   for x_layer, y_layer in zip(x.layers, y.layers) for b in x_layer)

    # merging blocks strictly adds same-block pairs, so this sorts x < y first
    elements.sort(key=lambda x: sum(len(b) * (len(b) - 1) for layer in x.layers for b in layer))
    mu: list[int] = []
    for i, y in enumerate(elements):
        mu.append(1 if i == 0 else -sum(m for x, m in zip(elements, mu) if leq(x, y)))
    assert all(leq(elements[0], y) and leq(y, elements[-1]) for y in elements)
    return mu[-1]


@pytest.mark.parametrize("n,k,built", [(3, 2, -3), (4, 2, 15), (3, 3, -10), (4, 1, -6)])
def test_refinement_order_mobius_is_not_the_papers(n, k, built, poset_cache):
    # paper_join/paper_meet are the bounds of the layerwise refinement order,
    # whose mu(0^, 1^) is 0 for k >= 2: they cannot be the bounds of the
    # built order, which has the paper's mu; at k = 1 both are the partition
    # lattice
    assert poset_cache(n, k).mobius_via_chains() == mobius_closed_form(n, k) == built
    assert refinement_order_mobius(n, k) == (built if k == 1 else 0)


# (n, k): pairs with no least upper bound, pairs with no greatest lower bound,
# pairs of upper covers of one element with no common upper cover, all such
# pairs; the order is atomistic at every size
STRUCTURE_FACTS = [
    (3, 2, 1, 1, 5, 23),
    (3, 3, 2, 4, 15, 73),
    (4, 2, 45, 49, 87, 324),
    (4, 3, 133, 379, 376, 1_311),
    (5, 2, 1_772, 2_456, 1_142, 4_076),
    (5, 3, 7_745, 37_995, 7_221, 22_262),
]


class TestStructureFacts:
    @pytest.mark.parametrize("n,k,no_lub,no_glb,semi_fail,cover_pairs", STRUCTURE_FACTS)
    def test_counts(self, n, k, no_lub, no_glb, semi_fail, cover_pairs, poset_cache):
        P = poset_cache(n, k)
        by_name = {c["check"]: c for c in structural_checks(P)}
        assert by_name["least_upper_bounds"]["count"] == no_lub
        assert by_name["greatest_lower_bounds"]["count"] == no_glb
        assert (by_name["semimodular"]["count"], by_name["semimodular"]["of"]) == \
            (semi_fail, cover_pairs)
        assert by_name["atomistic"]["count"] == 0
        assert all(c["status"] == "warn" for c in by_name.values()
                   if c["check"] != "atomistic")
        assert all(len(c["witnesses"]) == min(c["count"], lattice.MAX_WITNESSES)
                   for c in by_name.values())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_partition_lattice_k1(self, n, poset_cache):
        report = structural_checks(poset_cache(n, 1))
        assert [(c["status"], c["count"], c["witnesses"]) for c in report] == \
            [("pass", 0, [])] * 4

    def test_reads_only_the_order(self, monkeypatch):
        P = build_poset(4, 2)

        def refuse(*_):
            raise AssertionError("the structure report must read only the order")

        for module, attr in [(lattice, "paper_join"), (lattice, "paper_meet"),
                             (lattice, "edge_set"), (lattice, "edge_set_inverse")]:
            monkeypatch.setattr(module, attr, refuse)
        monkeypatch.setattr(lattice.Poset, "leq", refuse)
        report = structural_checks(P)
        assert [c["count"] for c in report] == [45, 49, 87, 0]


class TestHasse:
    def test_dot_output(self, poset_cache):
        dot = hasse_dot(poset_cache(3, 1))
        assert dot.startswith("digraph")
        assert "rankdir=BT" in dot
        assert dot.count("->") == 6  # L_3^(1) has 6 cover relations

    def test_streamed_dot_is_the_text_in_chunks(self, poset_cache):
        P = poset_cache(5, 3)  # 1,305 elements and 6,139 covers: two chunks
        chunks = []
        assert hasse_dot(P, chunks.append) is None
        assert len(chunks) == 2 and all(c.endswith("\n") for c in chunks)
        assert "".join(chunks) == hasse_dot(P)


def _falls(labels):
    """Whether a label sequence strictly falls."""
    return all(a.sort_key > b.sort_key for a, b in zip(labels, labels[1:]))


def _relabeled(P, seed):
    """A copy of P with one to three cover labels replaced by labels drawn
    from P's own label set."""
    rng = random.Random(seed)
    labels = sorted({lab for _, _, lab in P.covers})
    covers = list(P.covers)
    for _ in range(rng.randint(1, 3)):
        c = rng.randrange(len(covers))
        lo, hi, _ = covers[c]
        covers[c] = (lo, hi, rng.choice(labels))
    return poset_from_covers(P, covers)


def _cover_dropped(P, seed):
    """A copy of P without one cover, so that its order changes."""
    covers = list(P.covers)
    del covers[random.Random(seed).randrange(len(covers))]
    return poset_from_covers(P, covers)


class TestOrderKernel:
    """The bitset kernel against the enumerate-and-scan oracles."""

    @pytest.mark.parametrize("n,k", SMALL)
    def test_el_matches_oracle(self, n, k, poset_cache):
        P = poset_cache(n, k)
        assert json.dumps(P.verify_el()) == json.dumps(oracle_verify_el(P))

    def test_covers_are_held_packed(self, poset_cache):
        # each element's upper covers are a plain list of indices beside a
        # tuple of their label codes; the elements of one fixed-point
        # pattern share that tuple (123 patterns at (6,2)), so no object is
        # built per cover, and no list of lower covers is kept
        P = poset_cache(6, 2)
        assert all(type(adj) is list and all(type(z) is int for z in adj) for adj in P.up)
        assert all(type(codes) is tuple and len(codes) == len(adj)
                   for adj, codes in zip(P.up, P.up_codes))
        assert sum(map(len, P.up)) == 13_574
        assert len({id(codes) for codes in P.up_codes}) <= 123
        assert not hasattr(P, "down")

    @staticmethod
    def _check_closures(P):
        leq = oracle_leq(P)
        every = range(len(P))
        assert P._anc == [sum(1 << x for x in every if leq(x, y)) for y in every]
        assert P._desc == [sum(1 << y for y in every if leq(x, y)) for x in every]

    @pytest.mark.parametrize("n,k", SMALL)
    def test_closures_match_oracle(self, n, k, poset_cache):
        self._check_closures(poset_cache(n, k))

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_closures_match_oracle_on_changed_posets(self, n, k, poset_cache):
        # relabeled orders keep the order, cut ones lose some of it
        for seed in range(10):
            self._check_closures(_relabeled(poset_cache(n, k), seed))
            self._check_closures(_cover_dropped(poset_cache(n, k), seed))

    @staticmethod
    def _check_el_pass(P):
        """Poset._el_pass from every x against the chain enumeration; the
        carrier counts seen."""
        code = oracle_label_codes(P)
        up = [[] for _ in range(len(P))]
        for lo, hi, lab in P.covers:
            up[lo].append((hi, code[lab.sort_key]))
        passed = [(x, values) for x in range(len(P)) for values in P._el_pass(x, up)]
        got = {(x, y): values for x, (y, *values) in passed}
        assert len(got) == len(passed)  # each y once per pass
        assert {xy: tuple(values[:3]) for xy, values in got.items()} == oracle_el_values(P)
        assert all(rises is _oracle_rises(lex) for _, lex, _, rises in got.values())
        return {carriers for _, _, carriers, _ in got.values()}

    @staticmethod
    def _splits_rising_ends(P):
        """Whether some [x, y] has rising chains ending in two distinct
        labels and y a cover whose label lies strictly between them, by the
        chain enumeration: the one case in which the level pass sums."""
        leq, chains = _oracle_chains(P)
        above = {}
        for lo, hi, lab in P.covers:
            above.setdefault(lo, []).append(lab.sort_key)
        for x in range(len(P)):
            for y in range(len(P)):
                if x != y and leq(x, y):
                    ends = {ch[-1].sort_key for ch in chains(x, y)
                            if _oracle_rises([lab.sort_key for lab in ch])}
                    if len(ends) > 1 and any(min(ends) < key < max(ends)
                                             for key in above.get(y, ())):
                        return True
        return False

    @pytest.mark.parametrize("n,k", SMALL + [(5, 2)])
    def test_el_pass_matches_chain_enumeration(self, n, k, poset_cache):
        assert self._check_el_pass(poset_cache(n, k)) == {1}

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_el_pass_matches_chain_enumeration_on_relabeled_posets(self, n, k, poset_cache):
        carriers, splits = set(), False
        for seed in range(70):
            Q = _relabeled(poset_cache(n, k), seed)
            carriers |= self._check_el_pass(Q)
            splits = splits or self._splits_rising_ends(Q)
        assert 2 in carriers  # colliding labels: two chains carry one sequence
        assert splits  # the pass sums the rising chains by last label

    @pytest.mark.parametrize("n,k,digest", [
        (4, 3, "e79b1430d035febbf5df137c7062b96d710e86dc2f5bea466faf7c6d14764ac1"),
        (5, 2, "c4ff84c4d6eb1047354c090782852b9f2836a6ba529380146463ad645affe407"),
        (5, 3, "db31829a1890bc798075a63039ff223a82207cb99a03c25ef0e5eb21c322765c"),
        (6, 2, "cb0f97aa347b8f53ca71df4cbffa6060236b155019f21e533afe5f4ed063db15"),
    ])
    def test_structure_matches_pinned_digest(self, n, k, digest, poset_cache):
        # the report's JSON as the per-cover scan of the lub/glb rows gave it
        text = json.dumps(structural_checks(poset_cache(n, k)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n,k", SMALL)
    def test_structure_matches_oracle(self, n, k, poset_cache):
        P = poset_cache(n, k)
        assert json.dumps(structural_checks(P)) == json.dumps(oracle_structural_checks(P))

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_el_matches_oracle_on_relabeled_posets(self, n, k, poset_cache):
        issues = set()
        for seed in range(70):
            Q = _relabeled(poset_cache(n, k), seed)
            report = Q.verify_el()
            assert json.dumps(report) == json.dumps(oracle_verify_el(Q)), seed
            issues.update(w["issue"] for w in report["witnesses"])
        # both kinds of finding are reached
        assert "rising chain is not strictly lex-first" in issues
        assert any(issue.endswith(" rising chains") for issue in issues)

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3)])
    def test_structure_matches_oracle_on_cut_orders(self, n, k, poset_cache):
        for seed in range(10):
            Q = _cover_dropped(poset_cache(n, k), seed)
            assert json.dumps(structural_checks(Q)) == \
                json.dumps(oracle_structural_checks(Q)), seed

    def test_el_enumerates_no_passing_interval(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a passing interval was enumerated")

        monkeypatch.setattr(lattice.Poset, "maximal_chains", refuse)
        assert build_poset(4, 3).verify_el()["status"] == "pass"

    def test_structure_names_each_element_at_most_once(self, monkeypatch):
        P = build_poset(4, 2)
        calls = []

        def counting(pi):
            calls.append(pi)
            return one_line_print(pi)

        def refuse(*_):
            raise AssertionError("the audit must not scan with leq")

        monkeypatch.setattr(wpartition, "one_line_print", counting)
        monkeypatch.setattr(lattice.Poset, "leq", refuse)
        report = structural_checks(P)
        assert {c["check"]: c["status"] for c in report}["atomistic"] == "pass"
        assert len(calls) <= len(P)

    def test_interval_matches_leq_scan(self, poset_cache):
        P = poset_cache(3, 2)
        for x in range(len(P)):
            for y in range(len(P)):
                if P.leq(x, y):
                    scan = [z for z in range(len(P)) if P.leq(x, z) and P.leq(z, y)]
                    assert P.interval(x, y) == sorted(scan, key=lambda z: (P.rank[z], z))

    @pytest.mark.parametrize("n,k", SMALL + [(5, 2)])
    def test_built_partitions_are_canonical(self, n, k, poset_cache):
        # admissible_covers decodes its results without validate()
        for el in poset_cache(n, k).elements:
            if el is lattice.TOP:
                continue
            assert validate(n, k, el.layers) == el
            for _, nxt in admissible_covers(el):
                assert validate(n, k, nxt.layers) == nxt

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, 4)]
                             + [(6, 2), (4, 4), (3, 5)])
    def test_build_matches_admissible_covers(self, n, k, poset_cache):
        # build_poset's block-minimum codes against the block-pair scan: the
        # same cover list in the same order (by lower element, each one's
        # covers by label; an element of rank n-1 has only its cover into
        # the top), the same bottom and top, and each element's up list in
        # strictly rising label order
        P = poset_cache(n, k)
        parts = enumerate_all(n, k)
        index = {el: i for i, el in enumerate(parts)}
        want = [(i, index[up], lab) for i, el in enumerate(parts)
                for lab, up in oracle_admissible_covers(el)]
        if k >= 2 and n >= 2:
            top = len(parts)
            want += [(i, top, CoverLabel(1, n, k))
                     for i, el in enumerate(parts) if el.rank == n - 1]
            assert P.elements == parts + [lattice.TOP]
        else:
            top = max(range(len(parts)), key=lambda i: parts[i].rank)
            assert P.elements == parts
        assert P.covers == sorted(want, key=lambda cover: cover[0])
        assert (P.bottom_idx, P.top_idx) == (index[bottom(n, k)], top)
        for codes in P.up_codes:
            keys = [P.labels[c].sort_key for c in codes]
            assert all(a < b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, 4)]
                             + [(6, 2), (4, 4), (3, 5)])
    def test_build_matches_one_raise_per_label(self, n, k, poset_cache):
        # one raise per (alpha, beta) pair against one per label
        assert poset_cache(n, k).covers == oracle_build_covers(n, k)

    @pytest.mark.parametrize("n,k", [(4, 3), (5, 2)])
    def test_admits_accepts_exactly_the_admissible_labels(self, n, k, poset_cache):
        # every label with fields in [-1, n+2] x [-1, k+2] or far out of
        # range, which are refused without an IndexError
        far = [-10 ** 6, 10 ** 6]
        candidates = [(a, b, l) for a in [*range(-1, n + 3), *far]
                      for b in [*range(-1, n + 3), *far] for l in [*range(-1, k + 3), *far]]
        for el in poset_cache(n, k).elements:
            if el is lattice.TOP:
                continue
            code = lattice._code(el)
            listed = lattice._admissible(code, n, k)
            assert listed == [(lab.alpha, lab.beta, lab.layer)
                              for lab, _ in oracle_admissible_covers(el)]
            assert {step for step in candidates if lattice._admits(code, n, k, *step)} \
                == set(listed)

    @pytest.mark.parametrize("n,k", SMALL + [(5, 2)])
    def test_cover_matches_admissible_covers(self, n, k, poset_cache):
        # both against the block-pair scan; one label at a time through the
        # cover rule on codes, including labels outside [1, n] x [1, k] and
        # alpha >= beta
        steps = [(a, b, l) for a in range(n + 2) for b in range(n + 2) for l in range(k + 2)]
        for el in poset_cache(n, k).elements:
            if el is lattice.TOP:
                continue
            want = oracle_admissible_covers(el)
            assert admissible_covers(el) == want
            want = dict(want)
            code = wpartition._code(el)
            for step in steps:
                got = (wpartition._decode(n, k, lattice._raise(code, n, *step))
                       if lattice._admits(code, n, k, *step) else None)
                assert got == want.get(CoverLabel(*step))
                if got is not None:
                    assert validate(n, k, got.layers) == got

    @pytest.mark.parametrize("n,k", SMALL + [(5, 2)])
    def test_mobius_on_every_interval(self, n, k, poset_cache):
        P = poset_cache(n, k)
        want = oracle_mobius(P)
        leq = oracle_leq(P)
        for x in range(len(P)):
            for y in range(len(P)):
                if not leq(x, y):
                    continue
                mu = P.mobius_recursive(x, y)
                assert mu == want[x, y], (x, y)
                chains = len(list(P.decreasing_chains(x, y)))
                assert mu == (-1) ** (P.rank[y] - P.rank[x]) * chains, (x, y)

    @staticmethod
    def _check_filtered_walk(P, walk, keeps):
        """``walk`` against the maximal chains that ``keeps``, on every
        interval of P."""
        for x in range(len(P)):
            for y in range(len(P)):
                assert list(walk(x, y)) == \
                    [ch for ch in P.maximal_chains(x, y) if keeps(ch)], (x, y)

    def _check_rising_chains(self, P):
        self._check_filtered_walk(P, P.rising_chains, P.is_rising)

    @pytest.mark.parametrize("n,k", SMALL)
    def test_rising_chains_match_filter(self, n, k, poset_cache):
        self._check_rising_chains(poset_cache(n, k))

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_rising_chains_match_filter_on_relabeled_posets(self, n, k, poset_cache):
        for seed in range(70):
            self._check_rising_chains(_relabeled(poset_cache(n, k), seed))

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3)])
    def test_chains_match_oracle_on_cut_orders(self, n, k, poset_cache):
        # a walk to the top reads no closure: in a cut order some elements
        # may lie below no path to the top, and the walk still lists exactly
        # its chains
        cut_off = 0
        for seed in range(10):
            Q = _cover_dropped(poset_cache(n, k), seed)
            leq, chains = _oracle_chains(Q)
            cut_off += sum(not leq(z, Q.top_idx) for z in range(len(Q)))
            for x in range(len(Q)):
                for y in range(len(Q)):
                    assert list(Q.maximal_chains(x, y)) == \
                        (list(chains(x, y)) if leq(x, y) else []), (seed, x, y)
        assert cut_off > 0

    def _check_decreasing_chains(self, P):
        self._check_filtered_walk(P, P.decreasing_chains, _falls)

    @pytest.mark.parametrize("n,k", SMALL)
    def test_decreasing_chains_match_filter(self, n, k, poset_cache):
        self._check_decreasing_chains(poset_cache(n, k))

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_decreasing_chains_match_filter_on_relabeled_posets(self, n, k, poset_cache):
        # relabeled up lists need not list their codes in rising order
        for seed in range(70):
            self._check_decreasing_chains(_relabeled(poset_cache(n, k), seed))

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3)])
    def test_decreasing_chains_match_oracle_on_cut_orders(self, n, k, poset_cache):
        # in a cut order some elements lie below no path to the top, and
        # the decreasing walk to the top, which reads no closure, still
        # lists exactly its decreasing chains
        cut_off = 0
        for seed in range(10):
            Q = _cover_dropped(poset_cache(n, k), seed)
            leq, chains = _oracle_chains(Q)
            cut_off += sum(not leq(z, Q.top_idx) for z in range(len(Q)))
            for x in range(len(Q)):
                for y in range(len(Q)):
                    want = [ch for ch in chains(x, y) if _falls(ch)] if leq(x, y) else []
                    assert list(Q.decreasing_chains(x, y)) == want, (seed, x, y)
        assert cut_off > 0

    @staticmethod
    def _dead_prefixes(P, intervals) -> int:
        """The steps that the decreasing walks over ``intervals`` take
        beyond the distinct proper prefixes of their chains, as paths of
        elements found by a search up the cover list: 0 when no step enters
        a dead end.  The walk reads a label once per step and once per
        nonempty chain that it yields."""
        leq = oracle_leq(P)
        succ = {}
        for lo, hi, lab in P.covers:
            succ.setdefault(lo, []).append((hi, lab.sort_key))

        def paths(x, y, last):
            if x == y:
                yield ()
                return
            for z, key in succ.get(x, ()):
                if key < last and leq(z, y):
                    yield from ((z,) + rest for rest in paths(z, y, key))

        reads = 0

        class Counting(list):
            def __getitem__(self, i):
                nonlocal reads
                reads += 1
                return super().__getitem__(i)

        P.labels = Counting(P.labels)
        dead = 0
        for x, y in intervals:
            reads = 0
            listed = list(P.decreasing_chains(x, y))
            found = list(paths(x, y, (1, 0, 0))) if leq(x, y) else []  # above every key
            assert len(found) == len(listed)
            prefixes = {path[:i] for path in found for i in range(1, len(path))}
            dead += reads - len(prefixes) - sum(1 for path in found if path)
        P.labels = list(P.labels)
        return dead

    @pytest.mark.parametrize("n,k", [(3, 3), (4, 2), (6, 2)])
    def test_decreasing_walk_takes_no_dead_step(self, n, k):
        P = build_poset(n, k)
        every = [(x, y) for x in range(len(P)) for y in range(len(P))] if n < 6 else []
        assert self._dead_prefixes(P, every + [(P.bottom_idx, P.top_idx)]) == 0

    def test_decreasing_walk_takes_no_dead_step_on_relabeled_posets(self, poset_cache):
        for seed in range(70):
            Q = _relabeled(poset_cache(4, 2), seed)
            every = [(x, y) for x in range(len(Q)) for y in range(len(Q))]
            assert self._dead_prefixes(Q, every) == 0, seed

    @staticmethod
    def _check_least_first_codes(P, monkeypatch) -> set[str]:
        """Every table of least first codes that a decreasing walk on P
        builds, against the first label codes of the oracle's decreasing
        chains; which kinds of value the tables held."""
        leq, chains = _oracle_chains(P)
        code = {lab: c for c, lab in enumerate(P.labels)}
        none = len(P.labels)
        tables = []
        real = lattice._least_first_code

        def recording(least, w, context):
            if not any(table is least for table in tables):
                tables.append(least)
            return real(least, w, context)

        monkeypatch.setattr(lattice, "_least_first_code", recording)
        kinds = set()
        for x in range(len(P)):
            for y in range(len(P)):
                tables.clear()
                list(P.decreasing_chains(x, y))
                assert len(tables) <= 1  # one table per walk, if any
                for least in tables:
                    for w, value in least.items():
                        # only elements that the walk reaches below y
                        assert leq(x, w) and leq(w, y), (x, y, w)
                        firsts = [code[ch[0]] for ch in chains(w, y) if ch and _falls(ch)]
                        assert value == (-1 if w == y else min(firsts, default=none)), (x, y, w)
                        kinds.add("y" if w == y else "chain" if firsts else "none")
        monkeypatch.undo()
        return kinds

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_least_first_codes_match_oracle(self, n, k, poset_cache, monkeypatch):
        kinds = self._check_least_first_codes(poset_cache(n, k), monkeypatch)
        assert kinds == {"y", "chain"}

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_least_first_codes_match_oracle_on_relabeled_posets(self, n, k, poset_cache,
                                                                monkeypatch):
        # a built order's tables hold no dead end; relabeled ones do
        kinds = set()
        for seed in range(70):
            kinds |= self._check_least_first_codes(_relabeled(poset_cache(n, k), seed),
                                                   monkeypatch)
        assert kinds == {"y", "chain", "none"}

    def test_closures_are_built_on_first_use(self, monkeypatch):
        calls = []

        def counting(real):
            def wrapper(*args):
                calls.append(args)
                return real(*args)
            return wrapper

        for name in ("_closure_above", "_closure_below"):
            monkeypatch.setattr(lattice, name, counting(getattr(lattice, name)))
        P = build_poset(4, 2)
        # the order is stored once, as the up lists beside their label
        # codes; the pass and the DOT text read them without deriving the
        # cover list, and no list of lower covers is kept
        assert {"up", "up_codes"} <= vars(P).keys() and "covers" not in vars(P)
        assert not hasattr(P, "down")
        P.mobius_row_via_chains()
        hasse_dot(P)
        assert "covers" not in vars(P)
        list(P.decreasing_chains(P.bottom_idx, P.top_idx))
        assert calls == []
        assert P.leq(P.bottom_idx, P.top_idx) and P.leq(P.bottom_idx, P.top_idx)
        assert len(calls) == 1
        P.interval(P.bottom_idx, P.top_idx)
        assert len(calls) == 2
        # each closure holds its element
        assert all(P._anc[y] >> y & 1 and P._desc[y] >> y & 1 for y in range(len(P)))

    def test_cover_applies_one_merge(self, monkeypatch):
        calls = []
        real = lattice._raise

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(chains, "_raise", counting)
        labels = [CoverLabel(1, 3, 2), CoverLabel(2, 4, 1), CoverLabel(1, 2, 1)]
        assert len(apply_chain(4, 2, labels)) == 4
        assert len(calls) == 3
        with pytest.raises(ValueError, match="not admissible"):
            apply_chain(4, 2, [CoverLabel(3, 1, 2)])
        assert len(calls) == 3
