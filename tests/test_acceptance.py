"""Acceptance gate: the eleven cross-validation criteria, exact integer
equality throughout."""

from itertools import permutations
from math import factorial

import pytest
from conftest import order_atoms

from wplat import (
    TOP,
    CycleDiagram,
    T_def,
    T_rec_split,
    build_poset,
    chain_to_lbt,
    char_poly_product,
    char_poly_roots,
    char_poly_summation,
    diagram_to_decreasing_chain,
    edge_set,
    edge_set_inverse,
    enumerate_all,
    enumerate_by_blocks,
    enumerate_lbt,
    enumerate_tree_shapes,
    exp_k_xy,
    from_rooted_tree,
    i_of_sigma,
    lbt_to_chain,
    log_k_xy,
    mobius_closed_form,
    one_line_parse,
    stirling1,
    stirling2,
    structural_checks,
    t_def,
    t_rec_elem_sym,
    t_rec_split,
    t_via_diagrams,
    to_rooted_tree,
    tree_class_size,
    tree_shape,
    wt_k,
)

_POSETS = {}


def poset(n, k):
    if (n, k) not in _POSETS:
        _POSETS[n, k] = build_poset(n, k)
    return _POSETS[n, k]


def decreasing_chains(P):
    return {tuple(c) for c in P.decreasing_chains(P.bottom_idx, P.top_idx)}


def test_criterion_1_series_rows():
    exp_rows = {
        1: [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1], [0, 1, 7, 6, 1]],
        2: [[1], [0, 1], [0, 2, 1], [0, 5, 6, 1], [0, 15, 32, 12, 1]],
        3: [[1], [0, 1], [0, 3, 1], [0, 12, 9, 1], [0, 60, 75, 18, 1]],
    }
    log_rows = {
        1: [[1], [0, 1], [0, -1, 1], [0, 2, -3, 1], [0, -6, 11, -6, 1]],
        2: [[1], [0, 1], [0, -2, 1], [0, 7, -6, 1], [0, -35, 40, -12, 1]],
        3: [[1], [0, 1], [0, -3, 1], [0, 15, -9, 1], [0, -105, 87, -18, 1]],
    }
    for k in (1, 2, 3):
        e, l = exp_k_xy(k, 4), log_k_xy(k, 4)
        for n in range(5):
            assert [int(e.coefficient(n, r))
                    for r in range(len(exp_rows[k][n]))] == exp_rows[k][n]
            assert [int(l.coefficient(n, r))
                    for r in range(len(log_rows[k][n]))] == log_rows[k][n]


def test_criterion_2_counting():
    cases = [(n, 1) for n in range(1, 8)] + \
            [(n, k) for n in range(1, 6) for k in (2, 3)]
    for n, k in cases:
        per_rank = {}
        for pi in enumerate_all(n, k):
            r = len(pi.layers[0])
            per_rank[r] = per_rank.get(r, 0) + 1
        for r in range(1, n + 1):
            assert per_rank.get(r, 0) == T_def(n, k, r), (n, k, r)
    counts = [len(enumerate_by_blocks(3, 2, r)) for r in (1, 2, 3)]
    assert counts == [5, 6, 1] and sum(counts) == 12


def test_criterion_3_route_agreement():
    for n in range(7):
        for k in (1, 2, 3):
            e, l = exp_k_xy(k, 6), log_k_xy(k, 6)
            for r in range(n + 1):
                base = T_def(n, k, r)
                assert T_rec_split(n, k, r) == base
                assert e.coefficient(n, r) == base
                tb = t_def(n, k, r)
                assert t_rec_split(n, k, r) == tb
                assert t_rec_elem_sym(n, k, r) == tb
                assert l.coefficient(n, r) == tb
                if 1 <= r <= n:
                    assert t_via_diagrams(n, k, r) == tb
    assert t_def(3, 3, 1) == 15
    assert wt_k(CycleDiagram(4, frozenset({(1, 2), (2, 3), (2, 4)})), 3) == 14
    assert wt_k(CycleDiagram(4, frozenset({(1, 2), (2, 3), (3, 4)})), 3) == 10


def test_criterion_4_inverse_relations():
    for n in range(11):
        for m in range(11):
            want = 1 if n == m else 0
            assert sum(stirling1(n, j) * stirling2(j, m)
                       for j in range(11)) == want
            assert sum(stirling2(n, j) * stirling1(j, m)
                       for j in range(11)) == want
    for k in (1, 2, 3):
        for n in range(8):
            for m in range(8):
                want = 1 if n == m else 0
                assert sum(t_def(n, k, j) * T_def(j, k, m)
                           for j in range(8)) == want


def test_criterion_5_chain_counts():
    P = poset(3, 2)
    assert sum(1 for _ in P.maximal_chains(P.bottom_idx, P.top_idx)) == 13
    assert len(decreasing_chains(P)) == 3


def test_criterion_6_mobius_agreement():
    cases = [(n, k) for n in range(2, 6) for k in (1, 2)] + \
            [(n, 3) for n in range(2, 5)]
    for n, k in cases:
        closed = mobius_closed_form(n, k)
        P = poset(n, k)
        assert P.mobius_recursive(P.bottom_idx, P.top_idx) == closed, (n, k)
        assert P.mobius_via_chains() == closed, (n, k)
    assert mobius_closed_form(4, 2) == 15
    assert mobius_closed_form(5, 2) == -105
    assert mobius_closed_form(4, 3) == 80


def test_criterion_7_el_labeling():
    cases = [(n, k) for n in range(2, 5) for k in (1, 2)] + [(2, 3), (3, 3)]
    for n, k in cases:
        report = poset(n, k).verify_el()
        assert report["status"] == "pass", (n, k, report)
        P = poset(n, k)
        rising = [ch for ch in P.maximal_chains(P.bottom_idx, P.top_idx)
                  if P.is_rising(ch)]
        assert len(rising) == 1
        if k >= 2:
            want = [f"(1,{m})_{k}" for m in range(2, n + 1)] + [f"(1,{n})_{k}"]
        else:
            want = [f"(1,{m})_1" for m in range(2, n + 1)]
        assert [str(l) for l in rising[0]] == want


def test_criterion_8_characteristic_polynomial():
    for n in range(2, 6):
        for k in (1, 2, 3):
            P = poset(n, k)
            prod = char_poly_product(n, k)
            summed = char_poly_summation(n, k, P)
            assert summed == prod, (n, k)
            assert char_poly_roots(n, k) == [k * j for j in range(n)]
            # the coefficients are the Whitney numbers of the first kind
            for r, w in enumerate(summed):
                assert w == k ** (n - r) * stirling1(n, r)
            value_at_one = sum(prod)
            if k >= 2:
                assert value_at_one == -mobius_closed_form(n, k)
            else:
                # the k = 1 poset carries its own maximum, so the Mobius
                # values over the whole poset sum to zero
                assert value_at_one == 0


def test_criterion_9_bijections():
    for n in range(2, 5):
        for k in (1, 2):
            for pi in enumerate_all(n, k):
                assert from_rooted_tree(to_rooted_tree(pi)) == pi
                assert edge_set_inverse(edge_set(pi), n, k) == pi
    sizes = sorted(tree_class_size(s) for s in enumerate_tree_shapes(3, 2))
    assert sizes == [1, 1, 1, 3, 3, 3]
    example = one_line_parse("1(35)^2/(24)^3/6", 6, 3)
    assert tree_class_size(tree_shape(to_rooted_tree(example))) == 180
    for n in range(2, 5):
        for k in (1, 2):
            P = poset(n, k)
            for ch in decreasing_chains(P):
                t = chain_to_lbt(ch, n, k)
                assert lbt_to_chain(t, k) == ch
    # the trees are generated by heap order, with no lattice code, so their
    # count is a route to |mu| independent of the lattice
    lbt_cases = [(n, 1) for n in range(2, 6)] + \
                [(n, k) for n in range(2, 5) for k in (2, 3)]
    for n, k in lbt_cases:
        assert len(enumerate_lbt(n, k)) == abs(mobius_closed_form(n, k)), (n, k)


def test_criterion_10_classical_reduction():
    for n in range(2, 7):
        P = poset(n, 1)
        per_rank = {}
        for pi in enumerate_all(n, 1):
            r = n - pi.rank
            per_rank[r] = per_rank.get(r, 0) + 1
        for r in range(1, n + 1):
            assert per_rank.get(r, 0) == stirling2(n, r)
        closed = mobius_closed_form(n, 1)
        assert closed == (-1) ** (n - 1) * factorial(n - 1)
        assert P.mobius_recursive(P.bottom_idx, P.top_idx) == closed
        assert char_poly_roots(n, 1) == list(range(n))
        dec = decreasing_chains(P)
        assert len(dec) == factorial(n - 1)
        via_diagrams = set()
        for tail in permutations(range(2, n + 1)):
            sigma = (1,) + tail
            pairs = i_of_sigma(sigma)
            via_diagrams.add(tuple(diagram_to_decreasing_chain(pairs, None,
                                                               n, 1)))
        assert via_diagrams == dec


# (n, k): pairs with no least upper bound, with no greatest lower bound, and
# pairs of upper covers with no common upper cover, in the built order; for
# k = 1 it is the partition lattice, which is semimodular
_STRUCTURE = {(2, 1): (0, 0, 0), (3, 1): (0, 0, 0), (4, 1): (0, 0, 0),
              (2, 2): (0, 0, 0), (3, 2): (1, 1, 5), (4, 2): (45, 49, 87)}


def test_criterion_11_structural_properties():
    for n in range(2, 5):
        for k in (1, 2):
            P = poset(n, k)
            report = {c["check"]: c for c in structural_checks(P)}
            counts = tuple(report[c]["count"] for c in
                           ("least_upper_bounds", "greatest_lower_bounds", "semimodular"))
            assert counts == _STRUCTURE[n, k], (n, k)
            assert report["atomistic"]["status"] == "pass", (n, k)
            # the order's atoms below each element rebuild it
            assert len(order_atoms(P, P.top_idx)) == k * n * (n - 1) // 2
            assert order_atoms(P, P.bottom_idx) == []
            for x, pi in enumerate(P.elements):
                if pi is not TOP:
                    merged = set()
                    for a in order_atoms(P, x):
                        merged |= edge_set(P.elements[a])
                    assert edge_set_inverse(merged, n, k) == pi, (n, k, str(pi))
