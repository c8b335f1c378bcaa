"""The lattice: covers, EL property, Möbius routes, characteristic
polynomial, Whitney numbers, and the structural audit."""

import os

import pytest

from wplat import lattice
from wplat import (
    CoverLabel,
    GuardExceeded,
    T_def,
    admissible_covers,
    bottom,
    build_poset,
    char_poly_product,
    char_poly_roots,
    char_poly_summation,
    enumerate_all,
    hasse_dot,
    mobius_closed_form,
    one_line_parse,
    paper_join,
    paper_meet,
    stirling1,
    structural_checks,
    whitney,
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
            assert label.beta == min(pi.block_of(label.beta, 1))


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

        monkeypatch.setattr(lattice, "enumerate_all", refuse)
        with pytest.raises(GuardExceeded, match="209440"):
            lattice.check_guard(7, 3, guard=200_000)


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
        for n, k in [(3, 1), (4, 1), (3, 2), (4, 2), (3, 3)]:
            P = poset_cache(n, k)
            for r in range(n + 1):
                assert whitney(n, k, r, P) == k ** (n - r) * stirling1(n, r)


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

    def test_structural_checks_statuses(self, poset_cache):
        report = structural_checks(poset_cache(3, 2))
        by_name = {c["check"]: c for c in report}
        assert by_name["semimodular"]["status"] == "pass"
        assert by_name["atomistic"]["status"] == "pass"
        assert by_name["bound_audit"]["status"] in ("pass", "warn")

    def test_audit_known_finding_4_2(self, poset_cache):
        # the documented problem pair: reachability gives no least upper
        # bound for these two elements, which the audit must surface
        report = structural_checks(poset_cache(4, 2))
        by_name = {c["check"]: c for c in report}
        audit = by_name["bound_audit"]
        assert audit["status"] == "warn"
        assert audit["witnesses"], "audit must report witnesses"
        pairs = {(w["x"], w["y"]) for w in audit["witnesses"]}
        assert ("(1234)^2", "(123)^2 4") in pairs


class TestHasse:
    def test_dot_output(self, poset_cache):
        dot = hasse_dot(poset_cache(3, 1))
        assert dot.startswith("digraph")
        assert "rankdir=BT" in dot
        assert dot.count("->") == 6  # L_3^(1) has 6 cover relations
