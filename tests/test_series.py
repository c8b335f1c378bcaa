"""Exact bivariate series: exp/log, powers, and the iterated generating
functions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conftest import oracle_taylor_exp, oracle_taylor_log1p
from wplat import (
    BivariateSeries,
    SeriesError,
    T_def,
    bell,
    exp_k_xy,
    log_k_xy,
    series_exp,
    series_log,
    series_pow_y,
    t_def,
)


def univariate(coeffs, constant=0):
    """EGF-in-x series with integer coefficients of x^n/n! and the given
    constant term."""
    order = len(coeffs)
    rows = {(n + 1, 0): Fraction(c) for n, c in enumerate(coeffs)}
    if constant:
        rows[(0, 0)] = Fraction(constant)
    return BivariateSeries(order, order, rows)


class TestExpLogOracles:
    @given(st_.lists(st_.integers(-6, 6), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_exp_matches_taylor(self, tail):
        f = univariate(tail)
        g = series_exp(f)
        want = oracle_taylor_exp([Fraction(0)] + [Fraction(c) for c in tail])
        got = [g.coefficient(n, 0) for n in range(len(tail) + 1)]
        assert got == want

    @given(st_.lists(st_.integers(-6, 6), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_log_matches_taylor(self, tail):
        f = univariate(tail, constant=1)  # 1 + g with g vanishing at 0
        h = series_log(f)
        want = oracle_taylor_log1p([Fraction(0)] + [Fraction(c) for c in tail])
        got = [h.coefficient(n, 0) for n in range(len(tail) + 1)]
        assert got == want

    @given(st_.lists(st_.integers(-5, 5), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_log_inverts_exp(self, tail):
        f = univariate(tail)
        assert series_log(series_exp(f)) == f

    @given(st_.lists(st_.integers(-5, 5), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_exp_inverts_log(self, tail):
        f = univariate(tail, constant=1)
        assert series_exp(series_log(f)) == f


fractions = st_.builds(Fraction, st_.integers(-6, 6), st_.integers(1, 4))


class TestRationalKernel:
    """Non-integral coefficients stay Fractions through exp and log."""

    @given(st_.lists(fractions, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_exp_matches_taylor(self, tail):
        g = series_exp(univariate(tail))
        want = oracle_taylor_exp([Fraction(0)] + tail)
        assert [g.coefficient(n, 0) for n in range(len(tail) + 1)] == want

    @given(st_.lists(fractions, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_log_matches_taylor(self, tail):
        h = series_log(univariate(tail, constant=1))
        want = oracle_taylor_log1p([Fraction(0)] + tail)
        assert [h.coefficient(n, 0) for n in range(len(tail) + 1)] == want

    @given(st_.lists(fractions, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_log_inverts_exp(self, tail):
        f = univariate(tail)
        assert series_log(series_exp(f)) == f


class TestIntKernel:
    def test_iterated_series_store_ints(self):
        for k in range(1, 5):
            for order in range(13):
                for s in (exp_k_xy(k, order), log_k_xy(k, order)):
                    assert all(type(c) is int for row in s._rows for c in row.values())

    def test_accessors_return_fractions(self):
        ints = exp_k_xy(2, 4)
        halves = univariate([Fraction(1, 2), 3])
        for s in (ints, halves):
            assert all(type(s.coefficient(n, r)) is Fraction
                       for n in range(6) for r in range(6))
            assert all(type(c) is Fraction for row in s.rows() for c in row)
        assert ints.coefficient(3, 2) == 6
        assert halves.coefficient(1, 0) == Fraction(1, 2)
        assert halves.coefficient(2, 0) == 3

    def test_integral_input_is_stored_as_int(self):
        s = BivariateSeries(2, 2, {(1, 0): Fraction(4, 2), (2, 1): Fraction(1, 2)})
        assert type(s._rows[1][0]) is int and s._rows[1][0] == 2
        assert s._rows[2][1] == Fraction(1, 2)
        assert s == BivariateSeries(2, 2, {(1, 0): 2, (2, 1): Fraction(1, 2)})

    def test_rows_int_rejects_a_non_integral_coefficient(self):
        assert exp_k_xy(2, 4).rows_int()[4] == [0, 15, 32, 12, 1]
        with pytest.raises(SeriesError):
            univariate([Fraction(1, 2)]).rows_int()


PAPER_EXP = {
    1: [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1], [0, 1, 7, 6, 1]],
    2: [[1], [0, 1], [0, 2, 1], [0, 5, 6, 1], [0, 15, 32, 12, 1]],
    3: [[1], [0, 1], [0, 3, 1], [0, 12, 9, 1], [0, 60, 75, 18, 1]],
}
PAPER_LOG = {
    1: [[1], [0, 1], [0, -1, 1], [0, 2, -3, 1], [0, -6, 11, -6, 1]],
    2: [[1], [0, 1], [0, -2, 1], [0, 7, -6, 1], [0, -35, 40, -12, 1]],
    3: [[1], [0, 1], [0, -3, 1], [0, 15, -9, 1], [0, -105, 87, -18, 1]],
}


class TestPaperRows:
    def test_exp_rows(self):
        for k, rows in PAPER_EXP.items():
            s = exp_k_xy(k, 4)
            for n, row in enumerate(rows):
                got = [int(s.coefficient(n, r)) for r in range(len(row))]
                assert got == row, (k, n, got, row)

    def test_log_rows(self):
        for k, rows in PAPER_LOG.items():
            s = log_k_xy(k, 4)
            for n, row in enumerate(rows):
                got = [int(s.coefficient(n, r)) for r in range(len(row))]
                assert got == row, (k, n, got, row)


class TestSeriesVsDefinitions:
    def test_exp_coefficients_are_T(self):
        for k in (1, 2, 3):
            s = exp_k_xy(k, 6)
            for n in range(7):
                for r in range(n + 1):
                    assert s.coefficient(n, r) == T_def(n, k, r)

    def test_log_coefficients_are_t(self):
        for k in (1, 2, 3):
            s = log_k_xy(k, 6)
            for n in range(7):
                for r in range(n + 1):
                    assert s.coefficient(n, r) == t_def(n, k, r)

    def test_y_specialization_at_one(self):
        # setting y = 1 in the singly iterated exponential counts set
        # partitions by size
        s = exp_k_xy(1, 6)
        for n in range(1, 7):
            total = sum(s.coefficient(n, r) for r in range(n + 1))
            assert total == bell(n)


class TestPowY:
    def test_pow_y_row_one_is_log(self):
        # the y^1 row of f^y = exp(y log f) is log f itself
        f = univariate([1, 2, -3, 5], constant=1)
        g = series_pow_y(f)
        h = series_log(f)
        for n in range(5):
            assert g.coefficient(n, 1) == h.coefficient(n, 0)

    def test_pow_y_at_integer_y_matches_products(self):
        # summing rows at y = m gives the coefficients of f^m
        f = univariate([1, 1, 2, 6], constant=1)
        g = series_pow_y(f)
        order = 4
        from math import factorial

        fact = [factorial(i) for i in range(order + 1)]
        fo = [f.coefficient(n, 0) / fact[n] for n in range(order + 1)]
        for m in (1, 2, 3):
            acc = [Fraction(1)] + [Fraction(0)] * order
            for _ in range(m):
                nxt = [Fraction(0)] * (order + 1)
                for i, a in enumerate(acc):
                    for j in range(order + 1 - i):
                        nxt[i + j] += a * fo[j]
                acc = nxt
            for n in range(order + 1):
                got = sum(g.coefficient(n, r) * m ** r
                          for r in range(order + 1))
                assert got / fact[n] == acc[n]
