"""Stirling numbers and the layered transform numbers T / t."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conftest import (
    f_lambda,
    g_lambda,
    oracle_partition_sum,
    oracle_set_partitions,
    oracle_stirling1,
    oracle_stirling2,
    oracle_stirling2_sum,
    oracle_t_first_column,
    oracle_transform_def,
    partitions,
)
from wplat import stirling
from wplat import (
    T_def,
    T_rec_split,
    bell,
    bell_row,
    elem_sym_spec,
    stirling1,
    stirling2,
    t_def,
    t_rec_elem_sym,
    t_rec_first_column,
    t_rec_split,
)
from wplat.cli import main


class TestStirlingOracles:
    def test_stirling1_against_falling_factorial(self):
        for n in range(9):
            for r in range(n + 2):
                assert stirling1(n, r) == oracle_stirling1(n, r)

    def test_stirling2_against_partition_enumeration(self):
        for n in range(8):
            for r in range(n + 2):
                assert stirling2(n, r) == oracle_stirling2(n, r)

    def test_stirling2_against_alternating_sum(self):
        for n in range(31):
            for r in range(-1, n + 2):
                assert stirling2(n, r) == oracle_stirling2_sum(n, r)

    def test_stirling2_cold_large_n_does_not_recurse(self):
        # both triangles are filled iteratively, so a fresh interpreter's
        # recursion limit does not bound n
        src = str(Path(stirling.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "from wplat.stirling import stirling1, stirling2, t_def\n"
             "print(stirling2(1500, 3), stirling1(1500, 1), t_def(1200, 1, 1200))"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stderr) == (0, "")
        s2, s1, t = map(int, proc.stdout.split())
        assert s2 == (3 ** 1500 - 3 * 2 ** 1500 + 3) // 6
        assert s1 == -factorial(1499)
        assert t == 1

    def test_bell_against_enumeration(self):
        for n in range(8):
            expected = sum(1 for _ in oracle_set_partitions(range(n)))
            assert bell(n) == expected

    def test_bell_row_is_bell_of_each_n(self):
        assert bell_row(0) == [1]
        assert bell_row(12) == [bell(n) for n in range(13)]
        with pytest.raises(ValueError):
            bell_row(-1)

    @given(n=st_.integers(1, 25), r=st_.integers(0, 25))
    @settings(max_examples=60, deadline=None)
    def test_stirling_recurrences(self, n, r):
        assert stirling2(n, r) == r * stirling2(n - 1, r) + stirling2(n - 1, r - 1)
        assert stirling1(n, r) == stirling1(n - 1, r - 1) - (n - 1) * stirling1(n - 1, r)


class TestPartitionsOfIntegers:
    def test_counts(self):
        # number of integer partitions of n
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for n, want in enumerate(expected):
            assert len(list(partitions(n))) == want

    def test_each_sums_and_sorted(self):
        for n in range(9):
            for lam in partitions(n):
                assert sum(lam) == n
                assert list(lam) == sorted(lam, reverse=True)

    def test_f_g_small(self):
        # f_lambda counts set partitions of type lambda
        for n in range(1, 7):
            total = 0
            for lam in partitions(n):
                total += f_lambda(lam)
            assert total == bell(n)

    def test_f_lambda_by_type(self):
        # f_lambda counts the set partitions whose block sizes are lambda
        for n in range(1, 7):
            for lam in partitions(n):
                want = sum(
                    1 for p in oracle_set_partitions(range(n))
                    if sorted((len(b) for b in p), reverse=True) == list(lam))
                assert f_lambda(lam) == want

    def test_g_lambda_weight(self):
        for n in range(1, 7):
            for lam in partitions(n):
                assert g_lambda(lam) == factorial(len(lam) - 1) * f_lambda(lam)


class TestElemSymSpec:
    def test_small_values(self):
        # e_j evaluated at 1, 2, ..., m equals |s(m+1, m+1-j)|
        for m in range(7):
            for j in range(m + 1):
                assert elem_sym_spec(m, j) == abs(stirling1(m + 1, m + 1 - j))


class TestTransformNumbers:
    def test_k1_reduces_to_classical(self):
        for n in range(8):
            for r in range(n + 1):
                assert T_def(n, 1, r) == stirling2(n, r)
                assert t_def(n, 1, r) == stirling1(n, r)

    def test_paper_rows(self):
        # fourth-row coefficients for k = 2 and k = 3
        assert [T_def(4, 2, r) for r in (1, 2, 3, 4)] == [15, 32, 12, 1]
        assert [T_def(4, 3, r) for r in (1, 2, 3, 4)] == [60, 75, 18, 1]
        assert [t_def(4, 2, r) for r in (1, 2, 3, 4)] == [-35, 40, -12, 1]
        assert [t_def(4, 3, r) for r in (1, 2, 3, 4)] == [-105, 87, -18, 1]
        assert t_def(3, 3, 1) == 15

    def test_route_agreement_small(self):
        for n in range(10):
            for k in (1, 2, 3, 4):
                for r in range(n + 1):
                    base = T_def(n, k, r)
                    assert T_rec_split(n, k, r) == base
                    tb = t_def(n, k, r)
                    assert t_rec_split(n, k, r) == tb
                    assert t_rec_elem_sym(n, k, r) == tb

    def test_inverse_relation(self):
        # t(.,k,.) is the matrix inverse of T(.,k,.)
        for k in (1, 2, 3):
            for n in range(7):
                for m in range(7):
                    conv = sum(t_def(n, k, j) * T_def(j, k, m)
                               for j in range(min(n, 7) + 1))
                    assert conv == (1 if n == m else 0)

    def test_sign_pattern(self):
        for k in (1, 2, 3):
            for n in range(1, 7):
                for r in range(1, n + 1):
                    v = t_def(n, k, r)
                    assert v != 0
                    assert (v > 0) == ((n - r) % 2 == 0)

    def test_def_matches_tuple_walk(self):
        for n in range(11):
            for k in range(1, 5):
                for r in range(-1, n + 2):
                    assert T_def(n, k, r) == oracle_transform_def(n, k, r, stirling2)
                    assert t_def(n, k, r) == oracle_transform_def(n, k, r, stirling1)

    def test_def_rejects_k_below_one(self):
        for fn in (T_def, t_def):
            with pytest.raises(ValueError):
                fn(3, 0, 1)

    def test_def_work_bound(self):
        # the index paths are summed once per (n, k-1, kernel), so the
        # bound on one entry holds for the whole row r = 1..n
        calls = 0

        def counting(a, b):
            nonlocal calls
            calls += 1
            return stirling2(a, b)

        n, k = 22, 4
        assert stirling._transform_def(n, k, 1, counting) == T_def(n, k, 1)
        assert calls <= k * (n + 1) ** 2
        row = [stirling._transform_def(n, k, r, counting) for r in range(1, n + 1)]
        assert row == [T_def(n, k, r) for r in range(1, n + 1)]
        assert calls <= k * (n + 1) ** 2
        assert stirling2.cache_info() is not None


def _one(m: int, k: int) -> int:
    """Weight 1 on every block: the split rule then counts set partitions."""
    return 1


def _T_row_sum(m: int, k: int) -> int:
    """sum_{r=1}^{m} T(m, k, r) by the defining sum: the split rule with
    this column at level k gives T(., k+1, .)."""
    return sum(T_def(m, k, r) for r in range(1, m + 1))


# (first column, level) pairs for the split rule; k = 0 is the level that
# t_rec_elem_sym reads at k = 1
SPLIT_COLUMNS = [(_one, 0), (_one, 2), (t_rec_first_column, 0), (t_rec_first_column, 1),
                 (t_rec_first_column, 3), (_T_row_sum, 1), (_T_row_sum, 3)]


def _split(column, k):
    """X(n, l) of the split rule with first column column(., k), read from
    a fresh column store filled by the band filler."""
    columns, rule = [[1]], stirling._split_rule(lambda m: column(m, k))
    return lambda n, l: stirling._triangle(columns, rule, n, l)


class TestRegroupedSums:
    """The sums over integer partitions, summed by the block that holds 1
    (the split rule of ``stirling._triangle``), against the literal
    per-partition sums."""

    def test_first_column_matches_partition_sum(self):
        for n in range(15):
            for k in range(6):
                assert t_rec_first_column(n, k) == oracle_t_first_column(n, k)

    def test_first_column_rejects_negative_k(self):
        for n in (-1, 0, 1, 5):
            with pytest.raises(ValueError):
                t_rec_first_column(n, -1)

    def test_split_route_does_not_recurse(self):
        # every triangle is filled by the band filler, level by level, so a
        # fresh interpreter's recursion limit bounds none of n, r and k
        src = str(Path(stirling.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from wplat.stirling import T_rec_split, t_rec_split, t_rec_first_column, t_def\n"
             "from wplat.cli import main\n"
             "sys.setrecursionlimit(60)\n"
             "print(T_rec_split(1200, 2, 1200), t_rec_split(1200, 2, 1200),\n"
             "      T_rec_split(3, 2000, 2), t_rec_first_column(40, 6) == t_def(40, 6, 1))\n"
             "print(main(['table', '--kind', 't', '--n-max', '3', '--k', '2000']))"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert lines[0] == "1 1 6000 True"  # T(3, k, 2) = 3k
        assert lines[-1] == "0"

    def test_split_route_reads_no_stirling_number(self):
        # the split route and t_rec_elem_sym stand on their own: with the
        # Stirling numbers and the defining sum replaced by functions that
        # raise, they still give the paper's rows
        src = str(Path(stirling.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "from wplat import stirling as st\n"
             "def boom(*args):\n"
             "    raise AssertionError('read a Stirling number')\n"
             "st.stirling1 = st.stirling2 = st._transform_def = boom\n"
             "print(st.T_rec_split(4, 3, 2), st.t_rec_split(4, 3, 1), st.t_rec_first_column(3, 3),\n"
             "      st.t_rec_elem_sym(4, 2, 2), st.T_rec_split(9, 3, 4), st.t_rec_split(9, 3, 4),\n"
             "      st.t_rec_first_column(9, 3), st.t_rec_elem_sym(9, 3, 4))"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split() == ["75", "-105", "15", "40", "4444188", "-9009294",
                                       "36017472", "-9009294"]

    @pytest.mark.parametrize("column,k", SPLIT_COLUMNS)
    def test_split_base_cases(self, column, k):
        split = _split(column, k)
        assert split(0, 0) == 1
        for n in range(1, 8):
            assert split(n, 0) == 0
        for l in range(1, 4):
            assert split(0, l) == 0
        for n in range(6):
            for l in range(n + 1, n + 4):
                assert split(n, l) == 0

    @pytest.mark.parametrize("column,k", SPLIT_COLUMNS)
    def test_split_matches_partition_sum(self, column, k):
        split = _split(column, k)
        for n in range(11):
            for l in range(n + 1):
                assert split(n, l) == oracle_partition_sum(
                    n, l, f_lambda, lambda part: column(part, k))

    def test_recurrences_match_partition_sums(self):
        """The paper's per-partition recurrences for T (checked on
        T_rec_split) and t_rec_elem_sym, with the defining sums one level
        down."""
        for n in range(1, 10):
            for k in (2, 3, 4):
                def inner(a):
                    return oracle_partition_sum(n, a, f_lambda, lambda m: t_def(m, k - 1, 1))

                for r in range(n + 1):
                    assert T_rec_split(n, k, r) == oracle_partition_sum(
                        n, r, f_lambda, lambda m: _T_row_sum(m, k - 1))
                    assert t_rec_elem_sym(n, k, r) == sum(
                        (-1) ** (a - r) * elem_sym_spec(a - 1, a - r) * inner(a)
                        for a in range(r, n + 1))

    def test_recurrences_reject_k_below_one(self):
        for fn in (T_rec_split, t_rec_split, t_rec_elem_sym):
            with pytest.raises(ValueError):
                fn(3, 0, 1)

    # stdout sha256 of the benchmark's two t tables, pinned from the output
    # of the per-partition sums
    @pytest.mark.parametrize("k,digest", [
        (3, "7a25a5668dd16a935d56ec5e0a6e5118fe5c403c0222d561f6688b9d7eb3896f"),
        (4, "7e9e5463edb9e6432707a374118da71b70fe05e6546346042e8a1ffc49b850d6"),
    ])
    def test_t_table_matches_pinned_digest(self, capsys, k, digest):
        assert main(["table", "--kind", "t", "--n-max", "24", "--k", str(k)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
