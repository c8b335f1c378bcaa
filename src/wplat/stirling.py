"""Stirling numbers, Bell numbers, and the k-fold Stirling transform
numbers T(n, k, r) / t(n, k, r) by several independent routes.

All functions are pure and exact; out-of-range queries (r > n, negative
arguments) return 0 so the values can be used freely in matrix-style sums.
One band filler, :func:`_triangle`, fills every triangle: S, s, and each
level of the split recurrence for T and t, which differ in one weight.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from . import RouteMismatch

__all__ = [
    "stirling1",
    "stirling2",
    "bell",
    "bell_row",
    "elem_sym_spec",
    "T_def",
    "t_def",
    "T_rec_split",
    "t_rec_split",
    "t_rec_first_column",
    "t_rec_elem_sym",
]


# _S1_COLUMNS[j][m] = s(m, j) and _S2_COLUMNS[j][m] = S(m, j), each column
# filled as far as a call needed
_S1_COLUMNS: list[list[int]] = [[1]]
_S2_COLUMNS: list[list[int]] = [[1]]


def _triangle(columns: list[list[int]], entry, n: int, r: int) -> int:
    """X(n, r) of the triangle with X(0, 0) = 1, X(m, 0) = 0 for m > 0,
    X(m, j) = 0 for m < j and X(m, j) = entry(columns, m, j) otherwise,
    where ``columns[j][m]`` holds X(m, j).  The rule may read the rows
    m' < m of column j and of the columns left of it.

    X(n, r) reads column j up to row n - r + j for j <= r.  The columns are
    filled iteratively, left to right and one entry at a time, from where
    earlier calls left them: no call recurses, so the depth does not grow
    with n, and a whole triangle costs one rule call per entry."""
    if n < 0 or r < 0 or r > n:
        return 0
    while len(columns) <= r:
        columns.append([0] * len(columns))  # X(m, j) = 0 for m < j
    # a column filled to its row has every column left of it filled to theirs
    low = r
    while low >= 0 and len(columns[low]) <= n - r + low:
        low -= 1
    for j in range(low + 1, r + 1):
        column, last = columns[j], n - r + j
        if j == 0:
            column.extend([0] * (last + 1 - len(column)))  # X(m, 0) = 0 for m > 0
            continue
        for m in range(len(column), last + 1):
            column.append(entry(columns, m, j))
    return columns[r][n]


@lru_cache(maxsize=None)
def stirling1(n: int, r: int) -> int:
    """Signed Stirling number of the first kind s(n, r) by the triangle
    recurrence s(m, j) = s(m-1, j-1) - (m-1) s(m-1, j) (:func:`_triangle`)."""
    return _triangle(_S1_COLUMNS, lambda c, m, j: (1 - m) * c[j][m - 1] + c[j - 1][m - 1], n, r)


@lru_cache(maxsize=None)
def stirling2(n: int, r: int) -> int:
    """Stirling number of the second kind S(n, r) by the triangle recurrence
    S(m, j) = j S(m-1, j) + S(m-1, j-1) (:func:`_triangle`)."""
    return _triangle(_S2_COLUMNS, lambda c, m, j: j * c[j][m - 1] + c[j - 1][m - 1], n, r)


def bell_row(n_max: int) -> list[int]:
    """Bell numbers B_0..B_{n_max}, each computed by both
    B_n = sum_r S(n, r) and the binomial recurrence
    B_{n+1} = sum_j C(n, j) B_j; :class:`RouteMismatch` if they disagree."""
    if n_max < 0:
        raise ValueError("bell requires n >= 0")
    via_sum: list[int] = []
    via_rec: list[int] = []
    for m in range(n_max + 1):
        via_sum.append(sum(stirling2(m, r) for r in range(m + 1)))
        via_rec.append(sum(comb(m - 1, j) * via_rec[j] for j in range(m)) if m else 1)
        if via_sum[m] != via_rec[m]:
            raise RouteMismatch(f"Bell formulas disagree: {via_sum} vs {via_rec}")
    return via_sum


def bell(n: int) -> int:
    """Bell number B_n, checked by both routes of :func:`bell_row`."""
    return bell_row(n)[n]


def elem_sym_spec(m: int, j: int) -> int:
    """Elementary symmetric polynomial e_j evaluated at (1, 2, ..., m)."""
    if j < 0 or j > m:
        return 0
    # e[i] after processing value v holds e_i(1..v)
    e = [0] * (j + 1)
    e[0] = 1
    for v in range(1, m + 1):
        for i in range(min(j, v), 0, -1):
            e[i] += v * e[i - 1]
    return e[j]


@lru_cache(maxsize=None)
def _index_paths(n: int, steps: int, kernel) -> tuple[int, ...]:
    """paths[b] for b = 0..n: the sum of prod_j kernel(i_{j-1}, i_j) over
    the weakly decreasing prefixes n = i_0 >= ... >= i_steps = b.

    Each step sets paths[b] = sum_{a >= b} paths[a] * kernel(a, b), so
    paths[b] reads only paths[a] for a >= b and does not depend on where
    the tuples end: one vector serves a whole row of entries.  The kernel
    is part of the cache key; the result is a tuple, never mutated."""
    paths = (0,) * n + (1,)
    for _ in range(steps):
        paths = tuple(sum(paths[a] * kernel(a, b) for a in range(b, n + 1))
                      for b in range(n + 1))
    return paths


def _transform_def(n: int, k: int, r: int, kernel) -> int:
    """Sum of prod_j kernel(i_{j-1}, i_j) over the weakly decreasing index
    tuples n = i_0 >= ... >= i_k = r, summed one index at a time.

    This is sum_{a >= r} paths[a] * kernel(a, r) over the index paths of
    the first k-1 steps (:func:`_index_paths`), the defining sum regrouped
    by distributivity.  The paths are summed once per (n, k-1, kernel), so
    a whole row r = 1..n takes O(k n^2) kernel calls in total instead of
    one per tuple and factor, and nothing but the kernel is called."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0 or r < 0 or r > n:
        return 0
    paths = _index_paths(n, k - 1, kernel)
    return sum(paths[a] * kernel(a, r) for a in range(r, n + 1))


def T_def(n: int, k: int, r: int) -> int:
    """T(n, k, r) by the defining sum of prod_j S(i_{j-1}, i_j) over the
    weakly decreasing index tuples, one index at a time."""
    return _transform_def(n, k, r, stirling2)


def t_def(n: int, k: int, r: int) -> int:
    """t(n, k, r): as T_def but with signed Stirling numbers of the first kind."""
    return _transform_def(n, k, r, stirling1)


def _split_rule(first):
    """The split recurrence as a per-entry rule of :func:`_triangle`:
    X(m, 1) = first(m), and for j >= 2
    X(m, j) = sum_p C(m-1, p) X(p+1, 1) X(m-1-p, j-1).

    p+1 is the size of the block that holds 1, so X(n, r) is
    sum_{lambda |- n, l(lambda)=r} f_lambda prod_j first(lambda_j)
    regrouped by distributivity: O(n) terms per entry instead of one per
    integer partition.  The binomial is carried as a running product."""
    def rule(columns: list[list[int]], m: int, j: int) -> int:
        if j == 1:
            return first(m)
        ones, left = columns[1], columns[j - 1]
        total, binomial = 0, 1
        for p in range(m - j + 1):
            total += binomial * ones[p + 1] * left[m - 1 - p]
            binomial = binomial * (m - 1 - p) // (p + 1)
        return total
    return rule


# j! [y^j] of e^y - 1 (T) and of log(1 + y) (t): the weight of a block of
# the level below in the first column X(m, k, 1) = sum_j w(j) X(m, k-1, j)
# (the exponential formula), from the identity X(m, 0, j) = delta_{m,j}
_WEIGHTS = {"T": lambda j: 1, "t": lambda j: (-1) ** (j + 1) * factorial(j - 1)}
# _LEVELS[kind][k - 1] = [columns, rule, whole] of level k >= 1: columns[j][m]
# = X(m, k, j) as far as :func:`_triangle` filled it, every row <= whole in full
_LEVELS: dict[str, list[list]] = {"T": [], "t": []}


def _transform_split(kind: str, n: int, k: int, r: int) -> int:
    """X(n, k, r) of T or t by the split recurrence, level 0 the identity.

    X(n, k, r) reads level k's first column up to row n - r + 1, which
    reads the levels below it in full up to that row; they are filled
    lowest level first, so nothing recurses in n, r or k."""
    if n < 0 or r < 0 or r > n:
        return 0
    if k == 0:
        return int(n == r)
    levels, weight = _LEVELS[kind], _WEIGHTS[kind]
    while len(levels) < k:  # level 1 stands on the identity: X(m, 1, 1) = w(m)
        lower = levels[-1][0] if levels else None
        first = (weight if lower is None else
                 lambda m, lower=lower: sum(weight(j) * lower[j][m] for j in range(1, m + 1)))
        levels.append([[[1]], _split_rule(first), 0])
    rows = n - r + 1
    for level in levels[:k - 1]:
        if level[2] < rows:
            for j in range(1, rows + 1):
                _triangle(level[0], level[1], rows, j)
            level[2] = rows
    columns, rule, _ = levels[k - 1]
    return _triangle(columns, rule, n, r)


def T_rec_split(n: int, k: int, r: int) -> int:
    """T(n, k, r) via the split recurrence, first column
    T(n, k, 1) = sum_j T(n, k-1, j)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _transform_split("T", n, k, r)


def t_rec_first_column(n: int, k: int) -> int:
    """t(n, k, 1) = sum_{lambda |- n} (-1)^{l(lambda)+1} g_lambda
    prod_i t(lambda_i, k-1, 1) = sum_j (-1)^{j+1} (j-1)! t(n, k-1, j), as
    g_lambda = (l(lambda) - 1)! f_lambda; k=0 is the identity column delta_{n,1}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _transform_split("t", n, k, 1)


def t_rec_split(n: int, k: int, r: int) -> int:
    """t(n, k, r) via the split recurrence, first column
    t(n, k, 1) = sum_j (-1)^{j+1} (j-1)! t(n, k-1, j)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _transform_split("t", n, k, r)


def t_rec_elem_sym(n: int, k: int, r: int) -> int:
    """t(n, k, r) via elementary symmetric functions:
    t(n,k,r) = sum_{a>=r} (-1)^{a-r} e_{a-r}(1..a-1)
               sum_{lambda |- n, l(lambda)=a} f_lambda prod_j t(lambda_j, k-1, 1),
    the inner sum by the split recurrence at level k-1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0 or r < 0 or r > n:
        return 0
    if n == 0:
        return 1
    return sum((-1) ** (a - r) * elem_sym_spec(a - 1, a - r) * _transform_split("t", n, k - 1, a)
               for a in range(r, n + 1))
