"""Stirling numbers, Bell numbers, and the k-fold Stirling transform
numbers T(n, k, r) / t(n, k, r) by several independent routes.

All functions are pure and exact; out-of-range queries (r > n, negative
arguments) return 0 so the values can be used freely in matrix-style sums.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Iterator, Sequence

from . import RouteMismatch

__all__ = [
    "stirling1",
    "stirling2",
    "bell",
    "bell_row",
    "partitions",
    "f_lambda",
    "g_lambda",
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


def _triangle(columns: list[list[int]], weight, n: int, r: int) -> int:
    """X(n, r) of the triangle X(m, j) = weight(m, j) X(m-1, j) + X(m-1, j-1)
    with X(0, 0) = 1, X(m, 0) = 0 for m > 0 and X(m, j) = 0 for m < j, where
    ``columns[j][m]`` holds X(m, j).

    X(n, r) reads column j up to row n - r + j for j <= r.  The columns are
    filled iteratively, left to right, from where earlier calls left them:
    no call recurses, so the depth does not grow with n, and a whole
    triangle costs one step per entry."""
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
        left = columns[j - 1]
        for m in range(len(column), last + 1):
            column.append(weight(m, j) * column[m - 1] + left[m - 1])
    return columns[r][n]


@lru_cache(maxsize=None)
def stirling1(n: int, r: int) -> int:
    """Signed Stirling number of the first kind s(n, r) by the triangle
    recurrence s(m, j) = s(m-1, j-1) - (m-1) s(m-1, j) (:func:`_triangle`)."""
    return _triangle(_S1_COLUMNS, lambda m, j: 1 - m, n, r)


@lru_cache(maxsize=None)
def stirling2(n: int, r: int) -> int:
    """Stirling number of the second kind S(n, r) by the triangle recurrence
    S(m, j) = j S(m-1, j) + S(m-1, j-1) (:func:`_triangle`)."""
    return _triangle(_S2_COLUMNS, lambda m, j: j, n, r)


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


def partitions(n: int) -> Iterator[tuple[int, ...]]:
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


def _multiplicities(lam: Sequence[int]) -> dict[int, int]:
    m: dict[int, int] = {}
    for part in lam:
        m[part] = m.get(part, 0) + 1
    return m


def f_lambda(lam: Sequence[int]) -> int:
    """f_lambda = n! / prod_j (j!)^{m_j} m_j! — the number of ways to split
    [n] into an unordered family of blocks with part sizes lambda."""
    n = sum(lam)
    denom = 1
    for j, mj in _multiplicities(lam).items():
        denom *= factorial(j) ** mj * factorial(mj)
    q, rem = divmod(factorial(n), denom)
    assert rem == 0
    return q


def g_lambda(lam: Sequence[int]) -> int:
    """g_lambda = (l(lambda) - 1)! * f_lambda."""
    return factorial(len(lam) - 1) * f_lambda(lam)


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


def _fill_levels(first_column, n: int, k: int) -> None:
    """Compute ``first_column(m, level)`` for m <= n and the levels below k,
    lowest level first.  Each value reads only the level below it, so once
    that level is cached no call recurses through more than one level, and
    the recursion depth does not grow with k."""
    for level in range(2, k):
        for m in range(1, n + 1):
            first_column(m, level)


@lru_cache(maxsize=None)
def _T_first_column(n: int, k: int) -> int:
    """T(n, k, 1) = sum_r T(n, k-1, r), base T(n, 1, 1) = S(n, 1) = 1."""
    if n < 1:
        return 0
    if n == 1 or k == 1:
        return 1
    _fill_levels(_T_first_column, n, k)
    return sum(T_rec_split(n, k - 1, r) for r in range(1, n + 1))


@lru_cache(maxsize=None)
def _split(n: int, k: int, r: int, first_column) -> int:
    """The split recurrence
    X(n,k,r) = sum_p C(n-1,p) X(p+1,k,1) X(n-p-1,k,r-1),
    with the first column X(n,k,1) given by ``first_column(n, k)``.

    p+1 is the size of the block that holds 1, so this is
    sum_{lambda |- n, l(lambda)=r} f_lambda prod_j first_column(lambda_j, k)
    regrouped by distributivity, O(n^2) terms per n instead of one per
    integer partition.  ``first_column`` is a module-level function, so
    that it is a stable cache key."""
    if n < 0 or r < 0 or r > n:
        return 0
    if n == 0:
        return 1
    if r == 0:
        return 0
    if r == 1:
        return first_column(n, k)
    return sum(
        comb(n - 1, p) * first_column(p + 1, k) * _split(n - p - 1, k, r - 1, first_column)
        for p in range(n - r + 1)
    )


def T_rec_split(n: int, k: int, r: int) -> int:
    """T(n, k, r) via the split recurrence
    T(n,k,r) = sum_p C(n-1,p) T(p+1,k,1) T(n-p-1,k,r-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _split(n, k, r, _T_first_column)


@lru_cache(maxsize=None)
def t_rec_first_column(n: int, k: int) -> int:
    """t(n, k, 1) = sum_{lambda |- n} (-1)^{l(lambda)+1} g_lambda
    prod_i t(lambda_i, k-1, 1), summed by :func:`_split` one length
    l(lambda) at a time, as g_lambda = (l(lambda) - 1)! f_lambda; base k=1
    gives (-1)^{n-1} (n-1)!.

    The internal base layer k=0 is the identity transform column delta_{n,1}.
    """
    if n < 1:
        return 0
    if k == 0:
        return 1 if n == 1 else 0
    if k == 1:
        return (-1) ** (n - 1) * factorial(n - 1)
    _fill_levels(t_rec_first_column, n, k)
    return sum((-1) ** (l + 1) * factorial(l - 1) * _split(n, k - 1, l, t_rec_first_column)
               for l in range(1, n + 1))


def t_rec_split(n: int, k: int, r: int) -> int:
    """t(n, k, r) via the split recurrence, first column from
    t_rec_first_column."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _split(n, k, r, t_rec_first_column)


def t_rec_elem_sym(n: int, k: int, r: int) -> int:
    """t(n, k, r) via elementary symmetric functions:
    t(n,k,r) = sum_{a>=r} (-1)^{a-r} e_{a-r}(1..a-1)
               sum_{lambda |- n, l(lambda)=a} f_lambda prod_j t(lambda_j, k-1, 1),
    the inner sum by :func:`_split`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0 or r < 0 or r > n:
        return 0
    if n == 0:
        return 1
    return sum((-1) ** (a - r) * elem_sym_spec(a - 1, a - r)
               * _split(n, k - 1, a, t_rec_first_column)
               for a in range(r, n + 1))
