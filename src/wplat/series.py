"""Truncated bivariate formal power series over exact rationals.

A series here is ``sum c[n,r] * x^n/n! * y^r``: exponential in x, ordinary
in y, truncated to a rectangular box 0 <= n <= x_order, 0 <= r <= y_order.
A coefficient is stored as an ``int`` whenever it is integral, and as a
:class:`fractions.Fraction` only when it is not; no floating point anywhere.
The exp and log kernels are EGF recurrences that only multiply, add and
scale by binomials, so on integral input they are integer recurrences.
The accessors :meth:`BivariateSeries.coefficient` and
:meth:`BivariateSeries.rows` return ``Fraction`` whatever is stored; only
they and the constructor import :mod:`fractions`, so integer work such as
:func:`exp_k_xy` followed by :meth:`BivariateSeries.rows_int` never loads it.

The two series families of interest are the k-fold iterated exponential
``iter_exp(k)(x, y) = exp(y * iter_exp(k-1)(x))`` (whose (n, r) coefficient
is the k-fold Stirling transform T(n, k, r)) and its compositional inverse
``iter_log(k)(x, y) = (iter_log(k)(x))^y`` (coefficients t(n, k, r)).
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "SeriesError",
    "BivariateSeries",
    "series_exp",
    "series_log",
    "series_pow_y",
    "exp_k_xy",
    "log_k_xy",
]


class SeriesError(ValueError):
    """A series operation precondition was violated."""


# internal representation: rows[n] is a dict {r: coefficient} of the nonzero
# y-coefficients of x^n/n!, each an int when integral, else a Fraction.
Coeff = "int | Fraction"
Rows = list[dict[int, Coeff]]


def _poly_mul(a: Mapping[int, Coeff], b: Mapping[int, Coeff],
              y_order: int) -> dict[int, Coeff]:
    """Multiply two polynomials in y, truncating above y_order."""
    out: dict[int, Coeff] = {}
    for ra, ca in a.items():
        for rb, cb in b.items():
            r = ra + rb
            if r > y_order:
                continue
            v = out.get(r, 0) + ca * cb
            if v:
                out[r] = v
            elif r in out:
                del out[r]
    return out


def _poly_add_scaled(acc: dict[int, Coeff], p: Mapping[int, Coeff],
                     scale: int) -> None:
    for r, c in p.items():
        v = acc.get(r, 0) + scale * c
        if v:
            acc[r] = v
        elif r in acc:
            del acc[r]


class BivariateSeries:
    """Immutable truncated series sum c[n,r] x^n/n! y^r."""

    __slots__ = ("x_order", "y_order", "_rows")

    def __init__(self, x_order: int, y_order: int,
                 coeff: Mapping[tuple[int, int], Fraction | int] | None = None):
        if x_order < 0 or y_order < 0:
            raise SeriesError("truncation orders must be non-negative")
        self.x_order = x_order
        self.y_order = y_order
        rows: Rows = [dict() for _ in range(x_order + 1)]
        if coeff:
            from fractions import Fraction
            for (n, r), c in coeff.items():
                if not (0 <= n <= x_order and 0 <= r <= y_order):
                    continue  # outside the box: absent by convention
                c = Fraction(c)
                if c:
                    rows[n][r] = c.numerator if c.denominator == 1 else c
        self._rows = rows

    @classmethod
    def _from_rows(cls, x_order: int, y_order: int, rows: Rows) -> "BivariateSeries":
        s = cls.__new__(cls)
        s.x_order = x_order
        s.y_order = y_order
        s._rows = rows
        return s

    def coefficient(self, n: int, r: int) -> Fraction:
        from fractions import Fraction
        if 0 <= n <= self.x_order and 0 <= r <= self.y_order:
            return Fraction(self._rows[n].get(r, 0))
        return Fraction(0)

    def rows(self) -> list[list[Fraction]]:
        """Dense rows n = 0..x_order of coefficients r = 0..y_order."""
        from fractions import Fraction
        return [[Fraction(row.get(r, 0)) for r in range(self.y_order + 1)]
                for row in self._rows]

    def rows_int(self) -> list[list[int]]:
        """Like :meth:`rows` but as integers; raises if any coefficient
        is not an integer."""
        out = []
        for row in self._rows:
            ints = []
            for r in range(self.y_order + 1):
                c = row.get(r, 0)
                if c.denominator != 1:
                    raise SeriesError(f"non-integer coefficient {c}")
                ints.append(c.numerator)
            out.append(ints)
        return out

    def is_univariate_x(self) -> bool:
        return all(set(row) <= {0} for row in self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return (self.x_order == other.x_order and self.y_order == other.y_order
                and self._rows == other._rows)

    def __repr__(self) -> str:
        terms = []
        for n, row in enumerate(self._rows):
            for r in sorted(row):
                terms.append(f"{row[r]}*x^{n}/{n}!*y^{r}")
        body = " + ".join(terms) if terms else "0"
        return f"BivariateSeries[{self.x_order},{self.y_order}]({body})"

    # -- arithmetic helpers -------------------------------------------------

    def _with_constant(self, delta: int) -> "BivariateSeries":
        rows = [dict(row) for row in self._rows]
        v = rows[0].get(0, 0) + delta
        if v:
            rows[0][0] = v
        else:
            rows[0].pop(0, None)
        return BivariateSeries._from_rows(self.x_order, self.y_order, rows)

    def shift_y(self) -> "BivariateSeries":
        """Multiply by y (dropping anything pushed above y_order)."""
        rows: Rows = []
        for row in self._rows:
            rows.append({r + 1: c for r, c in row.items() if r + 1 <= self.y_order})
        return BivariateSeries._from_rows(self.x_order, self.y_order, rows)


def series_exp(f: BivariateSeries) -> BivariateSeries:
    """exp(f) for a series with zero constant term.

    Uses the EGF recurrence from g' = f'·g:
    g_{n} = sum_{i=0}^{n-1} C(n-1, i) f_{i+1} g_{n-1-i}, g_0 = 1.
    """
    if f._rows[0]:
        raise SeriesError("series_exp requires a zero constant term")
    N, M = f.x_order, f.y_order
    g: Rows = [dict() for _ in range(N + 1)]
    g[0][0] = 1
    for n in range(1, N + 1):
        acc: dict[int, Coeff] = {}
        for i in range(n):
            prod = _poly_mul(f._rows[i + 1], g[n - 1 - i], M)
            _poly_add_scaled(acc, prod, comb(n - 1, i))
        g[n] = acc
    return BivariateSeries._from_rows(N, M, g)


def series_log(f: BivariateSeries) -> BivariateSeries:
    """log(f) for a series with constant term exactly 1.

    Solves f' = h'·f for h = log(f):
    h_n = f_n - sum_{i=0}^{n-2} C(n-1, i) h_{i+1} f_{n-1-i}.
    """
    if f._rows[0] != {0: 1}:
        raise SeriesError("series_log requires constant term exactly 1")
    N, M = f.x_order, f.y_order
    h: Rows = [dict() for _ in range(N + 1)]
    for n in range(1, N + 1):
        acc: dict[int, Coeff] = dict(f._rows[n])
        for i in range(n - 1):
            prod = _poly_mul(h[i + 1], f._rows[n - 1 - i], M)
            _poly_add_scaled(acc, prod, -comb(n - 1, i))
        h[n] = acc
    return BivariateSeries._from_rows(N, M, h)


def series_pow_y(f: BivariateSeries) -> BivariateSeries:
    """f^y = exp(y·log(f)) for f univariate in x with constant term 1."""
    if not f.is_univariate_x():
        raise SeriesError("series_pow_y requires a series univariate in x")
    return series_exp(series_log(f).shift_y())


def exp_k_xy(k: int, N: int) -> BivariateSeries:
    """The k-fold iterated exponential exp(y·exp(...(e^x - 1)...)) to order
    N in x and in y.

    Coefficient (n, r) is the k-fold Stirling transform number T(n, k, r).
    """
    if k < 1:
        raise SeriesError("k must be >= 1")
    # u = (k-1)-fold iterate of f -> exp(f) - 1 applied to x, starting at e^x - 1
    u = BivariateSeries._from_rows(N, N, [{}] + [{0: 1} for _ in range(N)])
    for _ in range(k - 1):
        u = series_exp(u)._with_constant(-1)
    return series_exp(u.shift_y())


def log_k_xy(k: int, N: int) -> BivariateSeries:
    """The compositional inverse family (iterated log)^y to order N in x
    and in y.

    Coefficient (n, r) is the inverse transform number t(n, k, r).
    """
    if k < 1:
        raise SeriesError("k must be >= 1")
    # v = k-fold iterate of f -> 1 + log(f) applied to e^x
    v = BivariateSeries._from_rows(N, N, [{0: 1} for _ in range(N + 1)])
    for _ in range(k):
        v = series_log(v)._with_constant(1)
    return series_pow_y(v)
