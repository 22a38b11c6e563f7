"""Exact linear solves by fraction-free (Bareiss) elimination.

Each row of [A | b] is scaled to integers by the lcm of its denominators.
Integer Bareiss elimination (Bareiss, Math. Comp. 22, 1968) divides every
update exactly by the previous pivot, so each entry stays a minor of the
scaled matrix and no gcd is taken.  The pivot is the first nonzero entry of
its column.  With D the last pivot (the determinant up to sign), each D x_r
is an integer by Cramer's rule, so back substitution stays in the integers
too.  The solution is unique, so any exact method gives the same one.
SingularSystemError names the first column without a pivot, which does not
depend on the pivot rule (for the orthogonality systems it signals parameters
that violate the AT property).

``PathElimination`` runs the same integer update step without pivoting on
[G | I], G of N + 1 rows and N columns, and so solves every leading block of
G at once: it is the LU form of G.  After r steps, the identity part of row r
holds the integer combination of the rows 0..r of G that vanishes on the
first r columns, so it gives the left null vector of G[:r+1, :r] (``left_null``;
row N gives the one of the whole G).  The upper part U holds the leading
blocks in triangular form, so G[:r, :r] x = e_{r-1} is one back substitution
whose right side is the identity part's diagonal entry of row r - 1
(``solve_leading``), and a column bordered onto G takes one integer dot
product per row of the identity part before its back substitution
(``solve_bordered``): O(N^2) per solve against O(N^3) for a fresh one.  The
identity part of row r is nonzero in columns 0..r only, and its diagonal
entry is its scale times the previous pivot, so each step updates only
columns that can be nonzero.  A zero pivot raises SingularSystemError; the
caller then has no path elimination for that G.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ..errors import SingularSystemError


def _integer_rows(matrix) -> tuple[list[int], list[list[int]]]:
    """Each row of ints or Fractions times the lcm of its denominators: (lcms, rows)."""
    scales, rows = [], []
    for row in matrix:
        scale = math.lcm(*(v.denominator for v in row))
        scales.append(scale)
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    return scales, rows


def _eliminate(rows: list[list[int]], col: int, prev: int, stop: int) -> int:
    """One Bareiss step: clear column ``col`` below its pivot rows[col][col].

    Updates columns col+1..stop-1 of every later row, each update divided
    exactly by ``prev``, the previous pivot; returns the pivot.
    """
    top, piv = rows[col], rows[col][col]
    for row in rows[col + 1:]:
        f = row[col]
        for cc in range(col + 1, stop):
            row[cc] = (row[cc] * piv - f * top[cc]) // prev
        row[col] = 0
    return piv


def _back_substitute(rows: list[list[int]], rhs: list[int]) -> list[int]:
    """The integers y with sum_{c >= r} rows[r][c] y_c = rhs[r], for r < len(rhs).

    The caller guarantees that every y_r is an integer, so each division is exact.
    """
    size = len(rhs)
    y = [0] * size
    for r in range(size - 1, -1, -1):
        row = rows[r]
        y[r] = (rhs[r] - sum(map(operator.mul, row[r + 1:size], y[r + 1:]))) // row[r]
    return y


def solve_exact(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly for square A; the entries are ints or Fractions."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_exact needs a square system")
    _, rows = _integer_rows([*row, b] for row, b in zip(matrix, rhs))
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularSystemError(f"no pivot in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        prev = _eliminate(rows, col, prev, n + 1)
    det = prev
    y = _back_substitute(rows, [det * row[n] for row in rows])   # y_r = det * x_r
    return [Fraction(v, det) for v in y]


class PathElimination:
    """Every leading block of G (N + 1 rows of N ints or Fractions) from one elimination."""

    def __init__(self, matrix):
        n = self.n = len(matrix) - 1
        scales, rows = _integer_rows(matrix)
        for row in rows:
            row += [0] * (n + 1)   # the identity part, its diagonal set at each pivot
        prev = 1
        for col in range(n):
            top = rows[col]
            if not top[col]:
                raise SingularSystemError(f"zero path pivot in column {col}")
            top[n + col] = scales[col] * prev
            prev = _eliminate(rows, col, prev, n + col + 1)
        rows[n][2 * n] = scales[n] * prev
        self._rows = rows

    def left_null(self, r: int) -> list[Fraction]:
        """The l_0..l_r with l_r = 1 and sum_j l_j G[j][c] = 0 for every c < r."""
        row = self._rows[r]
        last = row[self.n + r]
        return [Fraction(v, last) for v in row[self.n:self.n + r + 1]]

    def solve_leading(self, r: int) -> list[Fraction]:
        """x with G[:r, :r] x = e_{r-1}, for 1 <= r <= N."""
        rows = self._rows
        border = [row[r - 1] for row in rows[:r]]
        return self._bordered(r - 1, border, rows[r - 1][self.n + r - 1])

    def solve_bordered(self, column) -> list[Fraction]:
        """x with [G | column] x = e_N, the column of N + 1 ints or Fractions."""
        n = self.n
        (d,), (ints,) = _integer_rows([column])
        border = [sum(map(operator.mul, row[n:], ints)) for row in self._rows]
        if not border[n]:
            raise SingularSystemError(f"zero path pivot in column {n}")
        x = self._bordered(n, border, self._rows[n][2 * n])
        x[-1] *= d
        return x

    def _bordered(self, size: int, border: list[int], last: int) -> list[Fraction]:
        """x with U[:size, :size] x[:size] + border[:size] x_size = 0, border[size] x_size = last.

        U is the upper part; with D = border[size], D x is an integer vector by
        Cramer's rule on the scaled bordered block, and D x_size = last.
        """
        det = border[size]
        y = _back_substitute(self._rows, [-b * last for b in border[:size]]) + [last]
        return [Fraction(v, det) for v in y]
