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
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import SingularSystemError


def solve_exact(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly for square A over Fraction."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_exact needs a square system")
    rows = []
    for row, b in zip(matrix, rhs):
        row = [Fraction(v) for v in row] + [Fraction(b)]
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularSystemError(f"no pivot in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        top, piv = rows[col], rows[col][col]
        for r in range(col + 1, n):
            row, f = rows[r], rows[r][col]
            for cc in range(col + 1, n + 1):
                row[cc] = (row[cc] * piv - f * top[cc]) // prev
            row[col] = 0
        prev = piv
    det = prev
    y = [0] * n   # y_r = det * x_r, integers
    for r in range(n - 1, -1, -1):
        row = rows[r]
        y[r] = (det * row[n] - sum(row[cc] * y[cc] for cc in range(r + 1, n))) // row[r]
    return [Fraction(v, det) for v in y]
