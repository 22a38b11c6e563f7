"""Pochhammer symbols, factorial kernels and Stirling numbers over the rationals.

All gamma-function ratios in the exact layer reduce to Pochhammer symbols
(x)_n = x(x+1)...(x+n-1), so rational parameters never leave the rational
field.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


def pochhammer(x, n: int) -> Fraction:
    """Rising factorial (x)_n = x(x+1)...(x+n-1); (x)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer order must be a non-negative integer")
    x = Fraction(x)
    out = Fraction(1)
    for k in range(n):
        out *= x + k
    return out


def falling_factorial(x, n: int) -> Fraction:
    """Falling factorial x(x-1)...(x-n+1)."""
    if n < 0:
        raise ValueError("falling factorial order must be non-negative")
    x = Fraction(x)
    out = Fraction(1)
    for k in range(n):
        out *= x - k
    return out


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    return math.factorial(n)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 arguments must be non-negative")
    return _stirling2_row(n)[k] if k <= n else 0


@functools.lru_cache(maxsize=256)
def _stirling2_row(n: int) -> tuple[int, ...]:
    """(S(n, 0), ..., S(n, n)) by S(m, k) = k S(m-1, k) + S(m-1, k-1), iteratively."""
    row = (1,)
    for m in range(1, n + 1):
        row = (0,) + tuple(k * row[k] + row[k - 1] for k in range(1, m)) + (1,)
    return row


def is_nonpositive_int(x) -> bool:
    """True iff x is an integer <= 0 (the condition for a terminating upper parameter)."""
    x = Fraction(x)
    return x.denominator == 1 and x.numerator <= 0
