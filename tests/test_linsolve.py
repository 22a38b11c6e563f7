"""Fraction-free solve_exact against sympy's exact LU solve."""

import random
from fractions import Fraction as F

import pytest
import sympy

from mopoly.errors import SingularSystemError
from mopoly.oracle import solve_exact


def _sympy_solution(a, b):
    sol = sympy.Matrix(a).LUsolve(sympy.Matrix(b))
    return [F(int(v.p), int(v.q)) for v in sol]


def _rat(rng):
    return F(rng.randrange(-9, 10), rng.randrange(1, 8))


def _agrees(a, b):
    got = solve_exact(a, b)
    assert got == _sympy_solution(a, b)
    assert all(isinstance(v, F) for v in got)


def test_random_rational_systems_match_sympy():
    rng = random.Random(61)
    checked = 0
    for size in (1, 2, 3, 5, 8):
        for _ in range(6):
            a = [[_rat(rng) for _ in range(size)] for _ in range(size)]
            b = [_rat(rng) for _ in range(size)]
            if sympy.Matrix(a).det() == 0:
                continue
            _agrees(a, b)
            checked += 1
    assert checked >= 25


def test_systems_needing_row_swaps_match_sympy():
    # zero first pivot, a zero pivot after the first elimination step, and a
    # permuted triangular system with non-integer rows
    _agrees([[0, 1], [1, 0]], [F(2, 3), F(5, 7)])
    _agrees([[0, F(1, 2), 3], [F(2, 3), 1, 1], [F(4, 3), 2, F(5, 2)]], [1, F(1, 3), 0])
    _agrees([[1, 2, 3], [2, 4, 7], [1, 5, 1]], [1, 2, 3])
    _agrees([[0, 0, F(1, 5)], [0, F(3, 7), F(1, 2)], [F(9, 4), F(1, 3), F(1, 11)]],
            [F(1, 13), 2, F(-4, 9)])
    rng = random.Random(67)
    for size in (2, 4, 6):
        for _ in range(4):
            a = [[_rat(rng) if c >= size - 1 - r else F(0) for c in range(size)]
                 for r in range(size)]   # anti-triangular: every pivot needs a swap
            if sympy.Matrix(a).det() == 0:
                continue
            _agrees(a, [_rat(rng) for _ in range(size)])


def _first_dependent_column(a):
    m = sympy.Matrix(a)
    for col in range(m.cols):
        if m[:, :col + 1].rank() == col:
            return col
    return None


def test_singular_systems_name_the_first_column_without_pivot():
    with pytest.raises(SingularSystemError, match="no pivot in column 1"):
        solve_exact([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(SingularSystemError, match="no pivot in column 0"):
        solve_exact([[0, 1], [0, 3]], [1, 2])
    rng = random.Random(71)
    for _ in range(20):
        size = rng.randrange(2, 6)
        dep = rng.randrange(0, size)
        cols = [[_rat(rng) for _ in range(size)] for _ in range(size)]
        # column dep is a combination of the columns before it (zero for dep = 0)
        weights = [rng.randrange(-3, 4) for _ in range(dep)]
        cols[dep] = [sum((wc * cols[c][r] for c, wc in enumerate(weights)), F(0))
                     for r in range(size)]
        a = [[cols[c][r] for c in range(size)] for r in range(size)]
        expected = _first_dependent_column(a)
        with pytest.raises(SingularSystemError, match=f"no pivot in column {expected}$"):
            solve_exact(a, [_rat(rng) for _ in range(size)])


def test_non_square_systems_raise_value_error():
    with pytest.raises(ValueError):
        solve_exact([[1, 2]], [1])
    with pytest.raises(ValueError):
        solve_exact([[1]], [1, 2])
