import random
from fractions import Fraction as F

import pytest

from mopoly.exact import (
    MultiIndex,
    Permutation,
    falling_factorial,
    multi_indices,
    pochhammer,
    step_sets,
    stirling2,
)
from mopoly.errors import InvalidShiftError


def test_pochhammer_empty_product():
    assert pochhammer(F(5, 3), 0) == 1
    assert pochhammer(0, 0) == 1


def test_pochhammer_direct_products():
    assert pochhammer(3, 2) == 12          # 3*4
    assert pochhammer(-3, 5) == 0          # factor (x+3) vanishes
    assert pochhammer(F(1, 2), 3) == F(15, 8)   # (1/2)(3/2)(5/2)


def test_pochhammer_concatenation_identity():
    # (x)_{m+n} = (x)_m (x+m)_n, exact for rational x
    rng = random.Random(11)
    for _ in range(60):
        x = F(rng.randrange(-40, 40), rng.randrange(1, 12))
        m = rng.randrange(0, 21)
        n = rng.randrange(0, 21 - 0)
        assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)


def test_falling_factorial():
    assert falling_factorial(4, 2) == 12
    assert falling_factorial(F(1, 2), 2) == F(1, 2) * F(-1, 2)


def brute_stirling2(n, k):
    # number of surjections / k! via inclusion-exclusion
    from math import comb
    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    from math import factorial
    return total // factorial(k)


@pytest.mark.parametrize("n", range(0, 9))
def test_stirling2_against_inclusion_exclusion(n):
    for k in range(0, n + 1):
        if n == k == 0:
            assert stirling2(0, 0) == 1
        else:
            assert stirling2(n, k) == brute_stirling2(n, k)


def test_stirling2_large_cold_row():
    # far beyond the recursion limit; (1/k!) sum_i (-1)^i C(k,i) (k-i)^n
    from math import comb, factorial
    from mopoly.exact import combinatorics

    n, k = 1500, 700
    explicit = sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1))
    assert explicit % factorial(k) == 0
    assert stirling2(n, k) == explicit // factorial(k)
    assert stirling2(n, n + 1) == 0
    assert combinatorics._stirling2_row.cache_info().maxsize is not None


def test_multi_index_basics():
    n = MultiIndex.of((2, 0, 1))
    assert n.size == 3 and n.p == 3
    assert n.add_unit(2).entries == (2, 1, 1)
    assert n.sub_unit(1).entries == (1, 0, 1)
    with pytest.raises(InvalidShiftError):
        n.sub_unit(2)
    assert n.without(2) == (2, 1)


def test_multi_indices_enumeration():
    found = list(multi_indices(2, 2))
    assert [m.entries for m in found] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_permutation_inverse():
    perm = Permutation.of((4, 2, 1, 3))
    assert perm(1) == 4
    assert perm.inverse(4) == 1
    assert perm.inverse(3) == 4
    with pytest.raises(ValueError):
        Permutation.of((1, 1, 2))


def test_step_sets_worked_example():
    # p = 4, pi = (4, 2, 1, 3): S(pi,1..4) = {1,2,3,4}, {1,2,3}, {1,3}, {3}
    perm = Permutation.of((4, 2, 1, 3))
    _, s1, _ = step_sets(perm, 1)
    _, s2, _ = step_sets(perm, 2)
    _, s3, c3 = step_sets(perm, 3)
    _, s4, _ = step_sets(perm, 4)
    assert s1 == frozenset({1, 2, 3, 4})
    assert s2 == frozenset({1, 2, 3})
    assert s3 == frozenset({1, 3})
    assert c3 == frozenset({2, 4})
    assert s4 == frozenset({3})


def test_step_vectors():
    perm = Permutation.of((4, 2, 1, 3))
    s0, full, _ = step_sets(perm, 0)
    assert s0 == (0, 0, 0, 0)
    assert full == frozenset({1, 2, 3, 4})
    s2, _, _ = step_sets(perm, 2)
    assert s2 == (0, 1, 0, 1)   # e_4 + e_2
