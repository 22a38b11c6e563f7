import random
from fractions import Fraction as F

import pytest

from mopoly.errors import LowerParamPoleError, NonTerminatingError
from mopoly.exact import eval_pfq_terminating, pochhammer

from kampe_de_feriet import HypSeriesSpec, eval_kampe_de_feriet


def test_upper_parameter_zero_gives_one():
    assert eval_pfq_terminating([0, 5], [7], F(3, 2)) == 1
    assert eval_pfq_terminating([0], [], 1) == 1


def test_terminating_2f1_frozen_sum():
    # 2F1(-2, 1; 3; 1): terms 1 - 2/3 + 1/6, summed independently
    expected = F(1) - F(2, 3) + F(1, 6)
    assert expected == F(1, 2)
    assert eval_pfq_terminating([-2, 1], [3], 1) == expected
    # equals the closed ratio (y-x)_n/(y)_n at n=2, x=1, y=3
    assert eval_pfq_terminating([-2, 1], [3], 1) == pochhammer(2, 2) / pochhammer(3, 2)


def test_saalschutz_boundary_case():
    # 3F2(-1, a, b; c, a+b-c; 1) = 1 - ab/(c(a+b-c)) at a=1, b=2, c=4
    assert eval_pfq_terminating([-1, 1, 2], [4, -1], 1) == F(3, 2)


def test_non_terminating_raises():
    with pytest.raises(NonTerminatingError):
        eval_pfq_terminating([F(1, 2), 1], [3], 1)


def test_lower_pole_raises():
    with pytest.raises(LowerParamPoleError):
        eval_pfq_terminating([-3, 1], [-1], 1)
    # pole beyond termination is harmless: (0)_l cuts the sum at l = 0
    assert eval_pfq_terminating([0], [-1], 1) == 1


def test_kdf_zero_arguments():
    spec = HypSeriesSpec(global_upper=(F(1, 2),), global_lower=(2,),
                         per_var_upper=((3,), (4,)), per_var_lower=((), ()),
                         arguments=(0, 0))
    assert eval_kampe_de_feriet(spec) == 1


def test_kdf_reduces_to_pfq():
    rng = random.Random(5)
    for _ in range(25):
        m = rng.randrange(0, 5)
        upper = [-m, F(rng.randrange(1, 9), rng.randrange(1, 5))]
        lower = [F(rng.randrange(1, 9), rng.randrange(1, 5))]
        arg = F(rng.randrange(-4, 5), rng.randrange(1, 5))
        spec = HypSeriesSpec(global_upper=(),
                             global_lower=(),
                             per_var_upper=(tuple(upper),),
                             per_var_lower=(tuple(lower),),
                             arguments=(arg,))
        assert eval_kampe_de_feriet(spec) == eval_pfq_terminating(upper, lower, arg)


def test_kdf_global_termination():
    # termination through the global block only; checked against an
    # independent direct double sum
    spec = HypSeriesSpec(global_upper=(-2,), global_lower=(F(7, 2),),
                         per_var_upper=((F(1, 3),), (F(2, 5),)),
                         per_var_lower=((), ()), arguments=(1, 1))
    from math import factorial
    direct = F(0)
    for l1 in range(3):
        for l2 in range(3):
            if l1 + l2 > 2:
                continue
            direct += (pochhammer(-2, l1 + l2) / pochhammer(F(7, 2), l1 + l2)
                       * pochhammer(F(1, 3), l1) * pochhammer(F(2, 5), l2)
                       / (factorial(l1) * factorial(l2)))
    assert eval_kampe_de_feriet(spec) == direct


def test_kdf_nonterminating_variable_raises():
    spec = HypSeriesSpec(global_upper=(F(1, 2),), global_lower=(),
                         per_var_upper=((-1,), (F(1, 3),)),
                         per_var_lower=((), ()), arguments=(1, 1))
    with pytest.raises(NonTerminatingError):
        eval_kampe_de_feriet(spec)


def test_charlier_type2_series_value_at_zero():
    # single-weight series with n = 1, a = 2 at x = 0: only the l = 0 term
    spec = HypSeriesSpec(global_upper=(0,), global_lower=(),
                         per_var_upper=((-1,),), per_var_lower=((),),
                         arguments=(F(-1, 2),))
    assert eval_kampe_de_feriet(spec) == 1
    # so the monic type II value at 0 is (-2) * 1
    from mopoly.families import Charlier, type2
    assert type2(Charlier((2,)), (1,))(0) == -2
