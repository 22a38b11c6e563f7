"""The term-ratio sum kernel against term-by-term references.

``term_table`` and ``chain_sum`` evaluate every closed-form multiple sum.
Here they are checked against independent per-term sums: the printed type II
coefficients summed over all l with fresh Pochhammer symbols (for Hahn,
``hahn_sum_coefficient``), and the per-term evaluators
``eval_pfq_terminating`` and the test reference ``eval_kampe_de_feriet``.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from mopoly.exact import (
    MultiIndex,
    eval_pfq_terminating,
    factorial,
    hahn_sum_coefficient,
    multi_indices,
    pochhammer,
)
from mopoly.exact.hypergeometric import chain_sum, term_table
from mopoly.families import Charlier, Hahn, Kravchuk, MeixnerI, MeixnerII
from mopoly.families.base import type1_sum
from mopoly.sampling import draw_params

from kampe_de_feriet import HypSeriesSpec, eval_kampe_de_feriet

FAMILIES = ("hahn", "meixner2", "meixner1", "kravchuk", "charlier")


def _rat(rng, lo=-4, hi=5):
    return F(rng.randrange(lo, hi), rng.choice((1, 2, 3, 5, 7)))


def _brute_type2_term(params, n, l):
    """One printed type II coefficient C_n^l, every Pochhammer built afresh."""
    p, L = params.p, sum(l)
    if isinstance(params, Hahn):
        return hahn_sum_coefficient(params.alpha, params.beta, params.N, n.entries, l)
    if isinstance(params, MeixnerII):
        c, beta = params.c, params.beta
        coeff = (c / (c - 1)) ** n.size * ((c - 1) / c) ** L
        for i in range(p):
            coeff *= pochhammer(beta[i], n[i])
            coeff *= pochhammer(-n[i], l[i]) / factorial(l[i])
            coeff /= pochhammer(beta[i], sum(l[i:]))
            if i < p - 1:
                coeff *= pochhammer(beta[i] + n[i], sum(l[i + 1:]))
        return coeff
    if isinstance(params, MeixnerI):
        beta, cs = params.beta0, params.c
        coeff = pochhammer(beta, n.size) / pochhammer(beta, L)
        for i in range(p):
            coeff *= ((cs[i] / (cs[i] - 1)) ** n[i] * pochhammer(-n[i], l[i]) / factorial(l[i])
                      * ((cs[i] - 1) / cs[i]) ** l[i])
        return coeff
    if isinstance(params, Kravchuk):
        ps, N = params.p_success, params.N
        coeff = pochhammer(-N, n.size) / pochhammer(-N, L)
        for i in range(p):
            coeff *= (ps[i] ** n[i] * pochhammer(-n[i], l[i]) / factorial(l[i])
                      / ps[i] ** l[i])
        return coeff
    assert isinstance(params, Charlier)
    coeff = F(1)
    for i in range(p):
        a = params.a[i]
        coeff *= (-a) ** n[i] * pochhammer(-n[i], l[i]) / factorial(l[i]) * (-1 / a) ** l[i]
    return coeff


@pytest.mark.parametrize("family", FAMILIES)
def test_type2_coefficients_match_per_term_sums(family):
    rng = random.Random(41)
    for p in (1, 2, 3):
        for _ in range(2):
            params = draw_params(rng, family, p, 7)
            cells = list(multi_indices(p, 4)) + [MultiIndex.of([7 - p] + [1] * (p - 1))]
            for n in cells:
                brute = [F(0)] * (n.size + 1)
                for l in itertools.product(*[range(ni + 1) for ni in n]):
                    brute[sum(l)] += _brute_type2_term(params, n, l)
                assert params.type2_coefficients(n) == brute


def _brute_chain(u, v, w, g, by_first):
    p = len(u)
    out = {}
    for l in itertools.product(*[range(len(t)) for t in u]):
        tails = [sum(l[i:]) for i in range(p + 1)]
        if tails[0] >= len(g):
            continue
        term = g[tails[0]]
        for i in range(p):
            term *= u[i][l[i]] * v[i][tails[i]] * w[i][tails[i + 1]]
        key = l[0] if by_first else tails[0]
        out[key] = out.get(key, 0) + term
    return out


@pytest.mark.parametrize("by_first", (False, True))
def test_chain_sum_matches_brute_force(by_first):
    rng = random.Random(43 + by_first)
    for _ in range(40):
        p = rng.randrange(1, 4)
        sizes = [rng.randrange(0, 4) for _ in range(p)]
        total = sum(sizes)
        cap = rng.randrange(0, total + 1)
        u = [[_rat(rng) for _ in range(s + 1)] for s in sizes]
        v = [[_rat(rng) for _ in range(sum(sizes[i:]) + 1)] for i in range(p)]
        w = [[_rat(rng) for _ in range(sum(sizes[i + 1:]) + 1)] for i in range(p)]
        g = [_rat(rng) for _ in range(cap + 1)]
        got = chain_sum(u, g, v, w, by_first=by_first)
        brute = _brute_chain(u, v, w, g, by_first)
        assert {k: t for k, t in enumerate(got) if t} == {k: t for k, t in brute.items() if t}
        # factors of one may be left out
        ones_v = [[F(1)] * len(t) for t in v]
        ones_w = [[F(1)] * len(t) for t in w]
        assert chain_sum(u, g, by_first=by_first) == chain_sum(u, g, ones_v, ones_w, by_first)


def test_term_table_matches_pochhammer_products():
    rng = random.Random(47)
    for _ in range(30):
        upper = [_rat(rng, 1, 9) for _ in range(rng.randrange(0, 3))]
        lower = [_rat(rng, 1, 9) for _ in range(rng.randrange(0, 3))]
        arg = _rat(rng)
        table = term_table(upper, lower, arg, 6)
        for k, t in enumerate(table):
            num = arg**k
            for a in upper:
                num *= pochhammer(a, k)
            for b in lower:
                num /= pochhammer(b, k)
            assert t == num


def test_term_table_sums_to_pfq():
    rng = random.Random(53)
    for _ in range(30):
        m = rng.randrange(0, 6)
        upper = [-m, _rat(rng, 1, 9)]
        lower = [_rat(rng, 1, 9)]
        arg = _rat(rng)
        assert sum(term_table(upper, lower + [1], arg, m + 2)) == \
            eval_pfq_terminating(upper, lower, arg)


def test_ratio_walk_stops_at_the_first_vanishing_upper_factor():
    # (-2)_k vanishes from k = 3 on; the lower pole (-3)_k from k = 4 on lies
    # behind it and is never divided by, as in the per-term skip rule of
    # eval_pfq_terminating
    table = term_table([-2], [-3], 1, 6)
    assert table == [1, F(2, 3), F(1, 3), 0, 0, 0, 0]
    assert sum(term_table([-2], [-3, 1], 1, 6)) == eval_pfq_terminating([-2], [-3], 1)
    # a zero argument terminates the walk too
    assert term_table([F(1, 2)], [-1], 0, 3) == [1, 0, 0, 0]
    # a lower pole before termination is an error
    with pytest.raises(ZeroDivisionError):
        term_table([-4], [-1], 1, 4)


def test_type1_sums_match_kampe_de_feriet():
    # sum_{l_x} c_{l_x} (-x)_{l_x} at x = 0..n_i-1 is a Kampe de Feriet series
    # with -x in the first variable's upper block; agreement at n_i nodes pins
    # every coefficient of the degree n_i - 1 polynomial
    rng = random.Random(59)
    for _ in range(25):
        ni = rng.randrange(1, 6)
        others = [(rng.randrange(0, 5), _rat(rng, 1, 5)) for _ in range(rng.randrange(0, 3))]
        lower = [_rat(rng, 1, 9) for _ in range(rng.randrange(0, 2))]
        x_arg = _rat(rng, 1, 5)
        coeffs = type1_sum(ni, lower, x_arg, others)
        assert len(coeffs) == ni
        for x in range(ni):
            spec = HypSeriesSpec(
                global_upper=(1 - ni,), global_lower=tuple(lower),
                per_var_upper=((-x,),) + tuple((nq,) for nq, _ in others),
                per_var_lower=((),) * (len(others) + 1),
                arguments=(x_arg,) + tuple(arg for _, arg in others))
            value = sum(c * pochhammer(-x, l) for l, c in enumerate(coeffs))
            assert value == eval_kampe_de_feriet(spec)
