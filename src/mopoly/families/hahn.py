"""Hahn: weights on {0, ..., N} with alpha_1..alpha_p, beta > -1.

    w_i(x) = (alpha_i+1)_x / x! * (beta+1)_{N-x} / (N-x)!   (rational mass)

Moments are exact finite sums over the support, the weights built by term
ratios and summed in integers over one denominator; type I is a single sum in
the shifted basis (x + alpha_i + 1)_l.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParameterError
from ..exact.combinatorics import factorial, pochhammer
from ..exact.hypergeometric import eval_pfq_terminating, term_table
from ..exact.rationals import over_lcm, rat
from .base import (Family, check_no_integer_diff, cross_product, div, expanded, nonzero, rat_tuple,
                   step_product, type2_chain)
from .prefactors import PrefactorToken


@dataclass(frozen=True)
class Hahn(Family):
    alpha: tuple[Fraction, ...]
    beta: Fraction
    N: int

    family = "hahn"
    finite_support = True
    json_fields = {"alpha": "vector", "beta": "scalar", "N": "int"}
    p = property(lambda self: len(self.alpha))

    def __post_init__(self):
        object.__setattr__(self, "alpha", rat_tuple(self.alpha))
        object.__setattr__(self, "beta", rat(self.beta))
        object.__setattr__(self, "N", int(self.N))
        if self.N < 0:
            raise ParameterError("N must be a non-negative integer")
        if any(a <= -1 for a in self.alpha) or self.beta <= -1:
            raise ParameterError("Hahn requires alpha_i > -1 and beta > -1")
        check_no_integer_diff(self.alpha, "alpha")

    def weight(self, i: int, x: int) -> Fraction:
        return (pochhammer(self.alpha[i - 1] + 1, x) / factorial(x)
                * pochhammer(self.beta + 1, self.N - x) / factorial(self.N - x))

    def mass_token(self, i: int):
        # Chu-Vandermonde collapses the finite sum to a single Pochhammer ratio.
        mass = pochhammer(self.alpha[i - 1] + self.beta + 2, self.N) / factorial(self.N)
        return PrefactorToken.one(), mass

    def moments(self, i: int, jmax: int) -> list[Fraction]:
        # w(x) / w(0) by term ratios; w(0) cancels in the normalization, and
        # over their lcm the power sums S_j = sum_x x^j w(x) run in integers
        ratios = term_table([self.alpha[i - 1] + 1, -self.N], [1, -self.beta - self.N], 1, self.N)
        _, terms = over_lcm(ratios)
        sums = []
        for _ in range(jmax + 1):
            sums.append(sum(terms))
            terms = [t * x for x, t in enumerate(terms)]
        return [Fraction(s, sums[0]) for s in sums]

    def type2_coefficients(self, n) -> list[Fraction]:
        alpha, beta, N = self.alpha, self.beta, self.N
        size = n.size
        tails = [sum(n[i:]) for i in range(self.p + 1)]   # largest S_i
        pref = pochhammer(-N, size) * math.prod(
            pochhammer(ai + 1, ni) / pochhammer(ai + beta + size + 1, ni)
            for ai, ni in zip(alpha, n))
        partial = list(itertools.accumulate(n))   # N_i = n_1 + ... + n_i
        v = [term_table([ai + beta + Ni + 1], [ai + 1], 1, tails[i])
             for i, (ai, Ni) in enumerate(zip(alpha, partial))]
        w = [term_table([ai + ni + 1], [ai + beta + Ni + 1], 1, tails[i + 1])
             for i, (ai, ni, Ni) in enumerate(zip(alpha, n, partial))]
        return type2_chain(n, pref, term_table([], [-N], 1, size), [1] * self.p, v, w)

    def weighted_pfq(self, n):
        alpha, beta, N = self.alpha, self.beta, self.N
        size = n.size

        def value_at(x: int) -> Fraction:
            pref = Fraction(-1) ** size
            pref *= Fraction(factorial(N - x), factorial(N - size))
            pref *= pochhammer(beta + N - x + 1, x)
            upper = [-size - beta, Fraction(-x)]
            lower = [-N - beta]
            for ai, ni in zip(alpha, n):
                pref *= pochhammer(ai + 1, ni) / pochhammer(ai + beta + size + 1, ni)
                upper.append(ai + ni + 1)
                lower.append(ai + 1)
            return pref * eval_pfq_terminating(upper, lower, 1)

        return value_at

    def type1(self, n, i: int):
        alpha, beta, N = self.alpha, self.beta, self.N
        ai, ni, size = alpha[i - 1], n[i - 1], n.size
        g = (Fraction(-1) ** (size - 1) * factorial(N + 1 - size)
             / (factorial(ni - 1) * pochhammer(beta + 1, size - 1)
                * pochhammer(ai + beta + size, N + 2 - size)))
        for k in range(self.p):
            g *= pochhammer(alpha[k] + beta + size, n[k])
            if k != i - 1:
                g /= pochhammer(alpha[k] - ai, n[k])
        rest = [k for k in range(self.p) if k != i - 1]
        coeffs = term_table(
            [1 - ni, ai + beta + size] + [ai - alpha[k] - n[k] + 1 for k in rest],
            [1, ai + 1, ai + beta + N + 2] + [ai - alpha[k] + 1 for k in rest], 1, ni - 1)
        return expanded(PrefactorToken.one(), g, coeffs, "shifted", ai + 1)

    def b0(self, n, k: int) -> Fraction:
        al, be, N, sz = self.alpha, self.beta, self.N, n.size
        ak, nk = al[k - 1], n[k - 1]
        prod = step_product(al, n, k, "alpha")
        first = (ak + nk + 1) * (
            div(ak + be + nk + N + 2, ak + be + nk + sz + 2,
                f"alpha_{k}+beta+n_{k}+|n|+2") * prod - 1)
        second = Fraction(0)
        for i in range(1, self.p + 1):
            ai, ni = al[i - 1], n[i - 1]
            num = (ai + ni) * (ai + be + ni + N + 1)
            den = (ai - ak - nk - 1 + ni) * pochhammer(ai + be + ni + sz, 2)
            second += div(num, den, f"(alpha_{i}-alpha_{k}-n_{k}-1+n_{i})"
                                    f"(alpha_{i}+beta+n_{i}+|n|)_2") \
                * cross_product(al, n, i, range(1, self.p + 1), "alpha")
        return first + (ak + be + nk + sz + 1) * second

    def bj(self, n, j: int, S, Sc) -> Fraction:
        al, be, N, sz = self.alpha, self.beta, self.N, n.size
        front = pochhammer(N - sz + 1, j) * pochhammer(be + 1 + sz - j, j)
        for q in Sc:
            front = front / nonzero(al[q - 1] + be + sz - j + n[q - 1],
                                    f"alpha_{q}+beta+|n|-j+n_{q}")
        for q in range(self.p):
            front *= div(pochhammer(al[q] + be + sz - j + 1, n[q]),
                         pochhammer(al[q] + be + sz + 1, n[q]),
                         f"(alpha_{q+1}+beta+|n|+1)_{{n_{q+1}}}")
        acc = Fraction(0)
        for i in S:
            ai, ni = al[i - 1], n[i - 1]
            acc += div((ai + ni) * (ai + be + ni + N + 1),
                       pochhammer(ai + be + ni + sz - j, j + 2),
                       f"(alpha_{i}+beta+n_{i}+|n|-j)_{{j+2}}") \
                * cross_product(al, n, i, S, "alpha")
        return front * acc
