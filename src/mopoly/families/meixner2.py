"""Meixner of the second kind: weights on N_0 with beta_1..beta_p > 0, 0 < c < 1.

    w_i(x) = (beta_i)_x / x! * c^x,   m_0 = (1-c)^{-beta_i},   f_j = (beta_i)_j (c/(1-c))^j

f_j are the normalized factorial moments; type I is a single sum in the
shifted basis (x + beta_i)_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParameterError
from ..exact.combinatorics import factorial, pochhammer
from ..exact.hypergeometric import eval_pfq_terminating, term_table
from ..exact.rationals import rat
from .base import (Family, check_no_integer_diff, cross_product, div, expanded, rat_tuple,
                   step_product, type2_chain)
from .prefactors import PrefactorToken


@dataclass(frozen=True)
class MeixnerII(Family):
    beta: tuple[Fraction, ...]
    c: Fraction

    family = "meixner2"
    finite_support = False
    json_fields = {"beta": "vector", "c": "scalar"}
    p = property(lambda self: len(self.beta))

    def __post_init__(self):
        object.__setattr__(self, "beta", rat_tuple(self.beta))
        object.__setattr__(self, "c", rat(self.c))
        if any(b <= 0 for b in self.beta):
            raise ParameterError("Meixner second kind requires beta_i > 0")
        if not 0 < self.c < 1:
            raise ParameterError("Meixner second kind requires 0 < c < 1")
        check_no_integer_diff(self.beta, "beta")

    def weight(self, i: int, x: int) -> Fraction:
        return pochhammer(self.beta[i - 1], x) / factorial(x) * self.c**x

    def mass_token(self, i: int):
        # m_0 = (1-c)^{-beta_i}, so (1-c)^{beta_i} * m_0 = 1
        return PrefactorToken.pow_one_minus_c(self.c, self.beta[i - 1]), Fraction(1)

    def factorial_moment_ratios(self, i: int):
        return [self.beta[i - 1]], self.c / (1 - self.c)

    def type2_coefficients(self, n) -> list[Fraction]:
        c, beta = self.c, self.beta
        size = n.size
        tails = [sum(n[i:]) for i in range(self.p + 1)]   # largest S_i
        pref = (c / (c - 1)) ** size * math.prod(pochhammer(b, ni) for b, ni in zip(beta, n))
        v = [term_table([], [b], 1, tails[i]) for i, b in enumerate(beta)]
        w = [term_table([b + ni], [], 1, tails[i + 1]) for i, (b, ni) in enumerate(zip(beta, n))]
        return type2_chain(n, pref, term_table([], [], (c - 1) / c, size), [1] * self.p, v, w)

    def weighted_pfq(self, n):
        beta, c = self.beta, self.c
        pref0 = (c / (c - 1)) ** n.size
        for b, ni in zip(beta, n):
            pref0 *= pochhammer(b, ni)

        def value_at(x: int) -> Fraction:
            upper = [Fraction(-x)] + [b + ni for b, ni in zip(beta, n)]
            lower = list(beta)
            return pref0 / c**x * eval_pfq_terminating(upper, lower, 1 - c)

        return value_at

    def type1(self, n, i: int):
        beta, c = self.beta, self.c
        bi, ni, size = beta[i - 1], n[i - 1], n.size
        g = Fraction(-1) ** (size - 1) / (c ** (size - 1) * factorial(ni - 1))
        for k in range(self.p):
            if k != i - 1:
                g /= pochhammer(beta[k] - bi, n[k])
        rest = [k for k in range(self.p) if k != i - 1]
        coeffs = term_table([1 - ni] + [bi + 1 - beta[k] - n[k] for k in rest],
                            [1, bi] + [bi + 1 - beta[k] for k in rest], 1 - c, ni - 1)
        token = PrefactorToken.pow_one_minus_c(c, bi + size - 1)
        return expanded(token, g, coeffs, "shifted", bi)

    def b0(self, n, k: int) -> Fraction:
        be, c = self.beta, self.c
        bk, nk = be[k - 1], n[k - 1]
        first = (bk + nk) * (step_product(be, n, k, "beta") / (1 - c) - 1)
        second = Fraction(0)
        for i in range(1, self.p + 1):
            bi, ni = be[i - 1], n[i - 1]
            second += div(bi + ni - 1, bi - bk - nk - 1 + ni,
                          f"beta_{i}-beta_{k}-n_{k}-1+n_{i}") \
                * cross_product(be, n, i, range(1, self.p + 1), "beta")
        return first + second / (1 - c)

    def bj(self, n, j: int, S, Sc) -> Fraction:
        be, c = self.beta, self.c
        acc = Fraction(0)
        for i in S:
            acc += (be[i - 1] + n[i - 1] - 1) * cross_product(be, n, i, S, "beta")
        return c**j / (1 - c) ** (j + 1) * acc
