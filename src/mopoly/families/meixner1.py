"""Meixner of the first kind: weights on N_0 with beta > 0, distinct 0 < c_i < 1.

    w_i(x) = (beta)_x / x! * c_i^x,   m_0 = (1-c_i)^{-beta},   f_j = (beta)_j (c_i/(1-c_i))^j

f_j are the normalized factorial moments; type I is a multiple sum, printed
in the shifted basis (x + beta)_l and alternatively in (-x)_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParameterError
from ..exact.combinatorics import factorial, pochhammer
from ..exact.hypergeometric import term_table
from ..exact.rationals import rat
from .base import Family, bj_sum, check_distinct, rat_tuple, type1_multiple, type2_chain
from .prefactors import PrefactorToken


@dataclass(frozen=True)
class MeixnerI(Family):
    beta0: Fraction
    c: tuple[Fraction, ...]

    family = "meixner1"
    finite_support = False
    json_fields = {"beta": "scalar", "c": "vector"}
    p = property(lambda self: len(self.c))

    def __post_init__(self):
        object.__setattr__(self, "beta0", rat(self.beta0))
        object.__setattr__(self, "c", rat_tuple(self.c))
        if self.beta0 <= 0:
            raise ParameterError("Meixner first kind requires beta > 0")
        if any(not 0 < ci < 1 for ci in self.c):
            raise ParameterError("Meixner first kind requires 0 < c_i < 1")
        check_distinct(self.c, "c")

    def weight(self, i: int, x: int) -> Fraction:
        return pochhammer(self.beta0, x) / factorial(x) * self.c[i - 1] ** x

    def mass_token(self, i: int):
        return PrefactorToken.pow_one_minus_ci(i, self.c[i - 1], self.beta0), Fraction(1)

    def factorial_moment_ratios(self, i: int):
        ci = self.c[i - 1]
        return [self.beta0], ci / (1 - ci)

    def type2_coefficients(self, n) -> list[Fraction]:
        beta, cs = self.beta0, self.c
        size = n.size
        pref = pochhammer(beta, size) * math.prod((ci / (ci - 1)) ** ni for ci, ni in zip(cs, n))
        return type2_chain(n, pref, term_table([], [beta], 1, size),
                           [(ci - 1) / ci for ci in cs])

    def type1(self, n, i: int):
        beta, cs = self.beta0, self.c
        ci, ni, size = cs[i - 1], n[i - 1], n.size
        g = (Fraction(-1) ** (ni - 1)
             / (factorial(ni - 1) * pochhammer(beta, size - ni) * ci ** (ni - 1)))
        return type1_multiple(
            n, i, g, lambda q: ((1 - cs[q]) / (ci - cs[q]), (1 - ci) * cs[q] / (cs[q] - ci)),
            [beta + size - ni], 1 - ci, ("shifted", beta),
            PrefactorToken.pow_one_minus_ci(i, ci, beta + size - 1))

    def type1_alt(self, n, i: int):
        """The alternative hypergeometric form of A^{(i)}, in the basis (-x)_l."""
        beta, cs = self.beta0, self.c
        ci, ni, size = cs[i - 1], n[i - 1], n.size
        g = Fraction(-1) ** (ni - 1) / (factorial(ni - 1) * pochhammer(beta, size - ni))
        return type1_multiple(
            n, i, g, lambda q: ((1 - cs[q]) / (ci - cs[q]), (ci - 1) / (ci - cs[q])),
            [beta + size - ni], (ci - 1) / ci, ("neg_x",),
            PrefactorToken.pow_one_minus_ci(i, ci, beta + size - 1))

    def b0(self, n, k: int) -> Fraction:
        cs = self.c
        ck = cs[k - 1]
        out = (self.beta0 + n.size) * ck / (1 - ck)
        for i in range(self.p):
            out += Fraction(n[i]) / (1 - cs[i])
        return out

    def bj(self, n, j: int, S, Sc) -> Fraction:
        acc = bj_sum(n, S, Sc, self.c, lambda ci: ci / (1 - ci) ** (j + 1),
                     lambda ci, cq: (ci - cq) / (1 - cq))
        return pochhammer(self.beta0 + n.size - j, j) * acc
