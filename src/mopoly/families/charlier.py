"""Charlier: weights on N_0 with distinct a_i > 0.

    w_i(x) = a_i^x / x!,   m_0 = e^{a_i},   f_j = a_i^j

f_j are the normalized factorial moments; type I is a multiple sum in (-x)_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParameterError
from ..exact.combinatorics import factorial
from .base import Family, bj_sum, check_distinct, rat_tuple, type1_multiple, type2_chain
from .prefactors import PrefactorToken


@dataclass(frozen=True)
class Charlier(Family):
    a: tuple[Fraction, ...]

    family = "charlier"
    finite_support = False
    json_fields = {"a": "vector"}
    p = property(lambda self: len(self.a))

    def __post_init__(self):
        object.__setattr__(self, "a", rat_tuple(self.a))
        if any(ai <= 0 for ai in self.a):
            raise ParameterError("Charlier requires a_i > 0")
        check_distinct(self.a, "a")

    def weight(self, i: int, x: int) -> Fraction:
        return self.a[i - 1] ** x / factorial(x)

    def mass_token(self, i: int):
        # m_0 = e^{a_i}; exp_neg(a_i) * m_0 = 1
        return PrefactorToken.exp_neg(self.a[i - 1]), Fraction(1)

    def factorial_moment_ratios(self, i: int):
        return [], self.a[i - 1]

    def type2_coefficients(self, n) -> list[Fraction]:
        pref = math.prod((-ai) ** ni for ai, ni in zip(self.a, n))
        return type2_chain(n, pref, [Fraction(1)] * (n.size + 1), [-1 / ai for ai in self.a])

    def type1(self, n, i: int):
        a = self.a
        ai, ni = a[i - 1], n[i - 1]
        g = Fraction(-1) ** (ni - 1) / factorial(ni - 1)
        return type1_multiple(n, i, g, lambda q: (1 / (ai - a[q]), 1 / (a[q] - ai)),
                              [], -1 / ai, ("neg_x",), PrefactorToken.exp_neg(ai))

    def b0(self, n, k: int) -> Fraction:
        return self.a[k - 1] + n.size

    def bj(self, n, j: int, S, Sc) -> Fraction:
        return bj_sum(n, S, Sc, self.a, lambda ai: ai, lambda ai, aq: ai - aq)
