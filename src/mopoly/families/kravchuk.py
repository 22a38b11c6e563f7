"""Kravchuk: weights on {0, ..., N} with distinct 0 < pi_i < 1.

    w_i(x) = C(N, x) pi_i^x (1-pi_i)^{N-x},   m_0 = 1,   f_j = N(N-1)...(N-j+1) pi_i^j

f_j are the normalized factorial moments; type I is a multiple sum in (-x)_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParameterError
from ..exact.combinatorics import binomial, factorial, pochhammer
from ..exact.hypergeometric import term_table
from .base import Family, bj_sum, check_distinct, rat_tuple, type1_multiple, type2_chain
from .prefactors import PrefactorToken


@dataclass(frozen=True)
class Kravchuk(Family):
    p_success: tuple[Fraction, ...]
    N: int

    family = "kravchuk"
    finite_support = True
    json_fields = {"pi": "vector", "N": "int"}
    p = property(lambda self: len(self.p_success))

    def __post_init__(self):
        object.__setattr__(self, "p_success", rat_tuple(self.p_success))
        object.__setattr__(self, "N", int(self.N))
        if self.N < 0:
            raise ParameterError("N must be a non-negative integer")
        if any(not 0 < q < 1 for q in self.p_success):
            raise ParameterError("Kravchuk requires 0 < pi_i < 1")
        check_distinct(self.p_success, "pi")

    def weight(self, i: int, x: int) -> Fraction:
        q = self.p_success[i - 1]
        return binomial(self.N, x) * q**x * (1 - q) ** (self.N - x)

    def mass_token(self, i: int):
        return PrefactorToken.one(), Fraction(1)

    def factorial_moment_ratios(self, i: int):
        # (-N)_k (-pi)^k = N (N-1) ... (N-k+1) pi^k, zero from k = N + 1 on
        return [-self.N], -self.p_success[i - 1]

    def type2_coefficients(self, n) -> list[Fraction]:
        ps, N = self.p_success, self.N
        size = n.size
        pref = pochhammer(-N, size) * math.prod(q**ni for q, ni in zip(ps, n))
        return type2_chain(n, pref, term_table([], [-N], 1, size), [1 / q for q in ps])

    def type1(self, n, i: int):
        ps, N = self.p_success, self.N
        qi, ni, size = ps[i - 1], n[i - 1], n.size
        g = (Fraction(-1) ** (ni - 1)
             / (factorial(ni - 1) * pochhammer(-N, size - ni) * (1 - qi) ** (ni - 1)))
        return type1_multiple(n, i, g, lambda q: (1 / (ps[q] - qi), (1 - ps[q]) / (qi - ps[q])),
                              [-N + size - ni], 1 / qi, ("neg_x",), PrefactorToken.one())

    def b0(self, n, k: int) -> Fraction:
        ps = self.p_success
        out = (self.N - n.size) * ps[k - 1]
        for i in range(self.p):
            out += n[i] * (1 - ps[i])
        return out

    def bj(self, n, j: int, S, Sc) -> Fraction:
        acc = bj_sum(n, S, Sc, self.p_success, lambda qi: qi * (1 - qi),
                     lambda qi, qq: qi - qq)
        return pochhammer(self.N - n.size + 1, j) * acc
