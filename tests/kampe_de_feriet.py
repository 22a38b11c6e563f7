"""Term-by-term Kampé de Fériet reference for the tests.

``eval_kampe_de_feriet`` sums a terminating multiple Kampé de Fériet series
over every index tuple with fresh Pochhammer symbols, so it shares nothing
with the term-ratio kernel (``term_table`` / ``chain_sum``) it checks.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from mopoly.errors import LowerParamPoleError, NonTerminatingError
from mopoly.exact import factorial, pochhammer
from mopoly.exact.hypergeometric import _termination_bound


@dataclass(frozen=True)
class HypSeriesSpec:
    """Parameter blocks and arguments of a terminating multiple series."""

    global_upper: tuple = ()
    global_lower: tuple = ()
    per_var_upper: tuple = ()   # p tuples
    per_var_lower: tuple = ()   # p tuples
    arguments: tuple = ()       # p rationals

    def __post_init__(self):
        p = len(self.arguments)
        if len(self.per_var_upper) != p or len(self.per_var_lower) != p:
            raise ValueError("per-variable blocks must match the number of arguments")

    @property
    def p(self) -> int:
        return len(self.arguments)


def eval_kampe_de_feriet(spec: HypSeriesSpec) -> Fraction:
    """Exact value of a terminating multiple Kampé de Fériet series.

    Reduces to ``eval_pfq_terminating`` when p = 1.  Raises NonTerminatingError
    unless every summation variable is bounded by a non-positive-integer upper
    parameter (per-variable or global), and LowerParamPoleError if a lower
    Pochhammer vanishes on a term whose numerator part is nonzero.
    """
    p = spec.p
    if p == 0:
        return Fraction(1)
    total_bound = _termination_bound(spec.global_upper)
    var_bounds = []
    for i in range(p):
        b = _termination_bound(spec.per_var_upper[i])
        if Fraction(spec.arguments[i]) == 0:
            b = 0  # x_i^{l_i} kills every l_i >= 1
        if b is None and total_bound is None:
            raise NonTerminatingError(f"summation variable {i + 1} has no terminating parameter")
        var_bounds.append(b)
    if total_bound is None:
        total_bound = sum(var_bounds)
    ranges = [range(min(b, total_bound) + 1 if b is not None else total_bound + 1)
              for b in var_bounds]

    total = Fraction(0)
    for l in itertools.product(*ranges):
        L = sum(l)
        if L > total_bound:
            continue
        num = Fraction(1)
        for a in spec.global_upper:
            num *= pochhammer(a, L)
        for i in range(p):
            for b in spec.per_var_upper[i]:
                num *= pochhammer(b, l[i])
        if num == 0:
            continue
        den = Fraction(1)
        for a in spec.global_lower:
            den *= pochhammer(a, L)
        for i in range(p):
            for b in spec.per_var_lower[i]:
                den *= pochhammer(b, l[i])
        if den == 0:
            raise LowerParamPoleError(f"lower parameter pole at l = {l}")
        term = num / den
        for i in range(p):
            term *= Fraction(spec.arguments[i]) ** l[i] / factorial(l[i])
        total += term
    return total
