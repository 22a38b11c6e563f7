"""Symbolic transcendental prefactors of the type I polynomials.

For the infinite-support families the type I closed forms carry a scalar
factor that is transcendental for generic rational parameters:

* Charlier:             e^{-a_i}
* Meixner second kind:  (1-c)^{gamma}
* Meixner first kind:   (1-c_i)^{gamma}

The oracle never evaluates these numerically: each token times the weight's
total mass m_0^{(i)} times a known rational constant is rational, and that
cancellation is what keeps exact comparisons inside the rational field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..exact.polynomials import Poly
from ..exact.rationals import rat


@dataclass(frozen=True)
class PrefactorToken:
    """One of: one | exp_neg(base) | pow_one_minus_c(exponent) | pow_one_minus_ci(i, exponent).

    ``base`` holds a_i for exp_neg; ``exponent`` the (rational) power for the
    pow tokens; ``index`` the 1-based component for pow_one_minus_ci; ``c``
    the rational 1-c base value for the pow tokens.
    """

    kind: str
    base: Fraction | None = None
    exponent: Fraction | None = None
    index: int | None = None
    c: Fraction | None = None

    @staticmethod
    def one() -> "PrefactorToken":
        return PrefactorToken("one")

    @staticmethod
    def exp_neg(a) -> "PrefactorToken":
        return PrefactorToken("exp_neg", base=rat(a))

    @staticmethod
    def pow_one_minus_c(c, exponent) -> "PrefactorToken":
        return PrefactorToken("pow_one_minus_c", exponent=rat(exponent), c=rat(c))

    @staticmethod
    def pow_one_minus_ci(i, c_i, exponent) -> "PrefactorToken":
        return PrefactorToken("pow_one_minus_ci", exponent=rat(exponent), index=i, c=rat(c_i))

    def value(self) -> float:
        """Numeric value of the token (float layer only)."""
        if self.kind == "one":
            return 1.0
        if self.kind == "exp_neg":
            return math.exp(-float(self.base))
        return float(1 - self.c) ** float(self.exponent)

    def describe(self) -> str:
        if self.kind == "one":
            return "1"
        if self.kind == "exp_neg":
            return f"exp(-{self.base})"
        if self.kind == "pow_one_minus_c":
            return f"(1-c)^({self.exponent})"
        return f"(1-c_{self.index})^({self.exponent})"


@dataclass(frozen=True)
class PrefactoredPolynomial:
    """A transcendental scalar token times a dense rational polynomial."""

    prefactor: PrefactorToken
    rational_part: Poly

    def value(self, x) -> float:
        return self.prefactor.value() * float(self.rational_part(x))

    def is_zero(self) -> bool:
        return self.rational_part.is_zero()
