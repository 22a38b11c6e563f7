"""Closed-form nearest-neighbor recurrence coefficients.

The (p+2)-term recurrence

    x B_n(x) = B_{n+e_k}(x) + b0_n(k) B_n(x) + sum_{j=1}^p b^j_n B_{n-s_j}(x)

has coefficients b0_n(k) independent of the permutation and b^j_n built from
the step sets S(pi, j); each family's formulas are its ``b0`` and ``bj``
methods.  Every denominator is validated before use; a vanishing factor
raises SingularDenominatorError naming it (the AT conditions rule this out
for valid parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..exact.indices import MultiIndex, Permutation, step_sets
from .params import FamilyParams


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """b0 entries for k = 1..p (permutation independent) and b^j for j = 1..p."""

    b0: tuple[Fraction, ...]
    bj: tuple[Fraction, ...]
    permutation: Permutation


def nnrc(params: FamilyParams, n: MultiIndex, perm: Permutation | None = None) -> RecurrenceCoefficients:
    """Exact recurrence coefficients for multi-index n and permutation perm."""
    n = MultiIndex.of(n)
    if perm is None:
        perm = Permutation.identity(params.p)
    if perm.p != params.p or n.p != params.p:
        raise ValueError("permutation / multi-index length mismatch")
    b0 = tuple(params.b0(n, k) for k in range(1, params.p + 1))
    bj = tuple(params.bj(n, j, *step_sets(perm, j)[1:]) for j in range(1, params.p + 1))
    return RecurrenceCoefficients(b0, bj, perm)
