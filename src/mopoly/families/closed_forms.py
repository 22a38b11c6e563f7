"""Closed-form type II and type I polynomials for all five families.

Type II polynomials are monic of degree |n| and come in two printed shapes:
``coefficient_sum``, a finite multiple sum of shifted factorials (-x)_L (all
families), and ``weighted_pfq``, a pointwise weighted pFq expression (Hahn
and Meixner second kind only) interpolated exactly through the nodes 0..|n|.

Type I polynomials A^{(i)} have degree <= n_i - 1 and carry a transcendental
prefactor token for the infinite-support families; a component with n_i = 0
is the zero polynomial by convention (it has no degrees of freedom).

Each family's printed sums are methods of its parameter class (``hahn.py``
... ``charlier.py``); the functions here check the arguments and call one.
Every printed multiple sum is evaluated by one kernel,
``exact.hypergeometric.chain_sum``, with factor tables filled by term ratios
(``term_table``); only the order of the exact operations differs from the
printed sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import DegreeExceedsSupportError, OutOfSupportError, UnsupportedRepresentationError
from ..exact.indices import MultiIndex
from ..exact.polynomials import Poly, expand_in_monomials, lagrange_interpolate
from .params import FamilyParams, MeixnerI
from .prefactors import PrefactoredPolynomial, PrefactorToken
from .weights import weight


def _check_degree(params: FamilyParams, size: int, slack: int = 0):
    if params.finite_support and size > params.N + slack:
        raise DegreeExceedsSupportError(
            f"|n| = {size} exceeds the finite support bound N{'+1' if slack else ''} "
            f"= {params.N + slack}")


def type2(params: FamilyParams, n: MultiIndex, representation: str = "coefficient_sum") -> Poly:
    """Monic type II polynomial of degree exactly |n|."""
    n = MultiIndex.of(n)
    if n.p != params.p:
        raise ValueError(f"multi-index length {n.p} != number of weights {params.p}")
    _check_degree(params, n.size)
    if representation == "coefficient_sum":
        coeffs = params.type2_coefficients(n)
        return expand_in_monomials((t, ("neg_x", L)) for L, t in enumerate(coeffs))
    if representation == "weighted_pfq":
        value_at = params.weighted_pfq(n)
        return lagrange_interpolate([(x, value_at(x)) for x in range(n.size + 1)])
    raise UnsupportedRepresentationError(f"unknown type II representation {representation!r}")


def type1(params: FamilyParams, n: MultiIndex, i: int) -> PrefactoredPolynomial:
    """Type I polynomial A^{(i)}, a prefactor token times a rational polynomial.

    The rational part has degree <= n_i - 1; n_i = 0 gives the zero polynomial
    with prefactor one.  Formulas are implemented exactly as printed; the
    oracle module adjudicates the two prefactor variants (see
    ``mopoly.oracle.adjudicate``).
    """
    n = MultiIndex.of(n)
    if n.p != params.p:
        raise ValueError(f"multi-index length {n.p} != number of weights {params.p}")
    if not 1 <= i <= params.p:
        raise ValueError(f"component i = {i} out of range 1..{params.p}")
    _check_degree(params, n.size, slack=1)
    if n[i - 1] == 0:
        return PrefactoredPolynomial(PrefactorToken.one(), Poly.zero())
    return params.type1(n, i)


def type1_meixner1_alt(params: MeixnerI, n: MultiIndex, i: int) -> PrefactoredPolynomial:
    """Alternative hypergeometric form of the first-kind Meixner type I polynomial."""
    n = MultiIndex.of(n)
    if n[i - 1] == 0:
        return PrefactoredPolynomial(PrefactorToken.one(), Poly.zero())
    return params.type1_alt(n, i)


def type1_alt_equivalence(params: MeixnerI, n: MultiIndex, i: int) -> bool:
    """True iff the two printed first-kind Meixner type I forms agree exactly."""
    a = type1(params, n, i)
    b = type1_meixner1_alt(params, n, i)
    return a.prefactor == b.prefactor and a.rational_part == b.rational_part


@dataclass(frozen=True)
class LinearFormValue:
    """Type I linear form value A^(I)(x) = sum_i A^{(i)}(x) w_i(x).

    ``components`` holds the exact per-component pairs (token, rational value)
    with A^{(i)}(x) w_i(x) = token.value() * rational value.  ``exact`` is the
    rational total when every token is one (finite-support families), else
    None; ``value`` is always the float total.
    """

    components: tuple
    exact: Fraction | None
    value: float


def linear_form(params: FamilyParams, n: MultiIndex, x: int) -> LinearFormValue:
    n = MultiIndex.of(n)
    if x < 0 or (params.finite_support and x > params.N):
        raise OutOfSupportError(f"x = {x} outside the support")
    comps = []
    for i in range(1, params.p + 1):
        a = type1(params, n, i)
        comps.append((a.prefactor, a.rational_part(Fraction(x)) * weight(params, i, x)))
    if all(tok.kind == "one" for tok, _ in comps):
        exact = sum((v for _, v in comps), Fraction(0))
        return LinearFormValue(tuple(comps), exact, float(exact))
    total = sum(tok.value() * float(v) for tok, v in comps)
    return LinearFormValue(tuple(comps), None, total)
