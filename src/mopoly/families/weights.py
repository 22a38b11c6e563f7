"""Weight functions and their symbolic total masses.

Each family's weight and total mass are its ``weight`` and ``mass_token``
methods (formulas in the family modules).  All gamma ratios reduce to
Pochhammer ratios, so rational parameters at integer support points give
exact rational weight values.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import OutOfSupportError
from .params import FamilyParams
from .prefactors import PrefactorToken


def weight(params: FamilyParams, i: int, x: int) -> Fraction:
    """Exact value of the i-th weight (1-based) at integer support point x."""
    if x < 0:
        raise OutOfSupportError(f"x = {x} is negative")
    if params.finite_support and x > params.N:
        raise OutOfSupportError(f"x = {x} exceeds the support bound N = {params.N}")
    if not 1 <= i <= params.p:
        raise ValueError(f"weight index i = {i} out of range 1..{params.p}")
    return params.weight(i, x)


def weight_mass_token(params: FamilyParams, i: int):
    """Symbolic total mass of the i-th weight as (token, rational_factor).

    The pair satisfies token * m_0^{(i)} = rational_factor: the token is
    exactly the transcendental factor that the type I prefactor pairs with.
    For finite-support families the token is one and the factor is the exact
    finite sum; for the infinite families m_0 itself is transcendental
    (e^{a_i}, (1-c)^{-beta_i}, (1-c_i)^{-beta}) and the factor is 1.
    """
    if not 1 <= i <= params.p:
        raise ValueError(f"weight index i = {i} out of range 1..{params.p}")
    return params.mass_token(i)


def mass_cancellation(params: FamilyParams, i: int, prefactor: PrefactorToken) -> Fraction:
    """Exact rational value of prefactor * m_0^{(i)}.

    This is the cancellation that lets the oracle compare mass-normalized
    type I components without ever evaluating a transcendental number.  The
    prefactor must pair with the family's mass token: same kind, same base,
    and (for pow tokens) an integer residual exponent.
    """
    token, mass_factor = weight_mass_token(params, i)
    if token.kind != prefactor.kind:
        raise ValueError(f"prefactor {prefactor.describe()} does not pair with mass "
                         f"token {token.describe()}")
    if token.kind == "one":
        return mass_factor
    if token.kind == "exp_neg":
        if token.base != prefactor.base:
            raise ValueError("exp_neg bases differ; no rational cancellation")
        return mass_factor
    # pow tokens: prefactor * m_0 = factor * (1-c)^{prefactor.exp - token.exp},
    # and that residual exponent must be an integer
    if token.c != prefactor.c:
        raise ValueError("pow token bases differ; no rational cancellation")
    residual = prefactor.exponent - token.exponent
    if residual.denominator != 1:
        raise ValueError(f"residual exponent {residual} is not an integer")
    return mass_factor * (1 - token.c) ** residual.numerator
