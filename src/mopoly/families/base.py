"""What every family class has, and the formula skeletons families share.

Each family module defines one frozen parameter class that validates its
parameters and carries the family's exact formulas as methods: ``weight(i,
x)``, ``mass_token(i)``, ``moments(i, jmax)`` (by default the Stirling
transform of the factorial moments f_k = prod (a)_k arg^k, one ``term_table``
from ``factorial_moment_ratios(i)`` = (upper, arg)), ``type2_coefficients(n)`` (c_L of
B_n = sum_L c_L (-x)_L), ``weighted_pfq(n)`` (x -> B_n(x), Hahn and Meixner
II only), ``type1(n, i)`` (for n_i >= 1), ``b0(n, k)`` and ``bj(n, j, S,
Sc)`` (S the step set S(pi, j), Sc its complement).  The methods trust their
arguments: the public entry points in ``closed_forms``, ``recurrence``,
``weights`` and ``oracle.moments`` check them, then call one method.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from ..errors import ParameterError, SingularDenominatorError, UnsupportedRepresentationError
from ..exact.combinatorics import stirling_transform
from ..exact.hypergeometric import chain_sum, term_table
from ..exact.polynomials import expand_in_monomials
from ..exact.rationals import rat, rat_to_str
from .prefactors import PrefactoredPolynomial


class Family:
    """Base of the five parameter classes (frozen dataclasses).

    Subclasses set ``family`` (the wire name), ``finite_support`` and
    ``json_fields``: the JSON keys in constructor order, each "vector",
    "scalar" (one rational) or "int".
    """

    @classmethod
    def from_json(cls, obj: dict):
        values = [obj[key] for key in cls.json_fields]
        for (key, shape), value in zip(cls.json_fields.items(), values):
            if (shape == "vector") != isinstance(value, (list, tuple)):
                what = "a list of values" if shape == "vector" else "one value"
                raise ParameterError(f"{key} takes {what} for family {cls.family!r}")
        return cls(*values)

    def to_json(self) -> dict:
        out = {"family": self.family}
        for (key, shape), field in zip(self.json_fields.items(), dataclasses.fields(self)):
            value = getattr(self, field.name)
            if shape == "vector":
                value = [rat_to_str(v) for v in value]
            elif shape == "scalar":
                value = rat_to_str(value)
            out[key] = value
        return out

    def moments(self, i: int, jmax: int) -> list[Fraction]:
        upper, arg = self.factorial_moment_ratios(i)
        return stirling_transform(term_table(upper, [], arg, jmax))

    def weighted_pfq(self, n):
        raise UnsupportedRepresentationError(
            f"weighted_pfq representation exists only for hahn and meixner2, not {self.family}")


# ----------------------------------------------------------------------------
# parameter validation

def rat_tuple(values) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def check_distinct(values, label):
    seen = {}
    for i, v in enumerate(values, start=1):
        if v in seen:
            raise ParameterError(f"{label}_{seen[v]} = {label}_{i} = {v} breaks the AT condition")
        seen[v] = i


def check_no_integer_diff(values, label):
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if (values[i] - values[j]).denominator == 1:
                raise ParameterError(
                    f"{label}_{i+1} - {label}_{j+1} = {values[i] - values[j]} is an integer; "
                    "the AT condition requires non-integer differences"
                )


# ----------------------------------------------------------------------------
# type II and type I sums

def type2_chain(n, pref, g, ratios, v=None, w=None) -> list[Fraction]:
    """c_L = pref g(L) sum_{|l|=L} prod_i u_i(l_i) v_i(S_i) w_i(S_{i+1}) (see ``chain_sum``),

    u_i(l) = (-n_i)_l r_i^l / l!: every family's printed type II coefficient.
    """
    u = [term_table([-ni], [1], r, ni) for ni, r in zip(n, ratios)]
    return chain_sum(u, [pref * t for t in g], v, w)


def type1_sum(ni: int, global_lower, x_arg, others) -> list[Fraction]:
    """Coefficients by l_x of the type I multiple sum over |l| <= ni - 1:

      (1-n_i)_{|l|} / prod (gl)_{|l|} * x_arg^{l_x} / l_x!
      * prod_q (n_q)_{l_q} arg_q^{l_q} / l_q!,   others = [(n_q, arg_q), ...]
    """
    bound = ni - 1
    u = [term_table([], [1], x_arg, bound)]
    u += [term_table([nq], [1], arg, bound) for nq, arg in others]
    return chain_sum(u, term_table([1 - ni], global_lower, 1, bound), by_first=True)


def expanded(token, g, coeffs, *basis) -> PrefactoredPolynomial:
    """token * sum_l g c_l phi_l(x), phi_l the basis polynomial (*basis, l)."""
    poly = expand_in_monomials((g * t, (*basis, l)) for l, t in enumerate(coeffs))
    return PrefactoredPolynomial(token, poly)


def type1_multiple(n, i, g, link, lower, x_arg, basis, token) -> PrefactoredPolynomial:
    """A^{(i)} = token g prod_{q != i} f_q^{n_q} sum_l c_l phi_l(x) (Meixner I, Kravchuk,
    Charlier), (f_q, arg_q) = link(q) for the 0-based q, c_l from ``type1_sum``."""
    others = []
    for q in range(n.p):
        if q != i - 1:
            f, arg = link(q)
            g *= f ** n[q]
            others.append((n[q], arg))
    return expanded(token, g, type1_sum(n[i - 1], lower, x_arg, others), *basis)


# ----------------------------------------------------------------------------
# recurrence coefficients; every denominator is checked before use

def nonzero(v: Fraction, what: str) -> Fraction:
    if v == 0:
        raise SingularDenominatorError(f"vanishing factor {what}")
    return v


def div(num: Fraction, den: Fraction, what: str) -> Fraction:
    return num / nonzero(den, what)


def step_product(x, n, k: int, label: str) -> Fraction:
    """prod_q (x_k - x_q + n_k + 1) / (x_k - x_q + n_k + 1 - n_q), k 1-based."""
    xk, nk = x[k - 1], n[k - 1]
    out = Fraction(1)
    for q in range(len(x)):
        out *= div(xk - x[q] + nk + 1, xk - x[q] + nk + 1 - n[q],
                   f"{label}_{k}-{label}_{q+1}+n_{k}+1-n_{q+1}")
    return out


def cross_product(x, n, i: int, qs, label: str) -> Fraction:
    """prod_{all q} (x_i - x_q + n_i) / prod_{q in qs, q != i} (x_i - x_q - n_q + n_i)."""
    xi, ni = x[i - 1], n[i - 1]
    out = Fraction(1)
    for xq in x:
        out *= xi - xq + ni
    for q in qs:
        if q != i:
            out /= nonzero(xi - x[q - 1] - n[q - 1] + ni, f"{label}_{i}-{label}_{q}-n_{q}+n_{i}")
    return out


def bj_sum(n, S, Sc, x, lead, link) -> Fraction:
    """The b^j sum sum_{i in S} n_i lead(x_i) prod_{q in Sc} link(x_i, x_q) of Meixner I,
    Kravchuk and Charlier."""
    acc = Fraction(0)
    for i in S:
        term = n[i - 1] * lead(x[i - 1])
        for q in Sc:
            term *= link(x[i - 1], x[q - 1])
        acc += term
    return acc
