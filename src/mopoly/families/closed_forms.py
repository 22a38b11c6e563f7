"""Closed-form type II and type I polynomials for all five families.

Type II polynomials are monic of degree |n| and come in two printed shapes:

* ``coefficient_sum``: a finite multiple sum of shifted factorials (-x)_L
  with explicit Pochhammer-product coefficients (all families);
* ``weighted_pfq``: a pointwise weighted pFq expression (Hahn and Meixner
  second kind only), materialized as a polynomial by exact Lagrange
  interpolation through the integer nodes 0..|n|.

Type I polynomials A^{(i)} have degree <= n_i - 1 and carry a transcendental
prefactor token for the infinite-support families; the rational part is built
exactly from the terminating multiple sums.  A component with n_i = 0 is the
zero polynomial by convention (it has no degrees of freedom).

Every printed multiple sum is evaluated by one kernel,
``exact.hypergeometric.chain_sum``: its coefficient of (-x)_L or (x+s)_l is
written in chain form, a product of factor tables indexed by one summation
variable l_i, by the tail sums S_i = l_i + ... + l_p or by the total, and
the tables are filled by term ratios (``term_table``).  The single-sum type I
forms (Hahn, Meixner second kind) are one term table.  The values are the
printed sums exactly; only the order of the exact operations differs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import DegreeExceedsSupportError, OutOfSupportError, UnsupportedRepresentationError
from ..exact.combinatorics import factorial, pochhammer
from ..exact.hypergeometric import chain_sum, eval_pfq_terminating, term_table
from ..exact.indices import MultiIndex
from ..exact.polynomials import Poly, expand_in_monomials, lagrange_interpolate
from .params import Charlier, FamilyParams, Hahn, Kravchuk, MeixnerI, MeixnerII
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
        coeffs = _type2_coefficients(params, n)
        return expand_in_monomials((t, ("neg_x", L)) for L, t in enumerate(coeffs))
    if representation == "weighted_pfq":
        return _type2_weighted_pfq(params, n)
    raise UnsupportedRepresentationError(f"unknown type II representation {representation!r}")


def _type2_coefficients(params: FamilyParams, n: MultiIndex) -> list[Fraction]:
    """c_L of B_n = sum_L c_L (-x)_L, c_L = pref * g(L) * sum_{|l|=L} prod_i u_i v_i w_i.

    Every family's printed coefficient is in the chain form of ``chain_sum``:
    u_i(l_i) = (-n_i)_{l_i} r_i^{l_i} / l_i!, and only Hahn and Meixner II
    have the factors v_i(S_i), w_i(S_{i+1}) linking consecutive variables.
    """
    size, p = n.size, params.p
    tails = [sum(n[i:]) for i in range(p + 1)]   # largest S_i
    v = w = None
    ratios = [1] * p
    if isinstance(params, Hahn):
        alpha, beta, N = params.alpha, params.beta, params.N
        pref = pochhammer(-N, size) * math.prod(
            pochhammer(ai + 1, ni) / pochhammer(ai + beta + size + 1, ni)
            for ai, ni in zip(alpha, n))
        g = term_table([], [-N], 1, size)
        partial = list(itertools.accumulate(n))   # N_i = n_1 + ... + n_i
        v = [term_table([ai + beta + Ni + 1], [ai + 1], 1, tails[i])
             for i, (ai, Ni) in enumerate(zip(alpha, partial))]
        w = [term_table([ai + ni + 1], [ai + beta + Ni + 1], 1, tails[i + 1])
             for i, (ai, ni, Ni) in enumerate(zip(alpha, n, partial))]
    elif isinstance(params, MeixnerII):
        c, beta = params.c, params.beta
        pref = (c / (c - 1)) ** size * math.prod(pochhammer(b, ni) for b, ni in zip(beta, n))
        g = term_table([], [], (c - 1) / c, size)
        v = [term_table([], [b], 1, tails[i]) for i, b in enumerate(beta)]
        w = [term_table([b + ni], [], 1, tails[i + 1]) for i, (b, ni) in enumerate(zip(beta, n))]
    elif isinstance(params, MeixnerI):
        beta, cs = params.beta0, params.c
        pref = pochhammer(beta, size) * math.prod((ci / (ci - 1)) ** ni for ci, ni in zip(cs, n))
        g = term_table([], [beta], 1, size)
        ratios = [(ci - 1) / ci for ci in cs]
    elif isinstance(params, Kravchuk):
        ps, N = params.p_success, params.N
        pref = pochhammer(-N, size) * math.prod(q**ni for q, ni in zip(ps, n))
        g = term_table([], [-N], 1, size)
        ratios = [1 / q for q in ps]
    elif isinstance(params, Charlier):
        pref = math.prod((-ai) ** ni for ai, ni in zip(params.a, n))
        g = [Fraction(1)] * (size + 1)
        ratios = [-1 / ai for ai in params.a]
    else:
        raise TypeError(f"unknown family {params!r}")
    u = [term_table([-ni], [1], r, ni) for ni, r in zip(n, ratios)]
    return chain_sum(u, [pref * t for t in g], v, w)


def _type2_weighted_pfq(params: FamilyParams, n: MultiIndex) -> Poly:
    """Pointwise weighted-pFq representation, interpolated through 0..|n|."""
    size = n.size
    if isinstance(params, Hahn):
        alpha, beta, N = params.alpha, params.beta, params.N

        def value_at(x: int) -> Fraction:
            pref = Fraction(-1) ** size
            pref *= Fraction(factorial(N - x), factorial(N - size))
            pref *= pochhammer(beta + N - x + 1, x)
            upper = [-size - beta, Fraction(-x)]
            lower = [-N - beta]
            for ai, ni in zip(alpha, n):
                pref *= pochhammer(ai + 1, ni) / pochhammer(ai + beta + size + 1, ni)
                upper.append(ai + ni + 1)
                lower.append(ai + 1)
            return pref * eval_pfq_terminating(upper, lower, 1)

        return lagrange_interpolate([(x, value_at(x)) for x in range(size + 1)])

    if isinstance(params, MeixnerII):
        beta, c = params.beta, params.c
        pref0 = (c / (c - 1)) ** size
        for b, ni in zip(beta, n):
            pref0 *= pochhammer(b, ni)

        def value_at(x: int) -> Fraction:
            upper = [Fraction(-x)] + [b + ni for b, ni in zip(beta, n)]
            lower = list(beta)
            return pref0 / c**x * eval_pfq_terminating(upper, lower, 1 - c)

        return lagrange_interpolate([(x, value_at(x)) for x in range(size + 1)])

    raise UnsupportedRepresentationError(
        f"weighted_pfq representation exists only for hahn and meixner2, not {params.family}")


def _type1_sum(ni: int, global_lower, x_arg, others) -> list[Fraction]:
    """Coefficients by l_x of the type I multiple sum over |l| <= ni - 1:

      (1-n_i)_{|l|} / prod (gl)_{|l|} * x_arg^{l_x} / l_x!
      * prod_q (n_q)_{l_q} arg_q^{l_q} / l_q!,   others = [(n_q, arg_q), ...]
    """
    bound = ni - 1
    u = [term_table([], [1], x_arg, bound)]
    u += [term_table([nq], [1], arg, bound) for nq, arg in others]
    return chain_sum(u, term_table([1 - ni], global_lower, 1, bound), by_first=True)


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
    ni = n[i - 1]
    if ni == 0:
        return PrefactoredPolynomial(PrefactorToken.one(), Poly.zero())
    size = n.size

    if isinstance(params, Hahn):
        alpha, beta, N = params.alpha, params.beta, params.N
        ai = alpha[i - 1]
        g = (Fraction(-1) ** (size - 1) * factorial(N + 1 - size)
             / (factorial(ni - 1) * pochhammer(beta + 1, size - 1)
                * pochhammer(ai + beta + size, N + 2 - size)))
        for k in range(params.p):
            g *= pochhammer(alpha[k] + beta + size, n[k])
            if k != i - 1:
                g /= pochhammer(alpha[k] - ai, n[k])
        rest = [k for k in range(params.p) if k != i - 1]
        coeffs = term_table(
            [1 - ni, ai + beta + size] + [ai - alpha[k] - n[k] + 1 for k in rest],
            [1, ai + 1, ai + beta + N + 2] + [ai - alpha[k] + 1 for k in rest], 1, ni - 1)
        poly = expand_in_monomials((g * t, ("shifted", ai + 1, l)) for l, t in enumerate(coeffs))
        return PrefactoredPolynomial(PrefactorToken.one(), poly)

    if isinstance(params, MeixnerII):
        beta, c = params.beta, params.c
        bi = beta[i - 1]
        g = Fraction(-1) ** (size - 1) / (c ** (size - 1) * factorial(ni - 1))
        for k in range(params.p):
            if k != i - 1:
                g /= pochhammer(beta[k] - bi, n[k])
        rest = [k for k in range(params.p) if k != i - 1]
        coeffs = term_table([1 - ni] + [bi + 1 - beta[k] - n[k] for k in rest],
                            [1, bi] + [bi + 1 - beta[k] for k in rest], 1 - c, ni - 1)
        poly = expand_in_monomials((g * t, ("shifted", bi, l)) for l, t in enumerate(coeffs))
        token = PrefactorToken.pow_one_minus_c(c, bi + size - 1)
        return PrefactoredPolynomial(token, poly)

    if isinstance(params, MeixnerI):
        beta, cs = params.beta0, params.c
        ci = cs[i - 1]
        g = (Fraction(-1) ** (ni - 1)
             / (factorial(ni - 1) * pochhammer(beta, size - ni) * ci ** (ni - 1)))
        others = []
        for q in range(params.p):
            if q != i - 1:
                g *= ((1 - cs[q]) / (ci - cs[q])) ** n[q]
                others.append((n[q], (1 - ci) * cs[q] / (cs[q] - ci)))
        coeffs = _type1_sum(ni, [beta + size - ni], 1 - ci, others)
        poly = expand_in_monomials((g * t, ("shifted", beta, l)) for l, t in enumerate(coeffs))
        token = PrefactorToken.pow_one_minus_ci(i, ci, beta + size - 1)
        return PrefactoredPolynomial(token, poly)

    if isinstance(params, Kravchuk):
        ps, N = params.p_success, params.N
        qi = ps[i - 1]
        g = (Fraction(-1) ** (ni - 1)
             / (factorial(ni - 1) * pochhammer(-N, size - ni) * (1 - qi) ** (ni - 1)))
        others = []
        for q in range(params.p):
            if q != i - 1:
                g /= (ps[q] - qi) ** n[q]
                others.append((n[q], (1 - ps[q]) / (qi - ps[q])))
        coeffs = _type1_sum(ni, [-N + size - ni], 1 / qi, others)
        poly = expand_in_monomials((g * t, ("neg_x", l)) for l, t in enumerate(coeffs))
        return PrefactoredPolynomial(PrefactorToken.one(), poly)

    if isinstance(params, Charlier):
        a = params.a
        ai = a[i - 1]
        g = Fraction(-1) ** (ni - 1) / factorial(ni - 1)
        others = []
        for q in range(params.p):
            if q != i - 1:
                g /= (ai - a[q]) ** n[q]
                others.append((n[q], 1 / (a[q] - ai)))
        coeffs = _type1_sum(ni, [], -1 / ai, others)
        poly = expand_in_monomials((g * t, ("neg_x", l)) for l, t in enumerate(coeffs))
        return PrefactoredPolynomial(PrefactorToken.exp_neg(ai), poly)

    raise TypeError(f"unknown family {params!r}")


def type1_meixner1_alt(params: MeixnerI, n: MultiIndex, i: int) -> PrefactoredPolynomial:
    """Alternative hypergeometric form of the first-kind Meixner type I polynomial."""
    n = MultiIndex.of(n)
    ni = n[i - 1]
    if ni == 0:
        return PrefactoredPolynomial(PrefactorToken.one(), Poly.zero())
    beta, cs = params.beta0, params.c
    ci = cs[i - 1]
    size = n.size
    g = Fraction(-1) ** (ni - 1) / (factorial(ni - 1) * pochhammer(beta, size - ni))
    others = []
    for q in range(params.p):
        if q != i - 1:
            g *= ((1 - cs[q]) / (ci - cs[q])) ** n[q]
            others.append((n[q], (ci - 1) / (ci - cs[q])))
    coeffs = _type1_sum(ni, [beta + size - ni], (ci - 1) / ci, others)
    poly = expand_in_monomials((g * t, ("neg_x", l)) for l, t in enumerate(coeffs))
    token = PrefactorToken.pow_one_minus_ci(i, ci, beta + size - 1)
    return PrefactoredPolynomial(token, poly)


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
