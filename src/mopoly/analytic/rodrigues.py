"""Rodrigues-type parameter derivatives for the type I polynomials.

The first-kind Meixner, Kravchuk and Charlier type I polynomials are
(n_i - 1)-th derivatives of a weighted kernel K_x(v) with respect to the
family parameter v (c_i, the pole location t = pi_i/(1-pi_i), and a_i
respectively), taken at v = t_i and divided by (n_i - 1)!.  That quotient is
the h^m Taylor coefficient of K_x(t_i + h), m = n_i - 1, so no derivative is
formed: every factor of the kernel is a binomial series

    (a + h)^e = a^e (1 + h/a)^e = a^e sum_k (-e)_k / k! (-h/a)^k,

one ``term_table([-e], [1], -1/a, m)``, its constant a^e is collected into
an exact scale, and the truncated series are multiplied.  The factors are

    all           v^x,                   a = t_i,        e = x,
    all, j != i   (v - t_j)^{-n_j},      a = t_i - t_j,  e = -n_j,
    Meixner I     (1-v)^gamma / (1-c_i)^gamma,
                                         a = c_i - 1,    e = gamma = |n|+beta-2,
    Kravchuk      (1+v)^{|n|-N-2},       a = 1 + t_i,    e = |n| - N - 2,
    Charlier      e^{-v} / e^{-a_i} = e^{-h},  the series term_table([], [1], -1, m).

The constant t_i^x of v^x cancels against the closed form's normalization,
so x enters only through the series of (1 + h/t_i)^x.  The resulting values
must coincide exactly with the hypergeometric closed forms.  Sign note: the
printed Rodrigues corollaries carry the clockwise orientation of the source
contour theorems and hence the opposite sign; this module uses the
residue-theorem (counterclockwise) sign, which is the one the closed forms and
the moment oracle confirm.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import UnsupportedRepresentationError
from ..exact.combinatorics import factorial, pochhammer
from ..exact.hypergeometric import term_table
from ..exact.indices import MultiIndex
from ..exact.polynomials import Poly, lagrange_interpolate
from ..families.params import FamilyParams
from ..families.prefactors import PrefactoredPolynomial, PrefactorToken


def _binomial(a, e, m: int) -> list[Fraction]:
    """Coefficients of h^0..h^m in (1 + h/a)^e = (a + h)^e / a^e."""
    return term_table([-e], [1], -1 / Fraction(a), m)


def rodrigues_type1(params: FamilyParams, n: MultiIndex, i: int) -> PrefactoredPolynomial:
    """Type I polynomial A^{(i)} from its Rodrigues-type parameter derivative.

    Exact for first-kind Meixner, Kravchuk and Charlier; the returned
    PrefactoredPolynomial must equal ``families.type1`` coefficient by
    coefficient.  The rational part is interpolated through the integer
    points x = 0..n_i-1 and re-verified on extra guard points.
    """
    n = MultiIndex.of(n)
    if params.family not in _KERNELS:
        raise UnsupportedRepresentationError(
            f"no Rodrigues-type formula implemented for family {params.family}")
    ni = n[i - 1]
    if ni < 1:
        return PrefactoredPolynomial(PrefactorToken.one(), Poly.zero())
    guard = 3
    values = _values(params, n, i, ni + guard)
    poly = lagrange_interpolate(list(zip(range(ni), values[:ni])))
    for x in range(ni, ni + guard):
        if poly(x) != values[x]:
            raise AssertionError("Rodrigues values do not extend the interpolated "
                                 f"degree-{ni - 1} polynomial at x = {x}")
    return PrefactoredPolynomial(_TOKENS[params.family](params, n, i), poly)


def _values(params, n: MultiIndex, i: int, count: int) -> list[Fraction]:
    """The rational part of A^{(i)}(x) at x = 0..count-1: scale * [h^m] K_x(t_i + h)."""
    m = n[i - 1] - 1
    t, scale, factors = _KERNELS[params.family](params, n, i, m)
    ti = t[i - 1]
    for j, (tj, nj) in enumerate(zip(t, n), start=1):
        if j != i and nj:
            scale /= (ti - tj) ** nj
            factors.append(_binomial(ti - tj, -nj, m))
    # the x-independent factors, multiplied as series truncated after h^m
    kernel = [Fraction(1)] + [Fraction(0)] * m
    for series in factors:
        kernel = [sum(kernel[k] * series[j - k] for k in range(j + 1)) for j in range(m + 1)]
    out = []
    for x in range(count):
        series = _binomial(ti, x, m)
        out.append(scale * sum(kernel[k] * series[m - k] for k in range(m + 1)))
    return out


_TOKENS = {
    "charlier": lambda params, n, i: PrefactorToken.exp_neg(params.a[i - 1]),
    "meixner1": lambda params, n, i: PrefactorToken.pow_one_minus_ci(
        i, params.c[i - 1], params.beta0 + n.size - 1),
    "kravchuk": lambda params, n, i: PrefactorToken.one(),
}


# each family's kernel: the points t_j, the scale in front of [h^m] K_x, and
# the series of its family-specific factor


def _charlier_kernel(params, n: MultiIndex, i: int, m: int):
    return params.a, Fraction(1), [term_table([], [1], -1, m)]    # e^{-h}


def _meixner1_kernel(params, n: MultiIndex, i: int, m: int):
    beta, cs, size = params.beta0, params.c, n.size
    ci = cs[i - 1]
    scale = Fraction(1)
    for cj, nj in zip(cs, n):
        scale *= (1 - cj) ** nj
    # the token carries (1-c_i)^{beta+|n|-1}, the kernel (1-c_i)^{gamma}: an
    # exact factor (1-c_i)^{-1} is left over
    scale /= pochhammer(beta, size - 1) * (1 - ci)
    return cs, scale, [_binomial(ci - 1, size + beta - 2, m)]


def _kravchuk_kernel(params, n: MultiIndex, i: int, m: int):
    ps, N, size = params.p_success, params.N, n.size
    ts = [q / (1 - q) for q in ps]
    qi = ps[i - 1]
    # with 1 + t_i = 1/(1-q_i), the normalization 1/(q_i^x (1-q_i)^{N-x}) times
    # the constants t_i^x (1+t_i)^{|n|-N-2} of the kernel is (1-q_i)^{2-|n|}
    scale = Fraction(factorial(N - size + 1), factorial(N)) * (1 - qi) ** (2 - size)
    for q, nj in zip(ps, n):
        scale /= (1 - q) ** nj
    return ts, scale, [_binomial(1 + ts[i - 1], size - N - 2, m)]


_KERNELS = {"charlier": _charlier_kernel, "meixner1": _meixner1_kernel,
            "kravchuk": _kravchuk_kernel}
