"""Rodrigues-type parameter derivatives for the type I polynomials.

The first-kind Meixner, Kravchuk and Charlier type I polynomials are
(n_i - 1)-th derivatives of a weighted kernel with respect to the family
parameter (c_i, the pole location t = pi_i/(1-pi_i), and a_i respectively).
The derivative is computed exactly: the kernel lives in the ring

    { rational function R(v) over Q }  x  { fixed transcendental factor T(v) }

with d/dv [R T] = (R' + R dlogT) T, where

    Charlier      T = e^{-v},        dlogT = -1,
    Meixner I     T = (1-v)^gamma,   dlogT = -gamma / (1-v),
    Kravchuk      T = 1              (purely rational).

The resulting values must coincide exactly with the hypergeometric closed
forms.  Sign note: the printed Rodrigues corollaries carry the clockwise
orientation of the source contour theorems and hence the opposite sign; this
module uses the residue-theorem (counterclockwise) sign, which is the one the
closed forms and the moment oracle confirm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import UnsupportedRepresentationError
from ..exact.combinatorics import factorial, pochhammer
from ..exact.indices import MultiIndex
from ..exact.polynomials import Poly, lagrange_interpolate
from ..families.params import FamilyParams
from ..families.prefactors import PrefactoredPolynomial, PrefactorToken


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, _poly_mod(a, b)
    if a.is_zero():
        return Poly.one()
    return a * (1 / a.leading())


def _poly_mod(a: Poly, b: Poly) -> Poly:
    if b.is_zero():
        raise ZeroDivisionError("polynomial modulo by zero")
    r = a
    while not r.is_zero() and r.degree >= b.degree:
        shift = int(r.degree - b.degree)
        factor = r.leading() / b.leading()
        r = r - Poly([0] * shift + [factor]) * b
    return r


def _poly_divexact(a: Poly, b: Poly) -> Poly:
    q = Poly.zero()
    r = a
    while not r.is_zero() and r.degree >= b.degree:
        shift = int(r.degree - b.degree)
        factor = r.leading() / b.leading()
        t = Poly([0] * shift + [factor])
        q = q + t
        r = r - t * b
    if not r.is_zero():
        raise ValueError("inexact polynomial division")
    return q


@dataclass(frozen=True)
class RationalFunc:
    num: Poly
    den: Poly

    @staticmethod
    def of(num: Poly, den: Poly | None = None) -> "RationalFunc":
        den = den if den is not None else Poly.one()
        g = _poly_gcd(num, den)
        if g.degree > 0:
            num = _poly_divexact(num, g)
            den = _poly_divexact(den, g)
        return RationalFunc(num, den)

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        return RationalFunc.of(self.num * other.den + other.num * self.den,
                               self.den * other.den)

    def __mul__(self, other: "RationalFunc") -> "RationalFunc":
        return RationalFunc.of(self.num * other.num, self.den * other.den)

    def derivative(self) -> "RationalFunc":
        return RationalFunc.of(self.num.derivative() * self.den
                               - self.num * self.den.derivative(),
                               self.den * self.den)

    def __call__(self, v) -> Fraction:
        return self.num(v) / self.den(v)


def _linear_power(root, sign: int, m: int) -> Poly:
    """(sign*v + root)^m as a Poly in v."""
    out = Poly.one()
    base = Poly([root, sign])
    for _ in range(m):
        out = out * base
    return out


def _other_poles(den: Poly, points, n: MultiIndex, i: int) -> Poly:
    """den * prod_{j != i} (v - t_j)^{n_j}."""
    for j, (tj, m) in enumerate(zip(points, n), start=1):
        if j != i:
            den = den * _linear_power(-tj, 1, m)
    return den


def _derive(kernel: RationalFunc, dlog, times: int) -> RationalFunc:
    for _ in range(times):
        kernel = kernel.derivative() + kernel * dlog if dlog is not None \
            else kernel.derivative()
    return kernel


def rodrigues_type1(params: FamilyParams, n: MultiIndex, i: int) -> PrefactoredPolynomial:
    """Type I polynomial A^{(i)} from its Rodrigues-type parameter derivative.

    Exact for first-kind Meixner, Kravchuk and Charlier; the returned
    PrefactoredPolynomial must equal ``families.type1`` coefficient by
    coefficient.  The rational part is interpolated through the integer
    points x = 0..n_i-1 and re-verified on extra guard points.
    """
    n = MultiIndex.of(n)
    if params.family not in _VALUES:
        raise UnsupportedRepresentationError(
            f"no Rodrigues-type formula implemented for family {params.family}")
    ni = n[i - 1]
    if ni < 1:
        return PrefactoredPolynomial(PrefactorToken.one(), Poly.zero())
    guard = 3
    values = [_VALUES[params.family](params, n, i, x) for x in range(ni + guard)]
    poly = lagrange_interpolate(list(zip(range(ni), values[:ni])))
    for x in range(ni, ni + guard):
        if poly(x) != values[x]:
            raise AssertionError("Rodrigues values do not extend the interpolated "
                                 f"degree-{ni - 1} polynomial at x = {x}")
    return PrefactoredPolynomial(_TOKENS[params.family](params, n, i), poly)


_TOKENS = {
    "charlier": lambda params, n, i: PrefactorToken.exp_neg(params.a[i - 1]),
    "meixner1": lambda params, n, i: PrefactorToken.pow_one_minus_ci(
        i, params.c[i - 1], params.beta0 + n.size - 1),
    "kravchuk": lambda params, n, i: PrefactorToken.one(),
}


# the exact value of the rational part of A^{(i)}(x) via the parameter derivative

def _charlier_value(params, n: MultiIndex, i: int, x: int) -> Fraction:
    a = params.a
    ni = n[i - 1]
    kernel = RationalFunc.of(_linear_power(Fraction(0), 1, x), _other_poles(Poly.one(), a, n, i))
    dlog = RationalFunc.of(Poly.constant(-1))
    r = _derive(kernel, dlog, ni - 1)
    return r(a[i - 1]) / (factorial(ni - 1) * a[i - 1] ** x)


def _meixner1_value(params, n: MultiIndex, i: int, x: int) -> Fraction:
    beta, cs = params.beta0, params.c
    ni, size = n[i - 1], n.size
    gamma = size + beta - 2
    kernel = RationalFunc.of(_linear_power(Fraction(0), 1, x), _other_poles(Poly.one(), cs, n, i))
    dlog = RationalFunc.of(Poly.constant(-gamma), Poly([1, -1]))  # -gamma/(1-v)
    r = _derive(kernel, dlog, ni - 1)
    ci = cs[i - 1]
    front = Fraction(1)
    for cj, m in zip(cs, n):
        front *= (1 - cj) ** m
    front /= factorial(ni - 1) * pochhammer(beta, size - 1) * ci**x
    # (1-c_i)^{gamma} = (1-c_i)^{|n|-2} * (1-c_i)^{beta}; the token carries
    # (1-c_i)^{beta+|n|-1}, leaving an exact factor (1-c_i)^{-1}
    return front * r(ci) * (1 - ci) ** (size - 2) / (1 - ci) ** (size - 1)


def _kravchuk_value(params, n: MultiIndex, i: int, x: int) -> Fraction:
    # purely rational kernel (1+v)^{|n|-N-2} v^x / prod (v - t_j)^{n_j}
    ps, N = params.p_success, params.N
    ni, size = n[i - 1], n.size
    ts = [q / (1 - q) for q in ps]
    den = _other_poles(_linear_power(Fraction(1), 1, N + 2 - size), ts, n, i)
    kernel = RationalFunc.of(_linear_power(Fraction(0), 1, x), den)
    r = _derive(kernel, None, ni - 1)
    qi = ps[i - 1]
    front = Fraction(factorial(N - size + 1), factorial(N) * factorial(ni - 1))
    for q, m in zip(ps, n):
        front /= (1 - q) ** m
    front /= qi**x * (1 - qi) ** (N - x)
    return front * r(ts[i - 1])


_VALUES = {"charlier": _charlier_value, "meixner1": _meixner1_value,
           "kravchuk": _kravchuk_value}
