"""Dense polynomials over the rationals, lowest degree first.

The zero polynomial has degree NEG_INF (an explicit minus-infinity sentinel,
never -1) so that degree arithmetic stays honest.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from .rationals import over_lcm

NEG_INF = float("-inf")


class Poly:
    """Immutable dense polynomial with exact Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @property
    def degree(self):
        """Exact degree; NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


def _as_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly([v])
    raise TypeError(f"cannot coerce {v!r} to Poly")


def lagrange_interpolate(points) -> Poly:
    """Exact interpolating polynomial through (x_k, y_k) pairs with distinct x_k."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    total = Poly.zero()
    for k, (xk, yk) in enumerate(pts):
        if yk == 0:
            continue
        basis = Poly.one()
        denom = Fraction(1)
        for m, (xm, _) in enumerate(pts):
            if m == k:
                continue
            basis = basis * Poly([-xm, 1])
            denom *= xk - xm
        total = total + basis * (yk / denom)
    return total


def expand_in_monomials(terms) -> Poly:
    """Expand a sum of coefficient * shifted-factorial basis terms exactly.

    ``terms`` is an iterable of (coefficient, basis_spec) pairs where the basis
    is ("neg_x", l) for (-x)_l or ("shifted", s, l) for (x + s)_l.  The
    coefficients are summed per basis spec, and each basis family is expanded
    by nested multiplication,

        sum_l c_l (x + s)_l = c_0 + (x + s) (c_1 + (x + s + 1) (c_2 + ...)),

    which is exact by distributivity.  The nesting runs in integers: with d
    the lcm of the denominators of the c_l, s = u / v and L the top index, it
    expands d v^L times the sum, whose factors are v x + u + l v, and divides
    once per output coefficient.
    """
    families: dict[tuple, dict[int, Fraction]] = {}
    for coeff, spec in terms:
        coeffs = families.setdefault(spec[:-1], {})
        l = spec[-1]
        coeffs[l] = coeffs[l] + coeff if l in coeffs else coeff
    polys = []
    for family, coeffs in families.items():
        if family == ("neg_x",):
            u, v, sign = 0, 1, -1     # factors (k - x)
        elif family[0] == "shifted" and len(family) == 2:
            shift = Fraction(family[1])   # factors (x + s + k) = (v x + u + k v) / v
            u, v, sign = shift.numerator, shift.denominator, 1
        else:
            raise ValueError(f"unknown basis family {family!r}")
        top = max(coeffs)
        d, ints = over_lcm(coeffs.get(l, 0) for l in range(top + 1))
        # acc: d v^(top - l) (c_l + (x + s + l) (c_{l+1} + ...)) with integer coefficients
        acc: list[int] = []
        scale, slope = 1, sign * v
        for l in range(top, -1, -1):
            a = u + l * v
            nxt = [a * c for c in acc] + [0]
            for k, c in enumerate(acc):
                nxt[k + 1] += slope * c
            nxt[0] += ints[l] * scale
            acc = nxt
            scale *= v
        den = d * v ** top
        polys.append(Poly([Fraction(c, den) for c in acc]))
    return functools.reduce(operator.add, polys) if polys else Poly()
