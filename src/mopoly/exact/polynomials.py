"""Dense polynomials over the rationals, lowest degree first.

The zero polynomial has degree NEG_INF (an explicit minus-infinity sentinel,
never -1) so that degree arithmetic stays honest.
"""

from __future__ import annotations

from fractions import Fraction

NEG_INF = float("-inf")


class Poly:
    """Immutable dense polynomial with exact Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
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

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

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

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

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


# Basis specs for expand_in_monomials: ("neg_x", l) is (-x)_l, ("shifted", s, l)
# is (x + s)_l, both rising factorials of length l in the variable x.


def basis_poly(spec) -> Poly:
    kind = spec[0]
    if kind == "neg_x":
        _, l = spec
        out = Poly.one()
        for k in range(l):
            out = out * Poly([k, -1])  # (-x + k)
        return out
    if kind == "shifted":
        _, s, l = spec
        s = Fraction(s)
        out = Poly.one()
        for k in range(l):
            out = out * Poly([s + k, 1])  # (x + s + k)
        return out
    raise ValueError(f"unknown basis spec {spec!r}")


def expand_in_monomials(terms) -> Poly:
    """Expand a sum of coefficient * shifted-factorial basis terms exactly.

    ``terms`` is an iterable of (coefficient, basis_spec) pairs where the basis
    is ("neg_x", l) for (-x)_l or ("shifted", s, l) for (x + s)_l.  The
    coefficients are summed per basis spec first, so each distinct basis is
    expanded once (exact by distributivity); successive factorials over the
    same basis family are built incrementally.
    """
    grouped: dict[tuple, Fraction] = {}
    for coeff, spec in terms:
        grouped[spec] = grouped.get(spec, 0) + Fraction(coeff)
    total = Poly.zero()
    cache: dict[tuple, Poly] = {}
    for spec, coeff in grouped.items():
        if coeff == 0:
            continue
        poly = cache.get(spec)
        if poly is None:
            # reuse the previous length in the same family when available
            kind = spec[0]
            l = spec[-1]
            prev = cache.get(spec[:-1] + (l - 1,)) if l > 0 else None
            if prev is not None:
                if kind == "neg_x":
                    poly = prev * Poly([l - 1, -1])
                else:
                    poly = prev * Poly([Fraction(spec[1]) + l - 1, 1])
            else:
                poly = basis_poly(spec)
            cache[spec] = poly
        total = total + poly * coeff
    return total
