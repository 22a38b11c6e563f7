"""Contour-integral representations of the discrete families.

Each representation packages a prefactor, an integrand analytic near the
contour, the pole set the contour must enclose (and the nearby points it must
exclude), and the half-plane or strip stipulated by the corresponding
statement.  Gamma factors are evaluated through a complex log-gamma whose
branch cut lies along the negative real line, and are always exponentiated
(the gamma function itself is continuous across the cut, so quadrature nodes
may straddle it).

Orientation note: the source statements print the type I contours (and two of
the type II ones) as clockwise, but the values only reproduce the closed
forms with positive (counterclockwise) orientation -- the accompanying
contour figures are in fact drawn counterclockwise.  The representations here
carry both the printed and the validated orientation; ``default_contour``
uses the validated one, and the adjudication suite records the flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import loggamma as _scipy_lg

from ..errors import UnsupportedRepresentationError
from ..exact.combinatorics import pochhammer
from ..exact.indices import MultiIndex
from ..families.closed_forms import linear_form, type1, type2
from ..families.params import Charlier, FamilyParams, Hahn, Kravchuk, MeixnerI, MeixnerII
from .contours import ContourSpec, QuadratureResult, quadrature, validate_enclosure

KINDS = ("type2", "type1", "linear_form")


class _LibDouble:
    """Vectorized double-precision kernel functions on complex ndarrays."""
    lg = staticmethod(_scipy_lg)
    exp = staticmethod(np.exp)
    log = staticmethod(np.log)


class _LibExtended:
    """mpmath scalar kernel functions (>= 64-bit mantissa)."""
    lg = staticmethod(mpmath.loggamma)
    exp = staticmethod(mpmath.exp)
    log = staticmethod(mpmath.log)


_NP = _LibDouble
_MP = _LibExtended


def _lgf(n: int) -> float:
    return math.lgamma(n + 1)


@dataclass(frozen=True)
class ContourIntegral:
    label: str
    prefactor: complex
    integrand: object            # callable on complex arrays
    poles_inside: tuple
    poles_outside: tuple
    region: tuple | None
    printed_orientation: str
    orientation: str             # validated against the closed forms
    suggested: ContourSpec
    note: str = ""

    def default_contour(self, nodes: int = 256) -> ContourSpec:
        return self.suggested.with_nodes(nodes)


def _circle_around(points, pad: float, orientation: str) -> ContourSpec:
    lo = min(p.real for p in points)
    hi = max(p.real for p in points)
    span_im = max(abs(p.imag) for p in points)
    center = complex((lo + hi) / 2, 0.0)
    radius = (hi - lo) / 2 + max(span_im, 0.0) + pad
    return ContourSpec("circle", orientation, center, radius)


def _cluster_circle(inside, outside, region=None) -> ContourSpec:
    """Circle around the enclosed cluster, clear of excluded points and region walls."""
    lo = min(p.real for p in inside)
    hi = max(p.real for p in inside)
    center = complex((lo + hi) / 2, 0.0)
    inner = (hi - lo) / 2
    clearances = [abs(p - center) - inner for p in outside]
    if region is not None:
        if region[0] == "re_gt":
            clearances.append(center.real - region[1] - inner)
        elif region[0] == "re_lt":
            clearances.append(region[1] - center.real - inner)
        elif region[0] == "strip":
            clearances.append(center.real - region[1] - inner)
            clearances.append(region[2] - center.real - inner)
    pad = min(clearances) / 2 if clearances else 0.5
    return ContourSpec("circle", "counterclockwise", center, inner + max(pad, 1e-3))


def _printed_clockwise(label, pref, integrand, poles_in, poles_out, region,
                       note="printed clockwise; closed forms require counterclockwise"):
    """A representation printed clockwise that the closed forms confirm counterclockwise."""
    contour = _cluster_circle(poles_in, poles_out, region)
    return ContourIntegral(label, pref, integrand, poles_in, poles_out, region,
                           "clockwise", "counterclockwise", contour, note=note)


def integral_representation(params: FamilyParams, kind: str, n: MultiIndex,
                            x: int, i: int | None = None) -> ContourIntegral:
    """Build the contour representation of one polynomial value.

    ``kind`` is "type2", "type1" (needs the component ``i``) or
    "linear_form".  The value of the represented object at the integer point
    ``x`` equals prefactor times the contour integral of the integrand (with
    the validated orientation).
    """
    n = MultiIndex.of(n)
    if kind not in KINDS:
        raise UnsupportedRepresentationError(f"unknown kind {kind!r}")
    if kind == "type1" and i is None:
        raise ValueError("type1 representation needs the component index i")
    return _INTEGRALS[params.family](params, kind, n, x, i)


def _type1_pole_split(clusters, i):
    inside = clusters[i - 1]
    outside = tuple(p for j, cl in enumerate(clusters, start=1) if j != i for p in cl)
    return tuple(inside), outside


def _hahn_integral(params: Hahn, kind, n, x, i):
    al = [float(a) for a in params.alpha]
    be = float(params.beta)
    N, sz = params.N, n.size
    nj = n.entries

    if kind == "type2":
        def integrand(s, lib=_NP):
            val = lib.lg(s) + lib.lg(s + be + N + 1) - lib.lg(s + be + sz + 1) \
                - lib.lg(x + s + 1)
            return lib.exp(val) * _prod_poch(al, nj, 1 - s, plus=True)
        prefq = Fraction((-1) ** sz)
        for a, m in zip(params.alpha, nj):
            prefq /= pochhammer(a + params.beta + sz + 1, m)
        pref = float(prefq) * math.exp(math.lgamma(sz + be + 1) + _lgf(x) + _lgf(N - x)
                                       - _lgf(N - sz) - math.lgamma(N - x + be + 1))
        poles_in = tuple(complex(-m) for m in range(x + 1)) + (complex(-N),)
        poles_out = (complex(-float(params.beta) - N - 1),)
        contour = _circle_around((complex(-N), 0j), min(0.5, (be + 1) / 2), "counterclockwise")
        return ContourIntegral("hahn_type2", pref, integrand, poles_in, poles_out,
                               None, "counterclockwise", "counterclockwise", contour)

    def integrand(t, lib=_NP):
        val = lib.lg(t + be + sz) - lib.lg(t + 1) - lib.lg(t + be + N + 2) \
            + lib.lg(x + t + 1)
        return lib.exp(val) / _prod_poch(al, nj, -t, plus=True)

    prefq = Fraction((-1) ** sz) * math.factorial(N - sz + 1)
    for a, m in zip(params.alpha, nj):
        prefq *= pochhammer(a + params.beta + sz, m)
    clusters = [tuple(complex(a + k) for k in range(m)) for a, m in zip(al, nj)]
    region = ("re_gt", -1.0)
    if kind == "linear_form":
        pref = float(prefq) * math.exp(math.lgamma(N - x + be + 1) - math.lgamma(be + sz)
                                       - _lgf(x) - _lgf(N - x))
        poles_in = tuple(p for cl in clusters for p in cl)
        poles_out = (complex(-x - 1), complex(-be - sz))
        return _printed_clockwise("hahn_linear_form", pref, integrand, poles_in, poles_out, region)
    pref = float(prefq / pochhammer(params.beta + 1, sz - 1)) \
        / float(pochhammer(params.alpha[i - 1] + 1, x))
    poles_in, poles_out = _type1_pole_split(clusters, i)
    poles_out = poles_out + (complex(-x - 1), complex(-be - sz))
    return _printed_clockwise("hahn_type1", pref, integrand, poles_in, poles_out, region)


def _prod_poch(bases, orders, z, plus: bool):
    """prod_j (base_j +/- z)_{m_j}; works on complex ndarrays and mpmath scalars."""
    out = 1
    for b, m in zip(bases, orders):
        for k in range(m):
            out = out * ((b + z + k) if plus else (b - z + k))
    return out


def _meixner2_integral(params: MeixnerII, kind, n, x, i):
    be = [float(b) for b in params.beta]
    c = float(params.c)
    sz = n.size
    nj = n.entries
    log1c = math.log(1 - c)

    if kind == "type2":
        def integrand(s, lib=_NP):
            val = lib.lg(s) - s * log1c - lib.lg(x + s + 1)
            return lib.exp(val) * _prod_poch(be, nj, -s, plus=True)
        prefq = (params.c / (params.c - 1)) ** sz / params.c ** x
        pref = float(prefq) * math.factorial(x)
        poles_in = tuple(complex(-m) for m in range(x + 1))
        contour = _cluster_circle(poles_in, (), None)
        return ContourIntegral("meixner2_type2", pref, integrand, poles_in, (),
                               None, "counterclockwise", "counterclockwise", contour,
                               note="printed contour encloses (-inf, 0]; for x in N_0 the "
                                    "pole set is {0..-x} and the contour deforms to a circle")

    def integrand(t, lib=_NP):
        val = t * log1c - lib.lg(t + 1) + lib.lg(x + t + 1)
        return lib.exp(val) / _prod_poch([b - 1 for b in be], nj, -t, plus=True)

    prefq = (params.c - 1) ** sz / params.c ** (sz - 1)
    clusters = [tuple(complex(b - 1 + k) for k in range(m)) for b, m in zip(be, nj)]
    region = ("re_gt", -1.0)
    if kind == "linear_form":
        pref = float(prefq * params.c ** x) / math.factorial(x)
        poles_in = tuple(p for cl in clusters for p in cl)
        poles_out = (complex(-x - 1),)
        return _printed_clockwise("meixner2_linear_form", pref, integrand, poles_in, poles_out,
                                  region)
    bi = params.beta[i - 1]
    pref = float(prefq / pochhammer(bi, x))
    poles_in, poles_out = _type1_pole_split(clusters, i)
    poles_out = poles_out + (complex(-x - 1),)
    return _printed_clockwise("meixner2_type1", pref, integrand, poles_in, poles_out, region)


def _meixner1_integral(params: MeixnerI, kind, n, x, i):
    cs = [float(v) for v in params.c]
    be = float(params.beta0)
    sz = n.size
    nj = n.entries

    prefq = Fraction(1)
    for cj, m in zip(params.c, nj):
        prefq *= (1 - cj) ** m

    if kind == "type2":
        def integrand(s, lib=_NP):
            out = lib.exp(-(sz + be) * lib.log(1 - s)) / s ** (x + 1)
            for cj, m in zip(cs, nj):
                out = out * (s - cj) ** m
            return out
        pref = math.exp(math.lgamma(be + sz) + _lgf(x) - math.lgamma(x + be)) / float(prefq)
        poles_out = (1 + 0j,)  # branch point of (1-s)^{-|n|-beta}
        contour = ContourSpec("circle", "counterclockwise", 0j, 0.5 * min(min(cs), 1.0))
        return ContourIntegral("meixner1_type2", pref, integrand, (0j,), poles_out,
                               ("re_lt", 1.0), "clockwise", "counterclockwise", contour,
                               note="printed clockwise; closed forms require counterclockwise. "
                                    "Stated for x in N; x = 0 validates too (adjudicated)")

    def integrand(t, lib=_NP):
        out = lib.exp((sz + be - 2) * lib.log(1 - t)) * t**x
        for cj, m in zip(cs, nj):
            out = out / (t - cj) ** m
        return out

    region = ("strip", 0.0, 1.0)
    if kind == "linear_form":
        pref = float(prefq) * math.exp(math.lgamma(x + be) - _lgf(x) - math.lgamma(be + sz - 1))
        poles_in = tuple(complex(cj) for cj in cs)
        return _printed_clockwise("meixner1_linear_form", pref, integrand, poles_in, (), region)
    ci = params.c[i - 1]
    pref = float(prefq / pochhammer(params.beta0, sz - 1) / ci ** x)
    poles_in, poles_out = _type1_pole_split([(complex(cj),) for cj in cs], i)
    return _printed_clockwise("meixner1_type1", pref, integrand, poles_in, poles_out, region)


def _kravchuk_integral(params: Kravchuk, kind, n, x, i):
    ps = [float(q) for q in params.p_success]
    N, sz = params.N, n.size
    nj = n.entries
    ts = [q / (1 - q) for q in ps]

    prefq = Fraction(1)
    for q, m in zip(params.p_success, nj):
        prefq *= (1 - q) ** m

    if kind == "type2":
        def integrand(s, lib=_NP):
            out = (1 + s) ** (N - sz) / s ** (x + 1)
            for tj, m in zip(ts, nj):
                out = out * (s - tj) ** m
            return out
        pref = float(prefq) * math.factorial(x) * math.factorial(N - x) / math.factorial(N - sz)
        contour = ContourSpec("circle", "counterclockwise", 0j, 0.5 * min(min(ts), 1.0))
        return ContourIntegral("kravchuk_type2", pref, integrand, (0j,), (),
                               None, "counterclockwise", "counterclockwise", contour)

    def integrand(t, lib=_NP):
        out = (1 + t) ** (sz - N - 2) * t**x
        for tj, m in zip(ts, nj):
            out = out / (t - tj) ** m
        return out

    region = ("re_gt", 0.0)
    if kind == "linear_form":
        pref = math.factorial(N - sz + 1) / float(prefq) / (
            math.factorial(x) * math.factorial(N - x))
        poles_in = tuple(complex(t) for t in ts)
        poles_out = (-1 + 0j,)
        return _printed_clockwise("kravchuk_linear_form", pref, integrand, poles_in, poles_out,
                                  region)
    qi = params.p_success[i - 1]
    pref = math.factorial(N - sz + 1) / math.factorial(N) / float(prefq) \
        / float(qi ** x * (1 - qi) ** (N - x))
    poles_in, poles_out = _type1_pole_split([(complex(t),) for t in ts], i)
    poles_out = poles_out + (-1 + 0j,)
    return _printed_clockwise("kravchuk_type1", pref, integrand, poles_in, poles_out, region)


def _charlier_integral(params: Charlier, kind, n, x, i):
    a = [float(v) for v in params.a]
    sz = n.size
    nj = n.entries

    if kind == "type2":
        def integrand(s, lib=_NP):
            out = lib.exp(s) / s ** (x + 1)
            for aj, m in zip(a, nj):
                out = out * (s - aj) ** m
            return out
        pref = float(math.factorial(x))
        contour = ContourSpec("circle", "counterclockwise", 0j, 0.5 * min(min(a), 1.0))
        return ContourIntegral("charlier_type2", pref, integrand, (0j,), (),
                               None, "clockwise", "counterclockwise", contour,
                               note="printed clockwise in the strip 0<Re(s)<1 (unsatisfiable "
                                    "around the origin); validated: counterclockwise, only "
                                    "pole is s = 0")

    def integrand(t, lib=_NP):
        out = lib.exp(-t) * t**x
        for aj, m in zip(a, nj):
            out = out / (t - aj) ** m
        return out

    region = ("re_gt", 0.0)
    note = ("printed clockwise in 0<Re(t)<1, which cannot enclose "
            "a_j >= 1; validated: counterclockwise in Re(t) > 0")
    if kind == "linear_form":
        pref = 1.0 / math.factorial(x)
        poles_in = tuple(complex(aj) for aj in a)
        return _printed_clockwise("charlier_linear_form", pref, integrand, poles_in, (), region,
                                  note)
    ai = params.a[i - 1]
    pref = 1.0 / float(ai**x)
    poles_in, poles_out = _type1_pole_split([(complex(aj),) for aj in a], i)
    return _printed_clockwise("charlier_type1", pref, integrand, poles_in, poles_out, region,
                              note)


_INTEGRALS = {"hahn": _hahn_integral, "meixner2": _meixner2_integral,
              "meixner1": _meixner1_integral, "kravchuk": _kravchuk_integral,
              "charlier": _charlier_integral}


def contour_quadrature(rep: ContourIntegral, contour: ContourSpec | None = None,
                       nodes: int = 256, precision: str = "double") -> QuadratureResult:
    """Validate the contour geometrically and evaluate the representation.

    ``precision`` is "double" (vectorized, default) or "extended" (mpmath with
    a >= 64-bit mantissa for ill-conditioned parameter choices).  The
    prefactor is always assembled in double precision, so extended mode
    improves the conditioning of the quadrature itself, not the final
    rounding.
    """
    spec = contour if contour is not None else rep.default_contour(nodes)
    if contour is None and nodes != spec.nodes:
        spec = spec.with_nodes(nodes)
    validate_enclosure(spec, rep.poles_inside, rep.poles_outside, rep.region)
    if precision == "double":
        res = quadrature(rep.integrand, spec)
    elif precision == "extended":
        res = _quadrature_extended(rep.integrand, spec)
    else:
        raise ValueError(f"unknown precision mode {precision!r}")
    return QuadratureResult(rep.prefactor * res.value,
                            abs(rep.prefactor) * res.error_estimate, res.nodes)


def _quadrature_extended(integrand, spec: ContourSpec) -> QuadratureResult:
    if spec.shape != "circle":
        raise ValueError("extended precision supports circle contours")
    with mpmath.workprec(128):
        def run(m: int):
            total = mpmath.mpc(0)
            for k in range(m):
                ray = spec.radius * mpmath.expjpi(mpmath.mpf(2 * k) / m)
                z = spec.center + ray
                dz = 1j * ray * (2 * mpmath.pi / m)
                total += integrand(z, _MP) * dz
            if spec.orientation == "clockwise":
                total = -total
            return total / (2j * mpmath.pi)

        coarse = run(spec.nodes)
        fine = run(2 * spec.nodes)
        return QuadratureResult(complex(coarse), float(abs(fine - coarse)), spec.nodes)


def closed_form_value(params: FamilyParams, kind: str, n: MultiIndex, x: int,
                      i: int | None = None) -> float:
    """Float value of the represented object from the exact closed forms."""
    n = MultiIndex.of(n)
    if kind == "type2":
        return float(type2(params, n)(x))
    if kind == "type1":
        a = type1(params, n, i)
        return a.prefactor.value() * float(a.rational_part(Fraction(x)))
    if kind == "linear_form":
        return linear_form(params, n, x).value
    raise UnsupportedRepresentationError(f"unknown kind {kind!r}")
