"""Limit relations down the discrete scheme and onto the continuous weights.

Discrete-to-discrete edges (Hahn to Meixner second/first kind and Kravchuk;
Meixner second/first kind and Kravchuk to Charlier) are checked exactly: at
each schedule value of the limit variable the scaled source-family quantity
and the target-family quantity are both rationals, so the error sequence is
exact and only the log-log slope fit is floating point.

Discrete-to-continuous edges compare scaled source weights against the
continuous endpoint weights

    Jacobi-Pineiro      x^alpha_i (1-x)^beta           on [0, 1]
    Laguerre 1st kind   x^alpha_i e^{-x}               on [0, inf)
    Laguerre 2nd kind   x^alpha_0 e^{-c_i x}           on [0, inf)
    Hermite             e^{-x^2 + c_i x}               on R

in high-precision logs (the raw weights overflow any float format long
before the asymptotics kick in).  For the Charlier and Laguerre-2 Hermite
routes the natural limit variable is the scale s = sqrt(2 beta): the
substitutions are power series in 1/s, the error decays like 1/s, and the
schedule is declared in even integers s = 2m so that every probed support
point is an exact integer.  The Kravchuk route is symmetric in +-1/sqrt(2N)
and its leading error term cancels, leaving O(1/N); its schedule is declared
in N = 2m^2 (m even).

The three Hermite routes (from Kravchuk, Charlier, and Laguerre second kind)
are compared pairwise on recurrence coefficients after exact
Richardson/Neville extrapolation in u = 1/s to u = 0; each route's values
are rational functions of u, so the extrapolated limits are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from ..exact.combinatorics import pochhammer
from ..exact.indices import MultiIndex, Permutation, step_sets
from ..exact.rationals import rat
from ..families.closed_forms import type2
from ..families.params import Charlier, FamilyParams, Hahn, Kravchuk, MeixnerI, MeixnerII
from ..families.recurrence import nnrc
from ..families.weights import weight

DISCRETE_EDGES = ("h_m2", "h_m1", "h_k", "m2_c", "m1_c", "k_c")
CONTINUOUS_EDGES = ("h_jp", "m2_l1", "m1_l2", "k_hermite", "c_hermite", "l2_hermite")

_DPS = 50


# ----------------------------------------------------------------------------
# continuous endpoint weights

def weight_jacobi_pineiro(x, alpha_i, beta) -> float:
    return float(x) ** float(alpha_i) * (1 - float(x)) ** float(beta)

def weight_laguerre1(x, alpha_i) -> float:
    return float(x) ** float(alpha_i) * math.exp(-float(x))

def weight_laguerre2(x, alpha0, c_i) -> float:
    return float(x) ** float(alpha0) * math.exp(-float(c_i) * float(x))

def weight_hermite(x, c_i) -> float:
    return math.exp(-float(x) ** 2 + float(c_i) * float(x))


def _log_weight_hermite(x, c_i):
    x = mpmath.mpf(str(x)) if not isinstance(x, Fraction) else _mpf(x)
    return -x**2 + _mpf(c_i) * x


def _mpf(q) -> mpmath.mpf:
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _log_fraction(q: Fraction):
    return mpmath.log(mpmath.mpf(q.numerator)) - mpmath.log(mpmath.mpf(q.denominator))


def _log_weight_hahn(params, i, xm):
    a, b, N = _mpf(params.alpha[i - 1]), _mpf(params.beta), params.N
    return (mpmath.loggamma(a + xm + 1) - mpmath.loggamma(a + 1)
            - mpmath.loggamma(xm + 1) + mpmath.loggamma(b + N - xm + 1)
            - mpmath.loggamma(b + 1) - mpmath.loggamma(N - xm + 1))

def _log_weight_meixner2(params, i, xm):
    b = _mpf(params.beta[i - 1])
    return (mpmath.loggamma(b + xm) - mpmath.loggamma(b) - mpmath.loggamma(xm + 1)
            + xm * _log_fraction(params.c))

def _log_weight_meixner1(params, i, xm):
    b = _mpf(params.beta0)
    return (mpmath.loggamma(b + xm) - mpmath.loggamma(b) - mpmath.loggamma(xm + 1)
            + xm * _log_fraction(params.c[i - 1]))

def _log_weight_kravchuk(params, i, xm):
    q, N = params.p_success[i - 1], params.N
    return (mpmath.loggamma(N + 1) - mpmath.loggamma(xm + 1)
            - mpmath.loggamma(N - xm + 1) + xm * _log_fraction(q)
            + (N - xm) * _log_fraction(1 - q))

def _log_weight_charlier(params, i, xm):
    return xm * _log_fraction(params.a[i - 1]) - mpmath.loggamma(xm + 1)


_LOG_WEIGHTS = {"hahn": _log_weight_hahn, "meixner2": _log_weight_meixner2,
                "meixner1": _log_weight_meixner1, "kravchuk": _log_weight_kravchuk,
                "charlier": _log_weight_charlier}


def _log_weight(params: FamilyParams, i: int, x: int):
    """log w_i(x) via log-gamma; usable at support points far beyond exact range."""
    return _LOG_WEIGHTS[params.family](params, i, mpmath.mpf(x))


@dataclass(frozen=True)
class LimitSchedule:
    """An Askey edge, the limit-variable values, and the probes to test."""

    edge: str
    values: tuple            # limit-variable values (ints or rationals)
    x_probes: tuple = ()
    n_probes: tuple = ()
    perm: Permutation | None = None

    def __post_init__(self):
        if len(self.values) < 4:
            raise ValueError("a schedule needs at least 4 points")
        lo, hi = min(self.values), max(self.values)
        if Fraction(hi) < 10**3 * Fraction(lo):
            raise ValueError("schedule must span at least 3 decades")


@dataclass(frozen=True)
class ConvergenceReport:
    edge: str
    check: str
    schedule: tuple
    errors: tuple
    slope: float
    monotone_tail: bool
    slope_band: tuple

    @property
    def passed(self) -> bool:
        lo, hi = self.slope_band
        return self.monotone_tail and lo <= self.slope <= hi


def _fit_report(edge, check, values, errors, band) -> ConvergenceReport:
    logs_t = np.log([float(v) for v in values])
    safe = [max(e, 1e-300) for e in errors]
    slope = float(np.polyfit(logs_t, np.log(safe), 1)[0])
    tail = errors[-3:]
    monotone = all(tail[k + 1] < tail[k] for k in range(len(tail) - 1))
    return ConvergenceReport(edge, check, tuple(values), tuple(errors), slope,
                             monotone, tuple(band))


def _rel_err(approx: Fraction, target: Fraction) -> float:
    return float(abs(approx - target) / max(abs(target), Fraction(1)))


# ----------------------------------------------------------------------------
# source-family construction per edge

def _edge_source(edge: str, target: FamilyParams, t) -> FamilyParams:
    """Source-family parameters at limit-variable value t."""
    if edge == "h_m2":
        return Hahn(tuple(b - 1 for b in target.beta),
                    (1 - target.c) / target.c * t, int(t))
    if edge == "h_m1":
        return Hahn(tuple((1 - ci) / ci * t for ci in target.c),
                    target.beta0 - 1, int(t))
    if edge == "h_k":
        return Hahn(tuple(q / (1 - q) * t for q in target.p_success),
                    rat(t), target.N)
    if edge == "m2_c":
        # limit variable t = 1/c so every edge's error decays as t grows
        return MeixnerII(tuple(ai * t for ai in target.a), 1 / rat(t))
    if edge == "m1_c":
        return MeixnerI(rat(t), tuple(ai / t for ai in target.a))
    if edge == "k_c":
        return Kravchuk(tuple(ai / t for ai in target.a), int(t))
    raise ValueError(f"unknown discrete edge {edge!r}")


def _discrete_weight_error(edge, target, t, i, x) -> float:
    src = _edge_source(edge, target, t)
    with mpmath.workdps(_DPS):
        if edge in ("h_m2", "h_m1"):
            # Meixner II has one c; Meixner I's c_i meets the reflected point N - x
            c, point = (target.c, x) if edge == "h_m2" else (target.c[i - 1], int(t) - x)
            log_scale = (mpmath.mpf(0.5) * mpmath.log(2 * mpmath.pi * int(t))
                         + int(t) * _log_fraction(c)
                         + (_mpf((1 - c) / c) * int(t) + mpmath.mpf(0.5))
                         * _log_fraction(1 - c))
            lw_src = _log_weight(src, i, point)
            lw_tgt = _log_weight(target, i, x)
            return float(abs(mpmath.expm1(log_scale + lw_src - lw_tgt)))
        if edge == "h_k":
            qi = target.p_success[i - 1]
            log_scale = (mpmath.loggamma(target.N + 1) + target.N * _log_fraction(1 - qi)
                         - target.N * _log_fraction(rat(t)))
            return float(abs(mpmath.expm1(log_scale + _log_weight(src, i, x)
                                          - _log_weight(target, i, x))))
        if edge in ("m2_c", "m1_c"):
            return _rel_err(weight(src, i, x), weight(target, i, x))
        if edge == "k_c":
            ai = target.a[i - 1]
            return float(abs(mpmath.expm1(_log_weight(src, i, x)
                                          - _log_weight(target, i, x) + _mpf(ai))))
    raise ValueError(f"unknown discrete edge {edge!r}")


def _discrete_type2_error(edge, target, t, n, x) -> float:
    src = _edge_source(edge, target, t)
    tgt_val = type2(target, n)(x)
    if edge == "h_m1":
        src_val = Fraction(-1) ** n.size * type2(src, n)(int(t) - x)
    else:
        src_val = type2(src, n)(x)
    return _rel_err(src_val, tgt_val)


def _discrete_recurrence_error(edge, target, t, n, perm) -> float:
    src = _edge_source(edge, target, t)
    tgt = nnrc(target, n, perm)
    raw = nnrc(src, n, perm)
    if edge == "h_m1":
        b0 = tuple(int(t) - v for v in raw.b0)
        bj = tuple(Fraction(-1) ** (j + 1) * v for j, v in enumerate(raw.bj, start=1))
    else:
        b0, bj = raw.b0, raw.bj
    errs = [_rel_err(a, b) for a, b in zip(b0 + bj, tgt.b0 + tgt.bj)]
    return max(errs)


# ----------------------------------------------------------------------------
# discrete -> continuous weight errors

def _continuous_weight_error(edge, target, t, i, x) -> float:
    """Log-space relative error of the scaled discrete weight vs the endpoint weight."""
    with mpmath.workdps(_DPS):
        if edge == "h_jp":
            alpha, beta = target["alpha"], target["beta"]
            N = int(t)
            point = Fraction(x) * N
            if point.denominator != 1:
                raise ValueError("probe x must make N*x an integer")
            src = Hahn(alpha, beta, N)
            ai = alpha[i - 1]
            log_scale = (_lgamma_q(ai + 1) + _lgamma_q(beta + 1)
                         - (_mpf(ai) + _mpf(beta)) * mpmath.log(N))
            lw = _log_weight(src, i, int(point))
            lw_tgt = _mpf(ai) * mpmath.log(_mpf(x)) + _mpf(beta) * mpmath.log(1 - _mpf(x))
            return float(abs(mpmath.expm1(log_scale + lw - lw_tgt)))
        if edge == "m2_l1":
            alpha = target["alpha"]
            m = int(t)                       # m = 1/(1-c); probe support point m*x
            c = Fraction(m - 1, m)
            point = Fraction(x) * m
            if point.denominator != 1:
                raise ValueError("probe x must make x/(1-c) an integer")
            src = MeixnerII(tuple(a + 1 for a in alpha), c)
            ai = alpha[i - 1]
            log_scale = _mpf(ai) * _log_fraction(1 - c) + _lgamma_q(ai + 1)
            lw = _log_weight(src, i, int(point))
            lw_tgt = _mpf(ai) * mpmath.log(_mpf(x)) - _mpf(x)
            return float(abs(mpmath.expm1(log_scale + lw - lw_tgt)))
        if edge == "m1_l2":
            alpha0, cs = target["alpha0"], target["c"]
            tau = int(t)
            point = Fraction(x) * tau
            if point.denominator != 1:
                raise ValueError("probe x must make tau*x an integer")
            src = MeixnerI(alpha0 + 1, tuple(Fraction(tau, 1) / (tau + ci) for ci in cs))
            log_scale = _lgamma_q(alpha0 + 1) - _mpf(alpha0) * mpmath.log(tau)
            lw = _log_weight(src, i, int(point))
            lw_tgt = (_mpf(alpha0) * mpmath.log(_mpf(x)) - _mpf(cs[i - 1]) * _mpf(x))
            return float(abs(mpmath.expm1(log_scale + lw - lw_tgt)))
        if edge == "k_hermite":
            cs = target["c"]
            N = int(t)                       # schedule in N = 2m^2, m even
            m = math.isqrt(N // 2)
            if 2 * m * m != N or m % 2 or (Fraction(x) * m).denominator != 1:
                raise ValueError("schedule values must be N = 2m^2 with m even and m*x integer")
            s = 2 * m                        # sqrt(2N)
            src = Kravchuk(tuple(Fraction(1, 2) + ci / (2 * s) for ci in cs), N)
            point = m * m + int(Fraction(x) * m)
            log_scale = (mpmath.mpf(0.5) * mpmath.log(mpmath.pi * N / 2)
                         + _mpf(cs[i - 1]) ** 2 / 4)
            lw = _log_weight(src, i, point)
            return float(abs(mpmath.expm1(log_scale + lw - _log_weight_hermite(x, cs[i - 1]))))
        if edge == "c_hermite":
            cs = target["c"]
            s = int(t)
            m = s // 2
            if s % 2 or (Fraction(x) * s).denominator != 1:
                raise ValueError("schedule values must be even integers s = 2m with s*x integer")
            beta = 2 * m * m                  # s = sqrt(2 beta)
            src = Charlier(tuple(beta + ci * m for ci in cs))
            point = beta + int(Fraction(x) * s)
            ci = cs[i - 1]
            log_scale = (mpmath.mpf(0.5) * mpmath.log(2 * mpmath.pi * beta)
                         - beta - _mpf(ci) * m + _mpf(ci) ** 2 / 4)
            lw = _log_weight(src, i, point)
            return float(abs(mpmath.expm1(log_scale + lw - _log_weight_hermite(x, ci))))
        if edge == "l2_hermite":
            cs = target["c"]
            s = int(t)
            m = s // 2
            if s % 2:
                raise ValueError("schedule values must be even integers s = 2m")
            beta = 2 * m * m
            y = beta + Fraction(x) * s        # continuous support point
            ci = cs[i - 1]
            # log w^{L2}(y; beta, 1 - c_i/s) = beta log y - (1 - c_i/s) y
            lw = beta * mpmath.log(_mpf(y)) - _mpf(1 - Fraction(ci) / s) * _mpf(y)
            log_scale = -beta * mpmath.log(mpmath.mpf(beta)) + beta - _mpf(ci) * m
            return float(abs(mpmath.expm1(log_scale + lw - _log_weight_hermite(x, ci))))
    raise ValueError(f"unknown continuous edge {edge!r}")


def _lgamma_q(q) -> mpmath.mpf:
    return mpmath.loggamma(_mpf(q))


# ----------------------------------------------------------------------------
# the public edge runner

def limit_edge(schedule: LimitSchedule, check: str, target,
               i: int = 1, perm: Permutation | None = None,
               slope_band=(-1.3, -0.7)) -> ConvergenceReport:
    """Measure the convergence of one Askey edge on one check kind.

    ``target`` is the target FamilyParams for discrete edges, or a dict of
    endpoint-weight parameters for continuous edges (keys: alpha/beta for
    Jacobi-Pineiro, alpha for Laguerre 1, alpha0/c for Laguerre 2, c for the
    Hermite routes).  The verdict requires monotone error decay over the last
    three points and a fitted log-log slope inside ``slope_band``.
    """
    edge = schedule.edge
    if edge in DISCRETE_EDGES:
        if check == "weight":
            errors = [max(_discrete_weight_error(edge, target, t, i, x)
                          for x in schedule.x_probes)
                      for t in schedule.values]
        elif check == "type2":
            errors = [max(_discrete_type2_error(edge, target, t, MultiIndex.of(n), x)
                          for n in schedule.n_probes for x in schedule.x_probes)
                      for t in schedule.values]
        elif check == "recurrence":
            p = perm or Permutation.identity(target.p)
            errors = [max(_discrete_recurrence_error(edge, target, t, MultiIndex.of(n), p)
                          for n in schedule.n_probes)
                      for t in schedule.values]
        else:
            raise ValueError(f"unknown check {check!r}")
        return _fit_report(edge, check, schedule.values, errors, slope_band)
    if edge in CONTINUOUS_EDGES:
        if check != "weight":
            raise ValueError("continuous edges check weights here; coefficient routes "
                             "go through hermite_route_consistency / richardson_selfcheck")
        errors = [max(_continuous_weight_error(edge, target, t, i, x)
                      for x in schedule.x_probes)
                  for t in schedule.values]
        return _fit_report(edge, check, schedule.values, errors, slope_band)
    raise ValueError(f"unknown edge {edge!r}")


# ----------------------------------------------------------------------------
# Hermite recurrence routes and their mutual consistency

def laguerre2_recurrence(alpha0, cs, n: MultiIndex, perm: Permutation):
    """Second-kind Laguerre recurrence coefficients.

    Exact limit of the first-kind Meixner coefficients under
    c_i -> tau/(tau + c_i), beta -> alpha0 + 1, b^j scaled by tau^{-(j+1)}:

        b0(k) = (alpha0 + |n| + 1)/c_k + sum_i n_i / c_i
        b^j   = (alpha0 + |n| - j + 1)_j sum_{i in S} n_i / c_i^{j+1}
                    prod_{q in S^c} (c_q - c_i) / c_q
    """
    n = MultiIndex.of(n)
    alpha0 = rat(alpha0)
    cs = [rat(c) for c in cs]
    p, sz = len(cs), n.size
    b0 = []
    for k in range(1, p + 1):
        v = (alpha0 + sz + 1) / cs[k - 1]
        for idx in range(p):
            v += Fraction(n[idx]) / cs[idx]
        b0.append(v)
    bj = []
    for j in range(1, p + 1):
        _, S, Sc = step_sets(perm, j)
        acc = Fraction(0)
        for i in S:
            term = Fraction(n[i - 1]) / cs[i - 1] ** (j + 1)
            for q in Sc:
                term *= (cs[q - 1] - cs[i - 1]) / cs[q - 1]
            acc += term
        bj.append(pochhammer(alpha0 + sz - j + 1, j) * acc)
    return tuple(b0), tuple(bj)


# each Hermite route at scale s = 2m: raw b0 and b^j, the centre of b0, the scale

def _kravchuk_route(cs, n, perm, s, m):
    N = 2 * m * m
    raw = nnrc(Kravchuk(tuple(Fraction(1, 2) + ci / (2 * s) for ci in cs), N), n, perm)
    return raw.b0, raw.bj, Fraction(N, 2), Fraction(2, s)


def _charlier_route(cs, n, perm, s, m):
    beta = 2 * m * m
    raw = nnrc(Charlier(tuple(beta + ci * m for ci in cs)), n, perm)
    return raw.b0, raw.bj, beta, Fraction(1, s)


def _laguerre2_route(cs, n, perm, s, m):
    beta = 2 * m * m
    rb0, rbj = laguerre2_recurrence(beta, [1 - ci / s for ci in cs], n, perm)
    return rb0, rbj, beta, Fraction(1, s)


_HERMITE_ROUTES = {"kravchuk": _kravchuk_route, "charlier": _charlier_route,
                   "laguerre2": _laguerre2_route}


def _hermite_route_values(route: str, cs, n: MultiIndex, perm: Permutation, s: int):
    """Scaled recurrence coefficients of one route at scale s = 2m (exact)."""
    m = s // 2
    if s % 2:
        raise ValueError("route scales must be even integers")
    if route not in _HERMITE_ROUTES:
        raise ValueError(f"unknown Hermite route {route!r}")
    b0, bj, centre, scale = _HERMITE_ROUTES[route]([rat(c) for c in cs], n, perm, s, m)
    return (tuple(scale * (v - centre) for v in b0)
            + tuple(scale ** (j + 1) * v for j, v in enumerate(bj, start=1)))


def _neville_at_zero(us, vs) -> Fraction:
    """Exact polynomial extrapolation of (u_k, v_k) to u = 0."""
    vals = list(vs)
    for level in range(1, len(vals)):
        for k in range(len(vals) - level):
            u0, u1 = us[k], us[k + level]
            vals[k] = (u1 * vals[k] - u0 * vals[k + 1]) / (u1 - u0)
    return vals[0]


@dataclass(frozen=True)
class HermiteConsistencyReport:
    routes: tuple
    scales: tuple
    limits: dict              # route -> tuple of extrapolated coefficients
    pairwise_max: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.pairwise_max < self.tolerance


def hermite_route_consistency(cs, n: MultiIndex, perm: Permutation | None = None,
                              scales=(100, 1000, 10000, 100000),
                              tolerance: float = 1e-6) -> HermiteConsistencyReport:
    """Pairwise agreement of the three Hermite routes on the limiting coefficients.

    Each route's scaled coefficients are rational functions of u = 1/s, so
    Neville extrapolation over the (exact) schedule values gives exact route
    limits; the mutual-consistency check replaces an external target.
    """
    n = MultiIndex.of(n)
    perm = perm or Permutation.identity(len(tuple(cs)))
    routes = ("kravchuk", "charlier", "laguerre2")
    limits = {}
    for route in routes:
        us = [Fraction(1, int(s)) for s in scales]
        series = [_hermite_route_values(route, cs, n, perm, int(s)) for s in scales]
        limits[route] = tuple(_neville_at_zero(us, [row[j] for row in series])
                              for j in range(len(series[0])))
    worst = 0.0
    for a in range(len(routes)):
        for b in range(a + 1, len(routes)):
            for va, vb in zip(limits[routes[a]], limits[routes[b]]):
                worst = max(worst, float(abs(va - vb)))
    return HermiteConsistencyReport(routes, tuple(int(s) for s in scales), limits,
                                    worst, tolerance)


# ----------------------------------------------------------------------------
# gamma asymptotics property checks

def stirling_ratio_check(form: str, schedule, a=1, b=0, c=0,
                         x=1, y=0, z=0) -> ConvergenceReport:
    """|ratio - 1| decay for the gamma asymptotics used by the limit proofs.

    Forms: "stirling" (Gamma(t) vs sqrt(2 pi) t^{t-1/2} e^{-t}, slope -1),
    "gamma_ratio" (Gamma(a t + b)/Gamma(a t + c) vs (a t)^{b-c}, slope -1),
    "gamma_sqrt_shift" (Gamma(x t + y sqrt(t) + z) vs the square-root-shifted
    Stirling form, slope -1/2 in t).
    """
    errors = []
    with mpmath.workdps(_DPS):
        for t in schedule:
            tm = _mpf(rat(t))
            if form == "stirling":
                diff = (mpmath.loggamma(tm)
                        - (mpmath.log(2 * mpmath.pi) / 2 + (tm - mpmath.mpf(0.5))
                           * mpmath.log(tm) - tm))
            elif form == "gamma_ratio":
                am, bm, cm = _mpf(rat(a)), _mpf(rat(b)), _mpf(rat(c))
                diff = (mpmath.loggamma(am * tm + bm) - mpmath.loggamma(am * tm + cm)
                        - (bm - cm) * mpmath.log(am * tm))
            elif form == "gamma_sqrt_shift":
                xm, ym, zm = _mpf(rat(x)), _mpf(rat(y)), _mpf(rat(z))
                arg = xm * tm + ym * mpmath.sqrt(tm) + zm
                asym = (mpmath.log(2 * mpmath.pi) / 2
                        + (arg - mpmath.mpf(0.5)) * mpmath.log(xm * tm)
                        + ym**2 / (2 * xm) - xm * tm)
                diff = mpmath.loggamma(arg) - asym
            else:
                raise ValueError(f"unknown form {form!r}")
            errors.append(float(abs(mpmath.expm1(diff))))
    band = (-0.8, -0.2) if form == "gamma_sqrt_shift" else (-1.3, -0.7)
    return _fit_report(f"gamma:{form}", "ratio", tuple(schedule), tuple(errors), band)


# ----------------------------------------------------------------------------
# Richardson self-consistency for coefficient checks on continuous edges

def richardson_selfcheck(edge: str, target, schedule, n, perm: Permutation | None = None,
                         slope_band=(-1.3, -0.7)) -> ConvergenceReport:
    """Convergence of scaled recurrence coefficients on a continuous edge.

    The continuous closed forms are out of scope, so a one-level Richardson
    extrapolation from the two largest schedule points defines the target;
    the earlier points' errors against it drive the slope fit.
    """
    n = MultiIndex.of(n)
    if edge == "h_jp":
        alpha, beta = target["alpha"], target["beta"]
        perm = perm or Permutation.identity(len(alpha))

        def values_at(N):
            raw = nnrc(Hahn(alpha, beta, int(N)), n, perm)
            vals = [v / N for v in raw.b0]
            vals += [v / Fraction(int(N)) ** (j + 1) for j, v in enumerate(raw.bj, start=1)]
            return vals
    elif edge == "m1_l2":
        alpha0, cs = target["alpha0"], target["c"]
        perm = perm or Permutation.identity(len(cs))

        def values_at(tau):
            params = MeixnerI(alpha0 + 1, tuple(Fraction(int(tau)) / (int(tau) + ci)
                                                for ci in cs))
            raw = nnrc(params, n, perm)
            vals = [v / int(tau) for v in raw.b0]
            vals += [v / Fraction(int(tau)) ** (j + 1) for j, v in enumerate(raw.bj, start=1)]
            return vals
    else:
        raise ValueError(f"no self-consistency route for edge {edge!r}")

    series = [values_at(t) for t in schedule]
    t1, t2 = Fraction(int(schedule[-2])), Fraction(int(schedule[-1]))
    ratio = t2 / t1
    targets = [(ratio * b - a) / (ratio - 1) for a, b in zip(series[-2], series[-1])]
    errors = []
    for row in series[:-1]:
        errors.append(max(_rel_err(v, tv) for v, tv in zip(row, targets)))
    return _fit_report(edge, "recurrence_selfconsistency",
                       tuple(schedule[:-1]), tuple(errors), slope_band)
