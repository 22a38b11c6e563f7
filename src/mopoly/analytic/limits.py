"""Limit relations down the discrete scheme and onto the continuous weights.

One edge table keyed by edge name holds every Askey edge, and each
substitution (Arvesu, Coussement and Van Assche, J. Comput. Appl. Math. 153,
2003) is written once.  A discrete edge (Hahn to Meixner II/I and Kravchuk;
Meixner II/I and Kravchuk to Charlier) gives ``source(target, t)``, the source
parameters at limit value t; its errors are exact rationals and only the
slope fit is floating point.  A continuous edge compares the scaled source
weight with the Jacobi-Pineiro, Laguerre or Hermite endpoint weight in
high-precision logs, since the raw weights overflow any float format long
before the asymptotics kick in.  The Charlier and Laguerre-2 Hermite routes
run in the scale s = sqrt(2 beta) = 2m, so probed support points are integers
and errors decay like 1/s; the Kravchuk route, symmetric in +-1/sqrt(2N),
cancels its leading term and runs in N = 2m^2 (m even).

``_neville_at_zero`` is the one exact extrapolation, in u = 1/t: over the
whole schedule it gives the limits on which the three Hermite routes must
agree, and over the two largest points it is the Richardson target of
``richardson_selfcheck``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np

from ..exact.combinatorics import pochhammer
from ..exact.indices import MultiIndex, Permutation, step_sets
from ..exact.rationals import rat
from ..families.closed_forms import type2
from ..families.params import Charlier, FamilyParams, Hahn, Kravchuk, MeixnerI, MeixnerII
from ..families.recurrence import nnrc
from ..families.weights import weight

_DPS = 50


# ----------------------------------------------------------------------------
# log weights in high precision

def _mpf(q) -> mpmath.mpf:
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _log_fraction(q: Fraction):
    return mpmath.log(mpmath.mpf(q.numerator)) - mpmath.log(mpmath.mpf(q.denominator))


def _log_weight_hermite(x, c_i):
    return -_mpf(x)**2 + _mpf(c_i) * _mpf(x)


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


def _log_error(log_scale, lw_src, lw_tgt) -> float:
    """|scale * w_src / w_tgt - 1| from the logs of the three factors."""
    return float(abs(mpmath.expm1(log_scale + lw_src - lw_tgt)))


def _integer_point(point: Fraction, message: str) -> int:
    if point.denominator != 1:
        raise ValueError(message)
    return int(point)


# ----------------------------------------------------------------------------
# schedules and reports

@dataclass(frozen=True)
class LimitSchedule:
    """An Askey edge, the limit-variable values, and the probes to test."""

    edge: str
    values: tuple            # limit-variable values (ints or rationals)
    x_probes: tuple = ()
    n_probes: tuple = ()

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


def _scaled(b0, bj, centre, scale) -> tuple:
    """b0 and b^j after x -> scale (x - centre): scale (b0 - centre), scale^{j+1} b^j."""
    return (tuple(scale * (v - centre) for v in b0)
            + tuple(scale ** (j + 1) * v for j, v in enumerate(bj, start=1)))


# ----------------------------------------------------------------------------
# discrete edges: source(target, t), the weight log-scale, the reflection

def _hahn_meixner_log_scale(c, N):  # log sqrt(2 pi N) c^N (1-c)^{N(1-c)/c + 1/2}
    return (mpmath.mpf(0.5) * mpmath.log(2 * mpmath.pi * N)
            + N * _log_fraction(c)
            + (_mpf((1 - c) / c) * N + mpmath.mpf(0.5)) * _log_fraction(1 - c))


@dataclass(frozen=True)
class _DiscreteEdge:
    """``source(target, t)`` gives the source parameters at limit value t,
    ``log_scale(target, t, i)`` the log of the weight scale (None: the weights
    are compared exactly).  ``reflect`` puts the source on x -> N - x, which
    flips the type II sign by (-1)^{|n|} and maps b0 -> N - b0, b^j -> (-1)^{j+1} b^j."""

    source: Callable
    log_scale: Callable | None = None
    reflect: bool = False


_DISCRETE = {
    "h_m2": _DiscreteEdge(
        lambda tgt, t: Hahn(tuple(b - 1 for b in tgt.beta), (1 - tgt.c) / tgt.c * t, int(t)),
        lambda tgt, t, i: _hahn_meixner_log_scale(tgt.c, int(t))),
    # Meixner I's c_i meets the reflected point N - x
    "h_m1": _DiscreteEdge(
        lambda tgt, t: Hahn(tuple((1 - ci) / ci * t for ci in tgt.c), tgt.beta0 - 1, int(t)),
        lambda tgt, t, i: _hahn_meixner_log_scale(tgt.c[i - 1], int(t)),
        reflect=True),
    "h_k": _DiscreteEdge(
        lambda tgt, t: Hahn(tuple(q / (1 - q) * t for q in tgt.p_success), rat(t), tgt.N),
        lambda tgt, t, i: (mpmath.loggamma(tgt.N + 1)
                           + tgt.N * _log_fraction(1 - tgt.p_success[i - 1])
                           - tgt.N * _log_fraction(rat(t)))),
    # limit variable t = 1/c so every edge's error decays as t grows
    "m2_c": _DiscreteEdge(lambda tgt, t: MeixnerII(tuple(ai * t for ai in tgt.a), 1 / rat(t))),
    "m1_c": _DiscreteEdge(lambda tgt, t: MeixnerI(rat(t), tuple(ai / t for ai in tgt.a))),
    "k_c": _DiscreteEdge(lambda tgt, t: Kravchuk(tuple(ai / t for ai in tgt.a), int(t)),
                         lambda tgt, t, i: _mpf(tgt.a[i - 1])),
}


def _weight_errors(edge: _DiscreteEdge, target, schedule, i, perm) -> list:
    errors = []
    for t in schedule.values:
        src = edge.source(target, t)
        if edge.log_scale is None:
            errs = [_rel_err(weight(src, i, x), weight(target, i, x)) for x in schedule.x_probes]
        else:
            with mpmath.workdps(_DPS):
                log_scale = edge.log_scale(target, t, i)
                errs = [_log_error(log_scale, _log_weight(src, i, src.N - x if edge.reflect else x),
                                   _log_weight(target, i, x)) for x in schedule.x_probes]
        errors.append(max(errs))
    return errors


def _type2_errors(edge: _DiscreteEdge, target, schedule, i, perm) -> list:
    targets = [(n, type2(target, n)) for n in map(MultiIndex.of, schedule.n_probes)]
    errors = []
    for src in (edge.source(target, t) for t in schedule.values):
        errs = []
        for n, tgt in targets:
            poly = type2(src, n)
            for x in schedule.x_probes:
                value = (-1) ** n.size * poly(src.N - x) if edge.reflect else poly(x)
                errs.append(_rel_err(value, tgt(x)))
        errors.append(max(errs))
    return errors


def _recurrence_errors(edge: _DiscreteEdge, target, schedule, i, perm) -> list:
    perm = perm or Permutation.identity(target.p)
    targets = [(n, nnrc(target, n, perm)) for n in map(MultiIndex.of, schedule.n_probes)]
    errors = []
    for src in (edge.source(target, t) for t in schedule.values):
        errs = []
        for n, tgt in targets:
            raw = nnrc(src, n, perm)
            coeffs = _scaled(raw.b0, raw.bj, src.N, -1) if edge.reflect else raw.b0 + raw.bj
            errs += [_rel_err(a, b) for a, b in zip(coeffs, tgt.b0 + tgt.bj)]
        errors.append(max(errs))
    return errors


_DISCRETE_CHECKS = {"weight": _weight_errors, "type2": _type2_errors,
                    "recurrence": _recurrence_errors}


# ----------------------------------------------------------------------------
# continuous edges: each scaled source written once, shared with the
# Richardson self-check and the Hermite routes

_SELFCHECK_SOURCES = {       # the sources richardson_selfcheck shares
    "h_jp": lambda tgt, t: Hahn(tgt["alpha"], tgt["beta"], int(t)),
    "m1_l2": lambda tgt, t: MeixnerI(tgt["alpha0"] + 1, tuple(Fraction(int(t)) / (int(t) + ci)
                                                              for ci in tgt["c"])),
}


def _kravchuk_at(cs, s) -> Kravchuk:
    """Kravchuk at scale s = sqrt(2N) = 2m: pi_i = 1/2 + c_i/(2s), N = 2m^2."""
    return Kravchuk(tuple(Fraction(1, 2) + ci / (2 * s) for ci in cs), s * s // 2)


def _charlier_at(cs, s) -> Charlier:
    """Charlier at scale s = sqrt(2 beta) = 2m: a_i = beta + c_i m, beta = 2m^2."""
    return Charlier(tuple(s * s // 2 + ci * (s // 2) for ci in cs))


def _laguerre2_at(cs, s):
    """Laguerre second kind at scale s = sqrt(2 alpha0) = 2m: alpha0 = 2m^2, c_i -> 1 - c_i/s."""
    return s * s // 2, tuple(1 - Fraction(ci) / s for ci in cs)


# each continuous edge maps (target, t, i, x) to (log scale, source log-weight,
# target log-weight)

def _h_jp_weights(target, t, i, x):
    ai, beta = target["alpha"][i - 1], target["beta"]
    N = int(t)
    point = _integer_point(Fraction(x) * N, "probe x must make N*x an integer")
    log_scale = (mpmath.loggamma(_mpf(ai + 1)) + mpmath.loggamma(_mpf(beta + 1))
                 - (_mpf(ai) + _mpf(beta)) * mpmath.log(N))
    lw_tgt = _mpf(ai) * mpmath.log(_mpf(x)) + _mpf(beta) * mpmath.log(1 - _mpf(x))
    return log_scale, _log_weight(_SELFCHECK_SOURCES["h_jp"](target, t), i, point), lw_tgt


def _m2_l1_weights(target, t, i, x):
    m, ai = int(t), target["alpha"][i - 1]     # m = 1/(1-c); probe support point m*x
    c = Fraction(m - 1, m)
    point = _integer_point(Fraction(x) * m, "probe x must make x/(1-c) an integer")
    src = MeixnerII(tuple(a + 1 for a in target["alpha"]), c)
    log_scale = _mpf(ai) * _log_fraction(1 - c) + mpmath.loggamma(_mpf(ai + 1))
    return log_scale, _log_weight(src, i, point), _mpf(ai) * mpmath.log(_mpf(x)) - _mpf(x)


def _m1_l2_weights(target, t, i, x):
    alpha0, tau = target["alpha0"], int(t)
    point = _integer_point(Fraction(x) * tau, "probe x must make tau*x an integer")
    log_scale = mpmath.loggamma(_mpf(alpha0 + 1)) - _mpf(alpha0) * mpmath.log(tau)
    lw_tgt = (_mpf(alpha0) * mpmath.log(_mpf(x)) - _mpf(target["c"][i - 1]) * _mpf(x))
    return log_scale, _log_weight(_SELFCHECK_SOURCES["m1_l2"](target, t), i, point), lw_tgt


def _k_hermite_weights(target, t, i, x):
    cs = target["c"]
    N = int(t)                       # schedule in N = 2m^2, m even
    m = math.isqrt(N // 2)
    if 2 * m * m != N or m % 2 or (Fraction(x) * m).denominator != 1:
        raise ValueError("schedule values must be N = 2m^2 with m even and m*x integer")
    point = m * m + int(Fraction(x) * m)
    log_scale = (mpmath.mpf(0.5) * mpmath.log(mpmath.pi * N / 2)
                 + _mpf(cs[i - 1]) ** 2 / 4)
    return (log_scale, _log_weight(_kravchuk_at(cs, 2 * m), i, point),
            _log_weight_hermite(x, cs[i - 1]))


def _c_hermite_weights(target, t, i, x):
    cs, s = target["c"], int(t)
    m = s // 2
    if s % 2 or (Fraction(x) * s).denominator != 1:
        raise ValueError("schedule values must be even integers s = 2m with s*x integer")
    beta = 2 * m * m                  # s = sqrt(2 beta)
    point = beta + int(Fraction(x) * s)
    ci = cs[i - 1]
    log_scale = (mpmath.mpf(0.5) * mpmath.log(2 * mpmath.pi * beta)
                 - beta - _mpf(ci) * m + _mpf(ci) ** 2 / 4)
    return log_scale, _log_weight(_charlier_at(cs, s), i, point), _log_weight_hermite(x, ci)


def _l2_hermite_weights(target, t, i, x):
    s = int(t)
    m = s // 2
    if s % 2:
        raise ValueError("schedule values must be even integers s = 2m")
    beta, c2 = _laguerre2_at(target["c"], s)
    y = beta + Fraction(x) * s        # continuous support point
    ci = target["c"][i - 1]
    # log w^{L2}(y; beta, 1 - c_i/s) = beta log y - (1 - c_i/s) y
    lw = beta * mpmath.log(_mpf(y)) - _mpf(c2[i - 1]) * _mpf(y)
    log_scale = -beta * mpmath.log(mpmath.mpf(beta)) + beta - _mpf(ci) * m
    return log_scale, lw, _log_weight_hermite(x, ci)


_CONTINUOUS = {"h_jp": _h_jp_weights, "m2_l1": _m2_l1_weights, "m1_l2": _m1_l2_weights,
               "k_hermite": _k_hermite_weights, "c_hermite": _c_hermite_weights,
               "l2_hermite": _l2_hermite_weights}

DISCRETE_EDGES = tuple(_DISCRETE)
CONTINUOUS_EDGES = tuple(_CONTINUOUS)


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
    if edge in _DISCRETE:
        if check not in _DISCRETE_CHECKS:
            raise ValueError(f"unknown check {check!r}")
        errors = _DISCRETE_CHECKS[check](_DISCRETE[edge], target, schedule, i, perm)
    elif edge in _CONTINUOUS:
        if check != "weight":
            raise ValueError("continuous edges check weights here; coefficient routes "
                             "go through hermite_route_consistency / richardson_selfcheck")
        with mpmath.workdps(_DPS):
            errors = [max(_log_error(*_CONTINUOUS[edge](target, t, i, x))
                          for x in schedule.x_probes)
                      for t in schedule.values]
    else:
        raise ValueError(f"unknown edge {edge!r}")
    return _fit_report(edge, check, schedule.values, errors, slope_band)


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
    shift = sum(Fraction(n[idx]) / cs[idx] for idx in range(p))
    b0 = [(alpha0 + sz + 1) / ck + shift for ck in cs]
    bj = []
    for j in range(1, p + 1):
        _, S, Sc = step_sets(perm, j)
        acc = sum(Fraction(n[i - 1]) / cs[i - 1] ** (j + 1)
                  * math.prod((cs[q - 1] - cs[i - 1]) / cs[q - 1] for q in Sc) for i in S)
        bj.append(pochhammer(alpha0 + sz - j + 1, j) * acc)
    return tuple(b0), tuple(bj)


# each Hermite route's scaled recurrence coefficients at scale s = 2m (exact)

def _kravchuk_route(cs, n, perm, s):
    raw = nnrc(_kravchuk_at(cs, s), n, perm)
    return _scaled(raw.b0, raw.bj, Fraction(s * s, 4), Fraction(2, s))


def _charlier_route(cs, n, perm, s):
    raw = nnrc(_charlier_at(cs, s), n, perm)
    return _scaled(raw.b0, raw.bj, s * s // 2, Fraction(1, s))


def _laguerre2_route(cs, n, perm, s):
    beta, c2 = _laguerre2_at(cs, s)
    return _scaled(*laguerre2_recurrence(beta, c2, n, perm), beta, Fraction(1, s))


_HERMITE_ROUTES = {"kravchuk": _kravchuk_route, "charlier": _charlier_route,
                   "laguerre2": _laguerre2_route}


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
    if any(int(s) % 2 for s in scales):
        raise ValueError("route scales must be even integers")
    n, cs = MultiIndex.of(n), [rat(c) for c in cs]
    perm = perm or Permutation.identity(len(cs))
    us = [Fraction(1, int(s)) for s in scales]
    limits = {route: tuple(_neville_at_zero(us, column)
                           for column in zip(*(values_at(cs, n, perm, int(s)) for s in scales)))
              for route, values_at in _HERMITE_ROUTES.items()}
    routes = tuple(limits)
    worst = max(float(abs(va - vb)) for a, b in combinations(routes, 2)
                for va, vb in zip(limits[a], limits[b]))
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

    The continuous closed forms are out of scope, so the target is the exact
    extrapolation to u = 1/t = 0 through the two largest schedule points (one
    Richardson level, which is ``_neville_at_zero`` on two points); the
    earlier points' errors against it drive the slope fit.
    """
    if edge not in _SELFCHECK_SOURCES:
        raise ValueError(f"no self-consistency route for edge {edge!r}")
    n = MultiIndex.of(n)
    series = []
    for t in schedule:
        src = _SELFCHECK_SOURCES[edge](target, t)
        raw = nnrc(src, n, perm or Permutation.identity(src.p))
        series.append(_scaled(raw.b0, raw.bj, 0, Fraction(1, int(t))))
    us = [1 / Fraction(int(t)) for t in schedule[-2:]]
    targets = [_neville_at_zero(us, pair) for pair in zip(series[-2], series[-1])]
    errors = [max(_rel_err(v, tv) for v, tv in zip(row, targets)) for row in series[:-1]]
    return _fit_report(edge, "recurrence_selfconsistency",
                       tuple(schedule[:-1]), tuple(errors), slope_band)
