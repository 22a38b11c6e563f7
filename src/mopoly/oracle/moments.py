"""Exact normalized power moments of the five weight systems.

The normalized moments mu_j = (sum_x x^j w_i(x)) / m_0^{(i)} are rational for
every family: the transcendental mass cancels in the normalization.  Closed
forms go through normalized falling-factorial moments

    Charlier            f_j = a_i^j
    Meixner 2nd kind    f_j = (beta_i)_j (c/(1-c))^j
    Meixner 1st kind    f_j = (beta)_j (c_i/(1-c_i))^j
    Kravchuk            f_j = N(N-1)...(N-j+1) pi_i^j

and the Stirling-number transform x^j = sum_k S(j,k) x(x-1)...(x-k+1); the
Hahn moments are exact finite sums over the support.  ``validate_closed_form``
rechecks the closed forms against a truncated brute-force sum in
high-precision floats (the truncation point is driven by a tail bound).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from ..exact.combinatorics import falling_factorial, pochhammer, stirling2
from ..families.params import Charlier, FamilyParams, Hahn, Kravchuk, MeixnerI, MeixnerII
from ..families.weights import weight


@dataclass(frozen=True)
class MomentTable:
    """Normalized power moments mu_0..mu_jmax of one weight component."""

    component: int
    moments: tuple[Fraction, ...]

    def __getitem__(self, j: int) -> Fraction:
        return self.moments[j]

    @property
    def jmax(self) -> int:
        return len(self.moments) - 1

    def pair(self, poly_coeffs) -> Fraction:
        """sum_x P(x) w_hat(x) for P given by monomial coefficients."""
        return sum((c * self.moments[j] for j, c in enumerate(poly_coeffs) if c != 0),
                   Fraction(0))


def _factorial_moment(params: FamilyParams, i: int, j: int) -> Fraction:
    if isinstance(params, Charlier):
        return params.a[i - 1] ** j
    if isinstance(params, MeixnerII):
        c = params.c
        return pochhammer(params.beta[i - 1], j) * (c / (1 - c)) ** j
    if isinstance(params, MeixnerI):
        ci = params.c[i - 1]
        return pochhammer(params.beta0, j) * (ci / (1 - ci)) ** j
    if isinstance(params, Kravchuk):
        return falling_factorial(params.N, j) * params.p_success[i - 1] ** j
    raise TypeError(f"no factorial-moment closed form for {params!r}")


_MOMENT_CACHE_SIZE = 4096
_MOMENT_CACHE: dict = {}   # (params, i) -> moments, least recently used first
_MOMENT_LOCK = threading.Lock()


def normalized_moments(params: FamilyParams, i: int, jmax: int) -> MomentTable:
    """Exact table mu_0..mu_jmax for the i-th (1-based) weight component.

    Tables are cached per (params, i) -- the parameter objects are frozen and
    hashable -- and extended on demand; repeated oracle solves over one
    parameter draw reuse the same moments.  The cache keeps the
    ``_MOMENT_CACHE_SIZE`` most recently used tables; a lock makes the lookup,
    the re-insertion and the eviction one step, so concurrent callers are safe.
    """
    if jmax < 0:
        raise ValueError("jmax must be >= 0")
    key = (params, i)
    with _MOMENT_LOCK:
        mus = _MOMENT_CACHE.pop(key, None)   # re-inserted below as the most recent
        if mus is None or len(mus) <= jmax:
            mus = _compute_moments(params, i, max(jmax, 2 * len(mus) if mus else 8))
        _MOMENT_CACHE[key] = mus
        if len(_MOMENT_CACHE) > _MOMENT_CACHE_SIZE:
            del _MOMENT_CACHE[next(iter(_MOMENT_CACHE))]
    return MomentTable(i, tuple(mus[: jmax + 1]))


def _compute_moments(params: FamilyParams, i: int, jmax: int) -> list[Fraction]:
    if isinstance(params, Hahn):
        mass = Fraction(0)
        sums = [Fraction(0)] * (jmax + 1)
        for x in range(params.N + 1):
            w = weight(params, i, x)
            mass += w
            xp = Fraction(1)
            for j in range(jmax + 1):
                sums[j] += xp * w
                xp *= x
        return [s / mass for s in sums]
    facts = [_factorial_moment(params, i, k) for k in range(jmax + 1)]
    return [sum((stirling2(j, k) * facts[k] for k in range(j + 1)), Fraction(0))
            for j in range(jmax + 1)]


def validate_closed_form(params: FamilyParams, i: int, jmax: int,
                         rel_tol: float = 1e-20, tail_bound: float = 1e-30,
                         dps: int = 60) -> list[float]:
    """Relative errors of the closed-form moments vs. a truncated direct sum.

    Runs in mpmath at ``dps`` digits; the sum over the support is truncated
    once the running tail estimate for the largest needed power drops below
    ``tail_bound`` relative to the accumulated value.  Returns one relative
    error per moment order; all must be below ``rel_tol`` for valid closed
    forms.
    """
    table = normalized_moments(params, i, jmax)
    with mpmath.workdps(dps):
        sums = [mpmath.mpf(0) for _ in range(jmax + 1)]
        mass = mpmath.mpf(0)

        def weight_ratio(x):
            """w(x+1)/w(x) in mpmath; all infinite supports have simple ratios."""
            if isinstance(params, MeixnerII):
                b, c = params.beta[i - 1], params.c
                return (_to_mpf(b) + x) * _to_mpf(c) / (x + 1)
            if isinstance(params, MeixnerI):
                b, ci = params.beta0, params.c[i - 1]
                return (_to_mpf(b) + x) * _to_mpf(ci) / (x + 1)
            return _to_mpf(params.a[i - 1]) / (x + 1)  # Charlier

        def add_point(x, w):
            nonlocal mass
            mass += w
            xp = mpmath.mpf(1)
            for j in range(jmax + 1):
                sums[j] += xp * w
                xp *= x

        if isinstance(params, (Hahn, Kravchuk)):
            for x in range(params.N + 1):
                wq = weight(params, i, x)
                add_point(x, mpmath.mpf(wq.numerator) / wq.denominator)
        else:
            x = 0
            w = mpmath.mpf(1)  # w(0) = 1 for all three infinite-support families
            while True:
                add_point(x, w)
                ratio = weight_ratio(x)
                if x > 2 * jmax + 4:
                    # geometric tail bound for sum w(y) y^jmax beyond x
                    step = ratio * ((x + 1) / x) ** jmax
                    if step < 1:
                        tail = w * mpmath.mpf(x) ** jmax * step / (1 - step)
                        if tail < tail_bound * abs(sums[jmax]):
                            break
                w *= ratio
                x += 1
        errors = []
        for j in range(jmax + 1):
            approx = sums[j] / mass
            exact = mpmath.mpf(table[j].numerator) / table[j].denominator
            scale = max(abs(exact), mpmath.mpf(1))
            errors.append(float(abs(approx - exact) / scale))
        return errors


def _to_mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator
