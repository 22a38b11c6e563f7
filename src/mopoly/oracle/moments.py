"""Exact normalized power moments of the five weight systems.

The normalized moments mu_j = (sum_x x^j w_i(x)) / m_0^{(i)} are rational for
every family: the transcendental mass cancels in the normalization.  Each
family computes them in its ``moments`` method, from the weights' own
formulas: the Stirling transform of the factorial moments (one term-ratio
table each), or for Hahn the power sums of the weights over the support, both
in integers over one denominator.  ``normalized_moments`` checks the
component index and the order bound and computes one table, uncached; the
oracle keeps the tables of one parameter draw in its ``OracleContext``, so no
moment state outlives the draw.  ``validate_closed_form`` rechecks the tables against a
truncated brute-force sum in high-precision floats (the truncation point is
driven by a tail bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParameterError
from ..families.params import FamilyParams
from ..families.weights import weight


@dataclass(frozen=True)
class MomentTable:
    """Normalized power moments mu_0..mu_jmax of one weight component."""

    component: int
    moments: tuple[Fraction, ...]

    def __getitem__(self, j: int) -> Fraction:
        return self.moments[j]


# the largest table a caller may ask for: the cost grows as jmax^2 big-integer
# products, under a second at 500
MAX_JMAX = 500


def normalized_moments(params: FamilyParams, i: int, jmax: int) -> MomentTable:
    """Exact table mu_0..mu_jmax for the i-th (1-based) weight component."""
    if not 1 <= i <= params.p:
        raise ParameterError(f"component index i = {i} is outside 1..{params.p}")
    if not 0 <= jmax <= MAX_JMAX:
        raise ParameterError(f"jmax = {jmax} is outside 0..{MAX_JMAX}")
    return MomentTable(i, tuple(params.moments(i, jmax)))


def validate_closed_form(params: FamilyParams, i: int, jmax: int,
                         rel_tol: float = 1e-20, tail_bound: float = 1e-30,
                         dps: int = 60) -> list[float]:
    """Relative errors of the closed-form moments vs. a truncated direct sum.

    Runs in mpmath at ``dps`` digits; the sum over the support is truncated
    once the running tail estimate for the largest needed power drops below
    ``tail_bound`` relative to the accumulated value.  Returns one relative
    error per moment order; all must be below ``rel_tol`` for valid closed
    forms.  mpmath is imported here, so the exact layer loads no float library.
    """
    import mpmath

    table = normalized_moments(params, i, jmax)
    with mpmath.workdps(dps):
        sums = [mpmath.mpf(0) for _ in range(jmax + 1)]
        mass = mpmath.mpf(0)

        def add_point(x, w):
            nonlocal mass
            mass += w
            xp = mpmath.mpf(1)
            for j in range(jmax + 1):
                sums[j] += xp * w
                xp *= x

        if params.finite_support:
            for x in range(params.N + 1):
                wq = weight(params, i, x)
                add_point(x, mpmath.mpf(wq.numerator) / wq.denominator)
        else:
            x = 0
            w = mpmath.mpf(1)  # w(0) = 1 for all three infinite-support families
            while True:
                add_point(x, w)
                ratio = _WEIGHT_RATIO[params.family](params, i, x)
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
    import mpmath
    return mpmath.mpf(q.numerator) / q.denominator


# w_i(x+1) / w_i(x) in mpmath; all infinite supports have simple ratios
_WEIGHT_RATIO = {
    "meixner2": lambda params, i, x: ((_to_mpf(params.beta[i - 1]) + x)
                                      * _to_mpf(params.c) / (x + 1)),
    "meixner1": lambda params, i, x: ((_to_mpf(params.beta0) + x)
                                      * _to_mpf(params.c[i - 1]) / (x + 1)),
    "charlier": lambda params, i, x: _to_mpf(params.a[i - 1]) / (x + 1),
}
