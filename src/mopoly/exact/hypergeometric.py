"""Terminating generalized hypergeometric and Kampé de Fériet sums, exactly.

A pFq series sum_l prod (a_i)_l / prod (b_j)_l * z^l / l! terminates when some
upper parameter is a non-positive integer -m.  The multiple Kampé de Fériet
series generalizes this with a block of "global" parameters indexed by the
total degree l_1 + ... + l_p and per-variable parameter blocks indexed by each
l_i separately:

    sum_{l_1,...,l_p}  prod_g (a_g)_{|l|} / prod_g (alpha_g)_{|l|}
                       * prod_i [ prod (b)_{l_i} / prod (beta)_{l_i} ]
                       * prod_i x_i^{l_i} / l_i!

Termination may come from a per-variable upper parameter (bounding that l_i)
or from a global upper parameter (bounding the total |l|).
``eval_pfq_terminating`` sums a pFq term by term with fresh Pochhammer
symbols, as an independent reference.  The closed forms use one kernel
instead: ``term_table`` fills factor tables by term ratios and ``chain_sum``
folds them into the coefficients of a multiple sum in chain form.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import LowerParamPoleError, NonTerminatingError
from .combinatorics import factorial, is_nonpositive_int, pochhammer


def _termination_bound(params) -> int | None:
    """Smallest m with -m among the non-positive-integer parameters, else None."""
    bounds = [-Fraction(a).numerator for a in params if is_nonpositive_int(a)]
    return min(bounds) if bounds else None


def eval_pfq_terminating(upper, lower, arg) -> Fraction:
    """Exact value of a terminating pFq at a rational argument.

    Some upper parameter must be a non-positive integer -m; no lower parameter
    may hit a pole at summation index <= m (checked term by term: a pole only
    counts if the numerator has not already terminated the term).
    """
    upper = [Fraction(a) for a in upper]
    lower = [Fraction(b) for b in lower]
    arg = Fraction(arg)
    m = _termination_bound(upper)
    if m is None:
        raise NonTerminatingError(
            f"no non-positive-integer upper parameter in {[str(a) for a in upper]}"
        )
    total = Fraction(0)
    for l in range(m + 1):
        num = Fraction(1)
        for a in upper:
            num *= pochhammer(a, l)
        if num == 0:
            continue
        den = Fraction(1)
        for b in lower:
            den *= pochhammer(b, l)
        if den == 0:
            raise LowerParamPoleError(
                f"lower parameter pole at summation index {l} in {[str(b) for b in lower]}"
            )
        total += num / den * arg**l / factorial(l)
    return total


def term_table(upper, lower, arg, length: int) -> list[Fraction]:
    """Terms t_k = prod (a)_k / prod (b)_k * arg^k for k = 0..length, by ratios.

    Walks t_{k+1} = t_k * arg * prod (a + k) / prod (b + k).  A 1 among the
    lower parameters supplies the 1/k! of a series.  The walk stops at the
    first vanishing upper factor (or a zero argument): every later term is
    zero and the lower factors behind it are never divided by, so a lower pole
    beyond termination does not raise.  One before it raises
    ZeroDivisionError.
    """
    term = Fraction(1)
    out = [term]
    for k in range(length):
        num = Fraction(arg)
        for a in upper:
            num *= a + k
        if num == 0:
            return out + [Fraction(0)] * (length - k)
        den = Fraction(1)
        for b in lower:
            den *= b + k
        term = term * num / den
        out.append(term)
    return out


def _times(table, factor):
    return table if factor is None else [t * f for t, f in zip(table, factor)]


def chain_sum(u, g, v=None, w=None, by_first: bool = False) -> list[Fraction]:
    """Coefficients of a terminating multiple sum in chain form.

        c_L = g(L) * sum_{|l| = L} prod_i u_i(l_i) * v_i(S_i) * w_i(S_{i+1}),

    with S_i = l_i + ... + l_p and S_{p+1} = 0.  ``u[i]``, ``v[i]`` and
    ``w[i]`` are the factor tables of variable i + 1, indexed by l_i, S_i and
    S_{i+1}; ``v`` and ``w`` may be None for factors of one.  ``g`` is
    indexed by the total L and caps it at len(g) - 1.  The variables are
    folded one at a time, from i = p down to 1, into a table indexed by the
    partial sum S_i, which costs O(p |n| max n_i) products in place of
    prod (n_i + 1) terms.

    With ``by_first`` the coefficients are indexed by l_1 instead of L (the
    type I sums, whose basis depends on l_1 only); the last step is then the
    correlation c_{l_1} = u_1(l_1) sum_M g(l_1 + M) v_1(l_1 + M) w_1(M) T_2(M),
    where T_2 is the table of variables 2..p folded by partial sum M.
    """
    p = len(u)
    v = v or [None] * p
    w = w or [None] * p
    cap = len(g)
    table = [Fraction(1)]
    for i in range(p - 1, 0 if by_first else -1, -1):
        inner = _times(table, w[i])
        out = [Fraction(0)] * min(len(inner) + len(u[i]) - 1, cap)
        for l, ul in enumerate(u[i][:cap]):
            if ul:
                for s, t in enumerate(inner[:cap - l]):
                    out[l + s] += ul * t
        table = _times(out, v[i])
    if not by_first:
        return _times(table, g)
    outer = _times(g, v[0])
    inner = _times(table, w[0])
    return [ul * sum((outer[l + m] * t for m, t in enumerate(inner[:cap - l])), Fraction(0))
            for l, ul in enumerate(u[0][:cap])]
