"""Ground-truth reconstruction from the defining orthogonality conditions.

Everything here is built from exact normalized moments and exact linear
algebra only; no closed-form polynomial expression enters.  The type I
components produced are mass-normalized, A_hat^{(i)} = m_0^{(i)} A^{(i)},
paired with normalized weights w_hat_i = w_i / m_0^{(i)}, which keeps every
quantity rational:

* oracle_type2: the unique monic B of degree |n| with
      sum_x x^j B(x) w_hat_i(x) = 0          for j < n_i, every i;
* oracle_type1: the p components A_hat^{(i)} of degree <= n_i - 1 with
      sum_i sum_x x^j A_hat^{(i)}(x) w_hat_i(x) = delta_{j, |n|-1}
                                              for j <= |n| - 1;
* oracle_nnrc: the recurrence coefficients as discrete integrals
      b0(k) = <x B_n, A_hat_{n+e_k}>,    b^j = <x B_n, A_hat_{n-s_{j-1}}>,
  <P, A_hat> = sum_i sum_x P(x) A_hat^{(i)}(x) w_hat_i(x) (the mass factors
  cancel between A_hat and w_hat).

One ``OracleContext`` per parameter draw holds its moment tables, solves each
B_n and A_hat_m once and computes each pairing once for all permutations, as
the dot product of the coefficients of A_hat^{(i)}_m with
v_i[r] = sum_j b_j mu_i[j+1+r] (b_j the coefficients of B_n, mu_i the
moments), so no polynomial product is formed.  The dot products run in
integers: each moment table, B_n and A_hat^{(i)}_m is held over the lcm of
its denominators (``over_lcm``), and one Fraction is built per component.
``type2_residual_vanishes`` checks the type II recurrence by evaluation at
integer nodes, which is exact, in integers over one denominator (see there).

The 2p + 1 systems behind one ``oracle_nnrc`` (B_n, A_hat at n - s_{p-1},
..., n - s_1, n and each A_hat_{n+e_k}) are leading blocks of one moment
matrix G[j][(i, l)] = mu_i[j + l], j = 0..|n|, with its columns ordered along
that step-line, so ``OracleContext._path`` solves them by one fraction-free
elimination (``PathElimination``): the identity part of row |n| gives B_n,
one back substitution on a leading block gives each A_hat on the path, and
one bordered column each A_hat_{n+e_k}.  It runs only when every shift
n - s_j is valid and two or more of those systems are still missing.  On an
invalid shift or a zero path pivot it fills nothing, and the per-index
``type2`` / ``type1`` solves run as alone, so results and errors are the same
either way.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from ..errors import InvalidShiftError, SingularSystemError
from ..exact.indices import MultiIndex, Permutation, step_sets
from ..exact.polynomials import Poly
from ..exact.rationals import over_lcm
from ..families.params import FamilyParams
from ..families.recurrence import RecurrenceCoefficients, nnrc
from ..families.closed_forms import type2
from .linsolve import PathElimination, solve_exact


def oracle_type2(params: FamilyParams, n: MultiIndex) -> Poly:
    """Monic degree-|n| solution of the type II orthogonality conditions."""
    return OracleContext(params).type2(MultiIndex.of(n))


def oracle_type1(params: FamilyParams, n: MultiIndex) -> list[Poly]:
    """Mass-normalized type I components A_hat^{(i)} as exact polynomials."""
    n = MultiIndex.of(n)
    if n.size == 0:
        raise ValueError("type I polynomials need |n| >= 1")
    return OracleContext(params).type1(n)


class OracleContext:
    """All oracle state of one parameter draw: moments, solves and pairings.

    The moment tables come from ``params.moments`` only.  They grow when a
    request exceeds them, to two moments beyond the request: enough for x B_n
    and every A_hat_{n+e_k}, so one ``oracle_nnrc`` computes each table once.
    Nothing is locked: every entry is a function of its key alone, so threads
    that share a context at worst compute one twice.
    """

    def __init__(self, params: FamilyParams):
        self.params = params
        # the moment tables and each one over its lcm, (D_i, D_i mu_i), regrown together
        self._tables: tuple[list, list] = ([[]] * params.p, [(1, [])] * params.p)
        self._type2: dict = {}
        self._type1: dict = {}
        self._xb_moments: dict = {}
        self._pairings: dict = {}

    def moments(self, jmax: int) -> list[list[Fraction]]:
        """The p tables mu_i[0..J], J >= jmax, of the normalized weights."""
        return self._grown(jmax)[0]

    def _grown(self, jmax: int) -> tuple[list, list]:
        """The moment tables covering jmax and the same tables over their lcms."""
        grown = self._tables
        if len(grown[0][0]) <= jmax:
            tables = [self.params.moments(i, jmax + 2) for i in range(1, self.params.p + 1)]
            grown = self._tables = (tables, [over_lcm(t) for t in tables])
        return grown

    def type2(self, n) -> Poly:
        """The unique monic B_n with sum_x x^j B_n w_hat_i = 0 for j < n_i, solved once."""
        key = tuple(n)
        poly = self._type2.get(key)
        if poly is None:
            size = sum(key)
            if size == 0:
                poly = Poly.one()
            else:
                # highest moment index (n_i - 1) + size; one more lets the table
                # grown here cover x B_n and every A_hat_{n+e_k} as well
                tables = self.moments(size + max(key))
                rows = [t[j:j + size] for t, ni in zip(tables, key, strict=True)
                        for j in range(ni)]
                rhs = [-t[j + size] for t, ni in zip(tables, key) for j in range(ni)]
                poly = Poly(solve_exact(rows, rhs) + [Fraction(1)])
            self._type2[key] = poly
        return poly

    def type1(self, m) -> list[Poly]:
        """The components A_hat^{(i)}_m, deg < m_i, solved once; zero ones at |m| = 0."""
        key = tuple(m)
        comps = self._type1.get(key)
        if comps is None:
            size = sum(key)
            if size == 0:
                comps = [Poly.zero()] * self.params.p
            else:
                tables = self.moments(size + max(key))
                # unknowns: the coefficients of A_hat^{(1)}, then A_hat^{(2)}, ...
                rows = [[v for t, mi in zip(tables, key, strict=True) for v in t[j:j + mi]]
                        for j in range(size)]
                sol = solve_exact(rows, [Fraction(0)] * (size - 1) + [Fraction(1)])
                comps = [Poly(sol[end - mi:end])
                         for mi, end in zip(key, itertools.accumulate(key))]
            self._type1[key] = comps
        return comps

    def _path(self, n: MultiIndex, perm: Permutation) -> None:
        """Solve B_n, A_hat_{n-s_j} (j < p) and every A_hat_{n+e_k} by one elimination.

        The columns (i, l) of G[j][(i, l)] = mu_i[j + l], j = 0..|n|, are
        ordered so that each prefix is a multi-index and the prefixes pass
        n - s_{p-1}, ..., n - s_1, n: n - s_{p-1} component by component, then
        e_{pi(p-1)}, ..., e_{pi(1)}.  Every system is then a leading block of G,
        or G bordered by the column of (k, n_k) (see ``PathElimination``).
        Runs only when every shift is valid and two or more of these systems
        are missing; fills only missing ones, and nothing on a zero path pivot,
        so ``type2`` and ``type1`` then solve (or raise) exactly as alone.
        """
        p = self.params.p
        if n.p != p or perm.p != p:
            return
        downs = [tuple(a - b for a, b in zip(n, step_sets(perm, j)[0])) for j in range(p)]
        if any(min(m) < 0 for m in downs):
            return
        ups = [n.add_unit(k).entries for k in range(1, p + 1)]
        type1_missing = [m for m in (*downs, *ups) if m not in self._type1]
        if (n.entries not in self._type2) + len(type1_missing) < 2:
            return
        size = n.size
        cols = [(i, l) for i, mi in enumerate(downs[-1]) for l in range(mi)]
        cols += [(perm(j) - 1, n[perm(j) - 1] - 1) for j in range(p - 1, 0, -1)]
        tables = self.moments(size + max(n.entries))
        try:
            path = PathElimination([[tables[i][j + l] for i, l in cols] for j in range(size + 1)])
            solved = {}
            for m in type1_missing:
                if m in downs:
                    r = sum(m)
                    order, sol = cols[:r], path.solve_leading(r) if r else []
                else:
                    k = ups.index(m)
                    order = cols + [(k, n[k])]
                    sol = path.solve_bordered(tables[k][n[k]:n[k] + size + 1])
                coeffs = [[Fraction(0)] * mi for mi in m]
                for (i, l), v in zip(order, sol):
                    coeffs[i][l] = v
                solved[m] = [Poly(c) for c in coeffs]
        except SingularSystemError:
            return
        if n.entries not in self._type2:
            self._type2[n.entries] = Poly(path.left_null(size))
        self._type1.update(solved)

    def _pairing(self, n: MultiIndex, m: MultiIndex) -> Fraction:
        """<x B_n, A_hat_m> for a neighbour m of n, one with m_i <= n_i + 1.

        One integer dot product per component i over the product of the
        denominators of v_i and of A_hat^{(i)}_m.
        """
        key = (n.entries, m.entries)
        value = self._pairings.get(key)
        if value is None:
            comps = [over_lcm(c.coeffs) for c in self.type1(m)]
            value = self._pairings[key] = sum(
                Fraction(sum(map(operator.mul, a, v)), d_a * d_v)
                for (d_v, v), (d_a, a) in zip(self._xb_vectors(n), comps))
        return value

    def _xb_vectors(self, n: MultiIndex) -> list[tuple[int, list[int]]]:
        """v_i[r] = sum_x x^{r+1} B_n(x) w_hat_i(x) for r = 0..n_i, as (den, ints) per i.

        With B_n = P / d and mu_i = M_i / D_i over their lcms, v_i[r] is
        sum_j P_j M_i[j + 1 + r] over d D_i.
        """
        vectors = self._xb_moments.get(n.entries)
        if vectors is None:
            d, b = over_lcm(self.type2(n).coeffs)
            _, tables = self._grown(len(b) + max(n.entries))
            vectors = [(d * d_mu, [sum(map(operator.mul, b, mu[r + 1:])) for r in range(ni + 1)])
                       for (d_mu, mu), ni in zip(tables, n.entries)]
            self._xb_moments[n.entries] = vectors
        return vectors


def _own_context(params: FamilyParams, context: OracleContext | None) -> OracleContext:
    """``context``, checked to belong to ``params``; a fresh one when None."""
    if context is None:
        return OracleContext(params)
    if context.params != params:
        raise ValueError("the oracle context belongs to other parameters")
    return context


def oracle_nnrc(params: FamilyParams, n: MultiIndex,
                perm: Permutation | None = None,
                context: OracleContext | None = None) -> RecurrenceCoefficients:
    """Recurrence coefficients reconstructed from the discrete integrals.

    ``context`` shares the solves and pairings of one parameter draw between
    calls; a fresh one is used when none is given.
    """
    n = MultiIndex.of(n)
    if perm is None:
        perm = Permutation.identity(params.p)
    context = _own_context(params, context)
    context._path(n, perm)
    b0 = tuple(context._pairing(n, n.add_unit(k)) for k in range(1, params.p + 1))
    bj = []
    for j in range(1, params.p + 1):
        s_prev, _, _ = step_sets(perm, j - 1)
        down = [-v for v in s_prev]
        if not n.can_shift(down):
            raise InvalidShiftError(
                f"n - s_{j-1} = {tuple(a - b for a, b in zip(n, s_prev))} leaves N_0^p")
        bj.append(context._pairing(n, n.shifted(down)))
    return RecurrenceCoefficients(b0, tuple(bj), perm)


@dataclass(frozen=True)
class BiorthogonalityReport:
    n: tuple
    m: tuple
    value: Fraction
    expected: Fraction | None   # None when the printed table does not constrain (n, m)

    @property
    def ok(self) -> bool:
        return self.expected is None or self.value == self.expected


def check_biorthogonality(params: FamilyParams, n: MultiIndex, m: MultiIndex,
                          context: OracleContext | None = None) -> BiorthogonalityReport:
    """Evaluate sum_i sum_x B_n A_hat^{(i)}_m w_hat_i exactly against the 0/1/0 table.

    ``context`` shares the solves and moments of one parameter draw between
    calls, as in ``oracle_nnrc``.
    """
    n = MultiIndex.of(n)
    m = MultiIndex.of(m)
    if m.size == 0:
        raise ValueError("the pairing needs |m| >= 1")
    context = _own_context(params, context)
    b = context.type2(n)
    tables = context.moments(n.size + max(m.entries))
    value = sum((c * t[j] for t, a in zip(tables, context.type1(m))
                 for j, c in enumerate((b * a).coeffs) if c), Fraction(0))
    if all(mi <= ni for mi, ni in zip(m, n)):
        expected = Fraction(0)
    elif m.size == n.size + 1:
        expected = Fraction(1)
    elif m.size > n.size + 1:
        expected = Fraction(0)
    else:
        expected = None
    return BiorthogonalityReport(n.entries, m.entries, value, expected)


def type2_residual_vanishes(n: MultiIndex, perm: Permutation, k: int,
                            coeffs: RecurrenceCoefficients, type2_of,
                            values: dict) -> bool | None:
    """Whether x B_n - B_{n+e_k} - b0_n(k) B_n - sum_j b^j_n B_{n-s_j} is zero.

    ``type2_of(entries)`` supplies each B.  ``values`` caches, by entries and
    for reuse across one parameter draw, (d, P, V): d the lcm of the
    denominators of B's coefficients, P = d B with integer coefficients, and
    V its integer values at the nodes 0, 1, ...  The residual's degree is below
    D, the largest coefficient length among x B_n and the shifted B's, so
    vanishing at 0..D-1 is exactly ``is_zero()``.  Each term's coefficient c
    over its B's d_m becomes one integer multiplier of L, the lcm of the
    den(c) d_m (with den(b0) d_n for the B_n terms), so L times the residual
    at each node is a sum of integer products, compared with 0.  A shift
    n - s_j leaving N_0^p drops its term when b^j_n = 0; otherwise the
    relation does not apply and the result is None.
    """
    terms = [(-1, n.add_unit(k).entries)]
    for j, bjv in enumerate(coeffs.bj, start=1):
        down = [-v for v in step_sets(perm, j)[0]]
        if n.can_shift(down):
            terms.append((-bjv, n.shifted(down).entries))
        elif bjv != 0:
            return None
    polys = {m: type2_of(m) for m in (n.entries, *(m for _, m in terms))}
    nodes = max(len(polys[n.entries].coeffs) + 1, *(len(b.coeffs) for b in polys.values()))
    for m, b in polys.items():
        if m not in values:
            values[m] = (*over_lcm(b.coeffs), [])
        _, ints, cached = values[m]
        for t in range(len(cached), nodes):
            acc = 0
            for c in reversed(ints):
                acc = acc * t + c
            cached.append(acc)
    b0 = coeffs.b0[k - 1]
    d_n, _, v_n = values[n.entries]
    shifted = [(c, values[m]) for c, m in terms if c]
    lcm = math.lcm(b0.denominator * d_n, *(c.denominator * d for c, (d, _, _) in shifted))
    at_t = lcm // d_n                                     # multiplies t B_n(t)
    scaled = [(-b0.numerator * (lcm // (b0.denominator * d_n)), v_n)]
    scaled += [(c.numerator * (lcm // (c.denominator * d)), v) for c, (d, _, v) in shifted]
    return all(at_t * t * v_n[t] + sum(a * v[t] for a, v in scaled) == 0
               for t in range(nodes))


def check_recurrence_identity(params: FamilyParams, n: MultiIndex, perm: Permutation,
                              k: int, which: str = "typeII") -> bool:
    """Exact check of the nearest-neighbor recurrence as a polynomial identity.

    ``typeII`` verifies x B_n = B_{n+e_k} + b0_n(k) B_n + sum_j b^j_n B_{n-s_j}
    with closed-form coefficients and closed-form type II polynomials, by
    evaluation (``type2_residual_vanishes``); a shift below zero is allowed
    only when its coefficient vanishes exactly (the term is then dropped),
    otherwise InvalidShiftError.

    ``typeI`` verifies, for every component i, the printed relation
    x A^{(i)}_n = A^{(i)}_{n-e_k} + b0_{n-e_k}(k) A^{(i)}_n
                  + sum_j b^j_{n+s_{j-1}} A^{(i)}_{n+s_j}
    on the oracle-built mass-normalized type I sequence (A at |m| = 0 is the
    zero component list).
    """
    n = MultiIndex.of(n)
    if which == "typeII":
        ok = type2_residual_vanishes(n, perm, k, nnrc(params, n, perm),
                                     lambda m: type2(params, MultiIndex(m)), {})
        if ok is None:
            raise InvalidShiftError(
                f"a shift n - s_j of n = {n.entries} leaves N_0^p but its coefficient "
                "is nonzero")
        return ok

    if which == "typeI":
        if n[k - 1] < 1:
            raise InvalidShiftError(f"n - e_{k} leaves N_0^p")
        n_minus = n.sub_unit(k)
        context = OracleContext(params)
        a_n = context.type1(n)
        a_minus = context.type1(n_minus)
        b0_minus = nnrc(params, n_minus, perm).b0[k - 1]
        shifted_terms = []
        for j in range(1, params.p + 1):
            s_prev, _, _ = step_sets(perm, j - 1)
            s, _, _ = step_sets(perm, j)
            bjv = nnrc(params, n.shifted(s_prev), perm).bj[j - 1]
            shifted_terms.append((bjv, context.type1(n.shifted(s))))
        for i in range(params.p):
            residual = Poly.x() * a_n[i] - a_minus[i] - b0_minus * a_n[i]
            for bjv, comps in shifted_terms:
                residual = residual - bjv * comps[i]
            if not residual.is_zero():
                return False
        return True

    raise ValueError(f"unknown recurrence check {which!r}")
