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

One ``OracleContext`` per parameter draw solves each B_n and A_hat_m once and
computes each pairing once for all permutations, as the dot product of the
coefficients of A_hat^{(i)}_m with v_i[r] = sum_j b_j mu_i[j+1+r] (b_j the
coefficients of B_n, mu_i the moments), so no polynomial product is formed.
``type2_residual_vanishes`` checks the type II recurrence by evaluation at
integer nodes, which is exact (see there).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import InvalidShiftError
from ..exact.indices import MultiIndex, Permutation, step_sets
from ..exact.polynomials import Poly
from ..families.params import FamilyParams
from ..families.recurrence import RecurrenceCoefficients, nnrc
from ..families.closed_forms import type2
from .linsolve import solve_exact
from .moments import MomentTable, normalized_moments


def _moment_tables(params: FamilyParams, jmax: int) -> list[MomentTable]:
    return [normalized_moments(params, i, jmax) for i in range(1, params.p + 1)]


def oracle_type2(params: FamilyParams, n: MultiIndex) -> Poly:
    """Monic degree-|n| solution of the type II orthogonality conditions."""
    n = MultiIndex.of(n)
    size = n.size
    if size == 0:
        return Poly.one()
    jmax = size + max(n.entries)  # highest moment index: (n_i - 1) + size, plus margin
    tables = _moment_tables(params, jmax)
    rows = []
    rhs = []
    for i in range(params.p):
        for j in range(n[i]):
            rows.append([tables[i][j + m] for m in range(size)])
            rhs.append(-tables[i][j + size])
    coeffs = solve_exact(rows, rhs)
    return Poly(coeffs + [Fraction(1)])


def oracle_type1(params: FamilyParams, n: MultiIndex) -> list[Poly]:
    """Mass-normalized type I components A_hat^{(i)} as exact polynomials."""
    n = MultiIndex.of(n)
    size = n.size
    if size == 0:
        raise ValueError("type I polynomials need |n| >= 1")
    jmax = size + max(n.entries)
    tables = _moment_tables(params, jmax)
    # unknown layout: coefficients of A_hat^{(i)} for every i with n_i >= 1
    slots = [(i, m) for i in range(params.p) for m in range(n[i])]
    rows = []
    rhs = []
    for j in range(size):
        rows.append([tables[i][j + m] for (i, m) in slots])
        rhs.append(Fraction(1) if j == size - 1 else Fraction(0))
    sol = solve_exact(rows, rhs)
    comps = []
    pos = 0
    for i in range(params.p):
        comps.append(Poly(sol[pos:pos + n[i]]))
        pos += n[i]
    return comps


class OracleContext:
    """Memo of the oracle solves and recurrence pairings of one parameter draw."""

    def __init__(self, params: FamilyParams):
        self.params = params
        self._type2: dict = {}
        self._type1: dict = {}
        self._xb_moments: dict = {}
        self._pairings: dict = {}

    def type2(self, n) -> Poly:
        """oracle_type2(params, n), solved once."""
        key = tuple(n)
        if key not in self._type2:
            self._type2[key] = oracle_type2(self.params, MultiIndex.of(key))
        return self._type2[key]

    def type1(self, m) -> list[Poly]:
        """oracle_type1(params, m), solved once; the zero components at |m| = 0."""
        key = tuple(m)
        if key not in self._type1:
            self._type1[key] = (oracle_type1(self.params, MultiIndex.of(key)) if sum(key)
                                else [Poly.zero()] * self.params.p)
        return self._type1[key]

    def _pairing(self, n: MultiIndex, m: MultiIndex) -> Fraction:
        """<x B_n, A_hat_m> for a neighbour m of n, one with m_i <= n_i + 1."""
        key = (n.entries, m.entries)
        value = self._pairings.get(key)
        if value is None:
            value = self._pairings[key] = sum(
                (a * vr for v, comp in zip(self._xb_vectors(n), self.type1(m))
                 for a, vr in zip(comp.coeffs, v)), Fraction(0))
        return value

    def _xb_vectors(self, n: MultiIndex) -> list[list[Fraction]]:
        """v_i[r] = sum_x x^{r+1} B_n(x) w_hat_i(x) for r = 0..n_i, one list per i."""
        vectors = self._xb_moments.get(n.entries)
        if vectors is None:
            b = self.type2(n).coeffs
            tables = _moment_tables(self.params, len(b) + max(n.entries))
            vectors = [[sum((bj * t[j + 1 + r] for j, bj in enumerate(b) if bj), Fraction(0))
                        for r in range(ni + 1)]
                       for t, ni in zip(tables, n.entries)]
            self._xb_moments[n.entries] = vectors
        return vectors


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
    if context is None:
        context = OracleContext(params)
    elif context.params != params:
        raise ValueError("the oracle context belongs to other parameters")
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


def check_biorthogonality(params: FamilyParams, n: MultiIndex, m: MultiIndex) -> BiorthogonalityReport:
    """Evaluate sum_i sum_x B_n A_hat^{(i)}_m w_hat_i exactly against the 0/1/0 table."""
    n = MultiIndex.of(n)
    m = MultiIndex.of(m)
    if m.size == 0:
        raise ValueError("the pairing needs |m| >= 1")
    b = oracle_type2(params, n)
    comps = oracle_type1(params, m)
    jmax = n.size + max(m.entries)
    tables = _moment_tables(params, jmax)
    value = sum((t.pair((b * a).coeffs) for t, a in zip(tables, comps)), Fraction(0))
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

    ``type2_of(entries)`` supplies each B; ``values`` caches their values at
    the nodes 0, 1, ... by entries, for reuse across one parameter draw.  The
    residual's degree is below D, the largest coefficient length among x B_n
    and the shifted B's, so vanishing at 0..D-1 is exactly ``is_zero()``.  A
    shift n - s_j leaving N_0^p drops its term when b^j_n = 0; otherwise the
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
        cached = values.setdefault(m, [])
        cached.extend(b(t) for t in range(len(cached), nodes))
    b0, b_n = coeffs.b0[k - 1], values[n.entries]
    return all((t - b0) * b_n[t] + sum(c * values[m][t] for c, m in terms) == 0
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
