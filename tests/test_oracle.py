import random
import sys
import threading
from fractions import Fraction as F

import pytest

from mopoly.errors import InvalidShiftError, SingularSystemError
from mopoly.exact import (MultiIndex, Permutation, Poly, all_permutations, multi_indices,
                          step_sets)
from mopoly.families import Charlier, Hahn, Kravchuk, MeixnerI, MeixnerII, type1, type2, weight
from mopoly.families import closed_forms, recurrence
from mopoly.families.params import FAMILY_NAMES
from mopoly.families.weights import mass_cancellation
from mopoly.oracle import (
    OracleContext,
    check_biorthogonality,
    check_recurrence_identity,
    normalized_moments,
    oracle_nnrc,
    oracle_type1,
    oracle_type2,
    solve_exact,
)
from mopoly.oracle import reconstruct
from mopoly.oracle.adjudicate import run_adjudications
from mopoly.sampling import draw_params


def test_solver_round_trip():
    rng = random.Random(7)
    for size in (1, 2, 4, 6):
        for _ in range(5):
            a = [[F(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(size)]
                 for _ in range(size)]
            x = [F(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(size)]
            rhs = [sum(a[r][c] * x[c] for c in range(size)) for r in range(size)]
            try:
                got = solve_exact(a, rhs)
            except SingularSystemError:
                continue
            assert got == x


def test_solver_singular():
    with pytest.raises(SingularSystemError):
        solve_exact([[1, 2], [2, 4]], [1, 2])


def test_moment_tables():
    # mu_0 = 1 always; Charlier mu_2 = a^2 + a; Kravchuk falling moments
    t = normalized_moments(Charlier((3,)), 1, 2)
    assert t[0] == 1 and t[1] == 3 and t[2] == 12
    t = normalized_moments(Kravchuk((F(1, 2),), 4), 1, 2)
    assert t[0] == 1
    # power moment from direct finite summation
    params = Kravchuk((F(1, 2),), 4)
    direct = sum(F(x) ** 2 * weight(params, 1, x) for x in range(5))
    assert t[2] == direct
    # Hahn by finite summation is definitionally exact; cross-check one entry
    params = Hahn((F(2, 7),), F(1, 3), 5)
    t = normalized_moments(params, 1, 3)
    mass = sum(weight(params, 1, x) for x in range(6))
    assert t[3] == sum(F(x) ** 3 * weight(params, 1, x) for x in range(6)) / mass


def test_oracle_type2_basics():
    assert oracle_type2(Charlier((2,)), (1,)) == Poly([-2, 1])
    assert oracle_type2(Charlier((2,)), (0,)) == Poly.one()
    params = MeixnerII((F(1, 2), F(3, 2) + F(1, 7)), F(1, 3))
    n = MultiIndex.of((1, 1))
    assert oracle_type2(params, n) == type2(params, n)
    for wrong in ((1,), (1, 1, 1)):   # one entry per weight, no fewer, no more
        with pytest.raises(ValueError):
            oracle_type2(params, wrong)
        with pytest.raises(ValueError):
            oracle_type1(params, wrong)


def test_oracle_type2_orthogonality_direct():
    # the defining sums vanish over the full finite support
    params = Kravchuk((F(1, 3), F(3, 5)), 5)
    n = MultiIndex.of((2, 1))
    b = oracle_type2(params, n)
    for i in (1, 2):
        for j in range(n[i - 1]):
            total = sum(F(x) ** j * b(x) * weight(params, i, x) for x in range(6))
            assert total == 0


def test_oracle_type1_basics():
    comps = oracle_type1(Charlier((2,)), (1,))
    assert comps[0] == Poly.one()   # A_hat = m_0 * e^{-a} = 1
    params = Hahn((F(1, 2),), F(1, 3), 3)
    cf = type1(params, (2,), 1)
    scale = mass_cancellation(params, 1, cf.prefactor)
    assert cf.rational_part * scale == oracle_type1(params, (2,))[0]


def test_oracle_type1_orthogonality_direct():
    params = Kravchuk((F(1, 3), F(1, 2)), 4)
    n = MultiIndex.of((1, 1))
    comps = oracle_type1(params, n)
    mass = [sum(weight(params, i, x) for x in range(5)) for i in (1, 2)]
    for j in range(n.size):
        total = sum(comps[i - 1](x) * weight(params, i, x) / mass[i - 1] * F(x) ** j
                    for i in (1, 2) for x in range(5))
        assert total == (1 if j == n.size - 1 else 0)


def test_oracle_nnrc_values():
    coeffs = oracle_nnrc(Charlier((2,)), (3,))
    assert coeffs.b0 == (5,) and coeffs.bj == (6,)
    coeffs = oracle_nnrc(Kravchuk((F(1, 2),), 3), (1,))
    assert coeffs.b0 == (F(3, 2),)
    with pytest.raises(InvalidShiftError):
        oracle_nnrc(Charlier((2, 3)), (1, 0), Permutation.of((2, 1)))


def _nnrc_or_none(params, n, perm, **kwargs):
    try:
        return oracle_nnrc(params, n, perm, **kwargs)
    except InvalidShiftError:
        return None


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_oracle_nnrc_shared_context_matches_fresh(family):
    rng = random.Random(5)
    for p, n_max in ((1, 3), (2, 3), (3, 2)):
        params = draw_params(rng, family, p, n_max + 1)
        context = OracleContext(params)
        for n in multi_indices(p, n_max):
            for perm in all_permutations(p):
                assert (_nnrc_or_none(params, n, perm, context=context)
                        == _nnrc_or_none(params, n, perm))


def test_oracle_context_uses_no_closed_form(monkeypatch):
    rng = random.Random(9)
    draws = [draw_params(rng, family, 2, 4) for family in FAMILY_NAMES]
    n = MultiIndex.of((2, 1))
    perm = Permutation.of((2, 1))
    expected = [(oracle_type2(params, n), oracle_type1(params, n),
                 oracle_nnrc(params, n, perm)) for params in draws]

    def closed_form(*args, **kwargs):
        raise AssertionError("the oracle called a closed form")

    # every closed-form method of every family, and the public entry points
    for cls in (Hahn, MeixnerII, MeixnerI, Kravchuk, Charlier):
        for name in ("type2_coefficients", "weighted_pfq", "type1", "b0", "bj"):
            monkeypatch.setattr(cls, name, closed_form)
    monkeypatch.setattr(MeixnerI, "type1_alt", closed_form)
    for module, name in ((closed_forms, "type2"), (closed_forms, "type1"),
                         (recurrence, "nnrc"), (reconstruct, "type2"),
                         (reconstruct, "type1"), (reconstruct, "nnrc")):
        monkeypatch.setattr(module, name, closed_form, raising=False)
    for params, want in zip(draws, expected):
        context = OracleContext(params)
        assert (context.type2(n), context.type1(n),
                oracle_nnrc(params, n, perm, context=context)) == want
        assert context.type1((0, 0)) == [Poly.zero(), Poly.zero()]


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_pairing_matches_fraction_sum(family):
    # <x B_n, A_hat_m> = sum_i sum_r a_r sum_j b_j mu_i[j+1+r], summed in Fractions
    rng = random.Random(17)
    for p in (1, 2, 3):
        params = draw_params(rng, family, p, 5)
        context = OracleContext(params)
        perm = Permutation.identity(p)
        for n in multi_indices(p, 3):
            b = context.type2(n).coeffs
            neighbours = [n.add_unit(k) for k in range(1, p + 1)]
            neighbours += [n.shifted([-v for v in s]) for s in
                           (step_sets(perm, j)[0] for j in range(p))
                           if n.can_shift([-v for v in s])]
            for m in neighbours:
                tables = context.moments(n.size + 1 + max(m.entries))
                want = sum((a * sum((bj * mu[j + 1 + r] for j, bj in enumerate(b)), F(0))
                            for mu, comp in zip(tables, context.type1(m))
                            for r, a in enumerate(comp.coeffs)), F(0))
                assert context._pairing(n, m) == want


def test_oracle_context_rejects_other_params():
    context = OracleContext(Charlier((2,)))
    with pytest.raises(ValueError):
        oracle_nnrc(Charlier((3,)), (1,), context=context)


def test_oracle_context_extends_moment_tables_on_demand(monkeypatch):
    params = Charlier((2, F(7, 2)))
    context = OracleContext(params)
    short = context.moments(3)
    longer = context.moments(9)
    assert context.moments(5) is longer   # no regrowth within the table
    for i, (s, t) in enumerate(zip(short, longer), start=1):
        assert len(s) > 3 and len(t) > 9
        assert tuple(t[:10]) == normalized_moments(params, i, 9).moments
        assert s == t[:len(s)]

    calls = []
    original = Charlier.moments

    def counted(self, i, jmax):
        calls.append(i)
        return original(self, i, jmax)

    monkeypatch.setattr(Charlier, "moments", counted)
    params = Charlier((F(3, 2), F(5, 3), F(7, 4)))
    for n in ((3, 1, 2), (1, 4, 1)):
        calls.clear()
        oracle_nnrc(params, n, context=OracleContext(params))
        assert sorted(calls) == [1, 2, 3]


def test_oracle_is_safe_across_threads():
    # four threads (more than cores) solve the same draws, each with fresh
    # contexts and through one context per draw that all of them share, while
    # the interpreter switches between them every microsecond; at p = 2 and 3
    # they share one context over several (n, perm), so the path eliminations
    # of different step-lines fill overlapping keys concurrently
    draws = [(Charlier((F(k, 7),)), (2 + k % 5,)) for k in range(1, 150)]
    expected = [(oracle_type2(params, n), oracle_nnrc(params, n)) for params, n in draws]
    shared = [OracleContext(params) for params, _ in draws]
    multi = [(params, n, perm)
             for params in (Charlier((F(3, 2), F(17, 7), F(9, 4))),
                            Hahn((F(2, 7), F(8, 7)), F(1, 3), 12))
             for n in multi_indices(params.p, 4, min_size=2)
             for perm in all_permutations(params.p)]
    multi_expected = [_nnrc_or_none(params, n, perm) for params, n, perm in multi]
    multi_shared = {params: OracleContext(params) for params, _, _ in multi}
    errors, results = [], {}

    def solve(k):
        if k >= len(draws):
            params, n, perm = multi[k - len(draws)]
            return _nnrc_or_none(params, n, perm, context=multi_shared[params])
        params, n = draws[k]
        return (oracle_type2(params, n), oracle_nnrc(params, n),
                shared[k].type2(n), oracle_nnrc(params, n, context=shared[k]))

    def work(name, order):
        try:
            results[name] = {k: solve(k) for k in order}
        except Exception as exc:   # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        order = list(range(len(draws) + len(multi)))
        threads = [threading.Thread(target=work, args=(name, order[::step]))
                   for name, step in (("up", 1), ("down", -1), ("up2", 1), ("down2", -1))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for name in ("up", "down", "up2", "down2"):
        assert ([results[name][k] for k in range(len(order))]
                == [e + e for e in expected] + multi_expected)


def test_biorthogonality_three_cases():
    params = Charlier((2, F(7, 2)))
    n = MultiIndex.of((1, 1))
    assert check_biorthogonality(params, n, n).value == 0            # m = n
    assert check_biorthogonality(params, n, n.add_unit(1)).value == 1
    big = MultiIndex.of((2, 2))
    assert check_biorthogonality(params, n, big).value == 0          # |m| = |n| + 2


def test_recurrence_identity_type2_and_type1():
    params = Charlier((2,))
    assert check_recurrence_identity(params, MultiIndex.of((2,)),
                                     Permutation.identity(1), 1, "typeII")
    params = Kravchuk((F(2, 16), F(5, 16), F(8, 16)), 6)
    n = MultiIndex.of((1, 1, 1))
    assert check_recurrence_identity(params, n, Permutation.identity(3), 2, "typeII")
    params = Hahn((F(8, 7), F(2, 7)), F(1, 3), 9)
    n = MultiIndex.of((1, 1))
    for perm in (Permutation.of((1, 2)), Permutation.of((2, 1))):
        for k in (1, 2):
            assert check_recurrence_identity(params, n, perm, k, "typeII")
            assert check_recurrence_identity(params, n, perm, k, "typeI")


def test_recurrence_identity_rejects_bad_boundary():
    # (2,0) with the permutation that decrements the zero entry first has a
    # nonzero coefficient on an undefined neighbor
    params = Charlier((2, F(7, 2)))
    with pytest.raises(InvalidShiftError):
        check_recurrence_identity(params, MultiIndex.of((2, 0)),
                                  Permutation.of((2, 1)), 1, "typeII")


def test_adjudication_records():
    records = run_adjudications(0)
    by_q = {rec["question"][:20]: rec for rec in records}
    assert all("confirmed" in r["verdict"] or "validates" in r["verdict"]
               or "relaxed" in r["verdict"] for r in records)
    # the prefactor questions resolve for the boxed formulas with the
    # intermediate-display variants explicitly rejected
    for rec in records[:2]:
        assert rec["boxed_matches_oracle"] is True
        assert rec["display_variant_matches_oracle"] is False
