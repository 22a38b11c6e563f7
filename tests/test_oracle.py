import random
from fractions import Fraction as F

import pytest

from mopoly.errors import InvalidShiftError, SingularSystemError
from mopoly.exact import MultiIndex, Permutation, Poly, all_permutations, multi_indices
from mopoly.families import Charlier, Hahn, Kravchuk, MeixnerI, MeixnerII, type1, type2, weight
from mopoly.families.params import FAMILY_NAMES
from mopoly.families.weights import mass_cancellation
from mopoly.oracle import (
    MomentTable,
    OracleContext,
    check_biorthogonality,
    check_recurrence_identity,
    normalized_moments,
    oracle_nnrc,
    oracle_type1,
    oracle_type2,
    solve_exact,
)
from mopoly.oracle import moments, reconstruct
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
    params = draw_params(random.Random(9), "hahn", 2, 4)
    n = MultiIndex.of((2, 1))
    perm = Permutation.of((2, 1))
    expected = (oracle_type2(params, n), oracle_type1(params, n),
                oracle_nnrc(params, n, perm))

    def closed_form(*args, **kwargs):
        raise AssertionError("the oracle called a closed form")

    for name in ("type2", "type1", "nnrc"):
        monkeypatch.setattr(reconstruct, name, closed_form, raising=False)
    context = OracleContext(params)
    assert (context.type2(n), context.type1(n),
            oracle_nnrc(params, n, perm, context=context)) == expected
    assert context.type1((0, 0)) == [Poly.zero(), Poly.zero()]


def test_oracle_context_rejects_other_params():
    context = OracleContext(Charlier((2,)))
    with pytest.raises(ValueError):
        oracle_nnrc(Charlier((3,)), (1,), context=context)


def test_moment_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(moments, "_MOMENT_CACHE_SIZE", 2)
    monkeypatch.setattr(moments, "_MOMENT_CACHE", {})
    first, second, third = Charlier((2,)), Charlier((3,)), Charlier((5,))
    table = normalized_moments(first, 1, 4)
    normalized_moments(second, 1, 4)
    normalized_moments(first, 1, 2)          # first is now the most recent
    normalized_moments(third, 1, 4)          # evicts second
    assert list(moments._MOMENT_CACHE) == [(first, 1), (third, 1)]
    assert normalized_moments(first, 1, 20)[:5] == table.moments   # extended on demand
    assert normalized_moments(second, 1, 4) == MomentTable(1, (1, 3, 12, 57, 309))
    assert len(moments._MOMENT_CACHE) == 2


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
