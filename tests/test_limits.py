from fractions import Fraction as F

import pytest

from mopoly.analytic import (
    LimitSchedule,
    hermite_route_consistency,
    laguerre2_recurrence,
    limit_edge,
    richardson_selfcheck,
    stirling_ratio_check,
)
from mopoly.exact import MultiIndex, Permutation
from mopoly.families import Charlier, Kravchuk, MeixnerI, MeixnerII, nnrc


def test_schedule_validation():
    with pytest.raises(ValueError):
        LimitSchedule("k_c", (10, 100, 1000))           # too few points
    with pytest.raises(ValueError):
        LimitSchedule("k_c", (10, 20, 40, 80))          # under 3 decades


def test_kravchuk_to_charlier_coefficient_limit():
    # b0 at pi = a/N with a = 2, n = (3): (N-3)(2/N) + 3(1 - 2/N) -> 5 like 1/N
    a, n = F(2), (3,)
    target = nnrc(Charlier((a,)), n).b0[0]
    assert target == 5
    errs = []
    for N in (100, 1000, 10000):
        got = nnrc(Kravchuk((a / N,), N), n).b0[0]
        assert got == (N - 3) * (2 / F(N)) + 3 * (1 - 2 / F(N))
        errs.append(abs(float(got - target)))
    assert errs[0] / errs[1] == pytest.approx(10, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(10, rel=0.05)


def test_one_discrete_edge_full_report():
    sched = LimitSchedule("h_m2", (100, 1000, 10000, 100000),
                          x_probes=(0, 2), n_probes=((1, 1),))
    target = MeixnerII((F(3, 2), F(14, 5)), F(1, 3))
    for check in ("weight", "type2", "recurrence"):
        rep = limit_edge(sched, check, target)
        assert rep.passed, (check, rep.slope, rep.errors)
        assert -1.3 <= rep.slope <= -0.7


def test_hermite_weight_edge():
    sched = LimitSchedule("c_hermite", (100, 1000, 10000, 100000),
                          x_probes=(F(1, 2),))
    rep = limit_edge(sched, "weight", {"c": (F(1, 3), F(3, 2))})
    assert rep.passed


def test_laguerre2_recurrence_is_meixner_limit():
    # tau^{-(j+1)} b^{(M1),j}(alpha0 + 1, {tau/(tau+c_i)}) -> b^{(L2),j}
    alpha0 = F(1, 3)
    cs = (F(1, 2), F(5, 4))
    n = MultiIndex.of((2, 1))
    perm = Permutation.of((2, 1))
    b0, bj = laguerre2_recurrence(alpha0, cs, n, perm)
    tau = 10**7
    raw = nnrc(MeixnerI(alpha0 + 1, tuple(F(tau) / (tau + c) for c in cs)), n, perm)
    for k in range(2):
        assert abs(float(raw.b0[k] / tau - b0[k])) < 1e-5
    for j in range(1, 3):
        assert abs(float(raw.bj[j - 1] / F(tau) ** (j + 1) - bj[j - 1])) < 1e-5


def test_hermite_route_consistency_small():
    rep = hermite_route_consistency((F(1, 3), F(3, 2)), MultiIndex.of((1, 1)),
                                    scales=(100, 1000, 10000, 100000))
    assert rep.passed
    assert rep.pairwise_max < 1e-6
    # the Kravchuk and Charlier routes hit the same exact limits
    assert rep.limits["kravchuk"][0] == rep.limits["charlier"][0] == F(1, 6)


def test_gamma_ratio_functional_equation_is_exact():
    # Gamma(z+1) / (Gamma(z) z) = 1: |ratio - 1| stays at rounding level
    rep = stirling_ratio_check("gamma_ratio", (10, 100, 1000, 100000), a=1, b=1, c=0)
    assert max(rep.errors) < 1e-30


def test_gamma_asymptotics_slopes():
    sched = (100, 1000, 10000, 100000)
    assert stirling_ratio_check("stirling", sched).passed
    rep = stirling_ratio_check("gamma_ratio", sched, a=2, b=3, c=1)
    assert rep.passed
    rep = stirling_ratio_check("gamma_sqrt_shift", sched, x=1, y=2, z=0)
    assert rep.passed
    assert -0.8 <= rep.slope <= -0.2


@pytest.mark.parametrize("edge, target, n", [
    ("h_jp", {"alpha": (F(8, 7), F(16, 7)), "beta": F(1, 3)}, (1, 1)),
    ("m1_l2", {"alpha0": F(1, 3), "c": (F(1, 2), F(5, 4))}, (2, 1)),
], ids=["h_jp", "m1_l2"])
def test_richardson_selfcheck(edge, target, n):
    rep = richardson_selfcheck(edge, target, (100, 1000, 10000, 100000, 1000000), n)
    assert rep.passed, (rep.slope, rep.errors)
    assert len(rep.errors) == 4
