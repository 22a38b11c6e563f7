from fractions import Fraction as F

import pytest

from mopoly.analytic.rodrigues import rodrigues_type1
from mopoly.errors import UnsupportedRepresentationError
from mopoly.exact import Poly, multi_indices
from mopoly.families import Charlier, Kravchuk, MeixnerI, MeixnerII, type1
from mopoly.sampling import draw_params
import random


def test_charlier_first_orders():
    params = Charlier((2,))
    r = rodrigues_type1(params, (1,), 1)
    assert r.rational_part == Poly.one()
    assert r.prefactor.kind == "exp_neg" and r.prefactor.base == 2
    # one derivative of e^{-a} a^x, compared pointwise against the closed form
    r2 = rodrigues_type1(params, (2,), 1)
    cf = type1(params, (2,), 1)
    assert r2.rational_part == cf.rational_part
    for x in range(4):
        assert r2.rational_part(x) == cf.rational_part(x)


def test_kravchuk_worked_case():
    params = Kravchuk((F(1, 3), F(1, 2)), 4)
    r = rodrigues_type1(params, (2, 1), 1)
    cf = type1(params, (2, 1), 1)
    assert r.prefactor == cf.prefactor
    assert r.rational_part == cf.rational_part


def test_meixner1_prefactor_and_body():
    params = MeixnerI(F(3, 2), (F(1, 4), F(2, 3)))
    for n, i in (((2, 1), 1), ((1, 2), 2), ((3, 1), 1)):
        r = rodrigues_type1(params, n, i)
        cf = type1(params, n, i)
        assert r.prefactor == cf.prefactor
        assert r.rational_part == cf.rational_part


def test_exactness_sweep():
    # derivative orders up to 5 (n_i <= 6) for p <= 2, up to 2 for p = 3
    rng = random.Random(41)
    for family in ("meixner1", "kravchuk", "charlier"):
        for p in (1, 2, 3):
            params = draw_params(rng, family, p, 6)
            for n in multi_indices(p, 6 if p <= 2 else 3, min_size=1):
                for i in range(1, p + 1):
                    if n[i - 1] == 0:
                        continue
                    r = rodrigues_type1(params, n, i)
                    cf = type1(params, n, i)
                    assert r.prefactor == cf.prefactor
                    assert r.rational_part == cf.rational_part


def test_zero_component_and_unsupported():
    params = Charlier((2, 3))
    assert rodrigues_type1(params, (1, 0), 2).rational_part.is_zero()
    with pytest.raises(UnsupportedRepresentationError):
        rodrigues_type1(MeixnerII((F(1, 2),), F(1, 3)), (1,), 1)
