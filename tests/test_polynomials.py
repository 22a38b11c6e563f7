import random
from fractions import Fraction as F

import pytest

from mopoly.exact import NEG_INF, Poly, expand_in_monomials, lagrange_interpolate, pochhammer
from mopoly.exact.polynomials import basis_poly


def test_zero_polynomial_degree_sentinel():
    assert Poly.zero().degree == NEG_INF
    assert Poly.zero().degree != -1
    assert Poly([0, 0]).is_zero()


def test_arithmetic_and_eval():
    p = Poly([1, 2, 3])           # 1 + 2x + 3x^2
    q = Poly([0, 1])
    assert (p + q).coeffs == (F(1), F(3), F(3))
    assert (p * q).coeffs == (F(0), F(1), F(2), F(3))
    assert p(F(1, 2)) == 1 + 1 + F(3, 4)
    assert (p - p).is_zero()
    assert p.derivative().coeffs == (F(2), F(6))
    assert Poly([0, -1]).leading() == -1


def test_lagrange_interpolation_exact():
    p = Poly([F(1, 3), -2, 0, F(5, 7)])
    pts = [(x, p(x)) for x in range(4)]
    assert lagrange_interpolate(pts) == p
    with pytest.raises(ValueError):
        lagrange_interpolate([(1, 1), (1, 2)])


def test_expand_basis_examples():
    assert expand_in_monomials([(1, ("neg_x", 1))]).coeffs == (F(0), F(-1))
    assert expand_in_monomials([(1, ("neg_x", 2))]).coeffs == (F(0), F(-1), F(1))
    assert expand_in_monomials([(1, ("shifted", F(1, 2), 2))]).coeffs == (F(3, 4), F(2), F(1))


def test_expand_matches_direct_term_evaluation():
    # expand_in_monomials . evaluate == direct term evaluation at random points
    rng = random.Random(3)
    terms = []
    for _ in range(6):
        coeff = F(rng.randrange(-9, 9), rng.randrange(1, 7))
        if rng.random() < 0.5:
            terms.append((coeff, ("neg_x", rng.randrange(0, 5))))
        else:
            shift = F(rng.randrange(-5, 6), rng.randrange(1, 5))
            terms.append((coeff, ("shifted", shift, rng.randrange(0, 5))))
    poly = expand_in_monomials(terms)
    for _ in range(10):
        x = F(rng.randrange(-30, 30), rng.randrange(1, 9))
        direct = F(0)
        for coeff, spec in terms:
            if spec[0] == "neg_x":
                direct += coeff * pochhammer(-x, spec[1])
            else:
                direct += coeff * pochhammer(x + spec[1], spec[2])
        assert poly(x) == direct


def test_expand_groups_like_terms_exactly():
    # repeated specs, including groups whose coefficients cancel, against the
    # term-by-term sum of scaled basis polynomials
    rng = random.Random(5)
    specs = [("neg_x", l) for l in range(5)] + [("shifted", F(1, 3), l) for l in range(4)]
    terms = []
    for _ in range(40):
        terms.append((F(rng.randrange(-9, 10), rng.randrange(1, 7)), rng.choice(specs)))
    terms += [(F(5, 2), ("neg_x", 6)), (F(-5, 2), ("neg_x", 6)),
              (3, ("shifted", 2, 3)), (F(-3), ("shifted", F(2), 3))]
    direct = Poly.zero()
    for coeff, spec in terms:
        direct = direct + basis_poly(spec) * F(coeff)
    assert expand_in_monomials(terms) == direct
    assert expand_in_monomials([(1, ("neg_x", 3)), (-1, ("neg_x", 3))]).is_zero()
