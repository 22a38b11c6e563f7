import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mopoly.exact import NEG_INF, Poly, expand_in_monomials, lagrange_interpolate, pochhammer


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


def basis_poly(spec) -> Poly:
    """(-x)_l for ("neg_x", l), (x + s)_l for ("shifted", s, l), factor by factor."""
    if spec[0] == "neg_x":
        factors = [Poly([k, -1]) for k in range(spec[1])]
    else:
        factors = [Poly([F(spec[1]) + k, 1]) for k in range(spec[2])]
    out = Poly.one()
    for f in factors:
        out = out * f
    return out


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


def fraction_expand(terms) -> Poly:
    """The nested multiplication of ``expand_in_monomials`` in Fraction arithmetic."""
    families = {}
    for coeff, spec in terms:
        coeffs = families.setdefault(spec[:-1], {})
        coeffs[spec[-1]] = coeffs.get(spec[-1], 0) + F(coeff)
    total = Poly.zero()
    for family, coeffs in families.items():
        shift, sign = (F(0), -1) if family == ("neg_x",) else (F(family[1]), 1)
        acc = []
        for l in range(max(coeffs), -1, -1):
            nxt = [(shift + l) * c for c in acc] + [F(0)]
            for k, c in enumerate(acc):
                nxt[k + 1] += sign * c
            nxt[0] += coeffs.get(l, 0)
            acc = nxt
        total = total + Poly(acc)
    return total


# large pairwise coprime denominators, so the integer path's lcms and powers
# of the shift's denominator grow far beyond machine words
_DENOMINATORS = (1, 2, 3, 2**31 - 1, 2**61 - 1, 10**9 + 7, 3**40, 5**27)
_rationals = st.builds(F, st.integers(-10**30, 10**30), st.sampled_from(_DENOMINATORS))
_specs = st.one_of(
    st.tuples(st.just("neg_x"), st.integers(0, 7)),
    st.tuples(st.just("shifted"),
              st.one_of(st.sampled_from((F(1, 2**61 - 1), F(-7, 3**40))), _rationals),
              st.integers(0, 7)))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.lists(st.tuples(_rationals, _specs), max_size=10))
def test_expand_matches_fraction_nested_multiplication(terms):
    assert expand_in_monomials(terms) == fraction_expand(terms)
