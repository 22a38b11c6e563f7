"""Every family's moment table against the direct construction, exactly.

The reference builds mu_j the long way: each normalized factorial moment f_k
from its own Pochhammer or falling factorial, then the Stirling transform
mu_j = sum_k S(j, k) f_k term by term; for Hahn, the power sums of the
weights over the support divided by their mass.  The pinned digest covers a
fixed grid of tables, so any change to a table shows.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from mopoly.exact.combinatorics import falling_factorial, pochhammer, stirling2
from mopoly.exact.rationals import rat_to_str
from mopoly.families.params import Charlier, Hahn, Kravchuk, MeixnerI, MeixnerII
from mopoly.sampling import draw_params


def factorial_moment(params, i, k):
    """f_k = sum_x (x)_k-falling w_i(x) / m_0, the family's printed closed form."""
    if isinstance(params, Charlier):
        return params.a[i - 1] ** k
    if isinstance(params, MeixnerI):
        c = params.c[i - 1]
        return pochhammer(params.beta0, k) * (c / (1 - c)) ** k
    if isinstance(params, MeixnerII):
        c = params.c
        return pochhammer(params.beta[i - 1], k) * (c / (1 - c)) ** k
    return falling_factorial(params.N, k) * params.p_success[i - 1] ** k


def reference_moments(params, i, jmax):
    if isinstance(params, Hahn):
        support = range(params.N + 1)
        mass = sum(params.weight(i, x) for x in support)
        return [sum(F(x) ** j * params.weight(i, x) for x in support) / mass
                for j in range(jmax + 1)]
    facts = [factorial_moment(params, i, k) for k in range(jmax + 1)]
    return [sum((stirling2(j, k) * facts[k] for k in range(j + 1)), F(0))
            for j in range(jmax + 1)]


def assert_tables_match(params, jmax):
    for i in range(1, params.p + 1):
        got = params.moments(i, jmax)
        assert all(isinstance(m, F) for m in got)
        assert got == reference_moments(params, i, jmax), (params, i)


@pytest.mark.parametrize("family", ["hahn", "meixner2", "meixner1", "kravchuk", "charlier"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_seeded_draws_match_reference(family, p):
    rng = random.Random(8 * p + len(family))
    for jmax in (0, 1, 7, 23, 40):
        assert_tables_match(draw_params(rng, family, p, size=rng.randrange(2, 12)), jmax)


@pytest.mark.parametrize("params", [
    Hahn((F(1, 2), F(12, 7)), F(2, 13), 0),
    Hahn((F(1, 2),), F(1, 3), 4),
    Kravchuk((F(1, 16), F(15, 16)), 0),
    Kravchuk((F(3, 16), F(1, 2)), 5),
], ids=lambda params: f"{params.family}-N{params.N}")
def test_finite_support_beyond_n(params):
    # mu_j for j > N: the power sums keep growing while the factorial
    # moments vanish past k = N
    assert_tables_match(params, 3 * params.N + 12)


@pytest.mark.parametrize("c", [F(1, 16), F(15, 16)])
def test_c_near_the_ends(c):
    assert_tables_match(MeixnerI(F(5, 7), (c, F(1, 2))), 30)
    assert_tables_match(MeixnerII((F(1, 11), F(5, 3)), c), 30)
    assert_tables_match(Kravchuk((c, F(7, 16)), 9), 30)


# A fixed grid of parameters; its tables hash to the digest below, captured
# from the direct construction.
GRID = [
    Charlier((F(1, 3),)),
    Charlier((F(5, 2), F(7, 11))),
    Charlier((F(9, 4), F(1, 13), F(17, 2))),
    MeixnerI(F(1, 7), (F(1, 16),)),
    MeixnerI(F(22, 7), (F(15, 16), F(3, 16))),
    MeixnerI(F(1, 2), (F(5, 16), F(9, 16), F(13, 16))),
    MeixnerII((F(3, 7),), F(1, 13)),
    MeixnerII((F(1, 11), F(27, 11)), F(12, 13)),
    MeixnerII((F(2, 13), F(9, 7), F(40, 13)), F(1, 2)),
    Kravchuk((F(1, 16),), 3),
    Kravchuk((F(15, 16), F(7, 16)), 12),
    Kravchuk((F(1, 3), F(2, 5), F(3, 7)), 30),
    Hahn((F(1, 2),), F(1, 3), 2),
    Hahn((F(-1, 2), F(5, 7)), F(2, 11), 11),
    Hahn((F(3, 7), F(11, 5), F(30, 13)), F(-2, 3), 25),
]
GRID_DIGEST = "00ccaca241c4e7551ad652a9127c4574172c3d78c8848f06e8d6ece866bb0d2f"


def test_grid_digest():
    lines = []
    for params in GRID:
        for i in range(1, params.p + 1):
            table = params.moments(i, 36)
            lines.append(json.dumps(params.to_json(), sort_keys=True) + f" {i} "
                         + ",".join(rat_to_str(m) for m in table))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GRID_DIGEST
