import json
from fractions import Fraction as F

import pytest

from mopoly.errors import OutOfSupportError, ParameterError
from mopoly.exact import pochhammer, rat, rat_to_str
from mopoly.families import (
    Charlier,
    Hahn,
    Kravchuk,
    MeixnerI,
    MeixnerII,
    mass_cancellation,
    params_from_json,
    weight,
    weight_mass_token,
)
from mopoly.families.prefactors import PrefactorToken


def test_rational_wire_format():
    assert rat_to_str(F(15, 8)) == "15/8"
    assert rat_to_str(-3) == "-3/1"
    assert rat("5/7") == F(5, 7)
    assert rat(4) == F(4)


def test_at_condition_rejections():
    with pytest.raises(ParameterError):
        Hahn((F(1, 2), F(5, 2)), F(1, 3), 5)     # alpha difference 2 is an integer
    with pytest.raises(ParameterError):
        MeixnerII((F(1, 2), F(1, 2)), F(1, 3))
    with pytest.raises(ParameterError):
        MeixnerI(F(1, 2), (F(1, 3), F(1, 3)))
    with pytest.raises(ParameterError):
        Kravchuk((F(1, 2), F(3, 2)), 5)          # pi outside (0,1)
    with pytest.raises(ParameterError):
        Charlier((F(2), F(2)))
    with pytest.raises(ParameterError):
        Hahn((F(1, 2),), F(-3, 2), 5)            # beta <= -1


def test_json_round_trip():
    params = Hahn((F(1, 2), F(5, 7)), F(1, 3), 12)
    blob = params.to_json()
    assert blob == {"family": "hahn", "alpha": ["1/2", "5/7"], "beta": "1/3", "N": 12}
    assert params_from_json(json.loads(json.dumps(blob))) == params
    for p in (MeixnerII((F(1, 2),), F(1, 3)), MeixnerI(F(2), (F(1, 4), F(3, 4))),
              Kravchuk((F(1, 4),), 3), Charlier((F(5, 2),))):
        assert params_from_json(p.to_json()) == p
    # a field of the wrong shape is rejected, not read character by character
    with pytest.raises(ParameterError, match="a takes a list of values"):
        params_from_json({"family": "charlier", "a": "12"})
    with pytest.raises(ParameterError, match="beta takes one value"):
        params_from_json({"family": "hahn", "alpha": ["1/2"], "beta": ["1/3"], "N": 3})


def test_weight_values():
    assert weight(Charlier((2,)), 1, 3) == F(4, 3)              # a^x/x! = 8/6
    assert weight(Kravchuk((F(1, 2),), 2), 1, 1) == F(1, 2)     # 2*(1/2)(1/2)
    params = Hahn((F(5, 7),), F(2, 5), 6)
    assert weight(params, 1, 0) == pochhammer(params.beta + 1, 6) / 720
    with pytest.raises(OutOfSupportError):
        weight(params, 1, 7)
    with pytest.raises(OutOfSupportError):
        weight(params, 1, -1)


def test_mass_tokens():
    token, factor = weight_mass_token(Charlier((2,)), 1)
    assert token == PrefactorToken.exp_neg(2) and factor == 1
    token, factor = weight_mass_token(Kravchuk((F(1, 2),), 2), 1)
    assert token.kind == "one" and factor == 1
    # Hahn mass equals the direct finite sum
    params = Hahn((F(1, 2),), F(1, 2), 1)
    direct = weight(params, 1, 0) + weight(params, 1, 1)
    _, factor = weight_mass_token(params, 1)
    assert factor == direct
    # and for every finite case the Pochhammer closed form matches summation
    params = Hahn((F(3, 7), F(2, 3)), F(1, 5), 7)
    for i in (1, 2):
        _, factor = weight_mass_token(params, i)
        assert factor == sum(weight(params, i, x) for x in range(8))


def test_mass_cancellation_pairings():
    # Meixner second kind: (1-c)^{beta_i + |n| - 1} * m_0 = (1-c)^{|n|-1}
    params = MeixnerII((F(1, 2),), F(1, 3))
    pref = PrefactorToken.pow_one_minus_c(F(1, 3), F(1, 2) + 3)
    assert mass_cancellation(params, 1, pref) == (1 - F(1, 3)) ** 3
    params = Charlier((F(7, 2),))
    assert mass_cancellation(params, 1, PrefactorToken.exp_neg(F(7, 2))) == 1
    with pytest.raises(ValueError):
        mass_cancellation(params, 1, PrefactorToken.exp_neg(F(5, 2)))
