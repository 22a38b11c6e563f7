"""The registry of the five discrete families and their JSON wire format.

Hahn, MeixnerII, MeixnerI, Kravchuk and Charlier are frozen parameter
classes with exact rational parameters, one module each.  Construction
rejects any parameter choice that breaks the AT property (integer
differences alpha_i - alpha_j or beta_i - beta_j, repeated c_i / pi_i / a_i)
or a range condition, with a descriptive message instead of a division by
zero deep inside a formula.

JSON wire format (rationals as "num/den" strings, N as a plain integer):

    {"family": "hahn", "alpha": ["1/2", "5/7"], "beta": "1/3", "N": 12}
"""

from __future__ import annotations

from ..errors import ParameterError
from .charlier import Charlier
from .hahn import Hahn
from .kravchuk import Kravchuk
from .meixner1 import MeixnerI
from .meixner2 import MeixnerII

FamilyParams = Hahn | MeixnerII | MeixnerI | Kravchuk | Charlier

FAMILIES = {cls.family: cls for cls in (Hahn, MeixnerII, MeixnerI, Kravchuk, Charlier)}

FAMILY_NAMES = tuple(FAMILIES)


def params_from_json(obj: dict) -> FamilyParams:
    """Parse the JSON wire format back into a validated parameter object."""
    try:
        family = obj["family"]
    except KeyError:
        raise ParameterError("missing 'family' key") from None
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ParameterError(f"unknown family {family!r}")
    try:
        return cls.from_json(obj)
    except KeyError as exc:
        raise ParameterError(f"missing key {exc} for family {family!r}") from None
