"""Parameter sets for the five discrete families, with AT-system validation.

Every family is a tagged union member carrying exact rational parameters:

* Hahn(alpha_1..alpha_p, beta, N)      support {0, ..., N}
* MeixnerII(beta_1..beta_p, c)         support N_0
* MeixnerI(beta, c_1..c_p)             support N_0
* Kravchuk(pi_1..pi_p, N)              support {0, ..., N}
* Charlier(a_1..a_p)                   support N_0

Validation rejects, at construction time, any parameter choice that breaks
the AT property (integer differences alpha_i - alpha_j or beta_i - beta_j,
repeated c_i / pi_i / a_i) or range condition, with a descriptive message
instead of a division by zero deep inside a formula.

JSON wire format (rationals as "num/den" strings, N as a plain integer):

    {"family": "hahn", "alpha": ["1/2", "5/7"], "beta": "1/3", "N": 12}
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParameterError
from ..exact.rationals import rat, rat_to_str


def _rat_tuple(values) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def _check_distinct(values, label):
    seen = {}
    for i, v in enumerate(values, start=1):
        if v in seen:
            raise ParameterError(f"{label}_{seen[v]} = {label}_{i} = {v} breaks the AT condition")
        seen[v] = i


def _check_no_integer_diff(values, label):
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if (values[i] - values[j]).denominator == 1:
                raise ParameterError(
                    f"{label}_{i+1} - {label}_{j+1} = {values[i] - values[j]} is an integer; "
                    "the AT condition requires non-integer differences"
                )


@dataclass(frozen=True)
class Hahn:
    alpha: tuple[Fraction, ...]
    beta: Fraction
    N: int

    family = "hahn"
    finite_support = True

    def __post_init__(self):
        object.__setattr__(self, "alpha", _rat_tuple(self.alpha))
        object.__setattr__(self, "beta", rat(self.beta))
        object.__setattr__(self, "N", int(self.N))
        if self.N < 0:
            raise ParameterError("N must be a non-negative integer")
        if any(a <= -1 for a in self.alpha) or self.beta <= -1:
            raise ParameterError("Hahn requires alpha_i > -1 and beta > -1")
        _check_no_integer_diff(self.alpha, "alpha")

    @property
    def p(self) -> int:
        return len(self.alpha)

    def to_json(self) -> dict:
        return {"family": self.family, "alpha": [rat_to_str(a) for a in self.alpha],
                "beta": rat_to_str(self.beta), "N": self.N}


@dataclass(frozen=True)
class MeixnerII:
    beta: tuple[Fraction, ...]
    c: Fraction

    family = "meixner2"
    finite_support = False

    def __post_init__(self):
        object.__setattr__(self, "beta", _rat_tuple(self.beta))
        object.__setattr__(self, "c", rat(self.c))
        if any(b <= 0 for b in self.beta):
            raise ParameterError("Meixner second kind requires beta_i > 0")
        if not 0 < self.c < 1:
            raise ParameterError("Meixner second kind requires 0 < c < 1")
        _check_no_integer_diff(self.beta, "beta")

    @property
    def p(self) -> int:
        return len(self.beta)

    def to_json(self) -> dict:
        return {"family": self.family, "beta": [rat_to_str(b) for b in self.beta],
                "c": rat_to_str(self.c)}


@dataclass(frozen=True)
class MeixnerI:
    beta0: Fraction
    c: tuple[Fraction, ...]

    family = "meixner1"
    finite_support = False

    def __post_init__(self):
        object.__setattr__(self, "beta0", rat(self.beta0))
        object.__setattr__(self, "c", _rat_tuple(self.c))
        if self.beta0 <= 0:
            raise ParameterError("Meixner first kind requires beta > 0")
        if any(not 0 < ci < 1 for ci in self.c):
            raise ParameterError("Meixner first kind requires 0 < c_i < 1")
        _check_distinct(self.c, "c")

    @property
    def p(self) -> int:
        return len(self.c)

    def to_json(self) -> dict:
        return {"family": self.family, "beta": rat_to_str(self.beta0),
                "c": [rat_to_str(ci) for ci in self.c]}


@dataclass(frozen=True)
class Kravchuk:
    p_success: tuple[Fraction, ...]
    N: int

    family = "kravchuk"
    finite_support = True

    def __post_init__(self):
        object.__setattr__(self, "p_success", _rat_tuple(self.p_success))
        object.__setattr__(self, "N", int(self.N))
        if self.N < 0:
            raise ParameterError("N must be a non-negative integer")
        if any(not 0 < q < 1 for q in self.p_success):
            raise ParameterError("Kravchuk requires 0 < pi_i < 1")
        _check_distinct(self.p_success, "pi")

    @property
    def p(self) -> int:
        return len(self.p_success)

    def to_json(self) -> dict:
        return {"family": self.family, "pi": [rat_to_str(q) for q in self.p_success],
                "N": self.N}


@dataclass(frozen=True)
class Charlier:
    a: tuple[Fraction, ...]

    family = "charlier"
    finite_support = False

    def __post_init__(self):
        object.__setattr__(self, "a", _rat_tuple(self.a))
        if any(ai <= 0 for ai in self.a):
            raise ParameterError("Charlier requires a_i > 0")
        _check_distinct(self.a, "a")

    @property
    def p(self) -> int:
        return len(self.a)

    def to_json(self) -> dict:
        return {"family": self.family, "a": [rat_to_str(ai) for ai in self.a]}


FamilyParams = Hahn | MeixnerII | MeixnerI | Kravchuk | Charlier

FAMILY_NAMES = ("hahn", "meixner2", "meixner1", "kravchuk", "charlier")


def params_from_json(obj: dict) -> FamilyParams:
    """Parse the JSON wire format back into a validated parameter object."""
    try:
        family = obj["family"]
    except KeyError:
        raise ParameterError("missing 'family' key") from None
    try:
        if family == "hahn":
            return Hahn(tuple(obj["alpha"]), obj["beta"], obj["N"])
        if family == "meixner2":
            return MeixnerII(tuple(obj["beta"]), obj["c"])
        if family == "meixner1":
            return MeixnerI(obj["beta"], tuple(obj["c"]))
        if family == "kravchuk":
            return Kravchuk(tuple(obj["pi"]), obj["N"])
        if family == "charlier":
            return Charlier(tuple(obj["a"]))
    except KeyError as exc:
        raise ParameterError(f"missing key {exc} for family {family!r}") from None
    raise ParameterError(f"unknown family {family!r}")
