"""Seeded random rational parameter draws for the verification sweeps.

Every draw is reproducible from (seed, sweep spec).  Parameters are built
from small integer parts plus fractional offsets with denominators coprime to
small integers (7, 11, 13), which guarantees the AT conditions by
construction: distinct components differ by a non-integer, and values stay
clear of every closed-form denominator pole.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .families.params import Charlier, FamilyParams, Hahn, Kravchuk, MeixnerI, MeixnerII

# the sweep specs: multi-index sizes, draws per (family, p) and identity trials
SWEEPS = {
    "small": {"p_values": (1, 2), "n_max": 3, "draws": 4, "identity_trials": 40},
    "standard": {"p_values": (1, 2, 3), "n_max": 5, "draws": 25, "identity_trials": 200},
    "deep": {"p_values": (1, 2, 3), "n_max": 6, "draws": 40, "identity_trials": 400},
}

_DENOMS = (7, 11, 13)


def _offset(rng: random.Random, i: int, p: int) -> Fraction:
    d = rng.choice(_DENOMS)
    # distinct residues per component keep pairwise differences non-integer
    return Fraction(1 + (i * (d // 2 + 1)) % (d - 1), d)


def draw_params(rng: random.Random, family: str, p: int, size: int,
                n_slack: int = 4) -> FamilyParams:
    """One random valid parameter set; ``size`` bounds |n| for support sizing."""
    if family == "hahn":
        alpha = tuple(rng.randrange(0, 4) + _offset(rng, i, p) for i in range(p))
        beta = rng.randrange(0, 4) + Fraction(1, rng.choice(_DENOMS))
        return Hahn(alpha, beta, size + rng.randrange(0, n_slack + 1))
    if family == "meixner2":
        beta = tuple(rng.randrange(0, 4) + _offset(rng, i, p) for i in range(p))
        c = Fraction(rng.randrange(1, 13), 13)
        return MeixnerII(beta, c)
    if family == "meixner1":
        beta = rng.randrange(0, 4) + Fraction(1, rng.choice(_DENOMS))
        nums = rng.sample(range(1, 16), p)
        return MeixnerI(beta, tuple(Fraction(v, 16) for v in nums))
    if family == "kravchuk":
        nums = rng.sample(range(1, 16), p)
        return Kravchuk(tuple(Fraction(v, 16) for v in nums),
                        size + rng.randrange(0, n_slack + 1))
    if family == "charlier":
        base = rng.sample(range(1, 24), p)
        return Charlier(tuple(Fraction(v, 4) + _offset(rng, i, p)
                              for i, v in enumerate(base)))
    raise ValueError(f"unknown family {family!r}")


def rational(rng: random.Random, lo: int = 0, hi: int = 4,
             positive: bool = False) -> Fraction:
    """A generic small rational lo..hi plus a pole-safe fractional offset."""
    v = rng.randrange(lo, hi) + Fraction(1 + rng.randrange(0, 5), rng.choice(_DENOMS))
    if positive and v <= 0:
        v = -v + 1
    return v


def draw_params_moderate(rng: random.Random, family: str, p: int, size: int) -> FamilyParams:
    """Well-separated moderate parameters (|param| <= 10) for quadrature sweeps.

    Contour accuracy at a fixed node count depends on the clearance between
    pole clusters, so these draws keep the clusters comfortably apart and away
    from the stipulated half-plane and strip walls.
    """
    if family == "hahn":
        alpha = tuple(1 + i + Fraction(i + 1, 7) for i in range(p))
        beta = rng.randrange(0, 2) + Fraction(1, rng.choice(_DENOMS))
        return Hahn(alpha, beta, size + 3 + rng.randrange(0, 3))
    if family == "meixner2":
        beta = tuple(rng.randrange(1, 3) + i + 1 + Fraction(i + 1, 7) for i in range(p))
        c = Fraction(rng.randrange(4, 10), 13)
        return MeixnerII(beta, c)
    if family == "meixner1":
        start = rng.randrange(4, 6)
        return MeixnerI(rng.randrange(1, 3) + Fraction(1, 7),
                        tuple(Fraction(start + 3 * i, 16) for i in range(p)))
    if family == "kravchuk":
        start = rng.randrange(4, 6)
        return Kravchuk(tuple(Fraction(start + 3 * i, 16) for i in range(p)),
                        size + 3 + rng.randrange(0, 3))
    if family == "charlier":
        return Charlier(tuple(1 + 2 * i + Fraction(1 + i, 7) for i in range(p)))
    raise ValueError(f"unknown family {family!r}")
