"""Exact rational scalars and their wire format.

The ground ring for every closed form and oracle computation is the field of
rationals, carried by ``fractions.Fraction`` (always in lowest terms, positive
denominator, exact arithmetic).  Wherever a rational crosses a module or CLI
boundary it is serialized as the string ``"num/den"``, e.g. ``"15/8"`` or
``"-3/1"``.

Hot loops that would pay a gcd on every ``Fraction`` add and multiply instead
take a vector over one denominator (``over_lcm``), run in integers and divide
once at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rat(value) -> Fraction:
    """Coerce ints, Fractions or 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_to_str(q) -> str:
    """Serialize a rational as 'num/den' with den >= 1 (always includes /den)."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def over_lcm(values) -> tuple[int, list[int]]:
    """(d, ints) with values[i] == ints[i] / d, d the lcm of the denominators.

    ``values`` are ints or Fractions; d is 1 for an empty sequence.
    """
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]
