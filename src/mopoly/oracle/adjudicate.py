"""Adjudication of ambiguous printed formulas against the moment oracle.

Several printed statements admit two readings (boxed formula vs. the
derivation's intermediate display) or carry stipulations the numbers
contradict (contour orientations, strip constraints, the x-range of one
type II integral).  Each record below states the question, the variant the
oracle confirms, and concrete evidence; nothing is silently patched -- the
closed-form modules implement the confirmed reading and this module keeps
the audit trail.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..exact.combinatorics import pochhammer
from ..exact.indices import MultiIndex, Permutation
from ..families.closed_forms import type1
from ..families.weights import mass_cancellation
from ..sampling import draw_params
from .reconstruct import check_recurrence_identity, oracle_type1


def _first_mismatch_case():
    """A p = 2 case with n_i >= 2, where the two prefactor variants differ."""
    return MultiIndex.of((2, 1)), 1


def _prefactor_adjudication(seed: int, family: str, question: str, variant_ratio) -> dict:
    """The boxed type I prefactor vs a derivation display's variant, against the oracle.

    ``variant_ratio(params, n, i)`` is the variant's prefactor over the boxed one.
    """
    rng = random.Random(seed)
    n, i = _first_mismatch_case()
    params = draw_params(rng, family, 2, n.size)
    printed = type1(params, n, i)
    scale = mass_cancellation(params, i, printed.prefactor)
    oracle = oracle_type1(params, n)[i - 1]
    printed_ok = printed.rational_part * scale == oracle
    ratio = variant_ratio(params, n, i)
    variant_ok = printed.rational_part * ratio * scale == oracle
    return {
        "question": question,
        "verdict": "boxed formula confirmed" if printed_ok and not variant_ok else "unresolved",
        "boxed_matches_oracle": printed_ok,
        "display_variant_matches_oracle": variant_ok,
        "evidence": {"params": params.to_json(), "n": list(n.entries), "i": i},
    }


def adjudicate_kravchuk_type1_prefactor(seed: int = 0) -> dict:
    # intermediate-display variant: (-N)_{|n|-1} pi_i^{n_i-1} in place of (-N)_{|n|-n_i}
    return _prefactor_adjudication(
        seed, "kravchuk", "kravchuk type I prefactor: boxed (-N)_{|n|-n_i} vs the "
                          "derivation display's (-N)_{|n|-1} pi_i^{n_i-1}",
        lambda params, n, i: (pochhammer(Fraction(-params.N), n.size - n[i - 1])
                              / (pochhammer(Fraction(-params.N), n.size - 1)
                                 * params.p_success[i - 1] ** (n[i - 1] - 1))))


def adjudicate_meixner1_type1_prefactor(seed: int = 0) -> dict:
    # intermediate-display variant: (beta)_{|n|-1} in place of (beta)_{|n|-n_i}
    return _prefactor_adjudication(
        seed, "meixner1", "first-kind Meixner type I prefactor: boxed (beta)_{|n|-n_i} vs "
                          "the derivation display's (beta)_{|n|-1}",
        lambda params, n, i: (pochhammer(params.beta0, n.size - n[i - 1])
                              / pochhammer(params.beta0, n.size - 1)))


def adjudicate_type1_recurrence_subscripts(seed: int = 0) -> dict:
    """The type I relation's coefficient subscripts b^j_{n+s_{j-1}}, as printed."""
    rng = random.Random(seed)
    trials = 0
    for family in ("charlier", "kravchuk", "meixner1"):
        params = draw_params(rng, family, 2, 4)
        for n in [(1, 1), (2, 1), (1, 2)]:
            n = MultiIndex.of(n)
            for perm in (Permutation.of((1, 2)), Permutation.of((2, 1))):
                for k in (1, 2):
                    if n[k - 1] < 1:
                        continue
                    if not check_recurrence_identity(params, n, perm, k, "typeI"):
                        return {
                            "question": "type I nearest-neighbor relation subscripts "
                                        "b^j_{n+s_{j-1}} as printed",
                            "verdict": "mismatch found",
                            "evidence": {"family": family, "n": list(n.entries),
                                         "perm": list(perm.image), "k": k},
                        }
                    trials += 1
    return {
        "question": "type I nearest-neighbor relation subscripts b^j_{n+s_{j-1}} "
                    "as printed",
        "verdict": "printed subscripts confirmed",
        "evidence": {"exact_trials_passed": trials},
    }


def static_adjudications() -> list[dict]:
    """Records established by the integral and Rodrigues validation suites."""
    return [
        {
            "question": "orientation of the type I contours (all five families) and of "
                        "the first-kind Meixner / Charlier type II contours, printed "
                        "as clockwise",
            "verdict": "counterclockwise confirmed",
            "evidence": "with the printed clockwise orientation every such integral "
                        "equals the negative of the closed form; traversed "
                        "counterclockwise all ten representations match closed forms "
                        "to < 1e-8 relative (the drawn contour figures are themselves "
                        "counterclockwise)",
        },
        {
            "question": "sign of the Rodrigues-type formulas (first-kind Meixner, "
                        "Kravchuk, Charlier)",
            "verdict": "opposite sign confirmed",
            "evidence": "the printed formulas inherit the clockwise orientation and "
                        "equal minus the closed forms; with the residue-theorem "
                        "(counterclockwise) sign the parameter derivatives equal the "
                        "closed forms exactly, coefficient by coefficient",
        },
        {
            "question": "first-kind Meixner type II integral stated for x in N: "
                        "is x = 0 included?",
            "verdict": "x = 0 validates",
            "evidence": "at x = 0 the counterclockwise integral reproduces the closed "
                        "form to the same accuracy as x >= 1",
        },
        {
            "question": "Charlier contours stipulated inside the strip 0 < Re < 1, "
                        "which cannot enclose a_j >= 1 (type I) or the origin (type II)",
            "verdict": "strip constraint unsatisfiable; relaxed",
            "evidence": "the type I contour is taken in Re(t) > 0 around {a_j}; the "
                        "type II integrand is entire except s = 0, so any circle "
                        "around the origin works",
        },
    ]


def run_adjudications(seed: int = 0) -> list[dict]:
    return [
        adjudicate_kravchuk_type1_prefactor(seed),
        adjudicate_meixner1_type1_prefactor(seed),
        adjudicate_type1_recurrence_subscripts(seed),
        *static_adjudications(),
    ]
