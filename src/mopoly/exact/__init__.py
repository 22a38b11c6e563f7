from .combinatorics import (
    binomial,
    factorial,
    falling_factorial,
    is_nonpositive_int,
    pochhammer,
    stirling2,
)
from .hypergeometric import eval_pfq_terminating
from .identities import IDENTITY_NAMES, IdentityReport, hahn_sum_coefficient, verify_identity
from .indices import MultiIndex, Permutation, all_permutations, multi_indices, step_sets
from .polynomials import NEG_INF, Poly, expand_in_monomials, lagrange_interpolate
from .rationals import rat, rat_to_str

__all__ = [
    "binomial", "factorial", "falling_factorial", "is_nonpositive_int",
    "pochhammer", "stirling2",
    "eval_pfq_terminating",
    "IDENTITY_NAMES", "IdentityReport", "hahn_sum_coefficient", "verify_identity",
    "MultiIndex", "Permutation", "all_permutations", "multi_indices", "step_sets",
    "NEG_INF", "Poly", "expand_in_monomials", "lagrange_interpolate",
    "rat", "rat_to_str",
]
