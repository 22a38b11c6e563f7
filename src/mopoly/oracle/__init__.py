from .linsolve import solve_exact
from .moments import MomentTable, normalized_moments, validate_closed_form
from .reconstruct import (
    BiorthogonalityReport,
    OracleContext,
    check_biorthogonality,
    check_recurrence_identity,
    oracle_nnrc,
    oracle_type1,
    oracle_type2,
)

__all__ = [
    "solve_exact",
    "MomentTable", "normalized_moments", "validate_closed_form",
    "BiorthogonalityReport", "check_biorthogonality", "check_recurrence_identity",
    "OracleContext", "oracle_nnrc", "oracle_type1", "oracle_type2",
]
