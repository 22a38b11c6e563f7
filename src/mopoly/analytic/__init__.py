from .contours import ContourSpec, QuadratureResult, quadrature, validate_enclosure
from .integrals import (
    ContourIntegral,
    closed_form_value,
    contour_quadrature,
    integral_representation,
)
from .limits import (
    CONTINUOUS_EDGES,
    DISCRETE_EDGES,
    ConvergenceReport,
    HermiteConsistencyReport,
    LimitSchedule,
    hermite_route_consistency,
    laguerre2_recurrence,
    limit_edge,
    richardson_selfcheck,
    stirling_ratio_check,
)
from .rodrigues import rodrigues_type1

__all__ = [
    "ContourSpec", "QuadratureResult", "quadrature", "validate_enclosure",
    "ContourIntegral", "closed_form_value", "contour_quadrature",
    "integral_representation",
    "CONTINUOUS_EDGES", "DISCRETE_EDGES", "ConvergenceReport",
    "HermiteConsistencyReport", "LimitSchedule", "hermite_route_consistency",
    "laguerre2_recurrence", "limit_edge", "richardson_selfcheck",
    "stirling_ratio_check",
    "rodrigues_type1",
]
