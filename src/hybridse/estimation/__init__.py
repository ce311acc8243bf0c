"""Estimation kernels: WLS, the normalized-residual test, regional WLAV and
the LP solver beneath it."""

from .lp import LpError, LpProblem, LpSolution, LpUnbounded, lp_solve
from .result import BadDataReport, EstimationError, EstimationResult, UnobservableError
from .wlav import BoundaryTerm, RegionalLp, build_regional_wlav_lp, solve_wlav_region
from .wls import ZERO_INJ_SIGMA, effective_sigma, lnr_substitute, lnr_test, solve_wls

__all__ = [
    "BadDataReport", "BoundaryTerm", "EstimationError", "EstimationResult",
    "LpError", "LpProblem", "LpSolution", "LpUnbounded",
    "RegionalLp", "UnobservableError", "ZERO_INJ_SIGMA",
    "build_regional_wlav_lp", "effective_sigma", "lnr_substitute", "lnr_test", "lp_solve",
    "solve_wlav_region", "solve_wls",
]
