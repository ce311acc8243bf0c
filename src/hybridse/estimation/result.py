"""Common result types for the estimation kernels."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EstimationError(RuntimeError):
    pass


class UnobservableError(EstimationError):
    """The measurement set does not pin down the state; names the rank gap."""

    def __init__(self, rank: int, n_states: int, scope: str = ""):
        where = f" in {scope}" if scope else ""
        super().__init__(f"unobservable{where}: weighted Jacobian rank {rank} < {n_states}")
        self.rank = rank
        self.n_states = n_states


@dataclass
class EstimationResult:
    v: dict[int, float]
    theta: dict[int, float]
    conv_vars: dict[tuple[str, int], float]
    residuals: np.ndarray            # z - h(x) per model row
    objective: float
    iterations: int
    converged: bool
    meas_indices: list[int] = field(default_factory=list)
    x: np.ndarray | None = None


@dataclass
class BadDataReport:
    flagged: list[tuple[int, float]]     # (global measurement index, normalized residual)
    cycles: int
    untestable: list[int] = field(default_factory=list)
