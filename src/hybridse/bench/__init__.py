"""Experiment harness: scenarios, Monte-Carlo evaluation, metrics."""

from .metrics import MetricsRow, aggregate_rows, compute_metrics
from .montecarlo import (BenchResult, RunContext, RunRecord, RunsFailedError,
                         prepare_context, run_estimator, run_montecarlo, run_single)
from .scenario import METHODS, Scenario, ScenarioError, load_scenario

__all__ = [
    "BenchResult", "METHODS", "MetricsRow", "RunContext", "RunRecord",
    "RunsFailedError", "Scenario", "ScenarioError", "aggregate_rows", "compute_metrics",
    "load_scenario", "prepare_context", "run_estimator", "run_montecarlo",
    "run_single",
]
