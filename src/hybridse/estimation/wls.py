"""Gauss-Newton weighted least squares and the normalized-residual test.

Both work on the weighted Jacobian A = W^(1/2) J through its Householder QR
factorization A = QR, never through the gain matrix G = A^T A = R^T R: the
zero-injection rows carry a weight of 1/ZERO_INJ_SIGMA^2 = 1e12, and forming
G would square A's condition number (Abur & Exposito, Power System State
Estimation, 2004, ch. 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..telemetry import SOURCE_VIRTUAL_ZERO
from .result import BadDataReport, EstimationResult, UnobservableError

ZERO_INJ_SIGMA = 1e-6
_GN_MAX_ITER = 50           # Gauss-Newton iterations per solve
_LNR_MAX_CYCLES = 5         # removals or substitutions per bad-data test
REMOVABLE_SOURCES = ("scada", "smart_meter", "pseudo", "dnn")


def effective_sigma(model) -> np.ndarray:
    """Measurement sigmas with exact-zero rows pinned to a tight weight."""
    sigma = np.asarray(model.sigma, dtype=float).copy()
    for i, src in enumerate(model.sources):
        if src == SOURCE_VIRTUAL_ZERO:
            sigma[i] = ZERO_INJ_SIGMA
    return sigma


def _qr_step(a: np.ndarray, rhs: np.ndarray, scope: str = "") -> np.ndarray:
    """Least-squares solution of ``a @ dx = rhs`` by Householder QR.

    ``a`` counts as rank deficient when a diagonal entry of R is at most
    max|diag R| * max(m, n) * eps, the scale of lstsq's default cutoff; the
    UnobservableError then reports the SVD rank of ``a``.
    """
    m, n = a.shape
    q, r = np.linalg.qr(a)
    d = np.abs(np.diag(r))
    if m < n or not np.all(d > d.max() * max(m, n) * np.finfo(float).eps):
        raise UnobservableError(int(np.linalg.matrix_rank(a)), n, scope=scope)
    return np.linalg.solve(r, q.T @ rhs)


def _residual_variance(jac: np.ndarray, a: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Diagonal of the residual covariance Omega = R_z - J G^-1 J^T.

    With ``a`` the weighted Jacobian and R its QR factor, G = R^T R, so
    Omega_ii = sigma_i^2 - ||R^-T J_i^T||^2 with J_i the unweighted row.
    Raises LinAlgError when R is singular.
    """
    r = np.linalg.qr(a, mode="r")
    y = np.linalg.solve(r.T, jac.T)
    return sigma * sigma - np.einsum("ij,ij->j", y, y)


def solve_wls(model, x0: np.ndarray | None = None, tol: float = 1e-6,
              weight_overrides: dict[int, float] | None = None) -> EstimationResult:
    """Iterate Gauss-Newton until max |dx| < tol, with step halving.

    Each step solves W^(1/2) J dx = W^(1/2) (z - h(x)) by Householder QR, and
    each accepted step evaluates h once.  ``weight_overrides`` maps row index
    to an explicit weight (used for boundary penalty rows whose weight is a
    multiplier, not 1/sigma^2).  Raises UnobservableError when the weighted
    Jacobian is rank deficient.
    """
    t0 = time.perf_counter()
    sigma = effective_sigma(model)
    w = 1.0 / (sigma * sigma)
    if weight_overrides:
        for i, wi in weight_overrides.items():
            w[i] = wi
    sw = np.sqrt(w)
    z = model.z

    x = model.x0() if x0 is None else np.asarray(x0, dtype=float).copy()

    def objective(xv):
        r = z - model.h(xv)
        return float(w @ (r * r)), r

    obj, r = objective(x)
    converged = False
    it = 0
    for it in range(1, _GN_MAX_ITER + 1):
        h, jac = model.h_jac(x)
        a = jac * sw[:, None]
        rhs = (z - h) * sw
        dx = _qr_step(a, rhs, scope=model.scope)

        step = 1.0
        for _ in range(10):
            trial = x + step * dx
            trial_obj, trial_r = objective(trial)
            if trial_obj <= obj + 1e-12:
                break
            step *= 0.5
        else:
            break  # no improving step: treat as stalled
        x, obj, r = trial, trial_obj, trial_r
        if np.abs(step * dx).max() < tol:
            converged = True
            break

    v, theta, conv = model.extract_state(x)
    result = EstimationResult(scope=model.scope, v=v, theta=theta,
                              conv_vars=conv, residuals=r,
                              objective=obj, iterations=it, converged=converged,
                              wall_time=time.perf_counter() - t0,
                              meas_indices=list(model.meas_indices))
    result.x = x
    return result


@dataclass
class _NrOutcome:
    report: BadDataReport
    result: EstimationResult
    model: object
    replaced: dict[int, float]          # global meas index -> substituted value


def lnr_test(model, result: EstimationResult | None = None, threshold: float = 3.0,
             interpolate: bool = False) -> _NrOutcome:
    """Largest-normalized-residual bad-data cycle.

    Solves, normalizes residuals by sqrt of their covariance
    Omega = R_z - J G^-1 J^T, taken from the QR factor of the weighted
    Jacobian at each cycle's state (``_residual_variance``), and removes (or,
    with ``interpolate=True``, substitutes with the model-implied value) the
    worst offender above the threshold, repeating up to ``_LNR_MAX_CYCLES`` times.
    Rows whose residual variance is numerically zero are critical and
    reported untestable.

    ``model`` is never modified: the first removal or substitution happens
    on a clone, and the returned model is ``model`` itself when nothing
    changed.  A clone shares the compiled form of a nonlinear model, so a
    nonlinear model is compiled again only once per removed row.
    """
    work = model
    if result is None:
        result = solve_wls(work)
    flagged: list[tuple[int, float]] = []
    untestable: list[int] = []
    replaced: dict[int, float] = {}
    cycles = 0

    for _ in range(_LNR_MAX_CYCLES):
        cycles += 1
        x = result.x
        h, jac = work.h_jac(x)
        sigma = effective_sigma(work)
        w = 1.0 / (sigma * sigma)
        r = work.z - h
        a = jac * np.sqrt(w)[:, None]
        try:
            omega_diag = _residual_variance(jac, a, sigma)
        except np.linalg.LinAlgError as exc:
            raise UnobservableError(int(np.linalg.matrix_rank(a)), x.size) from exc

        best_idx, best_nr = -1, 0.0
        untestable_now = []
        for i, src in enumerate(work.sources):
            if src not in REMOVABLE_SOURCES:
                continue
            if omega_diag[i] <= 1e-4 * sigma[i] * sigma[i]:
                untestable_now.append(work.meas_indices[i])
                continue
            nr = abs(r[i]) / np.sqrt(omega_diag[i])
            if nr > best_nr:
                best_idx, best_nr = i, nr
        untestable = untestable_now

        if best_idx < 0 or best_nr <= threshold:
            break
        gidx = work.meas_indices[best_idx]
        flagged.append((gidx, float(best_nr)))
        if work is model:
            work = model.clone()
        if interpolate:
            # corrected-measurement substitution: subtracting the gross error's
            # own influence share reproduces the clean reading in the linear case
            corrected = work.z[best_idx] - (sigma[best_idx] ** 2 / omega_diag[best_idx]) * r[best_idx]
            work.z[best_idx] = corrected
            replaced[gidx] = float(corrected)
        else:
            work.drop_row(best_idx)
        result = solve_wls(work, x0=x)

    report = BadDataReport(flagged=flagged, threshold=threshold, cycles=cycles,
                           untestable=untestable)
    return _NrOutcome(report=report, result=result, model=work, replaced=replaced)
