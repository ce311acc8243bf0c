"""Gauss-Newton weighted least squares and the normalized-residual test, by
removal (``lnr_test``) or, for the SCADA screen, by substitution
(``lnr_substitute``).

All work on the weighted Jacobian A = W^(1/2) J through Householder QR,
never through the gain matrix G = A^T A = R^T R: the zero-injection rows
carry a weight of 1/ZERO_INJ_SIGMA^2 = 1e12, and forming G would square A's
condition number (Abur & Exposito, Power System State Estimation, 2004,
ch. 3).  A Gauss-Newton step factors the augmented matrix [A | b] and keeps
only its R: the leading n x n block is A's R and the last column's top n
entries are Q^T b, so R[:n, :n] dx = R[:n, n] gives the least-squares step
without forming Q (Golub & Van Loan, Matrix Computations, sec. 5.3).  The
normalized-residual tests take Omega from A's R; the screen also keeps Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..telemetry import SOURCE_VIRTUAL_ZERO
from .result import BadDataReport, EstimationResult, UnobservableError

ZERO_INJ_SIGMA = 1e-6
_GN_MAX_ITER = 50           # Gauss-Newton iterations per solve
_LNR_MAX_CYCLES = 5         # removals or substitutions per bad-data test
_LNR_THRESHOLD = 3.0        # normalized residual that flags a reading
REMOVABLE_SOURCES = ("scada", "smart_meter", "pseudo", "dnn")


def _removable(sources) -> np.ndarray:
    """Mask of the rows whose source the bad-data tests may remove or correct."""
    return np.fromiter((s in REMOVABLE_SOURCES for s in sources), dtype=bool,
                       count=len(sources))


def effective_sigma(model) -> np.ndarray:
    """Measurement sigmas with exact-zero rows pinned to a tight weight."""
    sigma = np.asarray(model.sigma, dtype=float).copy()
    for i, src in enumerate(model.sources):
        if src == SOURCE_VIRTUAL_ZERO:
            sigma[i] = ZERO_INJ_SIGMA
    return sigma


def _check_rank(a: np.ndarray, r: np.ndarray, scope: str) -> None:
    """Raise UnobservableError unless ``a``, with ``r`` its QR factor's R (or
    that R's leading n x n block), has full column rank.

    ``a`` counts as rank deficient when a diagonal entry of R is at most
    max|diag R| * max(m, n) * eps, the scale of lstsq's default cutoff; the
    error then reports the SVD rank of ``a``.
    """
    m, n = a.shape
    d = np.abs(np.diag(r))
    if m < n or not np.all(d > d.max() * max(m, n) * np.finfo(float).eps):
        raise UnobservableError(int(np.linalg.matrix_rank(a)), n, scope=scope)


def _factor(a: np.ndarray, scope: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Householder QR ``a = QR`` of a weighted Jacobian of full column rank."""
    q, r = np.linalg.qr(a)
    _check_rank(a, r, scope)
    return q, r


def _gn_step(a: np.ndarray, b: np.ndarray, scope: str = "") -> np.ndarray:
    """The least-squares solution of ``a dx = b`` from the R of the augmented
    matrix [a | b] (module docstring), for ``a`` of full column rank."""
    n = a.shape[1]
    r = np.linalg.qr(np.column_stack((a, b)), mode="r")
    _check_rank(a, r[:n, :n], scope)
    return np.linalg.solve(r[:n, :n], r[:n, n])


def _residual_variance(jac: np.ndarray, r: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Diagonal of the residual covariance Omega = R_z - J G^-1 J^T.

    With R the QR factor of the weighted Jacobian, G = R^T R, so
    Omega_ii = sigma_i^2 - ||R^-T J_i^T||^2 with J_i the unweighted row.
    Raises LinAlgError when R is singular.
    """
    y = np.linalg.solve(r.T, jac.T)
    return sigma * sigma - np.einsum("ij,ij->j", y, y)


def _largest_normalized(res: np.ndarray, omega: np.ndarray, sigma: np.ndarray,
                        removable: np.ndarray) -> tuple[int, float, np.ndarray]:
    """The first removable, testable row of largest |r_i| / sqrt(Omega_ii) and
    that value (0.0, with no meaningful row, when there is none), plus the mask
    of removable rows too critical to test: Omega_ii at most 1e-4 sigma_i^2."""
    critical = removable & (omega <= 1e-4 * sigma * sigma)
    testable = removable & ~critical
    nr = np.zeros(res.size)
    nr[testable] = np.abs(res[testable]) / np.sqrt(omega[testable])
    i = int(np.argmax(nr))
    return i, float(nr[i]), critical


def solve_wls(model, x0: np.ndarray | None = None, tol: float = 1e-6,
              weight_overrides: dict[int, float] | None = None) -> EstimationResult:
    """Iterate Gauss-Newton until max |dx| < tol, with step halving.  A step
    below tol converges even when no halving of it lowers the objective by
    the 1e-12 slack, within which the zero-injection weights round it.

    Each step solves W^(1/2) J dx = W^(1/2) (z - h(x)) in the least-squares
    sense from the R of one Householder QR of the augmented matrix
    [W^(1/2) J | W^(1/2) (z - h(x))]; Q is never formed.  Each accepted step
    evaluates h once.  ``weight_overrides`` maps row index to an explicit
    weight (used for boundary penalty rows whose weight is a multiplier, not
    1/sigma^2).  Raises UnobservableError when the weighted Jacobian is rank
    deficient.
    """
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
        dx = _gn_step(jac * sw[:, None], (z - h) * sw, scope=model.scope)

        step = 1.0
        for _ in range(10):
            trial = x + step * dx
            trial_obj, trial_r = objective(trial)
            if trial_obj <= obj + 1e-12:
                break
            step *= 0.5
        else:
            # no improving step: converged if it is below tol, else stalled
            converged = bool(np.abs(dx).max() < tol)
            break
        x, obj, r = trial, trial_obj, trial_r
        if np.abs(step * dx).max() < tol:
            converged = True
            break

    v, theta, conv = model.extract_state(x)
    result = EstimationResult(v=v, theta=theta, conv_vars=conv, residuals=r,
                              objective=obj, iterations=it, converged=converged,
                              meas_indices=list(model.meas_indices))
    result.x = x
    return result


@dataclass
class _NrOutcome:
    report: BadDataReport
    result: EstimationResult
    model: object       # the model ``result`` was solved on


def lnr_test(model, result: EstimationResult) -> _NrOutcome:
    """Largest-normalized-residual bad-data cycle from the solved ``result``:
    up to ``_LNR_MAX_CYCLES`` times, the worst removable reading above
    ``_LNR_THRESHOLD`` is removed and the model solved again.  Omega comes from
    the QR factor of the weighted Jacobian at each cycle's state; rows whose
    Omega_ii is numerically zero are critical and reported untestable.

    ``model`` is never modified: the first removal happens on a clone.  A
    clone shares the compiled form of a nonlinear model, and a removal masks
    its rows, so the test compiles nothing.  The outcome's ``model`` is
    ``model`` itself when nothing was flagged, else the clone without the
    flagged rows.
    """
    work = model
    flagged: list[tuple[int, float]] = []
    for cycles in range(1, _LNR_MAX_CYCLES + 1):
        x = result.x
        h, jac = work.h_jac(x)
        sigma = effective_sigma(work)
        a = jac * np.sqrt(1.0 / (sigma * sigma))[:, None]
        try:
            omega = _residual_variance(jac, np.linalg.qr(a, mode="r"), sigma)
        except np.linalg.LinAlgError as exc:
            raise UnobservableError(int(np.linalg.matrix_rank(a)), x.size,
                                    scope=work.scope) from exc
        removable = _removable(work.sources)
        best, best_nr, critical = _largest_normalized(work.z - h, omega, sigma, removable)
        untestable = [work.meas_indices[i] for i in np.flatnonzero(critical)]

        if best_nr <= _LNR_THRESHOLD:
            break
        flagged.append((work.meas_indices[best], best_nr))
        if work is model:
            work = model.clone()
        work.drop_row(best)
        result = solve_wls(work, x0=x)

    report = BadDataReport(flagged=flagged, cycles=cycles, untestable=untestable)
    return _NrOutcome(report=report, result=result, model=work)


def lnr_substitute(model, threshold: float) -> dict[int, float]:
    """Normalized-residual screen of a linear model by substitution: up to
    ``_LNR_MAX_CYCLES`` times, the worst removable reading above ``threshold``
    becomes z_i - sigma_i^2 / Omega_ii * r_i, the value the other rows predict
    (h_i x of the fit without row i).  Only z changes, so one QR factor of
    W^(1/2) H gives Omega once and each cycle's estimate by one solve with R.
    Returns the substituted values by global measurement index; ``model`` is
    not modified."""
    sigma = effective_sigma(model)
    sw = np.sqrt(1.0 / (sigma * sigma))
    q, r = _factor(model.H * sw[:, None], scope=model.scope)
    omega = _residual_variance(model.H, r, sigma)
    removable = _removable(model.sources)
    z = model.z.copy()
    replaced: dict[int, float] = {}
    for _ in range(_LNR_MAX_CYCLES):
        res = z - model.H @ np.linalg.solve(r, q.T @ (z * sw))
        i, nr, _ = _largest_normalized(res, omega, sigma, removable)
        if nr <= threshold:
            break
        z[i] -= sigma[i] ** 2 / omega[i] * res[i]
        replaced[model.meas_indices[i]] = float(z[i])
    return replaced
