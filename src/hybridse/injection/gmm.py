"""Diagonal-covariance Gaussian mixtures fit by expectation-maximization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VAR_FLOOR = 1e-8
_EM_MAX_ITER = 500
_EM_TOL = 1e-7              # stop once an iteration gains less log-likelihood


@dataclass
class GmmModel:
    """A fitted mixture; its arrays are not edited after construction, which
    ranks the components for ``sample_coupled`` once."""

    weights: np.ndarray      # (K,)
    means: np.ndarray        # (K, D)
    variances: np.ndarray    # (K, D), diagonal covariances

    def __post_init__(self):
        self._order = np.argsort(self.means[:, 0])
        self._cum = np.cumsum(self.weights[self._order])

    @property
    def k(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def overall_variance(self) -> np.ndarray:
        """Per-dimension variance of the mixture (law of total variance)."""
        mu = self.mean()
        second = self.weights @ (self.variances + self.means ** 2)
        return second - mu ** 2

    def sample_coupled(self, u: float, g: np.ndarray, g_own: np.ndarray,
                       rho: float) -> np.ndarray:
        """One draw with an externally shared component quantile ``u`` and
        shared standard-normal factor ``g`` (one per dimension).

        Components are ranked by their first-dimension mean so that a common
        quantile puts every node in the same regime; marginals stay exact.
        """
        comp = self._order[min(int(np.searchsorted(self._cum, u)), self.k - 1)]
        mix = math.sqrt(max(0.0, 1.0 - rho * rho))
        eps = rho * g + mix * g_own
        return self.means[comp] + np.sqrt(self.variances[comp]) * eps


def _component_log_pdf(x, means, variances):
    # x: (N, D); means/variances: (K, D) -> (N, K)
    diff = x[:, None, :] - means[None, :, :]
    return -0.5 * np.sum(diff * diff / variances[None, :, :]
                         + np.log(2.0 * np.pi * variances)[None, :, :], axis=2)


def _logsumexp(a):
    m = a.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=1, keepdims=True))).ravel()


def fit_gmm(samples: np.ndarray, k: int, seed: int = 0) -> tuple[GmmModel, list[float]]:
    """EM fit with k-means++-style seeding; returns the model and the
    log-likelihood trace (non-decreasing by construction of EM).

    Degenerate input (all samples identical) collapses to a single effective
    component at the common value with floored variance.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n < 10 * k:
        raise ValueError(f"need at least {10 * k} samples to fit {k} components")
    rng = np.random.default_rng(seed)

    means = _seed_means(x, k, rng)
    variances = np.full((k, d), max(x.var(axis=0).mean(), VAR_FLOOR))
    variances = np.maximum(variances, VAR_FLOOR)
    weights = np.full(k, 1.0 / k)

    trace: list[float] = []
    prev = -np.inf
    for _ in range(_EM_MAX_ITER):
        comp = _component_log_pdf(x, means, variances) + np.log(weights)[None, :]
        norm = _logsumexp(comp)
        ll = float(norm.sum())
        trace.append(ll)
        resp = np.exp(comp - norm[:, None])

        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        sq = resp.T @ (x * x) / nk[:, None]
        variances = np.maximum(sq - means ** 2, VAR_FLOOR)

        if ll - prev < _EM_TOL and np.isfinite(prev):
            break
        prev = ll

    return GmmModel(weights=weights, means=means, variances=variances), trace


def _seed_means(x, k, rng):
    n = x.shape[0]
    centers = [x[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min([np.sum((x - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(n)])
            continue
        centers.append(x[rng.choice(n, p=d2 / total)])
    return np.array(centers)
