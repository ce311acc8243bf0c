"""Diagonal-covariance Gaussian mixtures fit by expectation-maximization.

``fit_gmm`` runs the textbook EM (Dempster, Laird & Rubin 1977) one component
and one dimension at a time, so that every numpy operation works on one
contiguous vector of the N samples.  It gives the bits of the broadcast
(N, K, D) formulation (the tests keep it as their reference) because it keeps
each element's arithmetic and each reduction's order:

- a component's log density adds ``diff * diff / var + log(2 pi var)`` over
  the dimensions in index order, then takes ``-0.5 * s + log w``;
- the log-sum-exp over components takes the max as a chain of
  ``np.maximum`` and adds ``exp(c_k - max)`` in index order, as numpy's
  reduction over a short last axis does;
- the responsibilities fill an (N, K) C-order array one column at a time, so
  ``resp.sum(axis=0)`` (a sequential, not pairwise, sum down each column)
  and the BLAS products ``resp.T @ x`` and ``resp.T @ (x * x)`` are the
  same calls on the same memory;
- the log-likelihood is the pairwise ``sum()`` of one contiguous vector.

A contiguous column's own ``sum()`` would be pairwise, and a K-by-N layout
would hand BLAS other strides: either moves the last bits.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

VAR_FLOOR = 1e-8
_EM_MAX_ITER = 500
_EM_TOL = 1e-7              # stop once an iteration gains less log-likelihood


@dataclass
class GmmModel:
    """A fitted mixture; its arrays are not edited after construction, which
    ranks the components for ``component`` once."""

    weights: np.ndarray      # (K,)
    means: np.ndarray        # (K, D)
    variances: np.ndarray    # (K, D), diagonal covariances

    def __post_init__(self):
        order = np.argsort(self.means[:, 0])
        self._cum = np.cumsum(self.weights[order]).tolist()
        self._ranked = [(self.means[c].tolist(), np.sqrt(self.variances[c]).tolist())
                        for c in order]

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

    def component(self, u: float) -> tuple[list[float], list[float]]:
        """Means and standard deviations of the component at the mixture
        quantile ``u``, with the components ranked by their first-dimension
        mean, so that a quantile shared by several mixtures puts each of them
        in the same regime."""
        return self._ranked[min(bisect_left(self._cum, u), self.k - 1)]


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

    cols = [np.ascontiguousarray(x[:, j]) for j in range(d)]
    xx = x * x
    resp = np.empty((n, k))
    trace: list[float] = []
    prev = -np.inf
    for _ in range(_EM_MAX_ITER):
        log_norm = np.log(2.0 * np.pi * variances)
        log_w = np.log(weights)
        comp = []
        for c in range(k):
            s = None
            for j, col in enumerate(cols):
                diff = col - means[c, j]
                term = diff * diff / variances[c, j] + log_norm[c, j]
                s = term if s is None else s + term
            comp.append(-0.5 * s + log_w[c])
        top = comp[0]
        for a in comp[1:]:
            top = np.maximum(top, a)
        total = np.exp(comp[0] - top)
        for a in comp[1:]:
            total = total + np.exp(a - top)
        norm = top + np.log(total)
        ll = float(norm.sum())
        trace.append(ll)
        for c, a in enumerate(comp):
            resp[:, c] = np.exp(a - norm)

        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        sq = resp.T @ xx / nk[:, None]
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
