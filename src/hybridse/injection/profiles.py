"""Synthetic load and generation profiles.

Substitutes for real smart-meter history: every load node follows a shared
bimodal daily shape scaled by its nominal level, with a common stochastic
factor (weather / collective behaviour) plus per-node noise; generation
nodes add a midday solar bump with day-to-day variability.  The generator is
fully documented by the formulas below and is deterministic per seed.

For a load node i at day d, hour h:

    P(d,h) = base_p_i * s(h) * (1 + amp * (rho * e_common + sqrt(1-rho^2) * e_i))
    Q(d,h) = P(d,h) * tan_phi_i * (1 + pf_jitter * n_i)

with s(h) the two-peak daily shape and e, n standard normals.  Generation
nodes add  cap_i * g(h) * beta_d * (1 + solar_jitter * w_i)  where g(h) is a
half-sine daylight arc and beta_d ~ U(beta_lo, beta_hi) is drawn once per
day and shared by all nodes.  Means are therefore analytic:
E[P](h) = base_p * s(h) + cap * g(h) * (beta_lo + beta_hi) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..grid import GridModel, ROLE_GENERATION
from ..powerflow import InjectionProfile


@dataclass(frozen=True)
class ProfileParams:
    noise_amp: float = 0.08
    common_rho: float = 0.9
    pf_jitter: float = 0.05
    shape_base: float = 0.45
    morning_peak: float = 0.30
    morning_hour: float = 8.5
    morning_width: float = 2.2
    evening_peak: float = 0.55
    evening_hour: float = 19.0
    evening_width: float = 2.8
    solar_start: float = 6.5
    solar_len: float = 13.0
    solar_beta_lo: float = 0.4
    solar_beta_hi: float = 1.0
    solar_jitter: float = 0.05
    default_solar_cap: float = 0.03


def daily_shape(hour: float, p: ProfileParams = ProfileParams()) -> float:
    """Two-peak consumption shape, dimensionless multiplier in [~0.45, ~1]."""
    m = p.morning_peak * math.exp(-((hour - p.morning_hour) ** 2)
                                  / (2 * p.morning_width ** 2))
    e = p.evening_peak * math.exp(-((hour - p.evening_hour) ** 2)
                                  / (2 * p.evening_width ** 2))
    return p.shape_base + m + e


def solar_shape(hour: float, p: ProfileParams = ProfileParams()) -> float:
    """Half-sine daylight arc, zero outside the generation window."""
    u = (hour - p.solar_start) / p.solar_len
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return math.sin(math.pi * u)


def default_solar_caps(grid: GridModel, base: InjectionProfile,
                       p: ProfileParams = ProfileParams()) -> dict[int, float]:
    """Installed solar capacity at generation nodes: twice the nominal load,
    floored at the default capacity."""
    caps = {}
    for node in grid.nodes:
        if node.role == ROLE_GENERATION:
            caps[node.id] = max(p.default_solar_cap, 2.0 * abs(base.p_at(node.id)))
    return caps


@dataclass
class LoadProfiles:
    """Hourly injection series per node, generation positive."""

    hours: int
    p: dict[int, np.ndarray]
    q: dict[int, np.ndarray]
    base: InjectionProfile
    solar_caps: dict[int, float]
    params: ProfileParams

    def at(self, tick: int) -> InjectionProfile:
        prof = InjectionProfile()
        for node, series in self.p.items():
            prof.p[node] = float(series[tick])
            if node in self.q:
                prof.q[node] = float(self.q[node][tick])
        return prof

    def sample_tick(self, rng: np.random.Generator) -> tuple[int, InjectionProfile]:
        tick = int(rng.integers(self.hours))
        return tick, self.at(tick)

    def to_csv(self, path: str | Path) -> None:
        lines = ["node_id,tick,P,Q"]
        for node in sorted(self.p):
            for t in range(self.hours):
                q = repr(float(self.q[node][t])) if node in self.q else ""
                lines.append(f"{node},{t},{float(self.p[node][t])!r},{q}")
        Path(path).write_text("\n".join(lines) + "\n")


def gen_load_profiles(grid: GridModel, days: int, seed: int,
                      base: InjectionProfile,
                      params: ProfileParams = ProfileParams()) -> LoadProfiles:
    """Generate hourly profiles for every load/generation node of the grid."""
    if days < 1:
        raise ValueError("days must be >= 1")
    rng = np.random.default_rng(seed)
    solar_caps = default_solar_caps(grid, base, params)

    hours = days * 24
    nodes = [n for n in grid.injection_nodes()]
    hour_of_day = np.tile(np.arange(24) + 0.5, days)
    shape = np.array([daily_shape(h, params) for h in hour_of_day])
    sun = np.array([solar_shape(h, params) for h in hour_of_day])
    beta_day = rng.uniform(params.solar_beta_lo, params.solar_beta_hi, size=days)
    beta = np.repeat(beta_day, 24)
    e_common = rng.standard_normal(hours)

    p: dict[int, np.ndarray] = {}
    q: dict[int, np.ndarray] = {}
    rho = params.common_rho
    mix = math.sqrt(max(0.0, 1.0 - rho * rho))
    for node in nodes:
        base_p = base.p_at(node.id)
        e_own = rng.standard_normal(hours)
        noise = 1.0 + params.noise_amp * (rho * e_common + mix * e_own)
        series = base_p * shape * noise
        if node.id in solar_caps:
            w = rng.standard_normal(hours)
            series = series + solar_caps[node.id] * sun * beta * (1.0 + params.solar_jitter * w)
        p[node.id] = series
        if node.kind == "ac":
            base_q = base.q_at(node.id)
            tan_phi = base_q / base_p if base_p else 0.0
            n = rng.standard_normal(hours)
            # reactive power tracks the load part of the series only
            q[node.id] = base_p * shape * noise * tan_phi * (1.0 + params.pf_jitter * n)
    return LoadProfiles(hours=hours, p=p, q=q, base=base, solar_caps=solar_caps,
                        params=params)
