"""Scenario files: everything a benchmark run needs, in one JSON document."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..telemetry import ScheduleConfig

METHODS = ("cwls", "cwls_dnn", "cwls_pseudo",
           "dwls", "dwls_dnn", "dwls_pseudo",
           "drse", "drse_dnn", "drse_pseudo")

# plain methods run at a smart-meter tick; generated/pseudo injections stand in
# for the stale meters at a SCADA-only tick
DEFAULT_T_PLAIN = 3600.0
DEFAULT_T_GENERATED = 900.0


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    grid: str
    method: str
    runs: int
    seed: int
    base_profile: str
    profile_seed: int = 1000
    profile_days: int = 365
    test_days: int = 60
    pseudo_pct: float = 30.0                  # percent, 10 or 30 in the studies
    bad_data_case: int = 0                    # 0 = clean, otherwise 1..3
    bad_data_target: tuple | int | None = None
    schedule: dict = field(default_factory=dict)    # ScheduleConfig's keyword arguments
    nr_test: bool = True
    # built from ``schedule`` when the scenario is made
    schedule_config: ScheduleConfig = field(init=False, repr=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ScenarioError(f"unknown method {self.method!r}")
        if self.runs < 1:
            raise ScenarioError("runs must be >= 1")
        if self.bad_data_case not in (0, 1, 2, 3):
            raise ScenarioError("bad_data_case must be 0..3")
        if self.pseudo_pct not in (10.0, 30.0):
            raise ScenarioError("pseudo_pct must be 10 or 30")
        try:
            kw = dict(self.schedule)
            if kw.get("scada_ac_branches") is not None:
                kw["scada_ac_branches"] = tuple(tuple(b) for b in kw["scada_ac_branches"])
            self.schedule_config = ScheduleConfig(**kw)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"schedule: {exc}") from exc

    @property
    def uses_generated(self) -> bool:
        return self.method.endswith(("_dnn", "_pseudo"))

    @property
    def family(self) -> str:
        return self.method.split("_")[0]

    @property
    def tick_time(self) -> float:
        return DEFAULT_T_GENERATED if self.uses_generated else DEFAULT_T_PLAIN


def load_scenario(path: str | Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot parse scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    known = {f.name for f in fields(Scenario) if f.init}
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    try:
        sc = Scenario(**raw)
    except TypeError as exc:
        raise ScenarioError(str(exc)) from exc
    if sc.bad_data_target is not None and isinstance(sc.bad_data_target, list):
        sc.bad_data_target = tuple(sc.bad_data_target)
    return sc
