"""The truth path, pinned bit for bit: power flows, telemetry synthesis and
the Monte-Carlo training set.

Every benchmark estimate is scored against a ``solve_powerflow`` truth read
through ``simulate_measurements``, and the DNN trains on the same two layers
(``build_training_set``), which ``test_golden.py`` does not run.  The sha256
digests below cover every float of their outputs as raw IEEE-754 bytes, so a
change of one bit, of a sign of zero or of the generator's position shows.
They were computed once and are not to be edited; to print the current
digests, run from the repository root

    PYTHONPATH=src python tests/test_truth_path.py
"""

import hashlib

import numpy as np
import pytest

from hybridse import data
from hybridse.grid import load_grid
from hybridse.injection import fit_injection_gmms, gen_load_profiles
from hybridse.injection.pipeline import build_training_set
from hybridse.powerflow import PowerFlowError, load_profile, solve_powerflow
from hybridse.telemetry import ScheduleConfig, simulate_measurements

from oracle import scaled_profile

FOUR_LINES = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
GRIDS = {"case33": (data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS),
         "toy5": (data.TOY5_HYBRID, data.TOY5_HYBRID_LOADS)}
OVERLOADS = (2.5, 6.0, 40.0)    # base-profile scalings past the feasible region

DIGESTS = {
    'powerflow_case33':
        'c176871143dad0f2ac79d69e2b283232abd78d8b4e420faa402a87f049af04e3',
    'telemetry_case33':
        'dd28cf094a0e549f5da17e31e6ba8cd0f9d2d53980ebc8b48f1676f7a6995653',
    'powerflow_toy5':
        '4374448312759064bceeda901d97f5eb963ab90f420543a75ef260fecaadcde2',
    'telemetry_toy5':
        'cf42cbb0dd25168768ab2f8d7b03d4161b0a2d186c70c14443fa7d1942b694b3',
    'training_set_case33':
        '1dac04e98266d39cc36eacbea01ba093712c6091e6a060e472a51947047b1a88',
}


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def floats(self, *values) -> None:
        self._h.update(np.asarray(values, dtype=np.float64).tobytes())

    def text(self, *values) -> None:
        for v in values:
            self._h.update(str(v).encode() + b"\0")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _grid(name):
    grid_file, loads_file = GRIDS[name]
    return load_grid(data.path(grid_file)), load_profile(data.path(loads_file))


def _profiles(name, count=25):
    """``count`` hourly profiles sampled as the benchmark samples them, then
    the base profile scaled by each of ``OVERLOADS``."""
    grid, loads = _grid(name)
    series = gen_load_profiles(grid, days=3, seed=1707, base=loads)
    rng = np.random.default_rng(1707)
    return grid, ([series.sample_tick(rng)[1] for _ in range(count)]
                  + [scaled_profile(loads, f) for f in OVERLOADS])


def _add_powerflow(d, res) -> None:
    st = res.state
    for node in sorted(st.v):
        d.text(node)
        d.floats(st.v[node], *([st.theta[node]] if node in st.theta else []))
    for cid in sorted(res.converters):
        c = res.converters[cid]
        d.text(cid)
        d.floats(c.p_vsc, c.q_vsc, c.p_loss, c.i_c, c.v_c, c.p_djc)
    d.text(res.outer_iterations)
    d.floats(res.max_mismatch, res.coupling_residual)


def _add_measurements(d, ms) -> None:
    for m in ms:
        d.text(m.kind.value, m.location, m.direction, m.source)
        d.floats(m.value, m.sigma, m.timestamp)
    d.text(ms.corrupt_indices)


def powerflow_digest(name: str) -> str:
    grid, profiles = _profiles(name)
    d = _Digest()
    for prof in profiles:
        try:
            _add_powerflow(d, solve_powerflow(grid, prof))
        except PowerFlowError as exc:
            d.text(type(exc).__name__, exc)
    return d.hexdigest()


def telemetry_digest(name: str) -> str:
    """Readings at a SCADA-only tick (900 s), a tick of both (3600 s) and a
    tick of neither (450 s), under the default and the four-line schedules,
    at five solved states; each followed by the generator's next draw."""
    grid, profiles = _profiles(name, count=5)
    d = _Digest()
    schedules = (ScheduleConfig(),) + ((FOUR_LINES,) if name == "case33" else ())
    for k, prof in enumerate(profiles[:5]):
        state = solve_powerflow(grid, prof).state
        for schedule in schedules:
            for t in (900.0, 3600.0, 450.0):
                rng = np.random.default_rng(100 + k)
                _add_measurements(d, simulate_measurements(grid, state, schedule, t=t,
                                                           seed=rng))
                d.floats(rng.random())
    return d.hexdigest()


def training_set_digest() -> str:
    grid, loads = _grid("case33")
    gmms = fit_injection_gmms(grid, gen_load_profiles(grid, days=5, seed=31, base=loads),
                              seed=31)
    ts = build_training_set(grid, gmms, 40, FOUR_LINES, seed=32)
    d = _Digest()
    d.text(ts.channels, ts.components, ts.dropped, ts.z.shape, ts.y.shape)
    d.floats(*ts.z.ravel(), *ts.y.ravel())
    return d.hexdigest()


def all_digests() -> dict[str, str]:
    out = {}
    for name in sorted(GRIDS):
        out[f"powerflow_{name}"] = powerflow_digest(name)
        out[f"telemetry_{name}"] = telemetry_digest(name)
    out["training_set_case33"] = training_set_digest()
    return out


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_powerflow_digest(name):
    assert powerflow_digest(name) == DIGESTS[f"powerflow_{name}"]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_telemetry_digest(name):
    assert telemetry_digest(name) == DIGESTS[f"telemetry_{name}"]


def test_training_set_digest():
    assert training_set_digest() == DIGESTS["training_set_case33"]


if __name__ == "__main__":
    print("DIGESTS = {")
    for key, value in all_digests().items():
        print(f"    {key!r}:\n        {value!r},")
    print("}")
