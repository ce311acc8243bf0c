"""Measurement definitions and measurement functions.

Covers the nonlinear measurement functions (branch flows, injections, voltage
magnitudes, converter powers), the linear measurement rows over squared AC
voltage magnitudes / DC voltages used by the robust regional estimator,
telemetry synthesis on the SCADA / smart-meter timescales, and gross-error
injection for the bad-data case studies.

The linear AC model works in ``(U, theta)`` with ``U = V^2``; voltage
magnitude readings are squared on entry and their sigma mapped by first-order
propagation ``sigma_U = 2 V sigma_V``.  DC regions keep ``V`` directly and
gain one extra variable per boundary converter: the power the region feeds
into that converter.  The linear model and the nonlinear one of ``measmodel``
share one base, ``MeasurementModel``: the state layout and read-out and the
row bookkeeping.

``row_spec`` specs are compiled once by ``powerflow.CompiledRows``, whose
term tables give both the nonlinear values and the constant linear rows
with the bits of the scalar primitives (the powerflow module docstring).

A telemetry configuration reads the same (kind, location, direction) at every
tick; only values and sigmas change.  So a region's linear rows are compiled
once per row set (``row_keys``) into a :class:`RegionRows` that the grid
keeps (``GridModel.memo``), and ``build_region_H`` computes only z, sigma and
the row bookkeeping: every model of a row set, the SCADA screen's and DRSE's
alike, shares one read-only H.

Telemetry synthesis compiles each (grid, schedule, tick kind) once into a
plan that the grid keeps (``GridModel.memo``): the readings in emission
order, their specs as ``CompiledRows`` over V per node, theta per AC node and
the converter draws the rows read, and their accuracies.  A call gathers that
vector from the state, evaluates every true value at once, sets every sigma
= max(pct/3 |value|, floor) elementwise and draws the noise of the readings
with pct > 0 as ``0.0 + sigma * z``, ``z`` one ``rng.standard_normal`` call
of their count.  ``rng.normal(0.0, sigma)`` computes exactly that from the
same standard normal and leaves the generator at the same point, and the
generator draws an array elementwise in order, so each reading gets the
draw that one ``rng.normal(0.0, sigma)`` call per reading, in emission
order, would give it, and the generator ends where those calls leave it.
The training set (``injection.pipeline``) draws ``z`` before it solves the
power flow, and reads the same values through ``readings``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .grid import AC, DC, OWNS_AC, OWNS_DC, Converter, GridModel, Region
from .powerflow import CompiledRows, SystemState, ac_branch_flow, converter_loss


class TelemetryError(ValueError):
    pass


class MeasurementKind(Enum):
    AC_P_FLOW = "ac_p_flow"
    AC_Q_FLOW = "ac_q_flow"
    AC_P_INJ = "ac_p_inj"
    AC_Q_INJ = "ac_q_inj"
    AC_V_MAG = "ac_v_mag"
    DC_P_FLOW = "dc_p_flow"
    DC_P_INJ = "dc_p_inj"
    DC_V_MAG = "dc_v_mag"
    CONV_P = "conv_p"
    CONV_Q = "conv_q"
    ZERO_P_INJ = "zero_p_inj"
    ZERO_Q_INJ = "zero_q_inj"


FLOW_KINDS = {MeasurementKind.AC_P_FLOW, MeasurementKind.AC_Q_FLOW,
              MeasurementKind.DC_P_FLOW}
NODE_KINDS = {MeasurementKind.AC_P_INJ, MeasurementKind.AC_Q_INJ,
              MeasurementKind.AC_V_MAG, MeasurementKind.DC_P_INJ,
              MeasurementKind.DC_V_MAG, MeasurementKind.ZERO_P_INJ,
              MeasurementKind.ZERO_Q_INJ}
CONV_KINDS = {MeasurementKind.CONV_P, MeasurementKind.CONV_Q}

SOURCE_SCADA = "scada"
SOURCE_SMART_METER = "smart_meter"
SOURCE_PSEUDO = "pseudo"
SOURCE_DNN = "dnn"
SOURCE_VIRTUAL_ZERO = "virtual_zero"


@dataclass(frozen=True)
class Measurement:
    kind: MeasurementKind
    location: tuple[int, ...]   # (node,) | (from, to) | (converter,)
    direction: str              # fwd/rev for flows, ac/dc for converter kinds
    value: float
    sigma: float
    source: str
    timestamp: float = 0.0


class MeasurementSet:
    """Ordered measurements plus a per-region index and an audit trail.

    ``corrupt_indices`` records gross-error injections for scoring; the
    estimators never read it.
    """

    def __init__(self, measurements: list[Measurement],
                 corrupt_indices: tuple[int, ...] = ()):
        self.measurements = list(measurements)
        self.corrupt_indices = tuple(corrupt_indices)

    def __len__(self) -> int:
        return len(self.measurements)

    def __iter__(self):
        return iter(self.measurements)

    def __getitem__(self, idx: int) -> Measurement:
        return self.measurements[idx]

    def region_of(self, m: Measurement, grid: GridModel) -> int:
        if m.kind in NODE_KINDS or m.kind in FLOW_KINDS:
            return grid.node(m.location[0]).region
        conv = grid.converter(m.location[0])
        if m.direction == "dc":
            return grid.node(conv.dc_node).region
        return grid.node(conv.aux_node).region

    def by_region(self, grid: GridModel) -> dict[int, list[tuple[int, Measurement]]]:
        """Stable partition of the set: region id -> [(global index, measurement)]."""
        out: dict[int, list[tuple[int, Measurement]]] = {r.id: [] for r in grid.regions}
        for idx, m in enumerate(self.measurements):
            out[self.region_of(m, grid)].append((idx, m))
        return out

    # -- CSV ----------------------------------------------------------------

    CSV_HEADER = "kind,location,direction,value,sigma,source,timestamp"

    def to_csv(self, path: str | Path) -> None:
        lines = [self.CSV_HEADER]
        for m in self.measurements:
            loc = "-".join(str(x) for x in m.location)
            lines.append(f"{m.kind.value},{loc},{m.direction},{m.value!r},"
                         f"{m.sigma!r},{m.source},{m.timestamp!r}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "MeasurementSet":
        out = []
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            if missing := set(cls.CSV_HEADER.split(",")) - set(reader.fieldnames or ()):
                raise TelemetryError(f"measurement file {path} lacks column(s) {sorted(missing)}")
            for row in reader:
                sigma = float(row["sigma"])
                if row["source"] != SOURCE_VIRTUAL_ZERO and not 0 < sigma < math.inf:
                    raise TelemetryError(f"measurement file {path}: {row['kind']} at "
                                         f"{row['location']} has sigma {row['sigma']}")
                out.append(Measurement(
                    kind=MeasurementKind(row["kind"]),
                    location=tuple(int(x) for x in row["location"].split("-")),
                    direction=row["direction"],
                    value=float(row["value"]),
                    sigma=sigma,
                    source=row["source"],
                    timestamp=float(row["timestamp"])))
        return cls(out)


# -- row specs: the one map from a measurement kind to its physics ---------------


def row_keys(measurements: list[tuple[int, Measurement]]) -> tuple:
    """The row set of (global index, measurement) pairs: each reading's kind,
    location and direction, all its row spec reads of it.  The kind enters as
    its string value, whose hash is cached, where an enum member's hash is a
    Python call."""
    return tuple([(m.kind._value_, m.location, m.direction) for _, m in measurements])


def _flow_ends(m: Measurement) -> tuple[int, int]:
    a, b = m.location
    return (a, b) if m.direction != "rev" else (b, a)


def converter_spec(conv: Converter, side: str, which: str = "p") -> tuple:
    """Row spec of a converter's power seen from one side: the AC-side output
    is the flow on its aux->ac coupling branch, the DC side is the draw
    variable of the region that owns it."""
    if side == "dc":
        return ("var", "pdjc", conv.id)
    return ("ac_flow", conv.aux_node, conv.ac_node, conv.coupling_r,
            conv.coupling_x, which)


def row_spec(grid: GridModel, m: Measurement, region: Region | None = None,
             conv_vars: bool = False) -> tuple:
    """Row spec of one measurement; the only place a kind becomes physics.

    Specs are ``("vmag", node)``, ``("ac_flow", f, t, r, x, "p"|"q")``,
    ``("dc_flow", f, t, g)``, ``("ac_inj", node, branches, "p"|"q")``,
    ``("dc_inj", node, branches, converter ids)`` and ``("var", tag, id)``
    for a converter variable.  ``region`` confines the locations to one
    region; ``conv_vars`` reads AC-side converter readings from the explicit
    (pvsc, qvsc) variables of a whole-system model.
    """
    k = m.kind

    def check(node, kind=None):
        if kind is not None and grid.node(node).kind != kind:
            raise TelemetryError(f"{k.name} at non-{kind.upper()} node {node}")
        if region is not None and node not in region.nodes:
            raise TelemetryError(
                f"measurement at node {node} outside region {region.id}")

    if k in (MeasurementKind.AC_V_MAG, MeasurementKind.DC_V_MAG):
        check(m.location[0], AC if k is MeasurementKind.AC_V_MAG else DC)
        return ("vmag", m.location[0])
    if k in (MeasurementKind.AC_P_FLOW, MeasurementKind.AC_Q_FLOW):
        f, t = _flow_ends(m)
        check(f), check(t)
        params = grid.ac_branch(f, t)
        if params is None:
            raise TelemetryError(f"no AC branch between {f} and {t}")
        return ("ac_flow", f, t, *params, "p" if k is MeasurementKind.AC_P_FLOW else "q")
    if k is MeasurementKind.DC_P_FLOW:
        f, t = _flow_ends(m)
        check(f), check(t)
        g = grid.dc_branch(f, t)
        if g is None:
            raise TelemetryError(f"no DC branch between {f} and {t}")
        return ("dc_flow", f, t, g)
    if k in CONV_KINDS:
        conv = grid.converter(m.location[0])
        which = "p" if k is MeasurementKind.CONV_P else "q"
        if m.direction == "dc":
            if which == "q":
                raise TelemetryError("CONV_Q has no DC side")
            check(conv.dc_node)
            return converter_spec(conv, "dc")
        if conv_vars:
            return ("var", which + "vsc", conv.id)
        check(conv.aux_node)
        return converter_spec(conv, "ac", which)
    # nodal injections
    node = m.location[0]
    check(node, DC if k is MeasurementKind.DC_P_INJ else None)
    which = "p" if k in (MeasurementKind.AC_P_INJ, MeasurementKind.ZERO_P_INJ,
                         MeasurementKind.DC_P_INJ) else "q"
    if grid.node(node).kind == AC:
        return ("ac_inj", node, tuple(grid.incident_ac_branches(node)), which)
    if which == "q":
        raise TelemetryError(f"reactive injection at DC node {node}")
    convs = tuple(c.id for c in grid.converters_at_dc_node(node))
    return ("dc_inj", node, tuple(grid.incident_dc_branches(node)), convs)


# -- linear model ---------------------------------------------------------------


class MeasurementModel:
    """The state layout and row bookkeeping shared by the linear model below
    and the nonlinear one (``measmodel.NonlinearModel``).

    ``index`` maps each column's label to the column: ``("u", node)`` for
    U = V^2 (linear AC), ``("v", node)``, ``("th", node)`` and the converter
    variables ``("pdjc" | "pvsc" | "qvsc", converter id)``.  ``angle_refs``
    maps an AC region to its angle datum node, which has no column.  Each
    row has its ``z``, ``sigma``, source, position in the parent
    MeasurementSet (``meas_indices``) and measurement.  Subclasses add
    ``h`` / ``h_jac``, ``scope`` and their own half of ``drop_row``.
    """

    index: dict[tuple[str, int], int]
    angle_refs: dict[int, int]
    z: np.ndarray
    sigma: np.ndarray
    sources: list[str]
    meas_indices: list[int]
    measurements: list[Measurement | None]

    @property
    def n_states(self) -> int:
        return len(self.index)

    def x0(self) -> np.ndarray:
        """Flat start: every voltage (and U) 1, every other column 0."""
        x = np.zeros(self.n_states)
        for (tag, _), col in self.index.items():
            if tag in ("u", "v"):
                x[col] = 1.0
        return x

    def extract_state(self, x: np.ndarray):
        """x -> (v by node, theta by node, converter variables by (tag, id))."""
        v: dict[int, float] = {}
        theta: dict[int, float] = {}
        conv: dict[tuple[str, int], float] = {}
        for (tag, key), col in self.index.items():
            if tag == "u":
                v[key] = math.sqrt(max(float(x[col]), 1e-12))
            elif tag == "v":
                v[key] = float(x[col])
            elif tag == "th":
                theta[key] = float(x[col])
            else:
                conv[(tag, key)] = float(x[col])
        for ref in self.angle_refs.values():
            theta[ref] = 0.0
        return v, theta, conv

    def clone(self):
        """A copy whose z and sigma can be edited apart from this model's.  It
        shares every other field, which ``drop_row`` rebinds rather than
        edits."""
        out = object.__new__(type(self))
        vars(out).update(vars(self), z=self.z.copy(), sigma=self.sigma.copy())
        return out

    def drop_row(self, i: int) -> None:
        self.z = np.delete(self.z, i)
        self.sigma = np.delete(self.sigma, i)
        self.sources = self.sources[:i] + self.sources[i + 1:]
        self.meas_indices = self.meas_indices[:i] + self.meas_indices[i + 1:]
        self.measurements = self.measurements[:i] + self.measurements[i + 1:]


@dataclass
class LinearRegionModel(MeasurementModel):
    """Constant linear measurement model z ~ H x, of one region or of a bare
    matrix: only ``H, z, sigma`` are required.

    AC regions: x = [U per node, theta per non-reference node].
    DC regions: x = [V per node, draw per boundary converter].
    Rows whose source is ``SOURCE_VIRTUAL_ZERO`` are exact zero injections.
    The model holds no LP state: the regional WLAV LP built from it is owned
    by its caller (``estimation.wlav.RegionalLp``).  A region's model from
    ``build_region_H`` shares its H and boundary rows with every model of its
    row set through ``region_rows``; a model that drops a row leaves them.
    """

    H: np.ndarray
    z: np.ndarray
    sigma: np.ndarray
    sources: list[str] | None = None         # default: every row SCADA
    meas_indices: list[int] | None = None    # positions in the parent MeasurementSet
    measurements: list[Measurement | None] | None = None
    region_id: int = -1
    index: dict[tuple[str, int], int] = field(default_factory=dict)
    angle_refs: dict[int, int] = field(default_factory=dict)
    # converter id -> row of its AC-side power, and the reactive companion
    # (AC regions only)
    boundary: dict[int, np.ndarray] = field(default_factory=dict)
    boundary_q: dict[int, np.ndarray] = field(default_factory=dict)
    region_rows: RegionRows | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.z = np.asarray(self.z, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        m = self.z.size
        self.sources = [SOURCE_SCADA] * m if self.sources is None else list(self.sources)
        self.meas_indices = (list(range(m)) if self.meas_indices is None
                             else list(self.meas_indices))
        self.measurements = ([None] * m if self.measurements is None
                             else list(self.measurements))

    @property
    def n_states(self) -> int:
        return self.H.shape[1]

    @property
    def scope(self) -> str:
        return f"region:{self.region_id}"

    # estimator-facing interface, shared with the nonlinear model
    def h(self, x: np.ndarray) -> np.ndarray:
        return self.H @ x

    def h_jac(self, x: np.ndarray, with_jac: bool = True):
        return self.h(x), (self.H if with_jac else None)

    def drop_row(self, i: int) -> None:
        self.H = np.delete(self.H, i, axis=0)
        self.region_rows = None
        super().drop_row(i)


def region_labels(grid: GridModel, region: Region,
                  linear: bool = False) -> tuple[list[tuple[str, int]], dict[int, int]]:
    """A region's column labels, in column order, and its angle datum
    (``{region id: node}``, empty for DC).  AC: U per node then theta per
    non-datum node when ``linear``, else theta then V.  DC: V per node, then
    the draw of each converter whose DC side the region owns."""
    nodes = sorted(region.nodes)
    if region.kind != AC:
        draws = [("pdjc", cid) for cid, orient in region.boundary if orient == OWNS_DC]
        return [("v", n) for n in nodes] + draws, {}
    ref = grid.angle_reference(region.id)
    mags = [("u" if linear else "v", n) for n in nodes]
    angles = [("th", n) for n in nodes if n != ref]
    return (mags + angles if linear else angles + mags), {region.id: ref}


class RegionRows:
    """A region's linear rows for one row set (module docstring): read-only
    ``H``, ``boundary`` and ``boundary_q`` rows (converter id -> row), the
    column ``index`` and ``angle_refs``, and ``square``, True on the rows
    that read U (the V-magnitude readings of an AC region).  ``lps`` keeps
    the WLAV LP structures built on these rows, by the model's zero rows and
    converters (``estimation.wlav``)."""

    def __init__(self, grid: GridModel, region: Region,
                 measurements: list[tuple[int, Measurement]]):
        labels, self.angle_refs = region_labels(grid, region, linear=True)
        self.index = {lab: k for k, lab in enumerate(labels)}
        specs = [row_spec(grid, m, region) for _, m in measurements]
        self.square = np.array([s[0] == "vmag" and region.kind == AC for s in specs],
                               dtype=bool)
        self.boundary: dict[int, np.ndarray] = {}
        self.boundary_q: dict[int, np.ndarray] = {}
        extra = []    # (dict, converter id, row spec) of each boundary row
        for cid, orient in region.boundary:
            conv = grid.converter(cid)
            extra.append((self.boundary, cid,
                          converter_spec(conv, "ac" if orient == OWNS_AC else "dc")))
            if orient == OWNS_AC:
                extra.append((self.boundary_q, cid, converter_spec(conv, "ac", "q")))

        # an AC region's V columns are its U columns
        rows = CompiledRows({("v" if tag == "u" else tag, key): k
                             for (tag, key), k in self.index.items()},
                            specs + [spec for *_, spec in extra]).linear()
        rows.flags.writeable = False
        self.H = rows[:len(specs)]
        for (out, cid, _), row in zip(extra, rows[len(specs):]):
            out[cid] = row
        self.lps: dict = {}


def build_region_H(grid: GridModel, region: Region,
                   measurements: list[tuple[int, Measurement]]) -> LinearRegionModel:
    """The constant regional model of ``measurements``: the linear
    coefficients of each measurement's row spec and of the region's boundary
    converter rows, read off the row set's :class:`RegionRows`, which the
    grid compiles on first use.

    Voltage-magnitude readings are mapped to U-space (value squared, sigma
    by first-order propagation).  Injection rows are sums of their incident
    flow rows.
    """
    measurements = list(measurements)
    rows = grid.memo(("linear", region.id, row_keys(measurements)),
                        lambda: RegionRows(grid, region, measurements))
    value = np.array([m.value for _, m in measurements], dtype=float)
    sigma = np.array([m.sigma for _, m in measurements], dtype=float)
    return LinearRegionModel(
        H=rows.H, z=np.where(rows.square, value * value, value),
        sigma=np.where(rows.square, 2.0 * np.abs(value) * sigma, sigma),
        sources=[m.source for _, m in measurements],
        meas_indices=[gidx for gidx, _ in measurements],
        measurements=[m for _, m in measurements], region_id=region.id,
        index=rows.index, angle_refs=rows.angle_refs, boundary=rows.boundary,
        boundary_q=rows.boundary_q, region_rows=rows)


# -- telemetry synthesis --------------------------------------------------------


@dataclass(frozen=True)
class ScheduleConfig:
    """Measurement cadence and accuracy.  ``*_pct`` are fractional
    uncertainties read as 3-sigma bounds (0.01 = 1%)."""

    scada_period: float = 900.0
    smart_meter_period: float = 3600.0
    scada_vmag_pct: float = 0.01
    scada_power_pct: float = 0.02
    smart_meter_pct: float = 0.02
    sigma_floor: float = 1e-4
    scada_ac_branches: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.scada_period <= 0 or self.smart_meter_period <= 0:
            raise ValueError("periods must be positive")
        if min(self.scada_vmag_pct, self.scada_power_pct, self.smart_meter_pct) < 0:
            raise ValueError("uncertainty percentages must be non-negative")
        if not self.sigma_floor > 0:
            raise ValueError("sigma_floor must be positive")


def default_scada_branches(grid: GridModel) -> tuple[tuple[int, int], ...]:
    """AC lines incident to the substation, measured at their upstream end."""
    out = []
    for ln in grid.ac_lines:
        if ln.from_node == grid.slack or ln.to_node == grid.slack:
            out.append((ln.from_node, ln.to_node))
    return tuple(out)


class _SynthesisPlan:
    """The readings of one (grid, schedule, tick kind), compiled once and kept
    by the grid (module docstring): their kinds, locations, sources and
    accuracies in emission order, their row specs as :class:`CompiledRows`
    over (V per node, theta per AC node, the draws the rows read), and the
    virtual zero injections that follow them."""

    def __init__(self, grid: GridModel, schedule: ScheduleConfig,
                 scada_tick: bool, sm_tick: bool):
        readings = []     # (kind, location, direction, source, pct)

        def emit(kind, location, direction, source, pct):
            readings.append((kind, location, direction, source, pct))

        if scada_tick:
            emit(MeasurementKind.AC_V_MAG, (grid.slack,), "", SOURCE_SCADA,
                 schedule.scada_vmag_pct)
            for conv in grid.converters:
                emit(MeasurementKind.AC_V_MAG, (conv.aux_node,), "", SOURCE_SCADA,
                     schedule.scada_vmag_pct)
            for conv in grid.converters:
                emit(MeasurementKind.DC_V_MAG, (conv.dc_node,), "", SOURCE_SCADA,
                     schedule.scada_vmag_pct)
            branches = schedule.scada_ac_branches
            if branches is None:
                branches = default_scada_branches(grid)
            for f, tno in branches:
                emit(MeasurementKind.AC_P_FLOW, (f, tno), "fwd", SOURCE_SCADA,
                     schedule.scada_power_pct)
                emit(MeasurementKind.AC_Q_FLOW, (f, tno), "fwd", SOURCE_SCADA,
                     schedule.scada_power_pct)
            for ln in grid.dc_lines:
                emit(MeasurementKind.DC_P_FLOW, (ln.from_node, ln.to_node), "fwd",
                     SOURCE_SCADA, schedule.scada_power_pct)
            for conv in grid.converters:
                emit(MeasurementKind.CONV_P, (conv.id,), "ac", SOURCE_SCADA,
                     schedule.scada_power_pct)
            for conv in grid.converters:
                emit(MeasurementKind.CONV_Q, (conv.id,), "ac", SOURCE_SCADA,
                     schedule.scada_power_pct)
            # converter-bay line measurements: the PCC coupling branch seen from
            # the grid side, giving the converter power verifiable redundancy
            for conv in grid.converters:
                emit(MeasurementKind.AC_P_FLOW, (conv.ac_node, conv.aux_node), "fwd",
                     SOURCE_SCADA, schedule.scada_power_pct)
                emit(MeasurementKind.AC_Q_FLOW, (conv.ac_node, conv.aux_node), "fwd",
                     SOURCE_SCADA, schedule.scada_power_pct)

        if sm_tick:
            for node in grid.injection_nodes():
                if node.kind == AC:
                    emit(MeasurementKind.AC_P_INJ, (node.id,), "", SOURCE_SMART_METER,
                         schedule.smart_meter_pct)
                    emit(MeasurementKind.AC_Q_INJ, (node.id,), "", SOURCE_SMART_METER,
                         schedule.smart_meter_pct)
                else:
                    emit(MeasurementKind.DC_P_INJ, (node.id,), "", SOURCE_SMART_METER,
                         schedule.smart_meter_pct)

        self.zeros = []   # virtual zero injections: (kind, node)
        for node in grid.junction_nodes():
            self.zeros.append((MeasurementKind.ZERO_P_INJ, node.id))
            if node.kind == AC:
                self.zeros.append((MeasurementKind.ZERO_Q_INJ, node.id))

        self.keys = [r[:4] for r in readings]
        specs = [row_spec(grid, Measurement(kind, loc, d, 0.0, 1.0, src))
                 for kind, loc, d, src, _ in readings]
        self.draws = [grid.converter(cid) for cid in
                      sorted({cid for s in specs if s[0] == "dc_inj" for cid in s[3]}
                             | {s[2] for s in specs if s[0] == "var"})]
        self.v_nodes = [n.id for n in grid.nodes]
        self.th_nodes = [n.id for n in grid.nodes if n.kind == AC]
        labels = ([("v", n) for n in self.v_nodes] + [("th", n) for n in self.th_nodes]
                  + [("pdjc", conv.id) for conv in self.draws])
        self.rows = CompiledRows({lab: k for k, lab in enumerate(labels)}, specs)
        pct = np.array([r[4] for r in readings], dtype=float)
        self.pct3 = pct / 3.0
        self.noisy = pct > 0
        self.n_noisy = int(np.count_nonzero(self.noisy))
        self.floor = schedule.sigma_floor

    def readings(self, state: SystemState, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every reading's value and sigma at a state, each noisy reading
        moved by ``0.0 + sigma * z`` with its entry of the ``n_noisy``
        standard normals ``z`` (module docstring)."""
        x = np.array([state.v[n] for n in self.v_nodes]
                     + [state.theta[n] for n in self.th_nodes]
                     + [_draw(conv, state) for conv in self.draws], dtype=float)
        value = self.rows.evaluate(x, with_jac=False)[0]
        sigma = np.maximum(self.pct3 * np.abs(value), self.floor)
        value[self.noisy] += 0.0 + sigma[self.noisy] * z
        return value, sigma

    def measurements(self, state: SystemState, t: float,
                     rng: np.random.Generator) -> list[Measurement]:
        value, sigma = self.readings(state, rng.standard_normal(self.n_noisy))
        out = [Measurement(kind, loc, d, v, s, src, t)
               for (kind, loc, d, src), v, s in zip(self.keys, value.tolist(), sigma.tolist())]
        out += [Measurement(kind, (node,), "", 0.0, 0.0, SOURCE_VIRTUAL_ZERO, t)
                for kind, node in self.zeros]
        return out


def _draw(conv: Converter, state: SystemState) -> float:
    """The power a converter's DC side draws at a state: its AC-side output,
    the aux -> ac coupling flow, plus its loss."""
    a, c = conv.aux_node, conv.ac_node
    p, q = ac_branch_flow(state.v[a], state.theta[a], state.v[c], state.theta[c],
                          conv.coupling_r, conv.coupling_x)
    loss, _ = converter_loss(p, q, state.v[a], (conv.d1, conv.d2, conv.d3))
    return p + loss


def simulate_measurements(grid: GridModel, state: SystemState,
                          schedule: ScheduleConfig, t: float,
                          seed: int | np.random.Generator = 0) -> MeasurementSet:
    """Synthesize the telemetry visible at scenario time ``t`` (seconds).

    SCADA entries appear at multiples of the SCADA period, smart-meter
    entries at multiples of the smart-meter period; zero-injection virtual
    measurements are always present.  Noise is Gaussian with
    sigma = pct/3 * |true value|, floored at ``sigma_floor``.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return MeasurementSet(synthesis_plan(grid, schedule, t).measurements(state, t, rng))


def synthesis_plan(grid: GridModel, schedule: ScheduleConfig, t: float) -> _SynthesisPlan:
    """The kept synthesis plan of the readings visible at time ``t``."""
    ticks = ((t % schedule.scada_period) == 0, (t % schedule.smart_meter_period) == 0)
    return grid.memo(("synthesis", schedule, *ticks),
                     lambda: _SynthesisPlan(grid, schedule, *ticks))


# -- bad data -------------------------------------------------------------------


def inject_bad_data(ms: MeasurementSet, case: int,
                    target: tuple | int | None = None) -> MeasurementSet:
    """Corrupt a measurement set per the three case studies.

    Case 1 doubles one AC active-flow reading, case 2 doubles one converter
    active-power reading, case 3 negates a (P, Q) flow pair of one AC line.
    Default target: the largest-magnitude eligible measurement; pass a branch
    tuple / converter id to override.
    """
    if case not in (1, 2, 3):
        raise ValueError("case must be 1, 2 or 3")
    want_kind = {1: MeasurementKind.AC_P_FLOW, 2: MeasurementKind.CONV_P,
                 3: MeasurementKind.AC_P_FLOW}[case]

    eligible = [(i, m) for i, m in enumerate(ms.measurements)
                if m.kind is want_kind and m.source == SOURCE_SCADA]
    if target is not None:
        key = (target,) if isinstance(target, int) else tuple(target)
        eligible = [(i, m) for i, m in eligible if m.location == key]
    if not eligible:
        raise TelemetryError(f"no eligible target for case {case}")
    idx, chosen = max(eligible, key=lambda im: abs(im[1].value))

    out = list(ms.measurements)
    corrupt = [idx]
    if case in (1, 2):
        out[idx] = replace(chosen, value=2.0 * chosen.value)
    else:
        out[idx] = replace(chosen, value=-chosen.value)
        mate = None
        for j, m in enumerate(ms.measurements):
            if (m.kind is MeasurementKind.AC_Q_FLOW and m.location == chosen.location
                    and m.direction == chosen.direction):
                mate = j
                break
        if mate is None:
            raise TelemetryError("case 3 target has no reactive-flow mate")
        out[mate] = replace(ms.measurements[mate], value=-ms.measurements[mate].value)
        corrupt.append(mate)

    return MeasurementSet(out, tuple(sorted(set(ms.corrupt_indices) | set(corrupt))))
