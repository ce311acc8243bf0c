"""Static model of a hybrid AC/DC distribution grid.

A grid is a set of AC and DC nodes partitioned into single-kind regions that
are stitched together by voltage-source converters.  Each converter couples an
AC node ``i`` to a DC node ``j`` through an auxiliary AC node ``c``: the
converter injects its AC-side output at ``c`` and a series r+jx branch carries
it from ``c`` to ``i``.  The model is immutable after loading and safe to
share between workers.

Grid files are JSON with top-level keys ``nodes``, ``ac_lines``, ``dc_lines``,
``converters``, ``regions`` and ``slack``.  All numeric values are per-unit on
a common MVA base.  Serialization is deterministic (sorted keys, shortest
round-trip floats) so that ``load_grid(serialize(g))`` reproduces ``g``
field-for-field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

AC = "ac"
DC = "dc"

ROLE_SUBSTATION = "substation"
ROLE_LOAD = "load"
ROLE_GENERATION = "generation"
ROLE_JUNCTION = "junction"
ROLE_CONVERTER_AUX = "converter-aux"
_ROLES = {ROLE_SUBSTATION, ROLE_LOAD, ROLE_GENERATION, ROLE_JUNCTION, ROLE_CONVERTER_AUX}

OWNS_AC = "owns-ac-side"
OWNS_DC = "owns-dc-side"

# structures a grid compiles and keeps (GridModel.memo), its own and one per
# row set that estimates read; beyond this many the oldest goes first
MEMO_ENTRIES = 128

MODE_PQ = "pq"
MODE_DC_SLACK = "dc_slack"


class GridError(ValueError):
    """Base class for grid file problems."""


class GridParseError(GridError):
    """The file is not valid JSON or misses required fields."""


class GridValidationError(GridError):
    """A structural invariant is violated; the message names it."""


@dataclass(frozen=True)
class Node:
    id: int
    kind: str          # AC or DC
    region: int
    role: str


@dataclass(frozen=True)
class AcLine:
    from_node: int
    to_node: int
    r: float           # series resistance, p.u.
    x: float           # series reactance, p.u.


@dataclass(frozen=True)
class DcLine:
    from_node: int
    to_node: int
    g: float           # series conductance, p.u.


@dataclass(frozen=True)
class ConverterControl:
    mode: str                    # "pq" or "dc_slack"
    p_set: float = 0.0           # AC-side active output (pq mode)
    q_set: float = 0.0           # AC-side reactive output (both modes)
    v_dc_set: float = 1.0        # held DC voltage (dc_slack mode)


@dataclass(frozen=True)
class Converter:
    """AC/DC converter between nodes ``ac_node`` (i) and ``dc_node`` (j).

    The auxiliary node ``aux_node`` (c) is an AC node that carries the
    converter injection; ``coupling_r`` + j ``coupling_x`` is the series
    branch between c and i.  ``d1, d2, d3`` are the constant, linear and
    quadratic loss coefficients of the converter current.
    """

    id: int
    ac_node: int
    dc_node: int
    aux_node: int
    coupling_r: float
    coupling_x: float
    d1: float
    d2: float
    d3: float
    control: ConverterControl


@dataclass(frozen=True)
class Region:
    id: int
    kind: str                                  # AC or DC
    nodes: frozenset[int]
    boundary: tuple[tuple[int, str], ...]      # (converter id, orientation)


@dataclass(frozen=True)
class GridModel:
    nodes: tuple[Node, ...]
    ac_lines: tuple[AcLine, ...]
    dc_lines: tuple[DcLine, ...]
    converters: tuple[Converter, ...]
    regions: tuple[Region, ...]
    slack: int

    def __post_init__(self):
        object.__setattr__(self, "_node_by_id", {n.id: n for n in self.nodes})
        object.__setattr__(self, "_region_by_id", {r.id: r for r in self.regions})
        object.__setattr__(self, "_conv_by_id", {c.id: c for c in self.converters})
        # branch lookups; the first branch listed between two nodes wins and
        # incident branches keep file order (lines, then converter couplings)
        ac_branch, dc_branch = {}, {}
        incident_ac: dict[int, list] = {}
        incident_dc: dict[int, list] = {}
        for a, b, r, x in ([(ln.from_node, ln.to_node, ln.r, ln.x) for ln in self.ac_lines]
                           + [(c.aux_node, c.ac_node, c.coupling_r, c.coupling_x)
                              for c in self.converters]):
            ac_branch.setdefault(frozenset((a, b)), (r, x))
            incident_ac.setdefault(a, []).append((b, r, x))
            incident_ac.setdefault(b, []).append((a, r, x))
        for ln in self.dc_lines:
            dc_branch.setdefault(frozenset((ln.from_node, ln.to_node)), ln.g)
            incident_dc.setdefault(ln.from_node, []).append((ln.to_node, ln.g))
            incident_dc.setdefault(ln.to_node, []).append((ln.from_node, ln.g))
        conv_at_aux, convs_at_dc = {}, {}
        for c in self.converters:
            conv_at_aux.setdefault(c.aux_node, c)
            convs_at_dc.setdefault(c.dc_node, []).append(c)
        for name, value in (("_ac_branch", ac_branch), ("_dc_branch", dc_branch),
                            ("_incident_ac", incident_ac), ("_incident_dc", incident_dc),
                            ("_conv_at_aux", conv_at_aux), ("_convs_at_dc", convs_at_dc),
                            ("_memo", {})):
            object.__setattr__(self, name, value)

    # -- lookups -----------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self._node_by_id[node_id]

    def memo(self, key, build):
        """The structure compiled from this grid under ``key``: ``build()``
        on first use, kept afterwards.  At most ``MEMO_ENTRIES`` are kept; a
        new one evicts the oldest, which is built again when next asked for."""
        kept = self._memo
        entry = kept.get(key)
        if entry is None:
            entry = kept[key] = build()     # which may keep structures of its own
            while len(kept) > MEMO_ENTRIES:
                del kept[next(iter(kept))]
        return entry

    def admittance(self, region_id: int) -> "AcAdmittance | DcAdmittance":
        """The kept :func:`build_admittance` of a region; treat it as
        read-only."""
        return self.memo(("admittance", region_id),
                         lambda: build_admittance(self, self.region(region_id)))

    def region(self, region_id: int) -> Region:
        return self._region_by_id[region_id]

    def converter(self, conv_id: int) -> Converter:
        return self._conv_by_id[conv_id]

    def ac_lines_in(self, region_id: int) -> list[AcLine]:
        nodes = self.region(region_id).nodes
        return [ln for ln in self.ac_lines if ln.from_node in nodes]

    def dc_lines_in(self, region_id: int) -> list[DcLine]:
        nodes = self.region(region_id).nodes
        return [ln for ln in self.dc_lines if ln.from_node in nodes]

    def couplings_in(self, region_id: int) -> list[Converter]:
        """Converters whose c-i coupling branch lies inside this AC region."""
        nodes = self.region(region_id).nodes
        return [c for c in self.converters if c.aux_node in nodes]

    def converter_at_aux(self, node_id: int) -> Converter | None:
        return self._conv_at_aux.get(node_id)

    def converters_at_dc_node(self, node_id: int) -> list[Converter]:
        return list(self._convs_at_dc.get(node_id, ()))

    def incident_ac_branches(self, node_id: int) -> list[tuple[int, float, float]]:
        """(other end, r, x) of every AC branch at a node, couplings included."""
        return list(self._incident_ac.get(node_id, ()))

    def incident_dc_branches(self, node_id: int) -> list[tuple[int, float]]:
        return list(self._incident_dc.get(node_id, ()))

    def ac_branch(self, a: int, b: int) -> tuple[float, float] | None:
        """(r, x) of the AC branch (line or converter coupling) between two
        nodes, or None."""
        return self._ac_branch.get(frozenset((a, b)))

    def dc_branch(self, a: int, b: int) -> float | None:
        """Conductance of the DC line between two nodes, or None."""
        return self._dc_branch.get(frozenset((a, b)))

    def angle_reference(self, region_id: int) -> int:
        """Angle datum of an AC region.

        The root region uses the system slack; a region reachable only
        through converters uses the aux node of its first boundary converter
        (converters decouple angle between regions).
        """
        region = self.region(region_id)
        if region.kind != AC:
            raise GridValidationError(f"region {region_id} is not AC")
        if self.slack in region.nodes:
            return self.slack
        for cid, orient in region.boundary:
            if orient == OWNS_AC:
                return self.converter(cid).aux_node
        raise GridValidationError(f"AC region {region_id} has no angle reference")

    def injection_nodes(self) -> list[Node]:
        """Nodes that carry load or generation (smart-meter locations)."""
        return [n for n in self.nodes if n.role in (ROLE_LOAD, ROLE_GENERATION)]

    def junction_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.role == ROLE_JUNCTION]


# -- admittance ------------------------------------------------------------


@dataclass(frozen=True)
class AcAdmittance:
    """Series-only nodal conductance/susceptance matrices of an AC region."""

    index: dict[int, int]
    g: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class DcAdmittance:
    """Nodal conductance matrix (Laplacian) of a DC region."""

    index: dict[int, int]
    y: np.ndarray


def build_admittance(grid: GridModel, region: Region) -> AcAdmittance | DcAdmittance:
    """Nodal admittance structure of a region.

    No shunt elements are modeled, so rows sum to zero and matrices are
    symmetric.  Converter coupling branches count as member branches of the
    AC region that owns them.

    Raises GridValidationError for an empty region or one whose member
    branches do not connect all its nodes.
    """
    nodes = sorted(region.nodes)
    if not nodes:
        raise GridValidationError(f"region {region.id} is empty")
    index = {n: k for k, n in enumerate(nodes)}
    n = len(nodes)

    if region.kind == AC:
        g = np.zeros((n, n))
        b = np.zeros((n, n))
        branches = [(ln.from_node, ln.to_node, ln.r, ln.x)
                    for ln in grid.ac_lines_in(region.id)]
        branches += [(c.aux_node, c.ac_node, c.coupling_r, c.coupling_x)
                     for c in grid.couplings_in(region.id)]
        for fr, to, r, x in branches:
            y = 1.0 / complex(r, x)
            a, bidx = index[fr], index[to]
            g[a, a] += y.real
            g[bidx, bidx] += y.real
            g[a, bidx] -= y.real
            g[bidx, a] -= y.real
            b[a, a] += y.imag
            b[bidx, bidx] += y.imag
            b[a, bidx] -= y.imag
            b[bidx, a] -= y.imag
        edges = [(fr, to) for fr, to, _, _ in branches]
        adm = AcAdmittance(index=index, g=g, b=b)
    else:
        y = np.zeros((n, n))
        lines = grid.dc_lines_in(region.id)
        for ln in lines:
            a, bidx = index[ln.from_node], index[ln.to_node]
            y[a, a] += ln.g
            y[bidx, bidx] += ln.g
            y[a, bidx] -= ln.g
            y[bidx, a] -= ln.g
        edges = [(ln.from_node, ln.to_node) for ln in lines]
        adm = DcAdmittance(index=index, y=y)
    missing = _unreached(nodes, edges)
    if missing:
        raise GridValidationError(
            f"region {region.id} is disconnected (unreached nodes {missing})")
    return adm


def _unreached(items: list, edges) -> list:
    """The items that the undirected ``edges`` do not join to the first item,
    sorted."""
    adj: dict = {item: [] for item in items}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set(items[:1])
    stack = list(seen)
    while stack:
        for m in adj[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return sorted(set(items) - seen)


# -- load / serialize ------------------------------------------------------


def load_grid(path: str | Path) -> GridModel:
    """Parse and validate a grid file.

    Raises GridParseError on malformed JSON / missing keys and
    GridValidationError naming the first violated invariant.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GridParseError(f"cannot parse grid file {path}: {exc}") from exc
    return grid_from_dict(raw)


def grid_from_dict(raw: dict) -> GridModel:
    for key in ("nodes", "ac_lines", "dc_lines", "converters", "regions", "slack"):
        if key not in raw:
            raise GridParseError(f"missing top-level key {key!r}")
    try:
        nodes = tuple(Node(id=int(n["id"]), kind=n["kind"], region=int(n["region"]),
                           role=n["role"])
                      for n in raw["nodes"])
        ac_lines = tuple(AcLine(from_node=int(l["from"]), to_node=int(l["to"]),
                                r=float(l["r"]), x=float(l["x"]))
                         for l in raw["ac_lines"])
        dc_lines = tuple(DcLine(from_node=int(l["from"]), to_node=int(l["to"]),
                                g=float(l["g"]))
                         for l in raw["dc_lines"])
        converters = tuple(
            Converter(id=int(c["id"]), ac_node=int(c["ac_node"]),
                      dc_node=int(c["dc_node"]), aux_node=int(c["aux_node"]),
                      coupling_r=float(c["coupling_r"]),
                      coupling_x=float(c["coupling_x"]),
                      d1=float(c["d1"]), d2=float(c["d2"]), d3=float(c["d3"]),
                      control=ConverterControl(
                          mode=c["control"]["mode"],
                          p_set=float(c["control"].get("p_set", 0.0)),
                          q_set=float(c["control"].get("q_set", 0.0)),
                          v_dc_set=float(c["control"].get("v_dc_set", 1.0))))
            for c in raw["converters"])
        regions = tuple(
            Region(id=int(r["id"]), kind=r["kind"],
                   nodes=frozenset(int(n) for n in r["nodes"]),
                   boundary=tuple((int(b["converter"]), b["orientation"])
                                  for b in r.get("boundary", [])))
            for r in raw["regions"])
        slack = int(raw["slack"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GridParseError(f"malformed grid entry: {exc}") from exc

    grid = GridModel(nodes=nodes, ac_lines=ac_lines, dc_lines=dc_lines,
                     converters=converters, regions=regions, slack=slack)
    validate_grid(grid)
    return grid


def serialize(grid: GridModel) -> str:
    """Deterministic JSON text for a grid (sorted keys, round-trip floats)."""
    doc = {
        "nodes": [{"id": n.id, "kind": n.kind, "region": n.region, "role": n.role}
                  for n in grid.nodes],
        "ac_lines": [{"from": l.from_node, "to": l.to_node, "r": l.r, "x": l.x}
                     for l in grid.ac_lines],
        "dc_lines": [{"from": l.from_node, "to": l.to_node, "g": l.g}
                     for l in grid.dc_lines],
        "converters": [{
            "id": c.id, "ac_node": c.ac_node, "dc_node": c.dc_node,
            "aux_node": c.aux_node, "coupling_r": c.coupling_r,
            "coupling_x": c.coupling_x, "d1": c.d1, "d2": c.d2, "d3": c.d3,
            "control": {"mode": c.control.mode, "p_set": c.control.p_set,
                        "q_set": c.control.q_set, "v_dc_set": c.control.v_dc_set},
        } for c in grid.converters],
        "regions": [{
            "id": r.id, "kind": r.kind, "nodes": sorted(r.nodes),
            "boundary": [{"converter": cid, "orientation": orient}
                         for cid, orient in r.boundary],
        } for r in grid.regions],
        "slack": grid.slack,
    }
    return json.dumps(doc, sort_keys=True, indent=1)


# -- validation ------------------------------------------------------------


def validate_grid(grid: GridModel) -> None:
    ids = [n.id for n in grid.nodes]
    if len(set(ids)) != len(ids):
        raise GridValidationError("duplicate node ids")
    rids = [r.id for r in grid.regions]
    if len(set(rids)) != len(rids):
        raise GridValidationError("duplicate region ids")
    cids = [c.id for c in grid.converters]
    if len(set(cids)) != len(cids):
        raise GridValidationError("duplicate converter ids")

    by_id = {n.id: n for n in grid.nodes}
    regions = {r.id: r for r in grid.regions}

    for n in grid.nodes:
        if n.kind not in (AC, DC):
            raise GridValidationError(f"node {n.id} has unknown kind {n.kind!r}")
        if n.role not in _ROLES:
            raise GridValidationError(f"node {n.id} has unknown role {n.role!r}")
        if n.region not in regions:
            raise GridValidationError(f"node {n.id} references missing region {n.region}")
        if n.kind != regions[n.region].kind:
            raise GridValidationError(
                f"node {n.id} kind {n.kind} differs from region {n.region} kind")
        if n.id not in regions[n.region].nodes:
            raise GridValidationError(f"node {n.id} missing from region {n.region} node set")

    # regions partition the node set
    seen: set[int] = set()
    for r in grid.regions:
        if r.kind not in (AC, DC):
            raise GridValidationError(f"region {r.id} has unknown kind {r.kind!r}")
        for nid in r.nodes:
            if nid not in by_id:
                raise GridValidationError(f"region {r.id} lists unknown node {nid}")
            if nid in seen:
                raise GridValidationError(f"node {nid} appears in two regions")
            seen.add(nid)
    if seen != set(ids):
        raise GridValidationError("regions do not cover all nodes")

    for ln in grid.ac_lines:
        for end in (ln.from_node, ln.to_node):
            if end not in by_id or by_id[end].kind != AC:
                raise GridValidationError(f"AC line {ln.from_node}-{ln.to_node} endpoint {end} is not an AC node")
        if by_id[ln.from_node].region != by_id[ln.to_node].region:
            raise GridValidationError(f"AC line {ln.from_node}-{ln.to_node} crosses regions")
        if ln.r < 0 or ln.x <= 0:
            raise GridValidationError(f"AC line {ln.from_node}-{ln.to_node} needs r >= 0 and x > 0")
    for ln in grid.dc_lines:
        for end in (ln.from_node, ln.to_node):
            if end not in by_id or by_id[end].kind != DC:
                raise GridValidationError(f"DC line {ln.from_node}-{ln.to_node} endpoint {end} is not a DC node")
        if by_id[ln.from_node].region != by_id[ln.to_node].region:
            raise GridValidationError(f"DC line {ln.from_node}-{ln.to_node} crosses regions")
        if ln.g <= 0:
            raise GridValidationError(f"DC line {ln.from_node}-{ln.to_node} needs g > 0")

    bound: dict[int, list[tuple[int, str]]] = {c.id: [] for c in grid.converters}
    for r in grid.regions:
        for cid, orient in r.boundary:
            if cid not in bound:
                raise GridValidationError(f"region {r.id} boundary references unknown converter {cid}")
            if orient not in (OWNS_AC, OWNS_DC):
                raise GridValidationError(f"region {r.id} has unknown orientation {orient!r}")
            bound[cid].append((r.id, orient))

    for c in grid.converters:
        for nid, want_kind, label in ((c.ac_node, AC, "ac_node"),
                                      (c.dc_node, DC, "dc_node"),
                                      (c.aux_node, AC, "aux_node")):
            if nid not in by_id:
                raise GridValidationError(f"converter {c.id} {label} {nid} does not exist")
            if by_id[nid].kind != want_kind:
                raise GridValidationError(
                    f"converter {c.id} {label} {nid} must be {want_kind.upper()}-kind")
        if by_id[c.aux_node].role != ROLE_CONVERTER_AUX:
            raise GridValidationError(f"converter {c.id} aux node {c.aux_node} must have role converter-aux")
        if c.aux_node in (c.ac_node, c.dc_node):
            raise GridValidationError(f"converter {c.id} aux node must be distinct from its terminals")
        if by_id[c.aux_node].region != by_id[c.ac_node].region:
            raise GridValidationError(f"converter {c.id} aux node and ac node must share a region")
        if min(c.d1, c.d2, c.d3) < 0:
            raise GridValidationError(f"converter {c.id} loss coefficients must be non-negative")
        if c.coupling_r < 0 or c.coupling_x <= 0:
            raise GridValidationError(f"converter {c.id} coupling needs r >= 0 and x > 0")
        if c.control.mode not in (MODE_PQ, MODE_DC_SLACK):
            raise GridValidationError(f"converter {c.id} has unknown control mode {c.control.mode!r}")
        sides = bound[c.id]
        if len(sides) != 2 or {o for _, o in sides} != {OWNS_AC, OWNS_DC}:
            raise GridValidationError(
                f"converter {c.id} must appear in exactly two regions with opposite orientation")
        for rid, orient in sides:
            if orient == OWNS_AC:
                if c.ac_node not in regions[rid].nodes or c.aux_node not in regions[rid].nodes:
                    raise GridValidationError(
                        f"region {rid} owns the AC side of converter {c.id} but lacks its AC/aux nodes")
            else:
                if c.dc_node not in regions[rid].nodes:
                    raise GridValidationError(
                        f"region {rid} owns the DC side of converter {c.id} but lacks its DC node")

    if grid.slack not in by_id:
        raise GridValidationError(f"slack node {grid.slack} does not exist")
    if by_id[grid.slack].kind != AC or by_id[grid.slack].role != ROLE_SUBSTATION:
        raise GridValidationError("slack must be an AC node with role substation")

    # per-region connectivity (also validates member branches); the
    # admittances are kept for the solvers
    for r in grid.regions:
        grid.admittance(r.id)

    # region adjacency through converters must connect every region
    if _unreached(rids, [(a, b) for (a, _), (b, _) in bound.values()]):
        raise GridValidationError("region adjacency graph is disconnected")
