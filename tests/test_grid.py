import json

import numpy as np
import pytest

from hybridse import data
from hybridse.grid import (AC, DC, GridParseError, GridValidationError,
                           build_admittance, grid_from_dict, load_grid, serialize)


def test_toy2_loads(toy2):
    assert len(toy2.nodes) == 2
    assert all(n.kind == AC for n in toy2.nodes)
    assert len(toy2.ac_lines) == 1
    assert len(toy2.regions) == 1
    assert toy2.slack == 1


def test_case33_structure(case33):
    assert case33.region(case33.node(case33.slack).region).kind == AC
    dc_regions = [r for r in case33.regions if r.kind == DC]
    assert len(dc_regions) == 2
    # every converter ties one AC region to one DC region
    for conv in case33.converters:
        sides = [(r.id, orient) for r in case33.regions
                 for cid, orient in r.boundary if cid == conv.id]
        kinds = {case33.region(rid).kind for rid, _ in sides}
        assert kinds == {AC, DC}
    # measured lateral heads stay AC in the bundled variant
    ac_pairs = {(l.from_node, l.to_node) for l in case33.ac_lines}
    for pair in [(1, 2), (2, 19), (3, 23), (6, 26)]:
        assert pair in ac_pairs


def test_roundtrip(tmp_path, case33, toy2, toy5):
    for grid in (case33, toy2, toy5):
        path = tmp_path / "g.json"
        path.write_text(serialize(grid))
        again = load_grid(path)
        assert again == grid
        # deterministic bytes
        assert serialize(again) == serialize(grid)


def _toy_dict():
    return json.loads(serialize(load_grid(data.path(data.TOY5_HYBRID))))


def test_converter_aux_must_be_ac():
    doc = _toy_dict()
    for n in doc["nodes"]:
        if n["id"] == 3:
            n["kind"] = "dc"
    with pytest.raises(GridValidationError):
        grid_from_dict(doc)
    # consistently DC-kind (moved into the DC region) still trips the aux invariant
    doc = _toy_dict()
    for n in doc["nodes"]:
        if n["id"] == 3:
            n["kind"] = "dc"
            n["region"] = 1
    for r in doc["regions"]:
        r["nodes"] = [1, 2] if r["id"] == 0 else [3, 4, 5]
    with pytest.raises(GridValidationError, match="aux_node 3 must be AC"):
        grid_from_dict(doc)


def test_line_crossing_regions_rejected():
    doc = _toy_dict()
    doc["ac_lines"].append({"from": 1, "to": 3, "r": 0.01, "x": 0.01})
    grid_from_dict(doc)  # still fine, both in region 0
    doc = _toy_dict()
    # move node 2 to a fresh AC region: line 1-2 now crosses
    doc["regions"].append({"id": 2, "kind": "ac", "nodes": [2], "boundary": []})
    for r in doc["regions"]:
        if r["id"] == 0:
            r["nodes"] = [1, 3]
    for n in doc["nodes"]:
        if n["id"] == 2:
            n["region"] = 2
    with pytest.raises(GridValidationError, match="crosses regions"):
        grid_from_dict(doc)


def test_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GridParseError):
        load_grid(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(GridParseError, match="nodes"):
        load_grid(empty)


def test_admittance_2node_ac(toy2):
    adm = build_admittance(toy2, toy2.regions[0])
    # series admittance of r=0.01, x=0.02 is 20 - 40j; off-diagonal is its negative
    y = 1 / complex(0.01, 0.02)
    assert np.isclose(y.real, 20.0) and np.isclose(y.imag, -40.0)
    i, j = adm.index[1], adm.index[2]
    assert np.isclose(adm.g[i, j], -20.0)
    assert np.isclose(adm.b[i, j], 40.0)
    assert np.isclose(adm.g[i, i], 20.0)
    assert np.isclose(adm.b[i, i], -40.0)


def test_admittance_2node_dc():
    doc = {
        "nodes": [{"id": 1, "kind": "ac", "region": 0, "role": "substation"},
                  {"id": 2, "kind": "dc", "region": 1, "role": "load"},
                  {"id": 3, "kind": "dc", "region": 1, "role": "load"}],
        "ac_lines": [], "dc_lines": [{"from": 2, "to": 3, "g": 10.0}],
        "converters": [],
        "regions": [{"id": 0, "kind": "ac", "nodes": [1], "boundary": []},
                    {"id": 1, "kind": "dc", "nodes": [2, 3], "boundary": []}],
        "slack": 1,
    }
    # region adjacency is disconnected without a converter, so validate manually
    with pytest.raises(GridValidationError, match="adjacency"):
        grid_from_dict(doc)


def test_dc_laplacian(toy5):
    region = toy5.region(1)
    adm = build_admittance(toy5, region)
    assert np.allclose(adm.y, [[10.0, -10.0], [-10.0, 10.0]])


def test_disconnected_region_rejected():
    doc = _toy_dict()
    doc["dc_lines"] = []   # region 1 has 2 nodes and no lines
    with pytest.raises(GridValidationError, match="disconnected"):
        grid_from_dict(doc)


@pytest.mark.parametrize("grid_name", [data.TOY2_AC, data.TOY5_HYBRID, data.CASE33_HYBRID])
def test_admittance_symmetric_zero_rowsum(grid_name):
    grid = load_grid(data.path(grid_name))
    for region in grid.regions:
        adm = build_admittance(grid, region)
        mats = [adm.g, adm.b] if region.kind == AC else [adm.y]
        for m in mats:
            assert np.allclose(m, m.T)
            assert np.allclose(m.sum(axis=1), 0.0, atol=1e-12)
