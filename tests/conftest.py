import json

import pytest

from hybridse import data
from hybridse.grid import grid_from_dict, load_grid, serialize
from hybridse.powerflow import InjectionProfile, load_profile


@pytest.fixture(scope="session")
def toy2():
    return load_grid(data.path(data.TOY2_AC))


@pytest.fixture(scope="session")
def toy5():
    return load_grid(data.path(data.TOY5_HYBRID))


@pytest.fixture(scope="session")
def toy5_loads():
    return load_profile(data.path(data.TOY5_HYBRID_LOADS))


@pytest.fixture(scope="session")
def case33():
    return load_grid(data.path(data.CASE33_HYBRID))


@pytest.fixture(scope="session")
def case33_loads():
    return load_profile(data.path(data.CASE33_HYBRID_LOADS))


@pytest.fixture(scope="session")
def toy5_pq(toy5):
    """toy5 with a second, PQ-mode converter 1: aux node 6 on AC node 1 and
    DC node 7, joined to node 5 by a DC line, at p_set 0.05 and q_set 0.01."""
    doc = json.loads(serialize(toy5))
    conv = dict(doc["converters"][0], id=1, ac_node=1, aux_node=6, dc_node=7,
                control={"mode": "pq", "p_set": 0.05, "q_set": 0.01, "v_dc_set": 1.0})
    doc["converters"].append(conv)
    doc["nodes"] += [{"id": 6, "kind": "ac", "region": 0, "role": "converter-aux"},
                     {"id": 7, "kind": "dc", "region": 1, "role": "junction"}]
    doc["dc_lines"].append({"from": 7, "g": 10.0, "to": 5})
    for region, node, orientation in ((0, 6, "owns-ac-side"), (1, 7, "owns-dc-side")):
        doc["regions"][region]["nodes"].append(node)
        doc["regions"][region]["boundary"].append({"converter": 1,
                                                   "orientation": orientation})
    return grid_from_dict(doc)


@pytest.fixture(scope="session")
def toy5_formed(toy5):
    """toy5 with a third region: AC region 2 holds aux node 6 and load node
    7, fed by converter 1 (converter 0's data in PQ mode) from DC load node
    5.  Region 2 has no slack, so converter 1 forms its voltage and angle
    datum, and DC region 1 holds two converters."""
    doc = json.loads(serialize(toy5))
    conv = dict(doc["converters"][0], id=1, ac_node=7, aux_node=6, dc_node=5,
                control=dict(doc["converters"][0]["control"], mode="pq"))
    doc["converters"].append(conv)
    doc["nodes"] += [{"id": 6, "kind": "ac", "region": 2, "role": "converter-aux"},
                     {"id": 7, "kind": "ac", "region": 2, "role": "load"}]
    doc["regions"][1]["boundary"].append({"converter": 1, "orientation": "owns-dc-side"})
    doc["regions"].append({"id": 2, "kind": "ac", "nodes": [6, 7],
                           "boundary": [{"converter": 1, "orientation": "owns-ac-side"}]})
    return grid_from_dict(doc)


@pytest.fixture(scope="session")
def toy5_formed_loads(toy5_loads):
    """toy5's loads plus load node 7 of ``toy5_formed``."""
    return InjectionProfile(p={**toy5_loads.p, 7: -0.05}, q={**toy5_loads.q, 7: -0.02})
