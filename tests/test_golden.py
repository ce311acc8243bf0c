"""Golden artifacts: the reproducible Monte-Carlo outputs of a small matrix
must stay byte-identical unless a change declares its change in behaviour.

Each scenario writes ``runs.csv``, ``aggregate.csv`` and ``trace_boundary.csv``;
their sha256 digests are pinned below.  To regenerate after a declared change
in behaviour, run from the repository root

    PYTHONPATH=src python tests/test_golden.py

and paste the printed table over ``GOLDEN``, naming the changed entries in
CHANGES.md.
"""

import hashlib
import os
from pathlib import Path

import pytest

from hybridse import data
from hybridse.bench import Scenario, run_montecarlo

ARTIFACTS = ("runs.csv", "aggregate.csv", "trace_boundary.csv")

# name -> (grid, loads, method, bad-data case); 3 runs each, master seed 20240
MATRIX = {
    "case33_drse_0": (data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS, "drse", 0),
    "case33_drse_2": (data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS, "drse", 2),
    "case33_drse_pseudo_2": (data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS, "drse_pseudo", 2),
    "case33_dwls_0": (data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS, "dwls", 0),
    "case33_dwls_2": (data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS, "dwls", 2),
    # each of the 3 runs re-runs DWLS without 4 readings
    "case33_dwls_3": (data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS, "dwls", 3),
    "case33_dwls_pseudo_2": (data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS, "dwls_pseudo", 2),
    "case33_cwls_0": (data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS, "cwls", 0),
    "case33_cwls_2": (data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS, "cwls", 2),
    "toy5_cwls_0": (data.TOY5_HYBRID, data.TOY5_HYBRID_LOADS, "cwls", 0),
    "toy5_drse_0": (data.TOY5_HYBRID, data.TOY5_HYBRID_LOADS, "drse", 0),
}

GOLDEN = {
    'case33_cwls_0': {
        'runs.csv':
            '6ac4952eb1306745fe6e87faf4f5f56b18e9d4a28e95170bc60177f8f052a0a2',
        'aggregate.csv':
            'd10fce8678508ae09981a5c77068fca0c0efbdc8c397cb3276f6dcb7ce1f2816',
        'trace_boundary.csv':
            'a5a167877507525c739b2d6f00dba5a75a3542e3955ba06aeccf96b7b8db8c08',
    },
    'case33_cwls_2': {
        'runs.csv':
            'ac3e174fdb8b3405129a56f9430fac5100e412306f04ed4d017c4e3bdedb05d1',
        'aggregate.csv':
            'e31ea501622184c7634857311e86cf65d583be4ed493cb4484f8ddacc8779d1b',
        'trace_boundary.csv':
            'a5a167877507525c739b2d6f00dba5a75a3542e3955ba06aeccf96b7b8db8c08',
    },
    'case33_drse_0': {
        'runs.csv':
            '262ac844bc676f07fbefaf6b2dac092c996f6fd8824e4aae1925e238339a0d08',
        'aggregate.csv':
            '3969325ae8ef5fd88f459c2488716689627022fbc9575d1b55271353401ea720',
        'trace_boundary.csv':
            'e5b288a62737dd5502948f34498f2f4e44c68b931b029bc5d9fb7fa9cfc8e30c',
    },
    'case33_drse_2': {
        'runs.csv':
            'dd66053150ca10517d323e2832822511f5c31aae9adcab0c93d2f5dbee446081',
        'aggregate.csv':
            '855fe29bb826f947815c1fdcc1d41623720dbddaa9c9bd8554b4dbbddb69e027',
        'trace_boundary.csv':
            '270c88b13e4510d9f63ab862a1063fc4fa9a4251e483936b4f78bab9d0e38629',
    },
    'case33_drse_pseudo_2': {
        'runs.csv':
            'd610dfa985bf926dde07ecbaada654d4d7993258b2b787ec2e92feac9506deea',
        'aggregate.csv':
            '17d1f35aa4d9e355ae33a1d5e4286d1911a3a24123735e3726495c85af8e4097',
        'trace_boundary.csv':
            '106950a68b9cd3597e90c4a609560fc1cd243e4c35d85e65c39d66ce6083f983',
    },
    'case33_dwls_0': {
        'runs.csv':
            '77a00015deb0e10bf7a30bd8636d3095d3b21d74ff7072540be4fde0c75be335',
        'aggregate.csv':
            '1c5a2eedc24ed3c6817398badbee62e12c8545871e74c0d1e3e679da391d211a',
        'trace_boundary.csv':
            'dcf67fb3a5d87aaa6145ac2c4820858571f7091c2c7b201bb0904fbde61d6e56',
    },
    'case33_dwls_2': {
        'runs.csv':
            '9f3a899b0eef2396781719447ede6776cbe17bc4379d89508a61afbb21f241f3',
        'aggregate.csv':
            'a99473096cd53c09ce5347648fb26ef8247a52791e25af22a1d58c871d96ff47',
        'trace_boundary.csv':
            'c533d6b09844689ffbd769823c599d9f2449ff7b18704987aef1b348c390df04',
    },
    'case33_dwls_3': {
        'runs.csv':
            '878bb252097be90506a91f2493bac0be14d6d30f981589c11745619bd8381e3a',
        'aggregate.csv':
            '3abee264f7dbc411bfba5832d8308e683f2de3f568bdaff7dd355462931f95cf',
        'trace_boundary.csv':
            'ffff83463bce8d26f6f38f828b51b0168022ac1b7e5980f9fe1b5f17fe62b131',
    },
    'case33_dwls_pseudo_2': {
        'runs.csv':
            'ffe6d4857e6c492a2198d4ae7bf781a8c7a3509e7e0d6ec359b999082f55cf41',
        'aggregate.csv':
            '7c09895da89c6461e3639f6818463be2b9115a97a74930c69ad334dc121e69a4',
        'trace_boundary.csv':
            '5b1e0d4fbcfae8a7c2394a8ce41ee7046eb9fa36dc07343d9950b035cdf4a8b4',
    },
    'toy5_cwls_0': {
        'runs.csv':
            'bc6f11531f793999be665830b728d0cef1da0473d1b8a17571926669a4db59bc',
        'aggregate.csv':
            'b40b64d550695acc0911a4326155c88c7369ae0036244bc919fb1b15b34adcae',
        'trace_boundary.csv':
            'a5a167877507525c739b2d6f00dba5a75a3542e3955ba06aeccf96b7b8db8c08',
    },
    'toy5_drse_0': {
        'runs.csv':
            '6df50c04ed29c0abb3ea79b41ca958406a3e5c7f6cd1f08ecd6fc73f494f780b',
        'aggregate.csv':
            '5afe65630389413798ae9eddf5cfcedbe647735f4bc64c7c1f256cc52e678ad2',
        'trace_boundary.csv':
            'aba41f294c79e88ed35a7d17ebc31cc1431a035330d7fd48c3fbaa589c606870',
    },
}


def artifact_digests(name: str, out: Path) -> dict[str, str]:
    grid, loads, method, case = MATRIX[name]
    scenario = Scenario(grid=str(data.path(grid)), method=method, runs=3, seed=20240,
                        base_profile=str(data.path(loads)), test_days=5,
                        bad_data_case=case)
    run_montecarlo(scenario, out_dir=out)
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ARTIFACTS}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_artifacts_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.setenv("HYBRIDSE_WORKERS", "1")
    assert artifact_digests(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    os.environ["HYBRIDSE_WORKERS"] = "1"
    print("GOLDEN = {")
    for name in sorted(MATRIX):
        with tempfile.TemporaryDirectory() as tmp:
            digests = artifact_digests(name, Path(tmp))
        print(f"    {name!r}: {{")
        for f in ARTIFACTS:
            print(f"        {f!r}:\n            {digests[f]!r},")
        print("    },")
    print("}")
