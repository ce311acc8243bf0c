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
            'a342256c9babe416b74428d270f03957aff76a6beb5e83c6e23e5c5053c7b64a',
        'aggregate.csv':
            'e966f1ed1b6da2edd06b3c1f93ce6e7ad5eeca30bf385a133a989d3e60b3c9c6',
        'trace_boundary.csv':
            '9920ea985f6747dc135603c22ea78cedcbf1b5d7b644236d9bfe1993c98c624d',
    },
    'case33_drse_2': {
        'runs.csv':
            'b3593c97977dc7d012835c90360e458b9fe8f4275d41324219b903dc3bf51cba',
        'aggregate.csv':
            '2de4e94a02390d43f98ddc2f0d302edebd9782aa3741c265299e30968bb8f047',
        'trace_boundary.csv':
            '65d302af158803767ffea310f935af0d1a42be40f2752cc0695304aa770eb66e',
    },
    'case33_drse_pseudo_2': {
        'runs.csv':
            '54319fa775b1c46618be2bca2cdaa56530b71d73ade8da694efc118ff7a6c5cd',
        'aggregate.csv':
            '3ac1314f0b8cf6295a6bacd74198b6d2054e61f76453768045b222cd4dd499cc',
        'trace_boundary.csv':
            '0424bc87da35947d03b34f3df2bf06ab81aaf1ab15bfb1c3d5453f8558ad3edf',
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
            'bfd31f7b04cc16fc1870f08bc602d2930589707c39b103124036449477d39c64',
        'aggregate.csv':
            '3b3591d2d039044fda8bcdfa0cea60ea717b846d7cb9f36caaf4b8b0aac28daa',
        'trace_boundary.csv':
            'da7b9cf7b37350178f652d0052ad9e8e00b20c4a3b0e3540db8a23b74e5eee38',
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
