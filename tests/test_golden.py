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
            '61440ab63ac492589f2278f9e4d2e2afe5f8664d95f84a4a62bb6c9f875a3113',
        'aggregate.csv':
            '36a97d4df5f7f53f64bd4af4593c541de744f105b0adf57afd55584712c86aa6',
        'trace_boundary.csv':
            'a5a167877507525c739b2d6f00dba5a75a3542e3955ba06aeccf96b7b8db8c08',
    },
    'case33_cwls_2': {
        'runs.csv':
            'b9d10b3e5bac89e14b04d87f28bfa94cb5de1d697113680cc2db404d7b1bec55',
        'aggregate.csv':
            '75049ad89c68fa4249926c5b456bd4f86ee579004421a1bec0b0547b848bb6b9',
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
            'fa699511f43ed8eb1bdcf2c720d0e2c54dbab1a39fe70e8b86bf7709212c23e5',
        'aggregate.csv':
            '05d916346a0a1a20e3e6beeac240dbc1a4f1bc5db904505673651025cd210e42',
        'trace_boundary.csv':
            '20046eadd3de37e3160f19ecd25d5c0c1785c9a45127a858178954621044740a',
    },
    'case33_dwls_2': {
        'runs.csv':
            '6570bd025caa1f26db0d21269835a3c9f40daa689860f73c02e4219a1e33109d',
        'aggregate.csv':
            'e2a79f9c5bacf84546599c583a621a676d0fa6cb299bad3a3b98809d95db2c0c',
        'trace_boundary.csv':
            '4e7b7a68c807f81db198c7e67afb87ddab73d1ed603c31f5942eb3c703f8cdec',
    },
    'case33_dwls_pseudo_2': {
        'runs.csv':
            '63fa09424387775ce9d8f44b80347f98ed48aadbde78e3ea85d4d863dce099b4',
        'aggregate.csv':
            'd2b2f3622a3201dd57cf4cb10c586610f263da1a5b9b5586fcf6a0df700744a0',
        'trace_boundary.csv':
            'a3a2558c504e204aab65797d74e0fb64d5c47cb67fc55735d6bf0325c5487e80',
    },
    'toy5_cwls_0': {
        'runs.csv':
            '7c9f28fa74273135120123bd66cae6580a29430f2678b795207d20bfda1b5f4d',
        'aggregate.csv':
            '712c6db64b2babe503eb24c8883929ad810590d4c74df24020022bbb6fb80313',
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
