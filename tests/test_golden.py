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
            'fc2eb717574db8ae68b8a0b1df6110d386c06c5e817dca8f78f539f29b258509',
        'aggregate.csv':
            '60b4a081fc3119dda0f05b704016f91e16b69fd418e1f8b04495668c63657f8f',
        'trace_boundary.csv':
            'a83e8ba8111cbcef2324edb0d81a40804f0efb94f686583473d4cf55649b0897',
    },
    'case33_drse_2': {
        'runs.csv':
            '9446aaedb12bd7f9636da048ecee5d333c2e5e1cde5133679d337834b492c186',
        'aggregate.csv':
            '5b17ead5d5ef0521262a8f64b461e0ba9f87cc30c4d3ef169176e6b7084d79c9',
        'trace_boundary.csv':
            'b269f3d5c77c31d77635ac3f8cc59ec5d3060805bb5c6ebd2b13cd8bad3f1f17',
    },
    'case33_drse_pseudo_2': {
        'runs.csv':
            '35da1b83e78bc0961a21bc163213ae90bebc47d32439b9312c7553b4713c1a00',
        'aggregate.csv':
            '975ee4ff3b6752e2689ac097761f5f66c489c3bf072af058910c88dcc00ad99d',
        'trace_boundary.csv':
            '7508e013e96d1ddbf0385f73c5e046c69a8b2bdbe0b13f912ed6500afffcae67',
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
            '0525d1dcd0606290878b88d4b65980af6837b64adbd815a6984103e36701e7b9',
        'aggregate.csv':
            '36f28eb9de31e2cd8f8776048805d39e3de34c55365a12d191344cf76b2ec96c',
        'trace_boundary.csv':
            '392268c0e3cd2db782615564c70596719fd5b3ccfe818911e107d09bfbf59e2e',
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
