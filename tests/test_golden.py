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
            '11f2fb6b12226bba777506b789a80ad5d39ae32722a37c5a8279aa344995a132',
        'aggregate.csv':
            '193f4d80c4a0ebf0a3c067f7dfa4945791808a8bf7cc7ba6a1b54cbd76a6abbc',
        'trace_boundary.csv':
            'a5a167877507525c739b2d6f00dba5a75a3542e3955ba06aeccf96b7b8db8c08',
    },
    'case33_cwls_2': {
        'runs.csv':
            '97b564ce4e1294681d2b94430a58f6a2c5b15063760da8ebc3d53b8131918b57',
        'aggregate.csv':
            '51ae6f5fc65f4e11b33075c1a5a7920c3d48429e5eb55e342d5899dbbfd03512',
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
            '8b516dcb5d69d64ad41f64715a3fb6c24d82931c98a3a9a043de4628787ae79f',
        'aggregate.csv':
            '1e6d1177ed88baf906575cb3c71aeb8f1a91f599a987032faf7466003d116f2b',
        'trace_boundary.csv':
            '9933b3de75d0180e9ff9ae8ddc1f14665372a17f7d5cbfb66dfb7e36805384d6',
    },
    'case33_dwls_2': {
        'runs.csv':
            '422cc4788d2df9a206ceb8daa0737e3699e6ab08bb31da188a4e5bfb04fba8fe',
        'aggregate.csv':
            '899ae8d0c511adb60465178c4429582e355e48f403fc82b90951a933999faca9',
        'trace_boundary.csv':
            '86471d726bb1470ab4130c9cbfaa2a1b51b426ef37c22728f1804373d2c105fd',
    },
    'case33_dwls_pseudo_2': {
        'runs.csv':
            '27bf741b8eb34467a74138ae271091b840d28daa51f2434e0442a4e6b47c8a82',
        'aggregate.csv':
            'bcc50372dbe832f1092bed37b8fc385cd5de4aa2ad5015661ce26da63ee43cb7',
        'trace_boundary.csv':
            '04ac5c7c3cc352616ee12893e9f4228a841ccdf946606c363a8e830a55643092',
    },
    'toy5_cwls_0': {
        'runs.csv':
            '41d614226f511bdce068500bcd22230d6e2399ff39f0d9c0ec64a8f21393a17f',
        'aggregate.csv':
            'c03fd511ebe184eed1f2142954c3490fcfb34454b478b3171c2eed6b4a23b766',
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
