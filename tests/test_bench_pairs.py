"""The verdicts of ``tools/bench_pairs.py`` on canned pairs; standard library
only, like the tool."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPECS = {"estimate_ms.p50": {"better": "lower", "bound": 0.25},
         "runs_per_s": {"better": "higher", "bound": 0.25},
         "estimation.lp.solve_ms": {"better": "lower"}}

BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]     # quartiles 9.9, 10.1


def _pairs(name, base, change):
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
            for b, c in zip(base, change)]


def _verdict(name, change, base=BASE):
    return bench_pairs.summarize(_pairs(name, base, change), SPECS)[name]["verdict"]


def test_gain_needs_nine_tenths_and_more_than_the_spread():
    faster = [b - 1.5 for b in BASE]
    assert _verdict("estimate_ms.p50", faster) == "gain"
    # eight wins of ten are not enough, however large the median difference
    assert _verdict("estimate_ms.p50", faster[:8] + [11.0, 11.0]) == "unchanged"
    # ten wins by less than the base's quartile spread are not a gain
    assert _verdict("estimate_ms.p50", [b - 0.1 for b in BASE]) == "unchanged"
    assert _verdict("runs_per_s", [b + 1.5 for b in BASE]) == "gain"


def test_regression_is_worse_than_the_bound():
    assert _verdict("estimate_ms.p50", [b * 1.3 for b in BASE]) == "regression"
    assert _verdict("runs_per_s", [b * 0.7 for b in BASE]) == "regression"
    # worse in every pair, but within the bound
    assert _verdict("estimate_ms.p50", [b * 1.1 for b in BASE]) == "unchanged"


def test_unresolved_when_the_base_spreads_wider_than_the_bound():
    wide = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 10.0, 10.0, 6.5, 13.5]
    assert _verdict("estimate_ms.p50", wide, base=wide[::-1]) == "unresolved"
    # unless every change run is better than every base run
    assert _verdict("estimate_ms.p50", [5.0] * 10, base=wide) == "unchanged"
    assert _verdict("estimate_ms.p50", [3.0] * 10, base=wide) == "gain"


def test_metric_without_a_bound_mirrors_the_gain_rule():
    assert _verdict("estimation.lp.solve_ms", [b + 1.5 for b in BASE]) == "regression"
    assert _verdict("estimation.lp.solve_ms", [b - 1.5 for b in BASE]) == "gain"
    assert _verdict("estimation.lp.solve_ms", BASE[::-1]) == "unchanged"
    mixed = [b + (1.5 if k < 6 else -1.5) for k, b in enumerate(BASE)]
    assert _verdict("estimation.lp.solve_ms", mixed) == "unresolved"


def test_fewer_than_ten_pairs_are_unresolved():
    assert _verdict("estimate_ms.p50", [b - 1.5 for b in BASE[:9]], BASE[:9]) == "unresolved"
    assert _verdict("estimation.lp.solve_ms", [11.0], [10.0]) == "unresolved"


def test_summary_fields_and_failed_runs():
    pairs = _pairs("estimate_ms.p50", BASE, [b - 1.5 for b in BASE])
    pairs.append({"base": {"error": "exit 1"}, "change": {"metrics": {}}})
    s = bench_pairs.summarize(pairs, SPECS)["estimate_ms.p50"]
    assert (s["pairs"], s["change_wins"], s["better"], s["bound"]) == (10, 10, "lower", 0.25)
    assert s["base"]["median"] == 10.0
    assert s["median_rel_diff"] < -0.14


def test_raw_setup_seconds_are_lower_is_better_without_a_bound():
    specs = bench_pairs.metric_specs(_PATH.parents[1])
    assert specs["setup_s.raw"]["better"] == specs["setup_s"]["better"] == "lower"
    pairs = _pairs("setup_s.raw", BASE, [b - 1.5 for b in BASE])
    s = bench_pairs.summarize(pairs, specs)["setup_s.raw"]
    assert (s["bound"], s["change_wins"], s["verdict"]) == (None, 10, "info")


def test_raw_setup_seconds_get_no_verdict_when_every_change_run_is_slower():
    # the uncalibrated set-up swings with the machine: reported, never judged
    specs = bench_pairs.metric_specs(_PATH.parents[1])
    slower = [b * 1.3 for b in BASE]
    s = bench_pairs.summarize(_pairs("setup_s.raw", BASE, slower), specs)["setup_s.raw"]
    assert (s["change_wins"], s["verdict"]) == (0, "info")
    assert s["change"]["median"] == 13.0 and s["median_rel_diff"] > 0.29
    # the calibrated set-up keeps its bound
    s = bench_pairs.summarize(_pairs("setup_s", BASE, slower), specs)["setup_s"]
    assert s["verdict"] == "regression"
