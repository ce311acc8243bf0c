"""Call interception from outside the program.

Each hook replaces one public function under the module attribute its caller
looks it up by (``hybridse.estimation.wlav.lp_solve`` is what
``solve_wlav_region`` calls, ``hybridse.coordination.solve_wls`` is what
``run_cwls`` calls), times the call and hands the call to a recorder.  Hooks are
installed for a ``with`` block and restored afterwards, so code outside the
block runs the program untouched.

Span names are ``<module>.<function>`` with the last component of the
caller's module path, e.g. ``wlav.lp_solve`` or ``pipeline.build_region_H``.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (caller module, attribute) pairs; the span name is "<module tail>.<attribute>"
TRACE_TARGETS = (
    ("hybridse.bench.montecarlo", "solve_powerflow"),
    ("hybridse.bench.montecarlo", "simulate_measurements"),
    ("hybridse.bench.montecarlo", "inject_bad_data"),
    ("hybridse.bench.montecarlo", "generated_measurements"),
    ("hybridse.bench.montecarlo", "run_drse"),
    ("hybridse.bench.montecarlo", "run_cwls"),
    ("hybridse.bench.montecarlo", "compute_metrics"),
    ("hybridse.coordination", "build_region_H"),
    ("hybridse.coordination", "build_region_model"),
    ("hybridse.coordination", "build_system_model"),
    ("hybridse.coordination", "solve_wlav_region"),
    ("hybridse.coordination", "solve_wls"),
    ("hybridse.coordination", "lnr_test"),
    ("hybridse.estimation.wlav", "build_regional_wlav_lp"),
    ("hybridse.estimation.wlav", "lp_solve"),
    ("hybridse.estimation.wls", "solve_wls"),
    ("hybridse.injection.pipeline", "sanitize_scada"),
    ("hybridse.injection.pipeline", "build_region_H"),
    ("hybridse.injection.pipeline", "lnr_test"),
    ("hybridse.injection.pipeline", "infer_injections"),
    # offline stage
    ("hybridse.bench.montecarlo", "gen_load_profiles"),
    ("hybridse.injection.pipeline", "fit_injection_gmms"),
    ("hybridse.injection.pipeline", "build_training_set"),
    ("hybridse.injection.pipeline", "solve_powerflow"),
    ("hybridse.injection.pipeline", "train_mlp"),
    ("hybridse.injection.pipeline", "fit_error_gmm"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Recorder:
    """Base recorder: keeps the span stack and computes self time.

    Subclasses implement ``record``; it sees every completed call with its
    arguments, result, duration and self duration (duration minus the time
    covered by hooked calls made inside it).
    """

    def __init__(self):
        self._stack: list[list] = []      # [span id, child seconds]
        self._next_id = 0

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
        self.record(name, args, kwargs, result, span_id, parent, t0, dur,
                    dur - frame[1])
        return result

    def record(self, name, args, kwargs, result, span_id, parent, t0, dur, self_dur):
        raise NotImplementedError


@contextmanager
def installed(recorder: Recorder, targets):
    """Patch every target to route through ``recorder`` for the block."""
    saved = []
    try:
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrapper(recorder, span_name(module_name, attr),
                                           original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _wrapper(recorder, name, fn):
    def hooked(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)
    return hooked
