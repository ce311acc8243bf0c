"""The scalar truth path: one reading at a time through the scalar
primitives of ``hybridse.powerflow``.

It is the oracle of the compiled path (``telemetry.CompiledRows`` and the
synthesis plans behind ``simulate_measurements``), which must give its bits.
``eval_h_nonlinear`` is a reading's physical value at a state: its
``row_spec`` evaluated term by term, an injection as the built-in ``sum()``
of its branch flows.  ``noisy`` is one reading's noise: sigma = pct/3 of the
magnitude, floored, and one draw from ``rng`` unless pct is zero.
``linearize_measurements`` is the zero-noise oracle of the estimators: every
reading replaced by its value under the regional linear models.
"""

import math
from dataclasses import replace

from hybridse.powerflow import (ConverterSolution, ac_branch_flow, converter_loss,
                                dc_branch_flow)
from hybridse.telemetry import (SOURCE_SCADA, SOURCE_SMART_METER, MeasurementKind,
                                MeasurementSet, build_region_H, row_spec)


def eval_h_nonlinear(grid, state, m) -> float:
    return spec_value(grid, state, row_spec(grid, m))


def spec_value(grid, state, spec) -> float:
    op = spec[0]
    if op == "vmag":
        return state.v[spec[1]]
    if op == "ac_flow":
        _, f, t, r, x, which = spec
        p, q = ac_branch_flow(state.v[f], state.theta[f], state.v[t], state.theta[t], r, x)
        return p if which == "p" else q
    if op == "ac_inj":
        _, node, branches, which = spec
        return sum(spec_value(grid, state, ("ac_flow", node, other, r, x, which))
                   for other, r, x in branches)
    if op == "dc_flow":
        _, f, t, g = spec
        return dc_branch_flow(state.v[f], state.v[t], g)
    if op == "dc_inj":
        _, node, branches, convs = spec
        total = sum(dc_branch_flow(state.v[node], state.v[other], g)
                    for other, g in branches)
        for cid in convs:
            total += spec_value(grid, state, ("var", "pdjc", cid))
        return total
    # ("var", "pdjc", id): the draw that feeds the converter's AC-side output
    conv = grid.converter(spec[2])
    a, c = conv.aux_node, conv.ac_node
    p, q = ac_branch_flow(state.v[a], state.theta[a], state.v[c], state.theta[c],
                          conv.coupling_r, conv.coupling_x)
    loss, _ = converter_loss(p, q, state.v[a], (conv.d1, conv.d2, conv.d3))
    return p + loss


def noisy(value, pct, floor, rng) -> tuple[float, float]:
    sigma = max(pct / 3.0 * abs(value), floor)
    if pct > 0:
        value = value + rng.normal(0.0, sigma)
    return value, sigma


def reading_pct(m, schedule) -> float:
    """The accuracy ``simulate_measurements`` gives a reading."""
    if m.source == SOURCE_SMART_METER:
        return schedule.smart_meter_pct
    assert m.source == SOURCE_SCADA
    if m.kind in (MeasurementKind.AC_V_MAG, MeasurementKind.DC_V_MAG):
        return schedule.scada_vmag_pct
    return schedule.scada_power_pct


def linearize_measurements(grid, ms, state) -> MeasurementSet:
    """Replace every reading with the linear-model value of ``state``.

    The returned set is exactly consistent with the regional linear models
    and with the converter balance evaluated at the linear boundary
    quantities, so a robust regional estimate reproduces the state exactly
    and the boundary coordination agrees at the first iteration.
    """
    by_region = ms.by_region(grid)
    models = {r.id: build_region_H(grid, r, by_region[r.id]) for r in grid.regions}

    # converter draws consistent with the linear AC-side flows and the loss law
    draws = {}
    for conv in grid.converters:
        ac_model = models[grid.node(conv.aux_node).region]
        x_ac = ac_model.truth_vector(state)
        p_lin = float(ac_model.boundary[conv.id] @ x_ac)
        q_lin = float(ac_model.boundary_q[conv.id] @ x_ac)
        v_c = state.v[conv.aux_node]
        loss, i_c = converter_loss(p_lin, q_lin, v_c, (conv.d1, conv.d2, conv.d3))
        draws[conv.id] = ConverterSolution(p_vsc=p_lin, q_vsc=q_lin, p_loss=loss,
                                           i_c=i_c, v_c=v_c, p_djc=p_lin + loss)

    values = {}
    for region in grid.regions:
        model = models[region.id]
        z_lin = model.h(model.truth_vector(state, draws))
        for row, gidx in enumerate(model.meas_indices):
            m = model.measurements[row]
            if m.kind is MeasurementKind.AC_V_MAG:
                values[gidx] = math.sqrt(max(z_lin[row], 1e-12))
            else:
                values[gidx] = float(z_lin[row])
    out = [replace(m, value=values.get(i, m.value)) for i, m in enumerate(ms)]
    return MeasurementSet(out, ms.corrupt_indices)
