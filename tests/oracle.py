"""The scalar truth path: one reading at a time through the scalar
primitives of ``hybridse.powerflow``.

It is the oracle of the compiled path (``powerflow.CompiledRows``, the
synthesis plans behind ``simulate_measurements`` and the power-flow audits),
which must give its bits.
``eval_h_nonlinear`` is a reading's physical value at a state: its
``row_spec`` evaluated term by term, an injection as the built-in ``sum()``
of its branch flows.  ``ac_branch_flow_partials`` is a branch flow and its
partials in scalars.  ``mismatch_residual`` and ``conservation_residual``
are the power-flow audits node by node and branch by branch.  ``noisy`` is
one reading's noise: sigma = pct/3 of the magnitude, floored, and one draw
from ``rng`` unless pct is zero.
``linearize_measurements`` is the zero-noise oracle of the estimators: every
reading replaced by its value under the regional linear models, at the
state vector ``truth_vector`` reads off a power-flow state.
``solve_ac_region`` and ``solve_dc_region`` solve one region alone through
the power flow's own regional Newton solver, ``scaled_profile`` scales every
injection of a profile (``conftest`` lends it to ``InjectionProfile`` as
``scaled``), and ``profile_from_components`` is the profile of an injection
vector; the program itself runs none of them.
``balance_residual`` is a converter's power balance after the power flow.
``analytic_mean`` is a generated load profile's expected P at an hour of
the day.
``fit_gmm_broadcast`` is the mixture EM on (N, K, D) broadcast arrays and
``sample_injections_per_node`` draws a scenario node by node through
``sample_coupled``; ``injection.gmm.fit_gmm`` and
``injection.pipeline.sample_injections`` must give their bits.
"""

import math
from dataclasses import replace

import numpy as np

from hybridse.grid import AC, DC, MODE_DC_SLACK, MODE_PQ
from hybridse.injection import GmmModel, daily_shape, solar_shape
from hybridse.injection.gmm import _EM_MAX_ITER, _EM_TOL, VAR_FLOOR, _seed_means
from hybridse.powerflow import (ConverterSolution, InjectionProfile, _newton, ac_branch_flow,
                                branch_flow_terms, converter_loss, dc_branch_flow)
from hybridse.telemetry import (SOURCE_SCADA, SOURCE_SMART_METER, MeasurementKind,
                                MeasurementSet, TelemetryError, build_region_H, row_spec)


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


def ac_branch_flow_partials(v_f, th_f, v_t, th_t, r, x):
    """Sending-end (P, Q) on a series r+jx branch, no shunts, and their
    partials with respect to (v_f, th_f, v_t, th_t)."""
    y = 1.0 / complex(r, x)
    dth = th_f - th_t
    return branch_flow_terms(y.real, y.imag, v_f, v_t, math.cos(dth), math.sin(dth))


def mismatch_residual(grid, profile, st, converters) -> float:
    """The back-substitution audit node by node: every non-reference node's
    injection as its branch flows added one at a time, against the profile
    plus its converter terms."""
    skip = {grid.slack}
    for region in grid.regions:
        if region.kind == AC:
            skip.add(grid.angle_reference(region.id))
    skip |= {c.dc_node for c in grid.converters if c.control.mode == MODE_DC_SLACK}

    worst = 0.0
    for node in grid.nodes:
        if node.id in skip:
            continue
        if node.kind == AC:
            p_net = q_net = 0.0
            for other, r, x in grid.incident_ac_branches(node.id):
                p, q = ac_branch_flow(st.v[node.id], st.theta[node.id],
                                      st.v[other], st.theta[other], r, x)
                p_net += p
                q_net += q
            p_exp, q_exp = profile.p_at(node.id), profile.q_at(node.id)
            conv = grid.converter_at_aux(node.id)
            if conv is not None:
                if conv.control.mode == MODE_PQ:
                    p_exp += conv.control.p_set
                    q_exp += conv.control.q_set
                else:
                    p_exp += converters[conv.id].p_vsc
                    q_exp += converters[conv.id].q_vsc
            worst = max(worst, abs(p_net - p_exp), abs(q_net - q_exp))
        else:
            p_net = sum(dc_branch_flow(st.v[node.id], st.v[other], g)
                        for other, g in grid.incident_dc_branches(node.id))
            p_exp = profile.p_at(node.id)
            for conv in grid.converters_at_dc_node(node.id):
                p_exp -= converters[conv.id].p_djc
            worst = max(worst, abs(p_net - p_exp))
    return worst


def conservation_residual(grid, profile, result) -> float:
    """Generation minus load, line losses and converter losses, branch by
    branch."""
    st = result.state
    line_losses = 0.0
    for ln in grid.ac_lines:
        pf, _ = ac_branch_flow(st.v[ln.from_node], st.theta[ln.from_node],
                               st.v[ln.to_node], st.theta[ln.to_node], ln.r, ln.x)
        pt, _ = ac_branch_flow(st.v[ln.to_node], st.theta[ln.to_node],
                               st.v[ln.from_node], st.theta[ln.from_node], ln.r, ln.x)
        line_losses += pf + pt
    for conv in grid.converters:
        pf, _ = ac_branch_flow(st.v[conv.aux_node], st.theta[conv.aux_node],
                               st.v[conv.ac_node], st.theta[conv.ac_node],
                               conv.coupling_r, conv.coupling_x)
        pt, _ = ac_branch_flow(st.v[conv.ac_node], st.theta[conv.ac_node],
                               st.v[conv.aux_node], st.theta[conv.aux_node],
                               conv.coupling_r, conv.coupling_x)
        line_losses += pf + pt
    for ln in grid.dc_lines:
        line_losses += (dc_branch_flow(st.v[ln.from_node], st.v[ln.to_node], ln.g)
                        + dc_branch_flow(st.v[ln.to_node], st.v[ln.from_node], ln.g))

    conv_losses = sum(c.p_loss for c in result.converters.values())

    slack_gen = 0.0
    for other, r, x in grid.incident_ac_branches(grid.slack):
        p, _ = ac_branch_flow(st.v[grid.slack], st.theta[grid.slack],
                              st.v[other], st.theta[other], r, x)
        slack_gen += p

    total_profile = sum(profile.p.values())
    return slack_gen + total_profile - line_losses - conv_losses


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
        x_ac = truth_vector(ac_model, state)
        p_lin = float(ac_model.boundary[conv.id] @ x_ac)
        q_lin = float(ac_model.boundary_q[conv.id] @ x_ac)
        v_c = state.v[conv.aux_node]
        loss, i_c = converter_loss(p_lin, q_lin, v_c, (conv.d1, conv.d2, conv.d3))
        draws[conv.id] = ConverterSolution(p_vsc=p_lin, q_vsc=q_lin, p_loss=loss,
                                           i_c=i_c, v_c=v_c, p_djc=p_lin + loss)

    values = {}
    for region in grid.regions:
        model = models[region.id]
        z_lin = model.h(truth_vector(model, state, draws))
        for row, gidx in enumerate(model.meas_indices):
            m = model.measurements[row]
            if m.kind is MeasurementKind.AC_V_MAG:
                values[gidx] = math.sqrt(max(z_lin[row], 1e-12))
            else:
                values[gidx] = float(z_lin[row])
    out = [replace(m, value=values.get(i, m.value)) for i, m in enumerate(ms)]
    return MeasurementSet(out, ms.corrupt_indices)


def truth_vector(model, state, converters=None) -> np.ndarray:
    """x of a state under a measurement model; converter columns read
    ``converters``."""
    x = np.zeros(model.n_states)
    for (tag, key), col in model.index.items():
        if tag == "u":
            x[col] = state.v[key] ** 2
        elif tag == "v":
            x[col] = state.v[key]
        elif tag == "th":
            x[col] = state.theta[key]
        elif converters is None:
            raise TelemetryError(f"converter solution needed for {tag} truth")
        else:
            sol = converters[key]
            x[col] = {"pdjc": sol.p_djc, "pvsc": sol.p_vsc, "qvsc": sol.q_vsc}[tag]
    return x


def solve_ac_region(grid, region, injections, ref_node=None, v_ref=1.0):
    """Newton-Raphson solve of one AC region: ``injections`` maps node ->
    (P, Q) for non-reference nodes (missing nodes inject zero).  Returns
    node -> (V, theta); raises PowerFlowDivergence as the power flow does."""
    if region.kind != AC:
        raise ValueError(f"region {region.id} is not AC")
    if ref_node is None:
        ref_node = grid.angle_reference(region.id)
    newton = _newton(grid, region, ref_node)
    v, th = newton.solve_ac(*newton.spec(injections, 2), v_ref)
    return dict(zip(newton.nodes, zip(v.tolist(), th.tolist())))


def solve_dc_region(grid, region, injections, ref_node, v_ref=1.0):
    """Newton-Raphson solve of one DC region with a held reference voltage."""
    if region.kind != DC:
        raise ValueError(f"region {region.id} is not DC")
    newton = _newton(grid, region, ref_node)
    return dict(zip(newton.nodes, newton.solve_dc(*newton.spec(injections, 1), v_ref).tolist()))


def scaled_profile(profile, factor) -> InjectionProfile:
    return InjectionProfile(p={n: v * factor for n, v in profile.p.items()},
                            q={n: v * factor for n, v in profile.q.items()})


def profile_from_components(keys, values) -> InjectionProfile:
    prof = InjectionProfile()
    for key, val in zip(keys, values):
        tag, node = key.split(":")
        if tag == "p":
            prof.p[int(node)] = float(val)
        else:
            prof.q[int(node)] = float(val)
    return prof


def balance_residual(sol: ConverterSolution) -> float:
    return abs(sol.p_vsc + sol.p_loss - sol.p_djc)


def analytic_mean(profiles, node: int, hour_of_day: int) -> float:
    """E[P] of ``gen_load_profiles``' series at a node and hour of the day,
    by the formula of ``injection.profiles``' docstring."""
    params = profiles.params
    mean = profiles.base.p_at(node) * daily_shape(hour_of_day + 0.5, params)
    if node in profiles.solar_caps:
        g = solar_shape(hour_of_day + 0.5, params)
        beta = 0.5 * (params.solar_beta_lo + params.solar_beta_hi)
        mean += profiles.solar_caps[node] * g * beta
    return mean


def _component_log_pdf(x, means, variances):
    # x: (N, D); means/variances: (K, D) -> (N, K)
    diff = x[:, None, :] - means[None, :, :]
    return -0.5 * np.sum(diff * diff / variances[None, :, :]
                         + np.log(2.0 * np.pi * variances)[None, :, :], axis=2)


def _logsumexp(a):
    m = a.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=1, keepdims=True))).ravel()


def fit_gmm_broadcast(samples, k, seed=0):
    """``fit_gmm`` with every E-step on (N, K, D) arrays: same seeding, same
    stopping rule, same (model, log-likelihood trace) result."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    rng = np.random.default_rng(seed)
    means = _seed_means(x, k, rng)
    variances = np.full((k, d), max(x.var(axis=0).mean(), VAR_FLOOR))
    variances = np.maximum(variances, VAR_FLOOR)
    weights = np.full(k, 1.0 / k)
    trace = []
    prev = -np.inf
    for _ in range(_EM_MAX_ITER):
        comp = _component_log_pdf(x, means, variances) + np.log(weights)[None, :]
        norm = _logsumexp(comp)
        ll = float(norm.sum())
        trace.append(ll)
        resp = np.exp(comp - norm[:, None])
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        sq = resp.T @ (x * x) / nk[:, None]
        variances = np.maximum(sq - means ** 2, VAR_FLOOR)
        if ll - prev < _EM_TOL and np.isfinite(prev):
            break
        prev = ll
    return GmmModel(weights=weights, means=means, variances=variances), trace


def sample_coupled(model, u, g, g_own, rho):
    """One draw of a mixture with a shared component quantile ``u`` and
    shared standard-normal factor ``g`` (one per dimension); components
    ranked by first-dimension mean."""
    order = np.argsort(model.means[:, 0])
    cum = np.cumsum(model.weights[order])
    comp = order[min(int(np.searchsorted(cum, u)), model.k - 1)]
    mix = math.sqrt(max(0.0, 1.0 - rho * rho))
    eps = rho * g + mix * g_own
    return model.means[comp] + np.sqrt(model.variances[comp]) * eps


def sample_injections_per_node(grid, gmms, rng, rho):
    """``sample_injections`` with one ``standard_normal`` call per node."""
    u = float(rng.uniform())
    g = rng.standard_normal(2)
    prof = InjectionProfile()
    for node in grid.injection_nodes():
        model = gmms[node.id]
        draw = sample_coupled(model, u, g[:model.dim], rng.standard_normal(model.dim), rho)
        prof.p[node.id] = float(draw[0])
        if model.dim > 1:
            prof.q[node.id] = float(draw[1])
    return prof
