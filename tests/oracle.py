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
injection of a profile, and ``profile_from_components`` is the profile of an
injection vector; the program itself runs none of them.
``balance_residual`` is a converter's power balance after the power flow.
``analytic_mean`` is a generated load profile's expected P at an hour of
the day.
``fit_gmm_broadcast`` is the mixture EM on (N, K, D) broadcast arrays and
``sample_injections_per_node`` draws a scenario node by node through
``sample_coupled``; ``injection.gmm.fit_gmm`` and
``injection.pipeline.sample_injections`` must give their bits.
``solve_powerflow`` is the power flow one profile at a time, its regional
Newton solves (``newton_ac``, ``newton_dc``) on one spec vector with the
dense cos/sin of every angle difference; ``powerflow.solve_powerflows``
must give each profile of a block its bits or its exception.
``build_training_set`` is the Monte-Carlo loop one trial at a time through
that solve and ``simulate_measurements``, and ``train_mlp_per_layer`` the
momentum loop layer by layer on per-layer gradients (``layer_grads``);
``injection.pipeline.build_training_set`` and ``injection.mlp.train_mlp``
must give their bits.
``lp_solve_gathered`` is the L1 simplex with every pricing pass and ratio
test re-deriving its costs, signs and weights from the basic variables and
every pivot updating the rows with a nonzero in the entering column
(``lp_entering``, ``lp_optimize``, ``lp_pivot``), over the same
``LpTemplate``, crash and start; ``estimation.lp.lp_solve`` must give its
x bytes, basis and pivot count.
"""

import math
from dataclasses import replace

import numpy as np

from hybridse.grid import AC, DC, MODE_DC_SLACK, MODE_PQ
from hybridse.injection import GmmModel, daily_shape, solar_shape
from hybridse.injection.gmm import _EM_MAX_ITER, _EM_TOL, VAR_FLOOR, _seed_means
from hybridse import powerflow
from hybridse.estimation import lp
from hybridse.injection.mlp import init_model
from hybridse.injection.pipeline import (injection_components, sample_injections,
                                         scada_channels, scada_vector)
from hybridse.powerflow import (ConverterSolution, InjectionProfile, PowerFlowDivergence,
                                PowerFlowError, PowerFlowResult, SystemState, _newton,
                                ac_branch_flow, branch_flow_terms, converter_loss,
                                dc_branch_flow)
from hybridse.telemetry import (SOURCE_SCADA, SOURCE_SMART_METER, MeasurementKind,
                                MeasurementSet, TelemetryError, build_region_H, row_spec,
                                simulate_measurements)


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
    x, errors = newton.solve_ac(_spec(newton, injections, 2), v_ref)
    if errors:
        raise errors[0]
    return dict(zip(newton.nodes, zip(x[0, 1].tolist(), x[0, 0].tolist())))


def solve_dc_region(grid, region, injections, ref_node, v_ref=1.0):
    """Newton-Raphson solve of one DC region with a held reference voltage."""
    if region.kind != DC:
        raise ValueError(f"region {region.id} is not DC")
    newton = _newton(grid, region, ref_node)
    x, errors = newton.solve_dc(_spec(newton, injections, 1), v_ref)
    if errors:
        raise errors[0]
    return dict(zip(newton.nodes, x[0, 0].tolist()))


def _spec(newton, injections, width):
    """A block of one (1, width, n) spec from node -> value(s); other nodes
    are zero."""
    out = np.zeros((1, width, len(newton.nodes)))
    for node, values in injections.items():
        k = newton.index.get(node)
        if k is None:
            raise ValueError(f"injection at node {node} outside region {newton.region_id}")
        out[0, :, k] = values
    return out


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


# -- the per-profile power flow ------------------------------------------------


def newton_ac(grid, nw, p_spec, q_spec, v_ref):
    """One AC region's Newton solve for one profile on the dense (n, n)
    cos/sin of every angle difference: (V, theta) by node index."""
    free, nf = nw.free, nw.free.size
    sub, diag = np.ix_(free, free), np.diag_indices(nf)
    adm = grid.admittance(nw.region_id)
    g, b, g_diag, b_diag = adm.g, adm.b, adm.g.diagonal(), adm.b.diagonal()
    jac = np.empty((2 * nf, 2 * nf))
    j11, j12, j21, j22 = jac[:nf, :nf], jac[:nf, nf:], jac[nf:, :nf], jac[nf:, nf:]
    v = np.full(len(nw.nodes), 1.0)
    v[nw.ref] = v_ref
    th = np.zeros(len(nw.nodes))
    if nf == 0:
        return v, th
    mism = np.inf
    for _ in range(powerflow._NEWTON_MAX_ITER):
        dth = th[:, None] - th[None, :]
        cs, sn = np.cos(dth), np.sin(dth)
        a1 = g * cs + b * sn
        a2 = g * sn - b * cs
        p_calc = v * (a1 @ v)
        q_calc = v * (a2 @ v)
        dp = (p_spec - p_calc)[free]
        dq = (q_spec - q_calc)[free]
        mism = max(np.abs(dp).max(), np.abs(dq).max())
        if mism < powerflow._AC_TOL:
            break
        vf = v[free]
        vv = np.outer(vf, vf)
        a1f, a2f = a1[sub], a2[sub]
        np.multiply(vv, a2f, out=j11)
        j11[diag] = (-q_calc - b_diag * v * v)[free]
        np.multiply(vf[:, None], a1f, out=j12)
        j12[diag] = (p_calc / v + g_diag * v)[free]
        np.multiply(-vv, a1f, out=j21)
        j21[diag] = (p_calc - g_diag * v * v)[free]
        np.multiply(vf[:, None], a2f, out=j22)
        j22[diag] = (q_calc / v - b_diag * v)[free]
        step = _newton_step(nw, jac, np.concatenate([dp, dq]), mism)
        th[free] += step[:nf]
        v[free] += step[nf:]
        _newton_check(nw, v, "AC", mism)
    else:
        raise _newton_cap(nw, "AC", mism)
    return v, th


def newton_dc(nw, p_spec, v_ref):
    """One DC region's Newton solve for one profile: V by node index."""
    free, y = nw.free, nw.y
    y_free, y_diag = y[np.ix_(free, free)], y.diagonal()
    diag = np.diag_indices(free.size)
    v = np.full(len(nw.nodes), v_ref)
    if free.size == 0:
        return v
    jac = np.empty((free.size, free.size))
    mism = np.inf
    for _ in range(powerflow._NEWTON_MAX_ITER):
        flows = y @ v
        p_calc = v * flows
        dp = (p_spec - p_calc)[free]
        mism = np.abs(dp).max()
        if mism < powerflow._DC_TOL:
            break
        np.multiply(v[free][:, None], y_free, out=jac)
        jac[diag] = (flows + v * y_diag)[free]
        v[free] += _newton_step(nw, jac, dp, mism)
        _newton_check(nw, v, "DC", mism)
    else:
        raise _newton_cap(nw, "DC", mism)
    return v


def _newton_step(nw, jac, rhs, mism):
    try:
        return np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError as exc:
        raise PowerFlowDivergence(
            f"singular Jacobian in region {nw.region_id}", mism) from exc


def _newton_check(nw, v, kind, mism):
    if not 0.0 < v.min() <= v.max() < math.inf:     # false for a NaN too
        raise PowerFlowDivergence(f"{kind} region {nw.region_id} diverged", float(mism))


def _newton_cap(nw, kind, mism):
    return PowerFlowDivergence(f"{kind} region {nw.region_id} did not converge in "
                               f"{powerflow._NEWTON_MAX_ITER} iterations", float(mism))


def solve_powerflow(grid, profile):
    """The alternating AC/DC solve of one profile, region by region through
    ``newton_ac`` and ``newton_dc``."""
    plan = powerflow._plan(grid)
    powerflow._check_profile(grid, profile, plan)
    p_base = {nw.region_id: np.array([profile.p_at(n) for n in nw.nodes])
              for nw, *_ in plan.ac + plan.dc}
    q_base = {nw.region_id: np.array([profile.q_at(n) for n in nw.nodes])
              for nw, _ in plan.ac}
    p_vsc = {c.id: (c.control.p_set if c.control.mode == MODE_PQ else 0.0)
             for c in grid.converters}
    q_vsc = {c.id: c.control.q_set for c in grid.converters}
    v_c = {c.id: 1.0 for c in grid.converters}
    loss = {c.id: 0.0 for c in grid.converters}
    p_djc = {c.id: 0.0 for c in grid.converters}
    ac_states, dc_states = {}, {}
    coupling = math.inf

    def coupling_flow(conv):
        rid, a, i, _ = plan.couplings[conv.id]
        v, th = ac_states[rid]
        vc = float(v[a])
        p_ci, q_ci = ac_branch_flow(vc, float(th[a]), float(v[i]), float(th[i]),
                                    conv.coupling_r, conv.coupling_x)
        return p_ci, q_ci, vc

    for outer in range(1, powerflow._MAX_OUTER + 1):
        for nw, feeds in plan.ac:
            p_spec, q_spec = p_base[nw.region_id].copy(), q_base[nw.region_id].copy()
            for cid, k in feeds:
                p_spec[k], q_spec[k] = p_vsc[cid], q_vsc[cid]
            ac_states[nw.region_id] = newton_ac(grid, nw, p_spec, q_spec, 1.0)
        for conv in grid.converters:
            p_ci, q_ci, vc = coupling_flow(conv)
            v_c[conv.id] = vc
            if plan.couplings[conv.id][3]:
                p_vsc[conv.id], q_vsc[conv.id] = p_ci, q_ci
            loss[conv.id], _ = converter_loss(p_vsc[conv.id], q_vsc[conv.id],
                                              vc, (conv.d1, conv.d2, conv.d3))
            if conv.control.mode == MODE_PQ:
                p_djc[conv.id] = p_vsc[conv.id] + loss[conv.id]
        for nw, ref_conv, draws, lines in plan.dc:
            p_spec = p_base[nw.region_id].copy()
            for cid, k in draws:
                p_spec[k] = p_spec[k] - p_djc[cid]
            sol = newton_dc(nw, p_spec, ref_conv.control.v_dc_set).tolist()
            dc_states[nw.region_id] = sol
            v_ref = sol[nw.ref]
            flow_sum = sum(dc_branch_flow(v_ref, sol[other], g) for other, g in lines)
            p_djc[ref_conv.id] = profile.p_at(ref_conv.dc_node) - flow_sum
            p = p_djc[ref_conv.id] - loss[ref_conv.id]
            coeffs = (ref_conv.d1, ref_conv.d2, ref_conv.d3)
            for _ in range(20):
                new_loss, _ = converter_loss(p, q_vsc[ref_conv.id], v_c[ref_conv.id], coeffs)
                p, p_old = p_djc[ref_conv.id] - new_loss, p
                if abs(p - p_old) < 1e-14:
                    break
            p_vsc[ref_conv.id] = p
            loss[ref_conv.id], _ = converter_loss(p, q_vsc[ref_conv.id], v_c[ref_conv.id],
                                                  coeffs)
        coupling = 0.0
        converters = {}
        for conv in grid.converters:
            p_ci, q_ci, vc = coupling_flow(conv)
            l, i_c = converter_loss(p_ci, q_ci, vc, (conv.d1, conv.d2, conv.d3))
            coupling = max(coupling, abs(p_ci + l - p_djc[conv.id]))
            converters[conv.id] = ConverterSolution(p_vsc=p_ci, q_vsc=q_ci, p_loss=l,
                                                    i_c=i_c, v_c=vc, p_djc=p_djc[conv.id])
        if coupling <= powerflow._COUPLING_TOL:
            break
    else:
        raise PowerFlowDivergence(f"outer AC/DC loop did not converge in "
                                  f"{powerflow._MAX_OUTER} iterations", coupling)

    v, theta = {}, {}
    for nw, _ in plan.ac:
        vv, th = ac_states[nw.region_id]
        v.update(zip(nw.nodes, vv.tolist()))
        theta.update(zip(nw.nodes, th.tolist()))
    for nw, *_ in plan.dc:
        v.update(zip(nw.nodes, dc_states[nw.region_id]))
    state = SystemState(v=v, theta=theta)
    return PowerFlowResult(state=state, converters=converters, outer_iterations=outer,
                           coupling_residual=coupling)


# -- the trial-by-trial training set and the per-layer SGD ---------------------


def build_training_set(grid, gmms, n_trials, schedule, seed):
    """``(z, y, dropped)`` of the Monte-Carlo loop one trial at a time: a
    scenario, its power flow (``solve_powerflow`` above), its readings
    through ``simulate_measurements`` and ``scada_vector``."""
    rng = np.random.default_rng(seed)
    channels = scada_channels(grid, schedule)
    components = injection_components(grid)
    zs, ys = [], []
    dropped = 0
    for _ in range(n_trials):
        prof = sample_injections(grid, gmms, rng)
        try:
            res = solve_powerflow(grid, prof)
        except PowerFlowError:
            dropped += 1
            if dropped > 0.2 * n_trials:
                raise RuntimeError(
                    f"{dropped} of {n_trials} trials diverged; injection "
                    "mixtures are inconsistent with grid capacity")
            continue
        ms = simulate_measurements(grid, res.state, schedule,
                                   t=schedule.scada_period, seed=rng)
        zs.append(scada_vector(ms, channels))
        ys.append([prof.p[int(c.split(":")[1])] if c.startswith("p:")
                   else prof.q[int(c.split(":")[1])] for c in components])
    return np.array(zs), np.array(ys), dropped


def layer_grads(model, x_std, y_std):
    """The MSE gradients as a new array per layer, by the backward pass of
    ``injection.mlp.loss_and_grads``."""
    acts, pre, a = [x_std], [], x_std
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        a = z if layer == last else np.maximum(z, 0.0)
        acts.append(a)
    err = acts[-1] - y_std
    grad_w, grad_b = [None] * (last + 1), [None] * (last + 1)
    delta = 2.0 * err / (x_std.shape[0] * y_std.shape[1])
    for layer in range(last, -1, -1):
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer:
            delta = (delta @ model.weights[layer].T) * (pre[layer - 1] > 0.0)
    return grad_w, grad_b


def train_mlp_per_layer(x, y, hidden, lr=0.01, batch=32, epochs=300, seed=0,
                        holdout=0.1):
    """``train_mlp``'s weights and biases by the per-layer momentum loop,
    one mini-batch gathered at a time."""
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    perm = rng.permutation(n)
    n_hold = int(round(holdout * n))
    xt, yt = x[perm[n_hold:]], y[perm[n_hold:]]
    model = init_model(x.shape[1], hidden, y.shape[1], rng)
    model.x_mean = xt.mean(axis=0)
    model.x_std = np.maximum(xt.std(axis=0), 1e-9)
    model.y_mean = yt.mean(axis=0)
    model.y_std = np.maximum(yt.std(axis=0), 1e-9)
    xs = (xt - model.x_mean) / model.x_std
    ys = (yt - model.y_mean) / model.y_std
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    for _ in range(epochs):
        order = rng.permutation(xs.shape[0])
        for lo in range(0, xs.shape[0], batch):
            sel = order[lo:lo + batch]
            gw, gb = layer_grads(model, xs[sel], ys[sel])
            for layer in range(len(model.weights)):
                vel_w[layer] = 0.9 * vel_w[layer] - lr * gw[layer]
                vel_b[layer] = 0.9 * vel_b[layer] - lr * gb[layer]
                model.weights[layer] += vel_w[layer]
                model.biases[layer] += vel_b[layer]
    return model


def lp_solve_gathered(problem, basis=None):
    """``estimation.lp.lp_solve`` through ``lp_optimize``: warm from
    ``basis`` when it is the state's last one, cold once more on a failure."""
    if basis is not None:
        try:
            return _lp_solve_gathered(problem, basis)
        except lp.LpError:
            pass
    return _lp_solve_gathered(problem, None)


def _lp_solve_gathered(problem, basis):
    template, state, b = problem.template, problem.state, problem.b_eq
    c_ext = np.concatenate([problem.c, lp._ZERO_INF, -problem.c])
    if basis is None:
        t, head, cols = lp._crash_tableau(template, b)
    else:
        if state.basis != tuple(basis):
            raise lp.LpError("warm basis is not the one of the state's last solve")
        (last_basis, last_b), stored, head, cols, x = state.last
        if last_b != b.tobytes():
            t, head, cols = lp._start(template, stored, head, cols, b)
        elif lp_entering(template, stored, head, cols, c_ext, 0) is None:
            return lp.LpSolution(x=x, objective=float(problem.c @ x), iterations=0,
                                 basis=last_basis)
        else:
            t, head, cols = stored.copy(), head.copy(), cols.copy()
    iterations = lp_optimize(template, t, head, cols, c_ext)
    n = template.a_eq.shape[1]
    x = np.zeros(n)
    real = head < n
    x[head[real]] = template.sign_of[head[real]] * t[real, -1]
    x.flags.writeable = False
    result_basis = tuple(head.tolist())
    state.last = ((result_basis, b.tobytes()), t, head, cols, x)
    return lp.LpSolution(x=x, objective=float(problem.c @ x), iterations=iterations,
                         basis=result_basis)


def lp_entering(template, t, head, cols, c_ext, degenerate):
    """(column, direction +-1, reduced cost) of the entering residual from
    one vector of reduced costs, up half then down half; None when none is
    below the pricing tolerance."""
    if not cols.size:
        return None
    g = c_ext[template.cost_of[head]]
    gt = g @ t[:, :-1]
    d = np.concatenate([c_ext[template.up_of[cols]] - gt,
                        c_ext[template.down_of[cols]] + gt])
    j = int(d.argmin())
    if d[j] >= -lp._TOL:
        return None
    if degenerate >= lp._DEGENERATE_STREAK:
        candidates = (d < -lp._TOL).nonzero()[0]
        j = int(candidates[cols[candidates % cols.size].argmin()])
    return j % cols.size, (1.0 if j < cols.size else -1.0), d[j]


def lp_optimize(template, t, head, cols, c_ext) -> int:
    """Primal simplex with long steps, each row's side, weight and kind read
    off ``head`` at every ratio test; mutates t, head and cols."""
    n = template.a_eq.shape[1]
    weight = c_ext[template.up_of] + c_ext[template.down_of]
    if weight.min() < 0.0:
        raise lp.LpUnbounded("a residual whose two costs sum below zero")
    degenerate = 0
    for it in range(lp._MAX_ITER):
        entering = lp_entering(template, t, head, cols, c_ext, degenerate)
        if entering is None:
            return it
        q, sign, slope = entering
        rate = -sign * t[:, q]
        toward = (template.flip[head] != head) & (template.sign_of[head] * rate < -lp._TOL)
        rows = np.flatnonzero(np.where(head >= n, np.abs(rate) > lp._TOL, toward))
        steps = np.where(head[rows] >= n, 0.0, -t[rows, -1] / rate[rows])
        by_step = np.lexsort((head[rows], steps))
        order = rows[by_step]
        turned = slope + np.cumsum(np.abs(rate[order]) * weight[head[order]]) >= 0.0
        if not turned.any():
            raise lp.LpUnbounded("no breakpoint turns the slope of the entering residual")
        k = int(turned.argmax())
        degenerate = degenerate + 1 if steps[by_step[k]] <= lp._TOL else 0
        p, passed = order[k], order[:k]
        head[passed] = template.flip[head[passed]]
        lp_pivot(t, p, q)
        entered = (template.up_of if sign > 0 else template.down_of)[cols[q]]
        cols[q], head[p] = n + template.row_of[head[p]], entered
    raise lp.LpError("simplex iteration limit reached")


def lp_pivot(t, p, q):
    """Exchange row p's basic variable with column q's nonbasic one, on the
    rows with a nonzero in column q gathered and scattered back."""
    piv = t[p, q]
    col = t[:, q].copy()
    col[p] = 0.0
    t[p] /= piv
    rows = col.nonzero()[0]
    t[rows] -= col[rows, None] * t[p]
    t[:, q] = -col / piv
    t[p, q] = 1.0 / piv
