from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gasnetsim.bounds import upsilon0
from gasnetsim.diagnostics import lyapunov_l0, nodal_energy_residual
from gasnetsim.errors import ConfigurationError, ValidationError
from gasnetsim.fileio import InitialCondition, ScenarioSpec
from gasnetsim.network import junction_outflow
from gasnetsim.observer import (
    CoupledState,
    ObserverConfig,
    difference_state,
    direct_diff_step,
    observer_node_update,
    step_coupled,
)
from gasnetsim.run import assemble
from gasnetsim.solver import (
    EdgeGrid,
    SimState,
    advect_step,
    build_grids,
    control_values,
    gather_node_inputs,
    node_outputs,
    step_system,
)


def copy_grids(grids):
    return {
        k: replace(g, r_plus=g.r_plus.copy(), r_minus=g.r_minus.copy()) for k, g in grids.items()
    }


def test_observer_config_validates_mu():
    with pytest.raises(ValidationError):
        ObserverConfig(mu={"a": 1.5})
    cfg = ObserverConfig(mu={"a": -1.0, "b": 0.0})
    assert cfg.mu["a"] == -1.0


def test_decay_eligibility(five_pipe):
    # a decay certificate needs upsilon0 > 0: every pipe has an end with |mu| < 1
    assert upsilon0(five_pipe, {v: 0.0 for v in five_pipe.nodes}) > 0
    assert upsilon0(five_pipe, {v: 1.0 for v in five_pipe.nodes}) == 0
    # p4 runs n3 -> n5; closing both endpoints blocks only that pipe
    mixed = {v: 0.0 for v in five_pipe.nodes}
    mixed["n3"] = 1.0
    mixed["n5"] = -1.0
    assert upsilon0(five_pipe, mixed) == 0


def test_measure_nodal_conventions(single_pipe):
    # the observer measures the truth's incoming invariants at every node
    grids = build_grids(single_pipe, 340.0, 0.375)
    g = grids["p"]
    g.r_plus[:] = np.arange(g.n_cells, dtype=float)
    g.r_minus[:] = -np.arange(g.n_cells, dtype=float)
    meas = gather_node_inputs(SimState(grids=grids, dt=0.375), single_pipe)
    assert meas["b"] == {"p": g.r_plus[-1]}  # incoming at the x=L end is R+
    assert meas["a"] == {"p": g.r_minus[0]}  # incoming at the x=0 end is R-


def test_measure_nodal_zero_state(five_pipe):
    grids = build_grids(five_pipe, 340.0, 0.5)
    meas = gather_node_inputs(SimState(grids=grids, dt=0.5), five_pipe)
    assert all(x == 0.0 for incoming in meas.values() for x in incoming.values())


def test_measure_nodal_interior_out_is_junction_map(five_pipe):
    grids = build_grids(five_pipe, 340.0, 0.5)
    rng = np.random.default_rng(5)
    for g in grids.values():
        g.r_plus[:] = rng.uniform(-1, 1, g.n_cells)
        g.r_minus[:] = rng.uniform(-1, 1, g.n_cells)
    ins = gather_node_inputs(SimState(grids=grids, dt=0.5), five_pipe)
    u = control_values(five_pipe, {v: (lambda t: 0.0) for v in five_pipe.boundary_nodes}, 0.0)
    outs = node_outputs(five_pipe, ins, u, {v: 0.5 for v in five_pipe.nodes})
    for v in ("n2", "n3"):
        assert outs[v] == junction_outflow(ins[v], five_pipe.diameters_at(v))


def test_observer_update_mu_zero_copies_truth():
    diam = {"a": 0.6, "b": 0.9, "c": 0.4}
    s_in = {"a": 1.0, "b": -2.0, "c": 0.5}
    s_out = junction_outflow(s_in, diam)
    r_in = {"a": 9.9, "b": 1.1, "c": -3.3}
    out = observer_node_update(0.0, diam, r_in, s_in, s_out)
    assert out == s_out


def test_observer_update_mu_one_ignores_truth():
    diam = {"a": 0.6, "b": 0.9, "c": 0.4}
    s_in = {"a": 1.0, "b": -2.0, "c": 0.5}
    s_out = junction_outflow(s_in, diam)
    r_in = {"a": 9.9, "b": 1.1, "c": -3.3}
    out = observer_node_update(1.0, diam, r_in, s_in, s_out)
    expected = junction_outflow(r_in, diam)
    for e in out:
        assert out[e] == pytest.approx(expected[e], rel=1e-13, abs=1e-13)


def test_observer_update_worked_example():
    # mu = 0.5, two unit pipes, truth at rest, observer incoming (2, 4)
    diam = {"a": 1.0, "b": 1.0}
    s_in = {"a": 0.0, "b": 0.0}
    s_out = junction_outflow(s_in, diam)
    r_in = {"a": 2.0, "b": 4.0}
    out = observer_node_update(0.5, diam, r_in, s_in, s_out)
    assert out["a"] == pytest.approx(2.0, rel=1e-14)
    assert out["b"] == pytest.approx(1.0, rel=1e-14)
    delta_out = {e: out[e] - s_out[e] for e in out}
    delta_in = {e: r_in[e] - s_in[e] for e in r_in}
    out_energy = sum(diam[e] ** 2 * delta_out[e] ** 2 for e in out)
    in_energy = sum(diam[e] ** 2 * delta_in[e] ** 2 for e in out)
    assert out_energy == pytest.approx(5.0, rel=1e-14)
    assert out_energy == pytest.approx(0.25 * in_energy, rel=1e-14)


def test_observer_update_boundary():
    out = observer_node_update(0.25, {"a": 0.5}, {"a": 8.0}, u=4.0)
    assert out["a"] == pytest.approx(0.75 * 4.0 + 0.25 * 8.0, rel=1e-15)
    with pytest.raises(ValidationError):
        observer_node_update(0.25, {"a": 0.5}, {"a": 8.0})  # missing u
    with pytest.raises(ValidationError):
        observer_node_update(0.5, {"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 2.0})


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(-1, 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_nodal_energy_identity_random(k, mu, seed):
    rng = np.random.default_rng(seed)
    diam = {f"e{i}": float(d) for i, d in enumerate(rng.uniform(0.4, 1.0, k))}
    s_in = {e: float(x) for e, x in zip(diam, rng.uniform(-5, 5, k))}
    r_in = {e: float(x) for e, x in zip(diam, rng.uniform(-5, 5, k))}
    s_out = junction_outflow(s_in, diam)
    r_out = observer_node_update(mu, diam, r_in, s_in, s_out)
    delta_in = {e: r_in[e] - s_in[e] for e in diam}
    delta_out = {e: r_out[e] - s_out[e] for e in diam}
    assert nodal_energy_residual(delta_in, delta_out, mu, diam) <= 1e-12


def _coupled(net, scenario):
    asm = assemble(net, scenario)
    return asm, CoupledState(asm.s_state, asm.r_state, asm.config)


def test_exact_initialization_stays_exact(five_pipe):
    scn = ScenarioSpec(
        theta=0.0137,
        t_end=50.0,
        dt=0.5,
        mu_uniform=0.7,
        ic_s={"p2": InitialCondition("half_step", 60.0, 2.0)},
        ic_r={"p2": InitialCondition("half_step", 60.0, 2.0)},
    )
    asm, cs = _coupled(five_pipe, scn)
    for _ in range(asm.n_steps):
        cs, _ = step_coupled(cs, asm.graph)
        delta = difference_state(cs.r_state, cs.s_state)
        assert lyapunov_l0(delta.grids, asm.graph) <= 1e-14


def test_single_pipe_sync_after_travel_time(single_pipe):
    scn = ScenarioSpec(
        theta=0.0,
        t_end=6.0,
        dt=0.375,
        mu_uniform=0.0,
        ic_s={"p": InitialCondition("half_step", 60.0, 2.0)},
    )
    asm, cs = _coupled(single_pipe, scn)
    l0 = []
    for _ in range(asm.n_steps):
        cs, _ = step_coupled(cs, asm.graph)
        delta = difference_state(cs.r_state, cs.s_state)
        l0.append((cs.t, lyapunov_l0(delta.grids, asm.graph)))
    travel = 1020.0 / 340.0
    assert all(v == 0.0 for t, v in l0 if t > travel)
    assert any(v > 0.0 for t, v in l0 if t <= travel)


def test_nodal_identity_along_run(five_pipe):
    scn = ScenarioSpec(
        theta=0.0137,
        t_end=30.0,
        dt=0.5,
        mu_uniform=0.4,
        mu_overrides={"n3": -0.8},
        ic_s={"p2": InitialCondition("half_step", 60.0, 2.0)},
        ic_r={"p2": InitialCondition("half_step", 60.0, 1.5)},
    )
    asm, cs = _coupled(five_pipe, scn)
    for _ in range(asm.n_steps):
        cs, traces = step_coupled(cs, asm.graph, collect_nodal=True)
        for v, tr in traces.items():
            res = nodal_energy_residual(
                tr.delta_in, tr.delta_out, tr.mu, asm.graph.diameters_at(v)
            )
            assert res <= 1e-12


def test_l0_monotone_under_admissible_gains(five_pipe):
    scn = ScenarioSpec(
        theta=0.0137,
        t_end=60.0,
        dt=0.5,
        mu_uniform=0.3,
        mu_overrides={"n2": -0.7, "n4": 1.0, "n5": 0.9},
        ic_s={"p2": InitialCondition("half_step", 60.0, 2.0)},
        ic_r={"p2": InitialCondition("half_step", 60.0, 1.5)},
    )
    asm, cs = _coupled(five_pipe, scn)
    delta = difference_state(cs.r_state, cs.s_state)
    prev = lyapunov_l0(delta.grids, asm.graph)
    l0_init = prev
    for _ in range(asm.n_steps):
        cs, _ = step_coupled(cs, asm.graph)
        delta = difference_state(cs.r_state, cs.s_state)
        now = lyapunov_l0(delta.grids, asm.graph)
        assert now <= prev + 1e-10 * l0_init
        prev = now


def test_direct_diff_zero_truth_matches_plain_system(star_graph):
    # with the truth at zero the error system is the plain system driven by
    # u = 0, provided the interior gains are 1 (boundary gains arbitrary)
    net = star_graph.with_theta(0.02)
    mu = {"leaf0": 0.3, "leaf1": -0.5, "leaf2": 0.8, "hub": 1.0}
    grids = build_grids(net, 340.0, 0.25)
    rng = np.random.default_rng(9)
    for g in grids.values():
        g.r_plus[:] = rng.uniform(-1, 1, g.n_cells)
        g.r_minus[:] = rng.uniform(-1, 1, g.n_cells)
    d_state = SimState(grids=copy_grids(grids), dt=0.25)
    s_state = SimState(grids=copy_grids(grids), dt=0.25)
    zero_truth = SimState(grids=build_grids(net, 340.0, 0.25), dt=0.25, step_index=1)
    d_next = direct_diff_step(d_state, net, mu, s_new=zero_truth)
    controls = {v: (lambda t: 0.0) for v in net.boundary_nodes}
    s_next = step_system(s_state, net, controls, mu)
    for pid in grids:
        assert np.array_equal(d_next.grids[pid].r_plus, s_next.grids[pid].r_plus)
        assert np.array_equal(d_next.grids[pid].r_minus, s_next.grids[pid].r_minus)


def test_direct_diff_boundary_mu_zero_absorbs(single_pipe):
    grids = build_grids(single_pipe, 340.0, 0.375)
    for g in grids.values():
        g.r_plus[:] = 1.0
        g.r_minus[:] = -2.0
    d = SimState(grids=grids, dt=0.375)
    mu = {"a": 0.0, "b": 0.0}
    d = direct_diff_step(d, single_pipe, mu)
    assert d.grids["p"].r_plus[0] == 0.0
    assert d.grids["p"].r_minus[-1] == 0.0


def test_direct_diff_rejects_boundary_mu_outside_unit_interval(single_pipe):
    d = SimState(grids=build_grids(single_pipe, 340.0, 0.375), dt=0.375)
    with pytest.raises(ValidationError, match="node 'b'"):
        direct_diff_step(d, single_pipe, {"a": 0.0, "b": 1.5})


def test_direct_diff_requires_truth_with_friction(single_pipe):
    net = single_pipe.with_theta(0.0137)
    grids = build_grids(net, 340.0, 0.375)
    d = SimState(grids=grids, dt=0.375)
    with pytest.raises(ConfigurationError):
        direct_diff_step(d, net, {"a": 0.0, "b": 0.0})


def test_direct_diff_matches_pairwise_subtraction(five_pipe):
    scn = ScenarioSpec(
        theta=0.0137,
        t_end=40.0,
        dt=0.5,
        mu_uniform=0.9,
        rest_pressure_bar=1.25,
        ic_s={"p2": InitialCondition("half_step", 1.25, 0.08)},
        ic_r={
            "p2": InitialCondition("half_step", 1.25, 0.05),
            "p0": InitialCondition("sinusoidal", 1.25, 0.03, 2),
        },
    )
    asm, cs = _coupled(five_pipe, scn)
    d_state = difference_state(asm.r_state, asm.s_state)
    s_state = asm.s_state
    for _ in range(asm.n_steps):
        cs, _ = step_coupled(cs, asm.graph)
        s_state = step_system(s_state, asm.graph, asm.config.controls, asm.mu)
        d_state = direct_diff_step(d_state, asm.graph, asm.mu, s_new=s_state)
        sub = difference_state(cs.r_state, cs.s_state)
        for pid in sub.grids:
            np.testing.assert_allclose(
                d_state.grids[pid].r_plus, sub.grids[pid].r_plus, atol=1e-12, rtol=0
            )
            np.testing.assert_allclose(
                d_state.grids[pid].r_minus, sub.grids[pid].r_minus, atol=1e-12, rtol=0
            )


def test_l0_conserved_with_unit_gains_no_friction(five_pipe):
    mu = {"n0": 1.0, "n1": -1.0, "n2": 1.0, "n3": -1.0, "n4": 1.0, "n5": -1.0}
    grids = build_grids(five_pipe, 340.0, 0.5)
    rng = np.random.default_rng(42)
    for g in grids.values():
        g.r_plus[:] = rng.normal(size=g.n_cells)
        g.r_minus[:] = rng.normal(size=g.n_cells)
    d = SimState(grids=grids, dt=0.5)
    l0_0 = lyapunov_l0(d.grids, five_pipe)
    for _ in range(300):
        d = direct_diff_step(d, five_pipe, mu)
        assert abs(lyapunov_l0(d.grids, five_pipe) - l0_0) <= 1e-12 * l0_0


def test_l1_decays_for_continuous_error(five_pipe):
    from gasnetsim.diagnostics import fit_decay_rate
    from gasnetsim.run import run_observer_pair

    scn = ScenarioSpec(
        theta=0.0137,
        t_end=90.0,
        dt=0.5,
        mu_uniform=0.5,
        ic_s={"p2": InitialCondition("sinusoidal", 60.0, 2.0, 2)},
        ic_r={"p2": InitialCondition("sinusoidal", 60.0, 1.5, 2)},
    )
    res = run_observer_pair(five_pipe, scn, record_l1=True)
    rate_l0, _ = fit_decay_rate(res.series, (5.0, 80.0))
    rate_l1, _ = fit_decay_rate(res.series, (5.0, 80.0), use_l1=True)
    assert rate_l0 > 0
    assert rate_l1 > 0


def test_coupled_state_validation(five_pipe):
    grids = build_grids(five_pipe, 340.0, 0.5)
    a = SimState(grids=grids, dt=0.5)
    b = SimState(grids=copy_grids(grids), dt=0.25)
    with pytest.raises(ConfigurationError):
        CoupledState(a, b, ObserverConfig(mu={v: 0.0 for v in five_pipe.nodes}))


def test_controls_evaluated_once_per_boundary_node_per_step(five_pipe, monkeypatch):
    import gasnetsim.run as run_mod
    from gasnetsim.fileio import make_boundary_control

    calls = {}

    def counting_factory(points, pipe, law):
        control = make_boundary_control(points, pipe, law)
        calls[pipe.id] = 0

        def counted(t):
            calls[pipe.id] += 1
            return control(t)

        return counted

    monkeypatch.setattr(run_mod, "make_boundary_control", counting_factory)
    scn = ScenarioSpec(theta=0.0137, t_end=5.0, dt=0.5, mu_uniform=0.5)
    result = run_mod.run_observer_pair(five_pipe, scn, residual_stride=1)
    n_steps = len(result.series.times) - 1
    assert n_steps == 10
    # each boundary node of five_pipe sits on its own pipe
    assert calls == {five_pipe.incident_pipes(v)[0].id: n_steps for v in five_pipe.boundary_nodes}


@pytest.mark.parametrize("cfl", [1.0, 0.6])
def test_new_grids_keep_pipe_geometry(cfl):
    def grid(fill):
        return EdgeGrid("q", 5, 0.7, cfl, np.full(5, fill), np.full(5, -fill),
                        length_perturbation=0.013)

    def geometry(g):
        return g.pipe, g.n_cells, g.dx, g.cfl, g.length_perturbation

    advected = advect_step(grid(2.0), inflow_plus=1.0, inflow_minus=-1.0)
    assert geometry(advected) == geometry(grid(2.0))
    delta = difference_state(SimState({"q": grid(3.0)}, dt=0.5), SimState({"q": grid(1.0)}, dt=0.5))
    assert geometry(delta.grids["q"]) == geometry(grid(3.0))
    assert delta.grids["q"].r_plus.tolist() == [2.0] * 5
