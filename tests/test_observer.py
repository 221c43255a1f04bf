import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gasnetsim.bounds import upsilon0
from gasnetsim.diagnostics import lyapunov_l0, nodal_energy_residual, quadrature
from gasnetsim.errors import ConfigurationError, ValidationError
from gasnetsim.fileio import InitialCondition, ScenarioSpec
from gasnetsim.network import NetworkGraph, NodeDiameters, PipeSpec, junction_outflow
from gasnetsim.observer import (
    CoupledState,
    ObserverConfig,
    difference_state,
    diff_junction_outflow,
    direct_diff_step,
    error_outflow,
    observer_node_update,
    step_coupled,
)
from gasnetsim.run import assemble
from gasnetsim.solver import (
    EdgeGrid,
    Layout,
    SimState,
    advect_step,
    build_grids,
    friction_step,
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


def slot_reads(graph, grids):
    """Every node's incoming invariants {pipe: value}, read through the
    read slots of a state packed from `grids`."""
    state = SimState(grids, dt=0.5).packed_on(graph)
    vals = iter(state.packed.take(state.layout.read_slots).tolist())
    return {v: {e: next(vals) for e in graph.diameters_at(v)} for v in graph.nodes}


def test_measure_nodal_conventions(single_pipe):
    # the observer measures the truth's incoming invariants at every node
    grids = build_grids(single_pipe, 340.0, 0.375)
    g = grids["p"]
    g.r_plus[:] = np.arange(g.n_cells, dtype=float)
    g.r_minus[:] = -np.arange(g.n_cells, dtype=float)
    ins = slot_reads(single_pipe, grids)
    assert ins["b"] == {"p": g.r_plus[-1]}  # x=L end: R+
    assert ins["a"] == {"p": g.r_minus[0]}  # x=0 end: R-


def test_measure_nodal_zero_state(five_pipe):
    grids = build_grids(five_pipe, 340.0, 0.5)
    assert all(x == 0.0 for ins in slot_reads(five_pipe, grids).values() for x in ins.values())


def test_measure_nodal_interior_out_is_junction_map(five_pipe):
    grids = build_grids(five_pipe, 340.0, 0.5)
    rng = np.random.default_rng(5)
    for g in grids.values():
        g.r_plus[:] = rng.uniform(-1, 1, g.n_cells)
        g.r_minus[:] = rng.uniform(-1, 1, g.n_cells)
    state = SimState(grids=grids, dt=0.5)
    ins = slot_reads(five_pipe, grids)
    controls = {v: (lambda t: 0.0) for v in five_pipe.boundary_nodes}
    gains = {v: 0.5 for v in five_pipe.nodes}
    plan = {n.node: n for n in five_pipe.node_plan(controls, gains)}
    # five_pipe has no friction, so the ghost cells hold the node outputs
    nxt = step_system(state, five_pipe, controls, gains).grids
    for v in ("n2", "n3"):
        assert plan[v].control is None
        outs = {p.id: nxt[p.id].r_plus[0] if v == p.from_node else nxt[p.id].r_minus[-1]
                for p in five_pipe.incident_pipes(v)}
        assert outs == junction_outflow(ins[v], five_pipe.diameters_at(v))


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


@st.composite
def coupled_steps(draw):
    """A connected 1-6-pipe network (a tree, or a tree plus one pipe that
    closes a cycle), truth and observer states on it, gains in [-1, 1] and
    boundary controls."""
    n_pipes = draw(st.integers(1, 6))
    cyclic = n_pipes > 1 and draw(st.booleans())
    ends = [(draw(st.integers(0, i)), i + 1) for i in range(n_pipes - cyclic)]
    if cyclic:
        a = draw(st.integers(0, n_pipes - 1))
        ends.append((a, draw(st.integers(0, n_pipes - 1).filter(lambda b: b != a))))
    theta = draw(st.sampled_from([0.0, 0.02]))
    pipes = [PipeSpec(f"p{i}", *(f"n{a}", f"n{b}")[::draw(st.sampled_from([1, -1]))],
                      draw(st.floats(340.0, 1200.0)), draw(st.floats(0.3, 1.2)), theta)
             for i, (a, b) in enumerate(ends)]
    graph = NetworkGraph(pipes)
    dt = 0.375
    mode = draw(st.sampled_from(["exact-advection", "cfl-safe"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = []
    for _ in range(2):
        grids = build_grids(graph, 340.0, dt, mode=mode)
        for g in grids.values():
            g.r_plus[:] = rng.normal(1300.0, 50.0, g.n_cells)
            g.r_minus[:] = rng.normal(1300.0, 50.0, g.n_cells)
        states.append(SimState(grids=grids, dt=dt, step_index=draw(st.integers(0, 5))))
    states[1].step_index = states[0].step_index
    mu = {v: draw(st.floats(-1.0, 1.0)) for v in graph.nodes}
    controls = {v: (lambda t, a=rng.normal(1300.0, 50.0), b=rng.normal(): a + b * t)
                for v in graph.boundary_nodes}
    return graph, CoupledState(*states, ObserverConfig(mu=mu, controls=controls))


def assert_coupled_step_equals_per_node_references(graph, cs):
    """One `step_coupled` against per-node maps and per-pipe `advect_step` +
    `friction_step`, bit for bit; without `collect_nodal` it gives no traces
    and the same pairs."""
    mu, controls, t, dt = cs.config.mu, cs.config.controls, cs.t, cs.s_state.dt
    nxt, traces = step_coupled(cs, graph, collect_nodal=True)

    def incoming(state):
        return {v: {p.id: state.grids[p.id].r_plus.item(-1) if v == p.to_node
                    else state.grids[p.id].r_minus.item(0) for p in graph.incident_pipes(v)}
                for v in graph.nodes}

    s_in, r_in = incoming(cs.s_state), incoming(cs.r_state)
    s_out, r_out = {}, {}
    for v in graph.nodes:
        diam = graph.diameters_at(v)
        if v in graph.boundary_nodes:
            u = controls[v](t)
            s_out[v] = junction_outflow(s_in[v], diam, boundary_gain=(mu[v], u))
            r_out[v] = observer_node_update(mu[v], diam, r_in[v], u=u)
        else:
            s_out[v] = junction_outflow(s_in[v], diam)
            r_out[v] = observer_node_update(mu[v], diam, r_in[v], s_in[v], s_out[v])
    for before, after, outs in ((cs.s_state, nxt.s_state, s_out),
                                (cs.r_state, nxt.r_state, r_out)):
        assert after.step_index == before.step_index + 1
        for p in graph.pipes:
            g = advect_step(before.grids[p.id], outs[p.from_node][p.id], outs[p.to_node][p.id])
            rp, rm = friction_step(g.r_plus, g.r_minus, p.nu, dt)
            assert np.array_equal(after.grids[p.id].r_plus, rp)
            assert np.array_equal(after.grids[p.id].r_minus, rm)
    d_in = {v: {e: r_in[v][e] - x for e, x in ins.items()} for v, ins in s_in.items()}
    d_out = {v: {e: mu[v] * d for e, d in ins.items()} if len(ins) == 1
             else diff_junction_outflow(ins, graph.diameters_at(v), mu[v])
             for v, ins in d_in.items()}
    assert list(traces) == list(graph.nodes)
    for v, tr in traces.items():
        assert (tr.mu, tr.delta_in, tr.delta_out) == (mu[v], d_in[v], d_out[v])
    untraced, none = step_coupled(cs, graph)
    assert none is None
    assert [untraced.s_state.packed.tobytes(), untraced.r_state.packed.tobytes()] == \
        [nxt.s_state.packed.tobytes(), nxt.r_state.packed.tobytes()]


@given(coupled_steps())
def test_coupled_step_equals_per_node_references(case):
    assert_coupled_step_equals_per_node_references(*case)


@given(coupled_steps())
def test_node_maps_give_the_same_bits_on_a_graph_table_as_on_a_plain_dict(case):
    """The node maps and the nodal residual read D^2 and omega_v from the
    graph's table, and compute them per call from any other mapping: the
    bits are the same either way."""
    graph, cs = case
    mu, controls, t = cs.config.mu, cs.config.controls, cs.t
    s_in, r_in = slot_reads(graph, cs.s_state.grids), slot_reads(graph, cs.r_state.grids)
    for v in graph.nodes:
        table = graph.diameters_at(v)
        assert type(table) is NodeDiameters
        got = []
        for diam in (table, dict(table)):
            if v in graph.boundary_nodes:
                u = controls[v](t)
                s_out = junction_outflow(s_in[v], diam, (mu[v], u))
                r_out = observer_node_update(mu[v], diam, r_in[v], u=u)
            else:
                s_out = junction_outflow(s_in[v], diam)
                r_out = observer_node_update(mu[v], diam, r_in[v], s_in[v], s_out)
            d_in = {e: r - s_in[v][e] for e, r in r_in[v].items()}
            d_out = diff_junction_outflow(d_in, diam, mu[v])
            res = nodal_energy_residual(d_in, d_out, mu[v], diam)
            got.append([x.hex() for x in (*s_out.values(), *r_out.values(), *d_out.values(), res)])
        assert got[0] == got[1]


MISMATCH = "diff_junction_outflow: key mismatch"
NAN = math.nan


def outcome(call):
    """(type, text) of the exception `call()` raises, or (None, repr) of
    what it returns."""
    try:
        got = call()
    except Exception as exc:
        return type(exc), str(exc)
    return None, repr(got)


# Error values, diameters, mu, and the outcomes of `diff_junction_outflow`,
# `error_outflow` and `nodal_energy_residual(values, values, mu, diameters)`
# while the maps compared key sets after the gain check and before any other:
# the exception's type and text, or the repr of what the call returned.
ERROR_MAP_OUTCOMES = {
    "deg1-other-key": (
        {"a": 1.0}, {"b": 0.5}, 0.5, (ValidationError, MISMATCH), (None, "{'a': 0.5}"),
        (KeyError, "'a'")),
    "deg1-of-deg2-table": (
        {"a": 1.0}, {"a": 0.5, "b": 0.6}, 0.5, (ValidationError, MISMATCH), (None, "{'a': 0.5}"),
        (None, "0.75")),
    "deg2-of-deg1-table": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5}, 0.5, (ValidationError, MISMATCH),
        (ValidationError, MISMATCH), (KeyError, "'b'")),
    "deg2-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5, "c": 0.6}, 0.5, (ValidationError, MISMATCH),
        (ValidationError, MISMATCH), (KeyError, "'b'")),
    "deg2-of-deg3-table": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 0.6, "c": 0.7}, 0.5, (ValidationError, MISMATCH),
        (ValidationError, MISMATCH), (None, "0.7500000000000001")),
    "deg3-of-deg2-table": (
        {"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 0.5, "b": 0.6}, 0.5, (ValidationError, MISMATCH),
        (ValidationError, MISMATCH), (KeyError, "'c'")),
    "deg3-other-key": (
        {"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 0.5, "b": 0.6, "d": 0.7}, 0.5,
        (ValidationError, MISMATCH), (ValidationError, MISMATCH), (KeyError, "'c'")),
    "deg4-two-other-keys": (
        {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}, {"e": 0.5, "b": 0.6, "c": 0.7, "f": 0.8}, 0.5,
        (ValidationError, MISMATCH), (ValidationError, MISMATCH), (KeyError, "'a'")),
    "deg3-keys-in-another-order": (
        {"c": 3.0, "a": 1.0, "b": 2.0}, {"a": 0.5, "b": 0.6, "c": 0.7}, 0.5,
        (None, "{'c': 0.7181818181818178, 'a': 1.7181818181818178, 'b': 1.2181818181818178}"),
        (None, "{'c': 0.7181818181818178, 'a': 1.7181818181818178, 'b': 1.2181818181818178}"),
        (None, "0.7499999999999999")),
    "empty": (
        {}, {}, 0.5, (ValidationError, "omega_v needs at least one diameter"),
        (ValidationError, "omega_v needs at least one diameter"), (None, "0.0")),
    "empty-of-deg1-table": (
        {}, {"a": 0.5}, 0.5, (ValidationError, MISMATCH), (ValidationError, MISMATCH),
        (None, "0.0")),
    "deg1": (
        {"a": 1.0}, {"a": 0.5}, 0.5, (None, "{'a': 0.5}"), (None, "{'a': 0.5}"), (None, "0.75")),
    "deg1-mu-1.5": (
        {"a": 1.0}, {"a": 0.5}, 1.5, (ValidationError, "mu is 1.5, outside [-1, 1]"),
        (None, "{'a': 1.5}"), (None, "1.25")),
    "deg1-mu-nan-other-key": (
        {"a": 1.0}, {"b": 0.5}, NAN, (ValidationError, "mu is nan, outside [-1, 1]"),
        (None, "{'a': nan}"), (KeyError, "'a'")),
    "deg2-mu-1.5": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 0.6}, 1.5,
        (ValidationError, "mu is 1.5, outside [-1, 1]"),
        (ValidationError, "mu is 1.5, outside [-1, 1]"), (None, "1.25")),
    "deg2-mu-1.5-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5, "c": 0.6}, 1.5,
        (ValidationError, "mu is 1.5, outside [-1, 1]"),
        (ValidationError, "mu is 1.5, outside [-1, 1]"), (KeyError, "'b'")),
    "deg3-mu-nan-other-key": (
        {"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 0.5, "b": 0.6, "d": 0.7}, NAN,
        (ValidationError, "mu is nan, outside [-1, 1]"),
        (ValidationError, "mu is nan, outside [-1, 1]"), (KeyError, "'c'")),
    "deg2-mu-nan-of-deg3-table": (
        {"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 0.6, "c": 0.7}, NAN,
        (ValidationError, "mu is nan, outside [-1, 1]"),
        (ValidationError, "mu is nan, outside [-1, 1]"), (None, "nan")),
    "deg2-zero-diameter": (
        {"a": 1.0, "b": 2.0}, {"a": 0.0, "b": 0.6}, 0.5,
        (ValidationError, "omega_v: diameters must be positive"),
        (ValidationError, "omega_v: diameters must be positive"), (None, "0.7500000000000001")),
    "deg2-zero-diameter-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": 0.0, "c": 0.6}, 0.5, (ValidationError, MISMATCH),
        (ValidationError, MISMATCH), (KeyError, "'b'")),
    "deg2-square-overflows": (
        {"a": 1.0, "b": 2.0}, {"a": 1e+200, "b": 0.6}, 0.5,
        (OverflowError, "(34, 'Numerical result out of range')"),
        (OverflowError, "(34, 'Numerical result out of range')"),
        (OverflowError, "(34, 'Numerical result out of range')")),
    "deg2-square-overflows-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": 1e+200, "c": 0.6}, 0.5, (ValidationError, MISMATCH),
        (ValidationError, MISMATCH), (OverflowError, "(34, 'Numerical result out of range')")),
    "deg2-negative-square-overflows": (
        {"a": 1.0, "b": 2.0}, {"a": -1e+200, "b": 0.6}, 0.5,
        (ValidationError, "omega_v: diameters must be positive"),
        (ValidationError, "omega_v: diameters must be positive"),
        (OverflowError, "(34, 'Numerical result out of range')")),
    "deg2-text-diameter-other-key": (
        {"a": 1.0, "b": 2.0}, {"a": "0.5", "c": 0.6}, 0.5, (ValidationError, MISMATCH),
        (ValidationError, MISMATCH),
        (TypeError, "unsupported operand type(s) for ** or pow(): 'str' and 'int'")),
    "deg2-text-value": (
        {"a": "1", "b": 2.0}, {"a": 0.5, "b": 0.6}, 0.5,
        (TypeError, "can't multiply sequence by non-int of type 'float'"),
        (TypeError, "can't multiply sequence by non-int of type 'float'"),
        (TypeError, "unsupported operand type(s) for ** or pow(): 'str' and 'int'")),
}


@pytest.mark.parametrize("table", [NodeDiameters, dict])
@pytest.mark.parametrize("case", ERROR_MAP_OUTCOMES)
def test_error_maps_raise_the_same_errors_in_the_same_order(case, table):
    """A length compare and the fold's key lookups find every key mismatch
    that a key-set compare found, after the gain check and before every
    other check; the nodal residual, which has no key check, is unchanged."""
    delta, diam, mu, *want = ERROR_MAP_OUTCOMES[case]
    assert [outcome(lambda: diff_junction_outflow(delta, table(diam), mu)),
            outcome(lambda: error_outflow(delta, table(diam), mu)),
            outcome(lambda: nodal_energy_residual(delta, delta, mu, table(diam)))] == want


@pytest.mark.parametrize("table", [NodeDiameters, dict])
def test_nodal_residual_raises_on_an_out_key_not_in_the_table(table):
    for delta_out in ({"a": 1.0, "c": 2.0}, {"a": 1.0, "b": 2.0, "c": 3.0}):
        assert outcome(lambda: nodal_energy_residual({"a": 1.0, "b": 2.0}, delta_out, 0.5,
                                                     table({"a": 0.5, "b": 0.6}))) == \
            (KeyError, "'c'")


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan]


def left_fold(xs):
    total = 0.0
    for x in xs:
        total += x
    return total


def float_bits(xs):
    return [struct.pack("<d", x) for x in xs]


@given(st.lists(st.tuples(st.floats(0.05, 5.0), st.one_of(st.sampled_from(EDGE_VALUES),
                                                          st.floats(-1e300, 1e300))),
                min_size=1, max_size=6).flatmap(
           lambda pipes: st.tuples(st.just(pipes), st.permutations(range(len(pipes))))),
       st.floats(-1.0, 1.0), st.sampled_from(EDGE_VALUES[:6] + [1300.0]))
def test_node_maps_give_the_bits_of_left_folds_in_any_key_order(case, mu, u):
    """On a graph table and on a plain dict, with the node values keyed in
    the table's order or in another: the node maps and the nodal residual
    give the bits of the left folds of their formulas, written out here,
    and each map's output keeps the values' key order."""
    pipes, order = case
    ids = [f"e{i}" for i in range(len(pipes))]
    diam = {e: d for e, (d, _) in zip(ids, pipes)}
    values = {ids[i]: pipes[i][1] for i in order}
    w = 2.0 / left_fold(d * d for d in diam.values())
    total = left_fold(diam[e] ** 2 * r for e, r in values.items())
    if len(values) == 1:
        ((e, r),) = values.items()
        want_truth = {e: (1.0 - mu) * u + mu * r}
        want_error = {e: mu * r}
    else:
        want_truth = {e: w * total - r for e, r in values.items()}
        want_error = {e: mu * (w * total - r) for e, r in values.items()}
    want_diff = {e: mu * (w * total - r) for e, r in values.items()}

    def residual():  # a finite value past 1.3e154 overflows `** 2`, as in the residual
        in_sum = left_fold(diam[e] ** 2 * r ** 2 for e, r in values.items())
        out_sum = left_fold(diam[e] ** 2 * d ** 2 for e, d in want_diff.items())
        return float_bits([(0.0 if out_sum == 0.0 else math.inf) if in_sum == 0.0
                           else abs(out_sum - mu * mu * in_sum) / in_sum])

    for table in (NodeDiameters(diam), dict(diam)):
        gain = (mu, u) if len(values) == 1 else None
        for got, want in ((junction_outflow(values, table, gain), want_truth),
                          (diff_junction_outflow(values, table, mu), want_diff),
                          (error_outflow(values, table, mu), want_error)):
            assert list(got) == list(values) == list(want)
            assert float_bits(got.values()) == float_bits(want.values())
        assert outcome(lambda: float_bits([nodal_energy_residual(values, want_diff, mu, table)])) \
            == outcome(residual)


def assert_discrete_energy_budget(graph, cs):
    """Six coupled steps from `cs` against the discrete energy budget

        L0_{k+1} - L0_k = sum over read slots of cfl w (delta_out^2 - delta_in^2) - D_k - F_k,

    with cfl and w the CFL number and L0 weight of the slot's pipe.  A step
    blends the shifted fields, node outputs in, with the old ones at weights
    cfl and 1 - cfl, so it keeps that share of the node term; D_k >= 0 is
    the numerical diffusion, since the blend is convex and a square is
    convex, and 0 at cfl = 1, where the step drops every read-slot value and
    writes every node output, cell for cell.  F_k is what friction removes:
    0 without friction, and >= 0 with it, since friction keeps
    delta+ + delta- and shrinks |delta+ - delta-|.  So what a step removes
    beyond the node term, D_k + F_k, is 0 to 1e-12 of L0_k at cfl = 1
    without friction, and >= -1e-12 L0_k otherwise."""
    cs = CoupledState(cs.s_state.packed_on(graph), cs.r_state.packed_on(graph), cs.config)
    layout = cs.s_state.layout
    weight = {pid: w * cs.s_state.grids[pid].cfl for pid, w in zip(layout.pipes, layout.weights)}
    lossless = all(p.nu == 0.0 for p in graph.pipes) and \
        all(g.cfl == 1.0 for g in cs.s_state.grids.values())

    def l0(state):
        return quadrature(layout.views(state.r_state.packed - state.s_state.packed),
                          layout.weights)

    for _ in range(6):
        before = l0(cs)
        cs, traces = step_coupled(cs, graph, collect_nodal=True)
        node_term = 0.0
        for tr in traces.values():
            for e, d in tr.delta_in.items():
                node_term += weight[e] * (tr.delta_out[e] ** 2 - d ** 2)
        removed = node_term - (l0(cs) - before)
        if lossless:
            assert abs(removed) <= 1e-12 * before
        else:
            assert removed >= -1e-12 * before


@given(coupled_steps().filter(lambda case: all(g.cfl == 1.0
                                               for g in case[1].s_state.grids.values())))
def test_exact_discrete_energy_budget(case):
    """At cfl = 1 on every pipe, as in exact mode, the budget holds with
    D_k = 0: without friction the node term is the whole change of L0."""
    assert_discrete_energy_budget(*case)


@given(coupled_steps().filter(lambda case: any(g.cfl < 1.0
                                               for g in case[1].s_state.grids.values())))
def test_cfl_safe_discrete_energy_budget(case):
    """On cfl-safe grids with a pipe at cfl < 1, a step removes at least what
    the node term says, less 1e-12 of L0: numerical diffusion and friction
    only take energy away."""
    assert_discrete_energy_budget(*case)


def test_cfl_safe_coupled_step_with_friction_copies_at_unit_cfl():
    # c dt = 127.5 m: p0's 510 m is exactly four cells at cfl = 1, so it takes
    # advect_step's copy branch; p1's 700 m is five cells at cfl = 127.5/140.
    graph = NetworkGraph([PipeSpec("p0", "n0", "n1", 510.0, 0.6, 0.0137),
                          PipeSpec("p1", "n1", "n2", 700.0, 0.5, 0.0137)])
    dt = 0.375
    rng = np.random.default_rng(16)
    states = []
    for _ in range(2):
        grids = build_grids(graph, 340.0, dt, mode="cfl-safe")
        for g in grids.values():
            g.r_plus[:] = rng.normal(1300.0, 50.0, g.n_cells)
            g.r_minus[:] = rng.normal(1300.0, 50.0, g.n_cells)
        states.append(SimState(grids=grids, dt=dt, step_index=3))
    assert [(g.n_cells, g.cfl) for g in grids.values()] == [(4, 1.0), (5, 127.5 / 140.0)]
    controls = {"n0": lambda t: 1310.0 + t, "n2": lambda t: 1290.0 - t}
    cs = CoupledState(*states, ObserverConfig(mu={"n0": 0.3, "n1": 0.5, "n2": -0.4},
                                              controls=controls))
    assert_coupled_step_equals_per_node_references(graph, cs)


def assert_packed(state, graph):
    """`state` holds one (R+, R-) pair on a layout of `graph`, equal to
    `Layout.pack` of its grids bit for bit, and every grid array is the
    view of the pair at the pipe's span."""
    layout = state.layout
    assert layout.graph is graph
    assert state.packed.shape == (2, len(layout.x))
    assert [a.tobytes() for a in state.packed] == [a.tobytes() for a in layout.pack(state.grids)]
    for pid, cells in zip(layout.pipes, layout.spans):
        g = state.grids[pid]
        for field, view in ((g.r_plus, state.packed[0, cells]), (g.r_minus, state.packed[1, cells])):
            assert np.shares_memory(field, state.packed)
            assert field.__array_interface__ == view.__array_interface__


def bare_shuffled(state, rng):
    """`state` as bare copied grids in a shuffled dict order."""
    items = [(pid, replace(g, r_plus=g.r_plus.copy(), r_minus=g.r_minus.copy()))
             for pid, g in state.grids.items()]
    rng.shuffle(items)
    return SimState(dict(items), state.dt, state.step_index)


def assert_same_bits(a, b):
    assert a.step_index == b.step_index
    assert a.packed.tobytes() == b.packed.tobytes()


@given(coupled_steps(), st.randoms(use_true_random=False))
def test_every_step_returns_a_packed_state_with_the_bits_of_bare_grids(case, rnd):
    graph, cs = case
    mu, controls = cs.config.mu, cs.config.controls
    packed = CoupledState(cs.s_state.packed_on(graph), cs.r_state.packed_on(graph), cs.config)
    assert_packed(packed.s_state, graph)
    bare = CoupledState(bare_shuffled(cs.s_state, rnd), bare_shuffled(cs.r_state, rnd), cs.config)
    assert packed.s_state.packed_on(graph) is packed.s_state  # converted once only
    for _ in range(3):
        before = packed.s_state.packed.copy(), packed.r_state.packed.copy()
        nxt, _ = step_coupled(packed, graph)
        from_bare, _ = step_coupled(bare, graph)
        # the states stepped from are left as they were
        assert before[0].tobytes() == packed.s_state.packed.tobytes()
        assert before[1].tobytes() == packed.r_state.packed.tobytes()
        for got, want in ((nxt.s_state, from_bare.s_state), (nxt.r_state, from_bare.r_state)):
            assert_packed(got, graph)
            assert_same_bits(got, want)
        s_new = step_system(packed.s_state, graph, controls, mu)
        assert_packed(s_new, graph)
        assert_same_bits(s_new, nxt.s_state)
        assert_same_bits(s_new, step_system(bare_shuffled(packed.s_state, rnd), graph, controls, mu))
        delta = difference_state(packed.r_state, packed.s_state)
        d_new = direct_diff_step(delta, graph, mu, s_new)
        assert_packed(d_new, graph)
        assert_same_bits(d_new, direct_diff_step(bare_shuffled(delta, rnd), graph, mu, s_new))
        packed, bare = nxt, CoupledState(bare_shuffled(nxt.s_state, rnd),
                                         bare_shuffled(nxt.r_state, rnd), cs.config)


def five_pipe_pair(five_pipe):
    """A packed truth/observer pair on the five-pipe network, the observer
    half a bar above the truth on p2, and its assembled scenario."""
    asm = assemble(five_pipe, ScenarioSpec(t_end=2.0, dt=0.5, mu_uniform=0.5,
                                           ic_r={"p2": InitialCondition("constant", 60.5)}))
    return CoupledState(asm.s_state, asm.r_state, asm.config), asm


@pytest.mark.parametrize("foreign", ["state itself", "its pair", "another layout", "another dt"])
def test_a_step_rejects_an_aliased_or_foreign_out(five_pipe, foreign):
    cs, asm = five_pipe_pair(five_pipe)

    def bad_out(state):
        if foreign == "state itself":
            return state
        if foreign == "its pair":
            return state.layout.packed_state(state, state.packed)
        if foreign == "another layout":
            return Layout.of(state.grids, asm.graph).packed_state(state)
        return SimState(state.grids, 0.25, 0, state.layout, state.packed.copy())

    before = [x.packed.tobytes() for x in (cs.s_state, cs.r_state)]
    with pytest.raises(ConfigurationError, match="out"):
        step_system(cs.s_state, asm.graph, asm.config.controls, asm.mu, out=bad_out(cs.s_state))
    with pytest.raises(ConfigurationError, match="out"):
        step_coupled(cs, asm.graph,
                     out=CoupledState(bad_out(cs.s_state), bad_out(cs.r_state), cs.config))
    assert [x.packed.tobytes() for x in (cs.s_state, cs.r_state)] == before


def test_a_coupled_step_rejects_an_out_pair_that_shares_a_state(five_pipe):
    cs, asm = five_pipe_pair(five_pipe)
    s, r = cs.s_state, cs.r_state
    spare = s.empty_like()
    for out in (CoupledState(r, spare, cs.config), CoupledState(spare, s, cs.config),
                CoupledState(spare, spare, cs.config)):
        with pytest.raises(ConfigurationError, match="out"):
            step_coupled(cs, asm.graph, out=out)


@pytest.mark.parametrize("loop", ["run_observer_pair", "run_truth"])
def test_a_run_loop_steps_into_two_states_it_swaps(five_pipe, monkeypatch, loop):
    import gasnetsim.run as run_mod

    name = "step_coupled" if loop == "run_observer_pair" else "step_system"
    real, calls = getattr(run_mod, name), []

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args[0], kwargs["out"], result[0] if name == "step_coupled" else result))
        return result

    monkeypatch.setattr(run_mod, name, spy)
    scenario = ScenarioSpec(t_end=3.0, dt=0.5, ic_s={"p0": InitialCondition("half_step", 60.0, 1.0)})
    getattr(run_mod, loop)(five_pipe, scenario)
    outs = [out for _, out, _ in calls]
    assert len(outs) == 6 and len({id(out) for out in outs}) == 2
    for (state, out, result), nxt in zip(calls, calls[1:]):
        assert result is out and out is not state
        assert nxt[0] is out and nxt[1] is state  # the step's `out` and input swap
