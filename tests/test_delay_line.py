"""Without friction and at cfl = 1 every cell update is a copy, so each pipe
is a delay line: the R+ that a pipe's to-node reads at step k is what its
from-node sent n_e steps earlier, or an initial cell before that, and R-
mirrors it.  `delay_line` runs a network from that fact alone: it keeps the
values sent into each pipe and calls a given node map at every node, and
shares no code with `advect_step`, `transport` or the kernel's end-cell
reader.  The truth map is `junction_outflow`; the error system's map is
written out here from the paper's rule."""

from dataclasses import replace

import numpy as np
from hypothesis import given, strategies as st

from gasnetsim.diagnostics import lyapunov_l0
from gasnetsim.fileio import bundled_path, parse_network_file, parse_scenario
from gasnetsim.network import NetworkGraph, PipeSpec, junction_outflow
from gasnetsim.observer import (CoupledState, ObserverConfig, difference_state,
                                diff_junction_outflow, direct_diff_step, step_coupled)
from gasnetsim.run import assemble, run_truth
from gasnetsim.solver import SimState, build_grids, step_system


def truth_map(graph, controls, mu, dt):
    """The truth node map; step k evaluates the controls at t = (k - 1) dt."""
    def node_map(v, k, incoming):
        gain = (mu[v], controls[v]((k - 1) * dt)) if v in controls else None
        return junction_outflow(incoming, graph.diameters_at(v), gain)
    return node_map


def error_map(graph, mu):
    """The error-system node map: mu * delta at a degree-1 node, mu (omega_v
    sum D^2 delta - delta) at an interior node."""
    def node_map(v, k, incoming):
        if len(incoming) == 1:
            return {e: mu[v] * d for e, d in incoming.items()}
        return diff_junction_outflow(incoming, graph.diameters_at(v), mu[v])
    return node_map


def delay_line(graph, grids, node_map, n_steps):
    """(R+, R-) of every pipe after `n_steps` frictionless exact steps from
    `grids`; `node_map(v, k, incoming)` gives node v's outputs at step k."""
    sent_plus = {p.id: [] for p in graph.pipes}  # [j - 1]: sent at step j into x = 0
    sent_minus = {p.id: [] for p in graph.pipes}  # [j - 1]: sent at step j into x = L
    for k in range(1, n_steps + 1):
        outs = {}
        for v in graph.nodes:
            incoming = {}
            for p in graph.incident_pipes(v):
                n, g = grids[p.id].n_cells, grids[p.id]
                sent, init, i = ((sent_plus, g.r_plus, n - k) if v == p.to_node  # R+ at x = L
                                 else (sent_minus, g.r_minus, k - 1))  # R- at x = 0
                incoming[p.id] = sent[p.id][k - n - 1] if k > n else init.item(i)
            outs[v] = node_map(v, k, incoming)
        for p in graph.pipes:
            sent_plus[p.id].append(outs[p.from_node][p.id])
            sent_minus[p.id].append(outs[p.to_node][p.id])
    final = {}
    for p in graph.pipes:
        n, g, N = grids[p.id].n_cells, grids[p.id], n_steps
        plus = [sent_plus[p.id][N - i - 1] if i < N else g.r_plus.item(i - N) for i in range(n)]
        minus = [sent_minus[p.id][N - n + i] if i + N >= n else g.r_minus.item(i + N)
                 for i in range(n)]
        final[p.id] = np.array(plus), np.array(minus)
    return final


def assert_same_bits(state, final):
    assert state.grids.keys() == final.keys()
    for pid, (plus, minus) in final.items():
        g = state.grids[pid]
        for got, want in ((g.r_plus, plus), (g.r_minus, minus)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def delay_cases(draw):
    """A frictionless 1-6-pipe tree or tree plus one cycle-closing pipe,
    random initial fields, gains in [-1, 1] at every node, affine controls
    and a step count that sends values round the network several times."""
    n_pipes = draw(st.integers(1, 6))
    cyclic = n_pipes > 1 and draw(st.booleans())
    ends = [(draw(st.integers(0, i)), i + 1) for i in range(n_pipes - cyclic)]
    if cyclic:
        a = draw(st.integers(0, n_pipes - 1))
        ends.append((a, draw(st.integers(0, n_pipes - 1).filter(lambda b: b != a))))
    pipes = [PipeSpec(f"p{i}", *(f"n{a}", f"n{b}")[::draw(st.sampled_from([1, -1]))],
                      draw(st.floats(340.0, 1200.0)), draw(st.floats(0.3, 1.2)))
             for i, (a, b) in enumerate(ends)]
    graph = NetworkGraph(pipes)
    dt = 0.375
    grids = build_grids(graph, 340.0, dt)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for g in grids.values():
        g.r_plus[:] = rng.normal(1300.0, 50.0, g.n_cells)
        g.r_minus[:] = rng.normal(1300.0, 50.0, g.n_cells)
    mu = {v: draw(st.floats(-1.0, 1.0)) for v in graph.nodes}
    controls = {v: (lambda t, a=rng.normal(1300.0, 50.0), b=rng.normal(): a + b * t)
                for v in graph.boundary_nodes}
    return graph, grids, controls, mu, dt, draw(st.integers(1, 40))


@given(delay_cases())
def test_frictionless_exact_kernel_is_a_delay_line(case):
    graph, grids, controls, mu, dt, n_steps = case
    final = delay_line(graph, grids, truth_map(graph, controls, mu, dt), n_steps)
    state = SimState(grids=grids, dt=dt)
    for _ in range(n_steps):
        state = step_system(state, graph, controls, mu)
    assert_same_bits(state, final)


@given(delay_cases())
def test_frictionless_exact_error_system_is_a_delay_line(case):
    graph, grids, _, mu, dt, n_steps = case
    final = delay_line(graph, grids, error_map(graph, mu), n_steps)
    state = SimState(grids=grids, dt=dt)
    for _ in range(n_steps):
        state = direct_diff_step(state, graph, mu)
    assert_same_bits(state, final)


@st.composite
def covered_gains(draw, graph):
    """mu = 0 on a drawn vertex cover (a node set holding an end of every
    pipe) and mu in [-1, 1], -1 and 1 included, at every other node."""
    cover = {v for v in graph.nodes if draw(st.booleans())}
    for p in graph.pipes:
        if not {p.from_node, p.to_node} & cover:
            cover.add(draw(st.sampled_from([p.from_node, p.to_node])))
    free = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
    return {v: 0.0 if v in cover else draw(free) for v in graph.nodes}


@given(delay_cases(), st.data())
def test_mu_zero_on_a_vertex_cover_syncs_exactly_by_twice_the_longest_pipe(case, data):
    """A mu = 0 node sends the truth's values, so from step max_e n_e on a
    node reads exact values on every pipe from a covered end; an uncovered
    node has only such pipes and then sends exact values too, which fill
    their pipes by step 2 max_e n_e: from then on delta = R - S is 0.0."""
    graph, s_grids, controls, _, dt, _ = case
    mu = data.draw(covered_gains(graph))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    r_grids = {pid: replace(g, r_plus=rng.normal(1300.0, 50.0, g.n_cells),
                            r_minus=rng.normal(1300.0, 50.0, g.n_cells))
               for pid, g in s_grids.items()}
    cs = CoupledState(SimState(s_grids, dt), SimState(r_grids, dt), ObserverConfig(mu, controls))
    n_max = max(g.n_cells for g in s_grids.values())
    for k in range(1, 3 * n_max + 1):
        cs, _ = step_coupled(cs, graph)
        if k >= 2 * n_max:
            delta = difference_state(cs.r_state, cs.s_state).grids
            assert not any(g.r_plus.any() or g.r_minus.any() for g in delta.values()), k
            assert lyapunov_l0(delta, graph) == 0.0


def test_bundled_network_run_is_a_delay_line():
    graph = parse_network_file(bundled_path("gaslib40_like.net"))
    scenario = parse_scenario(
        bundled_path("step_nofriction.scn").read_text().replace("t_end 600", "t_end 300")
        + "mu mixed\n")
    asm = assemble(graph, scenario)
    assert asm.n_steps == 510 and scenario.theta == 0.0
    final = delay_line(asm.graph, asm.s_state.grids,
                       truth_map(asm.graph, asm.config.controls, asm.mu, asm.dt), asm.n_steps)
    frame, _ = run_truth(graph, scenario)
    assert frame.layout.pipes == tuple(final)
    for got, k in ((frame.plus, 0), (frame.minus, 1)):
        want = np.concatenate([fields[k] for fields in final.values()])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
