"""An independent scalar reference for the kernel with friction and in both
grid modes.  It steps a network cell by cell in Python floats and shares no
code with `solver`: the upwind shift and its blend, the closed-form
friction root and the error system's shifted root are written out here
from their formulas, in the kernel's order of operations.  `math.sqrt` and
numpy's `sqrt` are both correctly rounded, so every operation has one IEEE
result, and the kernel must give the reference's bits, signed zeros
included.  Each pipe's cell count and cfl come from `build_grids`; the
node maps are the network's and the observer's, which this file does not
test (test_delay_line.py holds them to the paper's rules)."""

import math
import struct
from dataclasses import replace

import numpy as np
from hypothesis import given, strategies as st

from gasnetsim.network import NetworkGraph, PipeSpec, junction_outflow
from gasnetsim.observer import (CoupledState, ObserverConfig, diff_junction_outflow,
                                direct_diff_step, observer_node_update, step_coupled)
from gasnetsim.solver import MODE_CFL_SAFE, MODE_EXACT, SimState, build_grids, step_system

C, DT = 340.0, 0.375  # c dt = 127.5 m: a pipe of k times that has cfl 1 in either mode
# Cell values besides the ordinary ones: signed zeros, subnormals and large values.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -2.5e-310, 1e300, -3e299, 1e200)


def shift(lam, plus, minus, in_plus, in_minus):
    """Upwind transport of one pipe: R+ moves right from the ghost `in_plus`,
    R- left from `in_minus`; a copy at lam = 1, else lam x + (1 - lam) y with
    x the shifted and y the old value."""
    sp, sm = [in_plus] + plus[:-1], minus[1:] + [in_minus]
    if lam == 1.0:
        return sp, sm
    return ([lam * x + (1.0 - lam) * y for x, y in zip(sp, plus)],
            [lam * x + (1.0 - lam) * y for x, y in zip(sm, minus)])


def root(d_star, a):
    """The root d of d + a |d| d = d_star: 2 d_star / (1 + sqrt(1 + 4 a |d_star|))."""
    return 2.0 * d_star / (1.0 + math.sqrt(1.0 + 4.0 * a * abs(d_star)))


def halves(s, ds):
    """(s + d) / 2 and (s - d) / 2 of each cell."""
    return [(x + d) * 0.5 for x, d in zip(s, ds)], [(x - d) * 0.5 for x, d in zip(s, ds)]


def truth_friction(p, plus, minus):
    """Implicit friction on one pipe: the sum kept, the difference replaced
    by its root; a = 0 leaves the fields as they are."""
    a = 2.0 * DT * p.nu
    if a == 0.0:
        return plus, minus
    return halves([x + y for x, y in zip(plus, minus)],
                  [root(x - y, a) for x, y in zip(plus, minus)])


def error_friction(s_new):
    """The error system's friction: the root of the shifted equation, with
    the truth difference s = S+ - S- frozen at `s_new`, the truth after the
    step."""
    def rule(p, plus, minus):
        a = 2.0 * DT * p.nu
        ds = []
        for x, y, u, w in zip(plus, minus, *s_new[p.id]):
            s = u - w
            ds.append(root(x - y + s + a * abs(s) * s, a) - s)
        return halves([x + y for x, y in zip(plus, minus)], ds)
    return rule


def reference_step(graph, lams, fields, node_map, friction):
    """One step of one system: every node reads R+ at x = L of a pipe it ends
    and R- at x = 0 of one it starts, `node_map(v, incoming)` gives its
    outputs, each pipe is shifted with them as ghost values, and pipes with
    nu > 0 take `friction(p, plus, minus)`."""
    pipes = {p.id: p for p in graph.pipes}
    outs = {v: node_map(v, {e: fields[e][0][-1] if pipes[e].to_node == v else fields[e][1][0]
                            for e in graph.diameters_at(v)})
            for v in graph.nodes}
    new = {}
    for p in graph.pipes:
        plus, minus = shift(lams[p.id], *fields[p.id], outs[p.from_node][p.id],
                            outs[p.to_node][p.id])
        new[p.id] = friction(p, plus, minus) if p.nu > 0.0 else (plus, minus)
    return new


def truth_map(graph, controls, mu, t):
    def node_map(v, incoming):
        gain = (mu[v], controls[v](t)) if v in graph.boundary_nodes else None
        return junction_outflow(incoming, graph.diameters_at(v), gain)
    return node_map


def observer_map(graph, controls, mu, t, s_fields):
    truth = truth_map(graph, controls, mu, t)
    pipes = {p.id: p for p in graph.pipes}

    def node_map(v, r_in):
        s_in = {e: s_fields[e][0][-1] if pipes[e].to_node == v else s_fields[e][1][0]
                for e in r_in}
        if v in graph.boundary_nodes:
            return observer_node_update(mu[v], graph.diameters_at(v), r_in, u=controls[v](t))
        return observer_node_update(mu[v], graph.diameters_at(v), r_in, s_in, truth(v, s_in))
    return node_map


def error_map(graph, mu):
    def node_map(v, incoming):
        if len(incoming) == 1:
            return {e: mu[v] * d for e, d in incoming.items()}
        return diff_junction_outflow(incoming, graph.diameters_at(v), mu[v])
    return node_map


def bits(values):
    return [struct.pack("<d", x) for x in values]


def assert_same_bits(state, fields):
    assert list(state.grids) == list(fields)
    for pid, (plus, minus) in fields.items():
        g = state.grids[pid]
        assert bits(g.r_plus.tolist()) == bits(plus), (pid, "R+")
        assert bits(g.r_minus.tolist()) == bits(minus), (pid, "R-")


@st.composite
def friction_cases(draw):
    """A 1-6-pipe tree or tree plus one cycle-closing pipe in either grid
    mode; some pipes frictionless, some (in cfl-safe mode) at cfl 1, the
    rest at cfl < 1; three random field sets with signed zeros, subnormals
    and large values; gains in [-1, 1] and affine controls."""
    mode = draw(st.sampled_from([MODE_EXACT, MODE_CFL_SAFE]))
    n_pipes = draw(st.integers(1, 6))
    cyclic = n_pipes > 1 and draw(st.booleans())
    ends = [(draw(st.integers(0, i)), i + 1) for i in range(n_pipes - cyclic)]
    if cyclic:
        a = draw(st.integers(0, n_pipes - 1))
        ends.append((a, draw(st.integers(0, n_pipes - 1).filter(lambda b: b != a))))
    length = st.one_of(st.integers(2, 9).map(lambda k: k * C * DT), st.floats(255.0, 1200.0))
    theta = st.one_of(st.just(0.0), st.floats(1e-4, 2.0))
    pipes = [PipeSpec(f"p{i}", *(f"n{a}", f"n{b}")[::draw(st.sampled_from([1, -1]))],
                      draw(length), draw(st.floats(0.3, 1.2)), draw(theta))
             for i, (a, b) in enumerate(ends)]
    graph = NetworkGraph(pipes)
    grids = build_grids(graph, C, DT, mode=mode)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def field(n):
        values = rng.normal(1300.0, 50.0, n)
        hit = rng.random(n) < 0.3
        values[hit] = rng.choice(SPECIAL, hit.sum())
        return values.tolist()

    sets = [{pid: (field(g.n_cells), field(g.n_cells)) for pid, g in grids.items()}
            for _ in range(3)]
    mu = {v: draw(st.floats(-1.0, 1.0)) for v in graph.nodes}
    controls = {v: (lambda t, a=rng.normal(1300.0, 50.0), b=rng.normal(): a + b * t)
                for v in graph.boundary_nodes}
    return graph, grids, sets, mu, controls, draw(st.integers(1, 6))


def kernel_state(grids, fields, step_index=0):
    """A bare state at `step_index` on copies of `grids` holding `fields`."""
    return SimState({pid: replace(g, r_plus=np.array(fields[pid][0], dtype=float),
                                  r_minus=np.array(fields[pid][1], dtype=float))
                     for pid, g in grids.items()}, DT, step_index)


def cfl(grids):
    return {pid: g.cfl for pid, g in grids.items()}


@given(friction_cases())
def test_step_system_matches_the_scalar_reference(case):
    graph, grids, (s_fields, _, _), mu, controls, n_steps = case
    state, ref = kernel_state(grids, s_fields), s_fields
    for k in range(n_steps):
        ref = reference_step(graph, cfl(grids), ref, truth_map(graph, controls, mu, k * DT),
                             truth_friction)
        state = step_system(state, graph, controls, mu)
        assert_same_bits(state, ref)


@given(friction_cases())
def test_step_coupled_matches_the_scalar_reference(case):
    graph, grids, (s_fields, r_fields, _), mu, controls, n_steps = case
    cs = CoupledState(kernel_state(grids, s_fields), kernel_state(grids, r_fields),
                      ObserverConfig(mu, controls))
    s_ref, r_ref = s_fields, r_fields
    for k in range(n_steps):
        t = k * DT
        s_ref, r_ref = (
            reference_step(graph, cfl(grids), s_ref, truth_map(graph, controls, mu, t),
                           truth_friction),
            reference_step(graph, cfl(grids), r_ref,
                           observer_map(graph, controls, mu, t, s_ref), truth_friction))
        cs, _ = step_coupled(cs, graph)
        assert_same_bits(cs.s_state, s_ref)
        assert_same_bits(cs.r_state, r_ref)


@given(friction_cases())
def test_direct_diff_step_matches_the_scalar_reference(case):
    graph, grids, (s_fields, _, d_fields), mu, controls, n_steps = case
    d_state, d_ref, s_ref = kernel_state(grids, d_fields), d_fields, s_fields
    for k in range(n_steps):
        s_ref = reference_step(graph, cfl(grids), s_ref, truth_map(graph, controls, mu, k * DT),
                               truth_friction)
        d_ref = reference_step(graph, cfl(grids), d_ref, error_map(graph, mu),
                               error_friction(s_ref))
        d_state = direct_diff_step(d_state, graph, mu, kernel_state(grids, s_ref, k + 1))
        assert_same_bits(d_state, d_ref)


def trace_bits(traces):
    """Every node's gain and error traces, pipe ids and bits."""
    return {v: (bits([tr.mu]), [(e, bits([d])) for e, d in tr.delta_in.items()],
                [(e, bits([d])) for e, d in tr.delta_out.items()]) for v, tr in traces.items()}


def assert_same_state(got, want):
    assert got.step_index == want.step_index
    assert got.packed.tobytes() == want.packed.tobytes()
    assert_same_bits(got, {pid: (g.r_plus.tolist(), g.r_minus.tolist())
                           for pid, g in want.grids.items()})


@given(friction_cases())
def test_stepping_into_two_alternating_out_states_gives_the_bits_of_new_states(case):
    """The run loops' pattern: each step writes a spare state, made once, and
    swaps it with the current one.  Every step returns its `out`, leaves the
    state it steps from as it was, and has the bits and traces of a step
    into new states."""
    graph, grids, (s_fields, r_fields, _), mu, controls, n_steps = case
    s = kernel_state(grids, s_fields).packed_on(graph)
    cs = CoupledState(s, s.layout.packed_state(kernel_state(grids, r_fields)),
                      ObserverConfig(mu, controls))
    spare = CoupledState(cs.s_state.empty_like(), cs.r_state.empty_like(), cs.config)
    truth = s.layout.packed_state(s)
    truth_spare = truth.empty_like()
    for _ in range(n_steps):
        before = [x.packed.tobytes() for x in (cs.s_state, cs.r_state, truth)]
        want, want_traces = step_coupled(cs, graph, collect_nodal=True)
        got, traces = step_coupled(cs, graph, collect_nodal=True, out=spare)
        assert got is spare
        assert_same_state(got.s_state, want.s_state)
        assert_same_state(got.r_state, want.r_state)
        assert trace_bits(traces) == trace_bits(want_traces)
        truth_want = step_system(truth, graph, controls, mu)
        truth_got = step_system(truth, graph, controls, mu, out=truth_spare)
        assert truth_got is truth_spare
        assert_same_state(truth_got, truth_want)
        assert [x.packed.tobytes() for x in (cs.s_state, cs.r_state, truth)] == before
        cs, spare = got, cs
        truth, truth_spare = truth_got, truth
